"""Closed-form limiting laws for n^{1/2} (phi(M)_jj - E phi(M)_jj).

For a test function phi and ensemble scale w, with <f> = Integral f rho_sc:

  v_goe        2 (<phi1 phi2> - <phi1><phi2>)
  kappa4 term  (kappa4 / w^8) I2(phi1) I2(phi2),  I2(phi) = <phi (w^2 - .^2)>
  diag term    (w2 - 2) w^-2 I1(phi1) I1(phi2),   I1(phi) = <phi .>

The limiting characteristic function of the centered, sqrt(n)-scaled diagonal
element is exp{(-x^2 V + w^2 x*^2)/2} f(x*), where V is the total limiting
variance, f is the entry characteristic function, and x* = s x with
s = sqrt(w2) I1(phi) / w^2 (sqrt(2) for the symmetric-diagonal conventions).
Structurally the limit is an independent Gaussian plus the rescaled diagonal
entry, so kappa_l(limit) = kappa_l(entry) s^l for l >= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cumulants import MAX_ORDER
from .ensembles import EnsembleSpec, entry_cf
from .errors import ContractError, InconsistencyError, ProvenanceError
from .semicircle import TestFunction, sc_integral

_NEG_CLIP = 1e-12


@dataclass(frozen=True, eq=False)
class LimitPrediction:
    """Asymptotic answers for one (phi, ensemble) pair."""

    v_goe: float
    kappa4_term: float
    diag_term: float
    v_w: float
    xstar_slope: float
    ensemble_ref: dict
    phi_ref: dict

    def to_dict(self) -> dict:
        return {
            "v_goe": self.v_goe,
            "kappa4_term": self.kappa4_term,
            "diag_term": self.diag_term,
            "v_w": self.v_w,
            "xstar_slope": self.xstar_slope,
            "ensemble_ref": self.ensemble_ref,
            "phi_ref": self.phi_ref,
        }


def first_moment_integral(phi, w: float) -> float:
    """I1 = Integral phi(mu) mu rho_sc(mu) dmu."""
    return sc_integral(phi, w, weight=lambda lam: lam)


def kappa4_integral(phi, w: float) -> float:
    """I2 = Integral phi(lambda) (w^2 - lambda^2) rho_sc(lambda) dlambda."""
    return sc_integral(phi, w, weight=lambda lam: w * w - lam * lam)


def cov_limit_goe(phi1, phi2, w: float):
    """Limiting n Cov of diagonal elements for the Gaussian-invariant ensemble.

    Equals 2 (<phi1 phi2> - <phi1><phi2>) after expanding the double integral
    of Delta-phi products against rho_sc x rho_sc.
    """
    cross = sc_integral(lambda lam: phi1(lam) * phi2(lam), w)
    return 2.0 * (cross - sc_integral(phi1, w) * sc_integral(phi2, w))


def cov_limit_wigner(phi1, phi2, spec: EnsembleSpec):
    """GOE covariance plus the fourth-cumulant and diagonal-variance corrections."""
    w = spec.w
    out = cov_limit_goe(phi1, phi2, w)
    out += (spec.entry_dist.kappa4 / w**8) * kappa4_integral(phi1, w) * kappa4_integral(phi2, w)
    if spec.w2 != 2.0:
        out += ((spec.w2 - 2.0) / w**2) * first_moment_integral(phi1, w) * first_moment_integral(phi2, w)
    return out


def _xstar_slope(phi: TestFunction, spec: EnsembleSpec) -> float:
    if phi.parity == "even":
        return 0.0  # parity kills the first-moment integral exactly
    factor = math.sqrt(spec.w2)  # sqrt(2) for the symmetric-diagonal conventions
    return factor * first_moment_integral(phi, spec.w) / spec.w**2


def var_limit(phi: TestFunction, spec: EnsembleSpec) -> LimitPrediction:
    """Total limiting variance of the centered scaled diagonal element."""
    w = spec.w
    v_goe = float(cov_limit_goe(phi, phi, w))
    if phi.parity == "odd":
        kappa4_term = 0.0  # I2 vanishes exactly for odd phi
    else:
        kappa4_term = (spec.entry_dist.kappa4 / w**8) * kappa4_integral(phi, w) ** 2
    if spec.w2 == 2.0 or phi.parity == "even":
        diag_term = 0.0
    else:
        diag_term = ((spec.w2 - 2.0) / w**2) * first_moment_integral(phi, w) ** 2
    v_w = v_goe + kappa4_term + diag_term
    if v_w < -_NEG_CLIP:
        raise InconsistencyError(
            f"limiting variance {v_w} is negative: inconsistent kappa4/moment inputs"
        )
    v_w = max(v_w, 0.0)
    return LimitPrediction(
        v_goe=v_goe,
        kappa4_term=kappa4_term,
        diag_term=diag_term,
        v_w=v_w,
        xstar_slope=_xstar_slope(phi, spec),
        ensemble_ref=spec.descriptor(),
        phi_ref=phi.descriptor(),
    )


def _check_provenance(prediction: LimitPrediction, spec: EnsembleSpec) -> None:
    if prediction.ensemble_ref != spec.descriptor():
        raise ProvenanceError("prediction was built for a different ensemble than spec")


def limit_cf(prediction: LimitPrediction, spec: EnsembleSpec, x):
    """Limiting characteristic function Z(x) of the centered scaled element."""
    _check_provenance(prediction, spec)
    x_arr = np.asarray(x, dtype=float)
    xs = prediction.xstar_slope * x_arr
    out = np.exp((-x_arr**2 * prediction.v_w + spec.w**2 * xs**2) / 2.0) * entry_cf(spec.entry_dist, xs)
    return complex(out) if np.isscalar(x) else out


def limit_cumulants(prediction: LimitPrediction, spec: EnsembleSpec, max_order: int) -> list[float]:
    """Cumulants kappa_1..kappa_max of the limit law.

    kappa_2 is the total limiting variance; for l >= 3 the Gaussian part drops
    out and kappa_l = kappa_l(entry) * slope^l.
    """
    _check_provenance(prediction, spec)
    if not 1 <= max_order <= MAX_ORDER:
        raise ContractError(f"max_order must be in 1..{MAX_ORDER}, got {max_order}")
    out = [0.0, prediction.v_w]
    s = prediction.xstar_slope
    for order in range(3, max_order + 1):
        out.append(spec.entry_dist.cumulant(order) * s**order)
    return out[:max_order]
