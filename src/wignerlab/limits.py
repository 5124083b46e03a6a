"""Closed-form limiting laws for n^{1/2} (phi(M)_jj - E phi(M)_jj).

Each law is a quadratic form in phi's Chebyshev-U coefficients a_k = <phi U_k(./2w)> on
[-2w, 2w], <f> = Integral f rho_sc: the U_k(./2w) are orthonormal under rho_sc, so
<phi> = a_0, I1 = <phi .> = w a_1 and I2 = <phi (w^2 - .^2)> = -w^2 a_2.  The limit is an
independent Gaussian plus the rescaled diagonal entry, and with b those of phi2 the n Cov is
summed as those two parts, whose terms are never negative at phi1 = phi2:

  gaussian_variance  s2 = 2 sum_{k>=3} a_k b_k + (Var(X^2) / w^4) a_2 b_2
  v_w                s2 + w2 a_1 b_1

with Var(X^2) = kappa4 + 2 w^4 taken from the entry law without that cancellation.  The
reported terms v_goe = 2 sum_{k>=1} a_k b_k, (kappa4 / w^4) a_2 b_2 and (w2 - 2) a_1 b_1
regroup v_w.  The limiting characteristic function is exp(-x^2 s2 / 2) f(x*), f the entry
CF and x* = s x with s = sqrt(w2) a_1 / w, so kappa_l(limit) = kappa_l(entry) s^l for l >= 3.
semicircle.u_coefficients makes the a_k; this module holds the law's algebra only.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cumulants import MAX_ORDER
from .ensembles import EnsembleSpec, entry_cf
from .errors import ContractError
from .semicircle import TestFunction, u_coefficients


@dataclasses.dataclass(frozen=True, eq=False)
class LimitPrediction:
    """Asymptotic answers for one (phi, ensemble) pair; spec is the ensemble itself,
    whose entry law the limit CF and cumulants read."""

    v_goe: float
    kappa4_term: float
    diag_term: float
    gaussian_variance: float
    v_w: float
    xstar_slope: float
    spec: EnsembleSpec
    phi_ref: dict

    def to_dict(self) -> dict:
        """JSON-ready record; the ensemble appears as its descriptor, ensemble_ref."""
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "spec"}
        d["ensemble_ref"] = self.spec.descriptor()
        return d


def _cov_terms(phi1, phi2, spec: EnsembleSpec):
    """The limiting n Cov's terms, keyed by LimitPrediction field, and a_1 of phi1.  v_goe adds in
    the Gaussian part's order: under goe it has v_w's bits.  + 0.0 makes a zero product +0.0; a term
    that is not finite raises OverflowError, as a Python float product overflows without raising."""
    a = u_coefficients(phi1, spec.w)
    b = a if phi2 is phi1 else u_coefficients(phi2, spec.w)
    (a1, a2), (b1, b2) = a[1:3].tolist(), b[1:3].tolist()
    tail = 2.0 * float(a[3:] @ b[3:])
    gaussian = tail + spec.entry_dist.var_x2 / spec.w**4 * a2 * b2 + 0.0
    terms = {"v_goe": (tail + 2.0 * a2 * b2) + 2.0 * a1 * b1 + 0.0,
             "kappa4_term": spec.entry_dist.kappa4 / spec.w**4 * a2 * b2 + 0.0,
             "diag_term": (spec.w2 - 2.0) * a1 * b1 + 0.0,
             "gaussian_variance": gaussian, "v_w": gaussian + spec.w2 * a1 * b1}
    if not all(map(math.isfinite, terms.values())):
        raise OverflowError(f"limit terms {terms} leave the float range")
    return terms, a1


def cov_limit_wigner(phi1, phi2, spec: EnsembleSpec):
    """GOE covariance plus the fourth-cumulant and diagonal-variance corrections."""
    return _cov_terms(phi1, phi2, spec)[0]["v_w"]


def var_limit(phi: TestFunction, spec: EnsembleSpec) -> LimitPrediction:
    """Total limiting variance of the centered scaled diagonal element."""
    terms, a1 = _cov_terms(phi, phi, spec)
    return LimitPrediction(
        **terms,
        # w2 is 2 for the symmetric-diagonal conventions; + 0.0 keeps an underflow +0.0
        xstar_slope=math.sqrt(spec.w2) * a1 / spec.w + 0.0,
        spec=spec,
        phi_ref=phi.descriptor(),
    )


def limit_cf(prediction: LimitPrediction, x):
    """Limiting characteristic function Z(x) of the centered scaled element."""
    x_arr = np.asarray(x, dtype=float)
    xs = prediction.xstar_slope * x_arr
    gaussian_factor = np.exp(-x_arr**2 * prediction.gaussian_variance / 2.0)
    out = gaussian_factor * entry_cf(prediction.spec.entry_dist, xs)
    return complex(out) if np.isscalar(x) else out


def limit_cumulants(prediction: LimitPrediction, max_order: int) -> list[float]:
    """Cumulants kappa_1..kappa_max of the limit law.

    kappa_2 is the total limiting variance; for l >= 3 the Gaussian part drops
    out and kappa_l = kappa_l(entry) * slope^l.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise ContractError(f"max_order must be in 1..{MAX_ORDER}, got {max_order}")
    out = [0.0, prediction.v_w]
    s = prediction.xstar_slope
    for order in range(3, max_order + 1):
        out.append(prediction.spec.entry_dist.cumulant(order) * s**order)
    return out[:max_order]
