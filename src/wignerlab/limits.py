"""Closed-form limiting laws for n^{1/2} (phi(M)_jj - E phi(M)_jj).

Each law is a quadratic form in phi's Chebyshev-U coefficients a_k = <phi U_k(./2w)> on
[-2w, 2w], <f> = Integral f rho_sc: the U_k(./2w) are orthonormal under rho_sc, so
<phi> = a_0, I1 = <phi .> = w a_1 and I2 = <phi (w^2 - .^2)> = -w^2 a_2.  With b those of phi2:

  v_goe        2 sum_{k>=1} a_k b_k = 2 (<phi1 phi2> - <phi1><phi2>)
  kappa4 term  (kappa4 / w^4) a_2 b_2
  diag term    (w2 - 2) a_1 b_1

The limiting characteristic function of the centered, sqrt(n)-scaled diagonal
element is exp{(-x^2 V + w^2 x*^2)/2} f(x*), where V is the total limiting
variance, f is the entry characteristic function, and x* = s x with
s = sqrt(w2) a_1 / w (w2 = 2 for the symmetric-diagonal conventions).
Structurally the limit is an independent Gaussian, of variance V - w^2 s^2,
plus the rescaled diagonal entry, so kappa_l(limit) = kappa_l(entry) s^l for
l >= 3.  var_limit and cov_limit_wigner sum the same three terms (_cov_terms).
This module holds the law's algebra only: semicircle.u_coefficients makes the a_k.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cumulants import MAX_ORDER
from .ensembles import EnsembleSpec, entry_cf
from .errors import ContractError
from .semicircle import TestFunction, u_coefficients

_NEG_CLIP = 1e-12


@dataclasses.dataclass(frozen=True, eq=False)
class LimitPrediction:
    """Asymptotic answers for one (phi, ensemble) pair; spec is the ensemble itself,
    whose entry law the limit CF and cumulants read."""

    v_goe: float
    kappa4_term: float
    diag_term: float
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
    """The GOE, fourth-cumulant and diagonal terms of the limiting n Cov, and a_1 of phi1.
    + 0.0 makes a zero product +0.0; terms whose sum is not finite raise OverflowError, since
    a Python float product overflows to inf without raising."""
    a = u_coefficients(phi1, spec.w)
    b = a if phi2 is phi1 else u_coefficients(phi2, spec.w)
    (a1, a2), (b1, b2) = a[1:3].tolist(), b[1:3].tolist()
    terms = (2.0 * float(a[1:] @ b[1:]) + 0.0,
             spec.entry_dist.kappa4 / spec.w**4 * a2 * b2 + 0.0, (spec.w2 - 2.0) * a1 * b1 + 0.0)
    if not math.isfinite(sum(terms)):
        raise OverflowError(f"limit terms {terms} leave the float range")
    return terms, a1


def cov_limit_wigner(phi1, phi2, spec: EnsembleSpec):
    """GOE covariance plus the fourth-cumulant and diagonal-variance corrections."""
    (goe, kappa4, diag), _ = _cov_terms(phi1, phi2, spec)
    return goe + kappa4 + diag


def var_limit(phi: TestFunction, spec: EnsembleSpec) -> LimitPrediction:
    """Total limiting variance of the centered scaled diagonal element."""
    (v_goe, kappa4_term, diag_term), a1 = _cov_terms(phi, phi, spec)
    v_w = v_goe + kappa4_term + diag_term
    # relative to the terms' size: an exact zero can round to +-eps (|v_goe| + |kappa4_term|)
    size = abs(v_goe) + abs(kappa4_term) + abs(diag_term)
    if v_w < -_NEG_CLIP * max(1.0, size):
        raise ContractError(
            f"limiting variance {v_w} is negative: inconsistent kappa4/moment inputs"
        )
    if abs(v_w) <= _NEG_CLIP * size:
        v_w = 0.0
    return LimitPrediction(
        v_goe=v_goe,
        kappa4_term=kappa4_term,
        diag_term=diag_term,
        v_w=max(v_w, 0.0),
        # w2 is 2 for the symmetric-diagonal conventions; + 0.0 keeps an underflow +0.0
        xstar_slope=math.sqrt(spec.w2) * a1 / spec.w + 0.0,
        spec=spec,
        phi_ref=phi.descriptor(),
    )


def limit_cf(prediction: LimitPrediction, x):
    """Limiting characteristic function Z(x) of the centered scaled element."""
    spec = prediction.spec
    x_arr = np.asarray(x, dtype=float)
    xs = prediction.xstar_slope * x_arr
    # the exponent is -x^2 (V - w^2 s^2) / 2 <= 0; capping it at 0 keeps its rounding
    # (of order eps x^2 V) from lifting the Gaussian factor above 1
    exponent = np.minimum((-x_arr**2 * prediction.v_w + spec.w**2 * xs**2) / 2.0, 0.0)
    out = np.exp(exponent) * entry_cf(spec.entry_dist, xs)
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
