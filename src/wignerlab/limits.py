"""Closed-form limiting laws for n^{1/2} (phi(M)_jj - E phi(M)_jj).

For a test function phi and ensemble scale w, with <f> = Integral f rho_sc:

  v_goe        2 (<phi1 phi2> - <phi1><phi2>)
  kappa4 term  (kappa4 / w^8) I2(phi1) I2(phi2),  I2(phi) = <phi (w^2 - .^2)>
  diag term    (w2 - 2) w^-2 I1(phi1) I1(phi2),   I1(phi) = <phi .>

The limiting characteristic function of the centered, sqrt(n)-scaled diagonal
element is exp{(-x^2 V + w^2 x*^2)/2} f(x*), where V is the total limiting
variance, f is the entry characteristic function, and x* = s x with
s = sqrt(w2) I1(phi) / w^2 (sqrt(2) for the symmetric-diagonal conventions).
Structurally the limit is an independent Gaussian, of variance V - w^2 s^2,
plus the rescaled diagonal entry, so kappa_l(limit) = kappa_l(entry) s^l for
l >= 3.  var_limit and cov_limit_wigner sum the same three terms (_cov_terms).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cumulants import MAX_ORDER
from .ensembles import EnsembleSpec, entry_cf
from .errors import ContractError
from .semicircle import TestFunction, check_coverage, gauss_chebyshev_u

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
    """The GOE, fourth-cumulant and diagonal terms of the limiting n Cov, and I1(phi1).

    Each phi is read once, at the nodes x of the semicircle rule, and every
    integral is a weighted sum of those values: <phi>, I1 from phi x, I2 from
    phi (w^2 - x^2), and <phi1 phi2> from the product.
    The parity zeros are exact: I2 vanishes for odd phi and I1 for even phi, and the
    GOE term for an odd and an even phi, so those terms are 0.0 without quadrature,
    as is the diagonal term at w2 = 2.
    Each correction is coef * (I(phi1) I(phi2)); for the variance (phi2 is phi1) it is
    coef * I(phi)**2, one sum per integral.
    A Python float product overflows to inf without raising, so terms whose sum
    is not finite raise OverflowError.
    """
    w = spec.w
    rule = gauss_chebyshev_u(w)
    x = rule.nodes

    def read(phi):
        check_coverage(phi, w)
        return phi(x)

    def integral(vals):
        return float(np.sum(rule.weights * vals))

    same = phi2 is phi1
    f1 = read(phi1)
    f2 = f1 if same else read(phi2)
    parities = (phi1.parity, phi2.parity)
    i1 = 0.0 if phi1.parity == "even" else integral(f1 * x)
    kappa4 = diag = 0.0
    if "odd" not in parities:
        i2 = integral(f1 * (w * w - x * x))
        kappa4 = (spec.entry_dist.kappa4 / w**8) * (
            i2**2 if same else i2 * integral(f2 * (w * w - x * x)))
    if spec.w2 != 2.0 and "even" not in parities:
        diag = ((spec.w2 - 2.0) / w**2) * (i1**2 if same else i1 * integral(f2 * x))
    goe = 0.0 if set(parities) == {"odd", "even"} else 2.0 * (integral(f1 * f2) - integral(f1) * integral(f2))
    if not math.isfinite(goe + kappa4 + diag):
        raise OverflowError(f"limit terms {goe}, {kappa4}, {diag} leave the float range")
    return (goe, kappa4, diag), i1


def cov_limit_wigner(phi1, phi2, spec: EnsembleSpec):
    """GOE covariance plus the fourth-cumulant and diagonal-variance corrections."""
    (goe, kappa4, diag), _ = _cov_terms(phi1, phi2, spec)
    return goe + kappa4 + diag


def var_limit(phi: TestFunction, spec: EnsembleSpec) -> LimitPrediction:
    """Total limiting variance of the centered scaled diagonal element."""
    (v_goe, kappa4_term, diag_term), i1 = _cov_terms(phi, phi, spec)
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
        # sqrt(w2) is sqrt(2) for the symmetric-diagonal conventions
        xstar_slope=math.sqrt(spec.w2) * i1 / spec.w**2,
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
