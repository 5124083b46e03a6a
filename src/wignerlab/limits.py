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
from typing import Sequence

import numpy as np

from .ensembles import GENERAL_DIAGONAL, EnsembleSpec, entry_cf
from .errors import ContractError, InconsistencyError
from .semicircle import DEFAULT_NODES, TestFunction, gauss_chebyshev_u, sc_integral

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
    cf_grid: np.ndarray | None = None  # rows (x, Re Z, Im Z) when populated

    def to_dict(self) -> dict:
        d = {
            "v_goe": self.v_goe,
            "kappa4_term": self.kappa4_term,
            "diag_term": self.diag_term,
            "v_w": self.v_w,
            "xstar_slope": self.xstar_slope,
            "ensemble_ref": self.ensemble_ref,
            "phi_ref": self.phi_ref,
        }
        if self.cf_grid is not None:
            d["cf"] = [[float(x), float(re), float(im)] for x, re, im in self.cf_grid]
        return d


def first_moment_integral(phi, w: float, n_nodes: int = DEFAULT_NODES) -> float:
    """I1 = Integral phi(mu) mu rho_sc(mu) dmu."""
    return sc_integral(phi, w, n_nodes, weight=lambda lam: lam)


def kappa4_integral(phi, w: float, n_nodes: int = DEFAULT_NODES) -> float:
    """I2 = Integral phi(lambda) (w^2 - lambda^2) rho_sc(lambda) dlambda."""
    return sc_integral(phi, w, n_nodes, weight=lambda lam: w * w - lam * lam)


def cov_limit_goe(phi1, phi2, w: float, n_nodes: int = DEFAULT_NODES):
    """Limiting n Cov of diagonal elements for the Gaussian-invariant ensemble.

    Equals 2 (<phi1 phi2> - <phi1><phi2>) after expanding the double integral
    of Delta-phi products against rho_sc x rho_sc.
    """
    cross = sc_integral(lambda lam: phi1(lam) * phi2(lam), w, n_nodes)
    return 2.0 * (cross - sc_integral(phi1, w, n_nodes) * sc_integral(phi2, w, n_nodes))


def cov_limit_goe_oracle(phi1, phi2, w: float, n_nodes: int = DEFAULT_NODES):
    """Tensor-product double quadrature of the defining double integral (test oracle)."""
    rule = gauss_chebyshev_u(w, n_nodes)
    f1 = phi1(rule.nodes)
    f2 = phi2(rule.nodes)
    d1 = f1[:, None] - f1[None, :]
    d2 = f2[:, None] - f2[None, :]
    return float(np.real_if_close(rule.weights @ (d1 * d2) @ rule.weights, tol=1000))


def cov_limit_wigner(phi1, phi2, spec: EnsembleSpec, n_nodes: int = DEFAULT_NODES):
    """GOE covariance plus the fourth-cumulant and diagonal-variance corrections."""
    w = spec.w
    out = cov_limit_goe(phi1, phi2, w, n_nodes)
    out += (spec.entry_dist.kappa4 / w**8) * kappa4_integral(phi1, w, n_nodes) * kappa4_integral(phi2, w, n_nodes)
    if spec.w2 != 2.0:
        out += ((spec.w2 - 2.0) / w**2) * first_moment_integral(phi1, w, n_nodes) * first_moment_integral(phi2, w, n_nodes)
    return out


def _xstar_slope(phi: TestFunction, spec: EnsembleSpec, n_nodes: int) -> float:
    if phi.parity == "even":
        return 0.0  # parity kills the first-moment integral exactly
    factor = math.sqrt(spec.w2)  # sqrt(2) for the symmetric-diagonal conventions
    return factor * first_moment_integral(phi, spec.w, n_nodes) / spec.w**2


def var_limit(phi: TestFunction, spec: EnsembleSpec, n_nodes: int = DEFAULT_NODES) -> LimitPrediction:
    """Total limiting variance of the centered scaled diagonal element."""
    w = spec.w
    v_goe = float(cov_limit_goe(phi, phi, w, n_nodes))
    if phi.parity == "odd":
        kappa4_term = 0.0  # I2 vanishes exactly for odd phi
    else:
        kappa4_term = (spec.entry_dist.kappa4 / w**8) * kappa4_integral(phi, w, n_nodes) ** 2
    if spec.w2 == 2.0 or phi.parity == "even":
        diag_term = 0.0
    else:
        diag_term = ((spec.w2 - 2.0) / w**2) * first_moment_integral(phi, w, n_nodes) ** 2
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
        xstar_slope=_xstar_slope(phi, spec, n_nodes),
        ensemble_ref=spec.descriptor(),
        phi_ref=phi.descriptor(),
    )


def x_star(phi: TestFunction, spec: EnsembleSpec, x: float, n_nodes: int = DEFAULT_NODES) -> float:
    """Rescaled argument x* at which the entry characteristic function enters."""
    return _xstar_slope(phi, spec, n_nodes) * x


def limit_cf(phi: TestFunction, spec: EnsembleSpec, x, n_nodes: int = DEFAULT_NODES,
             prediction: LimitPrediction | None = None):
    """Limiting characteristic function Z(x) of the centered scaled element."""
    pred = prediction if prediction is not None else var_limit(phi, spec, n_nodes)
    x_arr = np.asarray(x, dtype=float)
    xs = pred.xstar_slope * x_arr
    out = np.exp((-x_arr**2 * pred.v_w + spec.w**2 * xs**2) / 2.0) * entry_cf(spec.entry_dist, xs)
    return complex(out) if np.isscalar(x) else out


def limit_cumulants(phi: TestFunction, spec: EnsembleSpec, max_order: int,
                    n_nodes: int = DEFAULT_NODES) -> list[float]:
    """Cumulants kappa_1..kappa_max of the limit law.

    kappa_2 is the total limiting variance; for l >= 3 the Gaussian part drops
    out and kappa_l = kappa_l(entry) * slope^l.
    """
    if max_order < 1:
        raise ContractError("max_order must be >= 1")
    if max_order > spec.entry_dist.cumulant_order_available():
        raise ContractError(
            f"max_order {max_order} exceeds available entry cumulants "
            f"({spec.entry_dist.cumulant_order_available()})"
        )
    pred = var_limit(phi, spec, n_nodes)
    out = [0.0, pred.v_w]
    s = pred.xstar_slope
    for order in range(3, max_order + 1):
        out.append(spec.entry_dist.cumulant(order) * s**order)
    return out[:max_order]


# ---------------------------------------------------------------------------
# singular triple-integral cross-check
# ---------------------------------------------------------------------------


def _divided_difference(phi: TestFunction, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(phi(x) - phi(y)) / (x - y) with the exact derivative on the diagonal."""
    num = phi(x) - phi(y)
    den = x - y
    on_diag = den == 0
    safe = np.where(on_diag, 1.0, den)
    out = num / safe
    if np.any(on_diag):
        out = np.where(on_diag, phi.derivative()(x), out)
    return out


def triple_singular_cross_check(phi1: TestFunction, phi2: TestFunction, w: float,
                                epsilons: Sequence[float],
                                n_nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Regularized triple integral whose epsilon -> 0 limit is cov_limit_goe.

    Evaluates 2 w^2 Integral q1(l1, l2) q2(l2, l3 + i eps) over rho_sc^x3 by
    tensor quadrature, q being divided differences of the phi's; the third
    variable is pushed off the real axis by +i eps.  Returns one value per
    epsilon (descending epsilons expected); Richardson extrapolation of the
    sequence reproduces the closed-form covariance.
    """
    eps_list = [float(e) for e in epsilons]
    if any(e <= 0 for e in eps_list):
        raise ContractError("epsilons must be positive")
    rule = gauss_chebyshev_u(w, n_nodes)
    lam = rule.nodes
    # a_j = sum_i w_i q1(l_i, l_j): independent of epsilon
    a = _divided_difference(phi1, lam[:, None], lam[None, :]).T @ rule.weights
    out = []
    for eps in eps_list:
        shifted = lam + 1j * eps
        q2 = (phi2(lam)[:, None] - phi2(shifted)[None, :]) / (lam[:, None] - shifted[None, :])
        b = q2 @ rule.weights
        out.append(2.0 * w * w * np.sum(rule.weights * a * b))
    return np.asarray(out)


def richardson(values: Sequence, ratio: float = 2.0):
    """Extrapolate a sequence f(h), f(h/r), ... with error c1 h + c2 h^2 + ... to h -> 0."""
    vals = list(np.asarray(values, dtype=complex))
    if len(vals) == 0:
        raise ContractError("need at least one value")
    level = 1
    while len(vals) > 1:
        factor = ratio**level
        vals = [(factor * fine - coarse) / (factor - 1.0) for coarse, fine in zip(vals[:-1], vals[1:])]
        level += 1
    out = vals[0]
    return float(out.real) if abs(out.imag) < 1e-12 * (1.0 + abs(out.real)) else out
