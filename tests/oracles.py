"""Oracles for the tests: independent evaluations of wignerlab's closed forms.

No shipped path calls any of these, so they live beside the tests rather than
in the package; in particular wignerlab does not import scipy.integrate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.integrate import quad

from wignerlab.cumulants import jackknife_spread
from wignerlab.errors import ContractError
from wignerlab.semicircle import DEFAULT_NODES, TestFunction, gauss_chebyshev_u, rho_sc, v_of_t, v_tilde
from wignerlab.volterra import ComplexSeries

# ---------------------------------------------------------------------------
# semicircle integrals
# ---------------------------------------------------------------------------


def sc_moment(power: int, w: float, n_nodes: int = DEFAULT_NODES) -> float:
    """Semicircle moment m_p by an n_nodes rule; m_{2k} = C_k w^{2k} (Catalan), odd moments 0."""
    rule = gauss_chebyshev_u(w, n_nodes)
    return float(np.sum(rule.weights * rule.nodes**power))


def v_of_t_quadrature(t, w: float):
    """v(t) from its defining integral Integral cos(t lambda) rho_sc, by a 256-node rule."""
    rule = gauss_chebyshev_u(w, 256)
    vals = np.cos(np.multiply.outer(np.asarray(t, dtype=float), rule.nodes)) @ rule.weights
    return float(vals) if np.isscalar(t) else vals


def stieltjes_rho(lam: float, w: float) -> float:
    """Principal value of Integral rho_sc(mu)/(mu - lambda) dmu = -lambda/(2 w^2)."""
    if w <= 0:
        raise ContractError("scale w must be positive")
    if abs(lam) >= 2.0 * w:
        raise ContractError("stieltjes_rho requires |lambda| < 2w")
    return -lam / (2.0 * w * w)


def stieltjes_rho_pv_check(lam: float, w: float, deltas: Sequence[float] = (0.02, 0.01, 0.005)) -> float:
    """Quadrature cross-check of stieltjes_rho.

    Integrates over {|mu - lambda| > delta} with symmetric node pairing
    (the lambda +- s contributions are combined so their poles cancel), then
    Richardson-extrapolates the remaining O(delta) truncation to delta -> 0.
    """
    if abs(lam) >= 2.0 * w:
        raise ContractError("stieltjes_rho_pv_check requires |lambda| < 2w")
    deltas = sorted(float(d) for d in deltas)
    if deltas[0] <= 0:
        raise ContractError("deltas must be positive")
    half_width = min(2.0 * w - lam, lam + 2.0 * w)

    def excluded_integral(delta: float) -> float:
        paired = quad(
            lambda s: (rho_sc(lam + s, w) - rho_sc(lam - s, w)) / s,
            delta,
            half_width,
            limit=200,
        )[0]
        outer = 0.0
        if lam - half_width > -2.0 * w:
            outer += quad(lambda mu: rho_sc(mu, w) / (mu - lam), -2.0 * w, lam - half_width, limit=200)[0]
        if lam + half_width < 2.0 * w:
            outer += quad(lambda mu: rho_sc(mu, w) / (mu - lam), lam + half_width, 2.0 * w, limit=200)[0]
        return paired + outer

    vals = [excluded_integral(d) for d in deltas]
    # excluded window contributes ~ 2 rho'(lam) delta: one Richardson level per halving
    while len(vals) > 1:
        vals = [2.0 * lo - hi for lo, hi in zip(vals[:-1], vals[1:])]
    return vals[0]


# ---------------------------------------------------------------------------
# limiting covariance
# ---------------------------------------------------------------------------


def cov_limit_goe_oracle(phi1, phi2, w: float):
    """Tensor-product double quadrature of the defining double integral of cov_limit_goe."""
    rule = gauss_chebyshev_u(w)
    f1 = phi1(rule.nodes)
    f2 = phi2(rule.nodes)
    d1 = f1[:, None] - f1[None, :]
    d2 = f2[:, None] - f2[None, :]
    return float(np.real_if_close(rule.weights @ (d1 * d2) @ rule.weights, tol=1000))


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
                                epsilons: Sequence[float]) -> np.ndarray:
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
    rule = gauss_chebyshev_u(w)
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


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def jackknife_se(data: Sequence[float], statistic) -> tuple[float, float]:
    """(estimate, delete-1 jackknife se) for an arbitrary statistic of a sample; O(R^2)."""
    x = np.asarray(data, dtype=float).ravel()
    n = x.size
    if n < 8:
        raise ContractError("jackknife needs at least 8 observations")
    loo = np.array([statistic(np.delete(x, i)) for i in range(n)])
    return float(statistic(x)), jackknife_spread(loo)


# ---------------------------------------------------------------------------
# resolvent of the v-convolution equation
# ---------------------------------------------------------------------------


def resolvent_T(w: float, grid: np.ndarray) -> ComplexSeries:
    """The resolvent kernel of the v-convolution equation: T(t) = -v(t)."""
    if w <= 0:
        raise ContractError("scale w must be positive")
    return ComplexSeries(grid=np.asarray(grid, float), values=-v_of_t(np.asarray(grid, float), w).astype(complex))


def resolvent_identity_defect(z, w: float):
    """|(z + w^2 v~(z)) (-v~(z)) - 1| at one or more lower-half-plane points."""
    vt = v_tilde(z, w)
    out = np.abs((np.asarray(z, complex) + w * w * vt) * (-vt) - 1.0)
    return float(out) if np.isscalar(z) else out
