"""Discretized Volterra machinery for the time-domain covariance kernel.

The limiting covariance kernel of diagonal propagator entries solves

  Cov(t1, t2) + w^2 II_{0<t4<t3<t1} v(t4) Cov(t3 - t4, t2) = A(t1, t2),

whose closed-form solution is 2 w^2 T3(t1, t2) + kappa4 vvv(t1) vvv(t2) with
T3 a separable triple semicircle integral of exponential divided differences
and vvv = (v*v*v) in closed form.  This module builds the pieces, a trapezoid
step-marching solver for the general convolution-kernel equation, and the
residual checks tying the discretized equation to the closed forms.

All time discretizations are trapezoid-rule, uniformly second order; the
residual tests assert the O(h^2) rate rather than hiding it in tolerances.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .blas import single_blas_thread
from .errors import ContractError
from .semicircle import gauss_chebyshev_u, sc_convolutions, v_of_t


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------


def uniform_grid(t_max: float, h: float) -> np.ndarray:
    """0, h, ..., t_max; h must divide t_max (to 1e-9 relative)."""
    if not (math.isfinite(t_max) and math.isfinite(h)) or t_max <= 0 or h <= 0:
        raise ContractError(f"t_max and h must be positive and finite, got t_max={t_max}, h={h}")
    steps = t_max / h
    n = int(round(steps))
    if n < 1 or abs(steps - n) > 1e-9 * steps:
        raise ContractError(f"step h={h} does not divide t_max={t_max}")
    return np.linspace(0.0, n * h, n + 1)


# ---------------------------------------------------------------------------
# trapezoid building blocks
# ---------------------------------------------------------------------------


def _fft_length(m: int) -> int:
    """The smallest 5-smooth integer >= m: the least p 2^k >= m over p = 3^b 5^c."""
    span = range(m.bit_length())
    return min(p << ((m - 1) // p).bit_length() for p in (3**b * 5**c for b in span for c in span))


def _conv_values(f: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid causal convolution Integral_0^t f(t-s) g(s) ds along axis 0.

    f is a series; g is a series or a kernel with time on axis 0.  The full
    discrete convolution comes from one FFT of the time axis, zero-padded to
    _fft_length(2n - 1); the two end points of each integral then get their
    half weight.
    """
    n = f.shape[0]
    size = _fft_length(2 * n - 1)
    f_col = f.reshape((n,) + (1,) * (g.ndim - 1))
    out = np.fft.ifft(np.fft.fft(g, size, axis=0) * np.fft.fft(f_col, size, axis=0), axis=0)[:n] * h
    out -= (0.5 * h * f[0]) * g
    out -= (0.5 * h) * (f_col * g[0])
    return out


def _cumtrapz(values: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid cumulative integral Integral_0^t along axis 0."""
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum((values[1:] + values[:-1]) * (0.5 * h), axis=0, out=out[1:])
    return out


# ---------------------------------------------------------------------------
# the convolution-kernel Volterra equation
# ---------------------------------------------------------------------------


def volterra_apply(q: np.ndarray, p_values: np.ndarray, h: float) -> np.ndarray:
    """Left side P + II Q(t1-t2) P(t2) of the equation, discretized with step h.

    q holds the kernel's values on the grid 0, h, ...; p_values is a series on
    that grid, or a kernel whose first axis is the equation's time; every
    column is then applied on its own.
    """
    inner = _conv_values(q, p_values, h)
    return p_values + _cumtrapz(inner, h)


def volterra_solve(q: np.ndarray, r: np.ndarray, h: float) -> np.ndarray:
    """Step-marching solution of P(t) + II_{0<t2<t1<t} Q(t1-t2) P(t2) = R(t), with step h.

    q and r hold the values of Q and R on the grid 0, h, ...  The discretized
    double integral is lower triangular in P, so the march is exact for the
    discrete system (residual at machine precision); accuracy against the
    continuum solution is O(h^2).  Requires R(0) = 0.
    """
    if q.shape != r.shape:
        raise ContractError(f"Q and R need the same length, got {q.shape} and {r.shape}")
    if abs(r[0]) > 1e-12:
        raise ContractError(f"R(0) must vanish, got {r[0]}")
    n = q.size
    p = np.zeros(n, dtype=complex)
    k = np.zeros(n, dtype=complex)  # k_m = (Q * P)(t_m)
    p[0] = r[0]
    k_running = 0.0 + 0.0j  # sum_{m=1}^{i-1} k_m
    diag = 1.0 + h * h * q[0] / 4.0
    for i in range(1, n):
        k_partial = h * (0.5 * q[i] * p[0] + np.dot(q[i - 1:0:-1], p[1:i]))
        integral_partial = h * (0.5 * k[0] + k_running + 0.5 * k_partial)
        p[i] = (r[i] - integral_partial) / diag
        k[i] = k_partial + 0.5 * h * q[0] * p[i]
        k_running += k[i]
    return p


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------


def _edd_weighted(t_values: np.ndarray, w: float) -> np.ndarray:
    """a[t, j] = sum_i w_i (e^{i t l_i} - e^{i t l_j})/(l_i - l_j), i = j giving i t w_j e^{i t l_j}.

    One GEMM over the grid: a = (f o w) D - f o (w D) + i t (1 + f) o w, with
    D_ij = 1/(l_i - l_j) off the diagonal (0 on it) and f = e^{i t l} - 1 formed
    without cancellation, so a(0) = 0 exactly.
    """
    nodes, weights = gauss_chebyshev_u(w)
    t = np.asarray(t_values, float)
    gaps = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(gaps, np.inf)
    d = 1.0 / gaps
    theta = np.multiply.outer(t, nodes)
    f = -2.0 * np.sin(0.5 * theta) ** 2 + 1j * np.sin(theta)
    fw = f * weights
    return fw @ d - f * (weights @ d) + 1j * t[:, None] * (weights + fw)


def grid_factors(t_values: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernels' factors on a time grid: (_edd_weighted(t), e^{i t l} w_l, vv, vvv).

    Row k of each factor belongs to t_values[k] alone, so the factors of a
    block of the grid's times are the same rows of the grid's factors.
    """
    nodes, weights = gauss_chebyshev_u(w)
    t = np.asarray(t_values, float)
    return (_edd_weighted(t, w), np.exp(1j * np.multiply.outer(t, nodes)) * weights,
            *sc_convolutions(t, w))


def phi_kernel_grid(f3: tuple[np.ndarray, ...], f2: tuple[np.ndarray, ...]) -> np.ndarray:
    """The inner two-time kernel of the covariance equation's source term, on a product grid.

    Phi(t3, t2) = -i II e^{i t3 l} (e^{i t2 l} - e^{i t2 m})/(l - m) rho rho;
    the l = m diagonal uses the removable-singularity limit i t2 e^{i t2 l}.
    The divided-difference matrix is symmetric, so the inner rho-integral over
    m is the weighted divided difference of _edd_weighted.  f3 and f2 are the
    grid_factors of the t3 and the t2 times at one scale w, f3 maybe mapped along t3.
    """
    return -1j * (f3[1] @ f2[0].T)


def cov_kernel_grid(f1: tuple[np.ndarray, ...], f2: tuple[np.ndarray, ...], w: float,
                    kappa4: float) -> np.ndarray:
    """Closed-form kernel on a product grid: 2 w^2 T3 + kappa4 vvv x vvv.

    T3(t1, t2) = sum_j w_j a_j(t1) a_j(t2) is manifestly symmetric; a_j is the
    rho-weighted exponential divided difference against node j.  f1 and f2 are
    the grid_factors of the t1 and the t2 times at scale w, f1 maybe mapped along t1.
    """
    _, weights = gauss_chebyshev_u(w)
    t3_part = (f1[0] * weights) @ f2[0].T
    return 2.0 * w * w * t3_part + kappa4 * np.multiply.outer(f1[3], f2[3])


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

# t2 columns per block of the covariance-equation residual
_COLUMN_BLOCK = 64


def coveq_residual(w: float, kappa4: float, grid: np.ndarray) -> float:
    """Sup defect of the closed-form kernel in the discretized covariance equation; O(h^2).

    The defect is L[Cov] - A, with L the discretized left side and the source A(t1, t2) =
    -2 w^2 Int_0^{t1} Phi(., t2) + kappa4 vvv(t2) Int_0^{t1} vv.  L and Int_0^{t1} act on each
    t2 column alone, so they go once per grid onto the kernels' t1 factors, kappa4's onto the
    O(h^2) defect L vvv - Int vv; each block of _COLUMN_BLOCK t2 columns is then cov_kernel_grid
    + 2 w^2 phi_kernel_grid of those and the block's rows of the grid factors, in O(n (block + nodes)).
    """
    g = np.asarray(grid, float)
    h = float(g[1] - g[0])
    a, e, vv, vvv = grid_factors(g, w)
    kernel = (w * w * v_of_t(g, w)).astype(complex)
    applied_a = np.empty_like(a)
    for nodes in (slice(start, start + _COLUMN_BLOCK) for start in range(0, a.shape[1], _COLUMN_BLOCK)):
        applied_a[:, nodes] = volterra_apply(kernel, a[:, nodes], h)
        e[:, nodes] = _cumtrapz(e[:, nodes], h)  # e is read only through its t1 integral
    t1_side = (applied_a, e, None, volterra_apply(kernel, vvv, h) - _cumtrapz(vv, h))
    block_sups = []
    for start in range(0, g.size - 1, _COLUMN_BLOCK):
        # a lone last column would run through GEMV, which rounds differently: the block before takes it
        cols = slice(start, start + _COLUMN_BLOCK if g.size - start - _COLUMN_BLOCK > 1 else g.size)
        block = (a[cols], None, None, vvv[cols])
        lhs = cov_kernel_grid(t1_side, block, w, kappa4) + 2.0 * w * w * phi_kernel_grid(t1_side, block)
        block_sups.append(np.max(np.abs(lhs)))
    return float(np.max(block_sups))


def v_equation_defect(v: np.ndarray, w: float, h: float, c: float) -> float:
    """Sup defect of c v in the discretized v-equation P + w^2 II v(.) P(.) = c, with step h.

    v holds v(t) on the grid 0, h, ...  With c = 1 this is the scalar equation
    v + w^2 II v(.) v(.) = 1.  With c = prod_{m=2}^l v(t_m) it is the t1-marginal
    of the l-fold propagator-product equation, whose factorized solution is
    c v; the defect is then O(h^2) times |c|.
    """
    kernel = (w * w * v).astype(complex)
    lhs = volterra_apply(kernel, c * v.astype(complex), h)
    return float(np.max(np.abs(lhs - c)))


# ---------------------------------------------------------------------------
# built-in residual battery (CLI `volterra` subcommand)
# ---------------------------------------------------------------------------


def residual_table(h_values: Sequence[float], w: float, kappa4: float, t_max: float = 2.0) -> list[dict]:
    """The volterra_residuals.csv rows: residuals and observed orders for the built-in
    cases at each step size, on [0, t_max]; each grid is walked once, coarsest first."""
    steps = [float(h) for h in sorted(h_values, reverse=True)]
    per_grid = []
    with single_blas_thread():  # the arrays are small: more BLAS threads add CPU time, not speed
        v12 = v_of_t(1.0, w) * v_of_t(2.0, w)
        for h in steps:
            g = uniform_grid(t_max, h)
            v, step = v_of_t(g, w), float(g[1] - g[0])
            # v + w^2 II v(.)v(.) = 1 is also the l = 2 equation at t2 = 0, where v(0) = 1
            scalar = v_equation_defect(v, w, step, 1.0)
            per_grid.append({"scalar_v_equation": scalar, "coveq": coveq_residual(w, kappa4, g),
                             "v2_l2_t0": scalar, "v2_l3": v_equation_defect(v, w, step, v12),
                             "manufactured_solve": manufactured_solve_error(g)})
    rows: list[dict] = []
    for name in per_grid[0]:
        prev = 0.0
        for h, residuals in zip(steps, per_grid):
            res = residuals[name]
            order = math.log2(prev / res) if prev > 0 and res > 0 else float("nan")
            rows.append({"case": name, "h": h, "residual": res, "order_estimate": order})
            prev = res
    return rows


def manufactured_solve_error(grid: np.ndarray) -> float:
    """Manufactured solution with an analytic source: P* = sin, Q = c = 0.8.

    The exact double integral of the constant-kernel equation gives
    R = sin t + c (t - sin t); the solver's defect against P* is O(h^2).
    """
    c = 0.8
    g = np.asarray(grid, float)
    p_star = np.sin(g) + 0.0j
    q = np.full(g.size, c, dtype=complex)
    r = np.sin(g) + c * (g - np.sin(g)) + 0.0j
    solved = volterra_solve(q, r, float(g[1] - g[0]))
    return float(np.max(np.abs(solved - p_star)))
