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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blas import single_blas_thread
from .errors import ContractError
from .semicircle import gauss_chebyshev_u, sc_convolutions, v_of_t


# ---------------------------------------------------------------------------
# series containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ComplexSeries:
    """Samples of a function on the uniform grid 0, h, ..., T."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ContractError("grid and values must be matching 1-D arrays")
        if self.grid.size < 2:
            raise ContractError("series needs at least two grid points")
        steps = np.diff(self.grid)
        # linspace rounds each point to about one ulp of its size, so the steps of a
        # uniform grid agree to a few eps times its largest value, not to a fixed 1e-15
        atol = 4.0 * np.finfo(float).eps * np.max(np.abs(self.grid))
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=atol) or steps[0] <= 0:
            raise ContractError("grid must be uniform with positive step")
        if not (np.all(np.isfinite(self.grid)) and np.all(np.isfinite(self.values))):
            raise ContractError("series must be finite")

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])


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


def _conv_values(f: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid causal convolution Integral_0^t f(t-s) g(s) ds along axis 0.

    f is a series; g is a series or a kernel with time on axis 0.  The full
    discrete convolution comes from one FFT of the zero-padded time axis; the
    two end points of each integral then get their half weight.
    """
    from scipy import fft as sp_fft  # loaded on first use, off the import path of wignerlab.cli

    n = f.shape[0]
    size = sp_fft.next_fast_len(2 * n - 1)
    f_col = f.reshape((n,) + (1,) * (g.ndim - 1))
    spectrum = sp_fft.fft(g, size, axis=0)
    spectrum *= sp_fft.fft(f_col, size, axis=0)
    out = sp_fft.ifft(spectrum, axis=0, overwrite_x=True)[:n] * h
    del spectrum  # the padded spectrum is the largest array here; free it first
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


def volterra_apply(q: ComplexSeries, p_values: np.ndarray) -> np.ndarray:
    """Left side P + II Q(t1-t2) P(t2) of the equation, discretized.

    p_values is a series, or a kernel whose first axis is the equation's time;
    every column is then applied on its own.
    """
    inner = _conv_values(q.values, p_values, q.h)
    return p_values + _cumtrapz(inner, q.h)


def volterra_solve(q: ComplexSeries, r: ComplexSeries) -> ComplexSeries:
    """Step-marching solution of P(t) + II_{0<t2<t1<t} Q(t1-t2) P(t2) = R(t).

    The discretized double integral is lower triangular in P, so the march is
    exact for the discrete system (residual at machine precision); accuracy
    against the continuum solution is O(h^2).  Requires R(0) = 0.
    """
    if not np.array_equal(q.grid, r.grid):
        raise ContractError("volterra_solve requires a shared grid")
    if abs(r.values[0]) > 1e-12:
        raise ContractError(f"R(0) must vanish, got {r.values[0]}")
    h = q.h
    qv = q.values
    rv = r.values
    n = qv.size
    p = np.zeros(n, dtype=complex)
    k = np.zeros(n, dtype=complex)  # k_m = (Q * P)(t_m)
    p[0] = rv[0]
    k_running = 0.0 + 0.0j  # sum_{m=1}^{i-1} k_m
    diag = 1.0 + h * h * qv[0] / 4.0
    for i in range(1, n):
        k_partial = h * (0.5 * qv[i] * p[0] + np.dot(qv[i - 1:0:-1], p[1:i]))
        integral_partial = h * (0.5 * k[0] + k_running + 0.5 * k_partial)
        p[i] = (rv[i] - integral_partial) / diag
        k[i] = k_partial + 0.5 * h * qv[0] * p[i]
        k_running += k[i]
    return ComplexSeries(grid=q.grid, values=p)


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------


def _edd_weighted(t_values: np.ndarray, w: float) -> np.ndarray:
    """a[t, j] = sum_i w_i (e^{i t l_i} - e^{i t l_j})/(l_i - l_j), i = j giving i t w_j e^{i t l_j}.

    One GEMM over the grid: a = (f o w) D - f o (w D) + i t (1 + f) o w, with
    D_ij = 1/(l_i - l_j) off the diagonal (0 on it) and f = e^{i t l} - 1 formed
    without cancellation, so a(0) = 0 exactly.
    """
    rule = gauss_chebyshev_u(w)
    t = np.asarray(t_values, float)
    gaps = rule.nodes[:, None] - rule.nodes[None, :]
    np.fill_diagonal(gaps, np.inf)
    d = 1.0 / gaps
    theta = np.multiply.outer(t, rule.nodes)
    f = -2.0 * np.sin(0.5 * theta) ** 2 + 1j * np.sin(theta)
    fw = f * rule.weights
    return fw @ d - f * (rule.weights @ d) + 1j * t[:, None] * (rule.weights + fw)


@functools.lru_cache(maxsize=2)
def _grid_factors(t_bytes: bytes, w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only full-grid factors of the kernels: (_edd_weighted(t), e^{i t l} w_l, vv, vvv).

    The residual builds its kernels one block of t2 columns at a time, always
    against the same t1 grid; these are that grid's t1-side factors, computed
    once per (grid, w) instead of once per block.
    """
    rule = gauss_chebyshev_u(w)
    t = np.frombuffer(t_bytes)
    conv_parts = sc_convolutions(t, w)
    factors = (_edd_weighted(t, w), np.exp(1j * np.multiply.outer(t, rule.nodes)) * rule.weights,
               conv_parts["vv"], conv_parts["vvv"])
    for array in factors:
        array.flags.writeable = False
    return factors


def _factors_of(t_grid: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return _grid_factors(np.ascontiguousarray(t_grid, float).tobytes(), w)


def phi_kernel_grid(t3_grid: np.ndarray, t2_grid: np.ndarray, w: float) -> np.ndarray:
    """The inner two-time kernel of the covariance equation's source term, on a product grid.

    Phi(t3, t2) = -i II e^{i t3 l} (e^{i t2 l} - e^{i t2 m})/(l - m) rho rho;
    the l = m diagonal uses the removable-singularity limit i t2 e^{i t2 l}.
    The divided-difference matrix is symmetric, so the inner rho-integral over
    m is the weighted divided difference of _edd_weighted.
    """
    e3 = _factors_of(t3_grid, w)[1]
    return -1j * (e3 @ _edd_weighted(t2_grid, w).T)


def cov_kernel_grid(t1_grid: np.ndarray, t2_grid: np.ndarray, w: float, kappa4: float) -> np.ndarray:
    """Closed-form kernel on a product grid: 2 w^2 T3 + kappa4 vvv x vvv.

    T3(t1, t2) = sum_j w_j a_j(t1) a_j(t2) is manifestly symmetric; a_j is the
    rho-weighted exponential divided difference against node j.
    """
    rule = gauss_chebyshev_u(w)
    t1 = np.asarray(t1_grid, float)
    t2 = np.asarray(t2_grid, float)
    a1, _, _, vvv1 = _factors_of(t1, w)
    if t1.shape == t2.shape and np.array_equal(t1, t2):
        a2, vvv2 = a1, vvv1
    else:
        a2, vvv2 = _edd_weighted(t2, w), sc_convolutions(t2, w)["vvv"]
    t3_part = (a1 * rule.weights) @ a2.T
    return 2.0 * w * w * t3_part + kappa4 * np.multiply.outer(vvv1, vvv2)


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

# t2 columns per block of the covariance-equation residual
_COLUMN_BLOCK = 64


def coveq_residual(w: float, kappa4: float, grid: np.ndarray) -> float:
    """Sup defect of the closed-form kernel in the discretized covariance equation.

    Builds the source A(t1, t2) = -2 w^2 Int_0^{t1} Phi(., t2) + kappa4 vvv(t2)
    Int_0^{t1} vv, applies the discretized left side to the closed-form kernel
    and returns the max absolute residual over the grid square; O(h^2).  Every
    step along t1 is column-independent, so the square is walked in blocks of
    _COLUMN_BLOCK t2 columns and memory is O(n (block + nodes)), not O(n^2).
    """
    g = np.asarray(grid, float)
    h = float(g[1] - g[0])
    vv, vvv = _factors_of(g, w)[2:]
    vv_integral = _cumtrapz(vv.astype(complex), h)
    kernel = ComplexSeries(grid=g, values=(w * w * v_of_t(g, w)).astype(complex))
    block_sups = []
    for start in range(0, g.size - 1, _COLUMN_BLOCK):
        # a lone last column would run through GEMV, which rounds differently: the block before takes it
        cols = slice(start, start + _COLUMN_BLOCK if g.size - start - _COLUMN_BLOCK > 1 else g.size)
        a_block = _cumtrapz(phi_kernel_grid(g, g[cols], w), h)
        a_block *= -2.0 * w * w
        a_block += kappa4 * np.multiply.outer(vv_integral, vvv[cols])
        lhs = volterra_apply(kernel, cov_kernel_grid(g, g[cols], w, kappa4))
        lhs -= a_block
        block_sups.append(np.max(np.abs(lhs)))
    return float(np.max(block_sups))


def v2_equation_check(l: int, t_rest: Sequence[float], w: float, grid: np.ndarray) -> float:
    """Residual of the factorized solution in the l-fold propagator-product equation.

    Plugs prod_m v(t_m) into the t1-marginal equation
    v2 + w^2 II v(.) v2(.) = prod_{m=2}^l v(t_m) and returns the sup defect on
    the grid; the factorized form makes this the scalar v-equation scaled by
    the constant product, so the defect is O(h^2) times that constant.
    """
    if l < 2:
        raise ContractError("l must be >= 2")
    ts = [float(t) for t in t_rest]
    if len(ts) != l - 1:
        raise ContractError(f"expected {l - 1} fixed times for l = {l}, got {len(ts)}")
    g = np.asarray(grid, float)
    const = float(np.prod([v_of_t(t, w) for t in ts]))
    kernel = ComplexSeries(grid=g, values=(w * w * v_of_t(g, w)).astype(complex))
    p_values = const * v_of_t(g, w).astype(complex)
    lhs = volterra_apply(kernel, p_values)
    return float(np.max(np.abs(lhs - const)))


def scalar_v_equation_residual(w: float, grid: np.ndarray) -> float:
    """Sup defect of v + w^2 II v(.)v(.) = 1 on the grid (O(h^2)): the l = 2
    propagator-product equation at t2 = 0, where the constant v(0) is 1."""
    return v2_equation_check(2, [0.0], w, grid)


# ---------------------------------------------------------------------------
# built-in residual battery (CLI `volterra` subcommand)
# ---------------------------------------------------------------------------


def residual_table(h_values: Sequence[float], w: float, kappa4: float, t_max: float = 2.0) -> list[dict]:
    """The volterra_residuals.csv rows: residuals and observed orders for the built-in
    cases at each step size, on [0, t_max]."""
    cases: dict[str, Callable[[float], float]] = {
        "scalar_v_equation": lambda h: scalar_v_equation_residual(w, uniform_grid(t_max, h)),
        "coveq": lambda h: coveq_residual(w, kappa4, uniform_grid(t_max, h)),
        "v2_l2_t0": lambda h: v2_equation_check(2, [0.0], w, uniform_grid(t_max, h)),
        "v2_l3": lambda h: v2_equation_check(3, [1.0, 2.0], w, uniform_grid(t_max, h)),
        "manufactured_solve": lambda h: manufactured_solve_error(uniform_grid(t_max, h)),
    }
    rows: list[dict] = []
    with single_blas_thread():  # the arrays are small: more BLAS threads add CPU time, not speed
        for name, runner in cases.items():
            prev: float | None = None
            for idx, h in enumerate(sorted(h_values, reverse=True)):
                res = runner(float(h))
                order = math.log2(prev / res) if idx > 0 and prev > 0 and res > 0 else float("nan")
                rows.append({"case": name, "h": float(h), "residual": res, "order_estimate": order})
                prev = res
    return rows


def manufactured_solve_error(grid: np.ndarray, c: float = 0.8) -> float:
    """Manufactured solution with an analytic source: P* = sin, Q = c.

    The exact double integral of the constant-kernel equation gives
    R = sin t + c (t - sin t); the solver's defect against P* is O(h^2).
    """
    g = np.asarray(grid, float)
    p_star = np.sin(g) + 0.0j
    q = ComplexSeries(grid=g, values=np.full(g.size, c, dtype=complex))
    r = ComplexSeries(grid=g, values=np.sin(g) + c * (g - np.sin(g)) + 0.0j)
    solved = volterra_solve(q, r)
    return float(np.max(np.abs(solved.values - p_star)))

