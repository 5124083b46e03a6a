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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError
from .semicircle import TestFunction, fourier_transform, gauss_chebyshev_u, sc_convolutions, v_of_t


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
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-15) or steps[0] <= 0:
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


def convolve(f1: ComplexSeries, f2: ComplexSeries) -> ComplexSeries:
    if f1.grid.shape != f2.grid.shape or not np.array_equal(f1.grid, f2.grid):
        raise ContractError("convolve requires a shared grid")
    return ComplexSeries(grid=f1.grid, values=_conv_values(f1.values, f2.values, f1.h))


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


def phi_kernel(t3: float, t2: float, w: float) -> complex:
    """The inner two-time kernel of the covariance equation's source term.

    Phi(t3, t2) = -i II e^{i t3 l} (e^{i t2 l} - e^{i t2 m})/(l - m) rho rho;
    the l = m diagonal uses the removable-singularity limit i t2 e^{i t2 l}.
    """
    return complex(phi_kernel_grid(np.array([t3]), np.array([t2]), w)[0, 0])


def phi_kernel_grid(t3_grid: np.ndarray, t2_grid: np.ndarray, w: float) -> np.ndarray:
    """Phi on a product grid; the divided-difference matrix is symmetric, so the
    inner rho-integral over m is the weighted divided difference of _edd_weighted.
    """
    rule = gauss_chebyshev_u(w)
    e3 = np.exp(1j * np.multiply.outer(np.asarray(t3_grid, float), rule.nodes)) * rule.weights
    return -1j * (e3 @ _edd_weighted(t2_grid, w).T)


def cov_kernel_closed(t1: float, t2: float, w: float, kappa4: float) -> complex:
    """Closed-form limiting covariance kernel at one time pair."""
    vals = cov_kernel_grid(np.array([t1]), np.array([t2]), w, kappa4)
    return complex(vals[0, 0])


def cov_kernel_grid(t1_grid: np.ndarray, t2_grid: np.ndarray, w: float, kappa4: float) -> np.ndarray:
    """Closed-form kernel on a product grid: 2 w^2 T3 + kappa4 vvv x vvv.

    T3(t1, t2) = sum_j w_j a_j(t1) a_j(t2) is manifestly symmetric; a_j is the
    rho-weighted exponential divided difference against node j.
    """
    rule = gauss_chebyshev_u(w)
    t1 = np.asarray(t1_grid, float)
    t2 = np.asarray(t2_grid, float)
    same = t1.shape == t2.shape and np.array_equal(t1, t2)
    a1 = _edd_weighted(t1, w)
    a2 = a1 if same else _edd_weighted(t2, w)
    t3_part = (a1 * rule.weights) @ a2.T
    vvv1 = sc_convolutions(t1, w)["vvv"]
    vvv2 = vvv1 if same else sc_convolutions(t2, w)["vvv"]
    return 2.0 * w * w * t3_part + kappa4 * np.multiply.outer(vvv1, vvv2)


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------


def coveq_residual(w: float, kappa4: float, grid: np.ndarray) -> float:
    """Sup defect of the closed-form kernel in the discretized covariance equation.

    Builds the source A(t1, t2) = -2 w^2 Int_0^{t1} Phi(., t2) + kappa4 vvv(t2)
    Int_0^{t1} vv, applies the discretized left side to the closed-form kernel
    and returns the max absolute residual over the grid square; O(h^2).
    """
    g = np.asarray(grid, float)
    h = float(g[1] - g[0])
    conv_parts = sc_convolutions(g, w)
    a_grid = _cumtrapz(phi_kernel_grid(g, g, w), h)
    a_grid *= -2.0 * w * w
    a_grid += kappa4 * np.multiply.outer(_cumtrapz(conv_parts["vv"].astype(complex), h),
                                         conv_parts["vvv"])
    kernel = ComplexSeries(grid=g, values=(w * w * v_of_t(g, w)).astype(complex))
    lhs = volterra_apply(kernel, cov_kernel_grid(g, g, w, kappa4))
    lhs -= a_grid
    return float(np.max(np.abs(lhs)))


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
# spectral-domain bridge
# ---------------------------------------------------------------------------


def fourier_pairing(phi1: TestFunction, phi2: TestFunction, w: float, kappa4: float) -> complex:
    """II phi1_hat(t1) phi2_hat(t2) Cov(t1, t2) dt1 dt2 over the full plane.

    Uses the closed-form Fourier transforms of Gaussian-damped test functions,
    by the trapezoid rule with step 0.05 on |t| <= 8, past which the transforms
    of unit-width envelopes are below e^-32.  The pairing reproduces the
    spectral-domain limiting covariance.
    """
    h = 0.05
    t = np.arange(-160, 161) * h
    wt = np.full(t.size, h)
    wt[0] = wt[-1] = h / 2.0
    f1 = fourier_transform(phi1)(t) * wt
    f2 = fourier_transform(phi2)(t) * wt
    rule = gauss_chebyshev_u(w)
    a = _edd_weighted(t, w)
    u1 = f1 @ a
    u2 = f2 @ a
    vvv = sc_convolutions(t, w)["vvv"]
    pair = 2.0 * w * w * np.sum(rule.weights * u1 * u2)
    pair += kappa4 * np.sum(f1 * vvv) * np.sum(f2 * vvv)
    return complex(pair)


# ---------------------------------------------------------------------------
# built-in residual battery (CLI `volterra` subcommand)
# ---------------------------------------------------------------------------


def residual_table(h_values: Sequence[float] = (0.04, 0.02, 0.01), w: float = 1.0,
                   kappa4: float = -2.0, t_max: float = 2.0) -> list[dict]:
    """Residuals and observed orders for the built-in cases at each step size."""
    cases: dict[str, Callable[[float], float]] = {
        "scalar_v_equation": lambda h: scalar_v_equation_residual(w, uniform_grid(t_max, h)),
        "coveq": lambda h: coveq_residual(w, kappa4, uniform_grid(t_max, h)),
        "v2_l2_t0": lambda h: v2_equation_check(2, [0.0], w, uniform_grid(t_max, h)),
        "v2_l3": lambda h: v2_equation_check(3, [1.0, 2.0], w, uniform_grid(t_max, h)),
        "manufactured_solve": lambda h: manufactured_solve_error(uniform_grid(t_max, h)),
    }
    rows: list[dict] = []
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

