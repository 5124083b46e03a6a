"""Semicircle-law calculus.

Integrals against the semicircle density rho_sc(lambda) = (2 pi w^2)^-1
sqrt((4w^2 - lambda^2)_+), its Fourier transform v(t), and the closed-form
self-convolutions of v used by the limiting covariance kernels.

Quadrature is Gauss-Chebyshev of the second kind: after lambda = 2w cos(theta)
the semicircle weight is exactly the Chebyshev-U weight, so an N-node rule
integrates polynomials of degree <= 2N - 1 exactly.  Every semicircle integral
in the package uses the one DEFAULT_NODES-node rule, and at its nodes a test
function's Chebyshev-U coefficients are one sine transform (u_coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError

DEFAULT_NODES = 128
# the rule's angles k pi / (N + 1), k = 1..N: its nodes are 2w cos of them
RULE_ANGLES = np.arange(1, DEFAULT_NODES + 1, dtype=float) * math.pi / (DEFAULT_NODES + 1)
# H(u) = sum_{k<=7} (-1)^(k//2) a_k(1) u^k, a_k(1) = prod_{j<=k} (4 - (2j - 1)^2) / (8j): its even and
# odd parts are the sums P and Q of J1's Hankel expansion in u = 1/z (DLMF 10.17.1, 10.17.3)
_HANKEL = np.cumprod([1.0] + [(4 - (2 * j - 1) ** 2) / (8 * j) for j in range(1, 8)]) * ([1, 1, -1, -1] * 2)


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

POLYNOMIAL = "polynomial"
GAUSSIAN_DAMPED = "gaussian_damped_polynomial"
TABULATED = "tabulated"


def _poly_parity(coefficients: Sequence[float]) -> str:
    """Parity declared from exactly-zero coefficient structure."""
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.size == 0 or not np.any(coeffs != 0.0):
        return "even"  # zero/constant functions count as even
    odd_zero = np.all(coeffs[1::2] == 0.0)
    even_zero = np.all(coeffs[0::2] == 0.0)
    if odd_zero:
        return "even"
    if even_zero:
        return "odd"
    return "none"


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A test function phi with an exactly-integrable representation, of one of three kinds.

    kind "polynomial": coefficients c_k in ascending powers, phi = sum c_k x^k.
    kind "gaussian_damped_polynomial": phi = p(x) * exp(-x^2 / (2 width^2)).
    kind "tabulated": linear interpolation of (grid, values).

    parity is derived from this data, never given, so it cannot disagree with the function.
    """

    kind: str
    coefficients: tuple[float, ...] = ()
    envelope_width: float = 0.0
    grid: np.ndarray | None = None
    values: np.ndarray | None = None

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex if np.iscomplexobj(lam) else float)
        if self.kind == POLYNOMIAL:
            return np.polynomial.polynomial.polyval(lam, np.asarray(self.coefficients))
        if self.kind == GAUSSIAN_DAMPED:
            p = np.polynomial.polynomial.polyval(lam, np.asarray(self.coefficients))
            return p * np.exp(-(lam**2) / (2.0 * self.envelope_width**2))
        return np.interp(lam, self.grid, self.values)

    @cached_property
    def parity(self) -> str:
        """The parity, "even", "odd" or "none": the polynomial factor's exactly-zero coefficient
        structure (the Gaussian envelope is even), or a tabulated grid and values mirrored
        about 0 to 1e-12."""
        if self.kind != TABULATED:
            return _poly_parity(self.coefficients)
        g, v = self.grid, self.values
        scale = float(np.max(np.abs(v))) or 1.0
        if np.allclose(g, -g[::-1], rtol=0, atol=1e-12 * max(1.0, float(g[-1]))):
            if np.allclose(v, v[::-1], rtol=0, atol=1e-12 * scale):
                return "even"
            if np.allclose(v, -v[::-1], rtol=0, atol=1e-12 * scale):
                return "odd"
        return "none"

    @property
    def degree(self) -> int:
        if self.kind not in (POLYNOMIAL, GAUSSIAN_DAMPED):
            raise ContractError("degree is defined for polynomial-backed test functions")
        coeffs = np.asarray(self.coefficients)
        nz = np.nonzero(coeffs)[0]
        return int(nz[-1]) if nz.size else 0

    def descriptor(self) -> dict:
        """JSON-ready provenance key."""
        d: dict = {"kind": self.kind, "parity": self.parity}
        if self.kind != TABULATED:
            d["coefficients"] = list(self.coefficients)
        if self.kind == GAUSSIAN_DAMPED:
            d["envelope_width"] = self.envelope_width
        if self.kind == TABULATED:
            d["grid_span"] = [float(self.grid[0]), float(self.grid[-1])]
            d["grid_points"] = int(self.grid.size)
        return d


def _real_coefficients(coefficients: Sequence[float]) -> tuple[float, ...]:
    """The coefficients as floats; complex or non-finite ones are a ContractError."""
    if any(np.iscomplexobj(c) for c in coefficients):
        raise ContractError("coefficients must be real")
    coeffs = tuple(float(c) for c in coefficients)
    if not all(math.isfinite(c) for c in coeffs):
        raise ContractError("coefficients must be finite")
    return coeffs


def polynomial(coefficients: Sequence[float]) -> TestFunction:
    return TestFunction(kind=POLYNOMIAL, coefficients=_real_coefficients(coefficients))


def monomial(power: int) -> TestFunction:
    """phi(x) = x^power."""
    return polynomial([0.0] * power + [1.0])


def gaussian_damped(coefficients: Sequence[float], envelope_width: float = 1.0) -> TestFunction:
    coeffs = _real_coefficients(coefficients)
    if envelope_width <= 0 or not math.isfinite(envelope_width):
        raise ContractError("envelope width must be positive and finite")
    return TestFunction(kind=GAUSSIAN_DAMPED, coefficients=coeffs, envelope_width=float(envelope_width))


def tabulated(grid: Sequence[float], values: Sequence[float]) -> TestFunction:
    g = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if g.ndim != 1 or g.shape != v.shape or g.size < 2:
        raise ContractError("tabulated test function needs matching 1-D grid and values")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
        raise ContractError("tabulated grid and values must be finite")
    if not np.all(np.diff(g) > 0):
        raise ContractError("tabulated grid must be strictly increasing")
    g = g.copy()
    v = v.copy()
    g.setflags(write=False)
    v.setflags(write=False)
    return TestFunction(kind=TABULATED, grid=g, values=v)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def gauss_chebyshev_u(w: float) -> tuple[np.ndarray, np.ndarray]:
    """The DEFAULT_NODES-node rule (nodes, weights) at scale w, built on each call."""
    if w <= 0:
        raise ContractError("scale w must be positive")
    nodes = 2.0 * float(w) * np.cos(RULE_ANGLES)
    weights = (2.0 / (DEFAULT_NODES + 1)) * np.sin(RULE_ANGLES) ** 2
    return nodes, weights


def check_coverage(phi: Callable, w: float) -> None:
    """ContractError when phi is a tabulated test function whose grid misses part of [-2w, 2w]."""
    if isinstance(phi, TestFunction) and phi.kind == TABULATED:
        if phi.grid[0] > -2.0 * w or phi.grid[-1] < 2.0 * w:
            raise ContractError(
                f"tabulated grid [{phi.grid[0]}, {phi.grid[-1]}] does not cover [-{2*w}, {2*w}]"
            )


def u_coefficients(phi: TestFunction, w: float) -> np.ndarray:
    """phi's Chebyshev-U coefficients a_k = sum_i weights_i phi(x_i) U_k(x_i / 2w), k < N, on the rule.

    With f_i = (phi(x_i) - c) sin(theta_i), a_{k-1} = c [k = 1] + 2/(N+1) sum_i f_i sin(k theta_i), a
    type-I sine transform taken by an FFT of f's odd extension: the centre c = <phi> enters a_0 alone
    (sum_i weights_i U_k(x_i) = [k = 0]), so its rounding reaches no other a_k.  The a_k that phi's
    data make zero are +0.0.  FloatingPointError where phi's node values are all equal but its data
    vary on [-2w, 2w]: the variation is below their float resolution."""
    check_coverage(phi, w)
    x, weights = gauss_chebyshev_u(w)
    values = phi(x)
    flat = bool(np.all(values == values[0]))
    if flat and phi.kind == TABULATED:
        varies = np.ptp(phi(np.clip(phi.grid, -2.0 * w, 2.0 * w))) > 0.0
    else:  # a Gaussian envelope varies wherever its polynomial is not zero
        varies = flat and any(phi.coefficients[1:] if phi.kind == POLYNOMIAL else phi.coefficients)
    if varies:
        raise FloatingPointError(f"phi's variation on [-{2 * w}, {2 * w}] is below the float "
                                 f"resolution of its values, which all read {float(values[0])!r}")
    c = float(values[0] if flat else weights @ values)
    f = (values - c) * np.sin(RULE_ANGLES)
    spectrum = np.fft.rfft(np.concatenate(([0.0], f, [0.0], -f[::-1])))  # of f's odd extension
    a = -spectrum.imag[1:DEFAULT_NODES + 1] / (DEFAULT_NODES + 1) + 0.0  # + 0.0: a zero is +0.0, not -0.0
    a[0] += c
    if phi.parity != "none":
        a[phi.parity == "even"::2] = 0.0
    if phi.kind == POLYNOMIAL:
        a[phi.degree + 1:] = 0.0
    return a


# ---------------------------------------------------------------------------
# v(t), v~(z), and self-convolutions
# ---------------------------------------------------------------------------


def v_of_t(t, w: float):
    """v(t) = Integral e^{i t lambda} rho_sc dlambda = J1(2wt)/(wt); real and even.  By x = |w t|: the
    series 1 - x^2/2 + x^4/12 below 1e-6 (v(0) = 1 exactly), the rule sum of cos(t lambda) up to 90,
    and past it J1(z)/x, z = 2x, with sqrt(pi z) J1(z) = H(1/z) sin z - H(-1/z) cos z (_HANKEL)."""
    nodes, weights = gauss_chebyshev_u(w)  # a ContractError unless w > 0
    t_abs = np.abs(np.asarray(t, dtype=float))
    x, out = w * t_abs, np.empty_like(t_abs)
    small, far = x < 1e-6, x > 90.0
    tiny, z = x[small], 2.0 * x[far]
    out[~far] = np.cos(np.multiply.outer(t_abs[~far], nodes)) @ weights
    out[small] = 1.0 - tiny * tiny / 2.0 + tiny**4 / 12.0
    hankel = [np.polynomial.polynomial.polyval(u, _HANKEL) for u in (1.0 / z, -1.0 / z)]
    out[far] = (hankel[0] * np.sin(z) - hankel[1] * np.cos(z)) / (math.sqrt(math.pi) * np.sqrt(z)) / x[far]
    return float(out) if np.isscalar(t) else out


# (-1)^{k+1} (C_{k+1} - C_k) / (2k)! = (-1)^{k+1} 3k / ((k+2) k! (k+1)!), C_k Catalan, k = 1..20
_VVV_SERIES = np.array([(-1) ** (k + 1) * 3 * k / ((k + 2) * math.factorial(k) * math.factorial(k + 1))
                        for k in range(1, 21)])


def sc_convolutions(t, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (v*v)(t) and (v*v*v)(t) via single semicircle integrals.

    (v*v)(t)   = -(i/w^2) Integral e^{i mu t} mu rho_sc(mu) dmu
               = (1/w^2) Integral sin(mu t) mu rho_sc(mu) dmu
    (v*v*v)(t) = w^-4 Integral cos(lambda t) (w^2 - lambda^2) rho_sc dlambda.
    Returns (vv, vvv), both real.  The vvv integral cancels to O(w^4 t^2), so below |w t| = 1
    it is the series t^2 sum_{k>=0} _VVV_SERIES[k] (w t)^{2k} from the moments C_k w^{2k}.
    """
    nodes, weights = gauss_chebyshev_u(w)
    t_arr = np.asarray(t, dtype=float)
    arg = np.multiply.outer(t_arr, nodes)
    vv = (np.sin(arg) @ (weights * nodes)) / (w * w)
    x = w * t_arr
    small = np.abs(x) < 1.0  # the series' dropped tail is below 1e-40 here
    series = t_arr**2 * np.polynomial.polynomial.polyval(np.where(small, x * x, 0.0), _VVV_SERIES)
    vvv = np.where(small, series, (np.cos(arg) @ (weights * (w * w - nodes**2))) / w**4)
    return vv, vvv
