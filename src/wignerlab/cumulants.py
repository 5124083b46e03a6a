"""Moment/cumulant conversion, k-statistics, and the cumulant-expansion identity.

The conversion uses the standard partition recursion
kappa_p = mu_p - sum_{m=1}^{p-1} C(p-1, m-1) kappa_m mu_{p-m},
capped at order 8.  sample_cumulants returns the minimum-variance unbiased
k-statistics k1..k4 with delete-1 jackknife standard errors computed from
power sums in O(R).

stein_expansion_residual numerically verifies the integration-by-parts
expansion E{xi Phi(xi)} = sum_{l<=p} kappa_{l+1}/l! E{Phi^(l)(xi)} + eps_p
together with its explicit remainder bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError
from .semicircle import TestFunction

MAX_ORDER = 8


# ---------------------------------------------------------------------------
# moment <-> cumulant conversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CumulantVector:
    values: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        """1-based access: cv[p] = kappa_p."""
        if not 1 <= i <= self.order:
            raise IndexError(f"cumulant order {i} out of range 1..{self.order}")
        return self.values[i - 1]


def moments_to_cumulants(mu: Sequence[float]) -> CumulantVector:
    mu = [float(m) for m in mu]
    p = len(mu)
    if p == 0:
        raise ContractError("need at least one moment")
    if p > MAX_ORDER:
        raise ContractError(f"moment order {p} exceeds supported maximum {MAX_ORDER}")
    kappa: list[float] = []
    for n in range(1, p + 1):
        k_n = mu[n - 1]
        for m in range(1, n):
            k_n -= math.comb(n - 1, m - 1) * kappa[m - 1] * mu[n - m - 1]
        kappa.append(k_n)
    return CumulantVector(values=tuple(kappa))


# ---------------------------------------------------------------------------
# k-statistics
# ---------------------------------------------------------------------------


def _k_stats_from_power_sums(s1, s2, s3, s4, n):
    """Unbiased k1..k4 from power sums; broadcasts over leading axes."""
    n = np.asarray(n, dtype=float)
    k1 = s1 / n
    k2 = (n * s2 - s1**2) / (n * (n - 1))
    k3 = (2 * s1**3 - 3 * n * s1 * s2 + n**2 * s3) / (n * (n - 1) * (n - 2))
    k4 = (
        -6 * s1**4
        + 12 * n * s1**2 * s2
        - 3 * n * (n - 1) * s2**2
        - 4 * n * (n + 1) * s1 * s3
        + n**2 * (n + 1) * s4
    ) / (n * (n - 1) * (n - 2) * (n - 3))
    return k1, k2, k3, k4


@dataclass(frozen=True)
class SampleCumulants:
    k1: float
    k2: float
    k3: float
    k4: float
    se: tuple[float, float, float, float]
    n: int


def k_statistics_loo(xc: np.ndarray) -> tuple[tuple, tuple]:
    """k1..k4 of a (pre-centered) sample and their leave-one-out arrays.

    Both come from the power sums s_p = sum xc^p: dropping observation i
    leaves s_p - xc_i^p, so all R leave-one-out k-statistics cost O(R).
    """
    n = xc.size
    powers = [xc, xc**2, xc**3, xc**4]
    s = [float(np.sum(p)) for p in powers]
    full = _k_stats_from_power_sums(*s, n)
    loo = _k_stats_from_power_sums(*[s_p - p for s_p, p in zip(s, powers)], n - 1)
    return full, loo


def jackknife_spread(loo: np.ndarray) -> float:
    """Delete-1 jackknife se sqrt((n-1)/n sum (loo_i - mean)^2) of leave-one-out values."""
    n = loo.size
    return float(np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2)))


def sample_cumulants(data: Sequence[float], order: int = 4) -> SampleCumulants:
    """k-statistics k1..k4 with jackknife standard errors.

    Requires len(data) >= 8 * order.  Data is pre-centered by its mean before
    the power sums are formed (k2..k4 are shift-invariant; the shift is added
    back to k1), which keeps the power-sum formulas well conditioned.
    """
    if not 1 <= order <= 4:
        raise ContractError("order must be in 1..4")
    x = np.asarray(data, dtype=float).ravel()
    n = x.size
    if n < 8 * order:
        raise ContractError(f"sample size {n} is below the required 8 * order = {8 * order}")
    shift = float(np.mean(x))
    (k1, k2, k3, k4), loo = k_statistics_loo(x - shift)
    return SampleCumulants(
        k1=float(k1 + shift), k2=float(k2), k3=float(k3), k4=float(k4),
        se=tuple(jackknife_spread(jk) for jk in loo), n=n,
    )


# ---------------------------------------------------------------------------
# expansion identity
# ---------------------------------------------------------------------------


def _c_p_bound(p: int) -> float:
    return (1.0 + (3.0 + 2.0 * p) ** (p + 2)) / math.factorial(p + 1)


def _dist_expectation(dist, fn) -> float:
    """E{fn(xi)} by exact atom sums or 256-node Gaussian/Legendre quadrature."""
    if dist.atoms is not None:
        return float(np.sum(dist.probs * fn(dist.atoms)))
    if dist.kind == "gaussian":
        nodes, weights = np.polynomial.hermite.hermgauss(256)
        x = math.sqrt(2.0) * dist.w * nodes
        return float(np.sum(weights * fn(x)) / math.sqrt(math.pi))
    if dist.kind == "uniform":
        a = math.sqrt(3.0) * dist.w
        nodes, weights = np.polynomial.legendre.leggauss(256)
        return float(np.sum(weights * fn(a * nodes)) / 2.0)
    raise ContractError(f"no expectation rule for distribution kind {dist.kind!r}")


def _dist_abs_moment(dist, order: int) -> float:
    if dist.atoms is not None:
        return float(np.sum(dist.probs * np.abs(dist.atoms) ** order))
    if dist.kind == "gaussian":
        return dist.w**order * 2.0 ** (order / 2.0) * math.gamma((order + 1) / 2.0) / math.sqrt(math.pi)
    if dist.kind == "uniform":
        a = math.sqrt(3.0) * dist.w
        return a**order / (order + 1.0)
    raise ContractError(f"no absolute-moment rule for distribution kind {dist.kind!r}")


@dataclass(frozen=True)
class ExpansionResidual:
    lhs: float
    rhs: float
    residual: float
    bound: float
    order: int


def stein_expansion_residual(dist, phi: TestFunction, p: int) -> ExpansionResidual:
    """Check the order-p cumulant expansion of E{xi Phi(xi)} against its bound.

    Returns lhs, rhs, residual = lhs - rhs and
    bound = C_p E{|xi|^{p+2}} sup|Phi^{(p+1)}| with
    C_p = (1 + (3 + 2p)^{p+2}) / (p+1)!.  Raises if the bound is violated.
    """
    if p < 0:
        raise ContractError("p must be >= 0")
    if p + 1 > MAX_ORDER:
        raise ContractError(f"distribution cumulants unavailable up to order {p + 1}")
    lhs = _dist_expectation(dist, lambda x: x * phi(x))
    rhs = 0.0
    for l in range(p + 1):
        kappa = dist.cumulant(l + 1)
        if kappa == 0.0:
            continue
        rhs += kappa / math.factorial(l) * _dist_expectation(dist, phi.derivative(l))
    residual = lhs - rhs
    bound = _c_p_bound(p) * _dist_abs_moment(dist, p + 2) * phi.derivative(p + 1).sup_norm()
    # quadrature tolerance keeps an exactly-saturated bound from flapping
    if abs(residual) > bound + 1e-9:
        raise ContractError(
            f"expansion residual {residual} exceeds its bound {bound} at order p={p}"
        )
    return ExpansionResidual(lhs=lhs, rhs=rhs, residual=residual, bound=bound, order=p)
