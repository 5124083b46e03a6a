"""Moment-to-cumulant conversion, k-statistics, and the unit every sample estimator reads.

The conversion uses the standard partition recursion
kappa_p = mu_p - sum_{m=1}^{p-1} C(p-1, m-1) kappa_m mu_{p-m}, capped at order 8.
unit_sample centres a sample and scales it by a power of two; sample_cumulants' k-statistics,
and harness' covariance jackknife and KS test, read the sample in these units, and the jackknifes
drop observation i from a power sum s_p as s_p - x_i^p, so all R leave-one-out values cost O(R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError

MAX_ORDER = 8


# ---------------------------------------------------------------------------
# moment <-> cumulant conversion
# ---------------------------------------------------------------------------


def moments_to_cumulants(mu: Sequence[float]) -> tuple[float, ...]:
    """kappa_1..kappa_p from the raw moments mu_1..mu_p, p <= MAX_ORDER."""
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
    return tuple(kappa)


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
    # (full, leave-one-out) k1..k4 of unit_sample(data), to jackknife scale-free functions of them
    unit: tuple[tuple, tuple] = field(repr=False, compare=False)


def unit_sample(data) -> tuple[np.ndarray, float, int]:
    """(x - mean) 2^-e, the mean and e, where 2^e brings the largest deviation of the sample x
    into [0.5, 1): no power sum of these units leaves the float range; x 2^k has them bit for bit."""
    x = np.asarray(data, dtype=float).ravel()
    shift = float(np.mean(x))
    xc = x - shift
    e = int(np.frexp(np.max(np.abs(xc)))[1])
    return np.ldexp(xc, -e), shift, e


def jackknife_spread(loo: np.ndarray) -> float:
    """Delete-1 jackknife se sqrt((n-1)/n sum (loo_i - mean)^2) of leave-one-out values."""
    n = loo.size
    return float(np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2)))


def sample_cumulants(data: Sequence[float]) -> SampleCumulants:
    """k-statistics k1..k4 with jackknife standard errors, from the power sums s_p of
    unit_sample(data) and their leave-one-out values s_p - x_i^p; len(data) >= 32 is required,
    eight observations per k-statistic.  The mean is added back to k1, and k_p and its se are
    scaled back by 2^(p e), exactly wherever the result is a normal float."""
    n = np.size(data)
    if n < 32:
        raise ContractError(f"sample size {n} is below the required 32")
    xc, shift, e = unit_sample(data)
    powers = [xc, xc**2, xc**3, xc**4]
    s = [float(np.sum(p)) for p in powers]
    full = _k_stats_from_power_sums(*s, n)
    loo = _k_stats_from_power_sums(*[s_p - p for s_p, p in zip(s, powers)], n - 1)
    scale = e * np.arange(1, 5)
    k1, k2, k3, k4 = np.ldexp(full, scale).tolist()
    se = np.ldexp([jackknife_spread(jk) for jk in loo], scale)
    return SampleCumulants(k1=k1 + shift, k2=k2, k3=k3, k4=k4, se=tuple(se.tolist()), unit=(full, loo))
