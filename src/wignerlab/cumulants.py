"""Moment-to-cumulant conversion and k-statistics.

The conversion uses the standard partition recursion
kappa_p = mu_p - sum_{m=1}^{p-1} C(p-1, m-1) kappa_m mu_{p-m},
capped at order 8.  sample_cumulants returns the minimum-variance unbiased
k-statistics k1..k4 with delete-1 jackknife standard errors computed from
power sums in O(R), all in one power-of-two scale of the sample.
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
    # (full, leave-one-out) k1..k4 of the centred sample in units of 2^e, where 2^e
    # brings its largest deviation into [0.5, 1); to jackknife scale-free functions of them
    unit: tuple[tuple, tuple] = field(repr=False, compare=False)


def jackknife_spread(loo: np.ndarray) -> float:
    """Delete-1 jackknife se sqrt((n-1)/n sum (loo_i - mean)^2) of leave-one-out values."""
    n = loo.size
    return float(np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2)))


def sample_cumulants(data: Sequence[float]) -> SampleCumulants:
    """k-statistics k1..k4 with jackknife standard errors.

    Requires len(data) >= 32, eight observations per k-statistic.  The data
    is centred by its mean (k2..k4 are shift-invariant; the shift is added back
    to k1) and scaled by the power of two 2^-e that brings its largest
    deviation into [0.5, 1), so no power sum leaves the float range; k_p and
    its se are scaled back by 2^(p e), exactly wherever the result is a normal
    float.  Dropping observation i leaves the power sums s_p - x_i^p, so all
    R leave-one-out k-statistics cost O(R).
    """
    x = np.asarray(data, dtype=float).ravel()
    n = x.size
    if n < 32:
        raise ContractError(f"sample size {n} is below the required 32")
    shift = float(np.mean(x))
    xc = x - shift
    e = np.frexp(np.max(np.abs(xc)))[1]
    xc = np.ldexp(xc, -e)
    powers = [xc, xc**2, xc**3, xc**4]
    s = [float(np.sum(p)) for p in powers]
    full = _k_stats_from_power_sums(*s, n)
    loo = _k_stats_from_power_sums(*[s_p - p for s_p, p in zip(s, powers)], n - 1)
    scale = e * np.arange(1, 5)
    k1, k2, k3, k4 = np.ldexp(full, scale).tolist()
    se = np.ldexp([jackknife_spread(jk) for jk in loo], scale)
    return SampleCumulants(k1=k1 + shift, k2=k2, k3=k3, k4=k4, se=tuple(se.tolist()), unit=(full, loo))
