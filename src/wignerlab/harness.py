"""Monte Carlo experiments against the closed-form limit laws.

run_entry_experiment draws R matrices per size n, reads phi(M_r)_jj through
phi_entries, the one phi evaluator (a full eigh, or power vectors for
polynomials and Lanczos-Gauss quadrature over the Jacobi matrices that
spectral.lanczos_jacobi yields, until the estimates settle, for smooth phi),
forms the centered scaled diagonal elements
y_r = sqrt(n) (phi(M_r)_jj - mean), and estimates variance, cumulants and the
empirical characteristic function with jackknife/analytic uncertainties;
lemma_decay_experiment returns the lemma_decay.csv rows, the means and
variances of the propagator trace/row statistics, which must collapse onto
their limits.

Centering uses the cross-replica sample mean rather than the semicircle
integral: the finite-n expectation differs from the limit by O(1/n), which the
sqrt(n) scaling would otherwise turn into an O(n^-1/2) bias.

Replicas are embarrassingly parallel: each one is keyed by (root seed, n,
replica index), results are reduced in replica order, and every replica phase
runs on one BLAS thread (blas.single_blas_thread), so outputs are
bit-identical for any replica or BLAS thread count.  The first replica phase
also sets glibc's heap policy (keep_freed_heap_pages), so each replica reuses
the pages the one before it freed.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import spectral
from .blas import single_blas_thread
from .cumulants import SampleCumulants, jackknife_spread, sample_cumulants, unit_sample
from .ensembles import EnsembleSpec, SymmetricMatrix, sample_matrix
from .errors import ConfigError, ContractError, NumericFailureError
from .limits import LimitPrediction, cov_limit_wigner, limit_cf, limit_cumulants, var_limit
from .semicircle import POLYNOMIAL, TABULATED, TestFunction, check_coverage, v_of_t
from .spectral import (DECAY_STATISTICS, eigh, lanczos_jacobi, lemma_statistics, matrix_function_entry,
                       power_moments)

J_POLICIES = ("first", "middle", "last", "explicit")

KS_COEFFICIENT = 1.63  # asymptotic alpha ~ 0.01 quantile; approximate under fitted parameters

FINITE_SIZE_CF_BUDGET = 0.05  # empirical O(n^-1/2) allowance at desk-scale n


def default_threads() -> int:
    """Replica threads: the cores this process may run on (its CPU affinity where the
    platform reports one), capped at 8."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, 8)


@contextlib.contextmanager
def float_range(field: str):
    """Report a numpy overflow, division by zero or invalid value inside the block as a
    ConfigError on field.

    A config whose numbers leave the float range (a phi coefficient of 1e300, an
    x_grid value of 1e200, an envelope width whose square underflows to 0) then
    exits 2 naming the field, instead of writing inf or NaN.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise ConfigError(f"{field}: its values take the computation out of the float range ({exc})",
                          field=field) from exc


@contextlib.contextmanager
def _replica_guard(field: str, root_seed: int, replica: int):
    """float_range(field) over one replica's evaluation, set in the replica's own thread
    (numpy's errstate is per thread), and a NumericFailureError re-raised naming the
    root seed and the replica, so the sample can be regenerated."""
    try:
        with float_range(field):
            yield
    except NumericFailureError as exc:
        raise NumericFailureError(f"root seed {root_seed}, replica {replica}, {exc}") from exc


def resolve_j(policy: str, n: int, explicit: int | None = None) -> int:
    """0-based diagonal index for a policy; 'middle' is the 1-based ceil(n/2).

    ExperimentConfig has checked the policy, and an explicit index against every n.
    """
    return {"first": 0, "middle": (n - 1) // 2, "last": n - 1, "explicit": explicit}[policy]


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    spec: EnsembleSpec
    phi: TestFunction | None  # None only for lemma_decay_experiment, which reads no phi
    n_list: tuple[int, ...]
    replicas: int
    root_seed: int
    phi2: TestFunction | None = None
    j_policy: str = "first"
    j_explicit: int | None = None
    x_grid: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    t_grid: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.replicas < 100:
            raise ConfigError(f"config.replicas: must be >= 100, got {self.replicas}", field="config.replicas")
        if any(n < 16 for n in self.n_list) or not self.n_list:
            raise ConfigError(f"config.n_list: every n must be >= 16, got {list(self.n_list)}",
                              field="config.n_list")
        if len(set(self.n_list)) != len(self.n_list):
            raise ConfigError(f"config.n_list: sizes must be distinct, got {list(self.n_list)}",
                              field="config.n_list")
        if self.j_policy not in J_POLICIES:
            raise ConfigError(f"config.j_policy: unknown policy {self.j_policy!r}", field="config.j_policy")
        if self.j_policy == "explicit" and not (
                self.j_explicit is not None and 0 <= self.j_explicit < min(self.n_list)):
            raise ConfigError(f"config.j_explicit: j_policy 'explicit' needs j_explicit in "
                              f"0..{min(self.n_list) - 1}, got {self.j_explicit}", field="config.j_explicit")
        if self.j_policy != "explicit" and self.j_explicit is not None:
            raise ConfigError(f"config.j_explicit: set only with j_policy 'explicit', got j_policy "
                              f"{self.j_policy!r}", field="config.j_explicit")
        for name, grid in (("x_grid", self.x_grid), ("t_grid", self.t_grid)):
            if not all(math.isfinite(v) for v in grid):
                raise ConfigError(f"config.{name}: must be finite", field=f"config.{name}")
            if len(set(grid)) != len(grid):
                raise ConfigError(f"config.{name}: values must be distinct, got {list(grid)}",
                                  field=f"config.{name}")
        for name, phi in (("phi", self.phi), ("phi2", self.phi2)):
            try:
                check_coverage(phi, self.spec.w)
            except ContractError as exc:
                raise ConfigError(f"config.{name}: {exc}", field=f"config.{name}") from exc

    def phis(self) -> list[TestFunction]:
        if self.phi is None:
            raise ContractError("this experiment needs phi")
        return [self.phi] + ([self.phi2] if self.phi2 is not None else [])

    def descriptor(self) -> dict:
        d = {
            "spec": self.spec.descriptor(),
            "n_list": list(self.n_list),
            "replicas": self.replicas,
            "root_seed": self.root_seed,
            "j_policy": self.j_policy,
            "x_grid": list(self.x_grid),
            "t_grid": list(self.t_grid),
        }
        for name, phi in (("phi", self.phi), ("phi2", self.phi2)):
            if phi is not None:
                d[name] = phi.descriptor()
        if self.j_explicit is not None:
            d["j_explicit"] = self.j_explicit
        return d


# ---------------------------------------------------------------------------
# replica evaluation
# ---------------------------------------------------------------------------


# glibc's mallopt parameters (malloc.h) and the values the replica phases set
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_TRIM_BYTES = 512 << 20  # far above a replica's working set, about 16 MiB per thread at n=1024
_HEAP_MMAP_BYTES = 32 << 20  # glibc's largest mmap threshold on 64-bit hosts


@functools.cache
def keep_freed_heap_pages() -> bool:
    """Keep freed heap blocks in the process for the next replica; True when glibc took the policy.

    A replica at n=1024 allocates and frees about 16 MiB of arrays: the drawn
    atom indices, the dense matrix, eigh's workspace.  glibc's default policy
    hands blocks that large back to the kernel (munmap, heap trim), and the
    next replica faults the same pages in again, zero-filled.  Raising the
    trim threshold far above that working set, and the mmap threshold to its
    64-bit maximum, keeps them in the heap for reuse.  Where memory comes from
    changes no arithmetic, so no output changes.

    The policy is process-wide and one-way: glibc has no getter to restore
    it, so it outlives the phase that set it.  Without glibc's mallopt
    (another C library or platform) nothing is changed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    results = [mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_BYTES), mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_BYTES)]
    return all(result == 1 for result in results)  # mallopt returns 1 on success


def _parallel_map(fn: Callable[[int], object], count: int, threads: int) -> list:
    """fn over range(count) in order, on `threads` Python threads and one BLAS thread,
    with freed heap pages kept for the next replica."""
    keep_freed_heap_pages()
    with single_blas_thread():
        if threads <= 1:
            return [fn(i) for i in range(count)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(count)))


def phi_route(phis: Sequence[TestFunction]) -> str:
    """Any tabulated phi takes the full "eigh"; an all-polynomial set "power", the power
    vectors alone; otherwise "lanczos": Lanczos-Gauss quadrature for smooth phi, power
    vectors for polynomials."""
    if any(p.kind == TABULATED for p in phis):
        return "eigh"
    return "power" if all(p.kind == POLYNOMIAL for p in phis) else "lanczos"


GAUSS_TOLERANCE = 1e-14  # relative movement of the Gauss estimates that ends Lanczos


def phi_entries(m: SymmetricMatrix, j: int,
                phis: Sequence[TestFunction]) -> tuple[np.ndarray, int | None]:
    """phi(M)_jj for each test function, and the size of the Jacobi matrix read
    (None when none is, as on the eigh route): the one evaluator of a replica.

    M is unpacked once, and the route is phi_route(phis).  "eigh" diagonalizes
    M once and reads every function off the same spectrum.  On "power" and
    "lanczos", polynomials read the power sums (M^k)_jj of power_moments, with no Jacobi matrix.
    Smooth phi walk the Jacobi matrices T_k of lanczos_jacobi, each read once
    per step as phi(T_k)_00 through eigh and matrix_function_entry; the walk
    stops at the first k >= 3 where every smooth estimate moved by <=
    GAUSS_TOLERANCE * max(1, |value|) over two consecutive steps, or where it
    ends (breakdown, k = n), and each smooth phi takes the last T_k's rule.

    The stop rule's estimates go through spectral's own names.  The values
    returned for smooth phi are read off the last T_k once more, through the
    names this module binds, which perfbench/spans.py records as one eigh per
    replica; they equal the last estimates bit for bit.
    """
    dense = m.dense()
    if phi_route(phis) == "eigh":
        dec = eigh(dense)
        return np.array([matrix_function_entry(dec, p, j) for p in phis]), None
    polynomials = [p for p in phis if p.kind == POLYNOMIAL]
    smooth = [p for p in phis if p.kind != POLYNOMIAL]
    if polynomials:
        moments = power_moments(dense, j, max(p.degree for p in polynomials))
    dec = size = None
    if smooth:
        estimates: list[list[float]] = []
        for t in lanczos_jacobi(dense, j):
            step = spectral.eigh(t)
            estimates.append([spectral.matrix_function_entry(step, p, 0) for p in smooth])
            if len(t) >= 3 and np.all(np.abs(np.diff(estimates[-3:], axis=0))
                                      <= GAUSS_TOLERANCE * np.maximum(1.0, np.abs(estimates[-1]))):
                break
        dec, size = eigh(t), len(t)
    values = []
    for p in phis:
        if p.kind == POLYNOMIAL:
            c = np.asarray(p.coefficients[: p.degree + 1], dtype=float)
            values.append(float(c @ moments[: c.size]))
        else:
            values.append(matrix_function_entry(dec, p, 0))
    return np.array(values), size


def matrix_element_samples(spec: EnsembleSpec, n: int, j: int, phis: Sequence[TestFunction],
                           root_seed: int, replicas: int,
                           threads: int = 1) -> tuple[np.ndarray, int | None]:
    """phi_entries of every replica, shape (replicas, len(phis)), and the largest
    Jacobi matrix over replicas (None when no smooth phi takes Lanczos).

    A value out of the float range is a ConfigError on config.phi.
    """
    def one_replica(r: int) -> tuple[np.ndarray, int | None]:
        m = sample_matrix(spec, n, root_seed, r)
        with _replica_guard("config.phi", root_seed, r):
            return phi_entries(m, j, phis)

    rows = _parallel_map(one_replica, replicas, threads)
    sizes = [size for _, size in rows if size is not None]
    return np.vstack([values for values, _ in rows]), max(sizes, default=None)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def empirical_cf(samples: Sequence[float], x_grid: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(1/R) sum e^{i x y} with pointwise CI radius 1.96 sqrt((1-|.|^2)/R), capped."""
    y = np.asarray(samples, dtype=float).ravel()
    if y.size < 100:
        raise ContractError("empirical_cf needs at least 100 samples")
    x = np.asarray(x_grid, dtype=float)
    values = np.exp(1j * np.multiply.outer(x, y)).mean(axis=1)
    radius = 1.96 * np.sqrt(np.maximum(1.0 - np.abs(values) ** 2, 0.0) / y.size)
    return values, np.minimum(radius, 1.96 / math.sqrt(y.size))


def gaussian_limit_test(samples: Sequence[float]) -> dict:
    """KS statistic against a Gaussian fitted from the sample.

    pass iff ks <= 1.63/sqrt(R); approximate because the parameters are
    fitted.  A sample whose values are all equal is reported degenerate, not
    failed, with ks_stat None.  The statistic does not depend on shift or scale, so
    it reads cumulants.unit_sample(samples), in which no deviation or sd underflows.
    """
    y = np.asarray(samples, dtype=float).ravel()
    if y.size < 500:
        raise ContractError("gaussian_limit_test needs at least 500 samples")
    threshold = KS_COEFFICIENT / math.sqrt(y.size)
    if y.min() == y.max():
        return {"ks_stat": None, "threshold": threshold, "passed": None, "degenerate": True}
    y = unit_sample(y)[0]
    z = np.sort((y - np.mean(y)) / np.std(y, ddof=1))
    cdf = 0.5 * np.array([math.erfc(v) for v in (z * -math.sqrt(0.5)).tolist()])  # the normal CDF
    i = np.arange(1, y.size + 1)
    ks = float(np.max(np.maximum(i / y.size - cdf, cdf - (i - 1) / y.size)))
    return {"ks_stat": ks, "threshold": threshold, "passed": bool(ks <= threshold), "degenerate": False}


def _jackknife_cov(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(sample covariance, delete-1 jackknife se) from the sums of the unit samples of a and b
    (cumulants.unit_sample), scaled back by 2^(e_a + e_b): a constant term cancels nothing."""
    (ua, _, ea), (ub, _, eb) = unit_sample(a), unit_sample(b)
    r = ua.size
    sa, sb, sab = float(ua.sum()), float(ub.sum()), float((ua * ub).sum())
    cov = (sab - sa * sb / r) / (r - 1)
    sa_i, sb_i, sab_i = sa - ua, sb - ub, sab - ua * ub
    se = jackknife_spread((sab_i - sa_i * sb_i / (r - 1)) / (r - 2))
    return tuple(np.ldexp([cov, se], ea + eb).tolist())


# ---------------------------------------------------------------------------
# entry-element experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    record: dict  # result.json
    samples: list[np.ndarray]  # y per n in replica order, the rows of replicas.csv
    lanczos_steps_max: int | None  # run metadata for the manifest: largest Jacobi matrix


def _excess_kurtosis_jackknife(y: np.ndarray, stats: SampleCumulants) -> tuple[float | None, float | None]:
    """g2 = k4/k2^2 with delete-1 jackknife se, read off the k-statistics of
    stats = sample_cumulants(y) in its power-of-two units, since g2 does not depend on
    scale; g2 is None for a sample whose values are all equal.

    The se is None for a sample of two values, one of which occurs once:
    dropping that one leaves an all-equal sample, whose g2 is undefined.
    """
    (_, k2, _, k4), (_, k2i, _, k4i) = stats.unit
    lo, hi = y.min(), y.max()
    if lo == hi:
        return None, 0.0  # degenerate sample: kurtosis undefined
    counts = np.count_nonzero(y == lo), np.count_nonzero(y == hi)
    se = None if sum(counts) == y.size and 1 in counts else jackknife_spread(k4i / k2i**2)
    return float(k4 / k2**2), se


def predict(cfg: ExperimentConfig) -> tuple[LimitPrediction, np.ndarray]:
    """The limit law of cfg.phi on cfg.spec, and its characteristic function at cfg.x_grid.

    A value out of the float range is a ConfigError on config.phi or config.x_grid.
    """
    with float_range("config.phi"):
        prediction = var_limit(cfg.phi, cfg.spec)
    with float_range("config.x_grid"):
        cf = limit_cf(prediction, np.asarray(cfg.x_grid))
    return prediction, cf


def run_entry_experiment(cfg: ExperimentConfig, threads: int | None = None) -> ExperimentResult:
    """Full estimation pipeline for one (phi, ensemble) pair over cfg.n_list.

    The record is result.json as written: per n the estimates (an undefined
    kurtosis, kurtosis se or KS statistic is None; covariance only with cfg.phi2), the
    prediction, the comparison, and cov_prediction with cfg.phi2.
    """
    threads = default_threads() if threads is None else threads
    phis = cfg.phis()
    # predicted before sampling, so a config the limit law overflows on costs no replica
    prediction, cf_pred = predict(cfg)
    with float_range("config.phi2"):
        cov_prediction = (
            float(cov_limit_wigner(cfg.phi, cfg.phi2, cfg.spec)) if cfg.phi2 is not None else None
        )
    per_n: list[dict] = []
    samples: list[np.ndarray] = []
    lanczos_steps: list[int] = []
    for n in cfg.n_list:
        j = resolve_j(cfg.j_policy, n, cfg.j_explicit)
        elements, steps = matrix_element_samples(
            cfg.spec, n, j, phis, cfg.root_seed, cfg.replicas, threads
        )
        if steps is not None:
            lanczos_steps.append(steps)
        raw = elements[:, 0]
        with float_range("config.phi"):
            y = math.sqrt(n) * (raw - raw.mean())
            stats = sample_cumulants(y)
            excess_kurtosis = _excess_kurtosis_jackknife(y, stats)
            ks = gaussian_limit_test(y) if cfg.replicas >= 500 else {
                "ks_stat": None, "threshold": None, "passed": None, "degenerate": False,
            }
        with float_range("config.x_grid"):
            cf_values, cf_ci = empirical_cf(y, cfg.x_grid)
        record = {
            "n": n,
            "j": j,
            "mean_element": float(raw.mean()),  # before scaling
            "variance": stats.k2,  # of the sqrt(n)-scaled centered elements
            "variance_ci": 1.96 * stats.se[1],
            "k_stats": {
                "k2": [stats.k2, stats.se[1]],
                "k3": [stats.k3, stats.se[2]],
                "k4": [stats.k4, stats.se[3]],
            },
            "excess_kurtosis": list(excess_kurtosis),  # [k4/k2^2, jackknife se]
            "cf": [
                [float(x), float(v.real), float(v.imag), float(c)]
                for x, v, c in zip(cfg.x_grid, cf_values, cf_ci)
            ],
            "ks": ks,
            "samples_hash": hashlib.blake2b(y.tobytes(), digest_size=8).hexdigest(),
        }
        if cfg.phi2 is not None:
            with float_range("config.phi2"):
                cov, cov_se = _jackknife_cov(elements[:, 0], elements[:, 1])
                record["covariance"] = [n * cov, n * 1.96 * cov_se]
        per_n.append(record)
        samples.append(y)
    # the limit cumulants grow as the phi's x* slope to the fourth power
    with float_range("config.phi"):
        comparison = compare_with_prediction_rows(per_n, prediction, cf_pred, cov_prediction)
    result = {
        "config": cfg.descriptor(),
        "per_n": per_n,
        "prediction": prediction.to_dict(),
        "comparison": comparison,
    }
    if cov_prediction is not None:
        result["cov_prediction"] = cov_prediction
    return ExperimentResult(record=result, samples=samples,
                            lanczos_steps_max=max(lanczos_steps, default=None))


def _safe_z(diff: float, ci: float) -> float | None:
    """diff / ci; 0.0 for a zero gap, and None (JSON null) for a zero CI with a nonzero gap."""
    if ci == 0.0:
        return 0.0 if diff == 0.0 else None
    return diff / ci


def compare_with_prediction_rows(per_n: Sequence[dict], prediction: LimitPrediction,
                                 cf_pred: np.ndarray, cov_prediction: float | None) -> dict:
    """z-scores of every per-n record of result.json against its limit, one row per n.

    cf_pred holds the limit CF at the x values of each record's cf rows;
    cov_prediction is compared with the records' covariance, present only
    when a second phi was sampled.
    """
    kappas = limit_cumulants(prediction, 4)
    rows = []
    for p in per_n:
        cf_rows = []
        for (x, re, im, ci), zp in zip(p["cf"], cf_pred):
            gap = abs(complex(re, im) - zp)
            cf_rows.append({"x": x, "gap": gap, "ci": ci, "within_budget": bool(gap <= ci + FINITE_SIZE_CF_BUDGET)})
        z_var = _safe_z(p["variance"] - prediction.v_w, p["variance_ci"])
        (k3, k3_se), (k4, k4_se) = p["k_stats"]["k3"], p["k_stats"]["k4"]
        row = {
            "n": p["n"],
            "z_variance": z_var,
            "variance_ok": bool(z_var is not None and abs(z_var) <= 3.0),
            "z_k3": _safe_z(k3 - kappas[2], 1.96 * k3_se),
            "z_k4": _safe_z(k4 - kappas[3], 1.96 * k4_se),
            "cf": cf_rows,
            "cf_ok": bool(all(r["within_budget"] for r in cf_rows)),
        }
        if "covariance" in p:
            cov, cov_ci = p["covariance"]
            row["z_covariance"] = _safe_z(cov - cov_prediction, cov_ci)
        rows.append(row)
    return {
        "per_n": rows,
        "note": "finite-size bias is O(1/n) for the variance and up to O(n^-1/2) for the other "
                "estimates, and is not subtracted from them",
    }


# ---------------------------------------------------------------------------
# propagator decay experiment
# ---------------------------------------------------------------------------


def lemma_decay_experiment(cfg: ExperimentConfig, threads: int | None = None) -> list[dict]:
    """The lemma_decay.csv rows: means and variances of the propagator statistics across cfg.n_list.

    Each replica gives lemma_statistics over the whole cfg.t_grid in one
    propagator pass.  One row per (n, t, statistic) holds the replica mean
    (mean_re, mean_im), the replica variance, the limiting value (limit_re,
    limit_im), their gap, and var_slope, the log-log slope of the variance
    against n for that (statistic, t), None when one of those variances is 0
    (U(0) = I makes every t = 0 statistic exact).  The row index j comes from
    cfg.j_policy at each n.  The limits are evaluated before the first
    replica, so a t out of the float range is a ConfigError on config.t_grid,
    and so is a t whose replica statistics leave it (lambda t overflowing).
    """
    if len(cfg.n_list) < 4 or max(cfg.n_list) < 8 * min(cfg.n_list):
        raise ConfigError(f"config.n_list: decay experiments need at least 4 sizes spanning an 8x range, "
                          f"got {list(cfg.n_list)}", field="config.n_list")
    threads = default_threads() if threads is None else threads
    ts = [float(t) for t in cfg.t_grid]
    with float_range("config.t_grid"):
        limits = [(complex(v), complex(v), complex(v**2), 0.0 + 0.0j, complex(v**3))
                  for v in map(float, v_of_t(np.array(ts), cfg.spec.w))]
    rows = []
    variances: dict[tuple[str, float], dict[int, float]] = {}
    for n in cfg.n_list:
        j = resolve_j(cfg.j_policy, n, cfg.j_explicit)

        def one_replica(r: int) -> np.ndarray:  # runs to completion inside this iteration
            a = sample_matrix(cfg.spec, n, cfg.root_seed, r).dense()
            with _replica_guard("config.t_grid", cfg.root_seed, r):
                return lemma_statistics(eigh(a), j, ts).ravel()

        samples = np.vstack(_parallel_map(one_replica, cfg.replicas, threads))
        for i, (t, t_limits) in enumerate(zip(ts, limits)):
            for s_idx, (stat, limit) in enumerate(zip(DECAY_STATISTICS, t_limits)):
                col = samples[:, i * len(DECAY_STATISTICS) + s_idx]
                mean = complex(col.mean())
                var = float(np.sum(np.abs(col - mean) ** 2) / (col.size - 1))
                rows.append({"statistic": stat, "t": t, "n": n, "mean_re": mean.real, "mean_im": mean.imag,
                             "variance": var, "limit_re": limit.real, "limit_im": limit.imag,
                             "abs_gap": abs(mean - limit)})
                variances.setdefault((stat, t), {})[n] = var
    slopes = {}
    for key, by_n in variances.items():
        ns = sorted(by_n)
        vs = np.array([by_n[n] for n in ns])
        slopes[key] = float(np.polyfit(np.log(ns), np.log(vs), 1)[0]) if np.all(vs > 0) else None
    for row in rows:
        row["var_slope"] = slopes[row["statistic"], row["t"]]
    return rows
