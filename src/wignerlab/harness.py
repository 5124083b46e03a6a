"""Monte Carlo experiments against the closed-form limit laws.

run_entry_experiment draws R matrices per size n, forms the centered scaled
diagonal elements y_r = sqrt(n) (phi(M_r)_jj - mean), and estimates variance,
cumulants and the empirical characteristic function with jackknife/analytic
uncertainties; lemma_decay_experiment measures the propagator trace/row
statistics whose means and variances must collapse onto their limits.

Centering uses the cross-replica sample mean rather than the semicircle
integral: the finite-n expectation differs from the limit by O(1/n), which the
sqrt(n) scaling would otherwise turn into an O(n^-1/2) bias.

Replicas are embarrassingly parallel: each one is keyed by (root seed, n,
replica index), results are reduced in replica order, and every replica phase
runs on one BLAS thread (blas.single_blas_thread), so outputs are
bit-identical for any replica or BLAS thread count.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .blas import single_blas_thread
from .cumulants import jackknife_spread, k_statistics_loo, sample_cumulants
from .ensembles import EnsembleSpec, sample_matrix
from .errors import ConfigError, ContractError
from .limits import LimitPrediction, cov_limit_wigner, limit_cf, limit_cumulants, var_limit
from .semicircle import POLYNOMIAL, TABULATED, TestFunction, v_of_t
from .spectral import DECAY_STATISTICS, eigh, lanczos_jacobi, lemma_statistics, matrix_function_entry

J_POLICIES = ("first", "middle", "last", "explicit")

PHI_ROUTES = ("lanczos", "eigh")

KS_COEFFICIENT = 1.63  # asymptotic alpha ~ 0.01 quantile; approximate under fitted parameters

FINITE_SIZE_CF_BUDGET = 0.05  # empirical O(n^-1/2) allowance at desk-scale n


def default_threads() -> int:
    """Replica threads: WIGNERLAB_THREADS when set, else the core count capped at 8."""
    env = os.environ.get("WIGNERLAB_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ConfigError(f"WIGNERLAB_THREADS must be a positive integer, got {env!r}",
                              field="WIGNERLAB_THREADS")
        return count
    return min(os.cpu_count() or 1, 8)


@contextlib.contextmanager
def float_range(field: str):
    """Report a numpy overflow or invalid value inside the block as a ConfigError on field.

    A config whose numbers leave the float range (a phi coefficient of 1e300, an
    x_grid value of 1e200) then exits 2 naming the field, instead of writing inf or NaN.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise ConfigError(f"{field}: its values take the computation out of the float range ({exc})",
                          field=field) from exc


def resolve_j(policy: str, n: int, explicit: int | None = None) -> int:
    """0-based diagonal index for a policy; 'middle' is the 1-based ceil(n/2)."""
    if policy == "first":
        return 0
    if policy == "middle":
        return (n - 1) // 2
    if policy == "last":
        return n - 1
    if policy == "explicit":
        if explicit is None or not 0 <= explicit < n:
            raise ContractError(f"explicit j={explicit} out of range 0..{n - 1}")
        return explicit
    raise ContractError(f"unknown j policy {policy!r}")


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
            raise ContractError(f"replicas must be >= 100, got {self.replicas}")
        if any(n < 16 for n in self.n_list) or not self.n_list:
            raise ContractError("every n must be >= 16")
        if self.j_policy not in J_POLICIES:
            raise ContractError(f"unknown j policy {self.j_policy!r}")
        if self.j_policy == "explicit" and not (
                self.j_explicit is not None and 0 <= self.j_explicit < min(self.n_list)):
            raise ContractError(f"j_policy 'explicit' needs j_explicit in 0..{min(self.n_list) - 1}, "
                                f"got {self.j_explicit}")
        for name, grid in (("x_grid", self.x_grid), ("t_grid", self.t_grid)):
            if not all(math.isfinite(v) for v in grid):
                raise ContractError(f"{name} must be finite")

    def phis(self) -> list[TestFunction]:
        if self.phi is None:
            raise ContractError("this experiment needs phi")
        return [self.phi] + ([self.phi2] if self.phi2 is not None else [])

    def phi_route(self) -> str:
        """How replicas evaluate phi(M)_jj: one of PHI_ROUTES.

        Any tabulated phi takes the full eigh; otherwise Lanczos-Gauss quadrature.
        """
        return "eigh" if any(p.kind == TABULATED for p in self.phis()) else "lanczos"

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


def _parallel_map(fn: Callable[[int], np.ndarray], count: int, threads: int) -> list:
    """fn over range(count) in order, on `threads` Python threads and one BLAS thread."""
    with single_blas_thread():
        if threads <= 1:
            return [fn(i) for i in range(count)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(count)))


def matrix_element_samples(spec: EnsembleSpec, n: int, j: int, phis: Sequence[TestFunction],
                           root_seed: int, replicas: int, route: str,
                           threads: int = 1) -> tuple[np.ndarray, int | None]:
    """phi(M_r)_jj for each replica and test function, shape (replicas, len(phis)),
    and the largest Lanczos step count over replicas (None off the lanczos route).

    route is one of PHI_ROUTES.  "eigh" diagonalizes each replica once and
    reads every function off the same spectrum.  "lanczos" replaces M by the
    Jacobi matrix of the Gauss rule for its spectral measure at e_j.  It runs
    the max_degree // 2 + 1 steps that make the rule exact for every
    polynomial, and further until every smooth phi's Gauss estimate settles:
    polynomials read its moments, smooth phi go through eigh and
    matrix_function_entry at (0, 0).
    """
    if route not in PHI_ROUTES:
        raise ContractError(f"unknown phi route {route!r}")
    smooth = [p for p in phis if p.kind != POLYNOMIAL]
    degree = max((p.degree for p in phis if p.kind == POLYNOMIAL), default=0)
    sizes: list[int] = []  # Jacobi matrix sizes; max() does not depend on thread order

    def one_replica(r: int) -> np.ndarray:
        m = sample_matrix(spec, n, root_seed, r)
        if route == "eigh":
            dec = eigh(m)
            return np.array([matrix_function_entry(dec, p, j, j) for p in phis])
        t = lanczos_jacobi(m, j, smooth, degree // 2 + 1)
        sizes.append(t.n)
        moments = t.moments(degree)
        dec = eigh(t) if smooth else None
        values = []
        for p in phis:
            if p.kind == POLYNOMIAL:
                c = np.asarray(p.coefficients[: p.degree + 1], dtype=float)
                values.append(float(c @ moments[: c.size]))
            else:
                values.append(matrix_function_entry(dec, p, 0, 0))
        return np.array(values)

    rows = _parallel_map(one_replica, replicas, threads)
    return np.vstack(rows), max(sizes, default=None)


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
    fitted.  A zero-variance sample is reported degenerate, not failed.
    """
    from scipy.special import ndtr  # loaded on first use: runs below 500 replicas never call it

    y = np.asarray(samples, dtype=float).ravel()
    if y.size < 500:
        raise ContractError("gaussian_limit_test needs at least 500 samples")
    threshold = KS_COEFFICIENT / math.sqrt(y.size)
    sd = float(np.std(y, ddof=1))
    if sd == 0.0:
        return {"ks_stat": float("nan"), "threshold": threshold, "passed": None, "degenerate": True}
    z = np.sort((y - np.mean(y)) / sd)
    cdf = ndtr(z)
    i = np.arange(1, y.size + 1)
    ks = float(np.max(np.maximum(i / y.size - cdf, cdf - (i - 1) / y.size)))
    return {"ks_stat": ks, "threshold": threshold, "passed": bool(ks <= threshold), "degenerate": False}


def _jackknife_cov(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(sample covariance, delete-1 jackknife se)."""
    r = a.size
    sa, sb, sab = float(a.sum()), float(b.sum()), float((a * b).sum())
    cov = (sab - sa * sb / r) / (r - 1)
    sa_i, sb_i, sab_i = sa - a, sb - b, sab - a * b
    return cov, jackknife_spread((sab_i - sa_i * sb_i / (r - 1)) / (r - 2))


# ---------------------------------------------------------------------------
# entry-element experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PerNResult:
    n: int
    j: int
    mean_element: float  # sample mean of phi(M)_jj before scaling
    variance: float  # k2 of sqrt(n)-scaled centered elements
    variance_ci: float  # 1.96 * jackknife se
    k_stats: dict  # k2..k4 with jackknife se
    excess_kurtosis: tuple[float, float]  # (k4/k2^2, jackknife se)
    cf: list  # rows (x, Re, Im, ci_radius)
    ks: dict
    covariance: tuple[float, float] | None  # (n * cov, ci) when phi2 present
    samples_hash: str
    samples: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        def clean(v):
            return None if isinstance(v, float) and math.isnan(v) else v

        d = {
            "n": self.n,
            "j": self.j,
            "mean_element": self.mean_element,
            "variance": self.variance,
            "variance_ci": self.variance_ci,
            "k_stats": self.k_stats,
            "excess_kurtosis": [clean(v) for v in self.excess_kurtosis],
            "cf": [[float(v) for v in row] for row in self.cf],
            "ks": {k: clean(v) for k, v in self.ks.items()},
            "samples_hash": self.samples_hash,
        }
        if self.covariance is not None:
            d["covariance"] = list(self.covariance)
        return d


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: dict
    per_n: list
    prediction: LimitPrediction
    cov_prediction: float | None
    comparison: dict
    lanczos_steps_max: int | None  # run metadata, not in to_dict: largest Jacobi matrix

    def to_dict(self) -> dict:
        d = {
            "config": self.config,
            "per_n": [p.to_dict() for p in self.per_n],
            "prediction": self.prediction.to_dict(),
            "comparison": self.comparison,
        }
        if self.cov_prediction is not None:
            d["cov_prediction"] = self.cov_prediction
        return d


def _excess_kurtosis_jackknife(y: np.ndarray) -> tuple[float, float]:
    """g2 = k4/k2^2 with delete-1 jackknife se, from leave-one-out power sums.

    g2 does not depend on scale, so a sample whose k2^2 underflows is first
    scaled by a power of two that brings its largest magnitude into [0.5, 1).
    """
    xc = y - y.mean()
    (_, k2, _, k4), (_, k2i, _, k4i) = k_statistics_loo(xc)
    if k2 == 0.0:
        return float("nan"), 0.0  # degenerate sample: kurtosis undefined
    if k2 * k2 < sys.float_info.min:
        xc = np.ldexp(xc, -np.frexp(np.max(np.abs(xc)))[1])
        (_, k2, _, k4), (_, k2i, _, k4i) = k_statistics_loo(xc)
    return float(k4 / k2**2), jackknife_spread(k4i / k2i**2)


def run_entry_experiment(cfg: ExperimentConfig, threads: int | None = None) -> ExperimentResult:
    """Full estimation pipeline for one (phi, ensemble) pair over cfg.n_list."""
    threads = default_threads() if threads is None else threads
    phis = cfg.phis()
    route = cfg.phi_route()
    with float_range("config.phi"):
        prediction = var_limit(cfg.phi, cfg.spec)
    with float_range("config.phi2"):
        cov_prediction = (
            float(cov_limit_wigner(cfg.phi, cfg.phi2, cfg.spec)) if cfg.phi2 is not None else None
        )
    # evaluated before sampling, so an x_grid the limit CF overflows on costs no replica
    with float_range("config.x_grid"):
        cf_pred = limit_cf(prediction, cfg.spec, np.asarray(cfg.x_grid))
    per_n: list[PerNResult] = []
    lanczos_steps: list[int] = []
    for n in cfg.n_list:
        j = resolve_j(cfg.j_policy, n, cfg.j_explicit)
        elements, steps = matrix_element_samples(
            cfg.spec, n, j, phis, cfg.root_seed, cfg.replicas, route, threads
        )
        if steps is not None:
            lanczos_steps.append(steps)
        raw = elements[:, 0]
        with float_range("config.phi"):
            y = math.sqrt(n) * (raw - raw.mean())
            stats = sample_cumulants(y, order=4)
            excess_kurtosis = _excess_kurtosis_jackknife(y)
            ks = gaussian_limit_test(y) if cfg.replicas >= 500 else {
                "ks_stat": float("nan"), "threshold": float("nan"), "passed": None, "degenerate": False,
            }
        with float_range("config.x_grid"):
            cf_values, cf_ci = empirical_cf(y, cfg.x_grid)
        covariance = None
        if cfg.phi2 is not None:
            with float_range("config.phi2"):
                cov, cov_se = _jackknife_cov(elements[:, 0], elements[:, 1])
                covariance = (n * cov, n * 1.96 * cov_se)
        per_n.append(
            PerNResult(
                n=n,
                j=j,
                mean_element=float(raw.mean()),
                variance=stats.k2,
                variance_ci=1.96 * stats.se[1],
                k_stats={
                    "k2": [stats.k2, stats.se[1]],
                    "k3": [stats.k3, stats.se[2]],
                    "k4": [stats.k4, stats.se[3]],
                },
                excess_kurtosis=excess_kurtosis,
                cf=[
                    [float(x), float(v.real), float(v.imag), float(c)]
                    for x, v, c in zip(cfg.x_grid, cf_values, cf_ci)
                ],
                ks=ks,
                covariance=covariance,
                samples_hash=hashlib.blake2b(y.tobytes(), digest_size=8).hexdigest(),
                samples=y,
            )
        )
    # the limit cumulants grow as the phi's x* slope to the fourth power
    with float_range("config.phi"):
        comparison = compare_with_prediction_rows(per_n, prediction, cfg, cf_pred, cov_prediction)
    return ExperimentResult(
        config=cfg.descriptor(),
        per_n=per_n,
        prediction=prediction,
        cov_prediction=cov_prediction,
        comparison=comparison,
        lanczos_steps_max=max(lanczos_steps, default=None),
    )


def _safe_z(diff: float, ci: float) -> float:
    if ci == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / ci


def _variance_row(p: PerNResult, prediction: LimitPrediction) -> dict:
    z_var = _safe_z(p.variance - prediction.v_w, p.variance_ci)
    return {"n": p.n, "z_variance": z_var, "variance_ok": bool(abs(z_var) <= 3.0)}


def compare_with_prediction_rows(per_n: Sequence[PerNResult], prediction: LimitPrediction,
                                 cfg: ExperimentConfig, cf_pred: np.ndarray,
                                 cov_prediction: float | None = None) -> dict:
    """z-scores of every estimate against its limit, one record per n.

    cf_pred holds the limit CF at cfg.x_grid.
    """
    kappas = limit_cumulants(prediction, cfg.spec, 4)
    rows = []
    for p in per_n:
        cf_rows = []
        for (x, re, im, ci), zp in zip(p.cf, cf_pred):
            gap = abs(complex(re, im) - zp)
            cf_rows.append({"x": x, "gap": gap, "ci": ci, "within_budget": bool(gap <= ci + FINITE_SIZE_CF_BUDGET)})
        record = _variance_row(p, prediction)
        record.update(
            z_k3=_safe_z(p.k_stats["k3"][0] - kappas[2], 1.96 * p.k_stats["k3"][1]),
            z_k4=_safe_z(p.k_stats["k4"][0] - kappas[3], 1.96 * p.k_stats["k4"][1]),
            cf=cf_rows,
            cf_ok=bool(all(r["within_budget"] for r in cf_rows)),
        )
        if cov_prediction is not None and p.covariance is not None:
            record["z_covariance"] = _safe_z(p.covariance[0] - cov_prediction, p.covariance[1])
        rows.append(record)
    return {
        "per_n": rows,
        "note": "finite-size bias is O(n^-1/2) and is not subtracted from the estimates",
    }


# ---------------------------------------------------------------------------
# propagator decay experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DecayReport:
    rows: list  # records {statistic, t, n, mean, variance, limit, abs_gap}
    slopes: dict  # (statistic, t) -> log-log slope of variance vs n

    def to_rows(self) -> list[dict]:
        out = []
        for r in self.rows:
            key = (r["statistic"], r["t"])
            out.append(
                {
                    "statistic": r["statistic"],
                    "t": r["t"],
                    "n": r["n"],
                    "mean_re": r["mean"].real,
                    "mean_im": r["mean"].imag,
                    "variance": r["variance"],
                    "limit_re": r["limit"].real,
                    "limit_im": r["limit"].imag,
                    "abs_gap": r["abs_gap"],
                    "var_slope": self.slopes[key],
                }
            )
        return out


def lemma_decay_experiment(cfg: ExperimentConfig, threads: int | None = None) -> DecayReport:
    """Means and variances of the propagator statistics across cfg.n_list.

    Each replica gives lemma_statistics over the whole cfg.t_grid in one
    propagator pass; the replica variances are regressed log-log against n,
    and the means are compared with the limiting values.  The row index j
    comes from cfg.j_policy at each n.
    """
    if len(cfg.n_list) < 4 or max(cfg.n_list) < 8 * min(cfg.n_list):
        raise ContractError("decay experiments need at least 4 sizes spanning an 8x range")
    threads = default_threads() if threads is None else threads
    ts = [float(t) for t in cfg.t_grid]
    rows = []
    variances: dict[tuple[str, float], dict[int, float]] = {}
    for n in cfg.n_list:
        j = resolve_j(cfg.j_policy, n, cfg.j_explicit)

        def one_replica(r: int) -> np.ndarray:  # runs to completion inside this iteration
            return lemma_statistics(eigh(sample_matrix(cfg.spec, n, cfg.root_seed, r)), j, ts).ravel()

        samples = np.vstack(_parallel_map(one_replica, cfg.replicas, threads))
        for i, t in enumerate(ts):
            v = v_of_t(t, cfg.spec.w)
            limits = (complex(v), complex(v), complex(v**2), 0.0 + 0.0j, complex(v**3))
            for s_idx, (stat, limit) in enumerate(zip(DECAY_STATISTICS, limits)):
                col = samples[:, i * len(DECAY_STATISTICS) + s_idx]
                mean = complex(col.mean())
                var = float(np.sum(np.abs(col - mean) ** 2) / (col.size - 1))
                rows.append(
                    {
                        "statistic": stat,
                        "t": t,
                        "n": n,
                        "mean": mean,
                        "variance": var,
                        "limit": limit,
                        "abs_gap": abs(mean - limit),
                    }
                )
                variances.setdefault((stat, t), {})[n] = var
    slopes = {}
    for key, by_n in variances.items():
        ns = sorted(by_n)
        vs = np.array([by_n[n] for n in ns])
        if np.all(vs > 0):
            slopes[key] = float(np.polyfit(np.log(ns), np.log(vs), 1)[0])
        else:
            slopes[key] = float("nan")
    return DecayReport(rows=rows, slopes=slopes)
