"""Correctness checks for the benchmark workloads.

Each check takes the program's parsed outputs plus references computed apart
from the program (by hand, with scipy, or from the sampled matrix by another
route) and returns a list of failure messages; an empty list is a pass.
Nothing here compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, linalg, special

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def unpack(data: np.ndarray, n: int) -> np.ndarray:
    """Dense symmetric matrix from row-major packed lower storage, row by row."""
    a = np.empty((n, n))
    for i in range(n):
        row = data[i * (i + 1) // 2: i * (i + 1) // 2 + i + 1]
        a[i, : i + 1] = row
        a[: i + 1, i] = row
    return a


def cube_diagonal(a: np.ndarray, j: int) -> float:
    """(A^3)_jj as c.(A c) with c the j-th column, a route apart from repeated matvecs of e_j."""
    c = a[:, j]
    return float(c @ (a @ c))


def spectral_entry(a: np.ndarray, phi, j: int) -> float:
    """phi(A)_jj from scipy's symmetric eigensolver."""
    vals, vecs = linalg.eigh(a)
    return float(np.sum(phi(vals) * vecs[j, :] ** 2))


def semicircle_integral(f, w: float) -> float:
    """Integral f(x) rho_sc(x) dx by adaptive quadrature with the sqrt endpoint weight."""
    value, _ = integrate.quad(f, -2 * w, 2 * w, weight="alg", wvar=(0.5, 0.5),
                              epsabs=1e-12, epsrel=1e-12, limit=200)
    return value / (2 * math.pi * w * w)


def smooth_limits(phi, phi2, w: float, w2: float, kappa4: float) -> dict:
    """Variance pieces, x* slope and covariance limit, each from its defining integral."""
    mean = semicircle_integral(phi, w)
    var = semicircle_integral(lambda x: phi(x) ** 2, w) - mean**2
    i1 = semicircle_integral(lambda x: phi(x) * x, w)
    i2 = semicircle_integral(lambda x: phi(x) * (w * w - x * x), w)
    out = {
        "v_goe": 2.0 * var,
        "kappa4_term": kappa4 / w**8 * i2**2,
        "diag_term": (w2 - 2.0) / w**2 * i1**2,
        "xstar_slope": math.sqrt(w2) * i1 / w**2,
    }
    out["v_w"] = out["v_goe"] + out["kappa4_term"] + out["diag_term"]
    mean2 = semicircle_integral(phi2, w)
    cross = semicircle_integral(lambda x: phi(x) * phi2(x), w) - mean * mean2
    i1b = semicircle_integral(lambda x: phi2(x) * x, w)
    i2b = semicircle_integral(lambda x: phi2(x) * (w * w - x * x), w)
    out["cov"] = 2.0 * cross + kappa4 / w**8 * i2 * i2b + (w2 - 2.0) / w**2 * i1 * i1b
    return out


def v_of_t(t: float) -> float:
    """Fourier transform of the unit semicircle, J1(2t)/t."""
    return float(special.j1(2.0 * t) / t)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _close(name: str, got, want, tol: float) -> list[str]:
    if got is None or not abs(got - want) <= tol:
        return [f"{name} = {got!r}, expected {want!r} within {tol:g}"]
    return []


def check_replica_table(rows: list[dict], per_n: dict, n: int, j: int, replicas: int) -> list[str]:
    """replicas.csv shape, centring, and the variance estimate recomputed from the raw y."""
    out = []
    if len(rows) != replicas or any(r["n"] != n or r["j"] != j for r in rows):
        return [f"replicas.csv: expected {replicas} rows with n={n}, j={j}"]
    if [r["replica"] for r in rows] != list(range(replicas)):
        out.append("replicas.csv: replica indices are not 0..R-1 in order")
    y = np.array([r["y_value"] for r in rows])
    out += _close("mean of y", float(y.mean()), 0.0, 1e-9)
    out += _close("variance vs var(y)", per_n["variance"], float(np.var(y, ddof=1)),
                  1e-9 * max(1.0, abs(per_n["variance"])))
    return out


def check_spot_values(name: str, rows: list[dict], per_n: dict, n: int,
                      reference: dict[int, float], tol: float) -> list[str]:
    """Undo the centring and scaling of spot replicas and compare with their references."""
    out = []
    for r, want in reference.items():
        got = rows[r]["y_value"] / math.sqrt(n) + per_n["mean_element"]
        out += _close(f"{name} replica {r}", got, want, tol)
    return out


def _variance_z(per_n: dict, v_w: float) -> float:
    ci = per_n["variance_ci"]
    return (per_n["variance"] - v_w) / ci if ci > 0 else math.inf


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def check_rademacher_cubic(result: dict, rows: list[dict], spots: dict[int, float],
                           n: int, j: int, replicas: int) -> list[str]:
    """phi = x^3, phi2 = x^4, Rademacher entries, symmetric diagonal (w = 1).

    By hand from the semicircle moments 1, 2, 5: v_goe = 2 m6 = 10, the
    kappa4 term vanishes for odd phi, x* slope = sqrt(2) m4 = 2 sqrt(2); the
    x^3/x^4 covariance vanishes by parity; the limit CF is
    exp(-(10 - 8) x^2 / 2) cos(2 sqrt(2) x).
    """
    out = []
    pred = result["prediction"]
    for key, want in (("v_goe", 10.0), ("v_w", 10.0), ("kappa4_term", 0.0),
                      ("diag_term", 0.0), ("xstar_slope", 2.0 * SQRT2)):
        out += _close(f"prediction.{key}", pred.get(key), want, 1e-10)
    out += _close("cov_prediction", result.get("cov_prediction"), 0.0, 1e-10)
    (per_n,) = result["per_n"]
    z = _variance_z(per_n, 10.0)
    if not abs(z) <= 3.0:
        out.append(f"variance {per_n['variance']} is {z:.2f} CI widths from 10")
    out += _close("comparison z_variance", result["comparison"]["per_n"][0]["z_variance"], z, 1e-9)
    bound = 1.96 / math.sqrt(replicas) + 0.05
    for x, re, im, _ in per_n["cf"]:
        want = math.exp(-x * x) * math.cos(2.0 * SQRT2 * x)
        gap = abs(complex(re, im) - want)
        if not gap <= bound:
            out.append(f"empirical CF at x={x} is {gap:.4f} from the limit (bound {bound:.4f})")
    out += check_replica_table(rows, per_n, n, j, replicas)
    out += check_spot_values("(M^3)_jj", rows, per_n, n, spots, 1e-9)
    return out


def check_uniform_smooth(result: dict, rows: list[dict], spots: dict[int, float],
                         limits: dict, n: int, j: int, replicas: int) -> list[str]:
    """Gaussian-damped phi under uniform entries and the general-diagonal convention."""
    out = []
    pred = result["prediction"]
    for key in ("v_goe", "kappa4_term", "diag_term", "v_w", "xstar_slope"):
        out += _close(f"prediction.{key}", pred.get(key), limits[key], 1e-8)
    out += _close("cov_prediction", result.get("cov_prediction"), limits["cov"], 1e-8)
    (per_n,) = result["per_n"]
    z = _variance_z(per_n, limits["v_w"])
    if not abs(z) <= 3.0:
        out.append(f"variance {per_n['variance']} is {z:.2f} CI widths from {limits['v_w']}")
    comparison = result["comparison"]["per_n"][0]
    out += _close("comparison z_variance", comparison["z_variance"], z, 1e-6)
    if comparison.get("cf_ok") is not True:
        out.append("comparison.cf_ok is not true")
    out += check_replica_table(rows, per_n, n, j, replicas)
    out += check_spot_values("phi(M)_jj", rows, per_n, n, spots, 1e-10)
    return out


def check_lemma_decay(rows: list[dict], n_list: list[int], t_grid: list[float]) -> list[str]:
    """lemma_decay.csv: limits from scipy's J1, slopes refitted, decay rates and the n_max gap."""
    out = []
    stats = ("U_jj", "v_n", "v_n_pair", "v_n1", "v_n2")
    table = {(r["statistic"], r["t"], r["n"]): r for r in rows}
    expected = {(s, t, n) for s in stats for t in t_grid for n in n_list}
    if set(table) != expected or len(rows) != len(expected):
        return [f"lemma_decay.csv: expected rows for {stats} x t {t_grid} x n {n_list}"]
    log_n = np.log(np.array(n_list, dtype=float))
    for t in t_grid:
        v = v_of_t(t)
        limit = {"U_jj": v, "v_n": v, "v_n_pair": v**2, "v_n1": 0.0, "v_n2": v**3}
        for s in stats:
            series = [table[(s, t, n)] for n in n_list]
            for r in series:
                out += _close(f"{s}(t={t}, n={r['n']}).limit_re", r["limit_re"], limit[s], 1e-12)
                out += _close(f"{s}(t={t}, n={r['n']}).limit_im", r["limit_im"], 0.0, 1e-12)
            variances = np.array([r["variance"] for r in series])
            if np.all(variances > 0):
                refit = float(np.polyfit(log_n, np.log(variances), 1)[0])
                for r in series:
                    out += _close(f"{s}(t={t}, n={r['n']}).var_slope", r["var_slope"], refit, 1e-9)
        for s, lo, hi in (("U_jj", -1.3, -0.7), ("v_n", -2.4, -1.6)):
            slope = table[(s, t, n_list[0])]["var_slope"]
            if not lo <= slope <= hi:
                out.append(f"{s}(t={t}) variance slope {slope:.3f} outside [{lo}, {hi}]")
        top = table[("U_jj", t, max(n_list))]
        gap = abs(complex(top["mean_re"], top["mean_im"]) - v)
        if not gap <= 0.02:
            out.append(f"|mean U_jj - v({t})| = {gap:.4f} at n={max(n_list)} exceeds 0.02")
    return out


VOLTERRA_CASES = ("scalar_v_equation", "coveq", "v2_l2_t0", "v2_l3", "manufactured_solve")


def check_volterra(rows: list[dict], h_values: list[float]) -> list[str]:
    """Every case converges at the trapezoid rule's second order on the refined steps."""
    out = []
    hs = sorted(h_values, reverse=True)
    by_case: dict[str, list[dict]] = {}
    for r in rows:
        by_case.setdefault(r["case"], []).append(r)
    if set(by_case) != set(VOLTERRA_CASES):
        return [f"volterra_residuals.csv: cases {sorted(by_case)} != {sorted(VOLTERRA_CASES)}"]
    for case, series in by_case.items():
        if [r["h"] for r in series] != hs:
            out.append(f"{case}: step sizes {[r['h'] for r in series]} != {hs}")
            continue
        for prev, r in zip(series, series[1:]):
            if not r["residual"] > 0:
                out.append(f"{case} h={r['h']}: residual {r['residual']} is not positive")
                continue
            observed = math.log2(prev["residual"] / r["residual"])
            out += _close(f"{case} h={r['h']} order_estimate", r["order_estimate"], observed, 1e-9)
            if not 1.8 <= r["order_estimate"] <= 2.2:
                out.append(f"{case} h={r['h']}: observed order {r['order_estimate']:.3f} outside [1.8, 2.2]")
    return out
