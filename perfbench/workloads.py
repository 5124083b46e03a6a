"""The benchmark's four workloads: inputs made from the seed, CLI arguments and output checks.

Sizes are chosen so that one operation (one CLI process plus its checks)
fits the run length on a 2-core machine while the statistical checks keep
several standard errors of margin; see README.md for the reasoning per
workload.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

RADEMACHER_N = 1024
RADEMACHER_REPLICAS = 300
UNIFORM_N = 512
UNIFORM_REPLICAS = 100
UNIFORM_W2 = 1.0
UNIFORM_KAPPA4 = -1.2  # fourth cumulant of the unit-variance uniform law: 9/5 - 3
# Small x keep the empirical CF's standard error well inside the check's
# 0.05 allowance at these replica counts (see README.md).
CF_X_GRID = [0.125, 0.25]
LEMMA_N_LIST = [128, 256, 512, 1024]
LEMMA_REPLICAS = 100  # the smallest count the config schema accepts
LEMMA_T_GRID = [1.0, 3.0]
VOLTERRA_H = [0.01, 0.005, 0.0025, 0.00125]
VOLTERRA_T_MAX = 2.0
SPOT_REPLICAS = 3


@dataclass
class Workload:
    probe: list[str]  # setup_probe.py arguments
    cli: list[str]  # wignerlab arguments, --out excluded
    outputs: list[str]  # primary outputs, byte-identical for fixed inputs
    check: Callable[[Path], list[str]]  # failure messages for one output directory


def _read_csv(path: Path, types: dict[str, Callable]) -> list[dict]:
    with path.open(newline="") as fh:
        return [{k: types.get(k, float)(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _replica_rows(out_dir: Path) -> list[dict]:
    return _read_csv(out_dir / "replicas.csv", {"n": int, "replica": int, "j": int})


def _write_config(work: Path, name: str, config: dict) -> Path:
    path = work / f"{name}.json"
    path.write_text(json.dumps(config, indent=1))
    return path


def _spots(seed: int, replicas: int) -> list[int]:
    rng = np.random.default_rng([seed, 7])
    return sorted(int(r) for r in rng.choice(replicas, SPOT_REPLICAS, replace=False))


def sim_rademacher_poly(seed: int, work: Path, threads: int) -> Workload:
    config = {
        "spec": {"entry_dist": {"kind": "rademacher", "w": 1.0}, "convention": "paper_symmetric"},
        "phi": {"kind": "polynomial", "coefficients": [0, 0, 0, 1]},
        "phi2": {"kind": "polynomial", "coefficients": [0, 0, 0, 0, 1]},
        "n_list": [RADEMACHER_N],
        "replicas": RADEMACHER_REPLICAS,
        "root_seed": seed,
        "j_policy": "first",
        "x_grid": CF_X_GRID,
    }
    path = _write_config(work, "sim-rademacher-poly", config)
    n, j = RADEMACHER_N, 0

    def check(out_dir: Path) -> list[str]:
        import wignerlab as wl  # the program's own sampler, imported after timing

        spec = wl.EnsembleSpec(entry_dist=wl.make_entry_distribution("rademacher", 1.0))
        spots = {}
        for r in _spots(seed, RADEMACHER_REPLICAS):
            a = checks.unpack(np.asarray(wl.sample_matrix(spec, n, seed, r).data), n)
            spots[r] = checks.cube_diagonal(a, j)
        result = json.loads((out_dir / "result.json").read_text())
        return checks.check_rademacher_cubic(result, _replica_rows(out_dir), spots, n, j,
                                             RADEMACHER_REPLICAS)

    return Workload(["config", str(path)],
                    ["simulate", "--config", str(path), "--raw", "--threads", str(threads)],
                    ["result.json", "replicas.csv"], check)


def _phi_odd(x):
    return (x + 0.5 * x**3) * np.exp(-x * x / 2.0)


def _phi_even(x):
    return (1.0 + x * x) * np.exp(-x * x / (2.0 * 1.2**2))


def sim_uniform_smooth(seed: int, work: Path, threads: int) -> Workload:
    config = {
        "spec": {"entry_dist": {"kind": "uniform", "w": 1.0}, "convention": "general_diagonal",
                 "w2": UNIFORM_W2},
        "phi": {"kind": "gaussian_damped_polynomial", "coefficients": [0, 1, 0, 0.5],
                "envelope_width": 1.0},
        "phi2": {"kind": "gaussian_damped_polynomial", "coefficients": [1, 0, 1],
                 "envelope_width": 1.2},
        "n_list": [UNIFORM_N],
        "replicas": UNIFORM_REPLICAS,
        "root_seed": seed,
        "j_policy": "middle",
        "x_grid": CF_X_GRID,
    }
    path = _write_config(work, "sim-uniform-smooth", config)
    n, j = UNIFORM_N, (UNIFORM_N - 1) // 2  # 'middle' is the 1-based ceil(n/2)

    def check(out_dir: Path) -> list[str]:
        import wignerlab as wl  # the program's own sampler, imported after timing

        spec = wl.EnsembleSpec(entry_dist=wl.make_entry_distribution("uniform", 1.0),
                               convention="general_diagonal", w2=UNIFORM_W2)
        spots = {}
        for r in _spots(seed, UNIFORM_REPLICAS):
            a = checks.unpack(np.asarray(wl.sample_matrix(spec, n, seed, r).data), n)
            spots[r] = checks.spectral_entry(a, _phi_odd, j)
        limits = checks.smooth_limits(_phi_odd, _phi_even, 1.0, UNIFORM_W2, UNIFORM_KAPPA4)
        result = json.loads((out_dir / "result.json").read_text())
        return checks.check_uniform_smooth(result, _replica_rows(out_dir), spots, limits, n, j,
                                           UNIFORM_REPLICAS)

    return Workload(["config", str(path)],
                    ["simulate", "--config", str(path), "--raw", "--threads", str(threads)],
                    ["result.json", "replicas.csv"], check)


def lemma_goe_decay(seed: int, work: Path, threads: int) -> Workload:
    config = {
        "spec": {"entry_dist": {"kind": "gaussian", "w": 1.0}, "convention": "goe"},
        "phi": {"kind": "polynomial", "coefficients": [0, 1]},  # required by the schema, unused
        "n_list": LEMMA_N_LIST,
        "replicas": LEMMA_REPLICAS,
        "root_seed": seed,
        "j_policy": "first",
        "t_grid": LEMMA_T_GRID,
    }
    path = _write_config(work, "lemma-goe-decay", config)

    def check(out_dir: Path) -> list[str]:
        rows = _read_csv(out_dir / "lemma_decay.csv", {"statistic": str, "n": int})
        return checks.check_lemma_decay(rows, LEMMA_N_LIST, LEMMA_T_GRID)

    return Workload(["config", str(path)],
                    ["lemma", "--config", str(path), "--threads", str(threads)],
                    ["lemma_decay.csv"], check)


def volterra_residuals(seed: int, work: Path, threads: int) -> Workload:
    # The seed picks the scale and fourth cumulant; kappa4 >= -2 w^4 holds for real entry laws.
    rng = np.random.default_rng([seed, 11])
    w = round(float(rng.uniform(0.8, 1.25)), 6)
    kappa4 = round(float(rng.uniform(-2.0 * w**4, 2.0)), 6)
    h = ",".join(repr(v) for v in VOLTERRA_H)

    def check(out_dir: Path) -> list[str]:
        rows = _read_csv(out_dir / "volterra_residuals.csv", {"case": str})
        return checks.check_volterra(rows, VOLTERRA_H)

    return Workload(["volterra", h, repr(VOLTERRA_T_MAX)],
                    ["volterra", "--h", h, "--w", repr(w), "--kappa4", repr(kappa4),
                     "--t-max", repr(VOLTERRA_T_MAX)],
                    ["volterra_residuals.csv"], check)


_MAKERS = {
    "sim-rademacher-poly": sim_rademacher_poly,
    "lemma-goe-decay": lemma_goe_decay,
    "sim-uniform-smooth": sim_uniform_smooth,
    "volterra-residuals": volterra_residuals,
}
NAMES = tuple(_MAKERS)


def make(name: str, seed: int, work: Path, threads: int) -> Workload:
    return _MAKERS[name](seed, work, threads)


def expected_layers(name: str) -> list[str]:
    """Per-layer counters that must be non-zero on this workload's traced run."""
    common = ["cli.self_s"]
    mc = ["ensembles.sample_matrix.calls", "harness.replicas.wall_s", "harness.replicas.self_s",
          "harness.replicas.parallel_efficiency"]
    return common + {
        "sim-rademacher-poly": mc + ["ensembles.dense.calls", "harness.estimators.self_s",
                                     "cumulants.sample_cumulants.busy_s", "limits.busy_s"],
        "lemma-goe-decay": mc + ["spectral.eigh.calls", "ensembles.dense.calls",
                                 "spectral.lemma_statistics.busy_s"],
        "sim-uniform-smooth": mc + ["spectral.eigh.calls", "spectral.matrix_function_entry.busy_s",
                                    "harness.estimators.self_s", "limits.busy_s"],
        "volterra-residuals": ["volterra.residual_table.wall_s", "volterra.coveq_residual.self_s",
                               "volterra.cov_kernel_grid.busy_s", "volterra.phi_kernel_grid.busy_s",
                               "volterra.volterra_solve.busy_s", "semicircle.sc_convolutions.busy_s"],
    }[name]
