"""End-to-end acceptance suite.

Each test prints one `[criterion N] PASS/FAIL` line (run with -s to stream
them).  The heavy sample batches are shared module fixtures; replica streams
are keyed by (seed, n, replica), so a batch prefix is bit-identical to a
smaller run with the same seed.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
from wignerlab import cli
from wignerlab import ensembles as en
from wignerlab import harness as hn
from wignerlab import limits as lm
from wignerlab import volterra as vt
from wignerlab.cumulants import sample_cumulants
from wignerlab.semicircle import gaussian_damped, monomial, polynomial, v_of_t

ACCEPT_SEED = 20260809
N_BIG = 1024
R_BIG = 4000


def _criterion(number: int, passed: bool, detail: str):
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def goe_spec():
    return en.EnsembleSpec(entry_dist=en.make_entry_distribution("gaussian", 1.0), convention="goe")


def rademacher_spec():
    return en.EnsembleSpec(entry_dist=en.make_entry_distribution("rademacher", 1.0))


def centered(raw: np.ndarray, n: int) -> np.ndarray:
    return math.sqrt(n) * (raw - raw.mean())


@pytest.fixture(scope="module")
def goe_batch():
    start = time.monotonic()
    elements, _ = hn.matrix_element_samples(
        goe_spec(), N_BIG, 0, [monomial(3), monomial(4)], ACCEPT_SEED, R_BIG,
        threads=hn.default_threads(),
    )
    return {"raw3": elements[:, 0], "raw4": elements[:, 1], "elapsed": time.monotonic() - start}


@pytest.fixture(scope="module")
def rademacher_batch():
    start = time.monotonic()
    elements, _ = hn.matrix_element_samples(
        rademacher_spec(), N_BIG, 0, [monomial(2), monomial(3), monomial(4)], ACCEPT_SEED,
        R_BIG, threads=hn.default_threads(),
    )
    return {
        "raw2": elements[:, 0],
        "raw3": elements[:, 1],
        "raw4": elements[:, 2],
        "elapsed": time.monotonic() - start,
    }


@pytest.fixture(scope="module")
def decay_rows():
    cfg = hn.ExperimentConfig(spec=goe_spec(), phi=monomial(1), n_list=(128, 256, 512, 1024),
                              replicas=500, root_seed=ACCEPT_SEED + 1, t_grid=(1.0,))
    return hn.lemma_decay_experiment(cfg, threads=hn.default_threads())


def test_criterion_01_closed_form_engine():
    start = time.monotonic()
    spec = rademacher_spec()
    v_goe_expected = {1: 2.0, 2: 2.0, 3: 10.0, 4: 20.0}
    v_w_expected = {1: 2.0, 2: 0.0, 3: 10.0, 4: 2.0}
    worst = 0.0
    for power in (1, 2, 3, 4):
        pred = lm.var_limit(monomial(power), spec)
        worst = max(worst, abs(pred.v_goe - v_goe_expected[power]))
        worst = max(worst, abs(pred.v_w - v_w_expected[power]))
    elapsed = time.monotonic() - start
    _criterion(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"max closed-form error {worst:.2e} (tol 1e-10), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_02_degenerate_variance():
    start = time.monotonic()
    spec = rademacher_spec()
    worst = 0.0
    for n in (64, 256, 1024):
        cfg = hn.ExperimentConfig(
            spec=spec, phi=monomial(2), n_list=(n,), replicas=500, root_seed=ACCEPT_SEED + n
        )
        res = hn.run_entry_experiment(cfg, threads=hn.default_threads())
        worst = max(worst, abs(res.record["per_n"][0]["variance"]))
    elapsed = time.monotonic() - start
    _criterion(
        2,
        worst <= 1e-12 and elapsed < 120.0,
        f"max sample variance {worst:.2e} over n in (64, 256, 1024) (tol 1e-12), "
        f"runtime {elapsed:.1f}s (< 120s)",
    )


def test_criterion_03_kappa4_effect_detection(goe_batch, rademacher_batch):
    y_goe = centered(goe_batch["raw4"], N_BIG)
    y_rad = centered(rademacher_batch["raw4"], N_BIG)
    stats_goe = sample_cumulants(y_goe)
    stats_rad = sample_cumulants(y_rad)
    ci_goe = 1.96 * stats_goe.se[1]
    ci_rad = 1.96 * stats_rad.se[1]
    goe_ok = abs(stats_goe.k2 - 20.0) <= 3 * ci_goe
    rad_ok = abs(stats_rad.k2 - 2.0) <= 0.6
    separation = (stats_goe.k2 - stats_rad.k2) / math.hypot(ci_goe, ci_rad)
    elapsed = goe_batch["elapsed"] + rademacher_batch["elapsed"]
    _criterion(
        3,
        goe_ok and rad_ok and separation > 10 and elapsed <= 1800.0,
        f"GOE var {stats_goe.k2:.3f} (target 20 +- {3 * ci_goe:.3f}), "
        f"rademacher var {stats_rad.k2:.3f} (target 2 +- 0.6), "
        f"separation {separation:.1f} CIs (> 10), batch runtime {elapsed:.0f}s (<= 1800s)",
    )


def test_criterion_04_non_gaussian_limit_law(goe_batch, rademacher_batch):
    y = centered(rademacher_batch["raw3"], N_BIG)
    xs = np.array([0.25, 0.5, 0.75, 1.0])
    ecf, _ = hn.empirical_cf(y, xs)
    target = np.exp(-(xs**2)) * np.cos(2 * math.sqrt(2) * xs)
    tol = 1.96 / math.sqrt(R_BIG) + 0.05
    cf_gaps = np.abs(ecf - target)
    g2, g2_se = hn._excess_kurtosis_jackknife(y, sample_cumulants(y))
    kurt_ok = abs(g2 - (-1.28)) <= 3 * g2_se
    ks_rad = hn.gaussian_limit_test(y)
    ks_goe = hn.gaussian_limit_test(centered(goe_batch["raw3"], N_BIG))
    _criterion(
        4,
        bool(np.all(cf_gaps <= tol)) and kurt_ok
        and ks_rad["passed"] is False and ks_goe["passed"] is True,
        f"max CF gap {cf_gaps.max():.4f} (tol {tol:.4f}), excess kurtosis {g2:.3f} "
        f"(target -1.28 +- {3 * g2_se:.3f}), KS rademacher fail={not ks_rad['passed']}, "
        f"KS GOE pass={ks_goe['passed']}",
    )


def test_cubic_matrix_elements_match_limits(goe_batch, rademacher_batch):
    # not a numbered criterion: the harness-level check that both ensembles'
    # cubic elements land on the common limiting variance 10 within 3 CIs
    for batch in (goe_batch, rademacher_batch):
        stats = sample_cumulants(centered(batch["raw3"], N_BIG))
        z = (stats.k2 - 10.0) / (1.96 * stats.se[1])
        assert abs(z) <= 3.0, f"variance {stats.k2:.3f}, z = {z:.2f}"


def test_criterion_05_even_phi_clt(rademacher_batch):
    raw = rademacher_batch["raw4"][:2000]  # prefix == the R = 2000 run at this seed
    ks = hn.gaussian_limit_test(centered(raw, N_BIG))
    _criterion(
        5,
        ks["passed"] is True,
        f"even test function KS {ks['ks_stat']:.4f} <= threshold {ks['threshold']:.4f}",
    )


def test_criterion_06_decay_suite(decay_rows):
    rows_1024 = {r["statistic"]: r for r in decay_rows if r["n"] == 1024}
    u_slope, v_slope = rows_1024["U_jj"]["var_slope"], rows_1024["v_n"]["var_slope"]
    u_slope_ok = -1.3 <= u_slope <= -0.7
    v_slope_ok = -2.4 <= v_slope <= -1.6
    u_gap = rows_1024["U_jj"]["abs_gap"]
    v_n1_mean = abs(complex(rows_1024["v_n1"]["mean_re"], rows_1024["v_n1"]["mean_im"]))
    v_n2_gap = rows_1024["v_n2"]["abs_gap"]
    _criterion(
        6,
        u_slope_ok and v_slope_ok and u_gap <= 0.02 and v_n1_mean <= 0.05 and v_n2_gap <= 0.05,
        f"Var slopes: U_jj {u_slope:.2f} (in [-1.3, -0.7]), "
        f"v_n {v_slope:.2f} (in [-2.4, -1.6]); at n=1024: "
        f"|mean U_jj - v(1)| {u_gap:.4f} (<= 0.02), |mean v_n1| {v_n1_mean:.4f} (<= 0.05), "
        f"|mean v_n2 - v(1)^3| {v_n2_gap:.4f} (<= 0.05)",
    )


def test_criterion_07_volterra_suite():
    residuals = {}
    for h in (0.04, 0.02, 0.01):
        residuals[h] = vt.coveq_residual(1.0, -2.0, vt.uniform_grid(2.0, h))
    coveq_ok = all(res <= 50 * h * h for h, res in residuals.items())
    orders = [
        math.log2(residuals[0.04] / residuals[0.02]),
        math.log2(residuals[0.02] / residuals[0.01]),
    ]
    orders_ok = all(1.8 <= o <= 2.2 for o in orders)
    rng = np.random.default_rng(5)
    zs = rng.uniform(-4, 4, 100) - 1j * rng.uniform(0.01, 5.0, 100)
    resolvent_defect = float(np.max(oracles.resolvent_identity_defect(zs, 1.0)))
    h = 0.01
    grid = vt.uniform_grid(4.0, h)
    v, step = v_of_t(grid, 1.0), float(grid[1] - grid[0])
    v2_res = max(
        vt.v_equation_defect(v, 1.0, step, 1.0),
        vt.v_equation_defect(v, 1.0, step, v_of_t(1.0, 1.0) * v_of_t(2.0, 1.0)),
    )
    _criterion(
        7,
        coveq_ok and orders_ok and resolvent_defect <= 1e-12 and v2_res <= 10 * h * h,
        f"coveq residuals {[f'{r:.2e}' for r in residuals.values()]} (<= 50h^2), "
        f"orders {[f'{o:.2f}' for o in orders]} (in [1.8, 2.2]), "
        f"resolvent defect {resolvent_defect:.2e} (<= 1e-12), "
        f"v2 residual {v2_res:.2e} (<= {10 * h * h:.0e})",
    )


def test_criterion_08_bridge():
    spec = rademacher_spec()
    f1 = gaussian_damped([0.0, 1.0], 1.0)
    f2 = gaussian_damped([0.1, 0.0, 1.0], 1.0)
    worst = 0.0
    for a, b in ((f1, f1), (f1, f2)):
        target = float(lm.cov_limit_wigner(a, b, spec))
        got = oracles.fourier_pairing(a, b, 1.0, kappa4=spec.entry_dist.kappa4)
        worst = max(worst, abs(got - target))
    _criterion(8, worst <= 1e-3, f"max pairing gap {worst:.2e} (tol 1e-3)")


def test_criterion_09_cumulant_identity_suite():
    dists = [
        en.make_entry_distribution("gaussian", 1.0),
        en.make_entry_distribution("rademacher", 1.0),
        en.make_entry_distribution("uniform", 1.0),
        en.make_entry_distribution("two_point", 1.0, {"atoms": [-0.5, 2.0], "probs": [0.8, 0.2]}),
    ]
    maps = [
        oracles.Trigonometric(0.0, 1.0),
        oracles.Trigonometric(1.0, 0.0),
        polynomial([0.0, 1.0, 0.5]),
        polynomial([0.0, 0.0, 0.0, 1.0]),
        gaussian_damped([1.0, 0.3], 1.0),
    ]
    checked = 0
    bound_ok = True
    for dist in dists:
        for phi in maps:
            for p in range(5):
                res = oracles.stein_expansion_residual(dist, phi, p)
                bound_ok &= abs(res.residual) <= res.bound + 1e-9
                checked += 1
    # the Gaussian integration-by-parts identity, exact at the first
    # derivative order of the expansion
    gauss_res = oracles.stein_expansion_residual(dists[0], oracles.Trigonometric(0.0, 1.0), p=1)
    _criterion(
        9,
        bound_ok and abs(gauss_res.residual) <= 1e-10,
        f"remainder bound held in {checked}/100 cases; Gaussian identity residual "
        f"{abs(gauss_res.residual):.2e} (<= 1e-10)",
    )


def test_criterion_10_determinism(tmp_path):
    config = {
        "spec": {"entry_dist": {"kind": "rademacher", "w": 1.0}},
        "phi": {"kind": "polynomial", "coefficients": [0, 0, 0, 1]},
        "n_list": [16, 32, 64, 128],
        "replicas": 200,
        "root_seed": 77,
        "t_grid": [1.0],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    mismatches = []
    runs = {
        "predict": ["predict", "--config", str(cfg_path)],
        "simulate": ["simulate", "--config", str(cfg_path), "--raw"],
        "volterra": ["volterra", "--h", "0.08,0.04", "--t-max", "1.2"],
        "lemma": ["lemma", "--config", str(cfg_path)],
    }
    primary = {
        "predict": ["prediction.json"],
        "simulate": ["result.json", "replicas.csv"],
        "volterra": ["volterra_residuals.csv"],
        "lemma": ["lemma_decay.csv"],
    }
    for name, argv in runs.items():
        outs = []
        for run_idx, threads in enumerate(("1", "4")):
            out_dir = tmp_path / f"{name}{run_idx}"
            cmd = argv + ["--out", str(out_dir)]
            if name in ("simulate", "lemma"):
                cmd += ["--threads", threads]
            assert cli.run_cli(cmd) == 0
            outs.append(out_dir)
        for fname in primary[name]:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    _criterion(
        10,
        not mismatches,
        "all primary outputs byte-identical across repeated runs and thread counts"
        if not mismatches
        else f"mismatched outputs: {mismatches}",
    )
