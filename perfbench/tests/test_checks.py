"""Each workload check accepts a correct output and rejects a wrong one (small sizes)."""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest

import checks
import workloads
import wignerlab
import wignerlab.cli as cli


def _simulate(tmp_path, config: dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.run_cli(["simulate", "--config", str(path), "--raw", "--threads", "1",
                        "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    return result, workloads._replica_rows(out)


# ---------------------------------------------------------------------------
# sim-rademacher-poly
# ---------------------------------------------------------------------------

RAD_N, RAD_R, RAD_SEED = 128, 200, 3


@pytest.fixture(scope="module")
def rademacher(tmp_path_factory):
    config = {
        "spec": {"entry_dist": {"kind": "rademacher", "w": 1.0}},
        "phi": {"kind": "polynomial", "coefficients": [0, 0, 0, 1]},
        "phi2": {"kind": "polynomial", "coefficients": [0, 0, 0, 0, 1]},
        "n_list": [RAD_N], "replicas": RAD_R, "root_seed": RAD_SEED,
        "x_grid": workloads.CF_X_GRID,
    }
    result, rows = _simulate(tmp_path_factory.mktemp("rad"), config)
    spec = wignerlab.EnsembleSpec(entry_dist=wignerlab.make_entry_distribution("rademacher", 1.0))
    spots = {}
    for r in (0, 17, RAD_R - 1):
        a = checks.unpack(np.asarray(wignerlab.sample_matrix(spec, RAD_N, RAD_SEED, r).data), RAD_N)
        spots[r] = checks.cube_diagonal(a, 0)
    return result, rows, spots


def _rad_check(result, rows, spots):
    return checks.check_rademacher_cubic(result, rows, spots, RAD_N, 0, RAD_R)


def test_rademacher_accepts_program_output(rademacher):
    assert _rad_check(*rademacher) == []


def test_rademacher_rejects_variance_shifted_by_five_ci_widths(rademacher):
    result, rows, spots = rademacher
    bad = copy.deepcopy(result)
    per_n = bad["per_n"][0]
    per_n["variance"] = 10.0 + 5.0 * per_n["variance_ci"]
    assert any("CI widths" in m for m in _rad_check(bad, rows, spots))


def test_rademacher_rejects_wrong_prediction_and_cf(rademacher):
    result, rows, spots = rademacher
    bad = copy.deepcopy(result)
    bad["prediction"]["xstar_slope"] = 2.0
    bad["per_n"][0]["cf"][1][1] += 0.3
    messages = _rad_check(bad, rows, spots)
    assert any("xstar_slope" in m for m in messages)
    assert any("empirical CF" in m for m in messages)


def test_rademacher_rejects_a_wrong_replica(rademacher):
    result, rows, spots = rademacher
    bad_rows = copy.deepcopy(rows)
    bad_rows[17]["y_value"] += 1e-6
    assert any("replica 17" in m for m in _rad_check(result, bad_rows, spots))


def test_independent_cube_matches_dense_power():
    rng = np.random.default_rng(0)
    n = 9
    a = rng.standard_normal((n, n))
    a = a + a.T
    packed = a[np.tril_indices(n)]
    assert np.array_equal(checks.unpack(packed, n), a)
    assert math.isclose(checks.cube_diagonal(a, 4), np.linalg.matrix_power(a, 3)[4, 4], rel_tol=1e-12)


# ---------------------------------------------------------------------------
# sim-uniform-smooth
# ---------------------------------------------------------------------------

UNI_N, UNI_R, UNI_SEED = 128, 100, 5


@pytest.fixture(scope="module")
def uniform(tmp_path_factory):
    config = {
        "spec": {"entry_dist": {"kind": "uniform", "w": 1.0}, "convention": "general_diagonal",
                 "w2": workloads.UNIFORM_W2},
        "phi": {"kind": "gaussian_damped_polynomial", "coefficients": [0, 1, 0, 0.5],
                "envelope_width": 1.0},
        "phi2": {"kind": "gaussian_damped_polynomial", "coefficients": [1, 0, 1],
                 "envelope_width": 1.2},
        "n_list": [UNI_N], "replicas": UNI_R, "root_seed": UNI_SEED, "j_policy": "middle",
        "x_grid": workloads.CF_X_GRID,
    }
    result, rows = _simulate(tmp_path_factory.mktemp("uni"), config)
    spec = wignerlab.EnsembleSpec(entry_dist=wignerlab.make_entry_distribution("uniform", 1.0),
                                  convention="general_diagonal", w2=workloads.UNIFORM_W2)
    j = (UNI_N - 1) // 2
    spots = {}
    for r in (2, 50):
        a = checks.unpack(np.asarray(wignerlab.sample_matrix(spec, UNI_N, UNI_SEED, r).data), UNI_N)
        spots[r] = checks.spectral_entry(a, workloads._phi_odd, j)
    limits = checks.smooth_limits(workloads._phi_odd, workloads._phi_even, 1.0,
                                  workloads.UNIFORM_W2, workloads.UNIFORM_KAPPA4)
    return result, rows, spots, limits


def _uni_check(result, rows, spots, limits):
    return checks.check_uniform_smooth(result, rows, spots, limits, UNI_N, (UNI_N - 1) // 2, UNI_R)


def test_uniform_accepts_program_output(uniform):
    assert _uni_check(*uniform) == []


def test_uniform_rejects_variance_shifted_by_five_ci_widths(uniform):
    result, rows, spots, limits = uniform
    bad = copy.deepcopy(result)
    per_n = bad["per_n"][0]
    per_n["variance"] = limits["v_w"] - 5.0 * per_n["variance_ci"]
    assert any("CI widths" in m for m in _uni_check(bad, rows, spots, limits))


def test_uniform_rejects_wrong_limits_cf_and_spot(uniform):
    result, rows, spots, limits = uniform
    bad = copy.deepcopy(result)
    bad["prediction"]["diag_term"] = 0.0  # as if the w2 correction were dropped
    bad["comparison"]["per_n"][0]["cf_ok"] = False
    bad_spots = {r: v + 1e-8 for r, v in spots.items()}
    messages = _uni_check(bad, rows, bad_spots, limits)
    assert any("diag_term" in m for m in messages)
    assert any("cf_ok" in m for m in messages)
    assert any("replica 50" in m for m in messages)


def test_quadrature_reference_matches_hand_values():
    limits = checks.smooth_limits(lambda x: x**3, lambda x: x**4, 1.0, 2.0, -2.0)
    assert math.isclose(limits["v_goe"], 10.0, rel_tol=1e-10)
    assert math.isclose(limits["xstar_slope"], 2.0 * math.sqrt(2.0), rel_tol=1e-10)
    assert abs(limits["kappa4_term"]) < 1e-12 and abs(limits["cov"]) < 1e-12


# ---------------------------------------------------------------------------
# lemma-goe-decay
# ---------------------------------------------------------------------------

N_LIST, T_GRID = workloads.LEMMA_N_LIST, workloads.LEMMA_T_GRID


def _decay_rows(u_slope=-1.0, v_slope=-2.0, gap=0.0):
    rows = []
    for t in T_GRID:
        v = checks.v_of_t(t)
        limit = {"U_jj": v, "v_n": v, "v_n_pair": v**2, "v_n1": 0.0, "v_n2": v**3}
        slope = {"U_jj": u_slope, "v_n": v_slope, "v_n_pair": -2.0, "v_n1": -1.0, "v_n2": -1.0}
        for stat in limit:
            for n in N_LIST:
                mean = limit[stat] + (gap if stat == "U_jj" else 0.0)
                rows.append({"statistic": stat, "t": t, "n": n, "mean_re": mean, "mean_im": 0.0,
                             "variance": 2.0 * n ** slope[stat], "limit_re": limit[stat],
                             "limit_im": 0.0, "abs_gap": abs(gap), "var_slope": slope[stat]})
    return rows


def test_lemma_accepts_rows_with_the_limit_rates():
    assert checks.check_lemma_decay(_decay_rows(), N_LIST, T_GRID) == []


def test_lemma_rejects_slow_decay_and_mean_gap():
    assert any("U_jj" in m and "slope" in m
               for m in checks.check_lemma_decay(_decay_rows(u_slope=-0.5), N_LIST, T_GRID))
    assert any("v_n" in m for m in checks.check_lemma_decay(_decay_rows(v_slope=-1.0), N_LIST, T_GRID))
    assert any("exceeds 0.02" in m
               for m in checks.check_lemma_decay(_decay_rows(gap=0.05), N_LIST, T_GRID))


def test_lemma_rejects_wrong_limit_and_inconsistent_slope():
    rows = _decay_rows()
    rows[0]["limit_re"] += 1e-9
    rows[5]["var_slope"] += 0.01
    messages = checks.check_lemma_decay(rows, N_LIST, T_GRID)
    assert any("limit_re" in m for m in messages)
    assert any("var_slope" in m for m in messages)


def test_lemma_accepts_program_output_at_small_sizes(tmp_path):
    config = {
        "spec": {"entry_dist": {"kind": "gaussian", "w": 1.0}, "convention": "goe"},
        "phi": {"kind": "polynomial", "coefficients": [0, 1]},
        "n_list": [16, 32, 64, 128], "replicas": 100, "root_seed": 1, "t_grid": T_GRID,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.run_cli(["lemma", "--config", str(path), "--threads", "1", "--out", str(tmp_path)]) == 0
    rows = workloads._read_csv(tmp_path / "lemma_decay.csv", {"statistic": str, "n": int})
    # exact parts only: the decay windows are calibrated for n up to 1024
    messages = checks.check_lemma_decay(rows, [16, 32, 64, 128], T_GRID)
    assert [m for m in messages if "limit" in m or "var_slope" in m] == []


# ---------------------------------------------------------------------------
# volterra-residuals
# ---------------------------------------------------------------------------

H = [0.04, 0.02, 0.01]


@pytest.fixture(scope="module")
def volterra_rows():
    from wignerlab.volterra import residual_table

    return residual_table(h_values=H, w=1.1, kappa4=-1.0)


def test_volterra_accepts_second_order_table(volterra_rows):
    assert checks.check_volterra(volterra_rows, H) == []


def test_volterra_rejects_first_order_table(volterra_rows):
    bad = copy.deepcopy(volterra_rows)
    for r in bad:
        if r["case"] == "coveq":
            r["residual"] = 1e-3 * r["h"] / H[0]
            r["order_estimate"] = 1.0 if r["h"] != H[0] else float("nan")
    assert any("coveq" in m and "outside" in m for m in checks.check_volterra(bad, H))


def test_volterra_rejects_a_misreported_order(volterra_rows):
    bad = copy.deepcopy(volterra_rows)
    bad[1]["order_estimate"] = 2.1
    assert any("order_estimate" in m for m in checks.check_volterra(bad, H))
