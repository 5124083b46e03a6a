import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import oracles
from wignerlab import ensembles as en
from wignerlab import harness as hn
from wignerlab import limits as lm
from wignerlab import spectral as sp
from wignerlab.cumulants import jackknife_spread, unit_sample
from wignerlab.errors import ConfigError, ContractError
from wignerlab.semicircle import gaussian_damped, monomial, polynomial, tabulated


def goe_spec(w=1.0):
    return en.EnsembleSpec(entry_dist=en.make_entry_distribution("gaussian", w), convention="goe")


def rademacher_spec(w=1.0):
    return en.EnsembleSpec(entry_dist=en.make_entry_distribution("rademacher", w))


def small_config(**overrides):
    base = dict(
        spec=goe_spec(),
        phi=monomial(1),
        n_list=(32,),
        replicas=200,
        root_seed=1,
        x_grid=(0.5, 1.0),
    )
    base.update(overrides)
    return hn.ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config and helpers
# ---------------------------------------------------------------------------


def test_config_validation():
    for overrides, field in (({"replicas": 50}, "replicas"), ({"n_list": (8,)}, "n_list"),
                             ({"n_list": (64, 64)}, "n_list"), ({"j_policy": "fourth"}, "j_policy"),
                             ({"x_grid": (math.inf,)}, "x_grid"), ({"t_grid": (math.nan,)}, "t_grid")):
        with pytest.raises(ConfigError) as info:
            small_config(**overrides)
        assert info.value.field == f"config.{field}"
    small_config(j_policy="explicit", j_explicit=31)
    for j in (None, -1, 32):  # n_list is (32,)
        with pytest.raises(ConfigError) as info:
            small_config(j_policy="explicit", j_explicit=j)
        assert info.value.field == "config.j_explicit"
    with pytest.raises(TypeError):
        small_config(phi_eval="spectral")  # no evaluator knob: the phis pick the route


def test_phi_route_resolution():
    table = tabulated([-3.0, 0.0, 3.0], [1.0, 0.0, 1.0])
    assert hn.phi_route(small_config().phis()) == "power"
    assert hn.phi_route(small_config(phi2=monomial(4)).phis()) == "power"
    assert hn.phi_route(small_config(phi=gaussian_damped([0, 1.0])).phis()) == "lanczos"
    assert hn.phi_route(small_config(phi=gaussian_damped([0, 1.0]), phi2=monomial(2)).phis()) == "lanczos"
    assert hn.phi_route(small_config(phi=table).phis()) == "eigh"
    assert hn.phi_route(small_config(phi2=table).phis()) == "eigh"
    assert "phi_eval" not in small_config().descriptor()


def test_resolve_j():
    assert hn.resolve_j("first", 100) == 0
    assert hn.resolve_j("middle", 1024) == 511
    assert hn.resolve_j("middle", 5) == 2
    assert hn.resolve_j("last", 100) == 99
    assert hn.resolve_j("explicit", 100, 55) == 55


def test_default_threads_counts_the_cores_the_process_may_run_on(monkeypatch):
    monkeypatch.setattr(hn.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(hn.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert hn.default_threads() == 2  # pinned to 2 of 64 cores
    monkeypatch.delattr(hn.os, "sched_getaffinity")
    assert hn.default_threads() == 8  # no affinity to read: the core count, capped


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def test_empirical_cf_basics():
    values, ci = hn.empirical_cf(np.zeros(200), [0.0, 1.0])
    assert values[0] == 1.0 and ci[0] == 0.0
    assert values[1] == 1.0
    with pytest.raises(ContractError):
        hn.empirical_cf(np.zeros(99), [0.0])


def test_empirical_cf_gaussian_oracle():
    rng = np.random.default_rng(13)
    y = rng.standard_normal(100_000)
    values, _ = hn.empirical_cf(y, [1.0])
    assert abs(values[0] - math.exp(-0.5)) <= 4.0 / math.sqrt(y.size)


def test_gaussian_limit_test_calibration():
    rng = np.random.default_rng(17)
    out = hn.gaussian_limit_test(rng.standard_normal(10_000))
    assert out["passed"] is True
    two_point = rng.integers(0, 2, size=10_000) * 2.0 - 1.0
    out = hn.gaussian_limit_test(two_point)
    assert out["passed"] is False
    out = hn.gaussian_limit_test(np.zeros(600))
    assert out["degenerate"] is True and out["passed"] is None
    with pytest.raises(ContractError):
        hn.gaussian_limit_test(np.zeros(100))


# ---------------------------------------------------------------------------
# the covariance jackknife and the KS test on the unit sample
# ---------------------------------------------------------------------------


def two_sum_cov(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """The covariance jackknife as it was, on the raw sums: sum ab - sum a sum b / R, which
    cancels every digit of a constant term; the reference where no such term is large."""
    r = a.size
    sa, sb, sab = float(a.sum()), float(b.sum()), float((a * b).sum())
    cov = (sab - sa * sb / r) / (r - 1)
    sa_i, sb_i, sab_i = sa - a, sb - b, sab - a * b
    return cov, jackknife_spread((sab_i - sa_i * sb_i / (r - 1)) / (r - 2))


def ndtr_ks(y: np.ndarray) -> float:
    """The KS statistic of y with scipy's ndtr for the normal CDF."""
    z = np.sort((y - np.mean(y)) / np.std(y, ddof=1))
    cdf = ndtr(z)
    i = np.arange(1, y.size + 1)
    return float(np.max(np.maximum(i / y.size - cdf, cdf - (i - 1) / y.size)))


def max_scaled_ks(y: np.ndarray) -> float:
    """The KS statistic as it was: y scaled by the power of two that brings its largest
    magnitude, not its largest deviation, into [0.5, 1)."""
    return ndtr_ks(np.ldexp(y, -np.frexp(np.max(np.abs(y)))[1]))


def test_ks_normal_cdf_matches_ndtr(monkeypatch):
    """The normal CDF of gaussian_limit_test, 0.5 erfc of what it passes math.erfc, matches scipy's
    ndtr at its sorted z to 2^-52 absolute (one ulp of 1), from ndtr's erf branch near 0 out
    to |z| = 27, where ndtr reads 1e-160."""
    rng = np.random.default_rng(23)
    y = np.concatenate([rng.standard_normal(4000), [-40.0, -25.0, 25.0, 40.0]])
    passed = []

    def erfc(v):
        passed.append(v)
        return math.erfc(v)

    monkeypatch.setattr(hn, "math", types.SimpleNamespace(**{**vars(math), "erfc": erfc}))
    hn.gaussian_limit_test(y)
    u = unit_sample(y)[0]
    z = np.sort((u - np.mean(u)) / np.std(u, ddof=1))
    assert len(passed) == y.size and max(abs(z[[0, -1]])) > 25
    assert np.max(np.abs(0.5 * np.array([math.erfc(v) for v in passed]) - ndtr(z))) <= 2.0**-52


BATTERY_LAWS = (("gaussian", None, "goe"), ("rademacher", None, "paper_symmetric"),
                ("two_point", {"atoms": [-0.5, 2.0], "probs": [0.8, 0.2]}, "paper_symmetric"),
                ("uniform", None, "paper_symmetric"),
                ("discrete_custom", {"atoms": [-1.5, 0.0, 1.5], "probs": [2 / 9, 5 / 9, 2 / 9]},
                 "paper_symmetric"))
BATTERY_PHIS = (polynomial([0.3, -1.0, 0.5, 0.2]), gaussian_damped([0.5, 1.0, -0.4], 1.2),
                tabulated([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0], [0.9, -0.3, 0.4, 0.0, 0.6, 0.1, -0.8]))


def test_unit_covariance_and_ks_match_the_raw_formulas_on_the_battery():
    """Every entry kind, a polynomial, damped and tabulated phi, and three seeds, at n = 16 and
    R = 500: where no constant term is large, the covariance and its se hold the raw two-sum
    formulas to 1e-13 sqrt(k2_a k2_b) (3.8e-15 seen), the KS statistic of the centred
    sample holds the largest-magnitude scaling to 1e-14 (1.1e-16 seen), and its erfc CDF holds
    scipy's ndtr on the same unit sample to 1e-15."""
    assert {kind for kind, _, _ in BATTERY_LAWS} == set(en.KINDS)
    for kind, params, convention in BATTERY_LAWS:
        spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution(kind, 1.0, params), convention=convention)
        for seed in (1, 2, 3):
            values, _ = hn.matrix_element_samples(spec, 16, 0, BATTERY_PHIS, seed, 500)
            for i in range(3):
                a, b = values[:, i], values[:, (i + 1) % 3]
                scale = math.sqrt(np.var(a, ddof=1) * np.var(b, ddof=1))
                for got, want in zip(hn._jackknife_cov(a, b), two_sum_cov(a, b)):
                    assert abs(got - want) <= 1e-13 * scale, (kind, seed, i)
                y = 4.0 * (a - a.mean())
                assert abs(hn.gaussian_limit_test(y)["ks_stat"] - max_scaled_ks(y)) <= 1e-14, (kind, seed, i)
                ks = hn.gaussian_limit_test(a)["ks_stat"]
                assert abs(ks - ndtr_ks(unit_sample(a)[0])) <= 1e-15, (kind, seed, i)


@pytest.mark.parametrize("kind,convention", [("gaussian", "goe"), ("rademacher", "paper_symmetric"),
                                             ("uniform", "paper_symmetric")])
def test_covariance_ignores_a_constant_term(kind, convention):
    """phi(M)_jj + c rounds each value by at most c eps / 2, which moves the covariance by at
    most about c eps (sd_a + sd_b): the raw two sums read 0.0 here at c = 1e8, against a
    covariance of 0.012.  The se matches a brute-force jackknife of np.cov."""
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution(kind, 1.0), convention=convention)
    eps = np.finfo(float).eps
    for seed in (1, 2, 3):
        values, _ = hn.matrix_element_samples(spec, 32, 0, [monomial(3), monomial(4)], seed, 200)
        a, b = values[:, 0], values[:, 1]
        cov, se = hn._jackknife_cov(a, b)

        def np_cov(rows: np.ndarray) -> float:  # jackknife_se passes the replica indices as floats
            rows = rows.astype(int)
            return np.cov(a[rows], b[rows])[0, 1]

        brute, brute_se = oracles.jackknife_se(np.arange(a.size), np_cov)
        assert cov == pytest.approx(brute, rel=1e-12) and se == pytest.approx(brute_se, rel=1e-12)
        spread = np.std(a, ddof=1) + np.std(b, ddof=1)
        for c in (1e4, 1e8):
            for got, want in zip(hn._jackknife_cov(a + c, b + c), (cov, se)):
                assert abs(got - want) <= c * eps * spread, (seed, c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(32, 2000),
       exponents=st.tuples(st.integers(-150, 150), st.integers(-150, 150)),
       offsets=st.tuples(st.floats(0.0, 1e12), st.floats(0.0, 1e12)), k=st.integers(-12, 12))
def test_unit_estimators_scale_exactly_by_powers_of_two(seed, r, exponents, offsets, k):
    """a and b of magnitude 1e-150..1e150, offset from 0 by up to 1e12 of their spread: scaling
    either by 2^k scales the covariance and its se by 2^k bit for bit, the covariance matches
    np.cov of the centred samples, and the KS statistic keeps its bits."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(r)
    y = 0.6 * x + 0.8 * rng.standard_normal(r)
    a, b = 10.0 ** exponents[0] * (offsets[0] + x), 10.0 ** exponents[1] * (offsets[1] + y)
    cov, se = hn._jackknife_cov(a, b)
    assert hn._jackknife_cov(np.ldexp(a, k), b) == (math.ldexp(cov, k), math.ldexp(se, k))
    assert hn._jackknife_cov(a, np.ldexp(b, -k)) == (math.ldexp(cov, -k), math.ldexp(se, -k))
    ac, bc = a - a.mean(), b - b.mean()
    assert abs(cov - np.cov(ac, bc)[0, 1]) <= 1e-12 * np.std(ac, ddof=1) * np.std(bc, ddof=1)
    if r >= 500:  # the fewest samples gaussian_limit_test takes
        assert hn.gaussian_limit_test(np.ldexp(a, k))["ks_stat"] == hn.gaussian_limit_test(a)["ks_stat"]


# ---------------------------------------------------------------------------
# the experiment pipeline
# ---------------------------------------------------------------------------


def test_goe_identity_function_variance():
    # sqrt(n) M_jj is exactly N(0, 2w^2) at every n
    res = hn.run_entry_experiment(small_config(replicas=2000, n_list=(256,)), threads=2)
    p = res.record["per_n"][0]
    assert abs(p["variance"] - 2.0) <= 3 * p["variance_ci"]
    assert res.record["comparison"]["per_n"][0]["variance_ok"]
    assert p["ks"]["passed"] is True


def eigh_route(cfg: hn.ExperimentConfig) -> np.ndarray:
    """phi(M_r)_jj of cfg's first size through the full eigh, the reference for the Lanczos route."""
    n = cfg.n_list[0]
    j = hn.resolve_j(cfg.j_policy, n)
    decs = (sp.eigh(en.sample_matrix(cfg.spec, n, cfg.root_seed, r).dense()) for r in range(cfg.replicas))
    return np.array([[sp.matrix_function_entry(dec, p, j) for p in cfg.phis()] for dec in decs])


def scaled(raw: np.ndarray, n: int) -> np.ndarray:
    return math.sqrt(n) * (raw - raw.mean())


def test_polynomial_lanczos_and_spectral_routes_agree():
    cfg = small_config(phi=monomial(3), replicas=150)
    a = hn.run_entry_experiment(cfg, threads=1)
    b = eigh_route(cfg)
    assert hn.phi_route(cfg.phis()) == "power"
    assert np.max(np.abs(a.samples[0] - scaled(b[:, 0], 32))) <= 1e-9
    assert a.lanczos_steps_max is None  # polynomials read power vectors, no Jacobi matrix


def test_lanczos_and_spectral_routes_agree():
    phi, phi2 = gaussian_damped([0, 1.0, 0, 0.5], 1.0), gaussian_damped([1.0, 0, 1.0], 0.5)
    cfg = small_config(phi=phi, phi2=phi2, replicas=150)
    a = hn.run_entry_experiment(cfg, threads=1)
    b = eigh_route(cfg)
    assert hn.phi_route(cfg.phis()) == "lanczos"
    assert np.max(np.abs(a.samples[0] - scaled(b[:, 0], 32))) <= 1e-12
    assert a.record["per_n"][0]["covariance"][0] == pytest.approx(
        32 * hn._jackknife_cov(b[:, 0], b[:, 1])[0], rel=1e-10)
    assert 1 <= a.lanczos_steps_max <= 32


def test_mixed_set_stops_with_its_smooth_member():
    """A polynomial beside a smooth phi leaves the Lanczos walk alone: the set stops where
    the smooth phi alone stops, and both agree with the full eigh to 1e-12 of
    sum_a |phi(lambda_a)| Q_ja^2."""
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("rademacher", 3.0))
    phis = [gaussian_damped([1.0], 1.0), monomial(7)]
    n, seed, replicas = 512, 5, 8
    lanczos, steps = hn.matrix_element_samples(spec, n, 0, phis, seed, replicas)
    alone = []
    for r in range(replicas):
        m = en.sample_matrix(spec, n, seed, r)
        alone.append(hn.phi_entries(m, 0, phis[:1])[1])
        dec = sp.eigh(m.dense())
        for i, p in enumerate(phis):
            scale = sp.matrix_function_entry(dec, lambda x: np.abs(p(x)), 0)
            oracle = sp.matrix_function_entry(dec, p, 0)
            assert abs(lanczos[r, i] - oracle) <= 1e-12 * scale, (r, i)
    assert steps == max(alone) <= 64


ROUTE_PHIS = {  # phis, route, eigh calls per replica (on the Jacobi matrix for lanczos)
    "polynomials": ([monomial(3), monomial(4)], "power", 0),
    "smooth": ([gaussian_damped([0, 1.0], 1.0), gaussian_damped([1.0], 2.0)], "lanczos", 1),
    "smooth and polynomial": ([gaussian_damped([0, 1.0], 1.0), monomial(2)], "lanczos", 1),
    "tabulated": ([tabulated([-3.0, 0.0, 3.0], [1.0, 0.0, 1.0])], "eigh", 1),
    "smooth and tabulated": ([gaussian_damped([0, 1.0], 1.0),
                              tabulated([-3.0, 0.0, 3.0], [1.0, 0.0, 1.0])], "eigh", 1),
}


def counted_walk(monkeypatch) -> list[int]:
    """Patch the harness's lanczos_jacobi to log how many Jacobi matrices each call yields."""
    drawn: list[int] = []
    original = hn.lanczos_jacobi

    def walk(a, j):
        drawn.append(0)
        for t in original(a, j):
            drawn[-1] += 1
            yield t

    monkeypatch.setattr(hn, "lanczos_jacobi", walk)
    return drawn


def counted_calls(monkeypatch, module, names) -> dict[str, int]:
    """Patch the functions `names` of module to count their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("case", sorted(ROUTE_PHIS))
def test_auto_routes_each_phi_to_its_evaluator(monkeypatch, case):
    """An all-polynomial set takes the power route, a set with a smooth phi the lanczos
    route, any tabulated phi eigh.  On the lanczos route only smooth phi walk Lanczos,
    reading at least 3 Jacobi matrices and one eigh of the last; the power route reads none."""
    drawn = counted_walk(monkeypatch)
    calls = counted_calls(monkeypatch, hn, ["eigh"])
    phis, route, eighs = ROUTE_PHIS[case]
    cfg = small_config(phi=phis[0], phi2=phis[1] if len(phis) > 1 else None, replicas=100)
    res = hn.run_entry_experiment(cfg, threads=1)
    assert hn.phi_route(cfg.phis()) == route
    assert (len(drawn), calls["eigh"]) == (100 * eighs if route == "lanczos" else 0, 100 * eighs)
    if drawn:
        assert min(drawn) >= 3
        assert res.lanczos_steps_max == max(drawn)
    else:
        assert res.lanczos_steps_max is None


@pytest.mark.parametrize("case", ["polynomials", "smooth", "smooth and polynomial"])
def test_lanczos_reads_each_smooth_phi_once_per_jacobi_matrix(monkeypatch, case):
    """The stop rule reads every smooth phi once per Jacobi matrix drawn, through
    spectral.eigh and spectral.matrix_function_entry; the returned values are read
    off the last matrix through the harness's eigh and matrix_function_entry, once
    per replica.  Polynomial-only sets draw no matrix and decompose none."""
    drawn = counted_walk(monkeypatch)
    names = ["eigh", "matrix_function_entry"]
    inner, outer = counted_calls(monkeypatch, sp, names), counted_calls(monkeypatch, hn, names)
    phis = ROUTE_PHIS[case][0]
    smooth = sum(p.kind != "polynomial" for p in phis)
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("uniform", 1.0))
    values, steps = hn.matrix_element_samples(spec, 64, 5, phis, 11, 6)
    assert values.shape == (6, len(phis))
    if smooth:
        assert (steps, len(drawn)) == (max(drawn), 6)
        assert inner == {"eigh": sum(drawn), "matrix_function_entry": smooth * sum(drawn)}
        assert outer == {"eigh": 6, "matrix_function_entry": 6 * smooth}
    else:
        assert (steps, drawn) == (None, [])
        assert inner == outer == {"eigh": 0, "matrix_function_entry": 0}


@pytest.mark.parametrize("case", sorted(ROUTE_PHIS))
def test_every_route_unpacks_each_matrix_once(monkeypatch, case):
    """One SymmetricMatrix.dense call per replica on every route, mixed sets included: the
    power vectors and the Lanczos walk share one unpacked matrix, and an all-polynomial
    set never enters lanczos_jacobi."""
    drawn = counted_walk(monkeypatch)
    unpacked = []
    original = en.SymmetricMatrix.dense

    def dense(self):
        unpacked.append(self.data.tobytes())
        return original(self)

    monkeypatch.setattr(en.SymmetricMatrix, "dense", dense)
    phis = ROUTE_PHIS[case][0]
    hn.matrix_element_samples(goe_spec(), 32, 0, phis, 3, 5)
    assert unpacked == [en.sample_matrix(goe_spec(), 32, 3, r).data.tobytes() for r in range(5)]
    if all(p.kind == "polynomial" for p in phis):
        assert drawn == []


def test_result_deterministic_across_threads():
    cfg = small_config(replicas=300)
    a = hn.run_entry_experiment(cfg, threads=1).record
    b = hn.run_entry_experiment(cfg, threads=4).record
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("result,taken", [(1, True), (0, False)])
def test_heap_policy_sets_both_thresholds_and_checks_the_result(monkeypatch, result, taken):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return result

    monkeypatch.setattr(hn.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert hn.keep_freed_heap_pages.__wrapped__() is taken
    assert calls == [(-1, 512 << 20), (-3, 32 << 20)]  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD


def test_heap_policy_without_mallopt_changes_nothing(monkeypatch):
    monkeypatch.setattr(hn.ctypes, "CDLL", lambda name: types.SimpleNamespace())  # no such symbol
    assert hn.keep_freed_heap_pages.__wrapped__() is False


_WARM_PHASE_FAULTS = """
import json, resource
from wignerlab import ensembles as en, harness as hn
from wignerlab.semicircle import monomial
spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("rademacher", 1.0))
faults = []
for phase in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    hn.matrix_element_samples(spec, 1024, 0, [monomial(3), monomial(4)], 7, 100, threads=2)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"policy_set": hn.keep_freed_heap_pages(), "faults": faults}))
"""


def test_warm_replica_phase_reuses_freed_heap_pages():
    """A second replica phase at n=1024 takes its arrays from the heap the first one
    freed; under glibc's default policy it faults 600-1500 fresh pages per replica.

    It runs in a fresh process, because the policy lasts for the life of a process."""
    pytest.importorskip("resource")
    src = str(Path(hn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WARM_PHASE_FAULTS], env=env, capture_output=True,
                          text=True, check=True, timeout=600)
    report = json.loads(proc.stdout)
    if not report["policy_set"]:
        pytest.skip("the C library has no mallopt")
    assert report["faults"][1] / 100 < 64


def test_replica_sequence_uncorrelated():
    res = hn.run_entry_experiment(small_config(replicas=2000, n_list=(64,)), threads=2)
    y = res.samples[0]
    y0 = y - y.mean()
    rho1 = float(np.dot(y0[:-1], y0[1:]) / np.dot(y0, y0))
    assert abs(rho1) <= 4.0 / math.sqrt(y.size)


def test_centering_consistency_against_semicircle():
    # E phi(M)_jj approaches the semicircle integral; gap <= 0.05 at n = 1024
    cfg = hn.ExperimentConfig(
        spec=goe_spec(), phi=monomial(2), n_list=(1024,), replicas=500, root_seed=5
    )
    res = hn.run_entry_experiment(cfg, threads=2)
    assert abs(res.record["per_n"][0]["mean_element"] - oracles.sc_integral(monomial(2), 1.0)) <= 0.05


def test_cf_variance_consistency():
    h = 0.1
    cfg = small_config(replicas=3000, n_list=(128,), x_grid=(h,))
    res = hn.run_entry_experiment(cfg, threads=2)
    p = res.record["per_n"][0]
    ecf = complex(p["cf"][0][1], p["cf"][0][2])
    var_from_cf = -2.0 * math.log(abs(ecf)) / h**2
    # propagate the CF confidence radius through the log
    ci_prop = 2.0 * p["cf"][0][3] / (abs(ecf) * h * h)
    combined = math.sqrt(p["variance_ci"]**2 + ci_prop**2)
    assert abs(var_from_cf - p["variance"]) <= 5 * combined


def test_j_policy_invariance_at_scale():
    estimates = []
    for policy in ("first", "middle", "last"):
        cfg = hn.ExperimentConfig(
            spec=rademacher_spec(), phi=monomial(3), n_list=(1024,), replicas=400,
            root_seed=7, j_policy=policy,
        )
        p = hn.run_entry_experiment(cfg, threads=2).record["per_n"][0]
        estimates.append((p["variance"], p["variance_ci"]))
    for i in range(len(estimates)):
        for k in range(i + 1, len(estimates)):
            gap = abs(estimates[i][0] - estimates[k][0])
            assert gap <= 4 * math.hypot(estimates[i][1], estimates[k][1])


def test_covariance_estimation_with_second_function():
    cfg = hn.ExperimentConfig(
        spec=rademacher_spec(), phi=monomial(1), phi2=monomial(3),
        n_list=(256,), replicas=2000, root_seed=11,
    )
    res = hn.run_entry_experiment(cfg, threads=2)
    cov, ci = res.record["per_n"][0]["covariance"]
    assert res.record["cov_prediction"] == pytest.approx(
        float(lm.cov_limit_wigner(monomial(1), monomial(3), rademacher_spec()))
    )
    assert abs(cov - res.record["cov_prediction"]) <= 4 * ci
    assert "z_covariance" in res.record["comparison"]["per_n"][0]


def test_degenerate_case_z_score_is_zero():
    cfg = hn.ExperimentConfig(
        spec=rademacher_spec(), phi=monomial(2), n_list=(64,), replicas=300, root_seed=3
    )
    res = hn.run_entry_experiment(cfg, threads=1)
    assert res.record["per_n"][0]["variance"] == 0.0
    assert res.record["comparison"]["per_n"][0]["z_variance"] == 0.0


def rademacher_record(phi, n):
    cfg = hn.ExperimentConfig(spec=rademacher_spec(), phi=phi, n_list=(n,), replicas=500, root_seed=7)
    return hn.run_entry_experiment(cfg, threads=1).record["per_n"][0]


def test_underflowing_samples_keep_their_kurtosis_and_ks():
    # at 2^-600 the centred squares underflow, yet g2 and the standardised KS sample do not depend on scale
    plain = rademacher_record(monomial(3), 64)
    tiny, tinier = (rademacher_record(polynomial([0.0, 0.0, 0.0, 2.0**e]), 64) for e in (-300, -600))
    assert tiny["excess_kurtosis"] == tinier["excess_kurtosis"] and tiny["ks"] == tinier["ks"]
    assert tinier["excess_kurtosis"] == pytest.approx(plain["excess_kurtosis"], rel=1e-14)
    assert tinier["ks"]["ks_stat"] == pytest.approx(plain["ks"]["ks_stat"], rel=1e-14)
    assert tinier["ks"]["degenerate"] is False


def test_a_shared_statistic_is_degenerate_though_its_mean_rounds():
    # every replica's x^2 entry is 97/96: raw.mean() rounds, so every y is one tiny nonzero value
    record = rademacher_record(monomial(2), 96)
    assert record["excess_kurtosis"] == [None, 0.0]
    assert record["ks"] == {"ks_stat": None, "threshold": record["ks"]["threshold"], "passed": None,
                            "degenerate": True}


def test_one_odd_value_leaves_the_kurtosis_se_undefined():
    # dropping the one nonzero diagonal entry leaves an all-equal sample: its leave-one-out
    # k2 is a rounding residue, not 0, so the jackknife se would read about 1e17
    dist = en.make_entry_distribution("discrete_custom", 1.0,
                                      {"atoms": [-10.0, 0.0, 10.0], "probs": [0.005, 0.99, 0.005]})
    cfg = hn.ExperimentConfig(spec=en.EnsembleSpec(entry_dist=dist), phi=monomial(1), n_list=(16,),
                              replicas=100, root_seed=1)
    record = hn.run_entry_experiment(cfg, threads=1).record["per_n"][0]
    g2, se = record["excess_kurtosis"]
    assert g2 == pytest.approx(100.0) and se is None
    for y in (np.r_[1.0, np.zeros(499)], np.r_[np.zeros(499), -3.0]):
        assert hn._excess_kurtosis_jackknife(y, hn.sample_cumulants(y))[1] is None
    y = np.r_[1.0, 1.0, np.zeros(498)]  # two odd values: every leave-one-out g2 is defined
    assert math.isfinite(hn._excess_kurtosis_jackknife(y, hn.sample_cumulants(y))[1])


def test_wrong_prediction_is_detected():
    # feeding the GOE answer to a rademacher run must blow the z-score up
    cfg = hn.ExperimentConfig(
        spec=rademacher_spec(), phi=monomial(4), n_list=(256,), replicas=800, root_seed=13
    )
    res = hn.run_entry_experiment(cfg, threads=2)
    wrong = lm.LimitPrediction(
        v_goe=20.0, kappa4_term=0.0, diag_term=0.0, gaussian_variance=20.0, v_w=20.0, xstar_slope=0.0,
        spec=rademacher_spec(), phi_ref=res.record["config"]["phi"],
    )
    report = oracles.compare_with_prediction(res, wrong)
    assert abs(report["per_n"][0]["z_variance"]) > 10


def test_compare_with_prediction_provenance():
    res = hn.run_entry_experiment(small_config(), threads=1)
    alien = lm.var_limit(monomial(2), rademacher_spec())
    with pytest.raises(ContractError):
        oracles.compare_with_prediction(res, alien)


# ---------------------------------------------------------------------------
# decay experiment
# ---------------------------------------------------------------------------


def decay_config(n_list):
    return hn.ExperimentConfig(spec=goe_spec(), phi=monomial(1), n_list=tuple(n_list),
                               replicas=200, root_seed=19, t_grid=(1.0,))


def test_decay_experiment_small_sizes():
    rows = hn.lemma_decay_experiment(decay_config([32, 64, 128, 256]), threads=2)
    last = {r["statistic"]: r for r in rows if r["n"] == 256}
    assert -1.4 <= last["U_jj"]["var_slope"] <= -0.6
    assert -2.5 <= last["v_n"]["var_slope"] <= -1.5
    assert last["U_jj"]["abs_gap"] <= 0.05
    assert last["v_n2"]["abs_gap"] <= 0.1
    assert {row["statistic"] for row in rows} == set(sp.DECAY_STATISTICS)


def test_decay_experiment_needs_wide_size_range():
    for n_list in ([64, 128], [64, 96, 128, 192]):
        with pytest.raises(ConfigError) as info:
            hn.lemma_decay_experiment(decay_config(n_list))
        assert info.value.field == "config.n_list"
