import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wignerlab import cumulants as cm
from wignerlab.ensembles import make_entry_distribution
from wignerlab.errors import ContractError
from wignerlab.semicircle import gaussian_damped, polynomial, tabulated


def explicit_kappas(mu):
    """The order <= 4 textbook formulas, used as an independent check."""
    m1, m2, m3, m4 = mu
    k1 = m1
    k2 = m2 - m1**2
    k3 = m3 - 3 * m2 * m1 + 2 * m1**3
    k4 = m4 - 3 * m2**2 - 4 * m3 * m1 + 12 * m2 * m1**2 - 6 * m1**4
    return [k1, k2, k3, k4]


def test_recursion_matches_explicit_formulas():
    rng = np.random.default_rng(7)
    for _ in range(200):
        mu = rng.uniform(-2, 2, size=4).tolist()
        got = cm.moments_to_cumulants(mu)
        for order, expected in enumerate(explicit_kappas(mu), start=1):
            assert got[order - 1] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_centered_fourth_cumulant():
    w = 1.3
    mu4 = 2.9
    kappas = cm.moments_to_cumulants([0.0, w**2, 0.0, mu4])
    assert kappas[3] == pytest.approx(mu4 - 3 * w**4, rel=1e-14)


def test_gaussian_moments_give_zero_cumulants():
    w = 0.8
    mu = [0.0, w**2, 0.0, 3 * w**4, 0.0, 15 * w**6]
    kappas = cm.moments_to_cumulants(mu)
    for order in (3, 4, 5, 6):
        assert abs(kappas[order - 1]) <= 1e-12


def test_shifted_law_example():
    kappas = cm.moments_to_cumulants([1.0, 2.0, 4.0])
    assert kappas[1] == pytest.approx(1.0)
    assert kappas[2] == pytest.approx(0.0, abs=1e-14)


def test_cumulants_to_moments_gaussian_pattern():
    w = 1.1
    mu = oracles.cumulants_to_moments([0.0, w**2, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(mu, [0.0, w**2, 0.0, 3 * w**4, 0.0, 15 * w**6], rtol=1e-13)
    assert oracles.cumulants_to_moments([0.0] * 6) == [0.0] * 6


def test_round_trip_seeded_batch():
    # tolerance is relative to the largest intermediate cumulant: the inverse
    # pass cancels against those magnitudes, so that is the conditioned scale
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = rng.integers(1, 9)
        mu = rng.uniform(-3, 3, size=p).tolist()
        kappas = cm.moments_to_cumulants(mu)
        back = oracles.cumulants_to_moments(kappas)
        scale = max(1.0, max(abs(k) for k in kappas))
        assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(mu, back))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=8))
def test_round_trip_property(mu):
    kappas = cm.moments_to_cumulants(mu)
    back = oracles.cumulants_to_moments(kappas)
    scale = max(1.0, max(abs(k) for k in kappas))
    assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(mu, back))


def test_round_trip_strict_for_entry_distributions():
    # centered bounded laws are well conditioned: 1e-12 relative holds outright
    for dist in builtin_distributions():
        back = oracles.cumulants_to_moments(cm.moments_to_cumulants(dist.moments))
        assert all(
            abs(a - b) <= 1e-12 * max(1.0, abs(a)) for a, b in zip(dist.moments, back)
        )


def test_order_cap():
    with pytest.raises(ContractError):
        cm.moments_to_cumulants([0.0] * 9)
    with pytest.raises(ContractError):
        oracles.cumulants_to_moments([0.0] * 9)


# ---------------------------------------------------------------------------
# k-statistics
# ---------------------------------------------------------------------------


def test_sample_cumulants_constant_data():
    stats = cm.sample_cumulants(np.full(100, 3.7))
    assert stats.k1 == pytest.approx(3.7)
    assert stats.k2 == stats.k3 == stats.k4 == 0.0


def test_sample_cumulants_gaussian_million():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(1_000_000)
    stats = cm.sample_cumulants(x)
    assert abs(stats.k4) <= 4 * math.sqrt(24 / x.size)
    assert stats.k2 == pytest.approx(1.0, abs=4 * math.sqrt(2 / x.size))


def test_sample_cumulants_rademacher_million():
    rng = np.random.default_rng(43)
    x = rng.integers(0, 2, size=1_000_000) * 2.0 - 1.0
    stats = cm.sample_cumulants(x)
    assert abs(stats.k4 - (-2.0)) <= 4 * stats.se[3]


def test_sample_cumulants_unbiasedness_small_sample():
    # average of k2 over many tiny samples estimates the true variance
    rng = np.random.default_rng(3)
    k2s = [cm.sample_cumulants(rng.standard_normal(40)).k2 for _ in range(3000)]
    assert np.mean(k2s) == pytest.approx(1.0, abs=0.02)


def test_sample_cumulants_requires_enough_data():
    with pytest.raises(ContractError):
        cm.sample_cumulants(np.zeros(31))


@pytest.mark.parametrize("e", [-260, -200, -100, 100, 200])
def test_sample_cumulants_scale_exactly_by_powers_of_two(e):
    # k_p and its se scale by 2^(p e) bit for bit, where the raw power sums or the
    # jackknife squares of the scaled sample would leave the normal float range
    y = np.random.default_rng(11).standard_normal(500) ** 3
    plain, scaled = cm.sample_cumulants(y), cm.sample_cumulants(np.ldexp(y, e))
    for p in (2, 3, 4):
        assert getattr(scaled, f"k{p}") == math.ldexp(getattr(plain, f"k{p}"), p * e)
        assert scaled.se[p - 1] == math.ldexp(plain.se[p - 1], p * e)


def test_k_statistic_convergence_rate():
    # RMS error of k4 for a centered exponential (kappa4 = 6) decays ~ R^-1/2
    rng = np.random.default_rng(9)
    sizes = [1_000, 10_000, 100_000, 1_000_000]
    reps = 48
    rms = []
    for size in sizes:
        errs = [cm.sample_cumulants(rng.exponential(size=size) - 1.0).k4 - 6.0 for _ in range(reps)]
        rms.append(float(np.sqrt(np.mean(np.square(errs)))))
    slope = np.polyfit(np.log(sizes), np.log(rms), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_jackknife_se_matches_analytic_for_mean():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4000)
    est, se = oracles.jackknife_se(x, np.mean)
    assert est == pytest.approx(x.mean())
    assert se == pytest.approx(x.std(ddof=1) / math.sqrt(x.size), rel=1e-3)


# ---------------------------------------------------------------------------
# cumulant expansion identity
# ---------------------------------------------------------------------------


def builtin_distributions():
    return [
        make_entry_distribution("gaussian", 1.0),
        make_entry_distribution("rademacher", 1.0),
        make_entry_distribution("uniform", 1.0),
        make_entry_distribution(
            "two_point", 1.0, {"atoms": [-0.5, 2.0], "probs": [0.8, 0.2]}
        ),
    ]


def builtin_test_maps():
    return [
        oracles.Trigonometric(0.0, 1.0),
        oracles.Trigonometric(1.0, 0.0),
        polynomial([0.0, 1.0, 0.5]),
        polynomial([0.0, 0.0, 0.0, 1.0]),
        gaussian_damped([1.0, 0.3], 1.0),
    ]


def test_gaussian_sin_identity_is_exact():
    # E{xi sin xi} = w^2 E{cos xi} for the Gaussian law: the expansion at the
    # order containing the first-derivative term reproduces it exactly
    dist = make_entry_distribution("gaussian", 1.0)
    res = oracles.stein_expansion_residual(dist, oracles.Trigonometric(0.0, 1.0), p=1)
    cos_mean = oracles.dist_expectation(dist, oracles.Trigonometric(1.0, 0.0))
    assert res.rhs == pytest.approx(cos_mean, rel=1e-12)
    assert abs(res.residual) <= 1e-10


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_gaussian_all_orders_near_zero(p):
    # every higher cumulant vanishes, so the residual stays at quadrature level
    dist = make_entry_distribution("gaussian", 1.0)
    res = oracles.stein_expansion_residual(dist, gaussian_damped([0.2, 1.0], 1.0), p=p)
    assert abs(res.residual) <= 1e-9


def test_gaussian_p0_even_map_residual_zero():
    # at p=0 the expansion keeps only kappa_1 E{Phi} = 0; for even Phi the
    # left side vanishes by symmetry too
    dist = make_entry_distribution("gaussian", 1.0)
    res = oracles.stein_expansion_residual(dist, oracles.Trigonometric(1.0, 0.0), p=0)
    assert abs(res.residual) <= 1e-12


def test_rademacher_square_p1():
    dist = make_entry_distribution("rademacher", 1.0)
    res = oracles.stein_expansion_residual(dist, polynomial([0.0, 0.0, 1.0]), p=1)
    assert res.lhs == pytest.approx(0.0, abs=1e-14)
    assert res.rhs == pytest.approx(0.0, abs=1e-14)


def test_rademacher_cube_p2_residual_and_bound():
    dist = make_entry_distribution("rademacher", 1.0)
    res = oracles.stein_expansion_residual(dist, polynomial([0.0, 0.0, 0.0, 1.0]), p=2)
    assert res.lhs == pytest.approx(1.0)
    assert res.rhs == pytest.approx(3.0)
    assert res.residual == pytest.approx(-2.0)
    c2 = (1 + 7**4) / math.factorial(3)
    assert res.bound == pytest.approx(c2 * 1.0 * 6.0, rel=1e-12)
    assert abs(res.residual) <= res.bound


def test_bound_holds_for_full_battery():
    for dist in builtin_distributions():
        for phi in builtin_test_maps():
            for p in range(5):
                res = oracles.stein_expansion_residual(dist, phi, p)
                assert abs(res.residual) <= res.bound + 1e-9


def test_truncation_residual_decays_for_entire_cf_law():
    # the entire-CF hypothesis makes the expansion summable: the truncation
    # residual must decay in p (no attempt to push it to machine zero)
    dist = make_entry_distribution("rademacher", 1.0)
    residuals = [abs(oracles.stein_expansion_residual(dist, oracles.Trigonometric(0.0, 1.0), p).residual)
                 for p in range(5)]
    assert all(b <= a + 1e-14 for a, b in zip(residuals, residuals[1:]))
    assert residuals[4] <= 0.2 * residuals[0]


def test_polynomial_sup_norm_rules():
    assert oracles.sup_norm(polynomial([3.0])) == 3.0
    assert oracles.sup_norm(polynomial([0.0, 1.0])) == math.inf
    assert oracles.sup_norm(oracles.Trigonometric(0.0, 1.0)) == 1.0
    assert oracles.sup_norm(oracles.Trigonometric(3.0, -4.0)) == 5.0
    gd = gaussian_damped([1.0], 1.0)
    assert oracles.sup_norm(gd) == pytest.approx(1.0, rel=1e-6)
    # a cos x + b sin x is closed under d/dx, with period four
    trig = oracles.Trigonometric(0.7, -1.3)
    assert oracles.derivative(trig, 4) == trig
    assert oracles.derivative(trig, 0) is trig
    x = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(oracles.derivative(trig, 4)(x), trig(x), rtol=0, atol=1e-15)
    assert np.allclose(oracles.derivative(trig)(x), -0.7 * np.sin(x) - 1.3 * np.cos(x),
                       rtol=0, atol=1e-15)
    with pytest.raises(ContractError):
        oracles.derivative(tabulated([-3.0, 3.0], [1.0, 2.0]))
