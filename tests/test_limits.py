import math

import numpy as np
import pytest

import oracles
from wignerlab import ensembles as en
from wignerlab import limits as lm
from wignerlab.errors import ContractError, InconsistencyError
from wignerlab.semicircle import gaussian_damped, monomial, polynomial


def rademacher_spec(w=1.0):
    return en.EnsembleSpec(entry_dist=en.make_entry_distribution("rademacher", w))


def goe_spec(w=1.0):
    return en.EnsembleSpec(entry_dist=en.make_entry_distribution("gaussian", w), convention="goe")


def three_point_spec(kappa4_over_w4: float, w=1.0) -> en.EnsembleSpec:
    """Symmetric three-point law realizing any kappa4/w^4 in [-2, inf)."""
    g = kappa4_over_w4
    a = w * math.sqrt(3.0 + g)
    p = w * w / (2 * a * a)
    dist = en.make_entry_distribution(
        "discrete_custom", w, {"atoms": [-a, 0.0, a], "probs": [p, 1 - 2 * p, p]}
    )
    return en.EnsembleSpec(entry_dist=dist)


# ---------------------------------------------------------------------------
# covariance closed forms
# ---------------------------------------------------------------------------


def test_cov_limit_goe_examples():
    assert lm.cov_limit_goe(monomial(1), monomial(1), 1.0) == pytest.approx(2.0, abs=1e-12)
    assert lm.cov_limit_goe(monomial(2), monomial(2), 1.0) == pytest.approx(2.0, abs=1e-12)
    assert lm.cov_limit_goe(monomial(1), monomial(2), 1.0) == pytest.approx(0.0, abs=1e-13)


def test_cov_limit_goe_matches_tensor_oracle():
    rng = np.random.default_rng(71)
    for _ in range(25):
        deg1, deg2 = rng.integers(0, 7, size=2)
        p1 = polynomial(rng.uniform(-1, 1, size=deg1 + 1))
        p2 = polynomial(rng.uniform(-1, 1, size=deg2 + 1))
        w = float(rng.uniform(0.5, 1.5))
        assert lm.cov_limit_goe(p1, p2, w) == pytest.approx(
            oracles.cov_limit_goe_oracle(p1, p2, w), rel=1e-11, abs=1e-11
        )


def test_cov_limit_wigner_examples():
    spec = rademacher_spec()
    assert lm.cov_limit_wigner(monomial(2), monomial(2), spec) == pytest.approx(0.0, abs=1e-12)
    assert lm.cov_limit_wigner(monomial(4), monomial(4), spec) == pytest.approx(2.0, abs=1e-11)
    # odd phi: the correction vanishes identically
    assert lm.cov_limit_wigner(monomial(3), monomial(3), spec) == pytest.approx(
        lm.cov_limit_goe(monomial(3), monomial(3), 1.0), abs=1e-12
    )


def test_cov_symmetry_and_bilinearity():
    rng = np.random.default_rng(73)
    spec = rademacher_spec()
    for _ in range(30):
        p1 = polynomial(rng.uniform(-1, 1, size=4))
        p2 = polynomial(rng.uniform(-1, 1, size=5))
        p3 = polynomial(rng.uniform(-1, 1, size=3))
        a, b = rng.uniform(-2, 2, size=2)
        assert lm.cov_limit_wigner(p1, p2, spec) == lm.cov_limit_wigner(p2, p1, spec)
        combo = polynomial(
            np.pad(a * np.asarray(p1.coefficients), (0, 1))
            + np.pad(b * np.asarray(p2.coefficients), (0, 0))
        )
        lhs = lm.cov_limit_wigner(combo, p3, spec)
        rhs = a * lm.cov_limit_wigner(p1, p3, spec) + b * lm.cov_limit_wigner(p2, p3, spec)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_gaussian_reduction():
    # kappa4 = 0 and w2 = 2 collapse the corrections exactly
    rng = np.random.default_rng(79)
    spec = goe_spec(1.1)
    for _ in range(20):
        p1 = polynomial(rng.uniform(-1, 1, size=5))
        p2 = polynomial(rng.uniform(-1, 1, size=4))
        assert lm.cov_limit_wigner(p1, p2, spec) == pytest.approx(
            lm.cov_limit_goe(p1, p2, 1.1), abs=1e-14
        )


def test_variance_nonnegative_across_admissible_kappa4():
    rng = np.random.default_rng(83)
    for _ in range(200):
        g = float(rng.uniform(-2.0, 6.0))
        spec = three_point_spec(g)
        phi = polynomial(rng.uniform(-1, 1, size=rng.integers(1, 8)))
        pred = lm.var_limit(phi, spec)
        assert pred.v_w >= 0.0


def test_var_limit_examples():
    assert lm.var_limit(monomial(3), rademacher_spec()).v_w == pytest.approx(10.0, abs=1e-10)
    assert lm.var_limit(monomial(3), goe_spec()).v_w == pytest.approx(10.0, abs=1e-10)
    assert lm.var_limit(polynomial([4.0]), rademacher_spec()).v_w == 0.0
    assert lm.var_limit(monomial(2), rademacher_spec()).v_w == 0.0


def test_var_limit_general_diagonal_correction():
    spec = en.EnsembleSpec(
        entry_dist=en.make_entry_distribution("rademacher", 1.0),
        convention="general_diagonal",
        w2=1.0,
    )
    pred = lm.var_limit(monomial(1), spec)
    # V = 2 + (1 - 2) * m2^2 = 1 for phi = identity
    assert pred.diag_term == pytest.approx(-1.0, abs=1e-12)
    assert pred.v_w == pytest.approx(1.0, abs=1e-12)


def test_parity_structure_of_prediction():
    pred_odd = lm.var_limit(monomial(3), rademacher_spec())
    assert pred_odd.kappa4_term == 0.0
    pred_even = lm.var_limit(monomial(4), rademacher_spec())
    assert pred_even.xstar_slope == 0.0
    # numerically re-verified via quadrature on the mixed-parity route
    mixed_even = polynomial([0.3, 0.0, 1.0, 0.0, -0.2])
    assert abs(lm.first_moment_integral(mixed_even, 1.0)) <= 1e-13


@pytest.mark.parametrize("kind, params", [
    ("gaussian", None), ("rademacher", None), ("uniform", None),
    ("two_point", {"atoms": [-0.5, 2.0], "probs": [0.8, 0.2]}),
    ("discrete_custom", {"atoms": [-1.5, 0.0, 1.5], "probs": [2 / 9, 5 / 9, 2 / 9]}),
])
@pytest.mark.parametrize("convention, w2", [("paper_symmetric", 2.0), ("general_diagonal", 0.5)])
def test_opposite_parity_covariance_is_exactly_zero(kind, params, convention, w2):
    """An odd and an even phi are uncorrelated in the limit: every term is 0.0, not rounding."""
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution(kind, 1.0, params),
                           convention=convention, w2=w2)
    odd, even = monomial(3), monomial(4)
    assert lm.cov_limit_wigner(odd, even, spec) == 0.0
    assert lm.cov_limit_wigner(even, odd, spec) == 0.0
    assert lm.cov_limit_wigner(gaussian_damped([0.0, 1.0], 1.2), gaussian_damped([1.0], 0.9), spec) == 0.0


def _two_formula_oracle(phi1, phi2, spec):
    """The covariance and variance formulas as written before they shared one core.

    Returns (n Cov with no parity zeros and its own w2 != 2 shortcut, the
    variance terms (v_goe, kappa4_term, diag_term) with the parity zeros and a
    second I1 integration for the slope, xstar_slope) at (phi1, phi1).
    """
    w = spec.w
    cov = lm.cov_limit_goe(phi1, phi2, w)
    cov += (spec.entry_dist.kappa4 / w**8) * lm.kappa4_integral(phi1, w) * lm.kappa4_integral(phi2, w)
    if spec.w2 != 2.0:
        cov += ((spec.w2 - 2.0) / w**2) * lm.first_moment_integral(phi1, w) * lm.first_moment_integral(phi2, w)
    v_goe = float(lm.cov_limit_goe(phi1, phi1, w))
    kappa4_term = 0.0 if phi1.parity == "odd" else (
        (spec.entry_dist.kappa4 / w**8) * lm.kappa4_integral(phi1, w) ** 2)
    diag_term = 0.0 if spec.w2 == 2.0 or phi1.parity == "even" else (
        ((spec.w2 - 2.0) / w**2) * lm.first_moment_integral(phi1, w) ** 2)
    slope = 0.0 if phi1.parity == "even" else (
        math.sqrt(spec.w2) * lm.first_moment_integral(phi1, w) / w**2)
    return cov, (v_goe, kappa4_term, diag_term, slope)


def _oracle_battery():
    """Seeded (phi1, phi2, spec) triples over every entry kind and both diagonal conventions."""
    rng = np.random.default_rng(2011)
    specs = [
        rademacher_spec(),
        rademacher_spec(1.3),
        three_point_spec(1.5, w=0.8),
        en.EnsembleSpec(entry_dist=en.make_entry_distribution("uniform", 1.0),
                        convention="general_diagonal", w2=1.0),
        en.EnsembleSpec(entry_dist=en.make_entry_distribution("uniform", 0.7),
                        convention="general_diagonal", w2=3.0),
        en.EnsembleSpec(entry_dist=en.make_entry_distribution("two_point", 1.0,
                                                              {"atoms": [-0.5, 2.0], "probs": [0.8, 0.2]}),
                        convention="general_diagonal", w2=0.5),
    ]
    for spec in specs:
        for k in range(40):
            phis = []
            for _ in range(2):
                c = rng.uniform(-1, 1, size=rng.integers(1, 7))
                if k % 4 == 0:
                    c[1::2] = 0.0  # even
                elif k % 4 == 1:
                    c[0::2] = 0.0  # odd
                phis.append(polynomial(c) if rng.random() < 0.5
                            else gaussian_damped(c, float(rng.uniform(0.7, 1.5))))
            yield phis[0], phis[1], spec


def test_cov_limit_wigner_matches_two_formula_oracle():
    for phi1, phi2, spec in _oracle_battery():
        expected, _ = _two_formula_oracle(phi1, phi2, spec)
        got = lm.cov_limit_wigner(phi1, phi2, spec)
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


def test_var_limit_terms_equal_oracle_diagonal_bit_for_bit():
    for phi, _, spec in _oracle_battery():
        _, (v_goe, kappa4_term, diag_term, slope) = _two_formula_oracle(phi, phi, spec)
        pred = lm.var_limit(phi, spec)
        got = (pred.v_goe, pred.kappa4_term, pred.diag_term, pred.xstar_slope)
        assert [v.hex() for v in got] == [v.hex() for v in (v_goe, kappa4_term, diag_term, slope)]
        assert pred.v_w == max(v_goe + kappa4_term + diag_term, 0.0)


@pytest.mark.parametrize("w", [0.1, 0.3, 1.1, 2.9])
def test_gaussian_entries_have_no_fourth_cumulant_term(w):
    spec = goe_spec(w)
    for phi in (monomial(2), monomial(4), polynomial([0.3, 1.0, -0.5, 0.0, 0.2]),
                gaussian_damped([1.0, 0.0, 1.0], 1.2)):
        pred = lm.var_limit(phi, spec)
        assert pred.kappa4_term == 0.0
        assert pred.v_w == pred.v_goe


def test_limit_cf_gaussian_factor_never_exceeds_one():
    """phi = c x has no Gaussian part, so Z(x) is the entry CF at x* exactly, whatever the
    rounding of -x^2 V + w^2 x*^2; with the uncapped exponent |Z| exceeded 1 at c = 3000."""
    spec = rademacher_spec()
    xs = np.array([0.25, 0.5, 0.75, 1.0, 2.0])
    for c in (1.0, 2.5, 3000.0, 1e100):
        pred = lm.var_limit(polynomial([0.0, c]), spec)
        z = lm.limit_cf(pred, xs)
        assert np.array_equal(z, en.entry_cf(spec.entry_dist, pred.xstar_slope * xs))
        assert np.all(np.abs(z) <= 1.0)


def test_negative_variance_guard():
    # kappa4 below the admissible floor cannot come from a real law; feed it raw
    fake = en.EntryDistribution(
        kind="discrete_custom", w=1.0, moments=(0, 1, 0, -2, 0, 16),
        kappas=(0, 1, 0, -5, 0, 0),
    )
    spec = en.EnsembleSpec(entry_dist=fake)
    with pytest.raises(InconsistencyError):
        lm.var_limit(monomial(2), spec)


def test_tiny_negative_clips_to_zero():
    assert lm.var_limit(monomial(2), rademacher_spec()).v_w == 0.0


def test_negativity_guard_is_relative_to_the_terms():
    """Scaled Rademacher x^2 cancels to rounding of the terms' size, not of 1; the guard
    still fires on an inconsistent law at every scale."""
    fake = en.EntryDistribution(
        kind="discrete_custom", w=1.0, moments=(0, 1, 0, -2, 0, 16),
        kappas=(0, 1, 0, -5, 0, 0),
    )
    for c in (1.0, 1e8, 1e12, 1e14, 1e100):
        phi = polynomial([0.0, 0.0, c])
        assert lm.var_limit(phi, rademacher_spec()).v_w == 0.0
        with pytest.raises(InconsistencyError):
            lm.var_limit(phi, en.EnsembleSpec(entry_dist=fake))


# ---------------------------------------------------------------------------
# rescaling slope and limit characteristic function
# ---------------------------------------------------------------------------


def limit_cf(phi, spec, x):
    return lm.limit_cf(lm.var_limit(phi, spec), x)


def test_x_star_values():
    # x* = xstar_slope x
    assert lm.var_limit(monomial(4), rademacher_spec()).xstar_slope == 0.0
    assert lm.var_limit(monomial(3), rademacher_spec()).xstar_slope == pytest.approx(
        2 * math.sqrt(2), abs=1e-12
    )
    assert lm.var_limit(monomial(1), rademacher_spec()).xstar_slope == pytest.approx(
        math.sqrt(2), abs=1e-12
    )


def test_limit_cf_normalization_and_example():
    spec = rademacher_spec()
    assert limit_cf(monomial(3), spec, 0.0) == pytest.approx(1.0)
    got = limit_cf(monomial(3), spec, 0.5)
    expected = math.exp(-0.25) * math.cos(math.sqrt(2))
    assert got.real == pytest.approx(expected, abs=1e-10)
    assert got.imag == pytest.approx(0.0, abs=1e-14)
    # closed form e^{-x^2} cos(2 sqrt(2) x) across a grid
    xs = np.linspace(-1.5, 1.5, 11)
    vals = limit_cf(monomial(3), spec, xs)
    assert np.allclose(vals.real, np.exp(-xs**2) * np.cos(2 * math.sqrt(2) * xs), atol=1e-12)


def test_limit_cf_even_phi_is_gaussian():
    spec = rademacher_spec()
    pred = lm.var_limit(monomial(4), spec)
    xs = np.linspace(0, 2, 9)
    vals = lm.limit_cf(pred, xs)
    assert np.allclose(vals, np.exp(-(xs**2) * pred.v_w / 2), atol=1e-13)


def test_limit_cf_goe_is_gaussian():
    spec = goe_spec()
    pred = lm.var_limit(monomial(3), spec)
    xs = np.linspace(0, 1.5, 7)
    vals = lm.limit_cf(pred, xs)
    assert np.allclose(vals, np.exp(-(xs**2) * pred.v_w / 2), atol=1e-13)


def test_limit_cf_general_iid_variant():
    # all-entries-iid convention: slope loses the sqrt(2) and the variance
    # picks up the diagonal correction; fixed point: e^{-x^2} cos(2x)
    spec = en.EnsembleSpec(
        entry_dist=en.make_entry_distribution("rademacher", 1.0),
        convention="general_diagonal",
        w2=1.0,
    )
    pred = lm.var_limit(monomial(3), spec)
    assert pred.xstar_slope == pytest.approx(2.0, abs=1e-12)
    assert pred.v_w == pytest.approx(6.0, abs=1e-10)
    xs = np.array([0.3, 0.9])
    vals = lm.limit_cf(pred, xs)
    assert np.allclose(vals.real, np.exp(-xs**2) * np.cos(2 * xs), atol=1e-12)


def test_cf_second_derivative_consistency():
    h = 1e-3
    for phi, spec in [
        (monomial(3), rademacher_spec()),
        (monomial(4), rademacher_spec()),
        (polynomial([0.0, 1.0, 0.5]), goe_spec()),
    ]:
        pred = lm.var_limit(phi, spec)
        logs = [
            np.log(lm.limit_cf(pred, x)) for x in (-h, 0.0, h)
        ]
        second = (logs[0] - 2 * logs[1] + logs[2]) / h**2
        assert abs(-second.real - pred.v_w) <= 1e-5 * (1 + pred.v_w)


# ---------------------------------------------------------------------------
# limit cumulants
# ---------------------------------------------------------------------------


def test_limit_cumulants_even_phi_gaussian():
    spec = rademacher_spec()
    kappas = lm.limit_cumulants(lm.var_limit(monomial(4), spec), 6)
    assert kappas[0] == 0.0
    assert all(k == 0.0 for k in kappas[2:])


def test_limit_cumulants_cubic_rademacher():
    spec = rademacher_spec()
    kappas = lm.limit_cumulants(lm.var_limit(monomial(3), spec), 4)
    assert kappas[1] == pytest.approx(10.0, abs=1e-10)
    assert kappas[2] == pytest.approx(0.0, abs=1e-12)
    assert kappas[3] == pytest.approx(-128.0, rel=1e-10)
    # excess kurtosis of the limit law
    assert kappas[3] / kappas[1] ** 2 == pytest.approx(-1.28, rel=1e-10)


def test_limit_cumulants_match_cf_derivatives():
    # 4th derivative of log Z at 0 by central differences
    spec = rademacher_spec()
    phi = monomial(3)
    pred = lm.var_limit(phi, spec)
    h = 0.02
    xs = np.array([-2, -1, 0, 1, 2]) * h
    logs = np.log(lm.limit_cf(pred, xs)).real
    fourth = (logs[0] - 4 * logs[1] + 6 * logs[2] - 4 * logs[3] + logs[4]) / h**4
    kappa4 = lm.limit_cumulants(pred, 4)[3]
    assert fourth == pytest.approx(kappa4, rel=5e-3)


def test_limit_cumulants_k2_equals_v_w():
    rng = np.random.default_rng(89)
    for _ in range(10):
        phi = polynomial(rng.uniform(-1, 1, size=5))
        spec = three_point_spec(float(rng.uniform(-2, 4)))
        pred = lm.var_limit(phi, spec)
        assert lm.limit_cumulants(pred, 2) == [0.0, pred.v_w]


def test_limit_cumulants_order_cap():
    spec = rademacher_spec()
    pred = lm.var_limit(monomial(3), spec)
    for order in (0, 9):
        with pytest.raises(ContractError):
            lm.limit_cumulants(pred, order)


def test_prediction_carries_its_ensemble():
    """The limit laws read the entry law of the spec var_limit was given, and to_dict
    records that spec as ensemble_ref."""
    skewed = en.EnsembleSpec(entry_dist=en.make_entry_distribution(
        "two_point", 1.0, {"atoms": [-0.5, 2.0], "probs": [0.8, 0.2]}))
    for spec in (rademacher_spec(), rademacher_spec(w=2.0), three_point_spec(1.0), skewed):
        pred = lm.var_limit(monomial(3), spec)
        assert pred.spec is spec
        assert pred.to_dict()["ensemble_ref"] == spec.descriptor()
        xs = pred.xstar_slope * 0.5
        gaussian = math.exp((-0.25 * pred.v_w + spec.w**2 * xs**2) / 2.0)
        assert lm.limit_cf(pred, 0.5) == pytest.approx(gaussian * en.entry_cf(spec.entry_dist, xs), rel=1e-12)
        assert lm.limit_cumulants(pred, 3)[2] == spec.entry_dist.cumulant(3) * pred.xstar_slope**3


# ---------------------------------------------------------------------------
# regularized triple integral
# ---------------------------------------------------------------------------


def test_triple_singular_linear_case():
    seq = oracles.triple_singular_cross_check(monomial(1), monomial(1), 1.0, [0.1, 0.05, 0.025])
    for val in seq:
        assert abs(val - 2.0) <= 1e-3
    assert abs(oracles.richardson(seq) - 2.0) <= 1e-3


def test_triple_singular_square_case():
    eps = [0.1, 0.05, 0.025]
    seq = oracles.triple_singular_cross_check(monomial(2), monomial(2), 1.0, eps)
    target = lm.cov_limit_goe(monomial(2), monomial(2), 1.0)
    gaps = [abs(v - target) for v in seq]
    # gaps must shrink toward 0 (for polynomials they can vanish identically)
    assert gaps[-1] <= gaps[0] + 1e-12
    assert abs(oracles.richardson(seq) - target) <= 1e-3


def test_triple_singular_gaussian_damped_first_order_in_eps():
    phi = gaussian_damped([0.0, 1.0, 0.5], 1.0)
    eps = [0.1, 0.05, 0.025]
    seq = oracles.triple_singular_cross_check(phi, phi, 1.0, eps)
    target = lm.cov_limit_goe(phi, phi, 1.0)
    gaps = [abs(v - target) for v in seq]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.4)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.4)
    assert abs(oracles.richardson(seq) - target) <= 1e-5


def test_triple_singular_constant_phi_is_zero():
    seq = oracles.triple_singular_cross_check(polynomial([2.0]), monomial(2), 1.0, [0.1, 0.05])
    assert np.max(np.abs(seq)) <= 1e-14


def test_triple_singular_requires_positive_eps():
    with pytest.raises(ContractError):
        oracles.triple_singular_cross_check(monomial(1), monomial(1), 1.0, [0.1, 0.0])


def test_richardson_on_synthetic_sequence():
    # f(h) = 3 + 2h + h^2 sampled at h = 0.2, 0.1, 0.05
    hs = [0.2, 0.1, 0.05]
    vals = [3 + 2 * h + h * h for h in hs]
    assert oracles.richardson(vals) == pytest.approx(3.0, abs=1e-12)
