import math

import numpy as np
import pytest

import oracles
from wignerlab import ensembles as en
from wignerlab import limits as lm
from wignerlab import semicircle as sc
from wignerlab.errors import ContractError
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


def first_moment_integral(phi, w):
    """I1(phi) = <phi x>, one quadrature of its own."""
    return oracles.sc_integral(lambda lam: phi(lam) * lam, w)


def kappa4_integral(phi, w):
    """I2(phi) = <phi (w^2 - x^2)>, one quadrature of its own."""
    return oracles.sc_integral(lambda lam: phi(lam) * (w * w - lam * lam), w)


def goe_term(phi1, phi2, w):
    """2 (<phi1 phi2> - <phi1><phi2>), three quadratures of their own."""
    cross = oracles.sc_integral(lambda lam: phi1(lam) * phi2(lam), w)
    return 2.0 * (cross - oracles.sc_integral(phi1, w) * oracles.sc_integral(phi2, w))


class CountingPhi:
    """A test function that counts its calls and reads everything else from phi."""

    def __init__(self, phi):
        self.phi = phi
        self.calls = 0

    def __call__(self, lam):
        self.calls += 1
        return self.phi(lam)

    def __getattr__(self, name):
        return getattr(self.phi, name)


# ---------------------------------------------------------------------------
# covariance closed forms
# ---------------------------------------------------------------------------


def test_cov_limit_goe_examples():
    spec = goe_spec()
    assert lm.cov_limit_wigner(monomial(1), monomial(1), spec) == pytest.approx(2.0, abs=1e-12)
    assert lm.cov_limit_wigner(monomial(2), monomial(2), spec) == pytest.approx(2.0, abs=1e-12)
    assert lm.cov_limit_wigner(monomial(1), monomial(2), spec) == pytest.approx(0.0, abs=1e-13)


def test_cov_limit_goe_matches_tensor_oracle():
    rng = np.random.default_rng(71)
    for _ in range(25):
        deg1, deg2 = rng.integers(0, 7, size=2)
        p1 = polynomial(rng.uniform(-1, 1, size=deg1 + 1))
        p2 = polynomial(rng.uniform(-1, 1, size=deg2 + 1))
        w = float(rng.uniform(0.5, 1.5))
        assert lm.cov_limit_wigner(p1, p2, goe_spec(w)) == pytest.approx(
            oracles.cov_limit_goe_oracle(p1, p2, w), rel=1e-11, abs=1e-11
        )


def test_limit_laws_read_each_phi_once():
    """With every term nonzero (uniform entries, w2 = 1.5, phi and phi2 of no parity),
    var_limit evaluates phi once and cov_limit_wigner each phi once, to the same bits."""
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("uniform", 1.1),
                           convention="general_diagonal", w2=1.5)
    phi, phi2 = polynomial([0.0, 1.0, 0.0, 0.0, 1.0]), gaussian_damped([0.0, 0.0, 1.0, 1.0], 1.3)
    counted = CountingPhi(phi)
    pred = lm.var_limit(counted, spec)
    assert counted.calls == 1
    assert 0.0 not in (pred.v_goe, pred.kappa4_term, pred.diag_term, pred.xstar_slope)
    assert pred.to_dict() == lm.var_limit(phi, spec).to_dict()
    counted, counted2 = CountingPhi(phi), CountingPhi(phi2)
    cov = lm.cov_limit_wigner(counted, counted2, spec)
    assert (counted.calls, counted2.calls) == (1, 1)
    assert cov.hex() == lm.cov_limit_wigner(phi, phi2, spec).hex()


def test_cov_limit_wigner_examples():
    spec = rademacher_spec()
    assert lm.cov_limit_wigner(monomial(2), monomial(2), spec) == pytest.approx(0.0, abs=1e-12)
    assert lm.cov_limit_wigner(monomial(4), monomial(4), spec) == pytest.approx(2.0, abs=1e-11)
    # odd phi: the correction vanishes identically
    assert lm.cov_limit_wigner(monomial(3), monomial(3), spec) == pytest.approx(
        goe_term(monomial(3), monomial(3), 1.0), abs=1e-12
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
            goe_term(p1, p2, 1.1), abs=1e-14
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
    assert abs(first_moment_integral(mixed_even, 1.0)) <= 1e-13


def test_directly_built_phi_gets_the_parity_terms_of_its_data():
    """A TestFunction built without polynomial() gets the exact parity zeros of its own
    coefficients, and x + x^2, neither odd nor even, keeps its kappa4 term: on
    Rademacher w = 1 its variance is 2 (GOE 4, kappa4 -2)."""
    def direct(*coefficients):
        return sc.TestFunction(kind="polynomial", coefficients=coefficients)

    spec = rademacher_spec()
    assert lm.var_limit(direct(0.0, 1.0, 0.0, 1.0), spec).kappa4_term == 0.0
    assert lm.var_limit(direct(1.0, 0.0, 1.0), spec).xstar_slope == 0.0
    assert lm.var_limit(direct(0.0, 1.0, 1.0), spec).v_w == pytest.approx(2.0, abs=1e-12)
    assert lm.var_limit(polynomial([0.0, 1.0, 1.0]), spec).v_w == pytest.approx(2.0, abs=1e-12)


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
    """The covariance and variance formulas as written before they shared one core, with
    one quadrature per integral.

    Returns (n Cov with no parity zeros and its own w2 != 2 shortcut, the
    variance terms (v_goe, kappa4_term, diag_term) with the parity zeros and a
    second I1 integration for the slope, xstar_slope) at (phi1, phi1).
    """
    w = spec.w
    cov = goe_term(phi1, phi2, w)
    cov += (spec.entry_dist.kappa4 / w**8) * kappa4_integral(phi1, w) * kappa4_integral(phi2, w)
    if spec.w2 != 2.0:
        cov += ((spec.w2 - 2.0) / w**2) * first_moment_integral(phi1, w) * first_moment_integral(phi2, w)
    v_goe = float(goe_term(phi1, phi1, w))
    kappa4_term = 0.0 if phi1.parity == "odd" else (
        (spec.entry_dist.kappa4 / w**8) * kappa4_integral(phi1, w) ** 2)
    diag_term = 0.0 if spec.w2 == 2.0 or phi1.parity == "even" else (
        ((spec.w2 - 2.0) / w**2) * first_moment_integral(phi1, w) ** 2)
    slope = 0.0 if phi1.parity == "even" else (
        math.sqrt(spec.w2) * first_moment_integral(phi1, w) / w**2)
    return cov, (v_goe, kappa4_term, diag_term, slope)


def _oracle_battery():
    """Seeded (phi1, phi2, spec) triples over every entry kind, the goe and both diagonal
    conventions, and every kind of test function (a tabulated phi on a grid that is exactly
    mirrored about 0)."""
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
        goe_spec(1.2),
        en.EnsembleSpec(entry_dist=en.make_entry_distribution("gaussian", 0.9),
                        convention="general_diagonal", w2=0.5),
    ]
    grid = np.linspace(-3.0, 3.0, 13)
    for spec in specs:
        for k in range(40):
            phis = []
            for _ in range(2):
                c = rng.uniform(-1, 1, size=rng.integers(1, 7))
                values = rng.uniform(-1, 1, size=grid.size)
                if k % 4 == 0:
                    c[1::2] = 0.0  # even
                    values = (values + values[::-1]) / 2
                elif k % 4 == 1:
                    c[0::2] = 0.0  # odd
                    values = (values - values[::-1]) / 2
                kind = rng.integers(3)
                phis.append(polynomial(c) if kind == 0 else sc.tabulated(grid, values) if kind == 1
                            else gaussian_damped(c, float(rng.uniform(0.7, 1.5))))
            yield phis[0], phis[1], spec


def test_cov_limit_wigner_matches_two_formula_oracle():
    for phi1, phi2, spec in _oracle_battery():
        expected, _ = _two_formula_oracle(phi1, phi2, spec)
        got = lm.cov_limit_wigner(phi1, phi2, spec)
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


def test_var_limit_terms_match_oracle_diagonal():
    """The variance terms and the slope hold the oracle's to 1e-13 of the terms' size (the
    coefficient form sums in another order), and an oracle term of exactly 0.0 stays +0.0."""
    for phi, _, spec in _oracle_battery():
        _, expected = _two_formula_oracle(phi, phi, spec)
        pred = lm.var_limit(phi, spec)
        got = (pred.v_goe, pred.kappa4_term, pred.diag_term, pred.xstar_slope)
        size = max(1.0, sum(abs(v) for v in expected[:3]))
        for value, oracle in zip(got, expected):
            assert abs(value - oracle) <= 1e-13 * size
            if oracle == 0.0:
                assert value == 0.0 and math.copysign(1.0, value) == 1.0
        total = pred.v_goe + pred.kappa4_term + pred.diag_term
        clipped = abs(total) <= 1e-12 * sum(abs(v) for v in got[:3])  # var_limit's cancellation band
        assert pred.v_w == (0.0 if clipped else max(total, 0.0))


@pytest.mark.parametrize("w", [0.6, 1.0, 1.7])
def test_u_coefficients_are_the_semicircle_integrals(w):
    """<phi> = a_0, I1 = <phi x> = w a_1 and I2 = <phi (w^2 - x^2)> = -w^2 a_2, against a
    1024-node rule for smooth phi and the package's rule, summed directly, for a tabulated one."""
    fine = oracles.chebyshev_u_rule(w, 1024)
    cases = [(phi, fine) for phi in (polynomial([0.3, -1.0, 0.5, 0.2, -0.1]), monomial(3),
                                     gaussian_damped([0.2, 1.0, -0.4, 0.3], 0.9 * w),
                                     gaussian_damped([1.0, 0.0, 2.0], 1.1 * w))]
    grid = np.linspace(-4.0, 4.0, 9) * w
    cases.append((sc.tabulated(grid, [0.9, -0.3, 0.4, 0.0, 0.6, 0.1, -0.8, 0.2, 0.5]),
                  sc.gauss_chebyshev_u(w)))
    for phi, (nodes, weights) in cases:
        a = sc.u_coefficients(phi, w)
        values = phi(nodes)
        scale = float(np.sum(weights * np.abs(values))) * max(1.0, w * w)
        for got, integrand in ((a[0], values), (w * a[1], values * nodes),
                               (-w * w * a[2], values * (w * w - nodes**2))):
            assert abs(got - float(np.sum(weights * integrand))) <= 1e-13 * scale


def _exact_transform(phi, w, digits=30):
    """phi's a_k from the package's own float node values, summed at `digits` digits with the
    rule's exact weights and angles: a_k = sum_i (2/(N+1)) sin(theta_i) sin((k+1) theta_i) phi(x_i),
    theta_i = i pi / (N+1).  The a_k that phi's data make zero are 0.0, as in the package."""
    import mpmath

    n = sc.DEFAULT_NODES
    with mpmath.workdps(digits):
        sines = [mpmath.sin(m * mpmath.pi / (n + 1)) for m in range(2 * (n + 1))]  # sin(m pi/(N+1)), m mod 2(N+1)
        nodes, _ = sc.gauss_chebyshev_u(w)
        weighted = [2 * sines[i] * mpmath.mpf(float(v)) / (n + 1)
                    for i, v in zip(range(1, n + 1), phi(nodes))]
        ref = np.array([float(mpmath.fsum(f * sines[(k * i) % (2 * (n + 1))]
                                          for i, f in zip(range(1, n + 1), weighted)))
                        for k in range(1, n + 1)])
    if phi.parity != "none":
        ref[phi.parity == "even"::2] = 0.0
    if phi.kind == sc.POLYNOMIAL:
        ref[phi.degree + 1:] = 0.0
    return ref


def _transform_battery():
    """Every kind of test function, none of them with parity, and a polynomial plus a large constant."""
    grid = np.linspace(-4.0, 4.0, 9)
    base = [0.3, -1.0, 0.5, 0.2, -0.1]
    phis = [polynomial(base), gaussian_damped([0.2, 1.0, -0.4, 0.3], 0.9),
            gaussian_damped([1.0, 0.5, 2.0], 1.7),
            sc.tabulated(grid, [0.9, -0.3, 0.4, 0.0, 0.6, 0.1, -0.8, 0.2, 0.5])]
    phis += [polynomial([base[0] + c, *base[1:]]) for c in (1e4, 1e6, 1e8)]
    return phis


@pytest.mark.parametrize("w", [0.6, 1.0, 1.7])
def test_u_coefficients_match_an_exact_transform_of_the_node_values(w):
    """The sine transform rounds to 1e-15 of max |a_k| (the table-times-values product reached
    8.7e-15), and a large constant rounds into a_0 alone: the other a_k keep 1e-15 of their own
    size.  Parity and degree zeros are exactly +0.0."""
    for phi in _transform_battery():
        a, ref = sc.u_coefficients(phi, w), _exact_transform(phi, w)
        assert np.max(np.abs(a - ref)) <= 1e-15 * np.max(np.abs(ref)), phi.descriptor()
        assert np.max(np.abs(a[1:] - ref[1:])) <= 1e-15 * np.max(np.abs(ref[1:])), phi.descriptor()
        zeros = a[ref == 0.0]
        assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))


def _gemv_coefficients(phi, w):
    """The a_k as the table-times-values product that preceded the sine transform: the N x N
    table sin((k+1) theta_i) / sin(theta_i) times weights_i phi(x_i), with the same zeros."""
    k = np.arange(1, sc.DEFAULT_NODES + 1, dtype=float)
    x, weights = sc.gauss_chebyshev_u(w)
    a = (np.sin(np.outer(k, sc.RULE_ANGLES)) / np.sin(sc.RULE_ANGLES)) @ (weights * phi(x))
    if phi.parity != "none":
        a[phi.parity == "even"::2] = 0.0
    if phi.kind == sc.POLYNOMIAL:
        a[phi.degree + 1:] = 0.0
    return a


def _gemv_battery():
    """Seeded (phi1, phi2, spec) over every entry kind under each convention it admits (goe takes
    Gaussian entries only), and 24 phis of every kind and parity with no large constant."""
    rng = np.random.default_rng(35)
    params = {"two_point": {"atoms": [-0.5, 2.0], "probs": [0.8, 0.2]},
              "discrete_custom": {"atoms": [-1.5, 0.0, 1.5], "probs": [2 / 9, 5 / 9, 2 / 9]}}
    grid = np.linspace(-4.0, 4.0, 17)
    for kind in en.KINDS:
        for convention, w2 in (("paper_symmetric", 2.0), ("goe", 2.0), ("general_diagonal", 0.7)):
            if convention == "goe" and kind != "gaussian":
                continue
            w = float(rng.uniform(0.5, 1.8))
            law = params.get(kind)
            if law is not None:  # atoms for w = 1, scaled to w
                law = {"atoms": [w * atom for atom in law["atoms"]], "probs": law["probs"]}
            dist = en.make_entry_distribution(kind, w, law)
            spec = en.EnsembleSpec(entry_dist=dist, convention=convention, w2=w2)
            phis = []
            for k in range(24):
                c = rng.uniform(-1, 1, size=rng.integers(1, 8))
                values = rng.uniform(-1, 1, size=grid.size)
                if k % 3 == 0:
                    c[1::2], values = 0.0, (values + values[::-1]) / 2
                elif k % 3 == 1:
                    c[0::2], values = 0.0, (values - values[::-1]) / 2
                phi_kind = rng.integers(3)
                phis.append(polynomial(c) if phi_kind == 0 else sc.tabulated(grid * w, values) if phi_kind == 1
                            else gaussian_damped(c, float(rng.uniform(0.7, 1.5)) * w))
            yield spec, phis


def test_limit_terms_match_the_table_product():
    """Every term of var_limit and cov_limit_wigner moves by at most 1e-14 of max(1, |term|) from
    the coefficients of the table-times-values product."""
    for spec, phis in _gemv_battery():
        w, kappa = spec.w, spec.entry_dist.kappa4 / spec.w**4
        for phi1, phi2 in zip(phis, phis[1:] + phis[:1]):
            a, b = _gemv_coefficients(phi1, w), _gemv_coefficients(phi2, w)
            expected = [2.0 * float(a[1:] @ a[1:]), kappa * a[2] ** 2, (spec.w2 - 2.0) * a[1] ** 2,
                        math.sqrt(spec.w2) * a[1] / w,
                        2.0 * float(a[1:] @ b[1:]) + kappa * a[2] * b[2] + (spec.w2 - 2.0) * a[1] * b[1]]
            pred = lm.var_limit(phi1, spec)
            got = [pred.v_goe, pred.kappa4_term, pred.diag_term, pred.xstar_slope,
                   lm.cov_limit_wigner(phi1, phi2, spec)]
            for value, reference in zip(got, expected):
                assert abs(value - reference) <= 1e-14 * max(1.0, abs(reference))


def test_zero_terms_are_positive_zero():
    """A term whose product is zero is +0.0 whatever its factors' signs, so JSON writes 0.0:
    kappa4 < 0 times an odd phi's a_2 on Rademacher, w2 - 2 < 0 times an even phi's a_1, and
    w2 - 2 = 0 times a_1 b_1 < 0 in a covariance at w2 = 2."""
    diagonal = en.EnsembleSpec(entry_dist=en.make_entry_distribution("rademacher", 1.0),
                               convention="general_diagonal", w2=0.5)
    odd = lm.var_limit(polynomial([0.0, -1.0, 0.0, 1.0]), rademacher_spec())
    even = lm.var_limit(polynomial([0.5, 0.0, -1.0]), diagonal)
    phi1, phi2 = polynomial([0.0, 1.0, 1.0]), polynomial([0.0, -1.0, 1.0])
    assert sc.u_coefficients(phi1, 1.0)[1] * sc.u_coefficients(phi2, 1.0)[1] < 0.0
    cross_diag = lm._cov_terms(phi1, phi2, rademacher_spec())[0][2]
    zeros = [odd.kappa4_term, odd.diag_term, even.diag_term, even.xstar_slope, cross_diag]
    zeros += [lm.cov_limit_wigner(monomial(3), even_phi, spec) for even_phi in (monomial(4), polynomial([-1.0]))
              for spec in (rademacher_spec(), three_point_spec(-1.0), diagonal)]
    others = [odd.v_goe, odd.v_w, odd.xstar_slope, even.v_goe, even.kappa4_term, even.v_w]
    assert zeros == [0.0] * len(zeros)
    assert all(math.copysign(1.0, t) == 1.0 for t in zeros + [t for t in others if t == 0.0])


@pytest.mark.parametrize("c", [10.0, 1e4, 1e8])
def test_a_large_constant_leaves_the_variance(c):
    """phi = c + x on Rademacher w = 1 has v_w = 2 at every c.  The GOE term is 2 a_1^2, so no
    <phi^2> - <phi>^2 cancels (at c = 1e8 that difference read 0.0)."""
    assert lm.var_limit(polynomial([c, 1.0]), rademacher_spec()).v_w == pytest.approx(2.0, rel=1e-6)


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
    with pytest.raises(ContractError):
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
        with pytest.raises(ContractError):
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
    target = lm.cov_limit_wigner(monomial(2), monomial(2), goe_spec())
    gaps = [abs(v - target) for v in seq]
    # gaps must shrink toward 0 (for polynomials they can vanish identically)
    assert gaps[-1] <= gaps[0] + 1e-12
    assert abs(oracles.richardson(seq) - target) <= 1e-3


def test_triple_singular_gaussian_damped_first_order_in_eps():
    phi = gaussian_damped([0.0, 1.0, 0.5], 1.0)
    eps = [0.1, 0.05, 0.025]
    seq = oracles.triple_singular_cross_check(phi, phi, 1.0, eps)
    target = lm.cov_limit_wigner(phi, phi, goe_spec())
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
