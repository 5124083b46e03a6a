import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from wignerlab import ensembles as en
from wignerlab import limits as lm
from wignerlab import semicircle as sc
from wignerlab import volterra as vt
from wignerlab.errors import ContractError

CATALAN = {0: 1, 2: 1, 4: 2, 6: 5, 8: 14, 10: 42}


def test_rho_sc_values():
    assert oracles.rho_sc(0.0, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert oracles.rho_sc(2.0, 1.0) == 0.0
    assert oracles.rho_sc(3.0, 1.0) == 0.0
    assert oracles.rho_sc(-1.0, 0.5) == 0.0  # outside [-1, 1]
    with pytest.raises(ContractError):
        oracles.rho_sc(0.0, -1.0)


def test_rho_sc_integrates_to_one():
    total = quad(lambda x: oracles.rho_sc(x, 1.3), -2.6, 2.6)[0]
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n_nodes", [4, 16, 64])
@pytest.mark.parametrize("w", [1.0, 0.7])
def test_quadrature_rule_invariants(n_nodes, w):
    nodes, weights = oracles.chebyshev_u_rule(w, n_nodes)
    assert np.all(weights > 0)
    assert abs(weights.sum() - 1.0) <= 1e-14
    assert np.all(np.abs(nodes) < 2 * w)


@pytest.mark.parametrize("w", [1.0, 0.7, np.float64(1.07)])
def test_gauss_chebyshev_u_is_the_oracle_default_rule(w):
    """The one shipped rule is the DEFAULT_NODES = 128 rule, bit for bit."""
    nodes, weights = sc.gauss_chebyshev_u(w)
    oracle_nodes, oracle_weights = oracles.chebyshev_u_rule(w, 128)
    assert sc.DEFAULT_NODES == 128
    assert nodes.tobytes() == oracle_nodes.tobytes()
    assert weights.tobytes() == oracle_weights.tobytes()
    with pytest.raises(ContractError):
        sc.gauss_chebyshev_u(-1.0)


def test_the_rule_and_the_u_coefficients_read_one_set_of_angles():
    """RULE_ANGLES, k pi / (N + 1) for k = 1..N, is the one definition of the rule's angles: the
    nodes are 2w cos of them, and u_coefficients takes its sine transform at them, where
    U_k(cos theta) = sin((k + 1) theta) / sin(theta), so a_0 of phi = 1 is 1 to rounding."""
    k = np.arange(1, sc.DEFAULT_NODES + 1, dtype=float)
    assert sc.RULE_ANGLES.tobytes() == (k * math.pi / (sc.DEFAULT_NODES + 1)).tobytes()
    nodes, _ = sc.gauss_chebyshev_u(1.3)
    assert nodes.tobytes() == (2.0 * 1.3 * np.cos(sc.RULE_ANGLES)).tobytes()
    assert sc.u_coefficients(sc.polynomial([1.0]), 1.3)[0] == pytest.approx(1.0, abs=1e-15)


def test_each_call_builds_its_own_rule():
    """A caller that writes into the arrays of one rule changes no later rule: var_limit and
    grid_factors keep their bits after the arrays of an earlier call are zeroed."""
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("uniform", 1.1),
                           convention="general_diagonal", w2=1.5)
    phi, grid = sc.polynomial([0.0, 1.0, 0.0, 0.0, 1.0]), vt.uniform_grid(2.0, 0.25)

    def bits():
        pred = lm.var_limit(phi, spec)
        return ([pred.v_goe, pred.kappa4_term, pred.diag_term, pred.v_w, pred.xstar_slope],
                [f.tobytes() for f in vt.grid_factors(grid, 1.1)])

    before = bits()
    for array in sc.gauss_chebyshev_u(1.1):
        array[:] = 0.0
    assert bits() == before


@pytest.mark.parametrize("n_nodes", [4, 16, 64])
def test_quadrature_exact_on_monomials(n_nodes):
    # exact for degree <= 2N - 1: Catalan numbers even, zero odd; tolerance is
    # relative to the summand scale (odd powers cancel only to roundoff)
    nodes, weights = oracles.chebyshev_u_rule(1.0, n_nodes)
    for p in range(0, 2 * n_nodes):
        got = oracles.sc_moment(p, 1.0, n_nodes)
        scale = float(np.sum(weights * np.abs(nodes) ** p))
        expected = CATALAN[p] if p in CATALAN else (0.0 if p % 2 else None)
        if expected is None:
            continue
        assert abs(got - expected) <= 1e-12 * max(1.0, scale)


def test_sc_integral_catalan_and_parity():
    for power, value in [(2, 1.0), (4, 2.0), (6, 5.0), (8, 14.0)]:
        assert oracles.sc_integral(sc.monomial(power), 1.0) == pytest.approx(value, abs=1e-12)
    odd = sc.polynomial([0.0, 3.0, 0.0, -2.0, 0.0, 1.0])
    assert abs(oracles.sc_integral(odd, 1.0)) <= 1e-15


def test_sc_integral_against_adaptive_oracle():
    phi = sc.polynomial([0.5, 0.0, 1.0])
    oracle = quad(lambda x: phi(x) * oracles.rho_sc(x, 1.0), -2.0, 2.0)[0]
    assert oracles.sc_integral(phi, 1.0) == pytest.approx(oracle, abs=1e-9)


def test_sc_integral_tabulated_coverage():
    grid = np.linspace(-1.0, 1.0, 101)
    short = sc.tabulated(grid, grid**2)
    with pytest.raises(ContractError):
        oracles.sc_integral(short, 1.0)
    full = sc.tabulated(np.linspace(-2.5, 2.5, 2001), np.linspace(-2.5, 2.5, 2001) ** 2)
    assert oracles.sc_integral(full, 1.0) == pytest.approx(1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# Stieltjes transform
# ---------------------------------------------------------------------------


def test_stieltjes_rho_closed_form():
    assert oracles.stieltjes_rho(0.0, 1.0) == 0.0
    assert oracles.stieltjes_rho(1.0, 1.0) == pytest.approx(-0.5, abs=1e-15)
    with pytest.raises(ContractError):
        oracles.stieltjes_rho(2.0, 1.0)


def test_stieltjes_pv_quadrature_cross_check():
    got = oracles.stieltjes_rho_pv_check(0.7, 1.0)
    assert got == pytest.approx(-0.35, abs=1e-6)


# ---------------------------------------------------------------------------
# v(t) and v~(z)
# ---------------------------------------------------------------------------


def test_v_of_t_basics():
    assert sc.v_of_t(0.0, 1.0) == 1.0
    assert sc.v_of_t(1.0, 1.0) == pytest.approx(oracles.v_of_t_quadrature(1.0, 1.0), abs=1e-10)
    assert sc.v_of_t(1.0, 1.0) == pytest.approx(0.576725, abs=1e-6)
    t = np.linspace(-30, 30, 601)
    vals = sc.v_of_t(t, 1.0)
    assert np.max(np.abs(vals - sc.v_of_t(-t, 1.0))) == 0.0  # even
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_v_of_t_bessel_matches_quadrature_over_range():
    t = np.linspace(0.0, 30.0, 301)
    gap = np.abs(sc.v_of_t(t, 1.0) - oracles.v_of_t_quadrature(t, 1.0))
    assert np.max(gap) <= 1e-10


def test_v_fixed_point_identity():
    # v(t) + w^2 II v v = 1, discretized residual <= 10 h^2
    h = 0.01
    grid = np.arange(0, 4.0 + h / 2, h)
    assert vt.v_equation_defect(sc.v_of_t(grid, 1.0), 1.0, float(grid[1] - grid[0]), 1.0) <= 10 * h * h


def test_v_tilde_branch_and_quadratic():
    z = 1.0 - 0.5j
    vt = oracles.v_tilde(z, 1.0)
    assert abs(vt * vt + z * vt + 1.0) <= 1e-12
    big = -1j * 1e6
    assert abs(oracles.v_tilde(big, 1.0) * big + 1.0) <= 1e-5
    with pytest.raises(ContractError):
        oracles.v_tilde(1.0 + 0.5j, 1.0)


def test_v_tilde_against_laplace_integral():
    z = -2.0j
    real = quad(lambda t: (sc.v_of_t(t, 1.0) * np.exp(-1j * t * z)).real, 0, 60, limit=400)[0]
    imag = quad(lambda t: (sc.v_of_t(t, 1.0) * np.exp(-1j * t * z)).imag, 0, 60, limit=400)[0]
    oracle = -1j * complex(real, imag)
    assert abs(oracle - oracles.v_tilde(z, 1.0)) <= 1e-6


# ---------------------------------------------------------------------------
# self-convolutions
# ---------------------------------------------------------------------------


def test_sc_convolutions_at_zero():
    vv, vvv = sc.sc_convolutions(0.0, 1.0)
    assert vv == 0.0
    assert abs(vvv) <= 1e-15


@pytest.mark.parametrize("w", [1e-5, 0.8, 1.0, 1.25])
def test_vvv_matches_mpmath_across_small_and_large_wt(w):
    """vvv against its defining integral at 50 digits, over both sides of the series switch."""
    mp.mp.dps = 50

    def reference(t):
        # lambda = 2w cos(theta): rho dlambda = (2/pi) sin^2(theta) dtheta
        t, ww = mp.mpf(t), mp.mpf(w)
        f = lambda th: mp.cos(2 * ww * mp.cos(th) * t) * (ww**2 - 4 * ww**2 * mp.cos(th)**2) * mp.sin(th)**2
        return float(mp.quad(f, [0, mp.pi / 2, mp.pi]) * 2 / mp.pi / ww**4)

    wt = np.concatenate([np.geomspace(1e-8, 3.0, 17), [0.999999, 1.0]])
    _, got = sc.sc_convolutions(wt / w, w)
    for x, value in zip(wt, got):
        want = reference(x / w)
        assert abs(value - want) <= 1e-14 * abs(want), (w, x)


def test_vv_matches_time_domain_convolution():
    h = 1e-3
    t = np.arange(0, 1.0 + h / 2, h)
    vals = sc.v_of_t(t, 1.0)
    direct = h * (np.convolve(vals, vals)[: t.size]) - 0.5 * h * (vals[0] * vals + vals[0] * vals)
    closed, _ = sc.sc_convolutions(t, 1.0)
    assert abs(closed[-1] - direct[-1]) <= 1e-4


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def test_parity_detection():
    assert sc.polynomial([1.0, 0.0, 2.0]).parity == "even"
    assert sc.polynomial([0.0, 1.0, 0.0, -3.0]).parity == "odd"
    assert sc.polynomial([1.0, 1.0]).parity == "none"
    assert sc.gaussian_damped([0.0, 1.0], 2.0).parity == "odd"
    grid = np.linspace(-2, 2, 41)
    assert sc.tabulated(grid, grid**2).parity == "even"
    assert sc.tabulated(grid, grid**3).parity == "odd"
    assert sc.tabulated(grid, np.exp(grid)).parity == "none"


def test_parity_is_derived_from_the_function_data():
    """A directly built TestFunction reports the parity of its own data, and no stored
    label can be passed in to disagree with it."""
    assert sc.TestFunction(kind="polynomial", coefficients=(0.0, 1.0, 0.0, 1.0)).parity == "odd"
    assert sc.TestFunction(kind="gaussian_damped_polynomial", coefficients=(1.0, 0.0, 2.0),
                           envelope_width=1.0).parity == "even"
    grid = np.linspace(-2, 2, 41)
    assert sc.TestFunction(kind="tabulated", grid=grid, values=grid**3).parity == "odd"
    with pytest.raises(TypeError):
        sc.TestFunction(kind="polynomial", coefficients=(0.0, 1.0, 1.0), parity="odd")


def test_polynomial_derivative():
    phi = sc.polynomial([1.0, 2.0, 3.0])
    d = oracles.derivative(phi)
    x = np.linspace(-2, 2, 11)
    assert np.allclose(d(x), 2.0 + 6.0 * x)


def test_gaussian_damped_derivative_matches_finite_difference():
    phi = sc.gaussian_damped([0.5, 1.0, -0.3], 1.2)
    d = oracles.derivative(phi)
    x = np.linspace(-3, 3, 25)
    h = 1e-6
    fd = (phi(x + h) - phi(x - h)) / (2 * h)
    assert np.max(np.abs(d(x) - fd)) <= 1e-7


def test_fourier_transform_inverts():
    phi = sc.gaussian_damped([0.3, 1.0, 0.2, -0.1], 1.0)
    phi_hat = oracles.fourier_transform(phi)
    t = np.linspace(-12, 12, 4001)
    ft = phi_hat(t)
    for lam in (-1.3, 0.0, 0.7, 2.1):
        recon = np.trapezoid(ft * np.exp(1j * lam * t), t)
        assert abs(recon - phi(lam)) <= 1e-8


def test_fourier_transform_requires_gaussian_damped():
    with pytest.raises(ContractError):
        oracles.fourier_transform(sc.monomial(2))


def test_test_function_descriptor_roundtrip_fields():
    phi = sc.gaussian_damped([0.0, 1.0], 1.5)
    d = phi.descriptor()
    assert d["kind"] == "gaussian_damped_polynomial"
    assert d["envelope_width"] == 1.5
    assert d["parity"] == "odd"


def test_coefficients_must_be_finite():
    for bad in (math.nan, math.inf, -math.inf):
        for make in (sc.polynomial, sc.gaussian_damped):
            with pytest.raises(ContractError):
                make([0.0, bad])


def test_coefficients_must_be_real():
    """A complex coefficient is a ContractError naming the cause, not a TypeError from float()."""
    for coefficients in ([0.3, 1j], [0.3, np.complex128(0.5)], np.array([0.3, 2j])):
        for make in (sc.polynomial, sc.gaussian_damped):
            with pytest.raises(ContractError, match="coefficients must be real"):
                make(coefficients)


def test_tabulated_validation():
    with pytest.raises(ContractError):
        sc.tabulated([0.0, 1.0], [1.0])
    with pytest.raises(ContractError):
        sc.tabulated([1.0, 0.0], [1.0, 2.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractError):
            sc.tabulated([0.0, 1.0], [1.0, bad])
        with pytest.raises(ContractError):
            sc.tabulated([-bad, 0.0, 1.0], [1.0, 0.0, 1.0])
