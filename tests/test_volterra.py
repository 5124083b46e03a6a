import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad

import oracles
from wignerlab import limits as lm
from wignerlab import volterra as vt
from wignerlab.errors import ContractError
from wignerlab.semicircle import gauss_chebyshev_u, gaussian_damped, rho_sc, sc_convolutions, v_of_t


def ones_series(t_max, h):
    g = vt.uniform_grid(t_max, h)
    return vt.ComplexSeries(grid=g, values=np.ones_like(g, dtype=complex))


def v_series(t_max, h, w=1.0, scale=1.0):
    g = vt.uniform_grid(t_max, h)
    return vt.ComplexSeries(grid=g, values=(scale * v_of_t(g, w)).astype(complex))


# ---------------------------------------------------------------------------
# series and convolution
# ---------------------------------------------------------------------------


def test_uniform_grid_steps_divide_t_max():
    g = vt.uniform_grid(2.0, 0.01)
    assert g.size == 201 and g[-1] == 2.0
    for t_max, h in ((2.0, 0.03), (float("nan"), 0.01), (float("inf"), 0.01), (2.0, float("nan")),
                     (0.005, 0.01), (-1.0, 0.01)):
        with pytest.raises(ContractError):
            vt.uniform_grid(t_max, h)


def test_series_validation():
    with pytest.raises(ContractError):
        vt.ComplexSeries(grid=np.array([0.0, 0.1, 0.3]), values=np.zeros(3, complex))
    uneven = vt.uniform_grid(20.0, 0.001)
    uneven[7] += 1e-9
    with pytest.raises(ContractError):
        vt.ComplexSeries(grid=uneven, values=np.zeros(uneven.size, complex))
    with pytest.raises(ContractError):
        vt.ComplexSeries(grid=np.array([0.0]), values=np.zeros(1, complex))
    with pytest.raises(ContractError):
        vt.ComplexSeries(grid=np.array([0.0, 0.1]), values=np.array([np.nan, 0.0], complex))


@pytest.mark.parametrize("t_max", [20.0, 200.0])
def test_series_accepts_fine_uniform_grids(t_max):
    # linspace rounds each step by about eps * t_max, more than a fixed 1e-15 here
    g = vt.uniform_grid(t_max, 0.001)
    assert vt.ComplexSeries(grid=g, values=np.zeros(g.size, complex)).h == pytest.approx(0.001)


def test_convolve_unit_functions_exact():
    one = ones_series(2.0, 0.01)
    conv = oracles.convolve(one, one)
    assert np.max(np.abs(conv.values - conv.grid)) <= 1e-14


def test_convolve_grid_mismatch():
    with pytest.raises(ContractError):
        oracles.convolve(ones_series(2.0, 0.01), ones_series(2.0, 0.02))


def test_quadruple_unit_convolution():
    # (1*1*1*1)(t) = t^3/6; trapezoid error is exactly -t h^2/12 here,
    # i.e. 8.3e-8 at t = 1, h = 1e-3, and falls fourfold when h halves
    errs = {}
    for h in (1e-3, 5e-4):
        one = ones_series(1.0, h)
        quad4 = oracles.convolve(oracles.convolve(oracles.convolve(one, one), one), one)
        errs[h] = abs(quad4.values[-1] - 1.0 / 6.0)
    assert errs[1e-3] <= 1e-7
    assert errs[1e-3] / errs[5e-4] == pytest.approx(4.0, abs=0.2)


def edd_weighted_loop(t_values, w):
    """The per-time form _edd_weighted replaced: one divided-difference matrix per t."""
    rule = gauss_chebyshev_u(w)
    lam = rule.nodes
    den = lam[:, None] - lam[None, :]
    on_diag = den == 0.0
    out = np.empty((len(t_values), lam.size), dtype=complex)
    for idx, t in enumerate(t_values):
        e = np.exp(1j * t * lam)
        dd = (e[:, None] - e[None, :]) / np.where(on_diag, 1.0, den)
        out[idx] = rule.weights @ np.where(on_diag, 1j * t * e[:, None], dd)
    return out


@pytest.mark.parametrize("w", [0.8, 1.0, 1.25])
def test_edd_weighted_gemm_matches_loop(w):
    t = np.concatenate([vt.uniform_grid(2.0, 0.00125), [-3.5, 8.0]])
    got = vt._edd_weighted(t, w)
    want = edd_weighted_loop(t, w)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_v_convolved_with_itself_matches_closed_form():
    h = 1e-3
    vs = v_series(4.0, h)
    grid_conv = oracles.convolve(vs, vs).values
    closed = sc_convolutions(vs.grid, 1.0)["vv"]
    assert np.max(np.abs(grid_conv - closed)) <= 10 * h * h


# The direct trapezoid forms the FFT convolution replaced, kept as oracles:
# the 1-D np.convolve sum and the dense Toeplitz convolution and cumulative
# integral matrices.


def convolve_oracle(f, g, h):
    n = f.size
    out = np.convolve(f, g)[:n] * h
    out -= 0.5 * h * (f[0] * g + g[0] * f)
    return out


def conv_matrix_oracle(q, h):
    """L with (L x)_m = trapezoid Integral_0^{t_m} q(t_m - s) x(s) ds."""
    n = q.size
    idx = np.arange(n)
    lower = idx[:, None] - idx[None, :]
    l_mat = np.where(lower >= 0, q[np.abs(lower)], 0.0) * h
    l_mat[:, 0] *= 0.5
    l_mat[idx, idx] *= 0.5
    l_mat[0, :] = 0.0
    return l_mat


def cumtrapz_matrix_oracle(n, h):
    t_mat = np.tril(np.full((n, n), h))
    t_mat[:, 0] = 0.5 * h
    idx = np.arange(n)
    t_mat[idx, idx] = 0.5 * h
    t_mat[0, :] = 0.0
    return t_mat


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 201, 1601])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_trapezoid_forms_match_direct_oracles(n, kind):
    rng = np.random.default_rng([n, kind == "complex"])

    def draw(*shape):
        x = rng.uniform(-1.0, 1.0, shape)
        return x + 1j * rng.uniform(-1.0, 1.0, shape) if kind == "complex" else x

    h = 2.0 / (n - 1)
    q, p, kernel = draw(n), draw(n), draw(n, 7)
    assert_close(vt._conv_values(q, p, h), convolve_oracle(q, p, h))
    assert_close(vt._conv_values(q, kernel, h), conv_matrix_oracle(q, h) @ kernel)
    cum = cumtrapz_matrix_oracle(n, h)
    assert_close(vt._cumtrapz(p, h), cum @ p)
    assert_close(vt._cumtrapz(kernel, h), cum @ kernel)
    series = vt.ComplexSeries(grid=vt.uniform_grid(2.0, h), values=q.astype(complex))
    applied = vt.volterra_apply(series, kernel)
    assert_close(applied, kernel + cum @ (conv_matrix_oracle(q, h) @ kernel))
    by_column = np.column_stack([vt.volterra_apply(series, kernel[:, c]) for c in range(7)])
    assert_close(applied, by_column)


# ---------------------------------------------------------------------------
# the integral-equation solver
# ---------------------------------------------------------------------------


def test_solve_zero_kernel_returns_source():
    g = vt.uniform_grid(2.0, 0.01)
    q = vt.ComplexSeries(grid=g, values=np.zeros_like(g, complex))
    r = vt.ComplexSeries(grid=g, values=(np.sin(g) ** 2).astype(complex))
    solved = vt.volterra_solve(q, r)
    assert np.max(np.abs(solved.values - r.values)) <= 1e-14


def test_solve_rejects_nonzero_initial_source():
    g = vt.uniform_grid(1.0, 0.01)
    q = vt.ComplexSeries(grid=g, values=np.zeros_like(g, complex))
    r = vt.ComplexSeries(grid=g, values=np.ones_like(g, complex))
    with pytest.raises(ContractError):
        vt.volterra_solve(q, r)


def test_solve_recovers_v_from_its_own_equation():
    # v solves P + II w^2 v P = 1; shift by the constant so the source
    # vanishes at zero: P~ = v - 1 has source -w^2 II v
    h = 0.01
    g = vt.uniform_grid(4.0, h)
    v_vals = v_of_t(g, 1.0).astype(complex)
    kernel = vt.ComplexSeries(grid=g, values=v_vals)
    inner = vt._cumtrapz(v_vals, h)
    source = vt.ComplexSeries(grid=g, values=-vt._cumtrapz(inner, h))
    solved = vt.volterra_solve(kernel, source)
    assert np.max(np.abs((solved.values + 1.0) - v_vals)) <= 10 * h * h


def test_manufactured_solution_second_order():
    errs = {h: vt.manufactured_solve_error(vt.uniform_grid(2.0, h)) for h in (0.02, 0.01)}
    assert errs[0.01] <= 5 * 0.01**2
    assert errs[0.02] / errs[0.01] == pytest.approx(4.0, abs=0.5)


def test_solve_roundtrip_is_discrete_identity():
    """volterra_solve applied to its own discrete forward map volterra_apply."""
    g = vt.uniform_grid(3.0, 0.01)
    p_star = np.sin(g) * np.exp(-0.3 * g) + 0.0j
    q = vt.ComplexSeries(grid=g, values=v_of_t(g, 1.0).astype(complex))
    solved = vt.volterra_solve(q, vt.ComplexSeries(grid=g, values=vt.volterra_apply(q, p_star)))
    assert np.max(np.abs(solved.values - p_star)) <= 5 * 0.01**2  # in practice machine precision


def test_solution_formula_is_resolvent_convolution():
    # P = conv(v, R') when the kernel is w^2 v and T = -v
    h = 0.005
    g = vt.uniform_grid(3.0, h)
    q = vt.ComplexSeries(grid=g, values=v_of_t(g, 1.0).astype(complex))
    r = vt.ComplexSeries(grid=g, values=np.sin(g).astype(complex))
    solved = vt.volterra_solve(q, r)
    r_prime = vt.ComplexSeries(grid=g, values=np.cos(g).astype(complex))
    via_resolvent = oracles.convolve(vt.ComplexSeries(grid=g, values=q.values), r_prime)
    assert np.max(np.abs(solved.values - via_resolvent.values)) <= 10 * h * h


# ---------------------------------------------------------------------------
# resolvent kernel
# ---------------------------------------------------------------------------


def test_resolvent_T_is_minus_v():
    g = vt.uniform_grid(2.0, 0.1)
    t_series = oracles.resolvent_T(1.0, g)
    assert t_series.values[0] == pytest.approx(-1.0)
    assert np.allclose(t_series.values, -v_of_t(g, 1.0))


def test_resolvent_identity_pointwise():
    assert oracles.resolvent_identity_defect(1.0 - 1.0j, 1.0) <= 1e-12


def test_resolvent_identity_random_lower_half_plane():
    rng = np.random.default_rng(97)
    zs = rng.uniform(-4, 4, 100) - 1j * rng.uniform(0.01, 5.0, 100)
    assert float(np.max(oracles.resolvent_identity_defect(zs, 1.3))) <= 1e-12


# ---------------------------------------------------------------------------
# the two-time kernels
# ---------------------------------------------------------------------------


def test_phi_kernel_zero_lines():
    assert vt.phi_kernel_grid(np.array([1.3]), np.array([0.0]), 1.0)[0, 0] == 0.0
    assert vt.phi_kernel_grid(np.array([0.0]), np.array([0.0]), 1.0)[0, 0] == 0.0


def test_phi_kernel_against_dblquad_oracle():
    w = 1.0

    def integrand(mu, lam, part):
        if lam == mu:
            inner = 1j * 1.0 * np.exp(1j * 1.0 * lam)
        else:
            inner = (np.exp(1j * 1.0 * lam) - np.exp(1j * 1.0 * mu)) / (lam - mu)
        val = -1j * np.exp(1j * 1.0 * lam) * inner * rho_sc(lam, w) * rho_sc(mu, w)
        return val.real if part == "re" else val.imag

    re = dblquad(lambda mu, lam: integrand(mu, lam, "re"), -2, 2, -2, 2, epsabs=1e-11)[0]
    im = dblquad(lambda mu, lam: integrand(mu, lam, "im"), -2, 2, -2, 2, epsabs=1e-11)[0]
    assert abs(vt.phi_kernel_grid(np.array([1.0]), np.array([1.0]), w)[0, 0] - complex(re, im)) <= 1e-8


def test_phi_kernel_small_time_expansion():
    # Phi(t3, t2) = t2 + O(t^2) near the origin
    val = vt.phi_kernel_grid(np.array([1e-4]), np.array([1e-4]), 1.0)[0, 0]
    assert val.real == pytest.approx(1e-4, rel=1e-3)


def test_cov_kernel_vanishes_at_t1_zero():
    for t2 in (0.0, 0.7, 2.0):
        assert abs(vt.cov_kernel_grid(np.array([0.0]), np.array([t2]), 1.0, -2.0)[0, 0]) <= 1e-13


def test_cov_kernel_symmetry():
    for kappa4 in (0.0, -2.0):
        for t1, t2 in [(0.3, 1.1), (1.7, 0.2), (2.0, 2.0)]:
            a = vt.cov_kernel_grid(np.array([t1]), np.array([t2]), 1.0, kappa4)[0, 0]
            b = vt.cov_kernel_grid(np.array([t2]), np.array([t1]), 1.0, kappa4)[0, 0]
            assert abs(a - b) <= 1e-8


def test_cov_kernel_small_time_matches_direct_moments():
    # leading behavior -2 w^2 t1 t2 from the diagonal-entry variance
    val = vt.cov_kernel_grid(np.array([1e-3]), np.array([1e-3]), 1.0, 0.0)[0, 0]
    assert val.real == pytest.approx(-2e-6, rel=1e-2)


# ---------------------------------------------------------------------------
# residual suites
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kappa4", [0.0, -2.0])
def test_coveq_residual_second_order(kappa4):
    residuals = {}
    for h in (0.04, 0.02, 0.01):
        residuals[h] = vt.coveq_residual(1.0, kappa4, vt.uniform_grid(2.0, h))
        assert residuals[h] <= 50 * h * h
    order = math.log2(residuals[0.04] / residuals[0.02])
    assert 1.8 <= order <= 2.2


@pytest.mark.parametrize("points", [51, 129, 201])  # inside one block; two blocks and a lone column; a remainder
@pytest.mark.parametrize("w,kappa4", [(1.0, -2.0), (1.07, -0.9), (0.5, 0.0), (2.3, 1.5)])
def test_coveq_residual_blocks_match_full_square(points, w, kappa4):
    grid = vt.uniform_grid((points - 1) * 0.01, 0.01)
    assert vt.coveq_residual(w, kappa4, grid) == oracles.coveq_residual_full_square(w, kappa4, grid)


def test_coveq_residual_peak_memory_below_one_square():
    grid = vt.uniform_grid(2.0, 0.00125)
    vt.coveq_residual(1.07, -0.9, grid)  # warms the grid factors and scipy.fft's plan cache
    tracemalloc.start()
    try:
        vt.coveq_residual(1.07, -0.9, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.size * grid.size * 16  # one complex t1 x t2 array: 39 MiB


def test_coveq_zero_row():
    # t1 = 0: both the kernel and the source vanish
    grid = vt.uniform_grid(2.0, 0.02)
    cov = vt.cov_kernel_grid(grid, grid, 1.0, -2.0)
    assert np.max(np.abs(cov[0, :])) <= 1e-12


def test_v2_equation_check_cases():
    h = 0.01
    g = vt.uniform_grid(4.0, h)
    assert vt.v2_equation_check(2, [0.0], 1.0, g) <= 10 * h * h
    bound = 10 * h * h * abs(v_of_t(1.0, 1.0) * v_of_t(2.0, 1.0))
    assert vt.v2_equation_check(3, [1.0, 2.0], 1.0, g) <= bound
    # vanishing kernel limit: v -> 1 and the equation becomes trivial
    assert vt.v2_equation_check(2, [0.5], 1e-6, g) <= 1e-10


def test_v2_equation_check_contracts():
    g = vt.uniform_grid(1.0, 0.1)
    with pytest.raises(ContractError):
        vt.v2_equation_check(1, [], 1.0, g)
    with pytest.raises(ContractError):
        vt.v2_equation_check(3, [1.0], 1.0, g)


def test_residual_table_order_needs_two_positive_residuals(monkeypatch):
    residuals = iter([1e-3, 0.0, 1e-5, 2.5e-6])
    monkeypatch.setattr(vt, "scalar_v_equation_residual", lambda w, grid: next(residuals))
    rows = vt.residual_table(h_values=(0.4, 0.2, 0.1, 0.05), w=1.0, kappa4=-2.0, t_max=0.4)
    orders = [r["order_estimate"] for r in rows if r["case"] == "scalar_v_equation"]
    assert all(math.isnan(o) for o in orders[:3]) and orders[3] == pytest.approx(2.0)


def test_residual_table_orders():
    rows = vt.residual_table(h_values=(0.04, 0.02, 0.01), w=1.0, kappa4=-2.0, t_max=2.0)
    by_case: dict = {}
    for row in rows:
        by_case.setdefault(row["case"], []).append(row)
    assert set(by_case) == {
        "scalar_v_equation", "coveq", "v2_l2_t0", "v2_l3", "manufactured_solve",
    }
    for case, case_rows in by_case.items():
        for row in case_rows[1:]:
            # halving h divides the residual by ~4
            assert 3.5 <= 2 ** row["order_estimate"] <= 4.5, case


# ---------------------------------------------------------------------------
# spectral-domain bridge
# ---------------------------------------------------------------------------


def test_fourier_pairing_reproduces_goe_covariance():
    w = 1.0
    funcs = [
        gaussian_damped([0.0, 1.0], 1.0),
        gaussian_damped([0.0, 0.0, 1.0], 1.0),
        gaussian_damped([0.5, 0.3, 0.0, 1.0], 1.2),
    ]
    for i, f1 in enumerate(funcs):
        for f2 in funcs[i:]:
            target = lm.cov_limit_goe(f1, f2, w)
            got = oracles.fourier_pairing(f1, f2, w, kappa4=0.0)
            assert abs(got - target) <= 1e-3
            assert abs(got.imag) <= 1e-10


def test_fourier_pairing_reproduces_wigner_covariance():
    w = 1.0
    f1 = gaussian_damped([0.0, 1.0], 1.0)
    f2 = gaussian_damped([0.1, 0.0, 1.0], 1.0)
    from wignerlab.ensembles import EnsembleSpec, make_entry_distribution

    spec = EnsembleSpec(entry_dist=make_entry_distribution("rademacher", w))
    target = lm.cov_limit_wigner(f1, f2, spec)
    got = oracles.fourier_pairing(f1, f2, w, kappa4=spec.entry_dist.kappa4)
    assert abs(got - target) <= 1e-3
