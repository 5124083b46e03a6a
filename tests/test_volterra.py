import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad

import oracles
from wignerlab import limits as lm
from wignerlab import volterra as vt
from wignerlab.errors import ContractError
from wignerlab.semicircle import gauss_chebyshev_u, gaussian_damped, sc_convolutions, v_of_t


def ones_series(t_max, h):
    return np.ones(vt.uniform_grid(t_max, h).size, dtype=complex)


def v_series(t_max, h, w=1.0, scale=1.0):
    return (scale * v_of_t(vt.uniform_grid(t_max, h), w)).astype(complex)


def factors(*times, w=1.0):
    """grid_factors of the given times."""
    return vt.grid_factors(np.array(times, float), w)


def v_defect(grid, w=1.0, c=1.0):
    """v_equation_defect on a grid, with v and the step read off it as residual_table does."""
    return vt.v_equation_defect(v_of_t(grid, w), w, float(grid[1] - grid[0]), c)


# ---------------------------------------------------------------------------
# grids and convolution
# ---------------------------------------------------------------------------


def test_uniform_grid_steps_divide_t_max():
    g = vt.uniform_grid(2.0, 0.01)
    assert g.size == 201 and g[-1] == 2.0
    for t_max, h in ((2.0, 0.03), (float("nan"), 0.01), (float("inf"), 0.01), (2.0, float("nan")),
                     (0.005, 0.01), (-1.0, 0.01)):
        with pytest.raises(ContractError):
            vt.uniform_grid(t_max, h)


@pytest.mark.parametrize("t_max", [20.0, 200.0])
def test_v2_equation_check_runs_on_fine_uniform_grids(t_max):
    # linspace rounds each step by about eps * t_max; the step is read off the grid as is
    g = vt.uniform_grid(t_max, 0.001)
    assert v_defect(g) <= 10 * 0.001**2


def test_convolve_unit_functions_exact():
    one = ones_series(2.0, 0.01)
    conv = oracles.convolve(one, one, 0.01)
    assert np.max(np.abs(conv - vt.uniform_grid(2.0, 0.01))) <= 1e-14


def test_convolve_grid_mismatch():
    with pytest.raises(ContractError):
        oracles.convolve(ones_series(2.0, 0.01), ones_series(2.0, 0.02), 0.01)


def test_quadruple_unit_convolution():
    # (1*1*1*1)(t) = t^3/6; trapezoid error is exactly -t h^2/12 here,
    # i.e. 8.3e-8 at t = 1, h = 1e-3, and falls fourfold when h halves
    errs = {}
    for h in (1e-3, 5e-4):
        one = ones_series(1.0, h)
        quad4 = oracles.convolve(oracles.convolve(oracles.convolve(one, one, h), one, h), one, h)
        errs[h] = abs(quad4[-1] - 1.0 / 6.0)
    assert errs[1e-3] <= 1e-7
    assert errs[1e-3] / errs[5e-4] == pytest.approx(4.0, abs=0.2)


def edd_weighted_loop(t_values, w):
    """The per-time form _edd_weighted replaced: one divided-difference matrix per t."""
    lam, weights = gauss_chebyshev_u(w)
    den = lam[:, None] - lam[None, :]
    on_diag = den == 0.0
    out = np.empty((len(t_values), lam.size), dtype=complex)
    for idx, t in enumerate(t_values):
        e = np.exp(1j * t * lam)
        dd = (e[:, None] - e[None, :]) / np.where(on_diag, 1.0, den)
        out[idx] = weights @ np.where(on_diag, 1j * t * e[:, None], dd)
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
    grid_conv = oracles.convolve(vs, vs, h)
    closed, _ = sc_convolutions(vt.uniform_grid(4.0, h), 1.0)
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
    applied = vt.volterra_apply(q.astype(complex), kernel, h)
    assert_close(applied, kernel + cum @ (conv_matrix_oracle(q, h) @ kernel))
    by_column = np.column_stack([vt.volterra_apply(q.astype(complex), kernel[:, c], h) for c in range(7)])
    assert_close(applied, by_column)


# ---------------------------------------------------------------------------
# the integral-equation solver
# ---------------------------------------------------------------------------


def test_solve_zero_kernel_returns_source():
    g = vt.uniform_grid(2.0, 0.01)
    r = (np.sin(g) ** 2).astype(complex)
    solved = vt.volterra_solve(np.zeros_like(g, complex), r, 0.01)
    assert np.max(np.abs(solved - r)) <= 1e-14


def test_solve_rejects_nonzero_initial_source():
    g = vt.uniform_grid(1.0, 0.01)
    with pytest.raises(ContractError):
        vt.volterra_solve(np.zeros_like(g, complex), np.ones_like(g, complex), 0.01)


def test_solve_rejects_mismatched_lengths():
    q = np.zeros(vt.uniform_grid(1.0, 0.01).size, complex)
    r = np.sin(vt.uniform_grid(1.0, 0.02)).astype(complex)
    with pytest.raises(ContractError):
        vt.volterra_solve(q, r, 0.01)


def test_solve_recovers_v_from_its_own_equation():
    # v solves P + II w^2 v P = 1; shift by the constant so the source
    # vanishes at zero: P~ = v - 1 has source -w^2 II v
    h = 0.01
    g = vt.uniform_grid(4.0, h)
    v_vals = v_of_t(g, 1.0).astype(complex)
    inner = vt._cumtrapz(v_vals, h)
    solved = vt.volterra_solve(v_vals, -vt._cumtrapz(inner, h), h)
    assert np.max(np.abs((solved + 1.0) - v_vals)) <= 10 * h * h


def test_manufactured_solution_second_order():
    errs = {h: vt.manufactured_solve_error(vt.uniform_grid(2.0, h)) for h in (0.02, 0.01)}
    assert errs[0.01] <= 5 * 0.01**2
    assert errs[0.02] / errs[0.01] == pytest.approx(4.0, abs=0.5)


def test_solve_roundtrip_is_discrete_identity():
    """volterra_solve applied to its own discrete forward map volterra_apply."""
    g = vt.uniform_grid(3.0, 0.01)
    p_star = np.sin(g) * np.exp(-0.3 * g) + 0.0j
    q = v_of_t(g, 1.0).astype(complex)
    solved = vt.volterra_solve(q, vt.volterra_apply(q, p_star, 0.01), 0.01)
    assert np.max(np.abs(solved - p_star)) <= 5 * 0.01**2  # in practice machine precision


def test_solution_formula_is_resolvent_convolution():
    # P = conv(v, R') when the kernel is w^2 v and T = -v
    h = 0.005
    g = vt.uniform_grid(3.0, h)
    q = v_of_t(g, 1.0).astype(complex)
    solved = vt.volterra_solve(q, np.sin(g).astype(complex), h)
    via_resolvent = oracles.convolve(q, np.cos(g).astype(complex), h)
    assert np.max(np.abs(solved - via_resolvent)) <= 10 * h * h


# ---------------------------------------------------------------------------
# resolvent kernel
# ---------------------------------------------------------------------------


def test_resolvent_T_is_minus_v():
    g = vt.uniform_grid(2.0, 0.1)
    t_values = oracles.resolvent_T(1.0, g)
    assert t_values[0] == pytest.approx(-1.0)
    assert np.allclose(t_values, -v_of_t(g, 1.0))


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
    assert vt.phi_kernel_grid(factors(1.3), factors(0.0))[0, 0] == 0.0
    assert vt.phi_kernel_grid(factors(0.0), factors(0.0))[0, 0] == 0.0


def test_phi_kernel_against_dblquad_oracle():
    w = 1.0

    def integrand(mu, lam, part):
        if lam == mu:
            inner = 1j * 1.0 * np.exp(1j * 1.0 * lam)
        else:
            inner = (np.exp(1j * 1.0 * lam) - np.exp(1j * 1.0 * mu)) / (lam - mu)
        val = -1j * np.exp(1j * 1.0 * lam) * inner * oracles.rho_sc(lam, w) * oracles.rho_sc(mu, w)
        return val.real if part == "re" else val.imag

    re = dblquad(lambda mu, lam: integrand(mu, lam, "re"), -2, 2, -2, 2, epsabs=1e-11)[0]
    im = dblquad(lambda mu, lam: integrand(mu, lam, "im"), -2, 2, -2, 2, epsabs=1e-11)[0]
    assert abs(vt.phi_kernel_grid(factors(1.0, w=w), factors(1.0, w=w))[0, 0] - complex(re, im)) <= 1e-8


def test_phi_kernel_small_time_expansion():
    # Phi(t3, t2) = t2 + O(t^2) near the origin
    val = vt.phi_kernel_grid(factors(1e-4), factors(1e-4))[0, 0]
    assert val.real == pytest.approx(1e-4, rel=1e-3)


def test_cov_kernel_vanishes_at_t1_zero():
    for t2 in (0.0, 0.7, 2.0):
        assert abs(vt.cov_kernel_grid(factors(0.0), factors(t2), 1.0, -2.0)[0, 0]) <= 1e-13


def test_cov_kernel_symmetry():
    for kappa4 in (0.0, -2.0):
        for t1, t2 in [(0.3, 1.1), (1.7, 0.2), (2.0, 2.0)]:
            a = vt.cov_kernel_grid(factors(t1), factors(t2), 1.0, kappa4)[0, 0]
            b = vt.cov_kernel_grid(factors(t2), factors(t1), 1.0, kappa4)[0, 0]
            assert abs(a - b) <= 1e-8


def test_cov_kernel_small_time_matches_direct_moments():
    # leading behavior -2 w^2 t1 t2 from the diagonal-entry variance
    val = vt.cov_kernel_grid(factors(1e-3), factors(1e-3), 1.0, 0.0)[0, 0]
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
    """The factored, column-blocked residual matches the whole-square oracle to 1e-13 of
    the left side's scale max(1, w^2, |kappa4|); a planted wrong kappa4 sign misses it."""
    grid = vt.uniform_grid((points - 1) * 0.01, 0.01)
    bound = 1e-13 * max(1.0, w * w, abs(kappa4))
    oracle = oracles.coveq_residual_full_square(w, kappa4, grid)
    assert abs(vt.coveq_residual(w, kappa4, grid) - oracle) <= bound
    if kappa4:
        assert abs(vt.coveq_residual(w, -kappa4, grid) - oracle) > bound


@pytest.mark.parametrize("points,columns", [(2, 1), (51, 3), (201, 64), (1601, 128)])
def test_time_operators_commute_with_t2_factors(points, columns):
    """volterra_apply and _cumtrapz act on each column alone, so applying them to F and then
    multiplying by B equals applying them to F @ B: the identity coveq_residual rests on."""
    rng = np.random.default_rng([points, columns])
    h = 2.0 / max(points - 1, 1)
    q, f, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
               for shape in (points, (points, 128), (128, columns)))
    for op in (lambda x: vt.volterra_apply(q, x, h), lambda x: vt._cumtrapz(x, h)):
        direct = op(f @ b)
        assert np.max(np.abs(op(f) @ b - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("points", [129, 1601])  # a lone last column; the benchmark's finest step
@pytest.mark.parametrize("w", [0.8, 1.25])
def test_block_factors_are_rows_of_the_grid_factors(points, w):
    """The factors coveq_residual reads for each block of t2 columns, rows of the grid's
    factors, equal the factors built on the block's own times bit for bit."""
    grid = vt.uniform_grid(2.0, 2.0 / (points - 1))
    whole = vt.grid_factors(grid, w)
    starts = range(0, grid.size - 1, vt._COLUMN_BLOCK)
    stops = [start + vt._COLUMN_BLOCK for start in starts[:-1]] + [grid.size]
    assert stops[-1] - starts[-1] > vt._COLUMN_BLOCK  # the last block took the lone column
    for start, stop in zip(starts, stops):
        for rows, own in zip(whole, vt.grid_factors(grid[start:stop], w)):
            assert rows[start:stop].tobytes() == own.tobytes()


def test_coveq_residual_peak_memory_below_one_square():
    grid = vt.uniform_grid(2.0, 0.00125)
    vt.coveq_residual(1.07, -0.9, grid)  # warms scipy.fft's plan cache
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
    grid_factors = vt.grid_factors(grid, 1.0)
    cov = vt.cov_kernel_grid(grid_factors, grid_factors, 1.0, -2.0)
    assert np.max(np.abs(cov[0, :])) <= 1e-12


def test_v2_equation_check_cases():
    h = 0.01
    g = vt.uniform_grid(4.0, h)
    assert v_defect(g) <= 10 * h * h
    v12 = v_of_t(1.0, 1.0) * v_of_t(2.0, 1.0)
    assert v_defect(g, c=v12) <= 10 * h * h * abs(v12)
    # vanishing kernel limit: v -> 1 and the equation becomes trivial
    assert v_defect(g, w=1e-6, c=v_of_t(0.5, 1e-6)) <= 1e-10


def test_residual_table_order_needs_two_positive_residuals(monkeypatch):
    residuals = iter([1e-3, 0.0, 1e-5, 2.5e-6])
    monkeypatch.setattr(vt, "manufactured_solve_error", lambda grid: next(residuals))
    rows = vt.residual_table(h_values=(0.4, 0.2, 0.1, 0.05), w=1.0, kappa4=-2.0, t_max=0.4)
    orders = [r["order_estimate"] for r in rows if r["case"] == "manufactured_solve"]
    assert all(math.isnan(o) for o in orders[:3]) and orders[3] == pytest.approx(2.0)


def test_residual_table_shares_the_scalar_defect_and_scales_it_for_l3():
    w = 1.03
    rows = vt.residual_table(h_values=(0.1, 0.05, 0.025), w=w, kappa4=-0.5, t_max=2.0)
    by_case = {(r["case"], r["h"]): r["residual"] for r in rows}
    v12 = v_of_t(1.0, w) * v_of_t(2.0, w)
    for h in (0.1, 0.05, 0.025):
        g = vt.uniform_grid(2.0, h)
        scalar = by_case[("scalar_v_equation", h)]
        # == on positive floats compares their bits
        assert by_case[("v2_l2_t0", h)] == scalar == v_defect(g, w)
        assert by_case[("v2_l3", h)] == v_defect(g, w, v12)


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
    from wignerlab.ensembles import EnsembleSpec, make_entry_distribution

    w = 1.0
    spec = EnsembleSpec(entry_dist=make_entry_distribution("gaussian", w), convention="goe")
    funcs = [
        gaussian_damped([0.0, 1.0], 1.0),
        gaussian_damped([0.0, 0.0, 1.0], 1.0),
        gaussian_damped([0.5, 0.3, 0.0, 1.0], 1.2),
    ]
    for i, f1 in enumerate(funcs):
        for f2 in funcs[i:]:
            target = lm.cov_limit_wigner(f1, f2, spec)
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
