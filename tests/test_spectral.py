import math

import numpy as np
import pytest

from wignerlab import ensembles as en
from wignerlab import spectral as sp
from wignerlab.errors import ContractError
from wignerlab.semicircle import gaussian_damped, monomial, polynomial, trigonometric


def goe_spec(w=1.0):
    return en.EnsembleSpec(entry_dist=en.make_entry_distribution("gaussian", w), convention="goe")


def packed(matrix, seed=0, replica=0):
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    return en.SymmetricMatrix(n=n, data=m[np.tril_indices(n)], seed=seed, replica_index=replica)


def test_eigh_identity():
    dec = sp.eigh(packed(np.eye(3)))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_eigh_reflection():
    dec = sp.eigh(packed([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_eigh_reconstruction_random_50():
    m = en.sample_matrix(goe_spec(), 50, seed=4)
    dec = sp.eigh(m)
    defect = dec.validate(m.dense())["reconstruction"]
    assert defect <= 1e-10


@pytest.mark.parametrize("n", [2, 5, 50, 200])
def test_eigh_invariants_across_sizes(n):
    m = en.sample_matrix(goe_spec(), n, seed=8, replica=n)
    dense = m.dense()
    dec = sp.eigh(m)
    report = dec.validate(dense)
    assert report["orthonormality"] <= 1e-10 * math.sqrt(n)
    assert report["reconstruction"] <= 1e-9 * math.sqrt(n) * np.max(np.abs(dense))
    assert report["eigenvalue_sorted"]
    trace = float(np.trace(dense))
    assert abs(dec.eigenvalues.sum() - trace) <= 1e-10 * max(1.0, abs(trace))


def test_eigh_rejects_nonfinite():
    bad = packed([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(ContractError):
        sp.eigh(bad)


def test_eigh_deterministic():
    m = en.sample_matrix(goe_spec(), 30, seed=9)
    a = sp.eigh(m)
    b = sp.eigh(m)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


# ---------------------------------------------------------------------------
# matrix functions
# ---------------------------------------------------------------------------


def test_matrix_function_identity_function_gives_kronecker():
    dec = sp.eigh(en.sample_matrix(goe_spec(), 20, seed=2))
    one = polynomial([1.0])
    for j, k in [(0, 0), (3, 3), (2, 7)]:
        expected = 1.0 if j == k else 0.0
        assert sp.matrix_function_entry(dec, one, j, k) == pytest.approx(expected, abs=1e-12)


def test_matrix_function_square_matches_direct_product():
    m = en.sample_matrix(goe_spec(), 25, seed=3)
    dec = sp.eigh(m)
    direct = m.dense() @ m.dense()
    for j, k in [(0, 0), (4, 9), (24, 24)]:
        assert sp.matrix_function_entry(dec, monomial(2), j, k) == pytest.approx(
            direct[j, k], abs=1e-9
        )


def test_matrix_function_linear_recovers_entries():
    m = en.sample_matrix(goe_spec(), 15, seed=5)
    dec = sp.eigh(m)
    dense = m.dense()
    for j in range(0, 15, 4):
        assert sp.matrix_function_entry(dec, monomial(1), j, j) == pytest.approx(
            dense[j, j], abs=1e-12
        )


def test_matrix_function_index_bounds():
    dec = sp.eigh(en.sample_matrix(goe_spec(), 6, seed=6))
    with pytest.raises(ContractError):
        sp.matrix_function_entry(dec, monomial(1), 6, 0)
    with pytest.raises(ContractError):
        sp.matrix_function_entry(dec, monomial(1), 0, -1)


def test_functional_calculus_against_horner_powers():
    # polynomials of degree <= 6 vs explicit matrix powers, entrywise
    rng = np.random.default_rng(31)
    m = en.sample_matrix(goe_spec(), 100, seed=13)
    dense = m.dense()
    dec = sp.eigh(m)
    coeffs = rng.uniform(-1, 1, size=7)
    expected = np.zeros_like(dense)
    power = np.eye(100)
    for c in coeffs:
        expected += c * power
        power = power @ dense
    phi = polynomial(coeffs)
    for j, k in [(0, 0), (50, 50), (10, 90), (99, 99)]:
        assert sp.matrix_function_entry(dec, phi, j, k) == pytest.approx(
            expected[j, k], abs=1e-8
        )


def diagonal_powers(m, j, degree):
    """(M^k)_jj for k = 0..degree from the power sequence u_k = M^k e_j: a polynomial oracle."""
    dense = m.dense()
    powers = np.ones(degree + 1)
    u = np.zeros(m.n)
    u[j] = 1.0
    for k in range(1, degree + 1):
        u = dense @ u
        powers[k] = u[j]
    return powers


def test_polynomial_entry_matches_spectral_route():
    m = en.sample_matrix(goe_spec(), 64, seed=17)
    dec = sp.eigh(m)
    phi = polynomial([0.2, -1.0, 0.0, 0.5, 1.0])
    for j in (0, 31, 63):
        spectral = sp.matrix_function_entry(dec, phi, j, j)
        direct = np.asarray(phi.coefficients) @ diagonal_powers(m, j, phi.degree)
        assert spectral == pytest.approx(direct, abs=1e-9)


# ---------------------------------------------------------------------------
# Lanczos-Gauss quadrature
# ---------------------------------------------------------------------------


def gauss_entries(m, j, phis):
    """phi(M)_jj through the Jacobi matrix: the harness's lanczos route."""
    t = sp.lanczos_jacobi(m, j, phis)
    dec = sp.eigh(t)
    return [sp.matrix_function_entry(dec, p, 0, 0) for p in phis], t


LANCZOS_PHIS = {
    "damped_0.5": [gaussian_damped([0.0, 1.0, 0.0, 0.5], 0.5)],
    "damped_1": [gaussian_damped([1.0, 0.0, 1.0], 1.0)],
    "damped_2": [gaussian_damped([0.3, -1.0, 0.2], 2.0)],
    "trigonometric": [trigonometric(0.4, 1.0)],
    "polynomial": [polynomial([0.2, -1.0, 0.0, 0.5, 1.0])],
    "mixed": [gaussian_damped([0.0, 1.0, 0.0, 0.5], 1.0), gaussian_damped([1.0, 0.0, 1.0], 1.2),
              trigonometric(1.0, 0.0), monomial(3)],
}


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
def test_lanczos_matches_eigh_battery(kind):
    """The Gauss rule of lanczos_jacobi against the full eigh, to 1e-12 relative.

    Relative to sum_a |phi(lambda_a)| Q_ja^2, the size of the terms the eigh
    route adds: an odd phi can make phi(M)_jj itself cancel to 1e-4 while both
    routes carry round-off of the size of those terms.
    """
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution(kind, 1.0))
    for n in (16, 64, 512):
        m = en.sample_matrix(spec, n, seed=83, replica=n)
        dec = sp.eigh(m)
        for j in (0, (n - 1) // 2, n - 1):
            for name, phis in LANCZOS_PHIS.items():
                values, t = gauss_entries(m, j, phis)
                assert (t.n <= n, t.seed, t.replica_index) == (True, m.seed, m.replica_index)
                for p, value in zip(phis, values):
                    expected = sp.matrix_function_entry(dec, p, j, j)
                    scale = sp.matrix_function_entry(dec, lambda x: np.abs(p(x)), j, j)
                    assert abs(value - expected) <= 1e-12 * scale, (n, j, name)


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
def test_fixed_step_lanczos_matches_power_oracle(kind):
    """p(M)_jj from the moments of degree // 2 + 1 Lanczos steps against diagonal_powers,
    to 1e-12 of sum_a |p(lambda_a)| Q_ja^2."""
    rng = np.random.default_rng(107)
    for w in (1.0, 2.5):
        spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution(kind, w))
        for n in (16, 64, 512):
            m = en.sample_matrix(spec, n, seed=109, replica=n)
            dec = sp.eigh(m)
            for j in (0, (n - 1) // 2, n - 1):
                for degree in range(1, 9):
                    p = polynomial(rng.uniform(-1.0, 1.0, degree + 1))
                    t = sp.lanczos_jacobi(m, j, [p], steps=degree // 2 + 1)
                    assert t.n == degree // 2 + 1
                    value = np.asarray(p.coefficients) @ t.moments(degree)
                    expected = np.asarray(p.coefficients) @ diagonal_powers(m, j, degree)
                    scale = sp.matrix_function_entry(dec, lambda x: np.abs(p(x)), j, j)
                    assert abs(value - expected) <= 1e-12 * scale, (w, n, j, degree)


def test_fixed_step_lanczos_stops_at_breakdown():
    """A fixed step count above the invariant subspace's size still stops at breakdown, exactly."""
    rng = np.random.default_rng(113)
    block = rng.standard_normal((2, 2))
    a = np.zeros((16, 16))
    a[:2, :2] = (block + block.T) / 2
    a[2:, 2:] = np.diag(rng.standard_normal(14))
    m = packed(a)
    p = monomial(6)
    for j in range(2):
        t = sp.lanczos_jacobi(m, j, [p], steps=4)
        assert t.n == 2
        assert t.moments(6)[6] == pytest.approx(np.linalg.matrix_power(a, 6)[j, j], rel=1e-13)
    assert sp.lanczos_jacobi(m, 5, [p], steps=4).n == 1
    assert sp.lanczos_jacobi(packed(np.ones((3, 3))), 0, [p], steps=9).n == 2  # span{e_0, 1}
    assert sp.lanczos_jacobi(packed(a[:2, :2]), 0, [p], steps=9).n == 2  # capped at n


def test_lanczos_jacobi_is_tridiagonal():
    m = en.sample_matrix(goe_spec(), 64, seed=89)
    t = sp.lanczos_jacobi(m, 5, [gaussian_damped([1.0], 1.0)])
    assert (t.alpha.shape, t.beta.shape) == ((t.n,), (t.n - 1,))
    dense = t.dense()
    assert np.array_equal(dense, np.triu(np.tril(dense, 1), -1))
    assert dense[0, 0] == m.dense()[5, 5]  # alpha_1 = e_j^T M e_j
    assert np.all(t.beta > 0)
    # a polynomial of degree < 2k is integrated exactly: (M^4)_jj
    assert t.n >= 3
    assert sp.matrix_function_entry(sp.eigh(t), monomial(4), 0, 0) == pytest.approx(
        np.linalg.matrix_power(m.dense(), 4)[5, 5], rel=1e-13)


def test_lanczos_breakdown_is_exact():
    """e_j inside a 3-dimensional invariant subspace: Lanczos stops at k <= 3 with the exact value."""
    rng = np.random.default_rng(97)
    block = rng.standard_normal((3, 3))
    rest = rng.standard_normal((61, 61))
    a = np.zeros((64, 64))
    a[:3, :3] = (block + block.T) / 2
    a[3:, 3:] = (rest + rest.T) / 2
    m = packed(a)
    phis = [gaussian_damped([0.0, 1.0, 0.0, 0.5], 0.5), trigonometric(1.0, 1.0)]
    dec = sp.eigh(m)
    for j in range(3):
        values, t = gauss_entries(m, j, phis)
        assert t.n <= 3
        for p, value in zip(phis, values):
            assert value == pytest.approx(sp.matrix_function_entry(dec, p, j, j), rel=1e-13, abs=1e-15)
    diagonal = packed(np.diag([0.5, -1.0, 2.0]))
    values, t = gauss_entries(diagonal, 1, phis)
    assert t.n == 1
    assert values == [p(-1.0) for p in phis]


@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_lanczos_steps_never_exceed_n(n):
    m = en.sample_matrix(goe_spec(), n, seed=101, replica=n)
    narrow = [gaussian_damped([1.0], 0.25)]  # not converged before k = n, so the cap stops it
    dec = sp.eigh(m)
    for j in range(n):
        values, t = gauss_entries(m, j, narrow)
        assert t.n == n
        assert values[0] == pytest.approx(sp.matrix_function_entry(dec, narrow[0], j, j), rel=1e-12)


def test_lanczos_contracts():
    m = en.sample_matrix(goe_spec(), 8, seed=103)
    with pytest.raises(ContractError):
        sp.lanczos_jacobi(m, 8, [monomial(2)])
    with pytest.raises(ContractError):
        sp.lanczos_jacobi(packed([[0.0, np.nan], [np.nan, 0.0]]), 0, [monomial(2)])
    with pytest.raises(ContractError):
        sp.lanczos_jacobi(packed([[0.0, np.inf], [np.inf, 0.0]]), 0, [monomial(2)], steps=2)
    with pytest.raises(ContractError):
        sp.lanczos_jacobi(m, 0, [monomial(2)], steps=0)


# ---------------------------------------------------------------------------
# propagator
# ---------------------------------------------------------------------------


def test_propagator_at_zero_is_identity_exactly():
    dec = sp.eigh(en.sample_matrix(goe_spec(), 12, seed=19))
    ps = sp.propagator_entries(dec, [(0, 0), (0, 1)], [0.0, 0.5])
    assert ps.entries[0, 0] == 1.0 + 0.0j
    assert ps.entries[1, 0] == 0.0 + 0.0j


def test_propagator_unitarity_random_rows():
    rng = np.random.default_rng(23)
    dec = sp.eigh(en.sample_matrix(goe_spec(), 60, seed=29))
    for _ in range(100):
        j = int(rng.integers(0, 60))
        t = float(rng.uniform(-5, 5))
        row = sp.propagator_slices(dec, j, [t])[1][0]
        total = float(np.sum(np.abs(row) ** 2))
        assert 1 - 1e-9 <= total <= 1 + 1e-9


def test_propagator_group_law():
    dec = sp.eigh(en.sample_matrix(goe_spec(), 40, seed=37))
    t1, t2 = 0.8, 1.7
    lhs = sp.propagator_slices(dec, 5, [t1 + t2])[1][0, 5]
    rhs = np.sum(sp.propagator_slices(dec, 5, [t1])[1][0]
                 * np.array([sp.propagator_slices(dec, k, [t2])[1][0, 5] for k in range(40)]))
    assert abs(lhs - rhs) <= 1e-10


def test_propagator_entries_bounded():
    dec = sp.eigh(en.sample_matrix(goe_spec(), 50, seed=41))
    pairs = [(i, j) for i in range(5) for j in range(5)]
    ps = sp.propagator_entries(dec, pairs, np.linspace(-4, 4, 33))
    assert np.max(np.abs(ps.entries)) <= 1.0 + 1e-12


def test_propagator_entries_match_spectral_sum():
    # oracle: U_jk(t) = sum_a e^{i t lambda_a} Q_ja Q_ka, with U(0) = I exact
    dec = sp.eigh(en.sample_matrix(goe_spec(), 50, seed=47))
    pairs = [(3, 3), (3, 7), (0, 49), (7, 3), (3, 0)]
    t = np.array([0.0, -2.5, 0.4, 0.0, 3.0])
    ps = sp.propagator_entries(dec, pairs, t)
    q = dec.eigenvectors
    phases = np.exp(1j * np.multiply.outer(t, dec.eigenvalues))
    want = np.array([phases @ (q[j] * q[k]) for j, k in pairs])
    assert ps.entries.shape == (5, 5) and ps.pairs == tuple(pairs)
    assert np.max(np.abs(ps.entries - want)) <= 1e-13
    assert [ps.entries[i, 0] for i in range(5)] == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert np.array_equal(ps.entries[:, 3], ps.entries[:, 0])


def test_propagator_index_bounds():
    dec = sp.eigh(en.sample_matrix(goe_spec(), 8, seed=43))
    with pytest.raises(ContractError):
        sp.propagator_entries(dec, [(8, 0)], [0.0])
    with pytest.raises(ContractError):
        sp.propagator_entries(dec, [(0, 8)], [0.0])
    with pytest.raises(ContractError):
        sp.propagator_entries(dec, [(0, 0)], [np.inf])


# ---------------------------------------------------------------------------
# trace/row statistics
# ---------------------------------------------------------------------------


def test_lemma_statistics_at_zero():
    n = 30
    dec = sp.eigh(en.sample_matrix(goe_spec(), n, seed=47))
    stats = sp.lemma_statistics(dec, 3, (0.0, 0.0, 0.0))
    assert stats.v_n == 1.0
    assert stats.v_n_pair == pytest.approx(1.0)
    assert stats.v_n1 == pytest.approx(1.0 / math.sqrt(n))
    assert stats.v_n2 == pytest.approx(1.0)


def test_lemma_statistics_bounds():
    rng = np.random.default_rng(53)
    dec = sp.eigh(en.sample_matrix(goe_spec(), 80, seed=59))
    for _ in range(25):
        ts = tuple(rng.uniform(-3, 3, size=3))
        stats = sp.lemma_statistics(dec, 7, ts)
        assert abs(stats.v_n) <= 1.0 + 1e-12
        # sum_k prod |U_jk| <= sum_k |U_jk|^2 <= 1 for l >= 2 factors
        assert abs(stats.v_n2) <= 1.0 + 1e-9


def test_lemma_statistics_contracts():
    dec = sp.eigh(en.sample_matrix(goe_spec(), 10, seed=61))
    with pytest.raises(ContractError):
        sp.lemma_statistics(dec, 0, (1.0,))
    two = sp.lemma_statistics(dec, 0, (1.0, 2.0))
    assert two.v_n2 is None


def test_lemma_statistics_match_bruteforce():
    n = 16
    m = en.sample_matrix(goe_spec(), n, seed=67)
    dec = sp.eigh(m)
    t1, t2, t3 = 0.7, 1.3, -0.4
    u = {t: np.zeros((n, n), dtype=complex) for t in (t1, t2, t3)}
    for t in u:
        for a in range(n):
            u[t] += np.exp(1j * t * dec.eigenvalues[a]) * np.outer(
                dec.eigenvectors[:, a], dec.eigenvectors[:, a]
            )
    j = 2
    stats = sp.lemma_statistics(dec, j, (t1, t2, t3))
    assert stats.v_n == pytest.approx(np.trace(u[t1]) / n, abs=1e-12)
    assert stats.v_n_pair == pytest.approx(np.sum(np.diag(u[t1]) * np.diag(u[t2])) / n, abs=1e-12)
    assert stats.v_n1 == pytest.approx(
        np.sum(u[t1][j, :] * np.diag(u[t2])) / math.sqrt(n), abs=1e-12
    )
    assert stats.v_n2 == pytest.approx(
        np.sum(u[t1][j, :] * u[t2][j, :] * u[t3][j, :]), abs=1e-12
    )


def test_propagator_slices_match_bruteforce_battery():
    """One-pass diagonals, rows and lemma statistics against U = Q e^{i Lambda t} Q^T."""
    rng = np.random.default_rng(71)
    for n in (16, 33, 64, 128):
        dec = sp.eigh(en.sample_matrix(goe_spec(), n, seed=73, replica=n))
        q, lam = dec.eigenvectors, dec.eigenvalues
        for _ in range(3):
            j = int(rng.integers(0, n))
            ts = [0.0, *rng.uniform(-4.0, 4.0, size=3)]
            u = {t: (q * np.exp(1j * t * lam)) @ q.T for t in ts}
            diag, row = sp.propagator_slices(dec, j, ts + ts[1:2])  # a repeated time too
            for i, t in enumerate(ts + ts[1:2]):
                assert np.max(np.abs(diag[i] - np.diag(u[t]))) <= 1e-12
                assert np.max(np.abs(row[i] - u[t][j, :])) <= 1e-12
            assert np.all(diag[0] == 1.0)
            assert np.all(row[0] == np.eye(n)[j])
            for t1, t2, t3 in ((ts[1], ts[2], ts[3]), (0.0, ts[1], ts[1]), (ts[2], 0.0, 0.0)):
                stats = sp.lemma_statistics(dec, j, (t1, t2, t3))
                assert abs(stats.u_jj - u[t1][j, j]) <= 1e-12
                assert abs(stats.v_n - np.trace(u[t1]) / n) <= 1e-12
                assert abs(stats.v_n_pair - np.sum(np.diag(u[t1]) * np.diag(u[t2])) / n) <= 1e-12
                assert abs(stats.v_n1 - np.sum(u[t1][j, :] * np.diag(u[t2])) / math.sqrt(n)) <= 1e-12
                v_n2 = np.sum(u[t1][j, :] * u[t2][j, :] * u[t3][j, :])
                assert abs(stats.v_n2 - v_n2) <= 1e-12
                _, rows = sp.propagator_slices(dec, j, (t1, t2, t3))
                assert abs(np.sum(np.prod(rows, axis=0)) - v_n2) <= 1e-12


def test_propagator_slices_contracts():
    dec = sp.eigh(en.sample_matrix(goe_spec(), 8, seed=79))
    with pytest.raises(ContractError):
        sp.propagator_slices(dec, 8, [1.0])
    with pytest.raises(ContractError):
        sp.propagator_slices(dec, 0, [np.nan])
