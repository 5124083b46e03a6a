import itertools
import math

import numpy as np
import pytest

import oracles
from wignerlab import ensembles as en
from wignerlab import harness as hn
from wignerlab import spectral as sp
from wignerlab.errors import ContractError, NumericFailureError
from wignerlab.semicircle import gaussian_damped, monomial, polynomial, tabulated


def goe_spec(w=1.0):
    return en.EnsembleSpec(entry_dist=en.make_entry_distribution("gaussian", w), convention="goe")


def packed(matrix):
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    return en.SymmetricMatrix(n=n, data=m[np.tril_indices(n)])


def goe_dense(n, seed, replica=0):
    """One sampled GOE matrix, unpacked: the array the spectral readers take."""
    return en.sample_matrix(goe_spec(), n, seed=seed, replica=replica).dense()


def test_eigh_identity():
    dec = sp.eigh(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_eigh_reflection():
    dec = sp.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_eigh_reconstruction_random_50():
    dense = goe_dense(50, seed=4)
    dec = sp.eigh(dense)
    defect = oracles.validate(dec, dense)["reconstruction"]
    assert defect <= 1e-10


@pytest.mark.parametrize("n", [2, 5, 50, 200])
def test_eigh_invariants_across_sizes(n):
    dense = goe_dense(n, seed=8, replica=n)
    dec = sp.eigh(dense)
    report = oracles.validate(dec, dense)
    assert report["orthonormality"] <= 1e-10 * math.sqrt(n)
    assert report["reconstruction"] <= 1e-9 * math.sqrt(n) * np.max(np.abs(dense))
    assert report["eigenvalue_sorted"]
    trace = float(np.trace(dense))
    assert abs(dec.eigenvalues.sum() - trace) <= 1e-10 * max(1.0, abs(trace))


def test_eigh_deterministic():
    dense = goe_dense(30, seed=9)
    a = sp.eigh(dense)
    b = sp.eigh(dense)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eigh_returns_numpys_result_read_only():
    dense = goe_dense(12, seed=9)
    lam, q = sp.eigh(dense)
    expected = np.linalg.eigh(dense)
    assert np.array_equal(lam, expected.eigenvalues) and np.array_equal(q, expected.eigenvectors)
    for part in (lam, q):
        with pytest.raises(ValueError):
            part[0] = 0.0


def test_eigh_failure_names_root_seed_replica_and_order(monkeypatch):
    """eigh names the order of the array it failed on; the replica phase adds the root
    seed and the replica, on the eigh route (order n) and at a Jacobi matrix (order k):
    the first one the Lanczos walk reads, of order K0 - 2."""
    original, sample = np.linalg.eigh, hn.sample_matrix
    drawn = []

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def fails_at(order):  # on replica 4 only
        return lambda a: no_convergence(a) if (len(a), drawn[-1]) == (order, 4) else original(a)

    def sample_matrix(spec, n, seed, replica):
        drawn.append(replica)
        return sample(spec, n, seed, replica)

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(NumericFailureError) as info:
        sp.eigh(goe_dense(12, seed=1))
    assert str(info.value).startswith("order 12: eigendecomposition did not converge")
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    monkeypatch.setattr(hn, "sample_matrix", sample_matrix)
    smooth = gaussian_damped([1.0], 3.0)
    first = hn.lanczos_first_read([smooth], 1.0) - 2
    assert 3 <= first < 12
    for phi, order in ((tabulated([-9.0, 9.0], [1.0, -1.0]), 12), (smooth, first)):
        monkeypatch.setattr(np.linalg, "eigh", fails_at(order))
        with pytest.raises(NumericFailureError, match=f"^root seed 987654321, replica 4, order {order}: "):
            hn.matrix_element_samples(goe_spec(), 12, 0, [phi], 987654321, 6)


# ---------------------------------------------------------------------------
# matrix functions
# ---------------------------------------------------------------------------


def test_matrix_function_identity_function_gives_kronecker():
    dec = sp.eigh(goe_dense(20, seed=2))
    one = polynomial([1.0])
    for j in (0, 3, 19):
        assert sp.matrix_function_entry(dec, one, j) == pytest.approx(1.0, abs=1e-12)


def test_matrix_function_square_matches_direct_product():
    dense = goe_dense(25, seed=3)
    dec = sp.eigh(dense)
    direct = dense @ dense
    for j in (0, 9, 24):
        assert sp.matrix_function_entry(dec, monomial(2), j) == pytest.approx(direct[j, j], abs=1e-9)


def test_matrix_function_linear_recovers_entries():
    dense = goe_dense(15, seed=5)
    dec = sp.eigh(dense)
    for j in range(0, 15, 4):
        assert sp.matrix_function_entry(dec, monomial(1), j) == pytest.approx(
            dense[j, j], abs=1e-12
        )


def test_matrix_function_index_bounds():
    dec = sp.eigh(goe_dense(6, seed=6))
    with pytest.raises(ContractError):
        sp.matrix_function_entry(dec, monomial(1), 6)
    with pytest.raises(ContractError):
        sp.matrix_function_entry(dec, monomial(1), -1)


def test_functional_calculus_against_horner_powers():
    # polynomials of degree <= 6 vs explicit matrix powers, entrywise
    rng = np.random.default_rng(31)
    dense = goe_dense(100, seed=13)
    dec = sp.eigh(dense)
    coeffs = rng.uniform(-1, 1, size=7)
    expected = np.zeros_like(dense)
    power = np.eye(100)
    for c in coeffs:
        expected += c * power
        power = power @ dense
    phi = polynomial(coeffs)
    for j in (0, 50, 99):
        assert sp.matrix_function_entry(dec, phi, j) == pytest.approx(expected[j, j], abs=1e-8)


def diagonal_powers(dense, j, degree):
    """(M^k)_jj for k = 0..degree from the power sequence u_k = M^k e_j: a polynomial oracle."""
    powers = np.ones(degree + 1)
    u = np.zeros(len(dense))
    u[j] = 1.0
    for k in range(1, degree + 1):
        u = dense @ u
        powers[k] = u[j]
    return powers


def test_polynomial_entry_matches_spectral_route():
    dense = goe_dense(64, seed=17)
    dec = sp.eigh(dense)
    phi = polynomial([0.2, -1.0, 0.0, 0.5, 1.0])
    for j in (0, 31, 63):
        spectral = sp.matrix_function_entry(dec, phi, j)
        direct = np.asarray(phi.coefficients) @ diagonal_powers(dense, j, phi.degree)
        assert spectral == pytest.approx(direct, abs=1e-9)


# ---------------------------------------------------------------------------
# Lanczos-Gauss quadrature
# ---------------------------------------------------------------------------


def jacobi_after(a, j, steps):
    """The last of the first `steps` Jacobi matrices lanczos_jacobi yields."""
    return list(itertools.islice(sp.lanczos_jacobi(a, j), steps))[-1]


LANCZOS_PHIS = {
    "damped_0.5": [gaussian_damped([0.0, 1.0, 0.0, 0.5], 0.5)],
    "damped_1": [gaussian_damped([1.0, 0.0, 1.0], 1.0)],
    "damped_2": [gaussian_damped([0.3, -1.0, 0.2], 2.0)],
    "trigonometric": [oracles.Trigonometric(0.4, 1.0)],
    "polynomial": [polynomial([0.2, -1.0, 0.0, 0.5, 1.0])],
    "mixed": [gaussian_damped([0.0, 1.0, 0.0, 0.5], 1.0), gaussian_damped([1.0, 0.0, 1.0], 1.2),
              oracles.Trigonometric(1.0, 0.0), monomial(3)],
}


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
def test_lanczos_matches_eigh_battery(kind):
    """phi_entries' Gauss rules over lanczos_jacobi, and its power sums for polynomials,
    against the full eigh, to 1e-12 relative, at w = 1 and at w = 2.5, where K0 can lie
    past the step the every-step rule stops at.

    Relative to sum_a |phi(lambda_a)| Q_ja^2, the size of the terms the eigh
    route adds: an odd phi can make phi(M)_jj itself cancel to 1e-4 while both
    routes carry round-off of the size of those terms.  An all-polynomial set
    reads no Jacobi matrix.
    """
    for w in (1.0, 2.5):
        spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution(kind, w))
        first = {name: hn.lanczos_first_read(phis, w) for name, phis in LANCZOS_PHIS.items()}
        for n in (16, 64, 512):
            m = en.sample_matrix(spec, n, seed=83, replica=n)
            dec = sp.eigh(m.dense())
            for j in (0, (n - 1) // 2, n - 1):
                for name, phis in LANCZOS_PHIS.items():
                    values, size = hn.phi_entries(m, j, phis, first[name])
                    assert size is None if name == "polynomial" else size <= n
                    for p, value in zip(phis, values):
                        expected = sp.matrix_function_entry(dec, p, j)
                        scale = sp.matrix_function_entry(dec, lambda x: np.abs(p(x)), j)
                        assert abs(value - expected) <= 1e-12 * scale, (w, n, j, name)


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
def test_power_moments_match_eigh_battery(kind):
    """p(M)_jj from power_moments against the full eigh and the power-sequence oracle,
    to 1e-12 of sum_a |p(lambda_a)| Q_ja^2, for every degree 1..8."""
    rng = np.random.default_rng(107)
    for w in (1.0, 2.5):
        spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution(kind, w))
        for n in (16, 64, 512):
            dense = en.sample_matrix(spec, n, seed=109, replica=n).dense()
            dec = sp.eigh(dense)
            for j in (0, (n - 1) // 2, n - 1):
                for degree in range(1, 9):
                    p = polynomial(rng.uniform(-1.0, 1.0, degree + 1))
                    moments = sp.power_moments(dense, j, degree)
                    assert moments.shape == (degree + 1,) and moments[0] == 1.0
                    value = np.asarray(p.coefficients) @ moments
                    scale = sp.matrix_function_entry(dec, lambda x: np.abs(p(x)), j)
                    assert abs(value - sp.matrix_function_entry(dec, p, j)) <= 1e-12 * scale, (w, n, j, degree)
                    expected = np.asarray(p.coefficients) @ diagonal_powers(dense, j, degree)
                    assert abs(value - expected) <= 1e-12 * scale, (w, n, j, degree)


def test_power_moments_contracts():
    """power_moments checks j."""
    dense = goe_dense(8, seed=103)
    for j in (8, -1):
        with pytest.raises(ContractError):
            sp.power_moments(dense, j, 2)
    assert list(sp.power_moments(np.array([[0.5, 2.0], [2.0, -1.0]]), 1, 3)) == [1.0, -1.0, 5.0, -7.0]


def test_fixed_step_lanczos_stops_at_breakdown():
    """The walk ends at breakdown, with the exact rule, however many steps are asked for."""
    rng = np.random.default_rng(113)
    block = rng.standard_normal((2, 2))
    a = np.zeros((16, 16))
    a[:2, :2] = (block + block.T) / 2
    a[2:, 2:] = np.diag(rng.standard_normal(14))
    for j in range(2):
        t = jacobi_after(a, j, 4)
        assert t.shape == (2, 2)
        assert np.linalg.matrix_power(t, 6)[0, 0] == pytest.approx(
            np.linalg.matrix_power(a, 6)[j, j], rel=1e-13)
    assert [len(t) for t in sp.lanczos_jacobi(a, 5)] == [1]
    assert len(jacobi_after(np.ones((3, 3)), 0, 9)) == 2  # span{e_0, 1}
    assert [len(t) for t in sp.lanczos_jacobi(a[:2, :2], 0)] == [1, 2]  # capped at n


def test_lanczos_runs_steps_then_the_gauss_test():
    """Lanczos reads at least max(3, K0) Jacobi matrices, then stops at the first step where
    every smooth phi's Gauss estimate has settled; polynomials beside it move neither K0 nor
    the stop, and an all-polynomial set reads none."""
    m = en.sample_matrix(goe_spec(), 128, seed=117)
    smooth = [gaussian_damped([1.0, 0.0, 1.0], 1.0)]
    first = hn.lanczos_first_read(smooth, 1.0)

    def size(*degrees):
        phis = smooth + [monomial(d) for d in degrees]
        assert hn.lanczos_first_read(phis, 1.0) == first
        return hn.phi_entries(m, 3, phis, first)[1]

    settled = size()
    assert max(3, first) <= settled < 40
    assert size(2) == size(3) == size(2 * settled - 2) == size(78) == settled
    for degree in (8, 1):
        assert hn.lanczos_first_read([monomial(degree)], 1.0) is None
        assert hn.phi_entries(m, 3, [monomial(degree)], None)[1] is None


def test_lanczos_jacobi_is_tridiagonal():
    dense = goe_dense(64, seed=89, replica=4)
    walk = list(itertools.islice(sp.lanczos_jacobi(dense, 5), 6))
    t = walk[-1]
    assert t.shape == (6, 6)
    assert np.array_equal(t, np.triu(np.tril(t, 1), -1)) and np.array_equal(t, t.T)
    assert t[0, 0] == dense[5, 5]  # alpha_1 = e_j^T M e_j
    assert np.all(np.diag(t, 1) > 0)
    # each T_k extends the one before it, and integrates degree < 2k exactly: (M^4)_jj at k = 3
    assert all(np.array_equal(a, b[:-1, :-1]) for a, b in zip(walk, walk[1:]))
    assert sp.matrix_function_entry(sp.eigh(walk[2]), monomial(4), 0) == pytest.approx(
        np.linalg.matrix_power(dense, 4)[5, 5], rel=1e-13)


def test_lanczos_breakdown_is_exact():
    """e_j inside a 3-dimensional invariant subspace: Lanczos stops at k <= 3 with the exact value."""
    rng = np.random.default_rng(97)
    block = rng.standard_normal((3, 3))
    rest = rng.standard_normal((61, 61))
    a = np.zeros((64, 64))
    a[:3, :3] = (block + block.T) / 2
    a[3:, 3:] = (rest + rest.T) / 2
    m = packed(a)
    phis = [gaussian_damped([0.0, 1.0, 0.0, 0.5], 0.5), oracles.Trigonometric(1.0, 1.0)]
    dec = sp.eigh(a)
    first = hn.lanczos_first_read(phis, 1.0)
    for j in range(3):
        values, size = hn.phi_entries(m, j, phis, first)
        assert size <= 3
        for p, value in zip(phis, values):
            assert value == pytest.approx(sp.matrix_function_entry(dec, p, j), rel=1e-13, abs=1e-15)
    diagonal = packed(np.diag([0.5, -1.0, 2.0]))
    values, size = hn.phi_entries(diagonal, 1, phis, first)
    assert size == 1
    assert list(values) == [p(-1.0) for p in phis]


@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_lanczos_steps_never_exceed_n(n):
    m = en.sample_matrix(goe_spec(), n, seed=101, replica=n)
    narrow = [gaussian_damped([1.0], 0.25)]  # not converged before k = n, so the cap stops it
    dec = sp.eigh(m.dense())
    for j in range(n):
        values, size = hn.phi_entries(m, j, narrow, hn.lanczos_first_read(narrow, 1.0))
        assert size == n
        assert values[0] == pytest.approx(sp.matrix_function_entry(dec, narrow[0], j), rel=1e-12)


def test_lanczos_first_read_is_the_first_rule_exact_to_the_resolved_degree():
    """K0 = ceil((D + 1) / 2), D the last Chebyshev-U index above GAUSS_TOLERANCE * max|a|, the
    smallest over the smooth phis; it does not depend on phi's scale, a tail that never falls
    below the tolerance gives 64, and the eigh and power routes get None."""
    odd, even = gaussian_damped([0, 1.0, 0, 0.5], 1.0), gaussian_damped([1.0, 0, 1.0], 1.2)
    assert [hn.lanczos_first_read(phis, 1.0) for phis in ([odd], [even], [odd, even], [even, odd])] \
        == [14, 13, 13, 13]  # D = 27 and 24: the benchmark's phis
    assert hn.lanczos_first_read([gaussian_damped([0, 1e-20, 0, 0.5e-20], 1.0), monomial(3)], 1.0) == 14
    assert hn.lanczos_first_read([gaussian_damped([1.0], 0.05)], 1.0) == 64
    assert hn.lanczos_first_read([oracles.Trigonometric(0.4, 1.0)], 1.0) >= 3
    assert hn.lanczos_first_read([monomial(3)], 1.0) is None
    assert hn.lanczos_first_read([odd, tabulated([-3.0, 3.0], [0.0, 1.0])], 1.0) is None


@pytest.mark.parametrize("c", [1.0, 1e-3, 1e-6, 1e-9, 1e-12, 1e-20])
def test_small_valued_phi_reads_to_the_battery_tolerance(c):
    """phi = c (x + x^3/2) e^{-x^2/2} agrees with the full eigh to 1e-12 of
    sum_a |phi(lambda_a)| Q_ja^2 at every scale c.  The tolerance floor max(1, |value|)
    is absolute below 1, so a rule read from k = 3 on stops at k = 3 once c <= 1e-12;
    K0 does not depend on c, and no rule smaller than K0 - 2 is read."""
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("uniform", 1.0))
    phi = gaussian_damped([0.0, c, 0.0, 0.5 * c], 1.0)
    values, steps = hn.matrix_element_samples(spec, 512, 255, [phi], 7, 20)
    for r in range(20):
        dec = sp.eigh(en.sample_matrix(spec, 512, 7, r).dense())
        scale = sp.matrix_function_entry(dec, lambda x: np.abs(phi(x)), 255)
        assert abs(values[r, 0] - sp.matrix_function_entry(dec, phi, 255)) <= 1e-12 * scale, r
    assert steps >= hn.lanczos_first_read([phi], 1.0)


def test_lanczos_contracts():
    """lanczos_jacobi is a generator, so it checks j on its first step."""
    dense = goe_dense(8, seed=103)
    for j in (8, -1):
        walk = sp.lanczos_jacobi(dense, j)
        with pytest.raises(ContractError):
            next(walk)


# ---------------------------------------------------------------------------
# propagator
# ---------------------------------------------------------------------------


def test_propagator_at_zero_is_identity_exactly():
    dec = sp.eigh(goe_dense(12, seed=19))
    diag, row = sp.propagator_slices(dec, 0, [0.0, 0.5])
    assert row[0, 0] == 1.0 + 0.0j
    assert row[0, 1] == 0.0 + 0.0j
    assert np.all(diag[0] == 1.0)


def test_propagator_unitarity_random_rows():
    rng = np.random.default_rng(23)
    dec = sp.eigh(goe_dense(60, seed=29))
    for _ in range(100):
        j = int(rng.integers(0, 60))
        t = float(rng.uniform(-5, 5))
        row = sp.propagator_slices(dec, j, [t])[1][0]
        total = float(np.sum(np.abs(row) ** 2))
        assert 1 - 1e-9 <= total <= 1 + 1e-9


def test_propagator_group_law():
    dec = sp.eigh(goe_dense(40, seed=37))
    t1, t2 = 0.8, 1.7
    lhs = sp.propagator_slices(dec, 5, [t1 + t2])[1][0, 5]
    rhs = np.sum(sp.propagator_slices(dec, 5, [t1])[1][0]
                 * np.array([sp.propagator_slices(dec, k, [t2])[1][0, 5] for k in range(40)]))
    assert abs(lhs - rhs) <= 1e-10


def test_propagator_entries_bounded():
    dec = sp.eigh(goe_dense(50, seed=41))
    t = np.linspace(-4, 4, 33)
    for j in range(5):
        diag, row = sp.propagator_slices(dec, j, t)
        assert np.max(np.abs(row[:, :5])) <= 1.0 + 1e-12
        assert np.max(np.abs(diag)) <= 1.0 + 1e-12


def test_propagator_entries_match_spectral_sum():
    # oracle: U_jk(t) = sum_a e^{i t lambda_a} Q_ja Q_ka, with U(0) = I exact
    dec = sp.eigh(goe_dense(50, seed=47))
    pairs = [(3, 3), (3, 7), (0, 49), (7, 3), (3, 0)]
    t = np.array([0.0, -2.5, 0.4, 0.0, 3.0])
    q = dec.eigenvectors
    phases = np.exp(1j * np.multiply.outer(t, dec.eigenvalues))
    entries = {}
    for j, k in pairs:
        diag, row = sp.propagator_slices(dec, j, t)
        assert diag.shape == row.shape == (5, 50)
        entries[j, k] = row[:, k]
        assert np.max(np.abs(row[:, k] - phases @ (q[j] * q[k]))) <= 1e-13
        assert np.max(np.abs(diag[:, k] - phases @ (q[k] * q[k]))) <= 1e-13
        assert row[0, k] == float(j == k)
        assert np.array_equal(row[3], row[0]) and np.array_equal(diag[3], diag[0])
    assert np.max(np.abs(entries[3, 7] - entries[7, 3])) <= 1e-13  # U(t) is symmetric


def test_propagator_index_bounds():
    dec = sp.eigh(goe_dense(8, seed=43))
    for j in (-1, 8):
        with pytest.raises(ContractError):
            sp.propagator_slices(dec, j, [0.0])
    with pytest.raises(ContractError):
        sp.propagator_slices(dec, 0, [np.inf])


# ---------------------------------------------------------------------------
# trace/row statistics
# ---------------------------------------------------------------------------


def bruteforce_lemma_row(q, lam, j, t):
    """The five statistics at (t, t, t) from U = Q e^{i Lambda t} Q^T, in DECAY_STATISTICS order."""
    n = lam.size
    u = (q * np.exp(1j * t * lam)) @ q.T
    d = np.diag(u)
    return np.array([u[j, j], np.trace(u) / n, np.sum(d * d) / n,
                     np.sum(u[j] * d) / math.sqrt(n), np.sum(u[j] ** 3)])


def test_lemma_statistics_at_zero():
    n = 30
    dec = sp.eigh(goe_dense(n, seed=47))
    stats = sp.lemma_statistics(dec, 3, [0.0])
    assert stats.tolist() == [[1.0, 1.0, 1.0, 1.0 / np.sqrt(n), 1.0]]  # U(0) = I exactly


def test_lemma_statistics_bounds():
    rng = np.random.default_rng(53)
    dec = sp.eigh(goe_dense(80, seed=59))
    stats = sp.lemma_statistics(dec, 7, rng.uniform(-3, 3, size=25))
    u_jj, v_n, v_n_pair, _, v_n2 = np.abs(stats).T
    assert max(u_jj.max(), v_n.max(), v_n_pair.max()) <= 1.0 + 1e-12
    # sum_k |U_jk|^3 <= sum_k |U_jk|^2 = 1
    assert v_n2.max() <= 1.0 + 1e-9


def test_lemma_statistics_contracts():
    dec = sp.eigh(goe_dense(10, seed=61))
    stats = sp.lemma_statistics(dec, 0, [1.0, 0.0, 2.0, 1.0])
    assert stats.shape == (4, len(sp.DECAY_STATISTICS)) and stats.dtype == complex
    assert np.array_equal(stats[3], stats[0])
    assert sp.lemma_statistics(dec, 0, []).shape == (0, len(sp.DECAY_STATISTICS))
    with pytest.raises(ContractError):
        sp.lemma_statistics(dec, 10, [1.0])
    with pytest.raises(ContractError):
        sp.lemma_statistics(dec, 0, [1.0, np.nan])


def test_lemma_statistics_match_bruteforce():
    n = 16
    dec = sp.eigh(goe_dense(n, seed=67))
    ts = [0.7, 1.3, -0.4, 0.0]
    j = 2
    stats = sp.lemma_statistics(dec, j, ts)
    for i, t in enumerate(ts):
        want = bruteforce_lemma_row(dec.eigenvectors, dec.eigenvalues, j, t)
        assert np.max(np.abs(stats[i] - want)) <= 1e-12


def test_propagator_slices_match_bruteforce_battery():
    """One-pass diagonals, rows and lemma statistics against U = Q e^{i Lambda t} Q^T."""
    rng = np.random.default_rng(71)
    for n in (16, 33, 64, 128, 512, 640):
        dec = sp.eigh(goe_dense(n, seed=73, replica=n))
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
            stats = sp.lemma_statistics(dec, j, ts)
            for i, t in enumerate(ts):
                assert np.max(np.abs(stats[i] - bruteforce_lemma_row(q, lam, j, t))) <= 1e-12


def test_propagator_slices_contracts():
    dec = sp.eigh(goe_dense(8, seed=79))
    with pytest.raises(ContractError):
        sp.propagator_slices(dec, 8, [1.0])
    with pytest.raises(ContractError):
        sp.propagator_slices(dec, 0, [np.nan])
