import hashlib
import math
import zlib

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from wignerlab import ensembles as en
from wignerlab.cumulants import moments_to_cumulants
from wignerlab.errors import ContractError


def test_gaussian_cumulants_vanish():
    dist = en.make_entry_distribution("gaussian", 1.0)
    assert dist.kappas[2] == 0.0
    assert dist.kappa4 == 0.0
    assert dist.moments[3] == pytest.approx(3.0)


def test_rademacher_fourth_cumulant():
    dist = en.make_entry_distribution("rademacher", 1.0)
    assert dist.moments[3] == pytest.approx(1.0)
    assert dist.kappa4 == pytest.approx(-2.0)


def test_uniform_fourth_cumulant():
    w = 1.4
    dist = en.make_entry_distribution("uniform", w)
    # mu4 = 9w^4/5 for the centered uniform with variance w^2
    assert dist.moments[3] == pytest.approx(9 * w**4 / 5, rel=1e-13)
    assert dist.kappa4 == pytest.approx(-1.2 * w**4, rel=1e-13)


def test_two_point_valid_example():
    dist = en.make_entry_distribution(
        "two_point", 1.0, {"atoms": [-0.5, 2.0], "probs": [0.8, 0.2]}
    )
    assert dist.moments[0] == pytest.approx(0.0, abs=1e-15)
    assert dist.moments[1] == pytest.approx(1.0)
    assert dist.moments[2] == pytest.approx(1.5)  # -0.125*0.8 + 8*0.2
    assert dist.kappa4 == pytest.approx(3.25 - 3.0)


def test_two_point_uncentered_atoms_rejected():
    # atoms {-1 w.p. 0.8, +2 w.p. 0.2} have mean -0.4 and variance 1.44
    with pytest.raises(ContractError):
        en.make_entry_distribution("two_point", 1.0, {"atoms": [-1.0, 2.0], "probs": [0.8, 0.2]})


def test_discrete_validation_errors():
    with pytest.raises(ContractError):
        en.make_entry_distribution("discrete_custom", 1.0, {"atoms": [-1, 1], "probs": [0.6, 0.6]})
    with pytest.raises(ContractError):
        en.make_entry_distribution("discrete_custom", 1.0, {"atoms": [-1, 1], "probs": [1.2, -0.2]})
    with pytest.raises(ContractError):
        en.make_entry_distribution("two_point", 1.0, {"atoms": [-1, 0, 1], "probs": [0.3, 0.4, 0.3]})
    with pytest.raises(ContractError):
        en.make_entry_distribution("gaussian", -1.0)
    with pytest.raises(ContractError):
        en.make_entry_distribution("cauchy", 1.0)


@pytest.mark.parametrize("kind,params", [
    ("gaussian", None),
    ("rademacher", None),
    ("uniform", None),
    ("two_point", {"atoms": [-0.55, 2.2], "probs": [0.8, 0.2]}),  # variance 1.1^2
])
def test_stored_moments_cumulants_consistent(kind, params):
    dist = en.make_entry_distribution(kind, 1.1, params)
    derived = moments_to_cumulants(dist.moments)
    for order in range(1, 9):
        assert derived[order - 1] == pytest.approx(dist.kappas[order - 1], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind,params", [
    ("gaussian", None),
    ("rademacher", None),
    ("uniform", None),
    ("two_point", {"atoms": [-0.5, 2.0], "probs": [0.8, 0.2]}),
])
def test_empirical_moments_match(kind, params):
    dist = en.make_entry_distribution(kind, 1.0, params)
    draws = oracles.sample_entries(dist, 1_000_000, seed=101, labels=[zlib.crc32(kind.encode()) % 1000])
    n = draws.size
    for order in (2, 3, 4):
        est = float(np.mean(draws**order))
        # se of the order-th sample moment from the 2*order-th moment
        se = math.sqrt(max(dist.moments[2 * order - 1] - dist.moments[order - 1] ** 2, 1e-30) / n)
        assert abs(est - dist.moments[order - 1]) <= 4 * se


def test_entry_cf_values():
    rad = en.make_entry_distribution("rademacher", 1.0)
    assert en.entry_cf(rad, 0.0) == pytest.approx(1.0)
    assert en.entry_cf(rad, math.pi) == pytest.approx(-1.0)
    gauss = en.make_entry_distribution("gaussian", 1.0)
    assert en.entry_cf(gauss, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    uni = en.make_entry_distribution("uniform", 1.0)
    a = math.sqrt(3.0)
    assert en.entry_cf(uni, 2.0) == pytest.approx(math.sin(2 * a) / (2 * a), abs=1e-12)


def test_entry_cf_gaussian_against_density_quadrature():
    gauss = en.make_entry_distribution("gaussian", 1.0)
    x = 1.0
    oracle = quad(lambda v: math.cos(x * v) * math.exp(-v * v / 2) / math.sqrt(2 * math.pi),
                  -10, 10)[0]
    assert en.entry_cf(gauss, x).real == pytest.approx(oracle, abs=1e-10)
    assert en.entry_cf(gauss, x).imag == 0.0


def test_entry_cf_unsupported_kind():
    fake = en.EntryDistribution(kind="mystery", w=1.0, moments=(0, 1, 0, 3, 0, 15),
                                kappas=(0, 1, 0, 0, 0, 0))
    with pytest.raises(ContractError):
        en.entry_cf(fake, 1.0)


def test_on_demand_cumulants_to_order_8():
    rad = en.make_entry_distribution("rademacher", 1.0)
    # kappa_6 = 16, kappa_8 = -272 for the +-1 law
    assert rad.cumulant(6) == pytest.approx(16.0)
    assert rad.cumulant(8) == pytest.approx(-272.0)
    gauss = en.make_entry_distribution("gaussian", 2.0)
    assert gauss.cumulant(2) == pytest.approx(4.0)
    assert gauss.cumulant(7) == 0.0
    with pytest.raises(ContractError):
        rad.cumulant(9)


@pytest.mark.parametrize("w", [0.1, 0.3, 1.1, 2.9])
def test_gaussian_cumulant_table_is_exact(w):
    """The table is the only cumulant source, so the Gaussian law stores its exact cumulants
    and cumulant() range-checks like every other kind."""
    gauss = en.make_entry_distribution("gaussian", w)
    assert gauss.kappas == (0.0, w**2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert [gauss.cumulant(order) for order in range(1, 9)] == list(gauss.kappas)
    assert gauss.kappa4 == gauss.cumulant(4) == 0.0
    for order in (0, 9):
        with pytest.raises(ContractError):
            gauss.cumulant(order)


# ---------------------------------------------------------------------------
# ensemble specs
# ---------------------------------------------------------------------------


def test_spec_validation():
    gauss = en.make_entry_distribution("gaussian", 1.0)
    rad = en.make_entry_distribution("rademacher", 1.0)
    en.EnsembleSpec(entry_dist=gauss, convention="goe")
    en.EnsembleSpec(entry_dist=rad, convention="general_diagonal", w2=1.0)
    with pytest.raises(ContractError):
        en.EnsembleSpec(entry_dist=gauss, convention="paper_symmetric", w2=1.5)
    with pytest.raises(ContractError):
        en.EnsembleSpec(entry_dist=rad, convention="goe")
    with pytest.raises(ContractError):
        en.EnsembleSpec(entry_dist=rad, convention="general_diagonal", w2=-1.0)
    for w2 in (math.nan, math.inf):
        with pytest.raises(ContractError):
            en.EnsembleSpec(entry_dist=rad, convention="general_diagonal", w2=w2)
    with pytest.raises(ContractError):
        en.EnsembleSpec(entry_dist=rad, convention="bogus")


# ---------------------------------------------------------------------------
# matrix sampling
# ---------------------------------------------------------------------------


def test_sample_matrix_deterministic():
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("rademacher", 1.0))
    a = en.sample_matrix(spec, 32, seed=5, replica=2)
    b = en.sample_matrix(spec, 32, seed=5, replica=2)
    assert a.data.tobytes() == b.data.tobytes()
    c = en.sample_matrix(spec, 32, seed=5, replica=3)
    assert a.data.tobytes() != c.data.tobytes()


def test_sample_matrix_requires_n_ge_2():
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("gaussian", 1.0))
    with pytest.raises(ContractError):
        en.sample_matrix(spec, 1, seed=0)


def test_rademacher_entry_support():
    w = 0.7
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("rademacher", w))
    m = en.sample_matrix(spec, 40, seed=12)
    scaled = m.dense() * math.sqrt(40)
    off = scaled[np.tril_indices(40, -1)]
    assert set(np.round(np.abs(off), 12)) == {round(w, 12)}
    diag = np.diag(scaled)
    assert set(np.round(np.abs(diag), 12)) == {round(math.sqrt(2) * w, 12)}


def test_goe_small_matrix_variances():
    # Var{W_11} = 2 w^2 and Var{W_12} = w^2 over 1e5 draws, within 3 se
    w = 1.0
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("gaussian", w), convention="goe")
    draws = 100_000
    w11 = np.empty(draws)
    w12 = np.empty(draws)
    sqrt2 = math.sqrt(2.0)
    for r in range(draws):
        m = en.sample_matrix(spec, 2, seed=77, replica=r)
        w11[r] = m.data[0] * sqrt2  # data stores n^{-1/2} W
        w12[r] = m.data[1] * sqrt2
    se_var2 = math.sqrt(2.0 / draws) * 2 * w * w  # se of variance of N(0, 2w^2)
    se_var1 = math.sqrt(2.0 / draws) * w * w
    assert abs(w11.var() - 2 * w * w) <= 3 * se_var2
    assert abs(w12.var() - w * w) <= 3 * se_var1


def test_general_diagonal_variance_ratio():
    w2 = 3.0
    spec = en.EnsembleSpec(
        entry_dist=en.make_entry_distribution("gaussian", 1.0), convention="general_diagonal", w2=w2
    )
    draws = 40_000
    diag = np.empty(draws)
    for r in range(draws):
        diag[r] = en.sample_matrix(spec, 2, seed=3, replica=r).data[0] * math.sqrt(2.0)
    se = math.sqrt(2.0 / draws) * w2
    assert abs(diag.var() - w2) <= 4 * se


def test_replica_streams_uncorrelated():
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("gaussian", 1.0))
    n = 450  # packed size 101475 >= 1e5 entries
    a = en.sample_matrix(spec, n, seed=21, replica=0).data
    b = en.sample_matrix(spec, n, seed=21, replica=1).data
    r = float(np.corrcoef(a, b)[0, 1])
    assert abs(r) <= 4.0 / math.sqrt(a.size)


def test_dense_and_diagonal_accessors():
    spec = en.EnsembleSpec(entry_dist=en.make_entry_distribution("gaussian", 1.0))
    m = en.sample_matrix(spec, 9, seed=1)
    dense = m.dense()
    assert np.array_equal(dense, dense.T)
    i = np.arange(m.n)
    assert np.array_equal(np.diag(dense), m.data[i * (i + 3) // 2])  # packed row i ends at M[i, i]


def _dense_oracle(m: en.SymmetricMatrix) -> np.ndarray:
    """Row by row: packed row i holds M[i, 0..i], written to row i and to column i."""
    out = np.zeros((m.n, m.n))
    start = 0
    for i in range(m.n):
        row = m.data[start:start + i + 1]
        out[i, :i + 1] = row
        out[:i + 1, i] = row
        start += i + 1
    assert start == m.data.size
    return out


def _assert_dense_is_oracle(m: en.SymmetricMatrix) -> None:
    dense = m.dense()
    expected = _dense_oracle(m)
    assert dense.dtype == np.float64 and dense.shape == (m.n, m.n)
    assert dense.flags.c_contiguous and dense.flags.writeable
    assert np.array_equal(dense.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(dense.view(np.uint64), dense.T.view(np.uint64))
    dense[...] = np.nan  # the next unpack owns fresh memory and reads nothing shared back
    assert np.array_equal(m.dense().view(np.uint64), expected.view(np.uint64))


# every kind at w = 1.3; the discrete atoms have mean 0 and variance 1.3^2
_PARAMS = {
    "two_point": {"atoms": [-0.65, 2.6], "probs": [0.8, 0.2]},
    "discrete_custom": {"atoms": [-2.6, 0.0, 2.6], "probs": [0.125, 0.75, 0.125]},
}


def _dist(kind: str) -> en.EntryDistribution:
    return en.make_entry_distribution(kind, 1.3, _PARAMS.get(kind))


@pytest.mark.parametrize("kind", en.KINDS)
@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 127, 128, 129, 200, 255, 256, 257, 1000, 1024])
def test_dense_is_bit_identical_to_row_oracle(kind, n):
    """Sizes on both sides of the 128-row bands: below, at and above one and two bands,
    odd sizes, and benchmark size with full (1024) and ragged (1000) last bands."""
    spec = en.EnsembleSpec(entry_dist=_dist(kind))
    _assert_dense_is_oracle(en.sample_matrix(spec, n, seed=8, replica=n))


@pytest.mark.parametrize("n", [3, 64, 129])
def test_dense_keeps_signed_zeros(n):
    """-0.0 and +0.0 compare equal, so only the bits show a lost sign or an unwritten cell."""
    size = n * (n + 1) // 2
    data = np.arange(1.0, size + 1.0)
    data[::3] = -0.0
    data[1::7] = 0.0
    data.setflags(write=False)
    _assert_dense_is_oracle(en.SymmetricMatrix(n=n, data=data))


def test_symmetric_matrix_rejects_nonfinite_entries():
    """A SymmetricMatrix checks its packed entries once, when it is built: NaN, +inf and -inf
    are each rejected, on the diagonal (packed index 0), off it (1) and in the last place (5)."""
    for bad in (np.nan, np.inf, -np.inf):
        for index in (0, 1, 5):
            data = np.zeros(6)
            data[index] = bad
            with pytest.raises(ContractError, match="matrix entries must be finite"):
                en.SymmetricMatrix(n=3, data=data)


@pytest.mark.parametrize("kind,convention,w2", [
    ("gaussian", "paper_symmetric", 2.0),
    ("gaussian", "goe", 2.0),
    ("gaussian", "general_diagonal", 3.0),
    ("rademacher", "paper_symmetric", 2.0),
    ("rademacher", "general_diagonal", 0.5),
    ("uniform", "paper_symmetric", 2.0),
    ("uniform", "general_diagonal", 1.0),
    ("two_point", "paper_symmetric", 2.0),
    ("two_point", "general_diagonal", 3.0),
    ("discrete_custom", "paper_symmetric", 2.0),
    ("discrete_custom", "general_diagonal", 5.0),
])
@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 129, 1024])
def test_sample_matrix_bits_match_reference_ops(kind, convention, w2, n):
    """The pre-scaled atom tables and the in-place Gaussian scaling keep every bit of
    the plain draw, diagonal scale, 1/sqrt(n) sequence."""
    spec = en.EnsembleSpec(entry_dist=_dist(kind), convention=convention, w2=w2)
    data = en.sample_matrix(spec, n, seed=17, replica=n % 5).data
    expected = oracles.reference_packed(spec, n, seed=17, replica=n % 5)
    assert data.dtype == np.float64 and data.shape == (n * (n + 1) // 2,)
    assert np.array_equal(data.view(np.uint64), expected.view(np.uint64))


# (kind, seed, n, replica, first three packed values, SHA-256 of the packed bytes), recorded
# with numpy 2.4.6 under the paper_symmetric convention; n = 2 leaves half a Philox word unused
FROZEN_DRAWS = [
    ("gaussian", 7, 2, 0, [0.961494321264971, 0.14989796038820632, 2.3352963725107356],
     "9733d138d764bd8800d14b851e691797fdad1cddc7f7e2d3b7089d22d1d92d94"),
    ("gaussian", 7, 17, 3, [0.7602327054858782, -0.1485955144955142, 0.32959653844254055],
     "94f3cb85396f43afaabb2a13df1de915adbc2ebe1f233d9e2f4b1aa71e02e278"),
    ("gaussian", 2024, 1024, 1, [0.010751093752868746, 0.0271338568547478, -0.04727771463997644],
     "b0cb83a23466ecaa64fc69b4718a22ffd8c8ccb17e6de674dfc0442462451f51"),
    ("rademacher", 7, 2, 0, [1.3, 0.9192388155425117, 1.3],
     "a2be984da095639280ea638e262712d038097f3087e2ad571902bfb255371671"),
    ("rademacher", 7, 17, 3, [0.445896321370523, -0.3152963125472329, -0.445896321370523],
     "cbcb8cbb3c1011e189ae60007fd5f589157d6c7cc4648efa6453a3ed9d056437"),
    ("rademacher", 2024, 1024, 1, [-0.05745242597140699, -0.040625, -0.05745242597140699],
     "393f8afd6d94ad3e5dc8ae53237a9d8233e38be0a2862701d641a4dec15be572"),
    ("two_point", 7, 2, 0, [2.6, -0.4596194077712559, 2.6],
     "5c6279f9756b357056c280abebad5a6f0cd23f7eb6471dd46620cf5997330f80"),
    ("two_point", 7, 17, 3, [-0.2229481606852615, -0.15764815627361645, 0.891792642741046],
     "8959527d28eee916a9392d7f68426502fe70dd1db9ace49a907f16fc7bd7884e"),
    ("two_point", 2024, 1024, 1, [-0.028726212985703495, -0.0203125, -0.028726212985703495],
     "055344ae0e87413f1775c75bf0bcef3dee40fe699920d9f63b5703f40e18b489"),
    ("uniform", 7, 2, 0, [1.5746144485586897, -1.0831001473823905, 1.611199800624401],
     "cae8c130d1521112e3d8b19b69d7d3d35173e8abe9f0188840124a45f81dd5be"),
    ("uniform", 7, 17, 3, [-0.20397987338362797, -0.44431114464628285, 0.5614225775018342],
     "671a7e4415373b7a5d49ad7239fabd618db4c768129cf787fd4c7072bd3ec975"),
    ("uniform", 2024, 1024, 1, [-0.04774072761055851, 0.008988634456147629, 0.0080914000877631],
     "51ee17b8582c0f1465f3e9dd19377aafd02e936ac24efa194622ab758531ee41"),
    ("discrete_custom", 7, 2, 0, [0.0, 0.0, 0.0],
     "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"),
    ("discrete_custom", 7, 17, 3, [0.0, -0.6305926250944658, 0.0],
     "0edbbacd6b06b523a8f3fa37712b340604f805e834bc3485296cd96a06c4172f"),
    ("discrete_custom", 2024, 1024, 1, [0.0, 0.0, 0.0],
     "c529d804d0ce22c2e3bf8bb8b7ec32b0b11f006cc0736c74fb3c5c1d220f2874"),
]


@pytest.mark.parametrize("kind,seed,n,replica,first,digest", FROZEN_DRAWS)
def test_sample_matrix_stream_is_frozen(kind, seed, n, replica, first, digest):
    """The matrix stream is part of the contract: literal values and a digest per kind.

    oracles.reference_packed draws through the same numpy Generator methods as
    the sampler, so it cannot see a numpy release that moves a method's stream;
    these recorded vectors can.  They detect such a change, and cannot prevent it.
    """
    spec = en.EnsembleSpec(entry_dist=_dist(kind))
    data = en.sample_matrix(spec, n, seed=seed, replica=replica).data
    assert [float(x) for x in data[:3]] == first
    assert hashlib.sha256(data.tobytes()).hexdigest() == digest
