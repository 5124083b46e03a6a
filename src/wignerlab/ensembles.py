"""Entry distributions and samplers for real symmetric Wigner/GOE matrices.

Normalizations: the sampled matrix is M = n^{-1/2} W where off-diagonal
entries of W are i.i.d. with mean 0 and variance w^2.  Diagonal variance is
set by the convention:

  paper_symmetric  W_jj = sqrt(2) V_jj      (diagonal variance 2 w^2)
  goe              Gaussian paper_symmetric  (the classical invariant ensemble)
  general_diagonal W_jj = sqrt(w2) V_jj     (diagonal variance w2 w^2)

Sampling is counter-based (Philox keyed by (root seed, n, replica)), so any
replica regenerates bit-identically and distinct replicas are independent
streams that may be drawn in parallel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import seeding
from .cumulants import MAX_ORDER, moments_to_cumulants
from .errors import ContractError

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
TWO_POINT = "two_point"
UNIFORM = "uniform"
DISCRETE_CUSTOM = "discrete_custom"

KINDS = (GAUSSIAN, RADEMACHER, TWO_POINT, UNIFORM, DISCRETE_CUSTOM)

PAPER_SYMMETRIC = "paper_symmetric"
GOE = "goe"
GENERAL_DIAGONAL = "general_diagonal"

CONVENTIONS = (PAPER_SYMMETRIC, GOE, GENERAL_DIAGONAL)

_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class EntryDistribution:
    """One off-diagonal entry law, with exact moments and cumulants."""

    kind: str
    w: float
    moments: tuple[float, ...]  # mu_1..mu_8
    kappas: tuple[float, ...]  # kappa_1..kappa_8, the one cumulant source
    atoms: np.ndarray | None = None
    probs: np.ndarray | None = None

    @property
    def kappa4(self) -> float:
        return self.cumulant(4)

    @property
    def var_x2(self) -> float:
        """Var(X^2) = kappa4 + 2 w^4 >= 0, formed without that cancellation: a discrete law
        sums p (x^2 - w^2)^2 over its atoms, which is exactly 0.0 for Rademacher."""
        if self.kind == GAUSSIAN:
            return 2.0 * self.w**4
        if self.kind == UNIFORM:
            return 0.8 * self.w**4
        if self.atoms is not None:
            squares = self.atoms**2
            return float(self.probs @ (squares - self.probs @ squares) ** 2)
        raise ContractError(f"no Var(X^2) available for kind {self.kind!r}")

    def cumulant(self, order: int) -> float:
        """kappa_l for l in 1..8, read from the table."""
        if not 1 <= order <= MAX_ORDER:
            raise ContractError(f"cumulant order {order} is outside 1..{MAX_ORDER}")
        return self.kappas[order - 1]

    def descriptor(self) -> dict:
        d: dict = {"kind": self.kind, "w": self.w}
        if self.atoms is not None:
            d["atoms"] = [float(a) for a in self.atoms]
            d["probs"] = [float(p) for p in self.probs]
        return d


def _finalize(kind: str, w: float, moments: Sequence[float],
              atoms: np.ndarray | None = None, probs: np.ndarray | None = None) -> EntryDistribution:
    mu = tuple(float(m) for m in moments)
    # the Gaussian table is exact; the moment recursion would leave rounding in kappa_3..kappa_8
    kappas = ((0.0, w**2) + (0.0,) * (MAX_ORDER - 2) if kind == GAUSSIAN
              else moments_to_cumulants(mu))
    if not all(math.isfinite(v) for v in mu + kappas):
        raise OverflowError("non-finite moment or cumulant")
    if abs(mu[0]) > _ATOL * max(w, 1.0):
        raise ContractError(f"entry law must have mean 0, got {mu[0]}")
    if abs(mu[1] - w * w) > _ATOL * max(w * w, 1.0):
        raise ContractError(f"entry law must have variance w^2 = {w*w}, got {mu[1]}")
    return EntryDistribution(kind=kind, w=float(w), moments=mu, kappas=kappas, atoms=atoms, probs=probs)


def make_entry_distribution(kind: str, w: float, params: dict | None = None) -> EntryDistribution:
    """Build an entry law of the given kind with off-diagonal std-dev w.

    Discrete kinds take params {"atoms": [...], "probs": [...]}; the atoms must
    already have mean 0 and variance w^2 (they are not rescaled here).  The
    other kinds read no params, and passing any is a ContractError.
    """
    if w <= 0 or not math.isfinite(w):
        raise ContractError(f"scale w must be positive and finite, got {w}")
    if params is not None and kind in (GAUSSIAN, RADEMACHER, UNIFORM):
        raise ContractError(f"{kind} takes no params")
    params = params or {}
    try:  # Python float powers raise OverflowError, and _finalize does on inf moments
        if w**8 < sys.float_info.min:  # the limit laws divide kappa4 by w^8
            raise ContractError(
                f"{kind} moments up to order {MAX_ORDER} underflow the float range at w = {w}")
        if kind == GAUSSIAN:
            mu = (0.0, w**2, 0.0, 3 * w**4, 0.0, 15 * w**6, 0.0, 105 * w**8)
            return _finalize(kind, w, mu)

        if kind == RADEMACHER:
            atoms = np.array([-w, w])
            probs = np.array([0.5, 0.5])
            return _discrete(kind, w, atoms, probs)

        if kind == UNIFORM:
            a = math.sqrt(3.0) * w
            mu = (0.0, a**2 / 3, 0.0, a**4 / 5, 0.0, a**6 / 7, 0.0, a**8 / 9)
            return _finalize(kind, w, mu)

        if kind in (TWO_POINT, DISCRETE_CUSTOM):
            if "atoms" not in params or "probs" not in params:
                raise ContractError(f"{kind} requires params 'atoms' and 'probs'")
            atoms = np.asarray(params["atoms"], dtype=float)
            probs = np.asarray(params["probs"], dtype=float)
            if kind == TWO_POINT and atoms.size != 2:
                raise ContractError("two_point takes exactly two atoms")
            return _discrete(kind, w, atoms, probs)
    except OverflowError as exc:
        raise ContractError(
            f"{kind} moments up to order {MAX_ORDER} overflow the float range at w = {w}") from exc

    raise ContractError(f"unknown distribution kind {kind!r}")


def _discrete(kind: str, w: float, atoms: np.ndarray, probs: np.ndarray) -> EntryDistribution:
    if atoms.ndim != 1 or atoms.shape != probs.shape or atoms.size < 1:
        raise ContractError("atoms and probs must be matching 1-D arrays")
    if np.any(probs < 0):
        raise ContractError("probabilities must be nonnegative")
    if abs(float(np.sum(probs)) - 1.0) > 1e-14:
        raise ContractError(f"probabilities sum to {float(np.sum(probs))}, not 1")
    with np.errstate(over="ignore", invalid="ignore"):  # _finalize rejects inf and nan
        mu = [float(np.sum(probs * atoms**p)) for p in range(1, MAX_ORDER + 1)]
    atoms = atoms.copy()
    probs = probs.copy()
    atoms.setflags(write=False)
    probs.setflags(write=False)
    return _finalize(kind, w, mu, atoms=atoms, probs=probs)


def entry_cf(dist: EntryDistribution, x):
    """Exact characteristic function E{e^{i x V}} of one entry."""
    x_arr = np.asarray(x, dtype=float)
    if dist.kind == GAUSSIAN:
        out = np.exp(-(dist.w**2) * x_arr**2 / 2.0) + 0.0j
    elif dist.kind == UNIFORM:
        a = math.sqrt(3.0) * dist.w
        out = np.sinc(a * x_arr / math.pi) + 0.0j  # np.sinc(y) = sin(pi y)/(pi y)
    elif dist.atoms is not None:
        out = np.exp(1j * np.multiply.outer(x_arr, dist.atoms)) @ dist.probs
    else:
        raise ContractError(f"no characteristic function available for kind {dist.kind!r}")
    return complex(out) if np.isscalar(x) else out


# ---------------------------------------------------------------------------
# ensembles and matrix sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    entry_dist: EntryDistribution
    convention: str = PAPER_SYMMETRIC
    w2: float = 2.0  # diagonal variance ratio Var{W_jj} = w2 * w^2

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ContractError(f"unknown convention {self.convention!r}")
        if self.convention in (PAPER_SYMMETRIC, GOE) and self.w2 != 2.0:
            raise ContractError(f"convention {self.convention!r} fixes w2 = 2, got {self.w2}")
        if self.convention == GOE and self.entry_dist.kind != GAUSSIAN:
            raise ContractError("goe convention requires a gaussian entry law")
        if not (self.w2 > 0 and math.isfinite(self.w2)):
            raise ContractError(f"w2 must be positive and finite, got {self.w2}")

    @property
    def w(self) -> float:
        return self.entry_dist.w

    @property
    def diag_scale(self) -> float:
        return math.sqrt(self.w2)

    def descriptor(self) -> dict:
        return {
            "entry_dist": self.entry_dist.descriptor(),
            "convention": self.convention,
            "w2": self.w2,
        }


# rows per band of dense(): a 128-row band of the column strip above it (1 KiB per row) stays in cache
_DENSE_BAND = 128


@lru_cache(maxsize=32)
def _lower_mask(n: int) -> np.ndarray:
    lower = np.tri(n, dtype=bool)
    lower.setflags(write=False)
    return lower


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Packed lower-triangular storage of M = n^{-1/2} W (row-major rows 0..n-1).

    Its entries are checked once, when it is built, on the n(n+1)/2 packed
    values: each must be finite, so no reader of dense() checks them again.
    """

    n: int
    data: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.data)):
            raise ContractError("matrix entries must be finite")

    def dense(self) -> np.ndarray:
        """M as a fresh, writable, C-contiguous n x n array.

        Row-major packed lower storage is the C order of the lower-triangle mask, so
        the rows a..e-1 of a band are one contiguous run of the packed data.  Each
        128-row band is filled by one masked assignment of its lower rows, its
        columns left of the diagonal are copied transposed into the column strip
        above it, and its diagonal block is mirrored in place.  Every cell is a copy
        of a packed value.
        """
        n = self.n
        lower = _lower_mask(n)
        above = ~lower[:_DENSE_BAND, :_DENSE_BAND]
        m = np.empty((n, n))
        for a in range(0, n, _DENSE_BAND):
            e = min(a + _DENSE_BAND, n)
            rows = m[a:e]
            rows[lower[a:e]] = self.data[a * (a + 1) // 2:e * (e + 1) // 2]
            m[:a, a:e] = rows[:, :a].T
            block = rows[:, a:e]
            np.copyto(block, block.T, where=above[:e - a, :e - a])
        return m


def _continuous(dist: EntryDistribution, size: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. entries of a Gaussian or uniform law, in a fresh array."""
    if dist.kind == GAUSSIAN:
        x = rng.standard_normal(size)
        x *= dist.w
        return x
    a = math.sqrt(3.0) * dist.w
    return rng.uniform(-a, a, size)


def _atom_index(dist: EntryDistribution, size: int, rng: np.random.Generator) -> np.ndarray:
    """Indices into dist.atoms of i.i.d. entries of a discrete law.

    A Rademacher index is the top bit of each 32-bit half of the Philox words,
    low half first: the stream integers(0, 2) draws, read straight from the words.
    """
    if dist.kind == RADEMACHER:
        return rng.bit_generator.random_raw(-(-size // 2)).view(np.uint32)[:size] >> 31
    # inverse CDF on one uniform per entry
    edges = np.cumsum(dist.probs)
    return np.searchsorted(edges, rng.random(size), side="right").clip(max=dist.atoms.size - 1)


def sample_matrix(spec: EnsembleSpec, n: int, seed: int, replica: int = 0) -> SymmetricMatrix:
    """Draw one matrix M = n^{-1/2} W.  Deterministic in (spec, n, seed, replica).

    One variate per packed entry, in packed order.  The diagonal entries
    (packed index i(i+3)/2) are multiplied by diag_scale, then every entry by
    1/sqrt(n), in that order.  A discrete law looks its values up in its atoms
    pre-multiplied in that same order: one gather, with the same bits.  The
    Rademacher atoms -w, w are w (2k - 1) at its index k; its off-diagonal
    values -h, h (h = w / sqrt(n)) are formed as k (2h) - h, which is exact.
    Every entry is finite, since the entry law's moments up to order 8 are.
    """
    if n < 2:
        raise ContractError("matrix size n must be >= 2")
    rng = seeding.generator(seed, [seeding.DOMAIN_MATRIX, n, replica])
    dist = spec.entry_dist
    size = n * (n + 1) // 2
    diag_idx = np.arange(n) * (np.arange(n) + 3) // 2
    scale = 1.0 / math.sqrt(n)
    if dist.atoms is None:
        packed = _continuous(dist, size, rng)
        packed[diag_idx] *= spec.diag_scale
        packed *= scale
    else:
        k = _atom_index(dist, size, rng)
        if dist.kind == RADEMACHER:  # -h, h at index 0, 1 are k (2h) - h exactly: no gather
            h = dist.atoms[1] * scale
            packed = np.multiply(k, 2.0 * h)
            packed -= h
        else:
            packed = (dist.atoms * scale)[k]
        packed[diag_idx] = ((dist.atoms * spec.diag_scale) * scale)[k[diag_idx]]
    packed.setflags(write=False)
    return SymmetricMatrix(n=n, data=packed)
