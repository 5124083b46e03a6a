"""Symmetric eigendecomposition and spectral-theorem consumers.

From one decomposition M = Q diag(lambda) Q^T per sampled matrix we read off
diagonal matrix elements phi(M)_jj = sum_a phi(lambda_a) Q_ja^2, propagator entries
U_jk(t) = sum_a e^{i t lambda_a} Q_ja Q_ka, and the trace/row statistics
v_n, v_n_pair, v_n1, v_n2 whose decay in n the Monte Carlo harness measures.
For a single phi(M)_jj, lanczos_jacobi shrinks M step by step to the small
Jacobi matrices of the Gauss rules at e_j, read through their moments or the
same consumers; it knows no test function, so the caller (harness.phi_entries)
decides when a rule is good enough.

All indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .ensembles import SymmetricMatrix
from .errors import ContractError, NumericFailureError


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues ascending; eigenvectors orthonormal in columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.size


def eigh(m: SymmetricMatrix | JacobiMatrix) -> SpectralDecomposition:
    """Full symmetric eigendecomposition of one sampled matrix or Jacobi matrix.

    Deterministic for fixed input.  A LAPACK convergence failure is re-raised
    naming the root seed, the replica and the order of the matrix, so the
    offending sample can be regenerated.
    """
    dense = m.dense()
    if not np.all(np.isfinite(dense)):
        raise ContractError("matrix entries must be finite")
    try:
        vals, vecs = np.linalg.eigh(dense)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(
            f"eigendecomposition did not converge (root seed {m.seed}, replica {m.replica_index}, "
            f"order {m.n}): {exc}") from exc
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


def _check_index(dec_n: int, j: int) -> None:
    if not 0 <= j < dec_n:
        raise ContractError(f"index j={j} out of range 0..{dec_n - 1}")


def matrix_function_entry(dec: SpectralDecomposition, phi: Callable, j: int) -> float:
    """phi(M)_jj = sum_a phi(lambda_a) Q_ja^2."""
    _check_index(dec.n, j)
    q = dec.eigenvectors
    return float(np.sum(phi(dec.eigenvalues) * q[j, :] * q[j, :]))


@dataclass(frozen=True, eq=False)
class JacobiMatrix:
    """Symmetric tridiagonal T_k: diagonal alpha (k numbers), off-diagonal beta (k - 1).

    eigh reads it like a sampled matrix; it keeps the seed and replica of the
    matrix it was reduced from, so a failure names the sample to regenerate.
    """

    alpha: np.ndarray
    beta: np.ndarray
    seed: int
    replica_index: int

    @property
    def n(self) -> int:
        return self.alpha.size

    def dense(self) -> np.ndarray:
        return np.diag(self.alpha) + np.diag(self.beta, 1) + np.diag(self.beta, -1)

    def moments(self, degree: int) -> np.ndarray:
        """(T^k)_00 for k = 0..degree: the Gauss rule's moments, so (M^k)_jj for k < 2n.

        Read from the power sequence T^k e_0 rather than eigh(T), so an entry
        every sample shares, such as (M^2)_jj for Rademacher entries, keeps its bits.
        """
        u, dense, out = np.eye(self.n)[0], self.dense(), [1.0]
        for _ in range(degree):
            u = dense @ u
            out.append(u[0])
        return np.array(out)


def lanczos_jacobi(m: SymmetricMatrix, j: int) -> Iterator[JacobiMatrix]:
    """Lanczos on M started from e_j: yields the k x k Jacobi matrices T_1, T_2, ...

    The eigenvalues of T_k are the nodes, and the squared first components of
    its eigenvectors the weights, of the k-point Gauss rule for the spectral
    measure of M at e_j (Golub & Welsch 1969), so phi(M)_jj is read as
    phi(T_k)_00; the rule is exact for polynomials of degree < 2k.  The caller
    stops reading when its estimates suffice; the walk ends by itself after a
    Krylov breakdown (the last rule is then exact) or at k = n.  Each step
    reorthogonalises against the whole basis twice; the basis holds O(k n)
    numbers.  As a generator it checks j and the entries on the first step.
    """
    _check_index(m.n, j)
    if not np.all(np.isfinite(m.data)):
        raise ContractError("matrix entries must be finite")
    n = m.n
    dense = m.dense()
    basis = np.zeros((min(n, 32), n))
    basis[0, j] = 1.0
    alpha: list[float] = []
    beta: list[float] = []
    scale = 0.0
    for k in range(1, n + 1):
        w = dense @ basis[k - 1]
        alpha.append(float(basis[k - 1] @ w))
        done = basis[:k]
        for _ in range(2):
            w -= done.T @ (done @ w)
        b = float(np.linalg.norm(w))
        scale = max(scale, abs(alpha[-1]) + b + (beta[-1] if beta else 0.0))
        yield JacobiMatrix(np.array(alpha), np.array(beta), m.seed, m.replica_index)
        if k == n or b <= n * np.finfo(float).eps * scale:
            return
        if k == basis.shape[0]:
            basis = np.vstack([basis, np.zeros((min(k, n - k), n))])
        beta.append(b)
        basis[k] = w / b


def propagator_slices(dec: SpectralDecomposition, j: int,
                      times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals U_kk(t) and rows U_jk(t) over k for every t at once.

    Returns (diag, row), complex arrays of shape (len(times), n).  Each distinct
    time is computed once, from two real GEMMs against CS = [cos(lambda t) |
    sin(lambda t)]: (Q o Q) CS gives the diagonals and Q (q_j o CS) the rows,
    so U_jj(t) is row[:, j].  U(0) = I is exact, not round-off.
    """
    _check_index(dec.n, j)
    t = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ContractError("times must be finite")
    distinct, inverse = np.unique(t, return_inverse=True)
    q = dec.eigenvectors
    angles = np.multiply.outer(dec.eigenvalues, distinct)
    cs = np.hstack([np.cos(angles), np.sin(angles)])  # (n, 2T)
    k = distinct.size
    diag_cs = (q * q) @ cs
    row_cs = q @ (q[j, :, None] * cs)
    diag = (diag_cs[:, :k] + 1j * diag_cs[:, k:]).T
    row = (row_cs[:, :k] + 1j * row_cs[:, k:]).T
    zero = distinct == 0.0
    diag[zero] = 1.0
    row[zero] = 0.0
    row[zero, j] = 1.0
    return diag[inverse], row[inverse]


DECAY_STATISTICS = ("U_jj", "v_n", "v_n_pair", "v_n1", "v_n2")  # the columns of lemma_statistics


def lemma_statistics(dec: SpectralDecomposition, j: int, times: Sequence[float]) -> np.ndarray:
    """U_jj and the four trace/row statistics at (t, t, t), for every t at once.

    Returns a complex array of shape (len(times), 5), its columns in
    DECAY_STATISTICS order: U_jj(t), v_n = n^-1 Tr U(t), v_n_pair =
    n^-1 sum_k U_kk(t)^2, v_n1 = n^-1/2 sum_k U_jk(t) U_kk(t) and v_n2 =
    sum_k U_jk(t)^3, all from one propagator_slices call.
    """
    diag, row = propagator_slices(dec, j, times)
    return np.column_stack([
        row[:, j],
        diag.mean(axis=1),
        (diag * diag).mean(axis=1),
        (row * diag).sum(axis=1) / np.sqrt(dec.n),
        (row * row * row).sum(axis=1),
    ])
