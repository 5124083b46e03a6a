"""Symmetric eigendecomposition and spectral-theorem consumers.

From one decomposition M = Q diag(lambda) Q^T per sampled matrix we read off
diagonal matrix elements phi(M)_jj = sum_a phi(lambda_a) Q_ja^2, propagator entries
U_jk(t) = sum_a e^{i t lambda_a} Q_ja Q_ka, and the trace/row statistics
v_n, v_n_pair, v_n1, v_n2 whose decay in n the Monte Carlo harness measures.
For a single phi(M)_jj, power_moments reads the exact power sums (M^k)_jj off
the vectors M^a e_j, and lanczos_jacobi shrinks M step by step to the small
Jacobi matrices of the Gauss rules at e_j, read through the same consumers; it
knows no test function, so the caller (harness.phi_entries) decides when a
rule is good enough.

Every reader takes a plain symmetric array, such as SymmetricMatrix.dense(),
whose entries were checked finite when the SymmetricMatrix was built.
All indices are 0-based.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, NumericFailureError


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition of one array: numpy's (eigenvalues,
    eigenvectors) result, eigenvalues ascending, eigenvectors orthonormal in
    columns, both read-only.

    Deterministic for fixed input.  A LAPACK convergence failure is re-raised
    naming the order of the array; the replica phase that drew the matrix adds
    its root seed and replica, so the offending sample can be regenerated.
    """
    try:
        dec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"order {len(a)}: eigendecomposition did not converge: {exc}") from exc
    for part in dec:
        part.setflags(write=False)
    return dec


def _check_index(n: int, j: int) -> None:
    if not 0 <= j < n:
        raise ContractError(f"index j={j} out of range 0..{n - 1}")


def matrix_function_entry(dec: tuple[np.ndarray, np.ndarray], phi: Callable, j: int) -> float:
    """phi(M)_jj = sum_a phi(lambda_a) Q_ja^2."""
    lam, q = dec
    _check_index(lam.size, j)
    return float(np.sum(phi(lam) * q[j, :] * q[j, :]))


def power_moments(a: np.ndarray, j: int, degree: int) -> np.ndarray:
    """(M^k)_jj for k = 0..degree, M = a, from the power vectors u_i = M^i e_j.

    u_0 = e_j and u_1 = M e_j, row j of M, cost no matvec, and u_(i+1) = M u_i,
    so (M^k)_jj = u_floor(k/2) . u_ceil(k/2) takes ceil(degree / 2) - 1 matvecs.
    These are exact power sums, with no Gauss rule, so an entry every sample
    shares, such as (M^2)_jj for Rademacher entries, keeps its bits.
    """
    n = len(a)
    _check_index(n, j)
    u = [np.eye(1, n, j)[0], a[j]]
    while len(u) <= (degree + 1) // 2:
        u.append(a @ u[-1])
    return np.array([u[k // 2] @ u[(k + 1) // 2] for k in range(degree + 1)])


def lanczos_jacobi(a: np.ndarray, j: int) -> Iterator[np.ndarray]:
    """Lanczos on M = a started from e_j: yields the k x k Jacobi matrices T_1, T_2, ...

    Each T_k is a fresh symmetric tridiagonal array, its diagonal alpha_1..alpha_k
    and its off-diagonals beta_1..beta_(k-1).  The eigenvalues of T_k are the
    nodes, and the squared first components of its eigenvectors the weights, of
    the k-point Gauss rule for the spectral measure of M at e_j (Golub & Welsch
    1969), so phi(M)_jj is read as phi(T_k)_00; the rule is exact for
    polynomials of degree < 2k.  The caller stops reading when its estimates
    suffice; the walk ends by itself after a Krylov breakdown (the last rule is
    then exact) or at k = n.  Each step reorthogonalises against the whole basis
    twice; the basis holds O(k n) numbers.  As a generator it checks j on the
    first step.
    """
    n = len(a)
    _check_index(n, j)
    basis = np.zeros((min(n, 32), n))
    basis[0, j] = 1.0
    alpha: list[float] = []
    beta: list[float] = []
    scale = 0.0
    for k in range(1, n + 1):
        w = a @ basis[k - 1]
        alpha.append(float(basis[k - 1] @ w))
        done = basis[:k]
        for _ in range(2):
            w -= done.T @ (done @ w)
        b = float(np.linalg.norm(w))
        scale = max(scale, abs(alpha[-1]) + b + (beta[-1] if beta else 0.0))
        off = np.array(beta)
        yield np.diag(np.array(alpha)) + np.diag(off, 1) + np.diag(off, -1)
        if k == n or b <= n * np.finfo(float).eps * scale:
            return
        if k == basis.shape[0]:
            basis = np.vstack([basis, np.zeros((min(k, n - k), n))])
        beta.append(b)
        basis[k] = w / b


def propagator_slices(dec: tuple[np.ndarray, np.ndarray], j: int,
                      times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals U_kk(t) and rows U_jk(t) over k for every t at once.

    Returns (diag, row), complex arrays of shape (len(times), n), one row per
    given time, from two real GEMMs against CS = [cos(lambda t) |
    sin(lambda t)]: (Q o Q) CS gives the diagonals and Q (q_j o CS) the rows,
    so U_jj(t) is row[:, j].  U(0) = I is exact, not round-off.
    """
    lam, q = dec
    _check_index(lam.size, j)
    t = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ContractError("times must be finite")
    angles = np.multiply.outer(lam, t)
    cs = np.hstack([np.cos(angles), np.sin(angles)])  # (n, 2T)
    k = t.size
    diag_cs = (q * q) @ cs
    row_cs = q @ (q[j, :, None] * cs)
    # one contiguous row per time, so the sums over k in lemma_statistics run pairwise
    diag = (diag_cs[:, :k] + 1j * diag_cs[:, k:]).T.copy()
    row = (row_cs[:, :k] + 1j * row_cs[:, k:]).T.copy()
    zero = t == 0.0
    diag[zero] = 1.0
    row[zero] = 0.0
    row[zero, j] = 1.0
    return diag, row


DECAY_STATISTICS = ("U_jj", "v_n", "v_n_pair", "v_n1", "v_n2")  # the columns of lemma_statistics


def lemma_statistics(dec: tuple[np.ndarray, np.ndarray], j: int, times: Sequence[float]) -> np.ndarray:
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
        (row * diag).sum(axis=1) / np.sqrt(dec[0].size),
        (row * row * row).sum(axis=1),
    ])
