"""Oracles for the tests: independent evaluations of wignerlab's closed forms.

No shipped path calls any of these, so they live beside the tests rather than
in the package; in particular wignerlab does not import scipy.integrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from wignerlab import ensembles, harness, seeding, spectral
from wignerlab.cumulants import MAX_ORDER, jackknife_spread
from wignerlab.errors import ContractError
from wignerlab.limits import LimitPrediction
from wignerlab.semicircle import (
    DEFAULT_NODES, GAUSSIAN_DAMPED, POLYNOMIAL, TABULATED, TestFunction, check_coverage,
    gauss_chebyshev_u, gaussian_damped, polynomial, sc_convolutions, v_of_t,
)
from wignerlab.volterra import _conv_values, _cumtrapz, grid_factors, volterra_apply

# ---------------------------------------------------------------------------
# test functions and semicircle integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trigonometric:
    """phi(x) = a cos x + b sin x, a bounded smooth test function closed under d/dx.

    Its kind, a class attribute, sends it down harness.phi_entries' smooth path, and its
    parity, another, lets semicircle.u_coefficients read it.
    """

    kind = "trigonometric"
    parity = "none"
    a: float
    b: float

    def __call__(self, lam):
        return self.a * np.cos(lam) + self.b * np.sin(lam)


def every_step_entries(m: ensembles.SymmetricMatrix, j: int, phis: Sequence) -> tuple[np.ndarray, int]:
    """phi(M)_jj of smooth phis by the Lanczos stop rule that reads every Jacobi matrix, and
    the size of the last one: harness.phi_entries' rule before it skipped the rules too
    small to resolve phi.

    Each T_k of spectral.lanczos_jacobi is rebuilt from its diagonals as three np.diag
    arrays summed and read from k = 1 on; the walk stops at the first k >= 3 where every
    estimate moved by <= GAUSS_TOLERANCE * max(1, |value|) over two consecutive steps, or
    where the walk ends.
    """
    estimates: list[list[float]] = []
    for t in spectral.lanczos_jacobi(m.dense(), j):
        off = np.diag(t, 1)
        t = np.diag(np.diag(t)) + np.diag(off, 1) + np.diag(off, -1)
        dec = spectral.eigh(t)
        estimates.append([spectral.matrix_function_entry(dec, p, 0) for p in phis])
        if len(t) >= 3 and np.all(np.abs(np.diff(estimates[-3:], axis=0))
                                  <= harness.GAUSS_TOLERANCE * np.maximum(1.0, np.abs(estimates[-1]))):
            break
    return np.array(estimates[-1]), len(t)


def derivative(phi: TestFunction | Trigonometric, order: int = 1) -> TestFunction | Trigonometric:
    """Exact order-th derivative of phi; a Trigonometric or any TestFunction kind but tabulated."""
    if order < 0 or (isinstance(phi, TestFunction) and phi.kind == TABULATED):
        raise ContractError("derivative requires a non-tabulated test function and order >= 0")
    pp = np.polynomial.polynomial
    fn = phi
    for _ in range(order):
        if isinstance(fn, Trigonometric):
            fn = Trigonometric(fn.b, -fn.a)
            continue
        c = np.asarray(fn.coefficients, dtype=float)
        dc = pp.polyder(c) if c.size > 1 else np.zeros(1)
        if fn.kind == POLYNOMIAL:
            fn = polynomial(dc)
        else:
            fn = gaussian_damped(pp.polysub(dc, pp.polymulx(c) / fn.envelope_width**2),
                                 fn.envelope_width)
    return fn


def sup_norm(phi: TestFunction | Trigonometric) -> float:
    """sup |phi| over the real line (inf for a nonconstant polynomial; not tabulated)."""
    if isinstance(phi, Trigonometric):
        return math.hypot(phi.a, phi.b)
    if phi.kind == POLYNOMIAL:  # bounded only when constant: then the sum is c_0
        return math.inf if phi.degree > 0 else abs(float(sum(phi.coefficients)))
    half_width = phi.envelope_width * math.sqrt(2.0 * max(phi.degree, 1)) + 10.0
    grid = np.linspace(-half_width, half_width, 200001)
    return float(np.max(np.abs(phi(grid)))) * (1.0 + 1e-9)


def fourier_transform(phi: TestFunction):
    """Closed-form phi_hat for Gaussian-damped polynomials.

    Convention: phi_hat(t) = (2 pi)^-1 Integral e^{-i t lambda} phi(lambda) dlambda,
    with inversion phi(lambda) = Integral e^{i lambda t} phi_hat(t) dt.
    With phi = sum c_k x^k exp(-a x^2), a = 1/(2 width^2):
    phi_hat(t) = (2 pi)^-1 sum c_k (i d/dt)^k [sqrt(pi/a) exp(-t^2/(4a))],
    evaluated by differentiating q(t) exp(-b t^2), b = 1/(4a), in coefficient
    space: q -> i(q' - 2 b t q).
    """
    if phi.kind != GAUSSIAN_DAMPED:
        raise ContractError("closed-form Fourier transform requires a gaussian_damped test function")
    a = 1.0 / (2.0 * phi.envelope_width**2)
    b = 1.0 / (4.0 * a)
    total = np.zeros(1, dtype=complex)
    q = np.ones(1, dtype=complex)  # current (i d/dt)^k prefactor polynomial
    for k, c_k in enumerate(phi.coefficients):
        if k > 0:
            dq = np.polynomial.polynomial.polyder(q) if q.size > 1 else np.zeros(1, complex)
            q = 1j * (np.polynomial.polynomial.polysub(dq, 2.0 * b * np.polynomial.polynomial.polymulx(q)))
        if c_k != 0.0:
            total = np.polynomial.polynomial.polyadd(total, c_k * q)
    norm = math.sqrt(math.pi / a) / (2.0 * math.pi)

    def phi_hat(t):
        t = np.asarray(t, dtype=float)
        return norm * np.polynomial.polynomial.polyval(t, total) * np.exp(-b * t * t)

    return phi_hat


def rho_sc(lam, w: float):
    """Semicircle density (2 pi w^2)^-1 sqrt((4w^2 - lambda^2)_+); zero outside [-2w, 2w]."""
    if w <= 0:
        raise ContractError("scale w must be positive")
    lam = np.asarray(lam, dtype=float)
    supp = np.maximum(4.0 * w * w - lam * lam, 0.0)
    return np.sqrt(supp) / (2.0 * math.pi * w * w)


def chebyshev_u_rule(w: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The n_nodes-point Gauss-Chebyshev-U rule (nodes, weights) for Integral f rho_sc, exact to
    degree 2 n_nodes - 1.

    Built apart from semicircle.gauss_chebyshev_u, which the tests hold to it bit for
    bit at several node counts.
    """
    if w <= 0 or n_nodes < 1:
        raise ContractError("the rule needs w > 0 and n_nodes >= 1")
    theta = np.arange(1, n_nodes + 1, dtype=float) * math.pi / (n_nodes + 1)
    return 2.0 * float(w) * np.cos(theta), (2.0 / (n_nodes + 1)) * np.sin(theta) ** 2


def sc_integral(phi: Callable, w: float):
    """Integral phi(lambda) rho_sc(lambda) dlambda by the package's Gauss-Chebyshev-U rule.

    Exact for polynomial phi of degree <= 2 DEFAULT_NODES - 1.  A tabulated phi
    must cover [-2w, 2w] (check_coverage).
    """
    nodes, weights = gauss_chebyshev_u(w)
    check_coverage(phi, w)
    vals = phi(nodes)
    total = np.sum(weights * vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


def sc_moment(power: int, w: float, n_nodes: int = DEFAULT_NODES) -> float:
    """Semicircle moment m_p by an n_nodes rule; m_{2k} = C_k w^{2k} (Catalan), odd moments 0."""
    nodes, weights = chebyshev_u_rule(w, n_nodes)
    return float(np.sum(weights * nodes**power))


def stieltjes_rho(lam: float, w: float) -> float:
    """Principal value of Integral rho_sc(mu)/(mu - lambda) dmu = -lambda/(2 w^2)."""
    if w <= 0:
        raise ContractError("scale w must be positive")
    if abs(lam) >= 2.0 * w:
        raise ContractError("stieltjes_rho requires |lambda| < 2w")
    return -lam / (2.0 * w * w)


def stieltjes_rho_pv_check(lam: float, w: float, deltas: Sequence[float] = (0.02, 0.01, 0.005)) -> float:
    """Quadrature cross-check of stieltjes_rho.

    Integrates over {|mu - lambda| > delta} with symmetric node pairing
    (the lambda +- s contributions are combined so their poles cancel), then
    Richardson-extrapolates the remaining O(delta) truncation to delta -> 0.
    """
    if abs(lam) >= 2.0 * w:
        raise ContractError("stieltjes_rho_pv_check requires |lambda| < 2w")
    deltas = sorted(float(d) for d in deltas)
    if deltas[0] <= 0:
        raise ContractError("deltas must be positive")
    half_width = min(2.0 * w - lam, lam + 2.0 * w)

    def excluded_integral(delta: float) -> float:
        paired = quad(
            lambda s: (rho_sc(lam + s, w) - rho_sc(lam - s, w)) / s,
            delta,
            half_width,
            limit=200,
        )[0]
        outer = 0.0
        if lam - half_width > -2.0 * w:
            outer += quad(lambda mu: rho_sc(mu, w) / (mu - lam), -2.0 * w, lam - half_width, limit=200)[0]
        if lam + half_width < 2.0 * w:
            outer += quad(lambda mu: rho_sc(mu, w) / (mu - lam), lam + half_width, 2.0 * w, limit=200)[0]
        return paired + outer

    vals = [excluded_integral(d) for d in deltas]
    # excluded window contributes ~ 2 rho'(lam) delta: one Richardson level per halving
    while len(vals) > 1:
        vals = [2.0 * lo - hi for lo, hi in zip(vals[:-1], vals[1:])]
    return vals[0]


def v_tilde(z, w: float):
    """Generalized Fourier transform of v on Im z < 0.

    v~(z) = (2 w^2)^-1 (sqrt(z^2 - 4 w^2) - z) on the branch with
    sqrt(z^2 - 4w^2) = z + O(1/z); satisfies w^2 v~^2 + z v~ + 1 = 0.
    """
    if w <= 0:
        raise ContractError("scale w must be positive")
    z_arr = np.asarray(z, dtype=complex)
    if np.any(np.imag(z_arr) >= 0):
        raise ContractError("v_tilde requires Im z < 0")
    # z*sqrt(1 - 4w^2/z^2) keeps the required branch away from [-2w, 2w];
    # -2/(z + root) is the cancellation-free form of (root - z)/(2w^2)
    root = z_arr * np.sqrt(1.0 - 4.0 * w * w / (z_arr * z_arr))
    out = -2.0 / (z_arr + root)
    return complex(out) if np.isscalar(z) else out


# ---------------------------------------------------------------------------
# limiting covariance
# ---------------------------------------------------------------------------


def cov_limit_goe_oracle(phi1, phi2, w: float):
    """Tensor-product double quadrature of the defining double integral of the GOE covariance,
    the limit of n Cov that cov_limit_wigner gives on a GOE spec."""
    nodes, weights = gauss_chebyshev_u(w)
    f1 = phi1(nodes)
    f2 = phi2(nodes)
    d1 = f1[:, None] - f1[None, :]
    d2 = f2[:, None] - f2[None, :]
    return float(np.real_if_close(weights @ (d1 * d2) @ weights, tol=1000))


def _divided_difference(phi: TestFunction, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(phi(x) - phi(y)) / (x - y) with the exact derivative on the diagonal."""
    num = phi(x) - phi(y)
    den = x - y
    on_diag = den == 0
    safe = np.where(on_diag, 1.0, den)
    out = num / safe
    if np.any(on_diag):
        out = np.where(on_diag, derivative(phi)(x), out)
    return out


def triple_singular_cross_check(phi1: TestFunction, phi2: TestFunction, w: float,
                                epsilons: Sequence[float]) -> np.ndarray:
    """Regularized triple integral whose epsilon -> 0 limit is the GOE covariance.

    Evaluates 2 w^2 Integral q1(l1, l2) q2(l2, l3 + i eps) over rho_sc^x3 by
    tensor quadrature, q being divided differences of the phi's; the third
    variable is pushed off the real axis by +i eps.  Returns one value per
    epsilon (descending epsilons expected); Richardson extrapolation of the
    sequence reproduces the closed-form covariance.
    """
    eps_list = [float(e) for e in epsilons]
    if any(e <= 0 for e in eps_list):
        raise ContractError("epsilons must be positive")
    lam, weights = gauss_chebyshev_u(w)
    # a_j = sum_i w_i q1(l_i, l_j): independent of epsilon
    a = _divided_difference(phi1, lam[:, None], lam[None, :]).T @ weights
    out = []
    for eps in eps_list:
        shifted = lam + 1j * eps
        q2 = (phi2(lam)[:, None] - phi2(shifted)[None, :]) / (lam[:, None] - shifted[None, :])
        b = q2 @ weights
        out.append(2.0 * w * w * np.sum(weights * a * b))
    return np.asarray(out)


def richardson(values: Sequence, ratio: float = 2.0):
    """Extrapolate a sequence f(h), f(h/r), ... with error c1 h + c2 h^2 + ... to h -> 0."""
    vals = list(np.asarray(values, dtype=complex))
    if len(vals) == 0:
        raise ContractError("need at least one value")
    level = 1
    while len(vals) > 1:
        factor = ratio**level
        vals = [(factor * fine - coarse) / (factor - 1.0) for coarse, fine in zip(vals[:-1], vals[1:])]
        level += 1
    out = vals[0]
    return float(out.real) if abs(out.imag) < 1e-12 * (1.0 + abs(out.real)) else out


def fourier_pairing(phi1: TestFunction, phi2: TestFunction, w: float, kappa4: float) -> complex:
    """II phi1_hat(t1) phi2_hat(t2) Cov(t1, t2) dt1 dt2 over the full plane.

    Uses the closed-form Fourier transforms of Gaussian-damped test functions,
    by the trapezoid rule with step 0.05 on |t| <= 8, past which the transforms
    of unit-width envelopes are below e^-32.  The pairing reproduces the
    spectral-domain limiting covariance.
    """
    h = 0.05
    t = np.arange(-160, 161) * h
    wt = np.full(t.size, h)
    wt[0] = wt[-1] = h / 2.0
    f1 = fourier_transform(phi1)(t) * wt
    f2 = fourier_transform(phi2)(t) * wt
    a, _, _, vvv = grid_factors(t, w)  # a carries the rule's weights' square roots
    u1 = f1 @ a
    u2 = f2 @ a
    pair = 2.0 * w * w * np.sum(u1 * u2)
    pair += kappa4 * np.sum(f1 * vvv) * np.sum(f2 * vvv)
    return complex(pair)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def jackknife_se(data: Sequence[float], statistic) -> tuple[float, float]:
    """(estimate, delete-1 jackknife se) for an arbitrary statistic of a sample; O(R^2)."""
    x = np.asarray(data, dtype=float).ravel()
    n = x.size
    if n < 8:
        raise ContractError("jackknife needs at least 8 observations")
    loo = np.array([statistic(np.delete(x, i)) for i in range(n)])
    return float(statistic(x)), jackknife_spread(loo)


def compare_with_prediction(result: harness.ExperimentResult, prediction: LimitPrediction) -> dict:
    """Re-compare a result's variances against an externally supplied prediction:
    z = (variance - v_w) / variance_ci for each per-n record.

    The prediction's ensemble and phi must be the ones the result was produced under.
    """
    record = result.record
    if prediction.spec.descriptor() != record["config"]["spec"] or prediction.phi_ref != record["config"]["phi"]:
        raise ContractError("prediction and result were built from different (phi, ensemble) pairs")
    rows = []
    for p in record["per_n"]:
        z = (p["variance"] - prediction.v_w) / p["variance_ci"]
        rows.append({"n": p["n"], "z_variance": z, "variance_ok": bool(abs(z) <= 3.0)})
    return {"per_n": rows, "note": record["comparison"]["note"]}


# ---------------------------------------------------------------------------
# cumulants and entry draws
# ---------------------------------------------------------------------------


def cumulants_to_moments(kappa: Sequence[float]) -> list[float]:
    """Raw moments mu_1..mu_p from cumulants kappa_1..kappa_p (the inverse of moments_to_cumulants)."""
    values = tuple(float(k) for k in kappa)
    p = len(values)
    if p == 0:
        raise ContractError("need at least one cumulant")
    if p > MAX_ORDER:
        raise ContractError(f"cumulant order {p} exceeds supported maximum {MAX_ORDER}")
    mu: list[float] = []
    for n in range(1, p + 1):
        m_n = values[n - 1]
        for m in range(1, n):
            m_n += math.comb(n - 1, m - 1) * values[m - 1] * mu[n - m - 1]
        mu.append(m_n)
    return mu


# domain tag of the scalar streams, apart from the package's matrix streams (seeding.DOMAIN_MATRIX)
DOMAIN_SCALAR = 2


def sample_entries(dist: ensembles.EntryDistribution, size: int, seed: int,
                   labels: Sequence[int] = ()) -> np.ndarray:
    """i.i.d. scalar draws of the entry law from the (seed, labels) stream."""
    rng = seeding.generator(seed, [DOMAIN_SCALAR, *labels])
    if dist.atoms is None:
        return ensembles._continuous(dist, size, rng)
    return dist.atoms[ensembles._atom_index(dist, size, rng)]


def reference_packed(spec: ensembles.EnsembleSpec, n: int, seed: int, replica: int = 0) -> np.ndarray:
    """sample_matrix's packed data by the plain op sequence: draw W's entries, scale the
    diagonal by diag_scale, then everything by 1/sqrt(n), one full-array pass each."""
    dist = spec.entry_dist
    size = n * (n + 1) // 2
    rng = seeding.generator(seed, [seeding.DOMAIN_MATRIX, n, replica])
    if dist.kind == ensembles.GAUSSIAN:
        packed = dist.w * rng.standard_normal(size)
    elif dist.kind == ensembles.UNIFORM:
        a = math.sqrt(3.0) * dist.w
        packed = rng.uniform(-a, a, size)
    elif dist.kind == ensembles.RADEMACHER:
        packed = dist.w * (2.0 * rng.integers(0, 2, size=size) - 1.0)
    else:
        u = rng.random(size)
        k = np.searchsorted(np.cumsum(dist.probs), u, side="right").clip(max=dist.atoms.size - 1)
        packed = dist.atoms[k]
    diag_idx = np.arange(n) * (np.arange(n) + 3) // 2
    packed[diag_idx] *= spec.diag_scale
    packed *= 1.0 / math.sqrt(n)
    return packed


def _c_p_bound(p: int) -> float:
    return (1.0 + (3.0 + 2.0 * p) ** (p + 2)) / math.factorial(p + 1)


def dist_expectation(dist, fn) -> float:
    """E{fn(xi)} by exact atom sums or 256-node Gaussian/Legendre quadrature."""
    if dist.atoms is not None:
        return float(np.sum(dist.probs * fn(dist.atoms)))
    if dist.kind == "gaussian":
        nodes, weights = np.polynomial.hermite.hermgauss(256)
        x = math.sqrt(2.0) * dist.w * nodes
        return float(np.sum(weights * fn(x)) / math.sqrt(math.pi))
    if dist.kind == "uniform":
        a = math.sqrt(3.0) * dist.w
        nodes, weights = np.polynomial.legendre.leggauss(256)
        return float(np.sum(weights * fn(a * nodes)) / 2.0)
    raise ContractError(f"no expectation rule for distribution kind {dist.kind!r}")


def _dist_abs_moment(dist, order: int) -> float:
    if dist.atoms is not None:
        return float(np.sum(dist.probs * np.abs(dist.atoms) ** order))
    if dist.kind == "gaussian":
        return dist.w**order * 2.0 ** (order / 2.0) * math.gamma((order + 1) / 2.0) / math.sqrt(math.pi)
    if dist.kind == "uniform":
        a = math.sqrt(3.0) * dist.w
        return a**order / (order + 1.0)
    raise ContractError(f"no absolute-moment rule for distribution kind {dist.kind!r}")


@dataclass(frozen=True)
class ExpansionResidual:
    lhs: float
    rhs: float
    residual: float
    bound: float
    order: int


def stein_expansion_residual(dist, phi: TestFunction | Trigonometric, p: int) -> ExpansionResidual:
    """Check the order-p cumulant expansion of E{xi Phi(xi)} against its bound.

    The integration-by-parts expansion is
    E{xi Phi(xi)} = sum_{l<=p} kappa_{l+1}/l! E{Phi^(l)(xi)} + eps_p.
    Returns lhs, rhs, residual = lhs - rhs and
    bound = C_p E{|xi|^{p+2}} sup|Phi^{(p+1)}| with
    C_p = (1 + (3 + 2p)^{p+2}) / (p+1)!.  Raises if the bound is violated.
    """
    if p < 0:
        raise ContractError("p must be >= 0")
    if p + 1 > MAX_ORDER:
        raise ContractError(f"distribution cumulants unavailable up to order {p + 1}")
    lhs = dist_expectation(dist, lambda x: x * phi(x))
    rhs = 0.0
    for l in range(p + 1):
        kappa = dist.cumulant(l + 1)
        if kappa == 0.0:
            continue
        rhs += kappa / math.factorial(l) * dist_expectation(dist, derivative(phi, l))
    residual = lhs - rhs
    bound = _c_p_bound(p) * _dist_abs_moment(dist, p + 2) * sup_norm(derivative(phi, p + 1))
    # quadrature tolerance keeps an exactly-saturated bound from flapping
    if abs(residual) > bound + 1e-9:
        raise ContractError(
            f"expansion residual {residual} exceeds its bound {bound} at order p={p}"
        )
    return ExpansionResidual(lhs=lhs, rhs=rhs, residual=residual, bound=bound, order=p)


# ---------------------------------------------------------------------------
# trapezoid convolution and the resolvent of the v-convolution equation
# ---------------------------------------------------------------------------


def convolve(f1: np.ndarray, f2: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid causal convolution of two series on a shared grid of step h."""
    if f1.shape != f2.shape:
        raise ContractError(f"convolve needs series of the same length, got {f1.shape} and {f2.shape}")
    return _conv_values(f1, f2, h)


def coveq_residual_full_square(w: float, kappa4: float, grid: np.ndarray) -> float:
    """volterra.coveq_residual with every t1 x t2 array built on the whole grid square.

    The source A and the closed-form kernel come from the same formulas as
    phi_kernel_grid and cov_kernel_grid, evaluated once over all columns, and
    the discretized left side and Int_0^{t1} act on the assembled t1 x t2
    arrays, on the DEFAULT_NODES rule.  coveq_residual applies them to the t1
    factors instead, on the kernel_nodes(w t_max) rule, which rounds
    differently: the two agree to 1e-13 max(1, w^2, |kappa4|).
    """
    g = np.asarray(grid, float)
    h = float(g[1] - g[0])
    nodes, weights = gauss_chebyshev_u(w)  # the DEFAULT_NODES rule, whatever w t_max
    e3 = np.exp(1j * np.multiply.outer(g, nodes)) * weights  # built apart from grid_factors' e
    a, _, vv, vvv = grid_factors(g, w)
    a_grid = _cumtrapz(-1j * (e3 @ (a / np.sqrt(weights)).T), h)
    a_grid *= -2.0 * w * w
    a_grid += kappa4 * np.multiply.outer(_cumtrapz(vv.astype(complex), h), vvv)
    cov = 2.0 * w * w * (a @ a.T) + kappa4 * np.multiply.outer(vvv, vvv)
    lhs = volterra_apply((w * w * v_of_t(g, w)).astype(complex), cov, h)
    lhs -= a_grid
    return float(np.max(np.abs(lhs)))



def resolvent_T(w: float, grid: np.ndarray) -> np.ndarray:
    """The resolvent kernel of the v-convolution equation on the grid: T(t) = -v(t)."""
    if w <= 0:
        raise ContractError("scale w must be positive")
    return -v_of_t(np.asarray(grid, float), w).astype(complex)


def resolvent_identity_defect(z, w: float):
    """|(z + w^2 v~(z)) (-v~(z)) - 1| at one or more lower-half-plane points."""
    vt = v_tilde(z, w)
    out = np.abs((np.asarray(z, complex) + w * w * vt) * (-vt) - 1.0)
    return float(out) if np.isscalar(z) else out


# ---------------------------------------------------------------------------
# eigendecomposition invariants
# ---------------------------------------------------------------------------


def validate(dec: tuple[np.ndarray, np.ndarray], m_dense: np.ndarray | None = None) -> dict:
    """Measured invariant defects (max norms) of an (eigenvalues, eigenvectors) decomposition."""
    lam, q = dec
    orth = float(np.max(np.abs(q.T @ q - np.eye(lam.size))))
    out = {"orthonormality": orth, "eigenvalue_sorted": bool(np.all(np.diff(lam) >= 0))}
    if m_dense is not None:
        recon = (q * lam) @ q.T
        out["reconstruction"] = float(np.max(np.abs(recon - m_dense)))
    return out
