"""Two-sided bounds on the largest eigenvalue of the pencil (A, M-tilde).

The diagonal-ratio bounds sandwich lambda_max between max_i A_ii/Mt_ii and
eta * kappa(Mt_ref) times that maximum; the geometric bound re-expresses the
upper end through patch volumes and element alignment factors, and the
comparison bound (largest diffusion eigenvalue times the squared inverse
Jacobian norm) is reported alongside for anisotropy studies.  The matrix
inequalities behind the bounds hold element by element, so the package
computes the bounds and leaves checking the inequalities to its tests.

The exact eigenvalue of a pencil whose union pattern renumbers to a narrow
band (assembly.band_renumbering: every 1D system, and small or thin 2D
ones) comes from bisection on the banded Cholesky of sigma Mt - A, to one
ulp, and its eigenvector from inverse iteration with the last factor; no
product with A is made.  Every other pencil runs one three-term Lanczos
recurrence, no restarts, no reorthogonalization, and a Ritz residual test
on a growing schedule, from the one start vector that DEFAULT_SEED draws:
the value belongs to the pencil alone.  Under a diagonal Mt the recurrence
runs on S A S, S = Mt^-1/2, which has the pencil's spectrum: one product
and no solve per step.  Any other Mt runs it for Mt^-1 A in the Mt inner
product: one A @ q and one surrogate solve per step.  A system makes its
eigensolve once and keeps it, for the report's value and
lambda_max_with_vector's vector.

A BoundReport holds every expression for one configuration, with the mesh's
dimension and element count first and the diagonal-ratio sandwich check
last.  Its fields, in order, are the columns of every report file
(BOUND_CSV_FIELDS), and csv_cell formats each cell of every CSV file.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dpbtrf, dpbtrs, dstebz, dstein

from .assembly import (
    AssembledSystem,
    DiffusionField,
    SurrogatePolicy,
    _is_diagonal,
    assemble_system,
    band_renumbering,
    surrogate_cholesky,
    surrogate_solver,
    upper_band_storage,
)
from .mesh import SimplicialMesh
from .reference import ReferenceElement

__all__ = [
    "BoundReport",
    "ConvergenceError",
    "DEFAULT_SEED",
    "DEFAULT_DOF_CAP",
    "lambda_max_generalized",
    "lambda_max_with_vector",
    "diag_ratio_bounds",
    "is_m_matrix",
    "element_alignment_factor",
    "geometric_bound",
    "zhudu_bound",
    "compute_bound_report",
    "BOUND_CSV_FIELDS",
    "csv_cell",
]

DEFAULT_SEED = 1729
DEFAULT_DOF_CAP = 5000  # largest reduced system whose exact eigenvalue a report computes


class ConvergenceError(RuntimeError):
    """Eigenvalue iteration hit its operation cap before reaching tolerance."""

    def __init__(self, message: str, best_estimate: float, residual: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.residual = residual

    def __reduce__(self):
        # Pickle rebuilds from every field, so the error crosses a process pool.
        return type(self), (self.args[0], self.best_estimate, self.residual)


# Convergence checks run at steps 10, 20, ..., 100 and then after gaps of
# max(_CHECK_EVERY, k // 10) steps.  A check bisects the whole T_k, so on a
# fixed gap the checks of a long run cost as much as its products; the
# growing gap makes about 24 checks per decade of steps, for at most 10%
# more steps than checking every step.
_CHECK_EVERY = 10
_MAX_OPS = 10000  # applications of the pencil's operator a forward run may make, a failure's too
_RITZ_TOL = 1e-10  # converged: Ritz residual bound beta_k+1 |s_k| <= _RITZ_TOL * theta
_INVERSE_SOLVES = 3  # inverse-iteration solves behind a banded pencil's eigenvector


def _tridiagonal_top_pair(alphas: np.ndarray, betas: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric tridiagonal T and its unit eigenvector.

    alphas is T's diagonal and betas its off-diagonal.  LAPACK dstebz bisects
    for the largest eigenvalue only, and dstein finds its vector by inverse
    iteration in the block dstebz split it into: the calls
    eigh_tridiagonal(select="i") makes, without its validation and copies.
    """
    k = alphas.size
    if k == 1:
        return float(alphas[0]), np.ones(1)
    m, w, iblock, isplit, info = dstebz(alphas, betas, 2, 0.0, 0.0, k, k, 0.0, "B")
    if info == 0:
        s, info = dstein(alphas, betas, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolve failed (info {info})")
    return float(w[0]), s[:, 0]


def _lanczos(operator: sp.csr_array, solve: Callable | None, v0: np.ndarray):
    """Yield (q_k, p_k, alpha_k, beta_k+1), one step per application of operator.

    The q_k are Mt-orthonormal, starting from q_0 ~ solve(v0), and p_k = Mt q_k
    is carried along from the vector that solve turned into q_k, so Mt is
    never applied.  solve None is the identity (Mt = I, the scaled pencil of
    a diagonal surrogate): then q_k and p_k are one array, divided once.
    The alphas and betas make the tridiagonal T.  Stops after a zero beta
    (an invariant subspace).  The three-term subtractions update
    operator @ q in place (BLAS daxpy), with no temporaries.
    """
    w = v0 if solve is None else solve(v0)
    beta = math.sqrt(v0 @ w)
    q = w / beta
    p, p_prev = q if solve is None else v0 / beta, None
    while True:
        u = operator @ q
        if p_prev is not None:
            u = daxpy(p_prev, u, a=-beta)
        alpha = float(q @ u)
        u = daxpy(p, u, a=-alpha)
        w = u if solve is None else solve(u)
        beta = math.sqrt(max(float(u @ w), 0.0))
        yield q, p, alpha, beta
        if beta == 0.0:
            return
        w /= beta
        if w is not u:
            u /= beta
        q, p, p_prev = w, u, p


def _pencil_diagonals(A: sp.csr_array, surrogate: sp.csr_array) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of A and Mt, after checking that the shapes match, that
    every entry is finite (OpenBLAS's dpbtrf completes on a NaN) and that
    both diagonals are positive (ValueError otherwise)."""
    if A.shape != surrogate.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {surrogate.shape}")
    if not (np.isfinite(A.data).all() and np.isfinite(surrogate.data).all()):
        raise ValueError("pencil matrices must have finite entries")
    diag_a = A.diagonal()
    diag_m = surrogate.diagonal()
    if np.any(diag_m <= 0) or np.any(diag_a <= 0):
        raise ValueError("pencil matrices must have positive diagonals")
    return diag_a, diag_m


def _start_vector(ratios: np.ndarray) -> np.ndarray:
    """Every eigensolve's start: a Gaussian from default_rng(DEFAULT_SEED),
    boosted by 1 at the largest diagonal ratio A_ii / Mt_ii."""
    v0 = np.random.default_rng(DEFAULT_SEED).standard_normal(ratios.size)
    v0[np.argmax(ratios)] += 1.0
    return v0


def _banded_top(A: sp.csr_array, surrogate: sp.csr_array, renumbering: tuple,
                lower: float) -> tuple[float, np.ndarray]:
    """lambda_max of a pencil whose union pattern meets the band rule under
    renumbering, by bisection on banded Cholesky from lower, a Rayleigh
    quotient (max_i A_ii / Mt_ii) and so at most lambda_max.

    The pencil's eigenvalues above sigma are the negative eigenvalues of
    sigma Mt - A (Sylvester's law of inertia; spectrum slicing, Parlett,
    The Symmetric Eigenvalue Problem, 1998), so LAPACK's dpbtrf factors it
    exactly when sigma is above lambda_max.  One dpbtrf of Mt refuses a
    surrogate that is not positive definite (ValueError), so that a large
    enough sigma factors.  The bracket's upper end doubles from lower until
    dpbtrf succeeds there.  Bisection then halves it until its ends
    are adjacent floats, about 52 factorisations in all, each O(n b^2).
    The upper end is returned: a certified upper bound on lambda_max, in
    that a Cholesky that completes is exact for sigma Mt - A + E with E of
    the order of the unit roundoff times |sigma Mt - A| (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, Thm 10.3).  It needs no
    start vector and no product with A.

    Returns (sigma, factor): factor is dpbtrf's factor of sigma Mt - A in
    the renumbering.  Below a band of 32 dpbtrf runs unblocked code, with
    no BLAS-3 call whose order could follow the thread count.  Above it, it
    calls blocked BLAS-3 code: a strip of band 35 gave the same bytes at 1
    and 2 OpenBLAS threads, but took 5-15x as long at 2.
    """
    stiffness = upper_band_storage(A, renumbering)
    mass = upper_band_storage(surrogate, renumbering)
    surrogate_cholesky(mass.copy(order="F"))

    def cholesky(sigma: float) -> np.ndarray | None:
        factor, info = dpbtrf(sigma * mass - stiffness, overwrite_ab=True)
        return None if info else factor

    upper, factor = lower, None
    while factor is None:
        lower, upper = upper, 2.0 * upper
        factor = cholesky(upper)
    while lower < (middle := 0.5 * (lower + upper)) < upper:
        trial = cholesky(middle)
        if trial is None:
            lower = middle
        else:
            upper, factor = middle, trial
    return upper, factor


def _banded_vector(factor: np.ndarray, renumbering: tuple, surrogate: sp.csr_array,
                   v0: np.ndarray) -> np.ndarray:
    """The top eigenvector of a banded pencil, Mt-normalized, by inverse
    iteration: _INVERSE_SOLVES solves x <- (sigma Mt - A)^-1 Mt x with
    _banded_top's factor, the first from (sigma Mt - A)^-1 v0.  sigma is
    within a few ulps of lambda_max, so each solve multiplies the top mode
    by far more than any other (by (sigma - lambda_2) / (sigma - lambda_max)
    relative to the next one).  After each solve x is scaled to
    x^T Mt x = 1, a fixed-order einsum, not a BLAS dot whose order can
    follow the thread count."""
    order, position, _ = renumbering
    mx = v0
    for _ in range(_INVERSE_SOLVES):
        x, _ = dpbtrs(factor, mx[order], overwrite_b=True)
        x = x[position]
        mx = surrogate @ x
        scale = 1.0 / math.sqrt(np.einsum("i,i->", x, mx))
        x *= scale
        mx *= scale
    return x


def _top_ritz_pair(operator: sp.csr_array, surrogate: sp.csr_array | None, solve: Callable | None,
                   v0: np.ndarray, ratios: np.ndarray) -> tuple[float, np.ndarray]:
    """Converged top Ritz value theta and its T eigenvector s, from v0.

    solve applies surrogate^-1; both are None for the scaled pencil
    (S A S, I).  ratios are A_ii / Mt_ii, the diagonal of S A S.  The
    residual test runs on the schedule of _CHECK_EVERY, at the last step
    allowed, and whenever beta falls below _RITZ_TOL times the largest
    alpha: then it passes, since theta >= alpha_j and |s_k| <= 1.  Steps are
    capped at _MAX_OPS - 1, so that _MAX_OPS applications of the operator
    cover the run and the one application a failure makes.
    """
    max_steps = max(_MAX_OPS - 1, 0)
    alphas, betas = np.empty(max_steps), np.empty(max_steps)
    largest, next_check = 0.0, _CHECK_EVERY
    steps = itertools.islice(_lanczos(operator, solve, v0), max_steps)
    for k, (_, _, alpha, beta) in enumerate(steps, start=1):
        alphas[k - 1], betas[k - 1] = alpha, beta
        largest = max(largest, alpha)
        if k == next_check or k == max_steps or beta <= _RITZ_TOL * largest:
            next_check = k + max(_CHECK_EVERY, k // 10)
            theta, s = _tridiagonal_top_pair(alphas[:k], betas[:k - 1])
            if beta * abs(s[-1]) <= _RITZ_TOL * theta:
                return theta, s
    # No Ritz value met the tolerance.  Report the Rayleigh quotient of the
    # unit vector e at the largest diagonal ratio, a true lower bound, and
    # its residual ||A e - theta Mt e||_{Mt^-1} / (theta ||e||_Mt): in the
    # scaled variables, ||S A S e - theta e||_2 / theta, the same number.
    top = int(np.argmax(ratios))
    theta = float(ratios[top])
    e = np.zeros(ratios.size)
    e[top] = 1.0
    r = operator @ e
    if surrogate is None:
        r[top] -= theta
        residual = math.sqrt(r @ r) / theta
    else:
        r -= theta * (surrogate @ e)
        residual = math.sqrt(r @ solve(r) / surrogate[top, top]) / theta
    raise ConvergenceError(
        f"no convergence within {_MAX_OPS} operator applications "
        f"(diagonal-ratio estimate {theta:.17g}, residual {residual:.3e})",
        best_estimate=theta,
        residual=residual,
    )


def _replayed_vector(operator: sp.csr_array, solve: Callable | None, s: np.ndarray,
                     v0: np.ndarray) -> np.ndarray:
    """x = sum_j s_j q_j, Mt-normalized, by replaying the Lanczos run from v0.

    The recurrence is deterministic, so the replay regenerates the q_j bit
    for bit, while Mt x = sum_j s_j p_j is accumulated alongside: normalizing
    x^T Mt x = 1 needs no product with Mt.  It applies the operator once per
    entry of s.
    """
    x = np.zeros(v0.size)
    mx = np.zeros_like(x)
    for s_j, (q, p, _, _) in zip(s, _lanczos(operator, solve, v0)):
        x += s_j * q
        mx += s_j * p
    x /= math.sqrt(x @ mx)
    return x


def _scaled_stiffness(A: sp.csr_array, scale: np.ndarray) -> sp.csr_array:
    """S A S, S = diag(scale): A's entries times their row and column
    scales, in a new data array that shares A's indices and indptr."""
    data = A.data * scale[A.indices]
    data *= np.repeat(scale, np.diff(A.indptr))
    return sp.csr_array((data, A.indices, A.indptr), shape=A.shape)


def _eigensolve(A: sp.csr_array, surrogate: sp.csr_array,
                solver: Callable[[], Callable]) -> tuple[float, Callable[[], np.ndarray]]:
    """lambda_max of the pencil (A, Mt) and a function that builds its
    eigenvector, after one check of the pencil: _banded_top's value and
    _banded_vector's inverse iteration where band_renumbering admits the
    union pattern, else _top_ritz_pair's run and _replayed_vector's replay
    of it.  A diagonal Mt runs them on the standard problem S A S,
    S = Mt^-1/2, which has the pencil's spectrum, from S v0, and maps the
    vector z back to x = S z; any other Mt runs them on (A, Mt) from v0,
    with the solve that solver() returns."""
    diag_a, diag_m = _pencil_diagonals(A, surrogate)
    ratios = diag_a / diag_m
    renumbering = band_renumbering(A, surrogate)
    if renumbering is not None:
        sigma, factor = _banded_top(A, surrogate, renumbering, float(np.max(ratios)))
        return sigma, lambda: _banded_vector(factor, renumbering, surrogate, _start_vector(ratios))
    v0 = _start_vector(ratios)
    if _is_diagonal(surrogate):
        scale = 1.0 / np.sqrt(diag_m)
        scaled, z0 = _scaled_stiffness(A, scale), scale * v0
        theta, s = _top_ritz_pair(scaled, None, None, z0, ratios)
        return theta, lambda: scale * _replayed_vector(scaled, None, s, z0)
    solve = solver()
    theta, s = _top_ritz_pair(A, surrogate, solve, v0, ratios)
    return theta, lambda: _replayed_vector(A, solve, s, v0)


def _system_eigensolve(system: AssembledSystem) -> tuple[float, Callable[[], np.ndarray]]:
    """The system's _eigensolve, with its surrogate_solve where the pencil
    needs one: made on the first request and kept, so the report and the
    eigenvector share it.  Under a diagonal surrogate it keeps S A S for the
    replay, a copy of A's data (0.8 MB at 9,025 P2 DOFs)."""
    if not system._eigensolution:
        system._eigensolution.append(_eigensolve(system.stiffness, system.surrogate_mass,
                                                 lambda: system.surrogate_solve))
    return system._eigensolution[0]


def lambda_max_with_vector(system: AssembledSystem) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the system's pencil (A, M-tilde) and its
    eigenvector (surrogate-normalized).

    A pencil whose union pattern renumbers to a narrow band (see
    assembly.band_renumbering; every 1D system) takes _banded_top's value:
    the upper end of a one-ulp bracket found by bisection, a shift sigma
    at which a banded Cholesky of sigma Mt - A completes, and so a
    certified upper end.  Its eigenvector comes from _INVERSE_SOLVES
    inverse-iteration solves with the factor at that value (_banded_vector).
    No product with A is made, so no ConvergenceError can arise.

    Every other pencil runs the plain three-term Lanczos recurrence,
    without restarts or reorthogonalization (Paige 1980; Parlett, The
    Symmetric Eigenvalue Problem, 1998), which finds the top Ritz value
    reliably.  Under a diagonal M-tilde it runs on the standard problem
    S A S, S = Mt^-1/2, whose spectrum is the pencil's: S A S is built
    once, from A's entries with A's index arrays, and each step applies it
    once, with no solve, from the start S v0; the vector z it finds maps
    back to x = S z.  Under any other M-tilde it runs for Mt^-1 A in the
    Mt inner product, from the start Mt^-1 v0: each step applies A once
    (as A @ q) and the system's surrogate_solve once.  Either way M-tilde
    itself is never applied, and in exact arithmetic both runs make the
    same tridiagonal T.  v0 is drawn from default_rng(DEFAULT_SEED) and
    boosted toward the largest diagonal ratio.  At steps 10, 20, ..., 100,
    and after that every k // 10 steps, the top eigenpair (theta, s) of
    the tridiagonal T_k is computed, and the run stops when the Ritz
    residual bound beta_k+1 |s_k| is at most _RITZ_TOL * theta, or when
    beta vanishes (an invariant subspace).  A k-step solve makes about
    10 + 24 log10(k / 100) checks, for at most 10% more steps than a check
    at every step would take.  The run may take _MAX_OPS - 1 steps.  Its
    eigenvector is rebuilt by replaying the run (_replayed_vector), which
    applies the operator as often as the run did.

    Either way the system keeps the one result, so compute_bound_report
    reads its value from the same solve.  The sign of the vector is fixed
    so that its entry largest in magnitude is positive.

    Raises ConvergenceError when no Ritz value meets the tolerance within
    the cap.  The error carries the Rayleigh quotient A_ii / Mt_ii of the
    unit vector at the largest diagonal ratio, a true lower bound on
    lambda_max, together with its relative residual
    ||A x - theta Mt x||_{Mt^-1} / (theta ||x||_Mt).
    """
    theta, vector = _system_eigensolve(system)
    x = vector()
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    return theta, x


def lambda_max_generalized(A: sp.csr_array, surrogate: sp.csr_array) -> float:
    """Largest eigenvalue of the pencil (A, M-tilde); see lambda_max_with_vector.

    The same eigensolve, on bare matrices: a pencil that fails the band rule
    and has a non-diagonal surrogate runs Lanczos with a solve of its own
    from surrogate_solver.  Nothing is kept.
    """
    return _eigensolve(A, surrogate, lambda: surrogate_solver(surrogate))[0]


def diag_ratio_bounds(system: AssembledSystem) -> tuple[float, float]:
    """Two-sided diagonal-ratio bounds (lower, upper) on lambda_max.

    lower = max_i A_ii / Mt_ii; upper = eta * kappa(Mt_ref) * lower.
    """
    diag_a = system.diag_stiffness
    diag_m = system.diag_surrogate
    if np.any(diag_a <= 0) or np.any(diag_m <= 0):
        raise ValueError("diagonal entries must be positive on the reduced system")
    lower = float(np.max(diag_a / diag_m))
    upper = system.elem.node_count * system.kappa_surrogate * lower
    return lower, upper


def is_m_matrix(matrix: sp.csr_array) -> bool:
    """Sign-structure test: off-diagonals <= 0 and row sums >= 0.

    Both tests allow cut = 1e-12 * max |entry|.  Cost: one pass over the stored
    entries; then, unless more than n of them exceed cut, the diagonal and one
    product with a vector of ones; no COO copy.  A matrix not in canonical CSR
    form (sorted, no duplicates) is summed into it first, so each entry is
    tested by its value.
    """
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    data = matrix.data
    scale = max(float(data.max()), -float(data.min())) if data.size else 1.0
    cut = 1e-12 * scale
    # Canonical CSR stores each diagonal entry at most once, so the positive
    # off-diagonal count is the positive entry count less the diagonal's (n at most).
    positive = np.count_nonzero(data > cut)
    if positive > matrix.shape[0] or positive > np.count_nonzero(matrix.diagonal() > cut):
        return False
    return bool(np.all(matrix @ np.ones(matrix.shape[1]) >= -cut))


def _symmetric_norm(entries: list[np.ndarray]) -> np.ndarray:
    """||P||_2 = |s| + r of symmetric 1x1 or 2x2 matrices P with eigenvalues s +- r,
    s = (p00 + p11)/2 and r = sqrt(((p00 - p11)/2)^2 + p01 p10), from their
    entry arrays in row-major order, which it reads and never writes."""
    if len(entries) == 1:
        return np.abs(entries[0])
    p00, p01, p10, p11 = entries
    half_sum, radius = p00 + p11, p00 - p11  # every later pass runs in place
    half_sum *= 0.5
    radius *= 0.5
    radius *= radius
    radius += p01 * p10
    return np.add(np.abs(half_sum, out=half_sum), np.sqrt(radius, out=radius), out=radius)


def _pulled_back_norm(inv: np.ndarray) -> np.ndarray:
    """||inv inv^T||_2 over a stack (..., d, d) of 1x1 or 2x2 matrices inv."""
    if inv.shape[-1] == 1:
        return np.abs(inv[..., 0, 0] * inv[..., 0, 0])
    a, b, c, d = inv[..., 0, 0], inv[..., 0, 1], inv[..., 1, 0], inv[..., 1, 1]
    return _symmetric_norm([a * a + b * b, a * c + b * d, c * a + d * b, c * c + d * d])


def element_alignment_factor(system: AssembledSystem) -> np.ndarray:
    """max_q || G_q ||_2 for every element, G_q = F'^-1 D(x_q) F'^-T the system's metric.

    x_q are the images of the stiffness quadrature points, where the system
    sampled D, and A integrates these same G_q.  So with g_q = grad v-hat,
    v^T A_K v = |K| sum_q w_q g_q^T G_q g_q <= |K| max_q ||G_q|| sum_q w_q |g_q|^2
    = |K| max_q ||G_q|| times the integral of |grad v-hat|^2 over K-hat: the
    weights are positive and the rule is exact to degree 2(m - 1).  The rest
    of the geometric bound's proof is unchanged, and no other point is
    needed.  Exact for constant diffusion.
    """
    metric = system.metric
    d = metric.shape[-1]
    return _symmetric_norm([metric[..., a, c] for a, c in np.ndindex(d, d)]).max(axis=1)


def geometric_bound(system: AssembledSystem) -> float:
    """Patch-based upper bound on lambda_max of the system's pencil.

    eta * (C_H1 / surrogate_lambda_min) * max over free DOFs of the patch
    average (P @ (|K| * alignment(K))) / (P @ |K|), with P the system's
    free-DOF-by-element patch incidence.
    """
    geometry, elem = system.mesh.geometry, system.elem
    align = element_alignment_factor(system)
    averages = (system.patch_incidence @ (geometry.volume * align)) / system.patch_volumes
    worst = float(np.max(averages, initial=0.0))
    return elem.node_count * (elem.c_h1 / system.surrogate_lambda_min) * worst


def zhudu_bound(system: AssembledSystem) -> float:
    """Comparison bound: max_K max_q lambda_max(D(x_q)) * ||F'^-1 F'^-T||_2.

    Reported without its unstated leading constant; used for trend
    comparisons against the geometric bound, not as a certified bound.
    D is read from the system's samples, at the stiffness quadrature points.
    """
    jacobian_part = _pulled_back_norm(system.mesh.geometry.inv_jacobian)
    lam_d = np.linalg.eigvalsh(system.diffusion_samples)[..., -1].max(axis=1)
    return float(np.max(lam_d * jacobian_part, initial=0.0))


@dataclass(frozen=True)
class BoundReport:
    """All bound expressions for one assembled configuration.

    sandwich_satisfied says whether lambda_max_exact lies between the
    diagonal-ratio bounds, each widened by a relative 1e-9 for roundoff;
    it is None when the eigensolve was skipped.
    """

    dimension: int
    n_elements: int
    n_dofs: int
    order: int
    node_count: int
    policy: str
    kappa_surrogate: float
    c_h1: float
    lambda_max_exact: float | None
    lower_diag_ratio: float
    upper_diag_ratio: float
    upper_geometric: float
    upper_zhudu: float
    tightness_lower: float | None
    tightness_upper: float | None
    m_matrix_refinement_applied: bool
    upper_diag_ratio_refined: float | None
    sandwich_satisfied: bool | None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in BOUND_CSV_FIELDS}

    def csv_row(self) -> list[str]:
        return [csv_cell(value) for value in self.to_dict().values()]


# The report's columns, in order: every report file takes them from here.
BOUND_CSV_FIELDS = [f.name for f in fields(BoundReport)]


def csv_cell(value) -> str:
    """One CSV cell: None is empty, booleans are true/false, floats %.17g."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def compute_bound_report(
    mesh: SimplicialMesh,
    elem: ReferenceElement,
    diffusion: DiffusionField,
    policy: SurrogatePolicy,
    dof_cap: int = DEFAULT_DOF_CAP,
    system: AssembledSystem | None = None,
) -> BoundReport:
    """Assemble (unless given a system) and evaluate every bound expression.

    A given system must be built from these mesh, elem and diffusion objects
    and an equal policy, or ValueError.  Every field is read from the system
    (its inputs, geometry, patches and surrogate spectrum); nothing is rebuilt.

    The exact eigenvalue is lambda_max_with_vector's, read from the one
    eigensolve the system keeps.  It, and with it the sandwich check, is
    skipped (reported as None) when the reduced system exceeds dof_cap
    degrees of freedom.
    """
    if system is None:
        system = assemble_system(mesh, elem, diffusion, policy)
    elif not (mesh is system.mesh and elem is system.elem and diffusion is system.diffusion
              and policy == system.policy):
        raise ValueError("the system was not assembled from these inputs")
    lower, upper = diag_ratio_bounds(system)
    geometric = geometric_bound(system)
    zhudu = zhudu_bound(system)
    m_matrix = is_m_matrix(system.stiffness)
    refined = 2.0 * system.kappa_surrogate * lower if m_matrix else None
    lam = sandwich = None
    if system.n_dofs <= dof_cap:
        lam = _system_eigensolve(system)[0]
        slack = 1.0 + 1e-9  # roundoff allowance of the sandwich check
        sandwich = lower <= lam * slack and lam <= upper * slack
    return BoundReport(
        dimension=system.mesh.dimension,
        n_elements=system.mesh.n_elements,
        n_dofs=system.n_dofs,
        order=system.elem.order,
        node_count=system.elem.node_count,
        policy=system.policy.kind,
        kappa_surrogate=system.kappa_surrogate,
        c_h1=system.elem.c_h1,
        lambda_max_exact=lam,
        lower_diag_ratio=lower,
        upper_diag_ratio=upper,
        upper_geometric=geometric,
        upper_zhudu=zhudu,
        tightness_lower=None if lam is None else lam / lower,
        tightness_upper=None if lam is None else upper / lam,
        m_matrix_refinement_applied=m_matrix,
        upper_diag_ratio_refined=refined,
        sandwich_satisfied=sandwich,
    )
