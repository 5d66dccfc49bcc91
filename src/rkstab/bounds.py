"""Two-sided bounds on the largest eigenvalue of the pencil (A, M-tilde).

The diagonal-ratio bounds sandwich lambda_max between max_i A_ii/Mt_ii and
eta * kappa(Mt_ref) times that maximum; the geometric bound re-expresses the
upper end through patch volumes and element alignment factors, and the
comparison bound (largest diffusion eigenvalue times the squared inverse
Jacobian norm) is reported alongside for anisotropy studies.

The exact eigenvalue comes from one three-term Lanczos recurrence for
Mt^-1 A in the Mt inner product, for every surrogate: one A @ q and one
surrogate solve per step, no restarts, no reorthogonalization, and a Ritz
residual test on a growing schedule.  A system makes this forward run once
per seed, with its own surrogate solve, and keeps it: the report reads the
value from it, and a replay of it rebuilds the eigenvector (see
lambda_max_with_vector).  Each matrix inequality behind the bounds is
decided by the inertia of one sparse symmetric LU, no eigensolve: a pass
holds up to a backward error far below its tolerance, and a failure
carries a witness vector.

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
import scipy.sparse.linalg as spla
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dstebz, dstein

from .assembly import (
    AssembledSystem,
    DiffusionField,
    SurrogatePolicy,
    assemble_system,
    surrogate_solver,
    symmetric_lu,
)
from .mesh import SimplicialMesh
from .reference import ReferenceElement

__all__ = [
    "BoundReport",
    "ConvergenceError",
    "InequalityViolation",
    "DEFAULT_SEED",
    "DEFAULT_DOF_CAP",
    "lambda_max_generalized",
    "lambda_max_with_vector",
    "diag_ratio_bounds",
    "is_m_matrix",
    "element_alignment_factor",
    "geometric_bound",
    "zhudu_bound",
    "verify_matrix_inequalities",
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


class InequalityViolation(AssertionError):
    """A matrix inequality failed; carries the margin and a witness vector."""

    def __init__(self, name: str, margin: float, witness: np.ndarray):
        super().__init__(f"{name} violated: margin {margin:.3e}")
        self.name = name
        self.margin = margin
        self.witness = witness

    def __reduce__(self):
        return type(self), (self.name, self.margin, self.witness)


# Convergence checks run at steps 10, 20, ..., 100 and then after gaps of
# max(_CHECK_EVERY, k // 10) steps.  A check bisects the whole T_k, so on a
# fixed gap the checks of a long run cost as much as its A products; the
# growing gap makes about 24 checks per decade of steps, for at most 10%
# more steps than checking every step.
_CHECK_EVERY = 10
_MAX_OPS = 10000  # applications of A a forward run may make, the one a failure makes included
_RITZ_TOL = 1e-10  # converged: Ritz residual bound beta_k+1 |s_k| <= _RITZ_TOL * theta
_INEQUALITY_TOL = 1e-10  # the shift of lhs - rhs, relative to the operands' norm


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


def _lanczos(A: sp.csr_array, solve: Callable, v0: np.ndarray):
    """Yield (q_k, p_k, alpha_k, beta_k+1), one step per application of A.

    The q_k are Mt-orthonormal, starting from q_0 ~ solve(v0), and p_k = Mt q_k
    is carried along from the vector that solve turned into q_k, so Mt is
    never applied.  The alphas and betas make the tridiagonal T.  Stops after
    a zero beta (an invariant subspace).  The three-term subtractions update
    A @ q in place (BLAS daxpy), with no temporaries.
    """
    w = solve(v0)
    beta = math.sqrt(v0 @ w)
    q, p, p_prev = w / beta, v0 / beta, None
    while True:
        u = A @ q
        if p_prev is not None:
            u = daxpy(p_prev, u, a=-beta)
        alpha = float(q @ u)
        u = daxpy(p, u, a=-alpha)
        w = solve(u)
        beta = math.sqrt(max(float(u @ w), 0.0))
        yield q, p, alpha, beta
        if beta == 0.0:
            return
        w /= beta
        u /= beta
        q, p, p_prev = w, u, p


def _top_ritz_pair(
    A: sp.csr_array,
    surrogate: sp.csr_array,
    solve: Callable,
    max_ops: int,
    seed: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Converged top Ritz value theta, its T eigenvector s, and the start v0.

    solve applies surrogate^-1.  The residual test runs on the schedule of
    _CHECK_EVERY, at the last step allowed, and whenever beta falls below
    _RITZ_TOL times the largest alpha: then it passes, since theta >= alpha_j
    and |s_k| <= 1.  Steps are capped at max_ops - 1, so that max_ops
    applications of A cover the run and the one application a failure makes.
    """
    n = A.shape[0]
    if A.shape != surrogate.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {surrogate.shape}")
    diag_a = A.diagonal()
    diag_m = surrogate.diagonal()
    if np.any(diag_m <= 0) or np.any(diag_a <= 0):
        raise ValueError("pencil matrices must have positive diagonals")
    top = int(np.argmax(diag_a / diag_m))
    v0 = np.random.default_rng(seed).standard_normal(n)
    v0[top] += 1.0
    max_steps = max(max_ops - 1, 0)
    alphas, betas = np.empty(max_steps), np.empty(max_steps)
    largest, next_check = 0.0, _CHECK_EVERY
    steps = itertools.islice(_lanczos(A, solve, v0), max_steps)
    for k, (_, _, alpha, beta) in enumerate(steps, start=1):
        alphas[k - 1], betas[k - 1] = alpha, beta
        largest = max(largest, alpha)
        if k == next_check or k == max_steps or beta <= _RITZ_TOL * largest:
            next_check = k + max(_CHECK_EVERY, k // 10)
            theta, s = _tridiagonal_top_pair(alphas[:k], betas[:k - 1])
            if beta * abs(s[-1]) <= _RITZ_TOL * theta:
                return theta, s, v0
    # No Ritz value met the tolerance.  Report the Rayleigh quotient of the
    # unit vector at the largest diagonal ratio, a true lower bound.
    theta = float(diag_a[top] / diag_m[top])
    e = np.zeros(n)
    e[top] = 1.0
    r = A @ e - theta * (surrogate @ e)
    residual = float(np.sqrt(r @ solve(r) / diag_m[top])) / theta
    raise ConvergenceError(
        f"no convergence within {max_ops} operator applications "
        f"(diagonal-ratio estimate {theta:.17g}, residual {residual:.3e})",
        best_estimate=theta,
        residual=residual,
    )


def _forward_run(system: AssembledSystem, seed: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The system's converged forward run from seed, made on the first request
    for that seed with the system's surrogate_solve and _MAX_OPS - 1 steps."""
    if seed not in system._lanczos_runs:
        system._lanczos_runs[seed] = _top_ritz_pair(system.stiffness, system.surrogate_mass,
                                                    system.surrogate_solve, _MAX_OPS, seed)
    return system._lanczos_runs[seed]


def lambda_max_with_vector(system: AssembledSystem, seed: int = DEFAULT_SEED) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the system's pencil (A, M-tilde) and its
    eigenvector (surrogate-normalized).

    The plain three-term Lanczos recurrence for Mt^-1 A in the Mt inner
    product, without restarts or reorthogonalization (Paige 1980; Parlett,
    The Symmetric Eigenvalue Problem, 1998), which finds the top Ritz value
    reliably.  Each step applies A once (as A @ q) and the system's
    surrogate_solve once; M-tilde itself is never applied.  The start vector
    is Mt^-1 v0, with v0 drawn from default_rng(seed) and boosted toward the
    largest diagonal ratio.  At steps 10, 20, ..., 100, and after that
    every k // 10 steps, the top eigenpair (theta, s) of the tridiagonal T_k
    is computed, and the run stops when the Ritz residual bound
    beta_k+1 |s_k| is at most _RITZ_TOL * theta, or when beta vanishes (an
    invariant subspace, which covers a single DOF).  A k-step solve makes
    about 10 + 24 log10(k / 100) checks, for at most 10% more steps than a
    check at every step would take.  The run may take _MAX_OPS - 1 steps.
    The system keeps it, once per seed, and compute_bound_report reads its
    value from the same run: at one seed they share it.

    The eigenvector x = sum_j s_j q_j is rebuilt by replaying the same
    deterministic recurrence, which regenerates the q_j bit for bit, while
    Mt x = sum_j s_j p_j is accumulated alongside, so normalizing
    x^T Mt x = 1 needs no product with Mt.  The replay applies A as often as
    the run did.  The sign is fixed so that the entry of x largest in
    magnitude is positive.

    Raises ConvergenceError when no Ritz value meets the tolerance within
    the cap.  The error carries the Rayleigh quotient A_ii / Mt_ii of the
    unit vector at the largest diagonal ratio, a true lower bound on
    lambda_max, together with its relative residual
    ||A x - theta Mt x||_{Mt^-1} / (theta ||x||_Mt).
    """
    theta, s, v0 = _forward_run(system, seed)
    x = np.zeros(system.n_dofs)
    mx = np.zeros_like(x)
    for s_j, (q, p, _, _) in zip(s, _lanczos(system.stiffness, system.surrogate_solve, v0)):
        x += s_j * q
        mx += s_j * p
    x /= math.sqrt(x @ mx)
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    return theta, x


def lambda_max_generalized(
    A: sp.csr_array,
    surrogate: sp.csr_array,
    max_ops: int = _MAX_OPS,
    seed: int = DEFAULT_SEED,
) -> float:
    """Largest eigenvalue of the pencil (A, M-tilde); see lambda_max_with_vector.

    Runs the same recurrence for up to max_ops - 1 steps, with a solve of
    its own from surrogate_solver, and keeps nothing.
    """
    return _top_ritz_pair(A, surrogate, surrogate_solver(surrogate), max_ops, seed)[0]


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


def _negative_direction(matrix: sp.csr_array) -> np.ndarray | None:
    """x with x^T B x < 0 for the symmetric B = matrix, or None if B is PD.

    With diagonal pivots symmetric_lu gives P B P^T = L D L^T, and B has as
    many negative eigenvalues as D has negative entries (Sylvester's law of
    inertia).  For the first, d_k, x = P^T L^-T e_k gives x^T B x = d_k.  A
    pivot off the diagonal (perm_r != perm_c) leaves the inertia unread.
    """
    lu = symmetric_lu(matrix)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise np.linalg.LinAlgError("off-diagonal pivot: the inertia cannot be read")
    negative = lu.U.diagonal() < 0
    if not negative.any():
        return None
    e_k = np.eye(1, matrix.shape[0], int(np.argmax(negative)))[0]  # the first negative pivot
    return spla.spsolve_triangular(lu.L.T, e_k, lower=False, unit_diagonal=True)[lu.perm_r]


def verify_matrix_inequalities(system: AssembledSystem) -> list[str]:
    """Check the structural matrix inequalities lhs >= rhs behind the bounds:
      * diagonal domination: eta * diag(A) >= A,
      * patch-volume sandwich: surrogate_lambda_min * W <= Mt <=
        surrogate_lambda_max * W with W = diag(patch volumes),
      * diagonal sandwich: kappa^-1 * diag(Mt) <= Mt <= kappa * diag(Mt).

    With tol = _INEQUALITY_TOL, a check passes when B = lhs - rhs +
    tol*scale*I, scale the larger operand's infinity norm, has no negative
    pivot in one symmetric_lu.  That is a Cholesky in disguise, exact for
    B + E with |E_ij| <= gamma_(c+1) (B_ii B_jj)^(1/2), c the largest column
    count of L (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    Thm 10.3).  So a pass shows lambda_min(lhs - rhs) >= -(tol + c^2 u)
    scale, u the unit roundoff; c^2 u is 1e-11 at 64x64 P2.  A failure raises InequalityViolation with the
    witness x of the first negative pivot and the margin x^T (lhs - rhs) x /
    (scale x^T x), in [lambda_min / scale, -tol).  Returns the check names.
    """
    A = system.stiffness
    surrogate = system.surrogate_mass
    W = sp.diags_array(system.patch_volumes, format="csr")
    diag_m = sp.diags_array(surrogate.diagonal(), format="csr")
    kappa = system.kappa_surrogate
    checks = {
        "diagonal_domination": (system.elem.node_count * sp.diags_array(A.diagonal(), format="csr"), A),
        "patch_volume_lower": (surrogate, system.surrogate_lambda_min * W),
        "patch_volume_upper": (system.surrogate_lambda_max * W, surrogate),
        "diagonal_sandwich_lower": (surrogate, (1.0 / kappa) * diag_m),
        "diagonal_sandwich_upper": (kappa * diag_m, surrogate),
    }
    for name, (lhs, rhs) in checks.items():
        scale = max(spla.norm(lhs, np.inf), spla.norm(rhs, np.inf))
        diff = lhs - rhs
        witness = _negative_direction(diff + _INEQUALITY_TOL * scale * sp.eye_array(system.n_dofs))
        if witness is not None:
            margin = float(witness @ (diff @ witness)) / (scale * float(witness @ witness))
            raise InequalityViolation(name, margin, witness)
    return list(checks)


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
    seed: int = DEFAULT_SEED,
    system: AssembledSystem | None = None,
) -> BoundReport:
    """Assemble (unless given a system) and evaluate every bound expression.

    A given system must be built from these mesh, elem and diffusion objects
    and an equal policy, or ValueError.  Every field is read from the system
    (its inputs, geometry, patches and surrogate spectrum); nothing is rebuilt.

    The exact eigenvalue is the value of the system's forward run from seed,
    which lambda_max_with_vector replays.  It, and with it the sandwich
    check, is skipped (reported as None) when the reduced system exceeds
    dof_cap degrees of freedom.
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
        lam = _forward_run(system, seed)[0]
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
