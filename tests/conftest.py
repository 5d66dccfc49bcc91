"""Shared pytest hooks and test oracles.

The acceptance tests produce one human-readable verdict line per criterion.
Under pytest's default fd-level capture those lines would vanish into the
per-test buffers, so they are queued here and re-emitted after capture is
torn down, in the terminal summary of every run.

Two oracles live here because the package itself has no use for them:
lambda_max_dense is the dense eigensolve the iterative lambda_max and the
bounds are checked against, and verify_matrix_inequalities decides each
matrix inequality behind the bounds by the inertia of one sparse symmetric
LU, no eigensolve: a pass holds up to a backward error far below its
tolerance, and a failure raises InequalityViolation with a witness vector.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rkstab.assembly import AssembledSystem, symmetric_lu

_INEQUALITY_TOL = 1e-10  # the shift of lhs - rhs, relative to the operands' norm

_acceptance_lines: list[str] = []


def record_acceptance_line(line: str) -> None:
    _acceptance_lines.append(line)


def lambda_max_dense(A, surrogate) -> float:
    """Largest eigenvalue of the pencil (A, M-tilde) by dense eigh (small systems only)."""
    return float(sla.eigh(A.toarray(), surrogate.toarray(), eigvals_only=True)[-1])


class InequalityViolation(AssertionError):
    """A matrix inequality failed; carries the margin and a witness vector."""

    def __init__(self, name: str, margin: float, witness: np.ndarray):
        super().__init__(f"{name} violated: margin {margin:.3e}")
        self.name = name
        self.margin = margin
        self.witness = witness

    def __reduce__(self):
        return type(self), (self.name, self.margin, self.witness)


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)
