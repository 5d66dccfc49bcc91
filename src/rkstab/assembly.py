"""Mass, stiffness, and surrogate-mass assembly with Dirichlet reduction.

Element mass matrices are exactly |K| times one shared reference matrix (the
consistent reference mass or a lumped surrogate of it), so every surrogate
satisfies the two structural axioms this library is built on: the reference
matrix is symmetric positive definite, and the element matrix is its |K|
multiple.  A diagonal reference matrix (HRZ lumping, node quadrature)
assembles to a diagonal, summed per DOF by one bincount.  Stiffness integrals
are evaluated by quadrature after pulling the diffusion tensor back to the
reference cell, at points where DiffusionField.on samples D once; the system
keeps those samples and G = F'^-1 D F'^-T at each, which A integrated, and
every bound reads D through them.  A callable D, like
l2_project's function, is called once per point by one helper, whose values
stream into one array: the first value fixes the shape of all of them, and
no per-point list is kept.

Every builder reads the mesh's own affine maps, SimplicialMesh.geometry,
which the mesh builds once, and its DOF numbering, SimplicialMesh.numbering,
which it builds once per order.  assemble_system builds A, the surrogate
M-tilde and the patch arrays, each cut to the free DOFs by apply_dirichlet as
it is built.  The consistent mass M enters only the L2 norm that integrate
monitors, so the system builds it with assemble_mass and cuts it on first
read; under the consistent policy it is M-tilde.

l2_project solves its one system in M with no factorisation: a Chebyshev
iteration on the Jacobi-scaled M, over the reference element's interval and
for a step count fixed in advance.  surrogate_solver is for the eigensolve and
the stepper, which solve with one matrix hundreds of times and share the one
solve each system builds (AssembledSystem.surrogate_solve): it divides by a
diagonal, factors a narrow band (every 1D mass) by banded Cholesky, and any
other matrix by one symmetric_lu, and it refuses a matrix that is not
positive definite.

The element stiffness matrices come from _metric's G and one blocked kernel,
which run every sum in one fixed order: the order numpy 2.4's einsum takes
for the same contractions.  So A keeps the bytes, and the stored nonzero
count, that the einsum form gave, and they no longer depend on how a numpy
version iterates inside einsum.  The element axis is innermost and blocked,
so each numpy call works on thousands of contiguous values: about 0.06 s at
128x128 P2 (32,768 triangles), against 0.8 s for the einsum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .mesh import (
    AffineGeometry,
    DofNumbering,
    SimplicialMesh,
    build_patches,
    free_dofs,
)
from .reference import (
    ReferenceElement,
    simplex_quadrature,
    tabulate_basis,
    tabulate_gradients,
)

__all__ = [
    "DiffusionField",
    "SurrogatePolicy",
    "AssembledSystem",
    "SurrogateAxiomError",
    "NonSPDDiffusionError",
    "surrogate_reference_matrix",
    "surrogate_solver",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_system",
    "l2_project",
    "POLICY_KINDS",
    "CONSISTENT",
    "HRZ_DIAGONAL",
    "NODE_QUADRATURE",
]


class SurrogateAxiomError(ValueError):
    """A surrogate policy produced a reference matrix violating axiom (M1)."""


class NonSPDDiffusionError(ValueError):
    """The diffusion tensor failed the SPD check at some sample point."""


@dataclass(frozen=True, eq=False)
class DiffusionField:
    """Diffusion tensor D(x): a constant matrix or a callable of position, not both.

    A constant matrix is kept as a read-only float copy, checked to be SPD
    once, here; a callable's values are checked where the stiffness assembly
    integrates them.  `on` gives the values on the elements.  For callables,
    `degree` declares a polynomial-degree proxy used to pick the stiffness
    quadrature order.  Two fields are equal only when they are one object,
    and a field hashes by identity.
    """

    matrix: np.ndarray | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = None
    degree: int = 0

    def __post_init__(self):
        if (self.matrix is None) == (self.func is None):
            raise ValueError("a diffusion field needs exactly one of matrix and func")
        if self.matrix is not None:
            matrix = np.array(self.matrix, dtype=float)
            matrix.flags.writeable = False
            object.__setattr__(self, "matrix", matrix)
            if self.matrix.shape not in ((1, 1), (2, 2)):
                raise ValueError(f"diffusion matrix must be 1x1 or 2x2, got shape {self.matrix.shape}")
            kinds = [kind for kind, bad in _spd_defects(self.matrix).items() if bad]
            if kinds:
                raise NonSPDDiffusionError(f"diffusion tensor not {kinds[0]}: {self.matrix.tolist()}")

    @staticmethod
    def constant(matrix, d: int | None = None) -> "DiffusionField":
        """Constant tensor; scalars become multiples of the identity."""
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim == 0:
            if d is None:
                raise ValueError("scalar diffusion needs an explicit dimension")
            arr = float(arr) * np.eye(d)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"diffusion matrix must be square, got shape {arr.shape}")
        return DiffusionField(matrix=arr)

    @staticmethod
    def rotated_anisotropic(angle: float, eigenvalues: tuple[float, float]) -> "DiffusionField":
        """2D tensor with the given eigenvalues, principal axis at `angle`."""
        k1, k2 = eigenvalues
        if k1 <= 0 or k2 <= 0:
            raise NonSPDDiffusionError(f"diffusion eigenvalues must be positive, got {eigenvalues}")
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        matrix = rot @ np.diag([k1, k2]) @ rot.T
        return DiffusionField(matrix=0.5 * (matrix + matrix.T))

    @staticmethod
    def from_callable(func, degree: int) -> "DiffusionField":
        """Position-dependent tensor with a declared polynomial-degree proxy."""
        return DiffusionField(func=func, degree=int(degree))

    @property
    def is_constant(self) -> bool:
        return self.func is None

    def on(self, geometry: AffineGeometry, ref_points: np.ndarray) -> np.ndarray:
        """D at the images of ref_points (P, d) on every element, shape (E, P, d, d).

        A constant comes back once, as a read-only (1, 1, d, d) view that
        broadcasts over both axes, after a check that it is d x d.  A callable
        is called once per point, and its values stream into one read-only
        array, not checked for SPD here.  They must be d x d (in 1D, any
        one value); the first value fixes the shape, so a wrong one fails
        after one call, and a later value of another shape fails too.
        """
        d = geometry.jacobian.shape[-1]
        if self.is_constant:
            if self.matrix.shape[0] != d:
                raise ValueError(f"diffusion matrix is {self.matrix.shape[0]}x{self.matrix.shape[0]} "
                                 f"on a mesh of dimension {d}")
            return np.broadcast_to(self.matrix, (1, 1, d, d))

        def check(shape):
            if shape != (d, d) and not (d == 1 and math.prod(shape) == 1):
                raise ValueError(f"diffusion callable must return shape ({d}, {d}), got {shape}")

        points = geometry.map_points(ref_points)
        values = _at_each_point(self.func, points, check).reshape(*points.shape[:-1], d, d)
        values.flags.writeable = False
        return values


def _at_each_point(
    func: Callable[[np.ndarray], object],
    points: np.ndarray,
    check: Callable[[tuple[int, ...]], None],
) -> np.ndarray:
    """func at each point of points (..., d), one call per point, in C order.

    The one place a user function is called point by point.  The values
    stream into one float array, one row per point, which the caller
    reshapes; no value outlives its conversion.  The first value fixes the
    shape of every row: check(shape) may reject it before the second call,
    and a later value of another shape raises ValueError.  A float row
    refuses a sequence of several values by itself; a shaped row would take
    any value that broadcasts to it, so each of its values is checked here.
    """
    rows = iter(points.reshape(-1, points.shape[-1]))
    first = func(next(rows))
    shape = np.shape(first)
    check(shape)

    def checked(row):
        value = func(row)
        if getattr(value, "shape", None) != shape and np.shape(value) != shape:
            raise ValueError(f"every value must have the first value's shape {shape}, "
                             f"got {np.shape(value)} at {row.tolist()}")
        return value

    values = itertools.chain([first], map(checked if shape else func, rows))
    return np.fromiter(values, dtype=(float, shape), count=points.size // points.shape[-1])


def _spd_defects(samples: np.ndarray) -> dict[str, np.ndarray]:
    """Masks of the tensors in samples, shape (..., d, d), that are not finite,
    not symmetric, or not positive definite, in that order of precedence."""
    with np.errstate(invalid="ignore"):  # inf - inf in a tensor already not finite
        sym_err = np.abs(samples - samples.swapaxes(-1, -2)).max(axis=(-2, -1))
        scale = np.abs(samples).max(axis=(-2, -1))
        asymmetric = sym_err > 1e-13 * np.maximum(scale, 1.0)
        if samples.shape[-1] == 1:
            indefinite = samples[..., 0, 0] <= 0
        else:
            trace = samples[..., 0, 0] + samples[..., 1, 1]
            det = samples[..., 0, 0] * samples[..., 1, 1] - samples[..., 0, 1] * samples[..., 1, 0]
            indefinite = (trace <= 0) | (det <= 0)
    finite = np.isfinite(samples).all(axis=(-2, -1))
    return {"finite": ~finite, "symmetric": asymmetric, "positive definite": indefinite}


def _check_spd_samples(samples: np.ndarray) -> None:
    """Validate finiteness, symmetry and positive definiteness of sampled tensors.

    samples is (n_elements, n_points, d, d); the error names the first
    element with a bad sample, and its first bad point.
    """
    defects = _spd_defects(samples)
    bad_elements = np.nonzero(np.any(np.logical_or.reduce(list(defects.values())), axis=1))[0]
    if bad_elements.size:
        e = bad_elements[0]
        kind, bad = next((kind, mask[e]) for kind, mask in defects.items() if mask[e].any())
        raise NonSPDDiffusionError(
            f"diffusion tensor not {kind} at element {e}, "
            f"quadrature point {np.argmax(bad)}"
        )


POLICY_KINDS = ("consistent", "hrz_diagonal", "node_quadrature")


@dataclass(frozen=True)
class SurrogatePolicy:
    """How the surrogate mass matrix is built from the reference element."""

    kind: str  # one of POLICY_KINDS

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown surrogate policy {self.kind!r}")


CONSISTENT = SurrogatePolicy("consistent")
HRZ_DIAGONAL = SurrogatePolicy("hrz_diagonal")
NODE_QUADRATURE = SurrogatePolicy("node_quadrature")


def surrogate_reference_matrix(elem: ReferenceElement, policy: SurrogatePolicy) -> np.ndarray:
    """Reference surrogate mass matrix for the policy; checks axiom (M1).

    consistent: the reference mass matrix itself.  hrz_diagonal: its diagonal
    rescaled to preserve total reference mass.  node_quadrature: the nodal
    quadrature weights (row sums of the reference mass), valid only when all
    of them are strictly positive.
    """
    mass = elem.ref_mass_matrix
    if policy.kind == "consistent":
        ref = mass
    elif policy.kind == "hrz_diagonal":
        diag = np.diag(mass)
        ref = np.diag(diag / diag.sum())
    else:  # node_quadrature
        weights = mass.sum(axis=1)
        if np.any(weights <= 1e-14):
            raise SurrogateAxiomError(
                f"(M1) violated by policy node_quadrature: nonpositive nodal "
                f"weight for d={elem.dimension}, m={elem.order} "
                f"(min weight {weights.min():.3e})"
            )
        ref = np.diag(weights)
    eigenvalues = np.linalg.eigvalsh(ref)
    if eigenvalues[0] <= 0:
        raise SurrogateAxiomError(
            f"(M1) violated by policy {policy.kind}: reference matrix not SPD "
            f"(min eigenvalue {eigenvalues[0]:.3e})"
        )
    return ref


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """Dirichlet-reduced sparse system M, A, and surrogate M-tilde.

    mesh, elem, diffusion and policy are what it was assembled from, and
    every bound reads them here, D through diffusion_samples: the read-only
    (E, Q, d, d) values A integrated, (1, 1, d, d) for a constant; and
    through metric: G = F'^-1 D F'^-T at each, as _metric returns it, the
    tensor A integrated.  dof_map lists the full DOFs that survived the
    Dirichlet cut, in the order of the reduced rows.  surrogate_lambda_min and _max are the extreme eigenvalues
    of the surrogate reference matrix.
    patch_incidence is the free-DOF-by-element patch incidence P, and
    patch_volumes is P @ |K|.  mass, the consistent M, and surrogate_solve
    are built on first read; _lanczos_runs holds the eigensolve's converged
    forward run for each seed, filled by rkstab.bounds.  A system carries
    these caches, so it is equal only to itself and hashes by identity.
    """

    stiffness: sp.csr_array
    surrogate_mass: sp.csr_array
    mesh: SimplicialMesh
    elem: ReferenceElement
    diffusion: DiffusionField
    diffusion_samples: np.ndarray
    metric: np.ndarray
    policy: SurrogatePolicy
    dof_map: np.ndarray
    surrogate_lambda_min: float
    surrogate_lambda_max: float
    numbering: DofNumbering
    patch_incidence: sp.csr_array
    patch_volumes: np.ndarray
    _lanczos_runs: dict[int, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def mass(self) -> sp.csr_array:
        """The Dirichlet-reduced consistent mass M, built on first read.

        Under the consistent policy M is the surrogate itself.  Otherwise
        assemble_mass builds it, and apply_dirichlet cuts it.
        """
        if self.policy.kind == "consistent":
            return self.surrogate_mass
        full, _ = assemble_mass(self.mesh, self.elem, CONSISTENT)
        return apply_dirichlet(full, self.dof_map)

    @functools.cached_property
    def surrogate_solve(self) -> Callable[[np.ndarray], np.ndarray]:
        """surrogate_solver(surrogate_mass), built on first read: the one
        factorisation of M-tilde that the eigensolve and the stepper share.
        A SuperLU factor, with its copies of L and U, lives as long as the system.
        """
        return surrogate_solver(self.surrogate_mass)

    @property
    def n_dofs(self) -> int:
        return self.dof_map.size

    @property
    def kappa_surrogate(self) -> float:
        """Condition number of the surrogate reference matrix."""
        return self.surrogate_lambda_max / self.surrogate_lambda_min

    @functools.cached_property
    def diag_stiffness(self) -> np.ndarray:
        """A's diagonal (read-only), read once: scipy's diagonal() searches every row."""
        diagonal = self.stiffness.diagonal()
        diagonal.flags.writeable = False
        return diagonal

    @property
    def l2_growth_bound(self) -> float:
        """sqrt(kappa(M-hat) kappa(M-tilde_ref)), the a priori bound on L2 growth."""
        return math.sqrt(self.elem.condition_number * self.kappa_surrogate)

    @functools.cached_property
    def diag_surrogate(self) -> np.ndarray:
        """M-tilde's diagonal (read-only), read once, as diag_stiffness is."""
        diagonal = self.surrogate_mass.diagonal()
        diagonal.flags.writeable = False
        return diagonal

    @property
    def surrogate_is_diagonal(self) -> bool:
        return _is_diagonal(self.surrogate_mass)


def _is_diagonal(matrix: sp.csr_array) -> bool:
    """Whether every stored entry, an explicit zero too, sits on the diagonal."""
    if matrix.nnz > matrix.shape[0]:  # canonical, so some entry is off the diagonal
        return False
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return bool(np.array_equal(matrix.indices, rows))


def surrogate_solver(matrix: sp.csr_array) -> Callable[[np.ndarray], np.ndarray]:
    """Apply-inverse for a symmetric positive definite surrogate mass.

    A diagonal is divided exactly.  Any other matrix is renumbered by
    reverse Cuthill-McKee.  If its band b then fills its band storage,
    (b + 1) n <= 2 nnz, as timestepping._product_storage asks of DIA
    storage, it is factored once by LAPACK's banded Cholesky dpbtrf, from
    its upper triangle, and each solve is one dpbtrs.  Every 1D mass meets
    the rule, with b at most the element order.  The rule exists because
    SuperLU makes separate BLAS calls for each of its supernodes, which at
    1D P3 span two columns: there its solve took 3-4x as long as dpbtrs.
    A 2D mass keeps the solve of one symmetric_lu unless its mesh is a thin
    strip: at 64x64 P2, b is 501 against a limit of 21.

    Both factorisations raise ValueError unless every pivot is positive, so
    an indefinite or singular matrix never gets a solve.  On the SuperLU
    path that reads U, which took 7-15% of the factorisation time at 64x64
    and 128x128 P2, and SuperLU then keeps its CSC copies of L and U for as
    long as the solve lives (104 MB at 128x128 P2).
    """
    if _is_diagonal(matrix):
        diag = matrix.diagonal()
        if np.any(diag <= 0):
            raise ValueError("surrogate mass diagonal must be positive")
        inv = 1.0 / diag
        return lambda b: inv * b
    # csgraph loads here only: a diagonal surrogate never needs it
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    n = matrix.shape[0]
    order = reverse_cuthill_mckee(matrix, symmetric_mode=True).astype(np.intp)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    rows = position[np.repeat(np.arange(n), np.diff(matrix.indptr))]
    cols = position[matrix.indices]
    band = int(np.abs(rows - cols).max())
    if (band + 1) * n <= 2 * matrix.nnz:
        upper = rows <= cols
        storage = np.zeros((band + 1, n))
        storage[band + rows[upper] - cols[upper], cols[upper]] = matrix.data[upper]
        factor, info = dpbtrf(storage, overwrite_ab=True)
        if info != 0:
            raise ValueError(f"surrogate mass is not positive definite (Cholesky info {info})")

        def banded_solve(b: np.ndarray) -> np.ndarray:
            x, _ = dpbtrs(factor, b[order], overwrite_b=True)
            return x[position]

        return banded_solve
    try:
        lu = symmetric_lu(matrix)
    except RuntimeError as error:  # SuperLU's "Factor is exactly singular"
        raise ValueError(f"surrogate mass is not positive definite ({error})") from error
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)):
        raise ValueError("surrogate mass is not positive definite (a pivot is not positive)")
    return lu.solve


def symmetric_lu(matrix: sp.csr_array) -> spla.SuperLU:
    """SuperLU, symmetric mode: minimum-degree order, each nonzero diagonal pivot taken."""
    return spla.splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0, options={"SymmetricMode": True})


def _scatter(
    local: np.ndarray, element_dofs: np.ndarray, n_dofs: int
) -> sp.csr_array:
    """Accumulate per-element matrices into canonical CSR.

    Indices and indptr are int32 unless the coordinate count needs more.
    Duplicate (row, col) entries are summed by the COO->CSR conversion in a
    fixed sorted order, so assembly results are bit-reproducible.
    """
    eta = element_dofs.shape[1]
    # scipy keeps the index type of the coordinates it is given.
    fits = max(element_dofs.size * eta, n_dofs) <= np.iinfo(np.int32).max
    element_dofs = element_dofs.astype(np.int32 if fits else np.int64, copy=False)
    rows = np.repeat(element_dofs, eta, axis=1).ravel()
    cols = np.tile(element_dofs, (1, eta)).ravel()
    mat = sp.coo_array((local.ravel(), (rows, cols)), shape=(n_dofs, n_dofs)).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _diagonal_csr(values: np.ndarray) -> sp.csr_array:
    """Canonical CSR with values on its diagonal and int32 indices."""
    positions = np.arange(values.size + 1, dtype=np.int32)
    return sp.csr_array((values, positions[:-1], positions), shape=(values.size, values.size))


def assemble_mass(
    mesh: SimplicialMesh,
    elem: ReferenceElement,
    policy: SurrogatePolicy = CONSISTENT,
) -> tuple[sp.csr_array, np.ndarray]:
    """Assemble M (consistent policy) or a surrogate M-tilde.

    Every element contributes exactly |K| times the policy's reference matrix
    (axiom (M2)).  A diagonal reference matrix gives a diagonal, summed per
    DOF by one bincount of |K| times its diagonal.  Returns the sparse matrix
    and the reference matrix used.
    """
    numbering = mesh.numbering(elem)
    geometry = mesh.geometry
    ref = surrogate_reference_matrix(elem, policy)
    diagonal = np.diag(ref)
    if np.array_equal(ref, np.diag(diagonal)):
        weights = geometry.volume[:, None] * diagonal[None, :]
        return _diagonal_csr(np.bincount(
            numbering.element_dofs.ravel(), weights=weights.ravel(), minlength=numbering.n_dofs
        )), ref
    local = geometry.volume[:, None, None] * ref[None, :, :]
    return _scatter(local, numbering.element_dofs, numbering.n_dofs), ref


def _stiffness_quadrature(
    elem: ReferenceElement, diffusion: DiffusionField
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points and weights adequate for the stiffness integral."""
    needed = 2 * (elem.order - 1) + max(diffusion.degree, 0)
    if needed <= 2 * elem.order:
        return elem.quad_points, elem.quad_weights
    return simplex_quadrature(elem.dimension, needed)


# Elements per block of the stiffness kernel.  Each numpy call then works on
# eta rows of this many contiguous values, and a block's arrays take about
# 5 MB at P2 and 12 MB at P3.  At 128x128 P2 and P3, blocks of 1024, 2048
# and 8192 elements all took 1.1 to 1.4 times as long.
_STIFFNESS_BLOCK = 4096


def _metric(inv_jacobian: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """G = F'^-1 D F'^-T at the samples of D, as a read-only (E, Q, d, d) view,
    (E, 1, d, d) for a constant D, of one contiguous (Q, d, d, E) block, stored
    as inv_jacobian is.  Its sums run in the order _element_stiffness states."""
    inv = inv_jacobian.transpose(1, 2, 0)                          # inv[a, b] over elements
    tensors = samples.transpose(1, 2, 3, 0)                        # D[t, b, k] over elements
    d, _, n_elements = inv.shape
    metric = np.zeros((tensors.shape[0], d, d, n_elements))
    for a, c, b in np.ndindex(d, d, d):
        terms = [(inv[a, b] * tensors[:, b, k]) * inv[c, k] for k in range(d)]
        metric[:, a, c] += functools.reduce(np.add, terms)
    metric.flags.writeable = False
    return metric.transpose(3, 0, 1, 2)


def _element_stiffness(
    metric: np.ndarray,
    wts: np.ndarray,
    grads: np.ndarray,
    volume: np.ndarray,
) -> np.ndarray:
    """Symmetrized element stiffness matrices, shape (E, eta, eta).

    K_e = |K| sum_q w_q g_q^T G_q g_q, with g the (Q, eta, d) reference
    gradients and G the metric of _metric, (E, Q, d, d) or (E, 1, d, d) for
    a constant D.  _metric and this kernel run every sum in the order numpy's
    einsum takes for "eab,bc,edc->ead" and "q,qia,eab,qjb->eij", with
    inv = F'^-1 and c[q, i, a] = w_q g[q, i, a]:

        G[t, a, c] = sum_b ( sum_k (inv[a, b] D[t, b, k]) inv[c, k] )
        K[i, j]    = sum_q ( sum_(a,b) (c[q, i, a] G[q, a, b]) g[q, j, b] )

    with (a, b) in lexicographic order.  The outer sums start from +0, as
    einsum's do.  The inner ones start from their first term where einsum
    starts from 0; that can change only the sign of a zero, which adding it
    to the outer sum drops.  K is then scaled by |K| and symmetrized as
    0.5 (K + K^T), one block of elements at a time, element axis innermost.
    """
    n_elements = metric.shape[0]
    n_q, eta, d = grads.shape
    geo = metric.transpose(1, 2, 3, 0)                             # G[t, a, b] over elements
    weighted = wts[:, None, None] * grads                          # c[q, i, a]
    pairs = list(np.ndindex(d, d))
    grad_values = grads.tolist()
    out = np.empty((n_elements, eta, eta))
    for start in range(0, n_elements, _STIFFNESS_BLOCK):
        block = slice(start, min(start + _STIFFNESS_BLOCK, n_elements))
        size = block.stop - start
        local = np.zeros((eta, eta, size))
        rows = np.empty((len(pairs), eta, size))
        acc, term = np.empty((eta, size)), np.empty((eta, size))
        for q in range(n_q):
            g = geo[min(q, len(geo) - 1), :, :, block]
            for k, (a, b) in enumerate(pairs):
                np.multiply(weighted[q, :, a, None], g[a, b], out=rows[k])
            for j, grad_j in enumerate(grad_values[q]):
                np.multiply(rows[0], grad_j[0], out=acc)          # (a, b) = (0, 0)
                for k, (_, b) in enumerate(pairs[1:], start=1):
                    acc += np.multiply(rows[k], grad_j[b], out=term)
                local[:, j] += acc
        local *= volume[block]
        out[block] = (0.5 * (local + local.transpose(1, 0, 2))).transpose(2, 0, 1)
    return out


def assemble_stiffness(
    mesh: SimplicialMesh,
    elem: ReferenceElement,
    diffusion: DiffusionField,
) -> tuple[sp.csr_array, np.ndarray, np.ndarray]:
    """Assemble the stiffness matrix for the diffusion field.

    Element integrals are |K| sum_q w_q grad_i^T G_q grad_j with
    reference-cell quadrature, G = F'^-1 D F'^-T; the result is symmetrized
    exactly.  Returns A, the SPD-checked samples of D it integrated, from
    DiffusionField.on, and the G it integrated, from _metric.
    """
    numbering = mesh.numbering(elem)
    geometry = mesh.geometry
    pts, wts = _stiffness_quadrature(elem, diffusion)
    grads = elem.quad_grads if pts is elem.quad_points else tabulate_gradients(elem, pts)
    tensors = diffusion.on(geometry, pts)
    _check_spd_samples(tensors)
    metric = _metric(geometry.inv_jacobian, tensors)
    local = _element_stiffness(metric, wts, grads, geometry.volume)
    return _scatter(local, numbering.element_dofs, numbering.n_dofs), tensors, metric


def assemble_system(
    mesh: SimplicialMesh,
    elem: ReferenceElement,
    diffusion: DiffusionField,
    policy: SurrogatePolicy = CONSISTENT,
) -> AssembledSystem:
    """Assemble A and M-tilde and return the Dirichlet-reduced system.

    The mesh's geometry is read before the numbering is built, so a bad mesh
    fails on the first problem mesh.validate_mesh reports.  The consistent
    mass M is not assembled here: the system builds it on the first read of
    its mass.
    """
    mesh.geometry  # built first: a degenerate element is the first problem
    numbering = mesh.numbering(elem)
    free = free_dofs(numbering, elem.order)
    stiffness, samples, metric = assemble_stiffness(mesh, elem, diffusion)
    surrogate, ref = assemble_mass(mesh, elem, policy)
    eigenvalues = np.linalg.eigvalsh(ref)
    incidence, patch_volumes = build_patches(mesh, elem)
    return AssembledSystem(
        stiffness=apply_dirichlet(stiffness, free),
        surrogate_mass=apply_dirichlet(surrogate, free),
        mesh=mesh,
        elem=elem,
        diffusion=diffusion,
        diffusion_samples=samples,
        metric=metric,
        policy=policy,
        dof_map=free,
        surrogate_lambda_min=float(eigenvalues[0]),
        surrogate_lambda_max=float(eigenvalues[-1]),
        numbering=numbering,
        patch_incidence=incidence[free],
        patch_volumes=patch_volumes[free],
    )


def apply_dirichlet(matrix: sp.csr_array, free: np.ndarray) -> sp.csr_array:
    """The rows and columns of the free DOFs (reduction, not penalty).

    The one Dirichlet cut of a matrix: A and M-tilde in assemble_system, M on
    its first read.  A diagonal keeps its _diagonal_csr storage; any other
    matrix is cut by indexing, indices sorted.
    """
    if _is_diagonal(matrix):
        return _diagonal_csr(matrix.diagonal()[free])
    out = matrix[free][:, free]
    out.sort_indices()
    return out


def _chebyshev_steps(lo: float, hi: float) -> int:
    """k = ceil(ln(2/eps) / ln(1/rho)), rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1),
    kappa = hi / lo and eps = 2^-53: the Chebyshev error bound 2 rho^k on
    [lo, hi], relative to the zero start in the energy norm, is then below eps."""
    root = math.sqrt(hi / lo)
    return math.ceil(math.log(2.0 / 2.0**-53) / math.log((root + 1.0) / (root - 1.0)))


def _chebyshev_solve(matrix: sp.csr_array, rhs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """matrix^-1 rhs by _chebyshev_steps(lo, hi) steps of Chebyshev iteration
    from zero, preconditioned by the diagonal, whose scaled spectrum [lo, hi]
    must hold (Golub & Varga 1961; Saad, Iterative Methods, Alg. 12.1)."""
    inv_diag = 1.0 / matrix.diagonal()
    theta, delta = 0.5 * (hi + lo), 0.5 * (hi - lo)
    sigma = theta / delta
    rho = 1.0 / sigma
    direction = inv_diag * rhs / theta
    x, residual = direction.copy(), rhs.copy()
    for _ in range(_chebyshev_steps(lo, hi) - 1):
        residual -= matrix @ direction
        rho_next = 1.0 / (2.0 * sigma - rho)
        direction = (rho_next * rho) * direction + (2.0 * rho_next / delta) * (inv_diag * residual)
        x += direction
        rho = rho_next
    return x


def l2_project(
    mesh: SimplicialMesh,
    elem: ReferenceElement,
    func: Callable[[np.ndarray], float],
) -> np.ndarray:
    """L2 projection of a scalar function onto the FE space (full DOF vector).

    func is called once per quadrature point with that point's coordinates,
    and its values stream into one array.  The first value fixes their
    shape: one of a size other than 1 raises ValueError after that one
    call, and so does a later value of another shape.
    The consistent mass M is solved with no factorisation, by Chebyshev
    iteration preconditioned by diag(M) on the interval [c, C] of the
    element's Jacobi-scaled reference mass (elem.jacobi_lambda_min and
    _max), which holds the Jacobi-scaled spectrum of every assembled M
    (Wathen 1987).  The step count is fixed before the first step, so that
    the error bound falls below eps = 2^-53: 35, 41 and 48 steps on P1, P2
    and P3 triangles.  There is no stopping test, and the steps take sparse
    products and elementwise updates, no BLAS reduction, so the bytes do not
    depend on the BLAS thread count.
    """
    numbering = mesh.numbering(elem)
    geometry = mesh.geometry
    mass, _ = assemble_mass(mesh, elem, CONSISTENT)
    pts, wts = simplex_quadrature(elem.dimension, 2 * elem.order + 2)
    basis = tabulate_basis(elem, pts)
    x = geometry.map_points(pts)

    def check(shape):
        if math.prod(shape) != 1:
            raise ValueError(f"l2_project's function must return a scalar, got shape {shape}")

    weighted = wts * _at_each_point(func, x, check).reshape(x.shape[:2])
    local = geometry.volume[:, None] * (basis.T @ weighted[:, :, None])[:, :, 0]
    load = np.bincount(
        numbering.element_dofs.ravel(), weights=local.ravel(), minlength=numbering.n_dofs
    )
    return _chebyshev_solve(mass, load, elem.jacobi_lambda_min, elem.jacobi_lambda_max)
