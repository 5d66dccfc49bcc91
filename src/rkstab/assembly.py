"""Mass, stiffness, and surrogate-mass assembly with Dirichlet reduction.

Element mass matrices are exactly |K| times one shared reference matrix (the
consistent reference mass or a lumped surrogate of it), so every surrogate
satisfies the two structural axioms this library is built on: the reference
matrix is symmetric positive definite, and the element matrix is its |K|
multiple.  Stiffness integrals are evaluated by quadrature after pulling the
diffusion tensor back to the reference cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import (
    AffineGeometry,
    DofNumbering,
    MeshStructureError,
    SimplicialMesh,
    build_affine_maps,
    build_patches,
    number_dofs,
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
    "element_alignment_factor",
    "l2_project",
    "POLICY_KINDS",
]


class SurrogateAxiomError(ValueError):
    """A surrogate policy produced a reference matrix violating axiom (M1)."""


class NonSPDDiffusionError(ValueError):
    """The diffusion tensor failed the SPD check at some sample point."""


@dataclass(frozen=True)
class DiffusionField:
    """Diffusion tensor D(x): a constant matrix, or a callable of position.

    For callables, `degree` declares a polynomial-degree proxy used to pick
    the stiffness quadrature order.
    """

    matrix: np.ndarray | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = None
    degree: int = 0

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
            raise ValueError(f"diffusion eigenvalues must be positive, got {eigenvalues}")
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

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Tensor values at physical points of shape (..., d); shape (..., d, d).

        A callable is called once per point.
        """
        points = np.atleast_2d(points)
        if self.is_constant:
            return np.broadcast_to(
                self.matrix, (*points.shape[:-1], *self.matrix.shape)
            ).copy()
        flat = points.reshape(-1, points.shape[-1])
        values = np.array([self.func(p) for p in flat], dtype=float)
        if values.ndim == 1:  # scalar-valued callable in 1D
            values = values[:, None, None]
        return values.reshape(*points.shape[:-1], *values.shape[1:])


def _check_spd_samples(samples: np.ndarray) -> None:
    """Validate symmetry and positive definiteness of sampled tensors.

    samples is (n_elements, n_points, d, d); the error names the first
    element with a bad sample, and its first bad point.
    """
    sym_err = np.abs(samples - samples.swapaxes(-1, -2)).max(axis=(-2, -1))
    scale = np.abs(samples).max(axis=(-2, -1))
    asymmetric = sym_err > 1e-13 * np.maximum(scale, 1.0)
    if samples.shape[-1] == 1:
        indefinite = samples[..., 0, 0] <= 0
    else:
        trace = samples[..., 0, 0] + samples[..., 1, 1]
        det = samples[..., 0, 0] * samples[..., 1, 1] - samples[..., 0, 1] * samples[..., 1, 0]
        indefinite = (trace <= 0) | (det <= 0)
    bad_elements = np.nonzero(np.any(asymmetric | indefinite, axis=1))[0]
    if bad_elements.size:
        e = bad_elements[0]
        kind, bad = ("symmetric", asymmetric[e]) if asymmetric[e].any() else (
            "positive definite", indefinite[e])
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


@dataclass(frozen=True)
class AssembledSystem:
    """Dirichlet-reduced sparse system M, A, and surrogate M-tilde.

    dof_map lists the full DOFs that survived the Dirichlet cut, in the order
    of the reduced rows.  surrogate_lambda_min/max are the extreme
    eigenvalues of the surrogate reference matrix.  patch_incidence is the
    free-DOF-by-element patch incidence P, and patch_volumes is P @ |K|.
    """

    mass: sp.csr_array
    stiffness: sp.csr_array
    surrogate_mass: sp.csr_array
    dof_map: np.ndarray
    surrogate_lambda_min: float
    surrogate_lambda_max: float
    numbering: DofNumbering
    geometry: AffineGeometry
    patch_incidence: sp.csr_array
    patch_volumes: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.mass.shape[0]

    @property
    def kappa_surrogate(self) -> float:
        """Condition number of the surrogate reference matrix."""
        return self.surrogate_lambda_max / self.surrogate_lambda_min

    @property
    def diag_stiffness(self) -> np.ndarray:
        return self.stiffness.diagonal()

    @property
    def diag_surrogate(self) -> np.ndarray:
        return self.surrogate_mass.diagonal()

    @property
    def surrogate_is_diagonal(self) -> bool:
        return _is_diagonal(self.surrogate_mass)


def _is_diagonal(matrix: sp.csr_array) -> bool:
    """Whether every stored entry, an explicit zero too, sits on the diagonal."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return bool(np.array_equal(matrix.indices, rows))


def surrogate_solver(matrix: sp.csr_array) -> Callable[[np.ndarray], np.ndarray]:
    """Apply-inverse for an SPD surrogate mass; exact division when diagonal.

    Otherwise one sparse LU in SuperLU's symmetric mode: a minimum-degree
    ordering of the symmetric pattern and diagonal pivots, which are stable
    for an SPD matrix.
    """
    if _is_diagonal(matrix):
        diag = matrix.diagonal()
        if np.any(diag <= 0):
            raise ValueError("surrogate mass diagonal must be positive")
        inv = 1.0 / diag
        return lambda b: inv * b
    lu = spla.splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0, options={"SymmetricMode": True})
    return lu.solve


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


def assemble_mass(
    mesh: SimplicialMesh,
    elem: ReferenceElement,
    policy: SurrogatePolicy = CONSISTENT,
    numbering: DofNumbering | None = None,
    geometry: AffineGeometry | None = None,
) -> tuple[sp.csr_array, np.ndarray]:
    """Assemble M (consistent policy) or a surrogate M-tilde.

    Every element contributes exactly |K| times the policy's reference matrix
    (axiom (M2)).  Returns the sparse matrix and the reference matrix used.
    """
    numbering = numbering or number_dofs(mesh, elem)
    geometry = geometry or build_affine_maps(mesh)
    ref = surrogate_reference_matrix(elem, policy)
    local = geometry.volume[:, None, None] * ref[None, :, :]
    return _scatter(local, numbering.element_dofs, numbering.n_dofs), ref


def _stiffness_quadrature(
    elem: ReferenceElement, diffusion: DiffusionField
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature points/weights/gradients adequate for the stiffness integral.

    The alignment factors sample D at these same points, which is what makes
    the geometric bound hold for the assembled stiffness.
    """
    needed = 2 * (elem.order - 1) + max(diffusion.degree, 0)
    if needed <= 2 * elem.order:
        return elem.quad_points, elem.quad_weights, elem.quad_grads
    pts, wts = simplex_quadrature(elem.dimension, needed)
    return pts, wts, tabulate_gradients(elem, pts)


def assemble_stiffness(
    mesh: SimplicialMesh,
    elem: ReferenceElement,
    diffusion: DiffusionField,
    numbering: DofNumbering | None = None,
    geometry: AffineGeometry | None = None,
) -> sp.csr_array:
    """Assemble the stiffness matrix for the diffusion field.

    Element integrals are |K| sum_q w_q grad_i^T (F'^-1 D F'^-T) grad_j with
    reference-cell quadrature; the result is symmetrized exactly.
    """
    numbering = numbering or number_dofs(mesh, elem)
    geometry = geometry or build_affine_maps(mesh)
    pts, wts, grads = _stiffness_quadrature(elem, diffusion)
    inv_jac = geometry.inv_jacobian                            # (e, d, d)

    if diffusion.is_constant:
        _check_spd_samples(diffusion.matrix[None, None, :, :])
        geo = np.einsum("eab,bc,edc->ead", inv_jac, diffusion.matrix, inv_jac)
        local = np.einsum("q,qia,eab,qjb->eij", wts, grads, geo, grads)
    else:
        samples = diffusion.sample(geometry.map_points(pts))
        _check_spd_samples(samples)
        geo = np.einsum("eab,eqbc,edc->eqad", inv_jac, samples, inv_jac)
        local = np.einsum("q,qia,eqab,qjb->eij", wts, grads, geo, grads)
    local *= geometry.volume[:, None, None]
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return _scatter(local, numbering.element_dofs, numbering.n_dofs)


def assemble_system(
    mesh: SimplicialMesh,
    elem: ReferenceElement,
    diffusion: DiffusionField,
    policy: SurrogatePolicy = CONSISTENT,
) -> AssembledSystem:
    """Assemble M, A, and M-tilde and return the Dirichlet-reduced system."""
    numbering = number_dofs(mesh, elem)
    geometry = build_affine_maps(mesh)
    mass, _ = assemble_mass(mesh, elem, CONSISTENT, numbering, geometry)
    stiffness = assemble_stiffness(mesh, elem, diffusion, numbering, geometry)
    if policy.kind == "consistent":
        surrogate, ref = mass, elem.ref_mass_matrix
    else:
        surrogate, ref = assemble_mass(mesh, elem, policy, numbering, geometry)
    eigenvalues = np.linalg.eigvalsh(ref)
    incidence, patch_volumes = build_patches(mesh, elem, numbering, geometry)
    return apply_dirichlet(AssembledSystem(
        mass=mass,
        stiffness=stiffness,
        surrogate_mass=surrogate,
        dof_map=np.arange(numbering.n_dofs),
        surrogate_lambda_min=float(eigenvalues[0]),
        surrogate_lambda_max=float(eigenvalues[-1]),
        numbering=numbering,
        geometry=geometry,
        patch_incidence=incidence,
        patch_volumes=patch_volumes,
    ))


def apply_dirichlet(system: AssembledSystem) -> AssembledSystem:
    """Remove Dirichlet rows and columns (reduction, not penalty).

    Takes the system on the full DOF set, as assemble_system builds it.
    """
    if system.numbering.dirichlet_dofs.size == 0:
        raise MeshStructureError(
            "empty Dirichlet set: the Dirichlet boundary must have positive measure"
        )
    free = system.numbering.free_dofs

    def cut(matrix: sp.csr_array) -> sp.csr_array:
        out = matrix[free][:, free]
        out.sort_indices()
        return out

    return replace(
        system,
        mass=cut(system.mass),
        stiffness=cut(system.stiffness),
        surrogate_mass=cut(system.surrogate_mass),
        dof_map=free,
        patch_incidence=system.patch_incidence[free],
        patch_volumes=system.patch_volumes[free],
    )


def _pulled_back_norm(inv: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """|| inv T inv^T ||_2 over broadcast stacks of 1x1 or 2x2 matrices.

    The entries of the product are formed directly from the entry arrays of
    inv and T, in the order (inv T) inv^T; the norm is the larger modulus of
    the two closed-form eigenvalues of that (symmetric) product.
    """
    if inv.shape[-1] == 1:
        return np.abs(inv[..., 0, 0] * tensor[..., 0, 0] * inv[..., 0, 0])
    a, b, c, d = inv[..., 0, 0], inv[..., 0, 1], inv[..., 1, 0], inv[..., 1, 1]
    t00, t01, t10, t11 = tensor[..., 0, 0], tensor[..., 0, 1], tensor[..., 1, 0], tensor[..., 1, 1]
    x00, x01 = a * t00 + b * t10, a * t01 + b * t11
    x10, x11 = c * t00 + d * t10, c * t01 + d * t11
    p00, p01 = x00 * a + x01 * b, x00 * c + x01 * d
    p10, p11 = x10 * a + x11 * b, x10 * c + x11 * d
    half_sum = 0.5 * (p00 + p11)
    half_diff = 0.5 * (p00 - p11)
    radius = np.sqrt(half_diff**2 + p01 * p10)
    return np.maximum(np.abs(half_sum + radius), np.abs(half_sum - radius))


def element_alignment_factor(
    geometry: AffineGeometry,
    diffusion: DiffusionField,
    elem: ReferenceElement | None = None,
) -> np.ndarray:
    """max over sample points of || F'^-1 D(x) F'^-T ||_2, for every element.

    Exact for constant diffusion.  Otherwise D is sampled at each element's
    vertices and at the images of the stiffness quadrature points of elem,
    the points the assembled stiffness integrates with, so the geometric
    bound built from these factors holds for that stiffness.

    Cost: a few elementwise passes over the element arrays (and the samples
    of a callable D); the 2x2 products and their norms are written out in
    closed form, with no stacked matmul.
    """
    inv = geometry.inv_jacobian
    if diffusion.is_constant:
        return _pulled_back_norm(inv, diffusion.matrix)
    if elem is None:
        raise ValueError("position-dependent diffusion needs the reference element")
    d = inv.shape[-1]
    pts, _, _ = _stiffness_quadrature(elem, diffusion)
    ref_pts = np.vstack([np.zeros((1, d)), np.eye(d), pts])
    samples = diffusion.sample(geometry.map_points(ref_pts))
    return _pulled_back_norm(inv[:, None], samples).max(axis=1)


def l2_project(
    mesh: SimplicialMesh,
    elem: ReferenceElement,
    func: Callable[[np.ndarray], float],
    numbering: DofNumbering | None = None,
    geometry: AffineGeometry | None = None,
) -> np.ndarray:
    """L2 projection of a scalar function onto the FE space (full DOF vector).

    func is called once per quadrature point with that point's coordinates.
    """
    numbering = numbering or number_dofs(mesh, elem)
    geometry = geometry or build_affine_maps(mesh)
    mass, _ = assemble_mass(mesh, elem, CONSISTENT, numbering, geometry)
    pts, wts = simplex_quadrature(elem.dimension, 2 * elem.order + 2)
    basis = tabulate_basis(elem, pts)
    x = geometry.map_points(pts)
    f_vals = np.array([func(p) for p in x.reshape(-1, x.shape[-1])], dtype=float)
    weighted = wts * f_vals.reshape(x.shape[:2])
    local = geometry.volume[:, None] * (basis.T @ weighted[:, :, None])[:, :, 0]
    load = np.bincount(
        numbering.element_dofs.ravel(), weights=local.ravel(), minlength=numbering.n_dofs
    )
    return surrogate_solver(mass)(load)
