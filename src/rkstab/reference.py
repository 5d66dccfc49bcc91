"""Lagrange reference elements on unit-measure simplices.

Basis functions live on the standard simplex (vertices at the origin and the
unit axis points) but every reference integral carries a factor d! so the
reference cell has measure one.  All spectral constants reported here (the
reference mass matrix, its eigenvalue extremes, the H1 seminorm constants)
are stated in that unit-measure normalization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

__all__ = [
    "ReferenceElement",
    "UnsupportedElementError",
    "build_reference_element",
    "simplex_multi_indices",
    "simplex_quadrature",
    "tabulate_basis",
    "tabulate_gradients",
]

SUPPORTED_DIMENSIONS = (1, 2)


class UnsupportedElementError(ValueError):
    """Raised for (dimension, order) pairs this library does not implement."""


def simplex_multi_indices(d: int, m: int) -> np.ndarray:
    """Integer barycentric labels of the equispaced Lagrange nodes.

    Returns an (eta, d+1) integer array whose rows are all multi-indices
    alpha with |alpha| = m.  Row order is fixed (descending lexicographic),
    which pins down the local node numbering used everywhere else: the first
    node is the origin vertex, vertex k carries alpha = m * e_k.
    """
    rows = [
        alpha
        for alpha in itertools.product(range(m + 1), repeat=d + 1)
        if sum(alpha) == m
    ]
    rows.sort(key=lambda alpha: tuple(-a for a in alpha))
    return np.array(rows, dtype=np.int64)


def _barycentric(d: int, points: np.ndarray) -> np.ndarray:
    """Map reference coordinates (n, d) to barycentric coordinates (n, d+1)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lam = np.empty((points.shape[0], d + 1))
    lam[:, 0] = 1.0 - points.sum(axis=1)
    lam[:, 1:] = points
    return lam


def _tabulate(multi_indices: np.ndarray, m: int, points: np.ndarray) -> np.ndarray:
    """Evaluate all basis functions at the given reference points.

    Uses the classical product formula for equispaced simplex Lagrange bases:
    phi_alpha(lam) = prod_k prod_{j<alpha_k} (m*lam_k - j)/(alpha_k - j).
    Returns an (n_points, eta) array.
    """
    lam = _barycentric(multi_indices.shape[1] - 1, points)
    values = np.ones((lam.shape[0], multi_indices.shape[0]))
    for i, alpha in enumerate(multi_indices):
        for k, a_k in enumerate(alpha):
            for j in range(a_k):
                values[:, i] *= (m * lam[:, k] - j) / (a_k - j)
    return values


def _tabulate_gradients(
    multi_indices: np.ndarray, m: int, points: np.ndarray
) -> np.ndarray:
    """Reference gradients of all basis functions at the given points.

    Differentiates the barycentric product formula by the product rule, then
    converts to reference coordinates via d/dxi_i = d/dlam_i - d/dlam_0.
    Returns an (n_points, eta, d) array.
    """
    d = multi_indices.shape[1] - 1
    lam = _barycentric(d, points)
    n_pts = lam.shape[0]
    grads = np.zeros((n_pts, multi_indices.shape[0], d))
    for i, alpha in enumerate(multi_indices):
        # one 1D factor P_k(lam_k) per barycentric coordinate
        factors = np.ones((n_pts, d + 1))
        dfactors = np.zeros((n_pts, d + 1))
        for k, a_k in enumerate(alpha):
            for j in range(a_k):
                term = (m * lam[:, k] - j) / (a_k - j)
                dterm = m / (a_k - j)
                dfactors[:, k] = dfactors[:, k] * term + factors[:, k] * dterm
                factors[:, k] = factors[:, k] * term
        prod = np.prod(factors, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(factors != 0.0, prod[:, None] / factors, 0.0)
        # recompute rows where a factor vanishes (leave-one-out products)
        bad = np.nonzero(np.any(factors == 0.0, axis=1))[0]
        for r in bad:
            for k in range(d + 1):
                others = [factors[r, kk] for kk in range(d + 1) if kk != k]
                ratio[r, k] = math.prod(others)
        dlam = dfactors * ratio
        grads[:, i, :] = dlam[:, 1:] - dlam[:, :1]
    return grads


def simplex_quadrature(d: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive-weight quadrature on the unit-measure reference simplex.

    Conical product construction: Gauss-Legendre in 1D, Gauss-Jacobi x
    Gauss-Legendre collapsed onto the triangle in 2D.  Exact for polynomials
    of total degree <= `degree`; all weights strictly positive; weights sum
    to one because the measure is rescaled by d!.

    Returns (points, weights) with shapes (nq, d) and (nq,).
    """
    if d not in SUPPORTED_DIMENSIONS:
        raise UnsupportedElementError(f"unsupported dimension {d}; supported: 1, 2")
    if degree < 0:
        raise ValueError(f"quadrature degree must be nonnegative, got {degree}")
    n = (degree + 2) // 2  # Gauss rules with n points integrate degree 2n-1
    x, w = roots_legendre(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    if d == 1:
        return x[:, None], w
    # 2D: u from the Jacobi(1,0) rule absorbs the (1-u) area factor
    u, wu = roots_jacobi(n, 1, 0)
    u = 0.5 * (u + 1.0)
    wu = 0.25 * wu
    # point i * n + j is (u_i, x_j (1 - u_i)) with weight wu_i w_j
    pts = np.column_stack([np.repeat(u, n), np.outer(1.0 - u, x).ravel()])
    return pts, 2.0 * np.outer(wu, w).ravel()  # d! = 2 measure rescale


@dataclass(frozen=True)
class ReferenceElement:
    """Pm Lagrange element on the unit-measure reference simplex.

    Attributes
    ----------
    dimension, order : int
        Spatial dimension d and polynomial degree m.
    node_count : int
        Number of basis functions, binomial(m + d, d).
    nodes : ndarray, shape (node_count, dimension)
        Reference coordinates of the equispaced Lagrange nodes.
    multi_indices : ndarray, shape (node_count, dimension + 1)
        Integer barycentric labels of the nodes (row order = local numbering).
    quad_points, quad_weights : ndarray
        Quadrature exact to degree 2*order; weights sum to one.
    ref_mass_matrix : ndarray, shape (node_count, node_count)
        Reference mass matrix on the unit-measure cell.
    lambda_hat_min, lambda_hat_max : float
        Extreme eigenvalues of ref_mass_matrix.
    jacobi_lambda_min, jacobi_lambda_max : float
        Extreme eigenvalues of the Jacobi-scaled reference mass
        diag(M)^-1/2 M diag(M)^-1/2.  The Jacobi-scaled spectrum of every
        mass matrix assembled from it lies in this interval (Wathen 1987).
    c_h1 : float
        Largest squared H1 seminorm of a basis function.
    c_h1_diag : ndarray, shape (node_count,)
        Per-basis squared H1 seminorms.
    quad_grads : ndarray, shape (nq, node_count, dimension)
        Reference gradients tabulated at the quadrature points.
    """

    dimension: int
    order: int
    node_count: int
    nodes: np.ndarray
    multi_indices: np.ndarray
    quad_points: np.ndarray
    quad_weights: np.ndarray
    ref_mass_matrix: np.ndarray
    lambda_hat_min: float
    lambda_hat_max: float
    jacobi_lambda_min: float
    jacobi_lambda_max: float
    c_h1: float
    c_h1_diag: np.ndarray
    quad_grads: np.ndarray

    @property
    def condition_number(self) -> float:
        """Eigenvalue ratio of the reference mass matrix."""
        return self.lambda_hat_max / self.lambda_hat_min


def build_reference_element(d: int, m: int) -> ReferenceElement:
    """Construct the Pm Lagrange reference element in dimension d.

    Parameters
    ----------
    d : int
        Spatial dimension, 1 or 2.
    m : int
        Polynomial degree, at least 1.

    Raises
    ------
    UnsupportedElementError
        If the (d, m) combination is outside the supported range.
    """
    if d not in SUPPORTED_DIMENSIONS:
        raise UnsupportedElementError(
            f"unsupported order/dimension: d={d} (supported dimensions: 1, 2)"
        )
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise UnsupportedElementError(f"unsupported order/dimension: m={m} (need m >= 1)")
    multi_indices = simplex_multi_indices(d, m)
    eta = multi_indices.shape[0]
    nodes = multi_indices[:, 1:].astype(float) / m
    quad_points, quad_weights = simplex_quadrature(d, 2 * m)
    basis = _tabulate(multi_indices, m, quad_points)
    quad_grads = _tabulate_gradients(multi_indices, m, quad_points)

    mass = np.einsum("q,qi,qj->ij", quad_weights, basis, basis)
    mass = 0.5 * (mass + mass.T)
    c_h1_diag = np.einsum("q,qid,qid->i", quad_weights, quad_grads, quad_grads)
    eigenvalues = np.linalg.eigvalsh(mass)
    scale = 1.0 / np.sqrt(np.diag(mass))
    jacobi = np.linalg.eigvalsh(scale[:, None] * mass * scale[None, :])

    return ReferenceElement(
        dimension=d,
        order=int(m),
        node_count=eta,
        nodes=nodes,
        multi_indices=multi_indices,
        quad_points=quad_points,
        quad_weights=quad_weights,
        ref_mass_matrix=mass,
        lambda_hat_min=float(eigenvalues[0]),
        lambda_hat_max=float(eigenvalues[-1]),
        jacobi_lambda_min=float(jacobi[0]),
        jacobi_lambda_max=float(jacobi[-1]),
        c_h1=float(np.max(c_h1_diag)),
        c_h1_diag=c_h1_diag,
        quad_grads=quad_grads,
    )


def tabulate_basis(elem: ReferenceElement, points: np.ndarray) -> np.ndarray:
    """Basis values at many reference points at once, shape (n_points, eta)."""
    return _tabulate(elem.multi_indices, elem.order, points)


def tabulate_gradients(elem: ReferenceElement, points: np.ndarray) -> np.ndarray:
    """Reference gradients at many points at once, shape (n_points, eta, d)."""
    return _tabulate_gradients(elem.multi_indices, elem.order, points)
