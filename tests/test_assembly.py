import dataclasses
import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import lambda_max_dense

import rkstab.mesh
from rkstab import assembly
from rkstab.assembly import (
    CONSISTENT,
    AssembledSystem,
    HRZ_DIAGONAL,
    NODE_QUADRATURE,
    DiffusionField,
    NonSPDDiffusionError,
    SurrogateAxiomError,
    SurrogatePolicy,
    _chebyshev_steps,
    _is_diagonal,
    _metric,
    _scatter,
    _stiffness_quadrature,
    assemble_mass,
    assemble_stiffness,
    assemble_system,
    l2_project,
    surrogate_reference_matrix,
    surrogate_solver,
)
from rkstab.mesh import (
    MeshStructureError,
    SimplicialMesh,
    build_affine_maps,
    build_patches,
    number_dofs,
    random_perturbed,
    stretched,
    structured_triangular,
    uniform_interval,
)
from rkstab.bounds import (
    _pulled_back_norm,
    _symmetric_norm,
    compute_bound_report,
    element_alignment_factor,
    lambda_max_with_vector,
    verify_matrix_inequalities,
    zhudu_bound,
)
from rkstab.cli import main
from rkstab.reference import build_reference_element, simplex_quadrature, tabulate_gradients
from rkstab.timestepping import integrate, rk_scheme, stable_timestep


def single_triangle(tags=("D", "D", "D")):
    return SimplicialMesh(
        2,
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [1, 2], [0, 2]]),
        tags,
    )


def alignment_factors(mesh, diffusion):
    """element_alignment_factor of the P1 system assembled from these inputs."""
    elem = build_reference_element(mesh.dimension, 1)
    return element_alignment_factor(assemble_system(mesh, elem, diffusion))


def identity(d):
    return DiffusionField.constant(np.eye(d))


def test_consistent_mass_1d_hand_values():
    mesh = uniform_interval(2)
    elem = build_reference_element(1, 1)
    mass, _ = assemble_mass(mesh, elem)
    h = 0.5
    expected = (h / 6) * np.array([[2, 1, 0], [1, 4, 1], [0, 1, 2]])
    np.testing.assert_allclose(mass.toarray(), expected, atol=1e-15)


def test_hrz_mass_1d_interior_diagonal():
    mesh = uniform_interval(4)
    elem = build_reference_element(1, 1)
    surrogate, ref = assemble_mass(mesh, elem, HRZ_DIAGONAL)
    np.testing.assert_allclose(ref, 0.5 * np.eye(2), atol=1e-15)
    diag = surrogate.diagonal()
    h = 0.25
    np.testing.assert_allclose(diag[1:4], h, atol=1e-15)
    np.testing.assert_allclose(diag[[0, 4]], h / 2, atol=1e-15)


@pytest.mark.parametrize("d,m,make", [
    (1, 2, lambda: uniform_interval(5)),
    (2, 1, lambda: structured_triangular(3, 3)),
    (2, 3, lambda: random_perturbed(3, 3, 0.05, seed=1)),
])
def test_total_mass_is_domain_measure(d, m, make):
    mesh = make()
    elem = build_reference_element(d, m)
    mass, _ = assemble_mass(mesh, elem)
    assert abs(mass.sum() - 1.0) < 1e-12


def test_stiffness_1d_laplacian():
    mesh = uniform_interval(4)
    elem = build_reference_element(1, 1)
    A = assemble_stiffness(mesh, elem, identity(1))[0].toarray()
    h = 0.25
    assert abs(A[1, 1] - 2 / h) < 1e-12
    assert abs(A[1, 2] + 1 / h) < 1e-12
    assert abs(A[2, 1] + 1 / h) < 1e-12


def test_stiffness_single_triangle_hand_values():
    mesh = single_triangle()
    elem = build_reference_element(2, 1)
    A = assemble_stiffness(mesh, elem, identity(2))[0].toarray()
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    np.testing.assert_allclose(A, expected, atol=1e-14)


def test_stiffness_scales_linearly_in_diffusion():
    mesh = structured_triangular(2, 3)
    elem = build_reference_element(2, 2)
    A1 = assemble_stiffness(mesh, elem, identity(2))[0]
    A7 = assemble_stiffness(mesh, elem, DiffusionField.constant(7.0 * np.eye(2)))[0]
    scale = np.abs(A1.toarray()).max()
    np.testing.assert_allclose(
        A7.toarray(), 7.0 * A1.toarray(), rtol=0, atol=1e-13 * scale
    )


@pytest.mark.parametrize("d,m,make", [
    (1, 1, lambda: uniform_interval(6)),
    (1, 3, lambda: uniform_interval(3)),
    (2, 2, lambda: random_perturbed(3, 3, 0.04, seed=8)),
])
def test_stiffness_row_sums_vanish_unreduced(d, m, make):
    """Constants lie in the kernel of the pure-Neumann operator."""
    mesh = make()
    elem = build_reference_element(d, m)
    A = assemble_stiffness(mesh, elem, identity(d))[0]
    row_sums = np.asarray(A.sum(axis=1)).ravel()
    norm = sp.linalg.norm(A, np.inf)
    assert np.max(np.abs(row_sums)) < 1e-11 * norm


def test_stiffness_symmetric():
    mesh = random_perturbed(4, 4, 0.05, seed=3)
    elem = build_reference_element(2, 2)
    D = DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0))
    A = assemble_stiffness(mesh, elem, D)[0]
    assert (A - A.T).count_nonzero() == 0


def test_m2_axiom_element_contributions():
    """Assembled surrogate equals the sum of |K| * reference blocks."""
    mesh = random_perturbed(3, 3, 0.05, seed=4)
    elem = build_reference_element(2, 2)
    numbering = number_dofs(mesh, elem)
    geometry = build_affine_maps(mesh)
    for policy in (CONSISTENT, HRZ_DIAGONAL):
        assembled, ref = assemble_mass(mesh, elem, policy)
        dense = np.zeros((numbering.n_dofs, numbering.n_dofs))
        for e, volume in enumerate(geometry.volume):
            dofs = numbering.element_dofs[e]
            dense[np.ix_(dofs, dofs)] += volume * ref
        diff = np.abs(assembled.toarray() - dense).max()
        assert diff < 1e-13 * np.abs(dense).max()


def test_single_element_mass_is_scaled_reference():
    mesh = single_triangle()
    elem = build_reference_element(2, 2)
    numbering = number_dofs(mesh, elem)
    assembled, ref = assemble_mass(mesh, elem, HRZ_DIAGONAL)
    dofs = numbering.element_dofs[0]
    block = assembled.toarray()[np.ix_(dofs, dofs)]
    np.testing.assert_allclose(block, 0.5 * ref, atol=1e-16)


def test_node_quadrature_rejected_for_p2_triangles():
    elem = build_reference_element(2, 2)
    with pytest.raises(SurrogateAxiomError, match=r"\(M1\)"):
        surrogate_reference_matrix(elem, NODE_QUADRATURE)


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3)])
def test_node_quadrature_valid_where_weights_positive(d, m):
    elem = build_reference_element(d, m)
    ref = surrogate_reference_matrix(elem, NODE_QUADRATURE)
    assert np.all(np.diag(ref) > 0)
    np.testing.assert_allclose(
        np.diag(ref), elem.ref_mass_matrix.sum(axis=1), atol=1e-15
    )


def test_hrz_preserves_reference_mass():
    for d, m in [(1, 2), (2, 1), (2, 2), (2, 3)]:
        elem = build_reference_element(d, m)
        ref = surrogate_reference_matrix(elem, HRZ_DIAGONAL)
        assert abs(np.trace(ref) - 1.0) < 1e-14


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown surrogate policy"):
        SurrogatePolicy("rowsum")


def test_apply_dirichlet_reduces_counts():
    mesh = uniform_interval(4)
    elem = build_reference_element(1, 1)
    system = assemble_system(mesh, elem, identity(1))
    assert system.numbering.n_dofs == 5
    assert system.n_dofs == 3
    assert system.dof_map.tolist() == [1, 2, 3]
    assert system.patch_incidence.shape == (3, 4)
    assert system.patch_volumes.shape == (3,)
    eigenvalues = np.linalg.eigvalsh(system.stiffness.toarray())
    assert eigenvalues[0] > 0


def test_apply_dirichlet_requires_dirichlet_facets():
    base = uniform_interval(3)
    mesh = SimplicialMesh(
        1, base.vertices, base.elements, base.boundary_facets, ("N", "N")
    )
    elem = build_reference_element(1, 1)
    with pytest.raises(ValueError, match="Dirichlet"):
        assemble_system(mesh, elem, identity(1))


def test_reduced_matrices_spd():
    mesh = random_perturbed(3, 3, 0.05, seed=6)
    elem = build_reference_element(2, 2)
    D = DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0))
    system = assemble_system(mesh, elem, D, HRZ_DIAGONAL)
    for matrix in (system.mass, system.stiffness, system.surrogate_mass):
        eigenvalues = np.linalg.eigvalsh(matrix.toarray())
        assert eigenvalues[0] > 0


def test_surrogate_is_diagonal_flag():
    mesh = uniform_interval(4)
    elem = build_reference_element(1, 1)
    assert assemble_system(mesh, elem, identity(1), HRZ_DIAGONAL).surrogate_is_diagonal
    assert not assemble_system(mesh, elem, identity(1), CONSISTENT).surrogate_is_diagonal
    # an explicitly stored zero off the diagonal counts as an off-diagonal entry
    stored_zero = sp.csr_array(([2.0, 0.0, 3.0], [0, 1, 1], [0, 2, 3]), shape=(2, 2))
    assert stored_zero.nnz == 3
    assert not _is_diagonal(stored_zero)
    assert _is_diagonal(sp.csr_array(([2.0, 3.0], [0, 1], [0, 1, 2]), shape=(2, 2)))


def refuse_superlu(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a narrow-band surrogate reached SuperLU")

    monkeypatch.setattr(assembly, "symmetric_lu", refused)
    monkeypatch.setattr(spla, "splu", refused)


BANDED_MASSES = {
    **{f"1d-p{m}-n{n}": (lambda m=m, n=n: (uniform_interval(n), 1, m)) for m in (1, 2, 3) for n in (9, 250)},
    "2d-p2-8x2": lambda: (structured_triangular(8, 2), 2, 2),
}


@pytest.mark.parametrize("case", BANDED_MASSES)
def test_narrow_band_surrogate_solve_matches_superlu(monkeypatch, case):
    """A consistent mass whose reverse Cuthill-McKee band meets the fill rule
    is solved by banded Cholesky, never SuperLU, to 1e-14 of SuperLU's solve."""
    mesh, d, m = BANDED_MASSES[case]()
    system = assemble_system(mesh, build_reference_element(d, m), identity(d), CONSISTENT)
    rhs = np.random.default_rng(5).standard_normal((system.n_dofs, 2))
    oracle = assembly.symmetric_lu(system.surrogate_mass).solve(rhs)
    refuse_superlu(monkeypatch)
    solve = surrogate_solver(system.surrogate_mass)
    for b, x in zip(rhs.T, oracle.T):
        assert np.abs(solve(b) - x).max() <= 1e-14 * np.abs(x).max()
    assert np.abs(solve(rhs) - oracle).max() <= 1e-14 * np.abs(oracle).max()


def test_wide_band_surrogate_keeps_superlu(monkeypatch):
    """A 16x16 P2 consistent mass has a band of 65: one SuperLU factor."""
    mesh = random_perturbed(16, 16, 0.01, seed=1)
    system = assemble_system(mesh, build_reference_element(2, 2), identity(2), CONSISTENT)
    factored = []
    original = assembly.symmetric_lu

    def counted(matrix):
        factored.append(matrix)
        return original(matrix)

    monkeypatch.setattr(assembly, "symmetric_lu", counted)
    solve = surrogate_solver(system.surrogate_mass)
    assert len(factored) == 1 and factored[0] is system.surrogate_mass
    b = np.ones(system.n_dofs)
    assert np.allclose(system.surrogate_mass @ solve(b), b, rtol=0, atol=1e-12)


def test_1d_p3_consistent_eigensolve_and_integrate_never_reach_superlu(monkeypatch):
    system = assemble_system(uniform_interval(40), build_reference_element(1, 3), identity(1),
                             CONSISTENT)
    refuse_superlu(monkeypatch)
    lam, vec = lambda_max_with_vector(system)
    scheme = rk_scheme("classic_rk4")
    trace = integrate(system, scheme, scheme.real_stability_boundary / lam, 5, vec)
    assert np.all(np.isfinite(trace.l2_norms)) and trace.n_steps == 5


def test_alignment_factor_1d():
    mesh = uniform_interval(8)
    factor = alignment_factors(mesh, identity(1))[0]
    assert abs(factor - 64.0) < 1e-12  # 1/h^2 with h = 1/8


def test_alignment_factor_flattened_triangle():
    reference = single_triangle(("D", "N", "N"))
    squashed = SimplicialMesh(
        2,
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.01]]),
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [1, 2], [0, 2]]),
        ("D", "N", "N"),
    )
    (f_ref,) = alignment_factors(reference, identity(2))
    (f_sq,) = alignment_factors(squashed, identity(2))
    assert abs(f_sq / f_ref - 1e4) < 1e-3 * 1e4


def test_alignment_factor_perfect_alignment():
    mesh = SimplicialMesh(
        2,
        np.array([[0.0, 0.0], [2.0, 0.0], [0.3, 0.5]]),
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [1, 2], [0, 2]]),
        ("D", "N", "N"),
    )
    (jac,) = mesh.geometry.jacobian
    D = DiffusionField.constant(jac @ jac.T)
    (factor,) = alignment_factors(mesh, D)
    assert abs(factor - 1.0) < 1e-13


def test_alignment_factor_callable_sampling():
    """A callable D is read only at the images of the stiffness quadrature
    points: max(1 + x) over them, not the 2 at the vertex (1, 0)."""
    mesh = single_triangle(("D", "N", "N"))
    field = DiffusionField.from_callable(
        lambda x: (1.0 + x[0]) * np.eye(2), degree=1
    )
    elem = build_reference_element(2, 1)
    (factor,) = alignment_factors(mesh, field)
    expected = 1.0 + mesh.geometry.map_points(elem.quad_points)[0, :, 0].max()
    assert abs(factor - expected) < 1e-14 and factor < 2.0


def callable_samples(diffusion, geometry, ref_points):
    """diffusion.func at the images of ref_points on every element, (E, P, d, d)."""
    return np.array([[diffusion.func(p) for p in points]
                     for points in geometry.map_points(ref_points)], dtype=float)


def stiffness_samples(diffusion, geometry, elem):
    """D at the images of the stiffness quadrature points, (E, Q, d, d), or
    the constant's (1, 1, d, d), with the rule picked independently."""
    if diffusion.is_constant:
        return diffusion.matrix[None, None]
    needed = 2 * (elem.order - 1) + diffusion.degree
    pts = elem.quad_points if needed <= 2 * elem.order else simplex_quadrature(elem.dimension, needed)[0]
    return callable_samples(diffusion, geometry, pts)


def matmul_alignment_oracle(system):
    """Per-element max of np.linalg.norm(F'^-1 D_q F'^-T, 2) over the system's
    samples D_q, from stacked matmuls."""
    inv = system.mesh.geometry.inv_jacobian[:, None]
    pulled = inv @ system.diffusion_samples @ inv.transpose(0, 1, 3, 2)
    return np.array([[np.linalg.norm(m, 2) for m in per_elem] for per_elem in pulled]).max(axis=1)


def graded_interval(n, ratio, seed):
    """uniform_interval(n) with geometric cell sizes (largest/smallest = ratio)
    and then its interior vertices jiggled by up to 20% of the adjacent cells."""
    mesh = uniform_interval(n)
    widths = ratio ** (np.arange(n) / (n - 1))
    x = np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()
    jiggle = np.random.default_rng(seed).uniform(-0.2, 0.2, n - 1)
    x[1:-1] += jiggle * np.minimum(np.diff(x)[:-1], np.diff(x)[1:])
    return dataclasses.replace(mesh, vertices=x[:, None])


def perturbed_stretched(ratio, seed):
    """random_perturbed(5, 5) squeezed to [0, 1] x [0, 1/ratio]."""
    mesh = random_perturbed(5, 5, 0.045, seed=seed)
    return dataclasses.replace(mesh, vertices=mesh.vertices * [1.0, 1.0 / ratio])


def swirl(x):
    """Rotated 1:100 tensor whose axis and scale vary with position."""
    c, s = np.cos(3.0 * x[0] + x[1]), np.sin(3.0 * x[0] + x[1])
    rot = np.array([[c, -s], [s, c]])
    return (1.0 + x[0] * x[1]) * rot @ np.diag([1.0, 100.0]) @ rot.T


ORACLE_MESHES = {
    "1d_graded_1": lambda: graded_interval(12, 1.0, seed=7),
    "1d_graded_1000": lambda: graded_interval(12, 1000.0, seed=7),
    "2d_perturbed": lambda: random_perturbed(5, 5, 0.045, seed=3),
    "2d_stretched_10": lambda: stretched(4, 4, 10.0),
    "2d_stretched_1000": lambda: stretched(4, 4, 1000.0),
    "2d_perturbed_stretched_1000": lambda: perturbed_stretched(1000.0, seed=5),
}
ORACLE_FIELDS = {
    1: {
        "constant": DiffusionField.constant(3.5, d=1),
        **{
            f"callable_deg{k}": DiffusionField.from_callable(
                lambda x: np.array([[1.0 + 50.0 * x[0] ** 2]]), degree=k
            )
            for k in range(5)
        },
    },
    2: {
        "constant": DiffusionField.constant(np.array([[2.0, 0.7], [0.7, 1.5]])),
        "rotated": DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0)),
        **{f"callable_deg{k}": DiffusionField.from_callable(swirl, degree=k) for k in range(5)},
    },
}


@pytest.mark.parametrize("mesh, field", [
    (mesh, field) for mesh in ORACLE_MESHES for field in ORACLE_FIELDS[int(mesh[0])]
])
@pytest.mark.parametrize("order", [1, 3])
def test_alignment_factor_matches_matmul_oracle(mesh, field, order):
    mesh = ORACLE_MESHES[mesh]()
    diffusion = ORACLE_FIELDS[mesh.dimension][field]
    elem = build_reference_element(mesh.dimension, order)
    system = assemble_system(mesh, elem, diffusion)
    np.testing.assert_array_equal(system.diffusion_samples,
                                  stiffness_samples(diffusion, mesh.geometry, elem))
    factor = element_alignment_factor(system)
    assert factor.shape == (mesh.n_elements,)
    np.testing.assert_allclose(factor, matmul_alignment_oracle(system), rtol=1e-14, atol=0)


def random_spd_stack(rng, shape, d):
    """SPD d x d matrices over shape, with eigenvalues spread over 1:100."""
    q = np.linalg.qr(rng.standard_normal((*shape, d, d)))[0]
    scales = rng.uniform(0.01, 1.0, (*shape, 1, d))
    return (q * scales) @ np.swapaxes(q, -1, -2)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("case", ["identity", "per_element", "constant", "samples"])
def test_pulled_back_norm_matches_matmul_oracle(d, case):
    """The closed forms against np.linalg.norm(inv @ T @ inv^T, 2) on random
    stacks: _pulled_back_norm for the identity, and the closed-form norm of
    _metric's G for one tensor per element, the (E, 1) by (1, 1) broadcast
    of a constant D, and (E, P) samples of a callable D."""
    rng = np.random.default_rng(7 + d)
    n_elements, n_points = 50, 4
    inv = rng.standard_normal((n_elements, d, d)) * rng.uniform(0.1, 100.0, (n_elements, 1, 1))
    shapes = {"per_element": (n_elements,), "constant": (1, 1), "samples": (n_elements, n_points)}
    stacked = inv[:, None] if case in ("constant", "samples") else inv
    tensor = None if case == "identity" else random_spd_stack(rng, shapes[case], d)
    pulled = stacked @ (np.eye(d) if tensor is None else tensor) @ np.swapaxes(stacked, -1, -2)
    expected = np.linalg.norm(pulled, 2, axis=(-2, -1))
    if tensor is None:
        norms = _pulled_back_norm(inv)
    else:
        metric = _metric(inv, tensor[:, None] if case == "per_element" else tensor)
        norms = _symmetric_norm([metric[..., a, b] for a, b in np.ndindex(d, d)])
        norms = norms.reshape(expected.shape)
    assert norms.shape == expected.shape
    np.testing.assert_allclose(norms, expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("mesh, field", [
    (mesh, field) for mesh in ORACLE_MESHES for field in ("constant", "callable_deg2")
])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_system_metric_is_the_pulled_back_tensor(mesh, field, order):
    """The system's metric is F'^-1 D_q F'^-T at its samples D_q, to 1e-15 of
    the entries' scale |F'^-1| |D_q| |F'^-1|^T, stored as inv_jacobian is:
    one read-only view of a contiguous (Q, d, d, E) block."""
    mesh = ORACLE_MESHES[mesh]()
    diffusion = ORACLE_FIELDS[mesh.dimension][field]
    elem = build_reference_element(mesh.dimension, order)
    system = assemble_system(mesh, elem, diffusion)
    samples = system.diffusion_samples
    metric = system.metric
    d, n_points = mesh.dimension, samples.shape[1]
    assert metric.shape == (mesh.n_elements, n_points, d, d)
    assert metric.transpose(1, 2, 3, 0).flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        metric[...] = 0
    inv = mesh.geometry.inv_jacobian[:, None]
    oracle = inv @ samples @ inv.transpose(0, 1, 3, 2)
    scale = np.abs(inv) @ np.abs(samples) @ np.abs(inv).transpose(0, 1, 3, 2)
    assert np.all(np.abs(metric - oracle) <= 1e-15 * scale)


def stiffness_oracle(mesh, elem, diffusion):
    """Element stiffness matrices by loops over Python floats, in the order
    assemble_stiffness documents: every sum starts from 0.0 and runs over its
    index in increasing order, (a, b) lexicographically."""
    geometry = build_affine_maps(mesh)
    pts, wts = _stiffness_quadrature(elem, diffusion)
    grads = tabulate_gradients(elem, pts)
    n_q, eta, d = grads.shape
    if diffusion.is_constant:
        samples = [[diffusion.matrix.tolist()]] * len(geometry.volume)
    else:
        samples = callable_samples(diffusion, geometry, pts).tolist()
    w, g = wts.tolist(), grads.tolist()
    local = []
    for inv, tensors, vol in zip(geometry.inv_jacobian.tolist(), samples,
                                 geometry.volume.tolist()):
        geos = []
        for D in tensors:
            geo = [[0.0] * d for _ in range(d)]
            for a in range(d):
                for c in range(d):
                    for b in range(d):
                        acc = 0.0
                        for k in range(d):
                            acc += (inv[a][b] * D[b][k]) * inv[c][k]
                        geo[a][c] = acc + geo[a][c]
            geos.append(geo)
        K = [[0.0] * eta for _ in range(eta)]
        for q in range(n_q):
            geo = geos[min(q, len(geos) - 1)]
            for i in range(eta):
                for j in range(eta):
                    acc = 0.0
                    for a in range(d):
                        for b in range(d):
                            acc += ((w[q] * g[q][i][a]) * geo[a][b]) * g[q][j][b]
                    K[i][j] = acc + K[i][j]
        local.append([[0.5 * (K[i][j] * vol + K[j][i] * vol) for j in range(eta)]
                      for i in range(eta)])
    return np.array(local)


def einsum_stiffness(mesh, elem, diffusion):
    """Element stiffness matrices by numpy's einsum, the earlier assembly."""
    geometry = build_affine_maps(mesh)
    pts, wts = _stiffness_quadrature(elem, diffusion)
    grads = tabulate_gradients(elem, pts)
    inv = geometry.inv_jacobian
    if diffusion.is_constant:
        geo = np.einsum("eab,bc,edc->ead", inv, diffusion.matrix, inv)
        local = np.einsum("q,qia,eab,qjb->eij", wts, grads, geo, grads)
    else:
        samples = callable_samples(diffusion, geometry, pts)
        geo = np.einsum("eab,eqbc,edc->eqad", inv, samples, inv)
        local = np.einsum("q,qia,eqab,qjb->eij", wts, grads, geo, grads)
    local *= geometry.volume[:, None, None]
    return 0.5 * (local + local.transpose(0, 2, 1))


STIFFNESS_MESHES = {
    "1d_graded_1000": ORACLE_MESHES["1d_graded_1000"],
    "2d_perturbed": lambda: random_perturbed(4, 4, 0.05, seed=1),
    "2d_structured": lambda: structured_triangular(3, 3),
    "2d_stretched_1000": ORACLE_MESHES["2d_stretched_1000"],
}


@pytest.mark.parametrize("mesh, field", [
    (mesh, field) for mesh in STIFFNESS_MESHES
    for field in ("constant", "rotated", "callable_deg0", "callable_deg4")
    if field in ORACLE_FIELDS[int(mesh[0])]
])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_stiffness_matches_loop_oracle_bytes(mesh, field, order):
    """The blocked kernel gives the oracle's bits, and einsum's values.

    Only the values are compared with einsum: how einsum iterates, and so its
    last bits, may differ between numpy versions.
    """
    mesh = STIFFNESS_MESHES[mesh]()
    diffusion = ORACLE_FIELDS[mesh.dimension][field]
    elem = build_reference_element(mesh.dimension, order)
    numbering = number_dofs(mesh, elem)
    A = assemble_stiffness(mesh, elem, diffusion)[0]
    oracle = _scatter(stiffness_oracle(mesh, elem, diffusion), numbering.element_dofs,
                      numbering.n_dofs)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(oracle, name)), name
    dense = A.toarray()
    einsum = _scatter(einsum_stiffness(mesh, elem, diffusion), numbering.element_dofs,
                      numbering.n_dofs).toarray()
    np.testing.assert_allclose(dense, einsum, rtol=1e-15, atol=1e-15 * np.abs(dense).max())


@pytest.mark.parametrize("mesh, diffusion, order, nnz, structural", [
    # roundoff: 2 of the 801 entries cancel to exactly 0 in this summation order
    (STIFFNESS_MESHES["2d_perturbed"], ORACLE_FIELDS[2]["rotated"], 2, 799, 801),
    # exact cancellation of the Laplacian's entries on the structured grid
    (STIFFNESS_MESHES["2d_structured"], identity(2), 2, 453, 463),
])
def test_stiffness_nnz_where_sums_cancel(mesh, diffusion, order, nnz, structural):
    mesh = mesh()
    elem = build_reference_element(2, order)
    numbering = number_dofs(mesh, elem)
    A = assemble_stiffness(mesh, elem, diffusion)[0]
    ones = np.ones((len(mesh.elements), elem.node_count, elem.node_count))
    assert A.nnz == nnz
    assert _scatter(ones, numbering.element_dofs, numbering.n_dofs).nnz == structural


def test_reduced_matrices_have_int32_indices():
    mesh = random_perturbed(4, 4, 0.05, seed=3)
    elem = build_reference_element(2, 2)
    system = assemble_system(mesh, elem, identity(2), HRZ_DIAGONAL)
    for matrix in (system.mass, system.stiffness, system.surrogate_mass):
        assert matrix.indices.dtype == np.int32
        assert matrix.indptr.dtype == np.int32


def test_rotated_anisotropic_construction():
    D = DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0))
    eigenvalues = np.linalg.eigvalsh(D.matrix)
    np.testing.assert_allclose(eigenvalues, [1.0, 100.0], rtol=1e-13)
    np.testing.assert_allclose(D.matrix, D.matrix.T, atol=1e-15)
    with pytest.raises(ValueError):
        DiffusionField.rotated_anisotropic(0.1, (1.0, -2.0))
    # diag(0, 1) rotated by 0.3 rounds to a determinant of +1.4e-17, which the
    # SPD test of the built matrix passes, so the eigenvalues are checked
    with pytest.raises(NonSPDDiffusionError, match="must be positive"):
        DiffusionField.rotated_anisotropic(0.3, (0.0, 1.0))


@pytest.mark.parametrize("bad,kind", [(-1.0, "positive definite"), (np.nan, "finite")],
                         ids=["indefinite", "nan"])
def test_non_spd_diffusion_detected(bad, kind):
    mesh = structured_triangular(2, 2)
    elem = build_reference_element(2, 1)
    field = DiffusionField.from_callable(
        lambda x: np.array([[1.0, 0.0], [0.0, bad]]), degree=0
    )
    with pytest.raises(NonSPDDiffusionError, match=f"not {kind} at element 0, quadrature point 0"):
        assemble_stiffness(mesh, elem, field)


@pytest.mark.parametrize("matrix,kind", [
    # NaN passed every comparison of the SPD test, and assembled a NaN stiffness
    ([[np.nan, 0.0], [0.0, 1.0]], "finite"),
    ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
    ([[-np.inf]], "finite"),
    ([[1.0, 0.0], [0.0, -1.0]], "positive definite"),
    ([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
])
def test_constant_diffusion_checked_when_built(matrix, kind):
    with pytest.raises(NonSPDDiffusionError, match=f"diffusion tensor not {kind}: "):
        DiffusionField.constant(matrix)


@pytest.mark.parametrize("D", [
    DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0)),
    DiffusionField.from_callable(swirl, degree=2),
    DiffusionField.from_callable(lambda x: (1.0 + 50.0 * x[0] ** 2) * np.eye(2), degree=2),
], ids=["rotated", "swirl", "graded"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_lemma3_diagonal_bound(D, order):
    """A_ii <= C_H1 * sum over the patch of |K| * alignment(K), for constant
    and callable D: the alignment factors read every sample A integrates."""
    mesh = random_perturbed(3, 3, 0.05, seed=2)
    elem = build_reference_element(2, order)

    numbering = number_dofs(mesh, elem)
    geometry = build_affine_maps(mesh)
    incidence, _ = build_patches(mesh, elem)
    A = assemble_stiffness(mesh, elem, D)[0]
    align = element_alignment_factor(assemble_system(mesh, elem, D))
    diag = A.diagonal()
    for i in range(numbering.n_dofs):
        patch = incidence.indices[incidence.indptr[i]:incidence.indptr[i + 1]]
        bound = elem.c_h1 * sum(geometry.volume[e] * align[e] for e in patch)
        assert diag[i] <= bound * (1 + 1e-12)


def test_l2_projection_reproduces_polynomials():
    mesh = structured_triangular(3, 3)
    elem = build_reference_element(2, 2)
    u = l2_project(mesh, elem, lambda x: x[0] ** 2 + x[1])
    mass, _ = assemble_mass(mesh, elem)
    # || f ||^2 over the unit square for f = x^2 + y
    exact = 13.0 / 15.0
    assert abs(u @ (mass @ u) - exact) < 1e-12


def test_l2_projection_linear_1d_nodal_values():
    mesh = uniform_interval(5)
    elem = build_reference_element(1, 1)
    u = l2_project(mesh, elem, lambda x: 3.0 * x[0] - 1.0)
    np.testing.assert_allclose(u, 3.0 * mesh.vertices[:, 0] - 1.0, atol=1e-12)


PROJECTION_MESHES = {
    "interval": lambda: uniform_interval(7),
    "structured": lambda: structured_triangular(5, 4),
    "perturbed": lambda: random_perturbed(5, 5, 0.03, seed=3),
    "stretched-100": lambda: stretched(5, 5, 100.0),
    "alternating": lambda: structured_triangular(4, 5, "alternating"),
}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", PROJECTION_MESHES)
def test_jacobi_scaled_mass_spectrum_lies_in_the_reference_interval(kind, m):
    """Wathen's interval: the pencil (M, diag M) of the assembled consistent
    mass has its eigenvalues in the element's [c, C]."""
    mesh = PROJECTION_MESHES[kind]()
    elem = build_reference_element(mesh.dimension, m)
    mass, _ = assemble_mass(mesh, elem)
    jacobi = sp.diags_array(mass.diagonal()).tocsr()
    largest = lambda_max_dense(mass, jacobi)
    smallest = 1.0 / lambda_max_dense(jacobi, mass)
    assert elem.jacobi_lambda_min * (1 - 1e-12) <= smallest
    assert largest <= elem.jacobi_lambda_max * (1 + 1e-12)


def test_reference_jacobi_intervals_and_step_counts():
    """The triangle intervals [c, C] at P1-P3 and the fixed Chebyshev step counts."""
    expected = {1: (0.5, 2.0, 35), 2: (0.3924, 2.0598, 41), 3: (0.2868, 2.0093, 48)}
    for m, (lo, hi, steps) in expected.items():
        elem = build_reference_element(2, m)
        assert abs(elem.jacobi_lambda_min - lo) < 5e-5 and abs(elem.jacobi_lambda_max - hi) < 5e-5
        assert _chebyshev_steps(elem.jacobi_lambda_min, elem.jacobi_lambda_max) == steps


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", PROJECTION_MESHES)
def test_l2_projection_matches_a_direct_solve(monkeypatch, kind, m):
    """The fixed-count Chebyshev solve agrees with spsolve on the same M and
    load to 1e-14 of max|u|, and factorises nothing."""
    mesh = PROJECTION_MESHES[kind]()
    elem = build_reference_element(mesh.dimension, m)
    solves = []
    original = assembly._chebyshev_solve

    def recorded(matrix, rhs, lo, hi):
        solves.append((matrix, rhs))
        return original(matrix, rhs, lo, hi)

    def refused(*args, **kwargs):
        raise AssertionError("l2_project factorised a matrix")

    monkeypatch.setattr(assembly, "_chebyshev_solve", recorded)
    monkeypatch.setattr(assembly, "symmetric_lu", refused)
    monkeypatch.setattr(spla, "splu", refused)
    u = l2_project(mesh, elem, lambda x: math.exp(x[0]) * math.cos(3.0 * x[-1]) + x[-1] ** 2)
    monkeypatch.undo()
    ((mass, load),) = solves
    oracle = spla.spsolve(mass.tocsc(), load)
    assert np.abs(u - oracle).max() <= 1e-14 * np.abs(oracle).max()


def test_system_and_projection_build_the_geometry_once(monkeypatch):
    """assemble_system, then l2_project(mesh, elem, f) with no numbering,
    build the mesh's affine maps once."""
    calls = []
    original = rkstab.mesh.build_affine_maps

    def counted(mesh):
        calls.append(mesh)
        return original(mesh)

    monkeypatch.setattr(rkstab.mesh, "build_affine_maps", counted)
    mesh = random_perturbed(6, 6, 0.02, seed=1)
    elem = build_reference_element(2, 1)
    assemble_system(mesh, elem, identity(2), HRZ_DIAGONAL)
    l2_project(mesh, elem, lambda x: x[0] * x[1])
    assert calls == [mesh]


def test_one_numbering_per_mesh_and_order(monkeypatch):
    """assemble_system, l2_project(mesh, elem, f), a second assemble_system
    under another policy and the first one's consistent mass number the DOFs
    once; its arrays are read-only, so no write leaves a later assembly
    stale."""
    calls = []
    original = rkstab.mesh.number_dofs

    def counted(mesh, elem):
        calls.append((mesh, elem.order))
        return original(mesh, elem)

    monkeypatch.setattr(rkstab.mesh, "number_dofs", counted)
    mesh = random_perturbed(6, 6, 0.02, seed=1)
    elem = build_reference_element(2, 2)
    first = assemble_system(mesh, elem, identity(2), HRZ_DIAGONAL)
    l2_project(mesh, elem, lambda x: x[0] * x[1])
    second = assemble_system(mesh, elem, identity(2), CONSISTENT)
    first.mass
    assert calls == [(mesh, 2)]
    assert first.numbering is second.numbering is mesh.numbering(elem)
    assert mesh.numbering(build_reference_element(2, 1)).n_dofs == mesh.n_vertices
    assert calls == [(mesh, 2), (mesh, 1)]
    for array in (first.numbering.element_dofs, first.numbering.dirichlet_dofs):
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
        np.testing.assert_array_equal(array, before)


def test_system_and_diffusion_compare_by_identity():
    # A field holding an array, and a system holding caches, are equal only
    # to themselves; before, == raised ValueError on the field's matrix and
    # hash() raised TypeError on both.
    field, twin_field = DiffusionField.constant(np.eye(2)), DiffusionField.constant(np.eye(2))
    system = assemble_system(structured_triangular(2, 2), build_reference_element(2, 1),
                             field, CONSISTENT)
    twin = dataclasses.replace(system)
    assert field == field and field != twin_field
    assert system == system and system != twin
    keys = {field: "field", twin_field: "twin field", system: "system", twin: "twin"}
    assert [keys[k] for k in (field, twin_field, system, twin)] == list(keys.values())


def test_system_builds_one_surrogate_solve(monkeypatch):
    """The eigensolve and the stepper read one surrogate_solve; a replaced
    system starts without it."""
    calls = []
    original = assembly.surrogate_solver

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(assembly, "surrogate_solver", counted)
    system = assemble_system(random_perturbed(4, 4, 0.02, seed=1), build_reference_element(2, 2),
                             identity(2), CONSISTENT)
    lam, vec = lambda_max_with_vector(system)
    integrate(system, rk_scheme("heun2"), 1.0 / lam, 3, vec)
    assert system.surrogate_solve is system.surrogate_solve
    assert len(calls) == 1 and calls[0] is system.surrogate_mass
    dataclasses.replace(system).surrogate_solve
    assert len(calls) == 2


def test_scalar_diffusion_requires_dimension():
    with pytest.raises(ValueError, match="dimension"):
        DiffusionField.constant(2.0)
    field = DiffusionField.constant(2.0, d=2)
    np.testing.assert_allclose(field.matrix, 2.0 * np.eye(2))


# --------------------------------------------------------------------------
# Constant tensors of the wrong size


@pytest.mark.parametrize("matrix", [np.diag([1.0, 1.0, -1.0]), np.eye(3), np.ones((1, 2))],
                         ids=["3x3-indefinite", "3x3", "1x2"])
def test_constant_tensor_size_checked_when_built(matrix):
    # diag(1, 1, -1) passed the SPD test, which read only its leading 2x2 block
    with pytest.raises(ValueError, match="diffusion matrix must be"):
        DiffusionField.constant(matrix)


def test_constant_tensor_of_the_wrong_dimension_rejected_by_assembly():
    mesh = uniform_interval(4)
    elem = build_reference_element(1, 1)
    # a 2x2 tensor on an interval assembled a 3x3 stiffness with a lambda_max
    with pytest.raises(ValueError, match="2x2 on a mesh of dimension 1"):
        assemble_system(mesh, elem, identity(2), HRZ_DIAGONAL)
    with pytest.raises(ValueError, match="2x2 on a mesh of dimension 1"):
        assemble_stiffness(mesh, elem, identity(2))
    with pytest.raises(ValueError, match="1x1 on a mesh of dimension 2"):
        assemble_system(structured_triangular(2, 2), build_reference_element(2, 1), identity(1))


# --------------------------------------------------------------------------
# D on the elements


def test_diffusion_on_elements_shapes():
    """A constant comes back once, as a read-only view of its matrix; a
    callable gives its value at every image of every reference point."""
    geometry = build_affine_maps(random_perturbed(3, 2, 0.05, seed=4))
    ref_points = np.array([[0.0, 0.0], [0.25, 0.5], [1 / 3, 1 / 3]])
    constant = DiffusionField.rotated_anisotropic(0.3, (1.0, 10.0))
    values = constant.on(geometry, ref_points)
    assert values.shape == (1, 1, 2, 2)
    assert np.shares_memory(values, constant.matrix) and not values.flags.writeable
    np.testing.assert_array_equal(values[0, 0], constant.matrix)

    def tensor(x):
        return np.array([[2.0 + x[0], x[1]], [x[1], 3.0]])

    values = DiffusionField.from_callable(tensor, degree=1).on(geometry, ref_points)
    assert values.shape == (geometry.volume.size, 3, 2, 2) and not values.flags.writeable
    images = geometry.map_points(ref_points)
    np.testing.assert_array_equal(values, [[tensor(x) for x in row] for row in images])


def test_diffusion_on_elements_rejects_a_constant_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="^diffusion matrix is 2x2 on a mesh of dimension 1$"):
        identity(2).on(build_affine_maps(uniform_interval(3)), np.zeros((1, 1)))


def test_scalar_valued_callable_on_an_interval():
    """A scalar-valued 1D callable reads as 1x1 tensors, and assembles the
    bytes of the same callable returning 1x1 arrays."""
    mesh = uniform_interval(4)
    geometry = build_affine_maps(mesh)
    scalar = DiffusionField.from_callable(lambda x: 1.0 + x[0] ** 2, degree=2)
    matrix = DiffusionField.from_callable(lambda x: np.array([[1.0 + x[0] ** 2]]), degree=2)
    ref_points = np.array([[0.0], [0.5], [1.0]])
    values = scalar.on(geometry, ref_points)
    assert values.shape == (4, 3, 1, 1)
    np.testing.assert_array_equal(values[..., 0, 0], 1.0 + geometry.map_points(ref_points)[..., 0] ** 2)
    elem = build_reference_element(1, 3)
    assert _same_bytes(assemble_stiffness(mesh, elem, scalar)[0],
                       assemble_stiffness(mesh, elem, matrix)[0])


@pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2) for m in (1, 2, 3)])
def test_callable_returning_a_constant_gives_the_constant_bytes(d, m):
    """A constant D and a callable that returns it give the same bytes of A,
    of the alignment factors and of the comparison bound."""
    mesh = uniform_interval(6) if d == 1 else random_perturbed(4, 3, 0.05, seed=2)
    matrix = (np.array([[2.5]]) if d == 1
              else DiffusionField.rotated_anisotropic(0.5, (1.0, 30.0)).matrix)
    constant = DiffusionField.constant(matrix)
    func = DiffusionField.from_callable(lambda x: matrix, degree=0)
    elem = build_reference_element(d, m)
    assert _same_bytes(assemble_stiffness(mesh, elem, constant)[0],
                       assemble_stiffness(mesh, elem, func)[0])
    by_constant = assemble_system(mesh, elem, constant)
    by_func = assemble_system(mesh, elem, func)
    assert (element_alignment_factor(by_constant).tobytes()
            == element_alignment_factor(by_func).tobytes())
    assert zhudu_bound(by_constant).hex() == zhudu_bound(by_func).hex()


def test_a_callable_is_called_once_per_point():
    """D, in the stiffness, in the system and alone, and l2_project's function
    are each called once at every image of every quadrature point, in element
    order; a report on the system calls D no more."""
    mesh = random_perturbed(3, 3, 0.05, seed=1)
    geometry = build_affine_maps(mesh)
    elem = build_reference_element(2, 2)
    calls = []

    def counted(x):
        calls.append(tuple(x))
        return np.eye(2)

    def images(ref_points):
        return [tuple(x) for x in geometry.map_points(ref_points).reshape(-1, 2)]

    field = DiffusionField.from_callable(counted, degree=3)
    pts = _stiffness_quadrature(elem, field)[0]
    field.on(geometry, pts)
    assert calls == images(pts)
    calls.clear()
    assemble_stiffness(mesh, elem, field)
    assert calls == images(pts)
    calls.clear()
    system = assemble_system(mesh, elem, field, HRZ_DIAGONAL)
    assert calls == images(pts)
    calls.clear()
    compute_bound_report(mesh, elem, field, HRZ_DIAGONAL, dof_cap=0, system=system)
    assert calls == []
    l2_project(mesh, elem, lambda x: counted(x)[0, 0])
    assert calls == images(simplex_quadrature(2, 2 * elem.order + 2)[0])


@pytest.mark.parametrize("kind", ["constant", "callable"])
def test_system_diffusion_samples_are_read_only(kind):
    mesh = random_perturbed(3, 3, 0.05, seed=1)
    elem = build_reference_element(2, 2)
    field = (DiffusionField.rotated_anisotropic(0.3, (1.0, 10.0)) if kind == "constant"
             else DiffusionField.from_callable(swirl, degree=2))
    samples = assemble_system(mesh, elem, field).diffusion_samples
    before = samples.copy()
    with pytest.raises(ValueError, match="read-only"):
        samples[...] = 0
    np.testing.assert_array_equal(samples, before)
    if kind == "constant":
        np.testing.assert_array_equal(field.matrix, before[0, 0])


def test_a_constant_diffusion_keeps_its_own_copy():
    """A write to the caller's array after assembly moves no report byte, and
    a write to field.matrix raises.  The field used to keep a writable view
    of the array: setting D_11 = 1e6 here raised the comparison bound
    4.19e3 -> 4.19e7 and the geometric bound 4.34e4 -> 4.32e8, while A, and
    so lambda_max, stayed as assembled."""
    mesh = structured_triangular(4, 4)
    elem = build_reference_element(2, 1)
    arr = np.diag([1.0, 100.0])
    field = DiffusionField.constant(arr)
    system = assemble_system(mesh, elem, field, HRZ_DIAGONAL)

    def report():
        return compute_bound_report(mesh, elem, field, HRZ_DIAGONAL, dof_cap=0,
                                    system=system).csv_row()

    before = report()
    arr[1, 1] = 1e6
    assert report() == before
    with pytest.raises(ValueError, match="read-only"):
        field.matrix[1, 1] = 1e6
    identity_field = DiffusionField(matrix=[[1, 0], [0, 1]])
    assert identity_field.matrix.dtype == np.float64
    np.testing.assert_array_equal(identity_field.matrix, np.eye(2))


@pytest.mark.parametrize("kwargs", [{}, {"matrix": np.eye(2), "func": swirl}],
                         ids=["neither", "both"])
def test_diffusion_field_holds_exactly_one_of_matrix_and_func(kwargs):
    # neither failed later in assembly, with an AttributeError on None.shape;
    # both checked the matrix and then silently used the callable
    with pytest.raises(ValueError, match="^a diffusion field needs exactly one of matrix and func$"):
        DiffusionField(**kwargs)


@pytest.mark.parametrize("d,value,shape", [
    (2, lambda x: 1.0 + x[0], "()"),
    (2, lambda x: np.eye(3), "(3, 3)"),
    (2, lambda x: np.ones(4), "(4,)"),
    (1, lambda x: np.eye(2), "(2, 2)"),
])
def test_callable_values_of_the_wrong_shape_rejected(d, value, shape):
    """A 2D callable returning a scalar died in a bare numpy reshape."""
    mesh = uniform_interval(4) if d == 1 else structured_triangular(2, 2)
    field = DiffusionField.from_callable(value, degree=0)
    expected = re.escape(f"diffusion callable must return shape ({d}, {d}), got {shape}")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        assemble_system(mesh, build_reference_element(d, 1), field)


def counting(value, switch_to=None, after=1):
    """value as a user function that records its calls; with switch_to, the
    values from call after + 1 on are switch_to's."""
    calls = []

    def func(x):
        calls.append(tuple(x))
        return (value if switch_to is None or len(calls) <= after else switch_to)(x)

    return func, calls


def diffuse(d):
    """A run that assembles a P1 system, on a mesh of dimension d, whose D is its function."""
    def run(func):
        mesh = uniform_interval(4) if d == 1 else structured_triangular(4, 4)
        return assemble_system(mesh, build_reference_element(d, 1),
                               DiffusionField.from_callable(func, 0))

    return run


def project(func):
    return l2_project(structured_triangular(4, 4), build_reference_element(2, 1), func)


@pytest.mark.parametrize("d,value,shape", [
    (2, lambda x: 1.0 + x[0], "()"),
    (2, lambda x: np.eye(3), "(3, 3)"),
    (2, lambda x: np.ones((1, 2)), "(1, 2)"),
    (1, lambda x: np.eye(2), "(2, 2)"),
])
def test_a_diffusion_value_of_the_wrong_shape_fails_after_one_call(d, value, shape):
    func, calls = counting(value)
    expected = re.escape(f"diffusion callable must return shape ({d}, {d}), got {shape}")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        diffuse(d)(func)
    assert len(calls) == 1


@pytest.mark.parametrize("value,shape", [
    (lambda x: np.ones(2), "(2,)"),
    (lambda x: [x[0], x[1]], "(2,)"),
    (lambda x: np.eye(2), "(2, 2)"),
    (lambda x: np.ones(0), "(0,)"),
])
def test_a_projected_value_of_a_size_other_than_one_fails_after_one_call(value, shape):
    """It failed in a numpy reshape after every call: 294,912 at 128x128 P1."""
    func, calls = counting(value)
    expected = re.escape(f"l2_project's function must return a scalar, got shape {shape}")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        project(func)
    assert len(calls) == 1


@pytest.mark.parametrize("wrap", [np.float64, np.array, lambda v: np.array([v]),
                                  lambda v: np.array([[v]])],
                         ids=["float64", "0-d", "(1,)", "(1, 1)"])
def test_projected_values_of_size_one_keep_the_bytes(wrap):
    mesh, elem = random_perturbed(4, 4, 0.05, seed=2), build_reference_element(2, 2)

    def func(x):
        return math.exp(x[0]) * math.cos(3.0 * x[1])

    expected = l2_project(mesh, elem, func)
    assert l2_project(mesh, elem, lambda x: wrap(func(x))).tobytes() == expected.tobytes()


@pytest.mark.parametrize("run,first,later", [
    (diffuse(2), lambda x: np.eye(2), lambda x: 2.0),           # a float broadcasts to 2x2
    (diffuse(2), lambda x: np.eye(2), lambda x: np.ones(2)),    # so does a row
    (diffuse(2), lambda x: np.eye(2), lambda x: np.eye(3)),
    (diffuse(1), lambda x: 1.0, lambda x: np.eye(2)),
    (project, lambda x: 1.0, lambda x: np.ones(2)),
    (project, lambda x: np.ones(1), lambda x: 1.0),
    (project, lambda x: np.ones(1), lambda x: np.ones((1, 1))),  # broadcasts to (1,)
], ids=["2d-float", "2d-row", "2d-3x3", "1d-2x2", "float-then-row", "(1,)-then-float",
        "(1,)-then-(1, 1)"])
def test_a_value_that_changes_shape_fails(run, first, later):
    func, calls = counting(first, later, after=5)
    with pytest.raises(ValueError):
        run(func)
    assert len(calls) == 6


@pytest.mark.parametrize("func", [lambda x: x[0] * x[1],
                                  lambda x: np.array([[1.0 + x[0], x[1]], [x[1], 2.0]])],
                         ids=["scalar", "2x2"])
def test_values_stream_into_one_array(func):
    """The traced peak of the per-point helper stays below 1.5 times its
    output's bytes plus 64 KiB: no list of the values, or of their objects,
    is kept.  Collecting the values in a list first reads 5.0 and 7.3 times."""
    points = np.random.default_rng(3).random((500, 100, 2))
    expected = np.array([func(x) for x in points.reshape(-1, 2)])
    tracemalloc.start()
    try:
        values = assembly._at_each_point(func, points, lambda shape: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.tobytes() == expected.tobytes()
    assert peak < 1.5 * values.nbytes + 64 * 1024, peak / values.nbytes


def test_no_free_dof_fails_before_the_stiffness():
    """The no-free-DOF rule is a mesh rule: it fails before D is read."""
    calls = []
    field = DiffusionField.from_callable(lambda x: calls.append(x) or -np.eye(2), degree=0)
    with pytest.raises(MeshStructureError,
                       match="^no free DOF at order 1: every DOF lies on the Dirichlet boundary$"):
        assemble_system(single_triangle(), build_reference_element(2, 1), field)
    assert calls == []


# --------------------------------------------------------------------------
# The consistent mass is built on first read


@pytest.fixture
def mass_builds(monkeypatch):
    """Calls of AssembledSystem.mass's builder: one per system that reads M."""
    builds = []
    build = AssembledSystem.__dict__["mass"].func

    @functools.wraps(build)
    def counted(system):
        builds.append(system)
        return build(system)

    prop = functools.cached_property(counted)
    prop.__set_name__(AssembledSystem, "mass")
    monkeypatch.setattr(AssembledSystem, "mass", prop)
    return builds


@pytest.mark.parametrize("policy,order", [(HRZ_DIAGONAL, 2), (NODE_QUADRATURE, 3)],
                         ids=["hrz", "node_quadrature"])
def test_bounds_only_paths_never_build_the_consistent_mass(mass_builds, capsys, tmp_path,
                                                           policy, order):
    mesh = random_perturbed(3, 3, 0.05, seed=2)
    elem = build_reference_element(2, order)
    D = DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0))
    system = assemble_system(mesh, elem, D, policy)
    report = compute_bound_report(mesh, elem, D, policy, system=system)
    verify_matrix_inequalities(system)
    scheme = rk_scheme("classic_rk4")
    for source in ("exact", "diag_ratio", "geometric"):
        stable_timestep(scheme, source, report)
    assert system.n_dofs > 0
    common = ["--mesh", "structured_triangular:nx=3,ny=3", "--order", str(order),
              "--policy", policy.kind]
    assert main(["bounds", *common, "--out", str(tmp_path / "bounds")]) == 0
    assert main(["sweep", *common, "--sweep-axis", "n", "--sweep-values", "2,3",
                 "--workers", "1", "--out", str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    assert mass_builds == []

    # integrate reads M for its L2 norms; the second run reuses it
    u0 = np.linspace(0.0, 1.0, system.n_dofs)
    integrate(system, scheme, 1e-4, 3, u0)
    integrate(system, scheme, 1e-4, 3, u0)
    assert mass_builds == [system]


def _old_cut(matrix, free):
    out = matrix[free][:, free]
    out.sort_indices()
    return out


def _old_construction(mesh, elem, ref, free):
    """The reduced |K| ref assembly as it was built for M and M-tilde: the
    COO->CSR sum of _scatter, then the Dirichlet cut."""
    numbering = number_dofs(mesh, elem)
    local = build_affine_maps(mesh).volume[:, None, None] * ref[None, :, :]
    return _old_cut(_scatter(local, numbering.element_dofs, numbering.n_dofs), free)


def _old_system_parts(mesh, elem, diffusion):
    """A, P, the patch volumes and dof_map as the two-pass construction built
    them: each on the full DOF set, then cut to the DOFs not on the Dirichlet
    list."""
    numbering = number_dofs(mesh, elem)
    free = np.setdiff1d(np.arange(numbering.n_dofs), numbering.dirichlet_dofs)
    stiffness = assemble_stiffness(mesh, elem, diffusion)[0]
    incidence, volumes = build_patches(mesh, elem)
    return _old_cut(stiffness, free), incidence[free], volumes[free], free


def _same_bytes(a, b) -> bool:
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in [(a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)])


_OLD_CONSTRUCTION_MESHES = {
    (1, 1): lambda: uniform_interval(9),
    (1, 2): lambda: uniform_interval(7),
    (1, 3): lambda: uniform_interval(5),
    (2, 1): lambda: random_perturbed(6, 5, 0.03, seed=1),
    (2, 2): lambda: random_perturbed(5, 5, 0.04, seed=2),
    (2, 3): lambda: random_perturbed(4, 4, 0.05, seed=3),
}


@pytest.mark.parametrize("d,m,policy", [
    (d, m, policy)
    for d, m in _OLD_CONSTRUCTION_MESHES
    for policy in (CONSISTENT, HRZ_DIAGONAL, NODE_QUADRATURE)
    if not (policy is NODE_QUADRATURE and (d, m) == (2, 2))  # (M1) fails there
], ids=lambda v: v.kind if isinstance(v, SurrogatePolicy) else str(v))
def test_lazy_mass_and_bincount_surrogate_match_the_old_construction(d, m, policy):
    """Every part of the one-pass system keeps the bytes of the old two-pass
    construction; only a diagonal surrogate's values move, by roundoff."""
    mesh = _OLD_CONSTRUCTION_MESHES[d, m]()
    elem = build_reference_element(d, m)
    diffusion = (DiffusionField.rotated_anisotropic(0.5, (1.0, 30.0)) if d == 2
                 else DiffusionField.constant(2.0, 1))
    system = assemble_system(mesh, elem, diffusion, policy)
    stiffness, incidence, volumes, free = _old_system_parts(mesh, elem, diffusion)
    assert _same_bytes(system.stiffness, stiffness)
    assert _same_bytes(system.patch_incidence, incidence)
    for new, old in [(system.patch_volumes, volumes), (system.dof_map, free)]:
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
    assert _same_bytes(system.mass, _old_construction(mesh, elem, elem.ref_mass_matrix, free))
    if policy is CONSISTENT:
        assert system.mass is system.surrogate_mass
        return
    old = _old_construction(mesh, elem, surrogate_reference_matrix(elem, policy), free)
    new = system.surrogate_mass
    assert _is_diagonal(new) and new.nnz == old.nnz == system.n_dofs
    assert new.indices.dtype == new.indptr.dtype == np.int32
    np.testing.assert_array_equal(new.indices, old.indices)
    np.testing.assert_array_equal(new.indptr, old.indptr)
    # bincount sums each DOF's |K| ref_ii in another order than the COO sum
    assert np.max(np.abs(new.data - old.data) / old.data) <= 4.5e-16


def test_lazy_mass_is_built_by_assemble_mass(monkeypatch):
    """The consistent mass of a diagonal-surrogate system is assemble_mass's, once."""
    system = assemble_system(uniform_interval(6), build_reference_element(1, 2), identity(1),
                             HRZ_DIAGONAL)
    build, policies = assembly.assemble_mass, []

    def counted(mesh, elem, policy, *args):
        policies.append(policy)
        return build(mesh, elem, policy, *args)

    monkeypatch.setattr(assembly, "assemble_mass", counted)
    assert system.mass is system.mass
    assert policies == [CONSISTENT]


def test_orphan_dof_reported_before_the_dirichlet_set():
    """A mesh with an unused vertex and no Dirichlet facet fails on the unused
    vertex: validate_mesh reports it before the missing Dirichlet facet."""
    base = uniform_interval(3)
    mesh = SimplicialMesh(1, np.vstack([base.vertices, [[2.0]]]), base.elements,
                          base.boundary_facets, ("N", "N"))
    with pytest.raises(MeshStructureError, match="vertex 4 belongs to no element"):
        assemble_system(mesh, build_reference_element(1, 1), identity(1))
