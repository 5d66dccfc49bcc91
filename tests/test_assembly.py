import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from rkstab.assembly import (
    CONSISTENT,
    HRZ_DIAGONAL,
    NODE_QUADRATURE,
    DiffusionField,
    NonSPDDiffusionError,
    SurrogateAxiomError,
    SurrogatePolicy,
    _is_diagonal,
    assemble_mass,
    assemble_stiffness,
    assemble_system,
    element_alignment_factor,
    l2_project,
    surrogate_reference_matrix,
)
from rkstab.mesh import (
    SimplicialMesh,
    build_affine_maps,
    number_dofs,
    random_perturbed,
    stretched,
    structured_triangular,
    uniform_interval,
)
from rkstab.reference import build_reference_element, simplex_quadrature


def single_triangle():
    return SimplicialMesh(
        2,
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [1, 2], [0, 2]]),
        ("D", "D", "D"),
    )


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
    A = assemble_stiffness(mesh, elem, identity(1)).toarray()
    h = 0.25
    assert abs(A[1, 1] - 2 / h) < 1e-12
    assert abs(A[1, 2] + 1 / h) < 1e-12
    assert abs(A[2, 1] + 1 / h) < 1e-12


def test_stiffness_single_triangle_hand_values():
    mesh = single_triangle()
    elem = build_reference_element(2, 1)
    A = assemble_stiffness(mesh, elem, identity(2)).toarray()
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    np.testing.assert_allclose(A, expected, atol=1e-14)


def test_stiffness_scales_linearly_in_diffusion():
    mesh = structured_triangular(2, 3)
    elem = build_reference_element(2, 2)
    A1 = assemble_stiffness(mesh, elem, identity(2))
    A7 = assemble_stiffness(mesh, elem, DiffusionField.constant(7.0 * np.eye(2)))
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
    A = assemble_stiffness(mesh, elem, identity(d))
    row_sums = np.asarray(A.sum(axis=1)).ravel()
    norm = sp.linalg.norm(A, np.inf)
    assert np.max(np.abs(row_sums)) < 1e-11 * norm


def test_stiffness_symmetric():
    mesh = random_perturbed(4, 4, 0.05, seed=3)
    elem = build_reference_element(2, 2)
    D = DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0))
    A = assemble_stiffness(mesh, elem, D)
    assert (A - A.T).count_nonzero() == 0


def test_m2_axiom_element_contributions():
    """Assembled surrogate equals the sum of |K| * reference blocks."""
    mesh = random_perturbed(3, 3, 0.05, seed=4)
    elem = build_reference_element(2, 2)
    numbering = number_dofs(mesh, elem)
    geometry = build_affine_maps(mesh)
    for policy in (CONSISTENT, HRZ_DIAGONAL):
        assembled, ref = assemble_mass(mesh, elem, policy, numbering, geometry)
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
    assembled, ref = assemble_mass(mesh, elem, HRZ_DIAGONAL, numbering)
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


def test_alignment_factor_1d():
    mesh = uniform_interval(8)
    factor = element_alignment_factor(build_affine_maps(mesh), identity(1))[0]
    assert abs(factor - 64.0) < 1e-12  # 1/h^2 with h = 1/8


def test_alignment_factor_flattened_triangle():
    reference = single_triangle()
    squashed = SimplicialMesh(
        2,
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.01]]),
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [1, 2], [0, 2]]),
        ("D", "D", "D"),
    )
    (f_ref,) = element_alignment_factor(build_affine_maps(reference), identity(2))
    (f_sq,) = element_alignment_factor(build_affine_maps(squashed), identity(2))
    assert abs(f_sq / f_ref - 1e4) < 1e-3 * 1e4


def test_alignment_factor_perfect_alignment():
    mesh = SimplicialMesh(
        2,
        np.array([[0.0, 0.0], [2.0, 0.0], [0.3, 0.5]]),
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [1, 2], [0, 2]]),
        ("D", "D", "D"),
    )
    geometry = build_affine_maps(mesh)
    (jac,) = geometry.jacobian
    D = DiffusionField.constant(jac @ jac.T)
    (factor,) = element_alignment_factor(geometry, D)
    assert abs(factor - 1.0) < 1e-13


def test_alignment_factor_callable_sampling():
    mesh = single_triangle()
    geometry = build_affine_maps(mesh)
    field = DiffusionField.from_callable(
        lambda x: (1.0 + x[0]) * np.eye(2), degree=1
    )
    elem = build_reference_element(2, 1)
    (factor,) = element_alignment_factor(geometry, field, elem)
    assert abs(factor - 2.0) < 1e-12  # max(1+x) = 2 at vertex (1, 0)


def matmul_alignment_oracle(geometry, diffusion, elem):
    """Per-element max of np.linalg.norm(F'^-1 D F'^-T, 2) from stacked matmuls."""
    inv = geometry.inv_jacobian
    if diffusion.is_constant:
        pulled = inv @ diffusion.matrix @ inv.transpose(0, 2, 1)
        return np.array([np.linalg.norm(m, 2) for m in pulled])
    d = elem.dimension
    needed = 2 * (elem.order - 1) + diffusion.degree
    pts = elem.quad_points if needed <= 2 * elem.order else simplex_quadrature(d, needed)[0]
    samples = diffusion.sample(geometry.map_points(np.vstack([np.zeros((1, d)), np.eye(d), pts])))
    inv = inv[:, None]
    pulled = inv @ samples @ inv.transpose(0, 1, 3, 2)
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
    geometry = build_affine_maps(mesh)
    elem = build_reference_element(mesh.dimension, order)
    factor = element_alignment_factor(geometry, diffusion, elem)
    np.testing.assert_allclose(
        factor, matmul_alignment_oracle(geometry, diffusion, elem), rtol=1e-14, atol=0
    )


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


def test_non_spd_diffusion_detected():
    mesh = structured_triangular(2, 2)
    elem = build_reference_element(2, 1)
    field = DiffusionField.from_callable(
        lambda x: np.array([[1.0, 0.0], [0.0, -1.0]]), degree=0
    )
    with pytest.raises(NonSPDDiffusionError, match="element 0, quadrature point 0"):
        assemble_stiffness(mesh, elem, field)


def test_lemma3_diagonal_bound():
    """A_ii <= C_H1 * sum over the patch of |K| * alignment(K)."""
    mesh = random_perturbed(3, 3, 0.05, seed=2)
    elem = build_reference_element(2, 2)
    D = DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0))
    from rkstab.mesh import build_patches

    numbering = number_dofs(mesh, elem)
    geometry = build_affine_maps(mesh)
    incidence, _ = build_patches(mesh, elem, numbering, geometry)
    A = assemble_stiffness(mesh, elem, D, numbering, geometry)
    align = element_alignment_factor(geometry, D)
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


def test_scalar_diffusion_requires_dimension():
    with pytest.raises(ValueError, match="dimension"):
        DiffusionField.constant(2.0)
    field = DiffusionField.constant(2.0, d=2)
    np.testing.assert_allclose(field.matrix, 2.0 * np.eye(2))
