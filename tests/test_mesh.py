import itertools
import math

import numpy as np
import pytest

from rkstab.mesh import (
    DIRICHLET,
    DegenerateElementError,
    MeshFormatError,
    MeshSpec,
    MeshStructureError,
    SimplicialMesh,
    build_affine_maps,
    build_patches,
    _grid_triangulation,
    generate_mesh,
    number_dofs,
    random_perturbed,
    read_mesh,
    stretched,
    structured_triangular,
    uniform_interval,
    validate_mesh,
    write_mesh,
)
from rkstab.reference import build_reference_element


def physical_node_positions(mesh, elem, geometry):
    """Physical coordinates of every (element, local node) pair."""
    return geometry.map_points(elem.nodes)


def patch_elements(incidence, dof):
    """Elements in one DOF's patch: the column indices of its incidence row."""
    return incidence.indices[incidence.indptr[dof]:incidence.indptr[dof + 1]]


def test_uniform_interval_basic():
    mesh = uniform_interval(4)
    assert mesh.n_elements == 4
    assert mesh.n_vertices == 5
    geometry = build_affine_maps(mesh)
    assert all(abs(v - 0.25) < 1e-15 for v in geometry.volume)
    assert all(abs(j - 0.25) < 1e-15 for j in geometry.jacobian[:, 0, 0])


def test_two_element_interval_maps():
    mesh = uniform_interval(2)
    geometry = build_affine_maps(mesh)
    for jac, volume in zip(geometry.jacobian, geometry.volume):
        assert abs(jac[0, 0] - 0.5) < 1e-15
        assert abs(volume - 0.5) < 1e-15


def test_reference_triangle_identity_map():
    mesh = SimplicialMesh(
        2,
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [1, 2], [0, 2]]),
        ("D", "D", "D"),
    )
    geometry = build_affine_maps(mesh)
    (jac,), (volume,) = geometry.jacobian, geometry.volume
    np.testing.assert_allclose(jac, np.eye(2), atol=1e-15)
    assert abs(volume - 0.5) < 1e-15


def test_affine_map_reproduces_vertices():
    mesh = random_perturbed(4, 3, 0.05, seed=7)
    geometry = build_affine_maps(mesh)
    ref_vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mapped = geometry.map_points(ref_vertices)
    for e in range(mesh.n_elements):
        np.testing.assert_allclose(mapped[e], mesh.vertices[mesh.elements[e]], atol=1e-13)
        np.testing.assert_allclose(
            geometry.inv_jacobian[e] @ geometry.jacobian[e], np.eye(2), atol=1e-13
        )


def test_degenerate_element_rejected():
    mesh = SimplicialMesh(
        2,
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        np.array([[0, 1, 2]]),
        np.array([[0, 1]]),
        ("D",),
    )
    with pytest.raises(DegenerateElementError, match="element 0"):
        build_affine_maps(mesh)
    for _ in range(2):  # the geometry raises on every read; no failure is cached
        with pytest.raises(DegenerateElementError, match="element 0"):
            mesh.geometry


def test_mesh_holds_one_geometry_over_read_only_arrays():
    """The mesh builds its affine maps once, and its arrays refuse in-place
    writes, so those maps cannot go stale."""
    mesh = random_perturbed(3, 2, 0.05, seed=2)
    geometry = mesh.geometry
    assert mesh.geometry is geometry
    built = build_affine_maps(mesh)
    for name in ("jacobian", "inv_jacobian", "volume", "offset"):
        assert getattr(geometry, name).tobytes() == getattr(built, name).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        mesh.vertices[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        mesh.vertices += 1.0
    with pytest.raises(ValueError, match="read-only"):
        mesh.elements[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        geometry.jacobian[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        geometry.inv_jacobian[..., 1, 0] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        geometry.volume[:] *= 2
    with pytest.raises(ValueError, match="read-only"):
        geometry.offset[0] = 0.0
    for name in ("jacobian", "inv_jacobian", "volume", "offset"):
        assert getattr(geometry, name).tobytes() == getattr(built, name).tobytes()


@pytest.mark.parametrize("mesh", [uniform_interval(5), random_perturbed(4, 3, 0.05, seed=1)])
def test_inverse_jacobian_entries_are_contiguous_over_elements(mesh):
    """inv_jacobian is one (d, d, E) block behind its (E, d, d) view, so each
    entry array, the operand of every closed-form product, is contiguous."""
    inv = mesh.geometry.inv_jacobian
    d = mesh.dimension
    assert inv.shape == (mesh.n_elements, d, d)
    for i, j in itertools.product(range(d), repeat=2):
        assert inv[..., i, j].flags.c_contiguous


def test_total_volume_matches_domain():
    cases = [
        (uniform_interval(7), 1.0),
        (structured_triangular(3, 5), 1.0),
        (stretched(4, 4, 10.0), 0.1),
        (random_perturbed(5, 5, 0.04, seed=3), 1.0),
    ]
    for mesh, measure in cases:
        total = sum(build_affine_maps(mesh).volume)
        assert abs(total - measure) < 1e-12 * measure


def test_structured_counts_and_areas():
    mesh = structured_triangular(2, 2)
    assert mesh.n_elements == 8
    geometry = build_affine_maps(mesh)
    for volume in geometry.volume:
        assert abs(volume - 1 / 8) < 1e-15


def test_stretched_aspect_ratio():
    mesh = stretched(4, 4, 100.0)
    for element in mesh.elements:
        coords = mesh.vertices[element]
        width = coords[:, 0].max() - coords[:, 0].min()
        height = coords[:, 1].max() - coords[:, 1].min()
        assert abs(width / height - 100.0) < 1e-9 * 100


def test_generator_validation_errors():
    with pytest.raises(ValueError):
        uniform_interval(0)
    with pytest.raises(ValueError):
        structured_triangular(0, 3)
    with pytest.raises(ValueError):
        random_perturbed(4, 4, 0.125, seed=0)  # amplitude = h/2, twice the limit
    with pytest.raises(ValueError, match="seed=-1"):  # the spec's check, not default_rng's
        random_perturbed(4, 4, 0.01, seed=-1)
    with pytest.raises(ValueError):
        generate_mesh(MeshSpec(kind="hexes"))


def loop_grid_triangulation(nx, ny, width, height, pattern):
    """Cell-by-cell oracle for the vectorised structured triangulation."""
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    vertices = np.array([[xs[i], ys[j]] for j in range(ny + 1) for i in range(nx + 1)])
    elements = []
    for j in range(ny):
        for i in range(nx):
            sw, se = vid(i, j), vid(i + 1, j)
            nw, ne = vid(i, j + 1), vid(i + 1, j + 1)
            if pattern == "alternating" and (i + j) % 2 == 1:
                elements += [(sw, se, nw), (se, ne, nw)]
            else:
                elements += [(sw, se, ne), (sw, ne, nw)]
    facets = []
    for i in range(nx):
        facets += [(vid(i, 0), vid(i + 1, 0)), (vid(i, ny), vid(i + 1, ny))]
    for j in range(ny):
        facets += [(vid(0, j), vid(0, j + 1)), (vid(nx, j), vid(nx, j + 1))]
    return (vertices, np.array(elements, dtype=np.int64), np.array(facets, dtype=np.int64),
            tuple(DIRICHLET for _ in facets))


@pytest.mark.parametrize("pattern", ["diagonal", "alternating"])
@pytest.mark.parametrize("nx,ny,height", [
    (1, 1, 1.0), (3, 3, 1.0), (4, 1, 1.0), (1, 5, 1.0), (5, 2, 1.0), (2, 7, 1.0),
    (6, 6, 1e-3), (4, 3, 1.0 / 30.0),
])
def test_grid_triangulation_matches_loop_oracle(nx, ny, height, pattern):
    got = _grid_triangulation(nx, ny, 1.0, height, pattern)
    want = loop_grid_triangulation(nx, ny, 1.0, height, pattern)
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got[3] == want[3]


def test_random_perturbed_deterministic():
    a = random_perturbed(6, 6, 0.04, seed=11)
    b = random_perturbed(6, 6, 0.04, seed=11)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    c = random_perturbed(6, 6, 0.04, seed=12)
    assert not np.array_equal(a.vertices, c.vertices)


def test_random_perturbed_keeps_boundary():
    mesh = random_perturbed(5, 5, 0.04, seed=2)
    on_boundary = (
        np.isclose(mesh.vertices[:, 0], 0)
        | np.isclose(mesh.vertices[:, 0], 1)
        | np.isclose(mesh.vertices[:, 1], 0)
        | np.isclose(mesh.vertices[:, 1], 1)
    )
    base = structured_triangular(5, 5)
    np.testing.assert_array_equal(mesh.vertices[on_boundary], base.vertices[on_boundary])


def min_corner_determinant(hx, hy, amplitude):
    """Smallest det F' of a diagonal-pattern cell's triangles, vertices moved
    to the 64 corners of the +-amplitude box (det F' is multilinear in them)."""
    cell = np.array([[0.0, 0.0], [hx, 0.0], [hx, hy], [0.0, hy]])
    worst = np.inf
    for tri in ([0, 1, 2], [0, 2, 3]):
        for signs in itertools.product((-1.0, 1.0), repeat=6):
            v = cell[tri] + amplitude * np.reshape(signs, (3, 2))
            e1, e2 = v[1] - v[0], v[2] - v[0]
            worst = min(worst, e1[0] * e2[1] - e1[1] * e2[0])
    return worst


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 2), (1, 4), (5, 5), (6, 3)])
def test_random_perturbed_limit_is_where_a_corner_inverts(nx, ny):
    hx, hy = 1.0 / nx, 1.0 / ny
    limit = 1.0 / (2.0 * (nx + ny))
    assert math.isclose(limit, hx * hy / (2.0 * (hx + hy)), rel_tol=1e-15)
    assert abs(min_corner_determinant(hx, hy, limit)) <= 1e-14 * hx * hy
    assert min_corner_determinant(hx, hy, 1.001 * limit) < 0
    assert min_corner_determinant(hx, hy, 0.999 * limit) > 0
    with pytest.raises(ValueError):
        random_perturbed(nx, ny, limit, seed=0)
    random_perturbed(nx, ny, np.nextafter(limit, 0.0), seed=0)


@pytest.mark.parametrize("nx,ny", [(5, 5), (6, 3)])
def test_random_perturbed_below_limit_never_inverts(nx, ny):
    # At 0.3 h on a 5x5 grid, the old limit of h/2 let 2 of these seeds
    # through with a negatively oriented element.
    amplitude = np.nextafter(1.0 / (2.0 * (nx + ny)), 0.0)
    for seed in range(200):
        geometry = build_affine_maps(random_perturbed(nx, ny, amplitude, seed=seed))
        assert np.all(geometry.volume > 0)


@pytest.mark.parametrize("m,expected", [(1, 9), (2, 25), (3, 49)])
def test_dof_counts_structured(m, expected):
    mesh = structured_triangular(2, 2)
    elem = build_reference_element(2, m)
    numbering = number_dofs(mesh, elem)
    assert numbering.n_dofs == expected


@pytest.mark.parametrize("d,m,gen", [
    (1, 2, lambda: uniform_interval(5)),
    (1, 3, lambda: uniform_interval(4)),
    (2, 2, lambda: structured_triangular(3, 2)),
    (2, 3, lambda: random_perturbed(3, 3, 0.05, seed=5)),
])
def test_dof_numbering_geometrically_consistent(d, m, gen):
    """Every global DOF must correspond to exactly one physical node."""
    mesh = gen()
    elem = build_reference_element(d, m)
    numbering = number_dofs(mesh, elem)
    positions = physical_node_positions(mesh, elem, build_affine_maps(mesh))
    seen = {}
    for e in range(mesh.n_elements):
        for loc in range(elem.node_count):
            dof = numbering.element_dofs[e, loc]
            pt = positions[e, loc]
            if dof in seen:
                np.testing.assert_allclose(seen[dof], pt, atol=1e-12)
            else:
                seen[dof] = pt
    assert len(seen) == numbering.n_dofs


def test_dirichlet_dofs_1d():
    mesh = uniform_interval(4)
    elem = build_reference_element(1, 1)
    numbering = number_dofs(mesh, elem)
    assert numbering.dirichlet_dofs.tolist() == [0, 4]


def test_dirichlet_dofs_include_boundary_edge_nodes():
    mesh = structured_triangular(2, 2)
    elem = build_reference_element(2, 2)
    numbering = number_dofs(mesh, elem)
    # 8 boundary vertices + 8 boundary mid-edge nodes
    assert numbering.dirichlet_dofs.size == 16
    positions = physical_node_positions(mesh, elem, build_affine_maps(mesh))
    dof_position = {}
    for e in range(mesh.n_elements):
        for loc in range(elem.node_count):
            dof_position[numbering.element_dofs[e, loc]] = positions[e, loc]
    for dof in numbering.dirichlet_dofs:
        x, y = dof_position[dof]
        assert min(x, y, 1 - x, 1 - y) < 1e-12


def test_patches_1d_interior_vertex():
    mesh = uniform_interval(4)
    elem = build_reference_element(1, 1)
    incidence, volumes = build_patches(mesh, elem)
    for vertex in (1, 2, 3):
        assert len(patch_elements(incidence, vertex)) == 2
        assert abs(volumes[vertex] - 0.5) < 1e-15
    assert len(patch_elements(incidence, 0)) == 1


def test_patches_2d_interior_vertex_has_six_triangles():
    mesh = structured_triangular(4, 4)
    elem = build_reference_element(2, 1)
    incidence, volumes = build_patches(mesh, elem)
    geometry = build_affine_maps(mesh)
    interior = [
        i
        for i, v in enumerate(mesh.vertices)
        if min(v[0], v[1], 1 - v[0], 1 - v[1]) > 1e-12
    ]
    for i in interior:
        assert len(patch_elements(incidence, i)) == 6
        expected = sum(geometry.volume[e] for e in patch_elements(incidence, i))
        assert volumes[i] == expected


def test_patches_p2_edge_dofs():
    mesh = structured_triangular(2, 2)
    elem = build_reference_element(2, 2)
    numbering = number_dofs(mesh, elem)
    incidence, _ = build_patches(mesh, elem)
    edge_dofs = range(mesh.n_vertices, mesh.n_vertices + numbering.n_edge_dofs)
    sizes = {len(patch_elements(incidence, dof)) for dof in edge_dofs}
    assert sizes == {1, 2}  # boundary edges vs interior edges


def test_patch_volume_identity_p1():
    """Vertex patch volumes sum to (d+1) times the mesh volume for P1."""
    mesh = structured_triangular(3, 3)
    elem = build_reference_element(2, 1)
    _, volumes = build_patches(mesh, elem)
    total = sum(build_affine_maps(mesh).volume)
    assert abs(volumes.sum() - 3 * total) < 1e-12


def test_orphan_dof_detected():
    mesh = SimplicialMesh(
        1,
        np.array([[0.0], [0.5], [1.0], [2.0]]),  # vertex 3 unused
        np.array([[0, 1], [1, 2]]),
        np.array([[0], [2]]),
        ("D", "D"),
    )
    elem = build_reference_element(1, 1)
    with pytest.raises(MeshStructureError, match="vertex 3 belongs to no element"):
        build_patches(mesh, elem)


@pytest.mark.parametrize("make", [
    lambda: uniform_interval(4),
    lambda: structured_triangular(3, 2),
    lambda: random_perturbed(4, 4, 0.06, seed=9),
])
def test_mesh_file_round_trip(tmp_path, make):
    mesh = make()
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    again = read_mesh(path)
    assert again.dimension == mesh.dimension
    np.testing.assert_array_equal(again.vertices, mesh.vertices)
    np.testing.assert_array_equal(again.elements, mesh.elements)
    np.testing.assert_array_equal(again.boundary_facets, mesh.boundary_facets)
    assert again.boundary_markers == mesh.boundary_markers


def test_read_mesh_reports_line_numbers(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("DIMENSION 1\nVERTICES 2\n0\nnot-a-number\nELEMENTS 1\n0 1\nBOUNDARY 1\n0 D\n")
    with pytest.raises(MeshFormatError, match="line 4"):
        read_mesh(path)


@pytest.mark.parametrize("text, match", [
    ("DIMENSION 1\nVERTICES -1\n0\n1\nELEMENTS 1\n0 1\nBOUNDARY 1\n0 D\n",
     "line 2: VERTICES count"),
    # a count above the lines left is rejected before any allocation
    ("DIMENSION 1\nVERTICES 2\n0\n1\nELEMENTS 100000000000\n0 1\nBOUNDARY 1\n0 D\n",
     "line 5: ELEMENTS count"),
    ("DIMENSION 2\nVERTICES 3\n0 0\n1 nan\n0 1\nELEMENTS 1\n0 1 2\n"
     "BOUNDARY 3\n0 1 D\n1 2 D\n0 2 D\n", "line 4: non-finite coordinate"),
], ids=["negative-count", "count-above-lines-left", "nan-coordinate"])
def test_read_mesh_rejects_bad_counts_and_coordinates(tmp_path, text, match):
    path = tmp_path / "broken.txt"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=match):
        read_mesh(path)


def test_read_mesh_bad_vertex_index(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("DIMENSION 1\nVERTICES 2\n0\n1\nELEMENTS 1\n0 5\nBOUNDARY 1\n0 D\n")
    with pytest.raises(MeshStructureError, match="element 0"):
        read_mesh(path)


def test_read_mesh_repairs_orientation(tmp_path):
    path = tmp_path / "flipped.txt"
    path.write_text(
        "DIMENSION 2\nVERTICES 3\n0 0\n1 0\n0 1\n"
        "ELEMENTS 1\n0 2 1\n"  # clockwise
        "BOUNDARY 3\n0 1 D\n1 2 D\n0 2 D\n"
    )
    with pytest.warns(UserWarning, match="orient"):
        mesh = read_mesh(path)
    geometry = build_affine_maps(mesh)
    assert geometry.volume[0] > 0


def test_read_mesh_comments_and_missing_marker(tmp_path):
    path = tmp_path / "commented.txt"
    path.write_text(
        "# a comment\nDIMENSION 1\n# another\nVERTICES 2\n0\n1\n"
        "ELEMENTS 1\n0 1\nBOUNDARY 1\n0 X\n"
    )
    with pytest.raises(MeshFormatError, match="D|N"):
        read_mesh(path)


# A valid 1D file, split so that each bad file below changes one part of it.
_HEAD_1D = "DIMENSION 1\nVERTICES 3\n0\n0.5\n1\n"
_ELEMENTS_1D = "ELEMENTS 2\n0 1\n1 2\n"
_BOUNDARY_1D = "BOUNDARY 2\n0 D\n2 D\n"


@pytest.mark.parametrize("text, error, message", [
    (_HEAD_1D.replace("0.5", "0.5 0.25") + _ELEMENTS_1D + _BOUNDARY_1D,
     MeshFormatError, "line 4: expected 1 coordinates: '0.5 0.25'"),
    (_HEAD_1D + "ELEMENTS 2\n0 1\n1 2 0\n" + _BOUNDARY_1D,
     MeshFormatError, "line 8: expected 2 vertex indices: '1 2 0'"),
    (_HEAD_1D + _ELEMENTS_1D + "BOUNDARY 2\n0 D\n2\n",
     MeshFormatError, "line 11: expected 1 indices and a D|N marker: '2'"),
    (_HEAD_1D + "ELEMENTS 2\n0 1\n1 two\n" + _BOUNDARY_1D,
     MeshFormatError, "line 8: bad vertex index: '1 two'"),
    (_HEAD_1D + "ELEMENTS 2\n0 99999999999999999999\n1 2\n" + _BOUNDARY_1D,
     MeshFormatError, "line 7: bad vertex index: '0 99999999999999999999'"),
    (_HEAD_1D + _ELEMENTS_1D + "BOUNDARY 2\n0 D\n2.0 D\n",
     MeshFormatError, "line 11: bad facet index: '2.0 D'"),
    (_HEAD_1D + _ELEMENTS_1D + "BOUNDARY 2\n3 D\n2 D\n",
     MeshStructureError, "boundary facet 0 references vertex outside [0, 3)"),
    (_HEAD_1D + _ELEMENTS_1D + _BOUNDARY_1D + "0 N\n",
     MeshFormatError, "line 12: trailing content: '0 N'"),
    (_HEAD_1D + _ELEMENTS_1D, MeshFormatError, "unexpected end of file, expected BOUNDARY"),
    ("DIMENSION 3\n", MeshFormatError, "unsupported mesh dimension 3"),
    ("DIMENSION 1\nVERTICES three\n", MeshFormatError, "line 2: bad VERTICES count: 'VERTICES three'"),
    ("DIMENSION 1 2\n", MeshFormatError, "line 1: expected 'DIMENSION <count>': 'DIMENSION 1 2'"),
], ids=["vertex-words", "element-words", "facet-words", "vertex-index", "index-beyond-int64",
        "facet-index", "facet-range", "trailing", "no-boundary", "dimension-3", "count-word",
        "header-words"])
def test_read_mesh_errors_name_their_line(tmp_path, text, error, message):
    path = tmp_path / "broken.txt"
    path.write_text(text)
    with pytest.raises(error) as info:
        read_mesh(path)
    assert type(info.value) is error
    assert str(info.value) == message


def test_validate_clean_meshes():
    assert validate_mesh(uniform_interval(5)) == []
    assert validate_mesh(structured_triangular(3, 3)) == []
    assert validate_mesh(stretched(2, 2, 10)) == []


def test_validate_flags_missing_dirichlet():
    base = uniform_interval(3)
    mesh = SimplicialMesh(
        1, base.vertices, base.elements, base.boundary_facets, ("N", "N")
    )
    problems = validate_mesh(mesh)
    assert any("Dirichlet" in p for p in problems)


def test_validate_flags_unused_vertices():
    base = structured_triangular(2, 2)
    vertices = np.vstack([base.vertices, [[5.0, 5.0], [6.0, 6.0]]])
    mesh = SimplicialMesh(2, vertices, base.elements, base.boundary_facets,
                          base.boundary_markers)
    assert validate_mesh(mesh) == ["vertex 9 belongs to no element",
                                   "vertex 10 belongs to no element"]


def test_validate_flags_unmarked_boundary():
    base = structured_triangular(2, 2)
    mesh = SimplicialMesh(
        2,
        base.vertices,
        base.elements,
        base.boundary_facets[:-1],
        base.boundary_markers[:-1],
    )
    problems = validate_mesh(mesh)
    assert any("no marker" in p for p in problems)


def test_validate_flags_interior_facet_marked():
    base = structured_triangular(2, 2)
    # the diagonal of the first cell is interior
    facets = np.vstack([base.boundary_facets, [[0, 4]]])
    markers = base.boundary_markers + ("N",)
    mesh = SimplicialMesh(2, base.vertices, base.elements, facets, markers)
    problems = validate_mesh(mesh)
    assert any("interior" in p for p in problems)


def test_facet_marked_both_dirichlet_and_neumann_is_a_problem():
    """A boundary facet listed once as D and once as N states no one boundary
    condition: validate_mesh reports it and number_dofs rejects the mesh."""
    base = structured_triangular(2, 2)
    facets = np.vstack([base.boundary_facets, [[1, 0]], [[0, 1]]])
    mesh = SimplicialMesh(2, base.vertices, base.elements, facets,
                          base.boundary_markers + ("N", "D"))
    assert validate_mesh(mesh) == ["boundary facet (0, 1) is marked both D and N"]
    with pytest.raises(MeshStructureError, match=r"^boundary facet \(0, 1\) is marked both"):
        number_dofs(mesh, build_reference_element(2, 1))
    # listing a facet twice with one marker states one condition
    twice = SimplicialMesh(2, base.vertices, base.elements, facets,
                           base.boundary_markers + ("D", "D"))
    assert validate_mesh(twice) == []


def test_validate_reports_every_facet_problem_in_order():
    """Over-shared edges in first-seen order, then the boundary list's problems.

    Edge (1, 4) is met before (0, 4) in the first element, so it is reported
    first although its sorted tuple is larger.
    """
    base = structured_triangular(2, 2)
    vertices = np.vstack([base.vertices, [[0.25, 0.75], [0.6, 0.25]]])
    elements = np.vstack([base.elements, [[0, 4, 9], [1, 10, 4]]])
    # (0, 1) left out, interior (4, 5) listed, (2, 99) on no element
    facets = np.vstack([base.boundary_facets[1:], [[5, 4]], [[2, 99]]])
    markers = base.boundary_markers[1:] + ("N", "N")
    mesh = SimplicialMesh(2, vertices, elements, facets, markers)
    assert validate_mesh(mesh) == [
        "facet (1, 4) shared by 3 elements (non-conforming)",
        "facet (0, 4) shared by 3 elements (non-conforming)",
        "boundary facet (2, 99) does not belong to any element",
        "boundary facet (4, 5) is interior (shared by two elements)",
        "boundary facet (0, 1) has no marker (defaults require listing)",
        "boundary facet (0, 9) has no marker (defaults require listing)",
        "boundary facet (1, 10) has no marker (defaults require listing)",
        "boundary facet (4, 9) has no marker (defaults require listing)",
        "boundary facet (4, 10) has no marker (defaults require listing)",
    ]


def test_validate_1d_over_shared_vertex_and_unknown_facet():
    base = uniform_interval(3)
    elements = np.vstack([base.elements, [[1, 2]]])
    facets = np.vstack([base.boundary_facets, [[7]]])
    mesh = SimplicialMesh(1, base.vertices, elements, facets, base.boundary_markers + ("N",))
    assert validate_mesh(mesh) == [
        "facet (1,) shared by 3 elements (non-conforming)",
        "facet (2,) shared by 3 elements (non-conforming)",
        "boundary facet (7,) does not belong to any element",
    ]


def test_generate_mesh_dispatch():
    spec = MeshSpec(kind="structured_triangular", nx=3, ny=2)
    mesh = generate_mesh(spec)
    assert mesh.n_elements == 12
    spec1d = MeshSpec(kind="uniform_interval", n=6)
    assert generate_mesh(spec1d).n_elements == 6


# ---------------------------------------------------------------------------
# per-element oracles for the array geometry, numbering and patch incidence


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def oracle_number_dofs(mesh, elem):
    """Element-by-element numbering: vertices, edges in sorted order, interiors."""
    d, m, nv = mesh.dimension, elem.order, mesh.n_vertices
    use_edges = d == 2 and m >= 2
    pairs = sorted({
        tuple(sorted((int(a), int(b))))
        for element in mesh.elements
        for a, b in itertools.combinations(element, 2)
    }) if use_edges else []
    edge_index = {pair: k for k, pair in enumerate(pairs)}
    interior = [
        loc for loc, alpha in enumerate(elem.multi_indices)
        if np.count_nonzero(alpha) > (2 if use_edges else 1)
    ]
    base = nv + len(pairs) * (m - 1)
    dofs = np.empty((mesh.n_elements, elem.node_count), dtype=np.int64)
    for e, element in enumerate(mesh.elements):
        for loc, alpha in enumerate(elem.multi_indices):
            support = np.nonzero(alpha)[0]
            if support.size == 1:
                dofs[e, loc] = element[support[0]]
            elif loc in interior:
                dofs[e, loc] = base + e * len(interior) + interior.index(loc)
            else:
                k1, k2 = support
                va, vb = int(element[k1]), int(element[k2])
                slot = alpha[k2] - 1 if va < vb else m - alpha[k2] - 1
                dofs[e, loc] = nv + edge_index[min(va, vb), max(va, vb)] * (m - 1) + slot
    dirichlet = set()
    for facet, marker in zip(mesh.boundary_facets, mesh.boundary_markers):
        if marker != "D":
            continue
        dirichlet.update(int(v) for v in facet)
        if use_edges:
            k = edge_index[tuple(sorted(int(v) for v in facet))]
            dirichlet.update(range(nv + k * (m - 1), nv + (k + 1) * (m - 1)))
    return dofs, base + mesh.n_elements * len(interior), sorted(dirichlet)


def round_trip(mesh, tmp_path):
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    return read_mesh(path)


ORACLE_MESHES = {
    "uniform_interval": lambda tmp: uniform_interval(5),
    "structured_diagonal": lambda tmp: structured_triangular(3, 2),
    "structured_alternating": lambda tmp: structured_triangular(3, 3, "alternating"),
    "stretched": lambda tmp: stretched(3, 3, 20.0),
    "random_perturbed": lambda tmp: random_perturbed(4, 3, 0.04, seed=8),
    "read_mesh": lambda tmp: round_trip(random_perturbed(3, 3, 0.05, seed=4), tmp),
}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(ORACLE_MESHES))
def test_vectorised_geometry_matches_element_oracle(tmp_path, kind, m):
    mesh = ORACLE_MESHES[kind](tmp_path)
    d = mesh.dimension
    elem = build_reference_element(d, m)

    numbering = number_dofs(mesh, elem)
    dofs, n_dofs, dirichlet = oracle_number_dofs(mesh, elem)
    assert numbering.n_dofs == n_dofs
    np.testing.assert_array_equal(numbering.element_dofs, dofs)
    assert numbering.element_dofs.dtype == np.int64
    assert numbering.dirichlet_dofs.tolist() == dirichlet

    geometry = build_affine_maps(mesh)
    assert geometry.jacobian.shape == (mesh.n_elements, d, d)
    for e, element in enumerate(mesh.elements):
        coords = mesh.vertices[element]
        jac = (coords[1:] - coords[0]).T
        assert same_bits(geometry.jacobian[e], jac)
        assert same_bits(geometry.inv_jacobian[e], np.linalg.inv(jac))
        assert same_bits(geometry.volume[e], np.linalg.det(jac) / math.factorial(d))
        assert same_bits(geometry.offset[e], coords[0])

    incidence, volumes = build_patches(mesh, elem)
    assert incidence.shape == (n_dofs, mesh.n_elements)
    assert incidence.has_sorted_indices
    for i in range(n_dofs):
        patch = sorted({e for e in range(mesh.n_elements) if i in dofs[e]})
        assert patch_elements(incidence, i).tolist() == patch
        assert same_bits(volumes[i], sum(geometry.volume[e] for e in patch))


def triangles(elements, vertices):
    return SimplicialMesh(2, np.array(vertices, dtype=float), np.array(elements),
                          np.array([[0, 1]]), ("D",))


@pytest.mark.parametrize("elements,error,first", [
    # element 1 is collapsed, element 2 inverted: the collapse is reported
    ([[0, 1, 3], [0, 1, 2], [0, 3, 1]], DegenerateElementError, "element 1"),
    # element 1 is inverted, element 2 collapsed: the inversion is reported
    ([[0, 1, 3], [0, 3, 1], [0, 1, 2]], MeshStructureError, "element 1"),
])
def test_first_bad_element_is_named(elements, error, first):
    mesh = triangles(elements, [[0, 0], [1, 0], [2, 0], [0, 1]])
    with pytest.raises(error, match=first + r"\b"):
        build_affine_maps(mesh)


def test_dirichlet_facet_off_the_edge_set_rejected():
    base = structured_triangular(2, 2)
    facets = np.vstack([base.boundary_facets, [[0, 8]]])  # opposite corners
    mesh = SimplicialMesh(2, base.vertices, base.elements, facets,
                          base.boundary_markers + ("D",))
    with pytest.raises(MeshStructureError,
                       match=r"boundary facet \(0, 8\) does not belong to any element"):
        number_dofs(mesh, build_reference_element(2, 2))
