"""Simplicial meshes: generation, affine maps, DOF numbering, patches, file I/O.

Meshes are segments (d=1) or triangles (d=2) with positively oriented
elements and marked boundary facets.  Degrees of freedom for order-m elements
are numbered deterministically: mesh vertices first, then edge DOFs in global
edge order, then element-interior DOFs in element order.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .reference import ReferenceElement

__all__ = [
    "SimplicialMesh",
    "AffineGeometry",
    "DofNumbering",
    "MeshSpec",
    "MeshFormatError",
    "MeshStructureError",
    "DegenerateElementError",
    "build_affine_maps",
    "build_patches",
    "free_dofs",
    "number_dofs",
    "generate_mesh",
    "check_mesh_spec",
    "MESH_KINDS",
    "uniform_interval",
    "structured_triangular",
    "stretched",
    "random_perturbed",
    "read_mesh",
    "write_mesh",
    "validate_mesh",
]

DIRICHLET = "D"
NEUMANN = "N"


class MeshFormatError(ValueError):
    """Malformed mesh file (carries the offending line number)."""


class MeshStructureError(ValueError):
    """Structurally inconsistent mesh (bad indices, orphan DOFs, ...)."""


class DegenerateElementError(ValueError):
    """Element with (numerically) vanishing volume."""


@dataclass(frozen=True)
class SimplicialMesh:
    """Simplicial mesh with boundary markers.

    vertices is (n_vertices, d); elements is (n_elements, d+1) with positive
    orientation; boundary_facets is (n_facets, d) vertex tuples and
    boundary_markers the matching "D"/"N" labels.  vertices and elements are
    read-only views, so no write through the mesh leaves its geometry stale.
    """

    dimension: int
    vertices: np.ndarray
    elements: np.ndarray
    boundary_facets: np.ndarray
    boundary_markers: tuple[str, ...]
    _numberings: dict[int, DofNumbering] = field(default_factory=dict, init=False, repr=False,
                                                 compare=False)

    def __post_init__(self):
        for name in ("vertices", "elements"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @functools.cached_property
    def geometry(self) -> AffineGeometry:
        """The affine maps of the elements, built by build_affine_maps on first read.

        Every assembly and bound of this mesh reads this one copy.  A
        degenerate or inverted element raises on each read, as
        build_affine_maps does.
        """
        return build_affine_maps(self)

    def numbering(self, elem: ReferenceElement) -> DofNumbering:
        """The DOF numbering of order-elem.order elements, built by number_dofs
        on the first request for that order.

        Every assembly of this mesh at that order reads this one copy.  A
        mesh that number_dofs rejects raises on each request.
        """
        numberings = self._numberings
        if elem.order not in numberings:
            numberings[elem.order] = number_dofs(self, elem)
        return numberings[elem.order]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class AffineGeometry:
    """Affine maps from the reference simplex onto every element, as arrays.

    Element e maps reference point xi to jacobian[e] @ xi + offset[e]; the
    Jacobian columns are the edge vectors from the element's first vertex.
    Every array is read-only, so no write can change the assemblies and
    bounds that read it later.  inv_jacobian is stored component-major, as
    one contiguous (d, d, n_elements) block seen through a transposed view:
    each inv_jacobian[..., i, j] is a contiguous array over the elements.
    """

    jacobian: np.ndarray        # (n_elements, d, d)
    inv_jacobian: np.ndarray    # (n_elements, d, d)
    volume: np.ndarray          # (n_elements,)
    offset: np.ndarray          # (n_elements, d)

    def __post_init__(self):
        for name in ("jacobian", "inv_jacobian", "volume", "offset"):
            getattr(self, name).flags.writeable = False

    def map_points(self, ref_points: np.ndarray) -> np.ndarray:
        """Physical images of reference points; shape (n_elements, n_points, d)."""
        return ref_points @ self.jacobian.transpose(0, 2, 1) + self.offset[:, None, :]


@dataclass(frozen=True)
class DofNumbering:
    """Global DOF layout for one (mesh, element order) pair.

    element_dofs and dirichlet_dofs are read-only, as the mesh caches the
    numbering for every later assembly.
    """

    n_dofs: int
    element_dofs: np.ndarray          # (n_elements, eta)
    dirichlet_dofs: np.ndarray        # sorted global indices
    n_edge_dofs: int

    def __post_init__(self):
        for name in ("element_dofs", "dirichlet_dofs"):
            getattr(self, name).flags.writeable = False


@dataclass(frozen=True)
class MeshSpec:
    """Declarative description of a generated mesh (CLI/config friendly)."""

    kind: str
    n: int = 0
    nx: int = 0
    ny: int = 0
    pattern: str = "diagonal"
    ratio: float = 1.0
    amplitude: float = 0.0
    seed: int = 0


_FACTORIAL = {1: 1.0, 2: 2.0}


def _jacobians(vertices: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element Jacobians (edge vectors from the first vertex as columns) and determinants."""
    coords = vertices[elements]
    jac = (coords[:, 1:] - coords[:, :1]).transpose(0, 2, 1)
    return jac, np.linalg.det(jac)


def build_affine_maps(mesh: SimplicialMesh) -> AffineGeometry:
    """Affine maps of all elements; raises DegenerateElementError on collapse.

    The map sends reference vertex k to physical vertex k.  Volume is
    det(jacobian)/d!.  Errors name the first offending element.
    """
    d = mesh.dimension
    jac, det = _jacobians(mesh.vertices, mesh.elements)
    scale = np.linalg.norm(jac, axis=1).max(axis=1) ** d
    degenerate = np.abs(det) <= 1e-14 * scale
    bad = np.nonzero(degenerate | (det < 0))[0]
    if bad.size:
        idx = bad[0]
        if degenerate[idx]:
            raise DegenerateElementError(
                f"degenerate element {idx}: |det F'| = {abs(det[idx]):.3e}"
            )
        raise MeshStructureError(
            f"element {idx} is negatively oriented (det F' = {det[idx]:.3e})"
        )
    return AffineGeometry(
        jacobian=jac,
        inv_jacobian=np.ascontiguousarray(np.linalg.inv(jac).transpose(1, 2, 0)).transpose(2, 0, 1),
        volume=det / _FACTORIAL[d],
        offset=mesh.vertices[mesh.elements[:, 0]],
    )


# local vertex tuples of an element's facets, in validate_mesh's order; number_dofs' edges
_ELEMENT_FACETS = {1: [(0,), (1,)], 2: [(0, 1), (1, 2), (0, 2)]}


def _facet_keys(facets: np.ndarray, n_vertices: int) -> np.ndarray:
    """Keys of vertex tuples (last axis): v, or min * n_vertices + max, in sorted tuple order."""
    if facets.shape[-1] == 1:
        return facets[..., 0]
    a, b = facets[..., 0], facets[..., 1]
    return np.minimum(a, b) * n_vertices + np.maximum(a, b)


def _facet_table(mesh: SimplicialMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each element's facet keys, shape (n_elements, d + 1), then the distinct
    keys, sorted, and the number of elements that hold each."""
    n = mesh.n_vertices
    index = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64  # int32 halves the traffic
    element_keys = _facet_keys(mesh.elements.astype(index)[:, _ELEMENT_FACETS[mesh.dimension]], n)
    return element_keys, *np.unique(element_keys, return_counts=True)


def _structure_problems(mesh: SimplicialMesh, table: tuple[np.ndarray, ...]) -> list[str]:
    """Every problem validate_mesh reports after build_affine_maps', in its order."""
    d, n = mesh.dimension, mesh.n_vertices
    element_keys, keys, counts = table

    def tuple_of(key) -> tuple[int, ...]:
        return (int(key),) if d == 1 else divmod(int(key), n)

    seen = element_keys.ravel()  # in (element, local facet) order
    over_shared = dict.fromkeys(seen[np.isin(seen, keys[counts > 2])].tolist())  # first-seen order
    problems = [f"facet {tuple_of(k)} shared by {counts[np.searchsorted(keys, k)]} elements "
                "(non-conforming)" for k in over_shared]
    listed, listed_of = np.unique(np.sort(mesh.boundary_facets.astype(np.int64).reshape(-1, d),
                                          axis=1), axis=0, return_inverse=True)
    in_range = np.all((listed >= 0) & (listed < n), axis=1)
    # out-of-range facets get distinct negative keys, which match no element facet
    listed_keys = np.where(in_range, _facet_keys(listed, n), -1 - np.arange(len(listed)))
    at = np.searchsorted(keys, listed_keys)  # past the last key, a sentinel no element holds
    shared = np.where(np.append(keys, -1)[at] == listed_keys, np.append(counts, 0)[at], 0)
    is_dirichlet = np.array([mk == DIRICHLET for mk in mesh.boundary_markers], dtype=bool)
    both = np.intersect1d(listed_of[is_dirichlet], listed_of[~is_dirichlet])
    for bad, text in ((shared == 0, "does not belong to any element"),
                      (shared >= 2, "is interior (shared by two elements)"),
                      (np.isin(np.arange(len(listed)), both), "is marked both D and N")):
        problems.extend(f"boundary facet {tuple(listed[f].tolist())} {text}"
                        for f in np.nonzero(bad)[0])
    unlisted = counts == 1
    unlisted[at[shared > 0]] = False
    problems.extend(f"boundary facet {tuple_of(k)} has no marker (defaults require listing)"
                    for k in keys[unlisted])
    unused = np.bincount(mesh.elements.ravel(), minlength=n)[:n] == 0
    problems.extend(f"vertex {v} belongs to no element" for v in np.nonzero(unused)[0])
    if not is_dirichlet.any():
        problems.append("no Dirichlet facet: the Dirichlet boundary must have positive measure")
    return problems


def number_dofs(mesh: SimplicialMesh, elem: ReferenceElement) -> DofNumbering:
    """Deterministic global DOF numbering for order-m Lagrange elements.

    Vertex DOFs coincide with vertex indices.  For m >= 2 in 2D, each global
    edge contributes m-1 DOFs ordered from its lower-indexed vertex; remaining
    nodes are element-interior and numbered in element order.  In 1D all
    non-vertex nodes are element-interior.  Edges are validate_mesh's facets, and
    its first problem past the geometry raises MeshStructureError.
    """
    d, m = mesh.dimension, elem.order
    n_vertices, n_elements = mesh.n_vertices, mesh.n_elements
    elements = mesh.elements
    element_keys, edge_keys, _ = table = _facet_table(mesh)
    problems = _structure_problems(mesh, table)
    if problems:
        raise MeshStructureError(problems[0])
    use_edges = d == 2 and m >= 2  # global edges: the table's facets, in key order
    n_edge_dofs = edge_keys.size * (m - 1) if use_edges else 0

    element_dofs = np.empty((n_elements, elem.node_count), dtype=np.int64)
    interior_locals = []
    for loc, alpha in enumerate(elem.multi_indices):
        support = np.nonzero(alpha)[0]
        if support.size == 1:
            element_dofs[:, loc] = elements[:, support[0]]
        elif support.size == 2 and use_edges:
            k1, k2 = int(support[0]), int(support[1])
            a2 = int(alpha[k2])
            # the node sits a2/m of the way from local vertex k1 to k2
            slot = np.where(elements[:, k1] < elements[:, k2], a2 - 1, m - a2 - 1)
            edge = np.searchsorted(edge_keys, element_keys[:, _ELEMENT_FACETS[2].index((k1, k2))])
            element_dofs[:, loc] = n_vertices + edge * (m - 1) + slot
        else:
            interior_locals.append(loc)
    n_interior_per_elem = len(interior_locals)
    interior_base = n_vertices + n_edge_dofs
    element_dofs[:, interior_locals] = interior_base + np.arange(
        n_elements * n_interior_per_elem
    ).reshape(n_elements, n_interior_per_elem)
    n_dofs = interior_base + n_elements * n_interior_per_elem

    is_dirichlet = np.array([mk == DIRICHLET for mk in mesh.boundary_markers], dtype=bool)
    facets = mesh.boundary_facets.astype(np.int64).reshape(-1, d)[is_dirichlet]
    dirichlet = [facets.ravel()]
    if use_edges:
        edge = np.searchsorted(edge_keys, _facet_keys(facets, n_vertices))
        dirichlet.append((n_vertices + edge[:, None] * (m - 1) + np.arange(m - 1)).ravel())
    return DofNumbering(
        n_dofs=n_dofs,
        element_dofs=element_dofs,
        dirichlet_dofs=np.unique(np.concatenate(dirichlet)),
        n_edge_dofs=n_edge_dofs,
    )


def free_dofs(numbering: DofNumbering, order: int) -> np.ndarray:
    """The DOFs off the Dirichlet boundary of an order-m numbering, sorted.

    The one no-free-DOF rule: with none, MeshStructureError, which validate
    reports and every system build raises.
    """
    free = np.delete(np.arange(numbering.n_dofs), numbering.dirichlet_dofs)
    if free.size == 0:
        raise MeshStructureError(f"no free DOF at order {order}: "
                                 "every DOF lies on the Dirichlet boundary")
    return free


def build_patches(mesh: SimplicialMesh, elem: ReferenceElement) -> tuple[sp.csr_array, np.ndarray]:
    """DOF-by-element patch incidence P and the patch volumes P @ volume.

    A DOF's patch is the set of elements whose basis function it belongs to:
    row i of P holds 1.0 at those elements, in increasing element order, so
    the patch volume is the sum of their volumes in that order.  No row is
    empty, as number_dofs rejects a vertex that no element uses.
    """
    numbering = mesh.numbering(elem)
    n_elements, eta = numbering.element_dofs.shape
    # int32 indices unless the entry count needs more; scipy keeps the
    # index type of the coordinates it is given.
    index = np.int32 if n_elements * eta <= np.iinfo(np.int32).max else np.int64
    incidence = sp.csr_array(
        (
            np.ones(n_elements * eta),
            (
                numbering.element_dofs.ravel().astype(index),
                np.repeat(np.arange(n_elements, dtype=index), eta),
            ),
        ),
        shape=(numbering.n_dofs, n_elements),
    )
    incidence.sort_indices()
    return incidence, incidence @ mesh.geometry.volume


# ---------------------------------------------------------------------------
# generators


_PATTERNS = ("diagonal", "alternating")


def check_mesh_spec(spec: MeshSpec) -> None:
    """Raise ValueError if the spec's generator would reject its values.

    Every range check of the generators is here, and each generator runs
    it, so a spec that passes builds: element counts of at least 1, a known
    pattern, a positive aspect ratio, a perturbation amplitude in
    [0, 1 / (2 (nx + ny))) (see random_perturbed) and a seed of at least 0,
    which numpy's default_rng needs.  It builds nothing, so a config can be
    checked before any mesh is made.
    """
    if spec.kind not in MESH_KINDS:
        raise ValueError(f"unknown mesh kind {spec.kind!r}")
    if spec.kind == "uniform_interval":
        if not spec.n >= 1:
            raise ValueError(f"element count must be positive, got n={spec.n}")
        return
    if not (spec.nx >= 1 and spec.ny >= 1):
        raise ValueError(f"cell counts must be positive, got nx={spec.nx}, ny={spec.ny}")
    if spec.kind == "structured_triangular" and spec.pattern not in _PATTERNS:
        raise ValueError(f"unknown triangulation pattern {spec.pattern!r}")
    if spec.kind == "stretched" and not spec.ratio > 0:
        raise ValueError(f"aspect ratio must be positive, got {spec.ratio}")
    if spec.kind == "random_perturbed":
        limit = 1.0 / (2.0 * (spec.nx + spec.ny))
        if not 0 <= spec.amplitude < limit:
            raise ValueError(
                f"perturbation amplitude {spec.amplitude} must lie in [0, {limit})"
            )
        if not spec.seed >= 0:
            raise ValueError(f"perturbation seed must be at least 0, got seed={spec.seed}")


def uniform_interval(n: int) -> SimplicialMesh:
    """n equal elements on [0, 1], Dirichlet at both ends."""
    check_mesh_spec(MeshSpec("uniform_interval", n=n))
    vertices = np.linspace(0.0, 1.0, n + 1)[:, None]
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    facets = np.array([[0], [n]], dtype=np.int64)
    return SimplicialMesh(1, vertices, elements.astype(np.int64), facets, (DIRICHLET, DIRICHLET))


def _grid_triangulation(
    nx: int, ny: int, width: float, height: float, pattern: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    gx, gy = np.meshgrid(xs, ys)
    vertices = np.column_stack([gx.ravel(), gy.ravel()])
    # cells row by row; vertex (i, j) has index j * (nx + 1) + i
    j, i = divmod(np.arange(nx * ny, dtype=np.int64), nx)
    sw = j * (nx + 1) + i
    se, nw = sw + 1, sw + nx + 1
    ne = nw + 1
    flip = (pattern == "alternating") & ((i + j) % 2 == 1)
    first = np.where(flip[:, None], np.column_stack([sw, se, nw]),   # diagonal se-nw
                     np.column_stack([sw, se, ne]))                  # diagonal sw-ne
    second = np.where(flip[:, None], np.column_stack([se, ne, nw]),
                      np.column_stack([sw, ne, nw]))
    elements = np.stack([first, second], axis=1).reshape(-1, 3)
    # bottom and top edges interleaved, then left and right
    bottom = np.arange(nx, dtype=np.int64)
    top = bottom + ny * (nx + 1)
    left = np.arange(ny, dtype=np.int64) * (nx + 1)
    right = left + nx
    facets = np.concatenate([
        np.column_stack([bottom, bottom + 1, top, top + 1]).reshape(-1, 2),
        np.column_stack([left, left + nx + 1, right, right + nx + 1]).reshape(-1, 2),
    ])
    return vertices, elements, facets, (DIRICHLET,) * len(facets)


def structured_triangular(nx: int, ny: int, pattern: str = "diagonal") -> SimplicialMesh:
    """2*nx*ny triangles on the unit square, all boundary Dirichlet."""
    check_mesh_spec(MeshSpec("structured_triangular", nx=nx, ny=ny, pattern=pattern))
    v, e, f, mk = _grid_triangulation(nx, ny, 1.0, 1.0, pattern)
    return SimplicialMesh(2, v, e, f, mk)


def stretched(nx: int, ny: int, ratio: float) -> SimplicialMesh:
    """Anisotropic triangulation of [0,1] x [0,1/ratio].

    With nx == ny the cells measure hx = 1/nx by hy = hx/ratio, so every
    triangle has aspect ratio `ratio`.
    """
    check_mesh_spec(MeshSpec("stretched", nx=nx, ny=ny, ratio=ratio))
    v, e, f, mk = _grid_triangulation(nx, ny, 1.0, 1.0 / ratio, "diagonal")
    return SimplicialMesh(2, v, e, f, mk)


def random_perturbed(nx: int, ny: int, amplitude: float, seed: int) -> SimplicialMesh:
    """Structured triangulation with interior vertices jiggled by +-amplitude.

    The perturbation is uniform per coordinate and deterministic in the seed.
    amplitude must stay below hx hy / (2 (hx + hy)) = 1 / (2 (nx + ny)), a
    quarter of the edge on square cells: the Jacobian determinant of a
    triangle is multilinear in its vertex coordinates, and its minimum over
    the perturbation box, taken at a corner, is zero at that amplitude.
    Below it no element collapses or inverts.
    """
    check_mesh_spec(MeshSpec("random_perturbed", nx=nx, ny=ny, amplitude=amplitude, seed=seed))
    base = structured_triangular(nx, ny, "diagonal")
    rng = np.random.default_rng(seed)
    vertices = base.vertices.copy()
    interior = (
        (vertices[:, 0] > 1e-12)
        & (vertices[:, 0] < 1 - 1e-12)
        & (vertices[:, 1] > 1e-12)
        & (vertices[:, 1] < 1 - 1e-12)
    )
    shift = rng.uniform(-amplitude, amplitude, size=vertices.shape)
    vertices[interior] += shift[interior]
    return SimplicialMesh(2, vertices, base.elements, base.boundary_facets, base.boundary_markers)


# Each mesh kind: the dimension of its meshes, its generator, and the
# MeshSpec fields the generator takes, in argument order.
MESH_KINDS = {
    "uniform_interval": (1, uniform_interval, ("n",)),
    "structured_triangular": (2, structured_triangular, ("nx", "ny", "pattern")),
    "stretched": (2, stretched, ("nx", "ny", "ratio")),
    "random_perturbed": (2, random_perturbed, ("nx", "ny", "amplitude", "seed")),
}


def generate_mesh(spec: MeshSpec) -> SimplicialMesh:
    """Build a mesh from a declarative spec (see MeshSpec and check_mesh_spec)."""
    check_mesh_spec(spec)
    _, generator, keys = MESH_KINDS[spec.kind]
    return generator(*(getattr(spec, key) for key in keys))


# ---------------------------------------------------------------------------
# text format


def write_mesh(mesh: SimplicialMesh, path) -> None:
    """Write the plain-text mesh format (bit-exact round trips)."""
    lines = ["# simplicial mesh", f"DIMENSION {mesh.dimension}"]
    lines.append(f"VERTICES {mesh.n_vertices}")
    for v in mesh.vertices:
        lines.append(" ".join("%.17g" % x for x in v))
    lines.append(f"ELEMENTS {mesh.n_elements}")
    for e in mesh.elements:
        lines.append(" ".join(str(int(i)) for i in e))
    lines.append(f"BOUNDARY {mesh.boundary_facets.shape[0]}")
    for facet, marker in zip(mesh.boundary_facets, mesh.boundary_markers):
        lines.append(" ".join(str(int(i)) for i in facet) + f" {marker}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_error(lineno: int, words: list[str], reason: str) -> MeshFormatError:
    return MeshFormatError(f"line {lineno}: {reason}: {' '.join(words)!r}")


def read_mesh(path) -> SimplicialMesh:
    """Parse the text format written by write_mesh.

    Lines starting with '#' are comments.  Negative-orientation elements are
    repaired by swapping two vertices (with a warning); bad vertex references
    raise MeshStructureError and malformed lines raise MeshFormatError with
    their line number.
    """
    with open(path) as fh:
        tokens = [
            (lineno, line.split())
            for lineno, line in enumerate(fh, start=1)
            if line.strip() and not line.lstrip().startswith("#")
        ]
    pos = 0

    def header(keyword: str) -> int:
        """Read the 'keyword <count>' line at pos and return its count."""
        nonlocal pos
        if pos >= len(tokens):
            raise MeshFormatError(f"unexpected end of file, expected {keyword}")
        lineno, words = tokens[pos]
        if len(words) != 2 or words[0] != keyword:
            raise _parse_error(lineno, words, f"expected '{keyword} <count>'")
        try:
            count = int(words[1])
        except ValueError:
            raise _parse_error(lineno, words, f"bad {keyword} count") from None
        pos += 1
        # One line per entry: a count the remaining lines cannot hold is
        # rejected before its array is allocated.
        if keyword != "DIMENSION" and not 0 <= count <= len(tokens) - pos:
            raise _parse_error(
                lineno, words,
                f"{keyword} count must lie in [0, {len(tokens) - pos}], the lines that follow",
            )
        return count

    def section(keyword: str, width: int, entry: str, expected: str, owner: str = "",
                n_vertices: int = 0) -> tuple[np.ndarray, tuple[str, ...]]:
        """Read a section; return its (count, width) entries and D|N markers.

        Each line holds width entries, then a marker in BOUNDARY, or fails
        with reason expected.  Entries are finite coordinates or, when the
        section names an owner, indices of the n_vertices vertices.  Each
        line is checked in full before the next.
        """
        nonlocal pos
        count = header(keyword)
        lines = tokens[pos:pos + count]
        marked = keyword == "BOUNDARY"
        parse = int if owner else float
        values = np.empty((count, width), dtype=np.int64 if owner else np.float64)
        for k, (lineno, words) in enumerate(lines):
            if len(words) != width + marked or (marked and words[-1] not in (DIRICHLET, NEUMANN)):
                raise _parse_error(lineno, words, expected)
            try:
                values[k] = [parse(w) for w in words[:width]]
            except (ValueError, OverflowError):  # OverflowError: an index beyond int64
                raise _parse_error(lineno, words, f"bad {entry}") from None
            if not np.isfinite(values[k]).all():
                raise _parse_error(lineno, words, f"non-finite {entry}")
            if owner and (np.any(values[k] < 0) or np.any(values[k] >= n_vertices)):
                raise MeshStructureError(
                    f"{owner} {k} references vertex outside [0, {n_vertices})"
                )
        pos += count
        return values, tuple(words[-1] for _, words in lines) if marked else ()

    d = header("DIMENSION")
    if d not in (1, 2):
        raise MeshFormatError(f"unsupported mesh dimension {d}")
    vertices, _ = section("VERTICES", d, "coordinate", f"expected {d} coordinates")
    n = len(vertices)
    elements, _ = section("ELEMENTS", d + 1, "vertex index", f"expected {d + 1} vertex indices",
                          "element", n)
    facets, markers = section("BOUNDARY", d, "facet index",
                              f"expected {d} indices and a D|N marker", "boundary facet", n)

    if pos != len(tokens):
        lineno, words = tokens[pos]
        raise _parse_error(lineno, words, "trailing content")

    # repair negatively oriented elements
    flipped = _jacobians(vertices, elements)[1] < 0
    elements[flipped, :2] = elements[flipped, 1::-1]
    repaired = int(np.count_nonzero(flipped))
    if repaired:
        warnings.warn(
            f"repaired {repaired} negatively oriented element(s) by vertex swap",
            stacklevel=2,
        )
    return SimplicialMesh(d, vertices, elements, facets, markers)


# ---------------------------------------------------------------------------
# validation


def validate_mesh(mesh: SimplicialMesh) -> list[str]:
    """Run the structural validation pass; returns a list of problems.

    A collapsed or inverted element, then every problem for which number_dofs
    rejects a mesh: a facet held by more than two elements, a boundary list
    that is not each boundary facet once, as D or N, a vertex that no element
    uses (an orphan DOF), and no Dirichlet facet.
    """
    problems = []
    try:
        build_affine_maps(mesh)
    except (DegenerateElementError, MeshStructureError) as exc:
        problems.append(str(exc))
    return problems + _structure_problems(mesh, _facet_table(mesh))
