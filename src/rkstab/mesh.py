"""Simplicial meshes: generation, affine maps, DOF numbering, patches, file I/O.

Meshes are segments (d=1) or triangles (d=2) with positively oriented
elements and marked boundary facets.  Degrees of freedom for order-m elements
are numbered deterministically: mesh vertices first, then edge DOFs in global
edge order, then element-interior DOFs in element order.
"""

from __future__ import annotations

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
    "number_dofs",
    "generate_mesh",
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
    boundary_markers the matching "D"/"N" labels.
    """

    dimension: int
    vertices: np.ndarray
    elements: np.ndarray
    boundary_facets: np.ndarray
    boundary_markers: tuple[str, ...]

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
    """

    jacobian: np.ndarray        # (n_elements, d, d)
    inv_jacobian: np.ndarray    # (n_elements, d, d)
    volume: np.ndarray          # (n_elements,)
    offset: np.ndarray          # (n_elements, d)

    def map_points(self, ref_points: np.ndarray) -> np.ndarray:
        """Physical images of reference points; shape (n_elements, n_points, d)."""
        return ref_points @ self.jacobian.transpose(0, 2, 1) + self.offset[:, None, :]


@dataclass(frozen=True)
class DofNumbering:
    """Global DOF layout for one (mesh, element order) pair."""

    n_dofs: int
    element_dofs: np.ndarray          # (n_elements, eta)
    dirichlet_dofs: np.ndarray        # sorted global indices
    n_edge_dofs: int

    @property
    def free_dofs(self) -> np.ndarray:
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.dirichlet_dofs] = False
        return np.nonzero(mask)[0]


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
        inv_jacobian=np.linalg.inv(jac),
        volume=det / _FACTORIAL[d],
        offset=mesh.vertices[mesh.elements[:, 0]],
    )


# local vertex pairs of a triangle's edges
_TRIANGLE_EDGES = [(0, 1), (0, 2), (1, 2)]


def _facet_keys(facets: np.ndarray, n_vertices: int) -> np.ndarray:
    """Integer keys of sorted vertex tuples along the last axis (a * n_vertices + b)."""
    keys = facets[..., 0]
    for column in range(1, facets.shape[-1]):
        keys = keys * n_vertices + facets[..., column]
    return keys


def number_dofs(mesh: SimplicialMesh, elem: ReferenceElement) -> DofNumbering:
    """Deterministic global DOF numbering for order-m Lagrange elements.

    Vertex DOFs coincide with vertex indices.  For m >= 2 in 2D, each global
    edge contributes m-1 DOFs ordered from its lower-indexed vertex; remaining
    nodes are element-interior and numbered in element order.  In 1D all
    non-vertex nodes are element-interior.
    """
    d, m = mesh.dimension, elem.order
    n_vertices, n_elements = mesh.n_vertices, mesh.n_elements
    elements = mesh.elements
    use_edges = d == 2 and m >= 2
    if use_edges:
        # global edges: sorted vertex pairs, numbered in lexicographic order
        keys = _facet_keys(np.sort(elements[:, _TRIANGLE_EDGES], axis=2), n_vertices)
        edge_keys, edge_of = np.unique(keys, return_inverse=True)
        edge_of = edge_of.reshape(keys.shape)
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
            edge = edge_of[:, _TRIANGLE_EDGES.index((k1, k2))]
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
        keys = _facet_keys(np.sort(facets, axis=1), n_vertices)
        edge = np.searchsorted(edge_keys, keys)
        missing = edge_keys[np.minimum(edge, edge_keys.size - 1)] != keys
        if np.any(missing):
            facet = facets[np.argmax(missing)].tolist()
            raise MeshStructureError(f"Dirichlet facet {facet} is not an element edge")
        dirichlet.append((n_vertices + edge[:, None] * (m - 1) + np.arange(m - 1)).ravel())
    return DofNumbering(
        n_dofs=n_dofs,
        element_dofs=element_dofs,
        dirichlet_dofs=np.unique(np.concatenate(dirichlet)),
        n_edge_dofs=n_edge_dofs,
    )


def build_patches(
    mesh: SimplicialMesh,
    elem: ReferenceElement,
    numbering: DofNumbering | None = None,
    geometry: AffineGeometry | None = None,
) -> tuple[sp.csr_array, np.ndarray]:
    """DOF-by-element patch incidence P and the patch volumes P @ volume.

    A DOF's patch is the set of elements whose basis function it belongs to:
    row i of P holds 1.0 at those elements, in increasing element order, so
    the patch volume is the sum of their volumes in that order.
    """
    numbering = numbering or number_dofs(mesh, elem)
    geometry = geometry or build_affine_maps(mesh)
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
    orphans = np.nonzero(np.diff(incidence.indptr) == 0)[0]
    if orphans.size:
        raise MeshStructureError(f"orphan DOF {orphans[0]}: no incident element")
    return incidence, incidence @ geometry.volume


# ---------------------------------------------------------------------------
# generators


def uniform_interval(n: int) -> SimplicialMesh:
    """n equal elements on [0, 1], Dirichlet at both ends."""
    if n < 1:
        raise ValueError(f"element count must be positive, got {n}")
    vertices = np.linspace(0.0, 1.0, n + 1)[:, None]
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    facets = np.array([[0], [n]], dtype=np.int64)
    return SimplicialMesh(1, vertices, elements.astype(np.int64), facets, (DIRICHLET, DIRICHLET))


def _grid_triangulation(
    nx: int, ny: int, width: float, height: float, pattern: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be positive, got nx={nx}, ny={ny}")
    if pattern not in ("diagonal", "alternating"):
        raise ValueError(f"unknown triangulation pattern {pattern!r}")
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
    v, e, f, mk = _grid_triangulation(nx, ny, 1.0, 1.0, pattern)
    return SimplicialMesh(2, v, e, f, mk)


def stretched(nx: int, ny: int, ratio: float) -> SimplicialMesh:
    """Anisotropic triangulation of [0,1] x [0,1/ratio].

    With nx == ny the cells measure hx = 1/nx by hy = hx/ratio, so every
    triangle has aspect ratio `ratio`.
    """
    if ratio <= 0:
        raise ValueError(f"aspect ratio must be positive, got {ratio}")
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
    base = structured_triangular(nx, ny, "diagonal")
    limit = 1.0 / (2.0 * (nx + ny))
    if amplitude < 0 or amplitude >= limit:
        raise ValueError(
            f"perturbation amplitude {amplitude} must lie in [0, {limit})"
        )
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


def generate_mesh(spec: MeshSpec) -> SimplicialMesh:
    """Build a mesh from a declarative spec (see MeshSpec)."""
    if spec.kind == "uniform_interval":
        return uniform_interval(spec.n)
    if spec.kind == "structured_triangular":
        return structured_triangular(spec.nx, spec.ny, spec.pattern)
    if spec.kind == "stretched":
        return stretched(spec.nx, spec.ny, spec.ratio)
    if spec.kind == "random_perturbed":
        return random_perturbed(spec.nx, spec.ny, spec.amplitude, spec.seed)
    raise ValueError(f"unknown mesh kind {spec.kind!r}")


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


def _parse_error(lineno: int, text: str, reason: str) -> MeshFormatError:
    return MeshFormatError(f"line {lineno}: {reason}: {text.strip()!r}")


def read_mesh(path) -> SimplicialMesh:
    """Parse the text format written by write_mesh.

    Lines starting with '#' are comments.  Negative-orientation elements are
    repaired by swapping two vertices (with a warning); bad vertex references
    raise MeshStructureError and malformed lines raise MeshFormatError with
    their line number.
    """
    with open(path) as fh:
        raw = fh.readlines()
    tokens = [
        (lineno, line.split())
        for lineno, line in enumerate(raw, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    pos = 0

    def expect(keyword: str) -> int:
        nonlocal pos
        if pos >= len(tokens):
            raise MeshFormatError(f"unexpected end of file, expected {keyword}")
        lineno, words = tokens[pos]
        if len(words) != 2 or words[0] != keyword:
            raise _parse_error(lineno, " ".join(words), f"expected '{keyword} <count>'")
        try:
            count = int(words[1])
        except ValueError:
            raise _parse_error(lineno, " ".join(words), f"bad {keyword} count") from None
        pos += 1
        # One line per entry: a count the remaining lines cannot hold is
        # rejected before its array is allocated.
        if keyword != "DIMENSION" and not 0 <= count <= len(tokens) - pos:
            raise _parse_error(
                lineno, " ".join(words),
                f"{keyword} count must lie in [0, {len(tokens) - pos}], the lines that follow",
            )
        return count

    d = expect("DIMENSION")
    if d not in (1, 2):
        raise MeshFormatError(f"unsupported mesh dimension {d}")

    n_vertices = expect("VERTICES")
    vertices = np.empty((n_vertices, d))
    for k in range(n_vertices):
        lineno, words = tokens[pos]
        if len(words) != d:
            raise _parse_error(lineno, " ".join(words), f"expected {d} coordinates")
        try:
            vertices[k] = [float(w) for w in words]
        except ValueError:
            raise _parse_error(lineno, " ".join(words), "bad coordinate") from None
        if not np.isfinite(vertices[k]).all():
            raise _parse_error(lineno, " ".join(words), "non-finite coordinate")
        pos += 1

    n_elements = expect("ELEMENTS")
    elements = np.empty((n_elements, d + 1), dtype=np.int64)
    for k in range(n_elements):
        lineno, words = tokens[pos]
        if len(words) != d + 1:
            raise _parse_error(lineno, " ".join(words), f"expected {d + 1} vertex indices")
        try:
            elements[k] = [int(w) for w in words]
        except ValueError:
            raise _parse_error(lineno, " ".join(words), "bad vertex index") from None
        if np.any(elements[k] < 0) or np.any(elements[k] >= n_vertices):
            raise MeshStructureError(
                f"element {k} references vertex outside [0, {n_vertices})"
            )
        pos += 1

    n_facets = expect("BOUNDARY")
    facets = np.empty((n_facets, d), dtype=np.int64)
    markers = []
    for k in range(n_facets):
        lineno, words = tokens[pos]
        if len(words) != d + 1 or words[-1] not in (DIRICHLET, NEUMANN):
            raise _parse_error(
                lineno, " ".join(words), f"expected {d} indices and a D|N marker"
            )
        try:
            facets[k] = [int(w) for w in words[:-1]]
        except ValueError:
            raise _parse_error(lineno, " ".join(words), "bad facet index") from None
        if np.any(facets[k] < 0) or np.any(facets[k] >= n_vertices):
            raise MeshStructureError(
                f"boundary facet {k} references vertex outside [0, {n_vertices})"
            )
        markers.append(words[-1])
        pos += 1

    if pos != len(tokens):
        lineno, words = tokens[pos]
        raise _parse_error(lineno, " ".join(words), "trailing content")

    # repair negatively oriented elements
    flipped = _jacobians(vertices, elements)[1] < 0
    elements[flipped, :2] = elements[flipped, 1::-1]
    repaired = int(np.count_nonzero(flipped))
    if repaired:
        warnings.warn(
            f"repaired {repaired} negatively oriented element(s) by vertex swap",
            stacklevel=2,
        )
    return SimplicialMesh(d, vertices, elements, facets, tuple(markers))


# ---------------------------------------------------------------------------
# validation


# local vertex tuples of an element's facets, in the order validate_mesh reports them
_ELEMENT_FACETS = {1: [(0,), (1,)], 2: [(0, 1), (1, 2), (0, 2)]}


def validate_mesh(mesh: SimplicialMesh) -> list[str]:
    """Run the structural validation pass; returns a list of problems.

    Checks positive element volumes, facet conformity (interior facets shared
    by exactly two elements), boundary coverage by the marked facet list, and
    that the Dirichlet part of the boundary is nonempty.
    """
    problems = []
    try:
        build_affine_maps(mesh)
    except (DegenerateElementError, MeshStructureError) as exc:
        problems.append(str(exc))

    d, n = mesh.dimension, mesh.n_vertices
    facets = np.sort(mesh.elements.astype(np.int64)[:, _ELEMENT_FACETS[d]], axis=2).reshape(-1, d)
    keys, first, counts = np.unique(
        _facet_keys(facets, n), return_index=True, return_counts=True
    )
    facets = facets[first]
    over_shared = np.nonzero(counts > 2)[0]
    for f in over_shared[np.argsort(first[over_shared])]:
        problems.append(
            f"facet {tuple(facets[f].tolist())} shared by {counts[f]} elements (non-conforming)"
        )

    listed = sorted({tuple(sorted(int(v) for v in facet)) for facet in mesh.boundary_facets})
    listed_arr = np.array(listed, dtype=np.int64).reshape(-1, d)
    in_range = np.all((listed_arr >= 0) & (listed_arr < n), axis=1)
    # out-of-range facets get distinct negative keys, which match no element facet
    listed_keys = np.where(in_range, _facet_keys(listed_arr, n), -1 - np.arange(len(listed)))
    known = np.isin(listed_keys, keys, assume_unique=True)
    interior = np.isin(listed_keys, keys[counts >= 2], assume_unique=True)
    for f in np.nonzero(~known)[0]:
        problems.append(f"boundary facet {listed[f]} does not belong to any element")
    for f in np.nonzero(interior)[0]:
        problems.append(f"boundary facet {listed[f]} is interior (shared by two elements)")
    boundary = set(map(tuple, facets[counts == 1].tolist()))
    for f in sorted(boundary.difference(listed)):
        problems.append(f"boundary facet {f} has no marker (defaults require listing)")

    if DIRICHLET not in mesh.boundary_markers:
        problems.append("no Dirichlet facet: the Dirichlet boundary must have positive measure")
    return problems
