"""Tetrahedral meshes, their entity topology, and boundary classification.

A mesh stores vertex coordinates and tetrahedra as vertex index quadruples.
Tetrahedra are canonicalized to ascending vertex order at construction, so
every local edge and face automatically runs from its lowest to its highest
global vertex index.  Downstream code relies on this: shared edge and face
degrees of freedom then have one well defined orientation, and no incidence
sign bookkeeping is needed.

The maps from the reference tetrahedron are affine, so each tet's Jacobian,
its inverse and its determinant are computed once, at construction, and kept
on the mesh.

Entity numbering produced by :func:`build_topology` depends only on the set
of tetrahedra, not on their order in the array: unique sorted vertex tuples
are ranked lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GmshParseError, MeshError, NonConformingMeshError

# Local edges/faces of a tetrahedron (vertex index pairs/triples into the
# cell's own 4-tuple, each ascending).
LOCAL_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
LOCAL_FACES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass
class Mesh:
    """Immutable tetrahedral mesh.

    Parameters
    ----------
    vertices:
        Float array of shape (V, 3).
    tets:
        Integer array of shape (T, 4).  Rows are sorted ascending during
        construction; the input order of the four vertices is irrelevant.

    Construction also sets ``h_max`` (the longest edge) and the affine map
    x = v_0 + J x_hat of every tet: ``jac`` (T, 3, 3), whose column d is
    vertex d+1 minus vertex 0, ``jac_inv`` and ``jac_det``.
    """

    vertices: np.ndarray
    tets: np.ndarray
    h_max: float = field(init=False)
    jac: np.ndarray = field(init=False, repr=False, compare=False)
    jac_inv: np.ndarray = field(init=False, repr=False, compare=False)
    jac_det: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.vertices = _freeze(np.ascontiguousarray(self.vertices, dtype=np.float64))
        tets = np.sort(np.ascontiguousarray(self.tets, dtype=np.int64), axis=1)
        self.tets = _freeze(tets)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must have shape (V, 3)")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise MeshError("tets must have shape (T, 4)")
        if self.tets.shape[0] == 0:
            raise MeshError("mesh has no tetrahedra")
        if self.tets.min() < 0 or self.tets.max() >= len(self.vertices):
            raise MeshError("tet vertex index out of range")
        if np.any(np.diff(tets, axis=1) == 0):
            raise MeshError("tet with repeated vertex")
        corners = self.vertices[tets]
        self.jac = _freeze((corners[:, 1:, :] - corners[:, :1, :]).transpose(0, 2, 1))
        self.jac_det = _freeze(np.linalg.det(self.jac))
        if np.abs(self.jac_det).min() <= 1e-14:
            raise MeshError("degenerate tetrahedron (zero volume)")
        self.jac_inv = _freeze(np.linalg.inv(self.jac))
        edges = self.vertices[tets[:, LOCAL_EDGES[:, 1]]] - self.vertices[tets[:, LOCAL_EDGES[:, 0]]]
        self.h_max = float(np.sqrt((edges**2).sum(axis=2)).max())

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_tets(self) -> int:
        return self.tets.shape[0]

    def volumes(self) -> np.ndarray:
        """Unsigned tet volumes."""
        return np.abs(self.jac_det) / 6.0


def generate_cube_mesh(n: int) -> Mesh:
    """Structured mesh of the unit cube: n**3 subcubes, six tets each.

    Every subcube is split along its main diagonal (the (1,1,1) direction),
    which makes neighbouring subcubes agree on the square-face diagonals, so
    the mesh is conforming for every n.  The longest edge is the subcube
    diagonal, hence h_max = sqrt(3)/n.
    """
    if n < 1:
        raise MeshError(f"cube subdivision must be >= 1, got {n}")
    side = np.linspace(0.0, 1.0, n + 1)
    X, Y, Z = np.meshgrid(side, side, side, indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    # The six monotone vertex paths from a subcube's low corner to its high
    # corner, one per permutation of the axes.
    paths = []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        steps = np.zeros((4, 3), dtype=np.int64)
        for s, axis in enumerate(perm):
            steps[s + 1] = steps[s]
            steps[s + 1, axis] += 1
        paths.append(steps)

    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k])
                for steps in paths:
                    corner = base + steps
                    tets.append([vid(*c) for c in corner])
    return Mesh(vertices, np.array(tets, dtype=np.int64))


def read_gmsh(text: str) -> Mesh:
    """Parse ASCII Gmsh v2.2 content, keeping only tetrahedral elements.

    Takes the file content (not a path).  Triangles, points and other element
    types are skipped.  Node ids are remapped to a dense zero-based range.
    """
    lines = [ln.strip() for ln in text.splitlines()]

    def section(name: str) -> list[str]:
        try:
            start = lines.index(f"${name}")
            end = lines.index(f"$End{name}")
        except ValueError:
            raise GmshParseError(f"missing ${name} section") from None
        if end <= start:
            raise GmshParseError(f"malformed ${name} section")
        return lines[start + 1 : end]

    fmt = section("MeshFormat")
    if not fmt:
        raise GmshParseError("empty $MeshFormat section")
    version = fmt[0].split()[0]
    if not version.startswith("2."):
        raise GmshParseError(f"unsupported msh format version {version} (need 2.x ASCII)")

    node_lines = section("Nodes")
    try:
        n_nodes = int(node_lines[0])
        ids = np.empty(n_nodes, dtype=np.int64)
        coords = np.empty((n_nodes, 3))
        for row, ln in enumerate(node_lines[1 : n_nodes + 1]):
            parts = ln.split()
            ids[row] = int(parts[0])
            coords[row] = [float(v) for v in parts[1:4]]
    except (IndexError, ValueError):
        raise GmshParseError("malformed $Nodes section") from None
    if len(node_lines) != n_nodes + 1:
        raise GmshParseError("node count does not match $Nodes header")
    id2row = {int(g): r for r, g in enumerate(ids)}

    elem_lines = section("Elements")
    tets = []
    try:
        n_elems = int(elem_lines[0])
        if len(elem_lines) != n_elems + 1:
            raise GmshParseError("element count does not match $Elements header")
        for ln in elem_lines[1:]:
            parts = [int(v) for v in ln.split()]
            etype, ntags = parts[1], parts[2]
            nodes = parts[3 + ntags :]
            if etype == 4:
                if len(nodes) != 4:
                    raise GmshParseError("tetrahedron with wrong node count")
                tets.append([id2row[g] for g in nodes])
    except GmshParseError:
        raise
    except (IndexError, ValueError, KeyError):
        raise GmshParseError("malformed $Elements section") from None
    if not tets:
        raise GmshParseError("no tetrahedra found in mesh file")

    tets_arr = np.array(tets, dtype=np.int64)
    used = np.unique(tets_arr)
    remap = -np.ones(len(coords), dtype=np.int64)
    remap[used] = np.arange(len(used))
    return Mesh(coords[used], remap[tets_arr])


@dataclass
class Topology:
    """Edge/face enumeration and cell incidence for a mesh.

    edges, faces:
        Global entities as ascending vertex tuples, ranked lexicographically.
    tet_edges, tet_faces:
        Global entity index per (tet, local entity).  Local traversal is
        low-to-high within the sorted cell tuple, which is the global
        orientation, so no incidence signs are needed.
    face_tets:
        For each face, the one or two incident tets (-1 when absent).
    """

    edges: np.ndarray
    faces: np.ndarray
    tet_edges: np.ndarray
    tet_faces: np.ndarray
    face_tets: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]


def build_topology(mesh: Mesh) -> Topology:
    """Enumerate edges and faces of a mesh and wire up incidence maps.

    Raises NonConformingMeshError if any face belongs to more than two tets.
    """
    tets = mesh.tets
    T = tets.shape[0]

    edge_keys = tets[:, LOCAL_EDGES].reshape(-1, 2)
    edges, tet_edges = np.unique(edge_keys, axis=0, return_inverse=True)
    tet_edges = tet_edges.reshape(T, 6)

    face_keys = tets[:, LOCAL_FACES].reshape(-1, 3)
    faces, tet_faces = np.unique(face_keys, axis=0, return_inverse=True)
    tet_faces = tet_faces.reshape(T, 4)

    counts = np.bincount(tet_faces.ravel(), minlength=len(faces))
    if counts.max() > 2:
        bad = int(np.argmax(counts))
        raise NonConformingMeshError(
            f"face {tuple(faces[bad])} is shared by {counts.max()} tets"
        )

    face_tets = -np.ones((len(faces), 2), dtype=np.int64)
    slot = np.zeros(len(faces), dtype=np.int64)
    for t in range(T):
        for f in tet_faces[t]:
            face_tets[f, slot[f]] = t
            slot[f] += 1

    return Topology(
        edges=_freeze(edges),
        faces=_freeze(faces),
        tet_edges=_freeze(tet_edges),
        tet_faces=_freeze(tet_faces),
        face_tets=_freeze(face_tets),
    )


@dataclass
class BoundarySet:
    """Index sets of boundary entities, with mask accessors."""

    vertices: np.ndarray
    edges: np.ndarray
    faces: np.ndarray
    num_vertices: int
    num_edges: int
    num_faces: int

    def vertex_mask(self) -> np.ndarray:
        m = np.zeros(self.num_vertices, dtype=bool)
        m[self.vertices] = True
        return m

    def edge_mask(self) -> np.ndarray:
        m = np.zeros(self.num_edges, dtype=bool)
        m[self.edges] = True
        return m

    def face_mask(self) -> np.ndarray:
        m = np.zeros(self.num_faces, dtype=bool)
        m[self.faces] = True
        return m


def boundary_classification(mesh: Mesh, topo: Topology) -> BoundarySet:
    """Classify entities as boundary or interior.

    A face is boundary iff it has exactly one incident tet; boundary edges and
    vertices are those lying on some boundary face.
    """
    bfaces = np.flatnonzero(topo.face_tets[:, 1] < 0)
    bverts = np.unique(topo.faces[bfaces].ravel())
    # An edge is on the boundary iff it is an edge of a boundary face.
    fverts = topo.faces[bfaces]
    pair_keys = np.concatenate(
        [fverts[:, [0, 1]], fverts[:, [0, 2]], fverts[:, [1, 2]]], axis=0
    )
    bedges = _edge_lookup(topo.edges, np.unique(pair_keys, axis=0))
    return BoundarySet(
        vertices=_freeze(bverts),
        edges=_freeze(bedges),
        faces=_freeze(bfaces),
        num_vertices=mesh.num_vertices,
        num_edges=topo.num_edges,
        num_faces=topo.num_faces,
    )


def _edge_lookup(edges: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Indices into the (lexicographically sorted) edge table for given pairs."""
    base = int(edges.max()) + 1
    idx = np.searchsorted(edges[:, 0] * base + edges[:, 1], keys[:, 0] * base + keys[:, 1])
    idx = np.minimum(idx, len(edges) - 1)
    if not np.array_equal(edges[idx], keys):
        raise MeshError("edge lookup failed; inconsistent topology")
    return idx
