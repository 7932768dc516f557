"""Tetrahedral meshes and their entity topology, boundary masks included.

A mesh stores vertex coordinates and tetrahedra as vertex index quadruples.
Tetrahedra are canonicalized to ascending vertex order at construction, so
every local edge and face automatically runs from its lowest to its highest
global vertex index.  Downstream code relies on this: shared edge and face
degrees of freedom then have one well defined orientation, and no incidence
sign bookkeeping is needed.

The maps from the reference tetrahedron are affine, so each tet's Jacobian,
its inverse and its determinant are computed once, at construction, and kept
on the mesh.

Each mesh builds its :class:`Topology` at construction.  Entity numbering
depends only on the set of tetrahedra, not on their order in the array: unique
sorted vertex tuples are ranked lexicographically.  The same pass marks the
boundary: a face is on it when it has one incident tet, and an edge or vertex
when it lies on such a face.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GmshParseError, MeshError, NonConformingMeshError

# Local edges/faces of a tetrahedron (vertex index pairs/triples into the
# cell's own 4-tuple, each ascending).
LOCAL_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
LOCAL_FACES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
# Local edges of each local face: LOCAL_EDGES[FACE_EDGES[f]] are the vertex
# pairs of LOCAL_FACES[f].
FACE_EDGES = np.array([(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)])
# build_topology's face keys reach V^3 - 1, which must fit in int64.
MAX_VERTICES = 2**21


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class Mesh:
    """Immutable tetrahedral mesh.

    Parameters
    ----------
    vertices:
        Finite float array of shape (V, 3).
    tets:
        Integer array of shape (T, 4); whole-valued floats are accepted.
        Rows are sorted ascending during construction; the input order of
        the four vertices is irrelevant.  A tet listed twice (in any vertex
        order) is rejected, and so is a tet whose |det J| is at most 1e-12
        times the cube of its longest edge (degenerate) and a vertex that no
        tet uses.

    Construction also sets ``h_max`` (the longest edge), the affine map
    x = v_0 + J x_hat of every tet (``jac`` (T, 3, 3), whose column d is
    vertex d+1 minus vertex 0, ``jac_inv`` and ``jac_det``) and the
    ``topology`` that every space on the mesh reads; a face of more than two
    tets raises NonConformingMeshError.  ``fespace.map_points`` keeps its
    mapping of the sampling rule's points here.  Meshes compare by identity.
    """

    vertices: np.ndarray
    tets: np.ndarray
    h_max: float = field(init=False)
    jac: np.ndarray = field(init=False, repr=False)
    jac_inv: np.ndarray = field(init=False, repr=False)
    jac_det: np.ndarray = field(init=False, repr=False)
    topology: Topology = field(init=False, repr=False)
    # Set by the first fespace.map_points call.
    _mapped_points: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # A copy: freezing the caller's own array, or a view of it, would
        # lock it or leave the mesh movable through it.
        self.vertices = _freeze(np.array(self.vertices, dtype=np.float64, order="C"))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must have shape (V, 3)")
        if not np.isfinite(self.vertices).all():
            raise MeshError("vertex coordinates must be finite")
        tets = np.asarray(self.tets)
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise MeshError("tets must have shape (T, 4)")
        if tets.shape[0] == 0:
            raise MeshError("mesh has no tetrahedra")
        whole = tets.dtype.kind in "iu" or (tets.dtype.kind == "f" and (tets == np.round(tets)).all())
        if not whole:
            raise MeshError("tet vertex indices must be integers")
        if tets.min() < 0 or tets.max() >= len(self.vertices):
            raise MeshError("tet vertex index out of range")
        tets = np.sort(tets.astype(np.int64), axis=1)
        self.tets = _freeze(tets)
        if np.any(np.diff(tets, axis=1) == 0):
            raise MeshError("tet with repeated vertex")
        # A lone tet listed twice would share all four faces with its copy.
        rows = tets[np.lexsort(tets.T)]
        twice = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
        if len(twice):
            raise MeshError(f"tet {tuple(rows[twice[0]].tolist())} listed twice")
        # An unused vertex would become a free nodal DoF with no gradient.
        unused = np.flatnonzero(np.bincount(tets.ravel(), minlength=len(self.vertices)) == 0)
        if len(unused):
            listed = ", ".join(map(str, unused[:10])) + (", ..." if len(unused) > 10 else "")
            raise MeshError(f"{len(unused)} vertices used by no tet: {listed}")
        corners = self.vertices[tets]
        edges = corners[:, LOCAL_EDGES[:, 1]] - corners[:, LOCAL_EDGES[:, 0]]
        longest = np.sqrt((edges**2).sum(axis=2)).max(axis=1)
        self.h_max = float(longest.max())
        self.jac = _freeze((corners[:, 1:, :] - corners[:, :1, :]).transpose(0, 2, 1))
        # np.linalg.det is not exact under a power-of-two dilation, so take it
        # on the mesh shrunk by the power of 4 nearest its extent (1 for
        # extents from 1/2 to 2) and scale back: a mesh dilated by 4^k then
        # has exactly 64^k times the determinants.
        extent = float(np.ptp(self.vertices, axis=0).max())
        scale = 4.0 ** round(math.log2(extent) / 2.0) if extent > 0.0 else 1.0
        self.jac_det = _freeze(np.linalg.det(self.jac / scale) * scale**3)
        # Relative to the cube of the longest edge, so the test is scale-free.
        if (np.abs(self.jac_det) <= 1e-12 * longest**3).any():
            raise MeshError("degenerate tetrahedron (zero volume)")
        self.jac_inv = _freeze(np.linalg.inv(self.jac))
        self.topology = build_topology(self)

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
    if (n + 1) ** 3 > MAX_VERTICES:
        raise MeshError(f"cube subdivision {n} exceeds {MAX_VERTICES} vertices")
    side = np.linspace(0.0, 1.0, n + 1)
    X, Y, Z = np.meshgrid(side, side, side, indexing="ij")
    vertices = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    # The six monotone vertex paths from a subcube's low corner to its high
    # corner, one per permutation of the axes, as vertex-id offsets.
    stride = np.array([(n + 1) ** 2, n + 1, 1])
    paths = np.array([np.cumsum([0, *stride[list(perm)]])
                      for perm in itertools.permutations(range(3))])
    low = np.arange((n + 1) ** 3).reshape((n + 1,) * 3)[:n, :n, :n].ravel()
    tets = low[:, None, None] + paths  # subcube-major, then path
    return Mesh(vertices, tets.reshape(-1, 4))


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
    version, *kind = fmt[0].split()
    if not version.startswith("2."):
        raise GmshParseError(f"unsupported msh format version {version} (need 2.x ASCII)")
    if kind[:1] != ["0"]:
        raise GmshParseError(f"$MeshFormat {fmt[0]!r}: binary .msh is not supported "
                             "(need ASCII, file-type 0)")

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
    if len(id2row) != n_nodes:
        raise GmshParseError("node id listed twice in $Nodes section")

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


@dataclass(eq=False)
class Topology:
    """Edge/face enumeration and cell incidence for a mesh.

    edges, faces:
        Global entities as ascending vertex tuples, ranked lexicographically.
    tet_edges, tet_faces:
        Global entity index per (tet, local entity).  Local traversal is
        low-to-high within the sorted cell tuple, which is the global
        orientation, so no incidence signs are needed.
    boundary_vertices, boundary_edges, boundary_faces:
        Read-only masks over vertices, edges and faces: a face is on the
        boundary when it has one incident tet, an edge or vertex when it lies
        on a boundary face.
    """

    edges: np.ndarray
    faces: np.ndarray
    tet_edges: np.ndarray
    tet_faces: np.ndarray
    boundary_vertices: np.ndarray
    boundary_edges: np.ndarray
    boundary_faces: np.ndarray

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
    V = mesh.num_vertices
    if V > MAX_VERTICES:
        raise MeshError(f"{V} vertices overflow the int64 face keys")

    # Ascending vertex tuples as scalar keys a V + b and (a V + b) V + c:
    # their numeric order is the lexicographic order of the tuples.
    e = tets[:, LOCAL_EDGES]
    ekeys, tet_edges = np.unique(e[..., 0] * V + e[..., 1], return_inverse=True)
    edges = np.stack([ekeys // V, ekeys % V], axis=1)
    tet_edges = tet_edges.reshape(T, 6)

    f = tets[:, LOCAL_FACES]
    fkeys, tet_faces = np.unique((f[..., 0] * V + f[..., 1]) * V + f[..., 2], return_inverse=True)
    faces = np.stack([fkeys // (V * V), fkeys // V % V, fkeys % V], axis=1)
    tet_faces = tet_faces.reshape(T, 4)

    counts = np.bincount(tet_faces.ravel(), minlength=len(faces))
    if counts.max() > 2:
        bad = int(np.argmax(counts))
        raise NonConformingMeshError(
            f"face {tuple(faces[bad])} is shared by {counts.max()} tets"
        )

    # A boundary face's one (tet, local face) slot names its edges and vertices.
    boundary_faces = counts == 1
    t, lf = np.nonzero(boundary_faces[tet_faces])
    boundary_edges = np.zeros(len(edges), dtype=bool)
    boundary_edges[tet_edges[t[:, None], FACE_EDGES[lf]]] = True
    boundary_vertices = np.zeros(V, dtype=bool)
    boundary_vertices[tets[t[:, None], LOCAL_FACES[lf]]] = True

    return Topology(
        edges=_freeze(edges),
        faces=_freeze(faces),
        tet_edges=_freeze(tet_edges),
        tet_faces=_freeze(tet_faces),
        boundary_vertices=_freeze(boundary_vertices),
        boundary_edges=_freeze(boundary_edges),
        boundary_faces=_freeze(boundary_faces),
    )

