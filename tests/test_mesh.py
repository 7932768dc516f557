import itertools
from pathlib import Path

import numpy as np
import pytest

from meshes import five_tet_cube_mesh, jittered_cube_mesh, write_gmsh
from quadcurl import Mesh, build_topology, generate_cube_mesh, read_gmsh
from quadcurl.errors import GmshParseError, MeshError, NonConformingMeshError
from quadcurl.mesh import FACE_EDGES, LOCAL_EDGES, LOCAL_FACES

DATA = Path(__file__).resolve().parent / "data"


def topo_counts(mesh):
    topo = build_topology(mesh)
    return topo.edges.shape[0], topo.faces.shape[0]


def test_cube_n1_counts():
    mesh = generate_cube_mesh(1)
    assert mesh.vertices.shape == (8, 3)
    assert mesh.tets.shape == (6, 4)
    E, F = topo_counts(mesh)
    assert (E, F) == (19, 18)
    assert abs(mesh.h_max - np.sqrt(3.0)) < 1e-14
    assert abs(mesh.volumes().sum() - 1.0) < 1e-14
    assert mesh.volumes().min() > 0.0


def test_cube_too_large_for_topology_rejected_before_building():
    """129^3 vertices overflow the topology keys; n = 128 must fail at once."""
    with pytest.raises(MeshError, match="vertices"):
        generate_cube_mesh(128)


def test_cube_n1_interior_entities():
    mesh = generate_cube_mesh(1)
    topo = build_topology(mesh)
    # only the main diagonal edge and the 6 faces through it are interior
    assert (~topo.boundary_edges).sum() == 1
    assert (~topo.boundary_faces).sum() == 6
    assert topo.boundary_vertices.sum() == 8


def test_cube_n2_counts():
    mesh = generate_cube_mesh(2)
    assert mesh.vertices.shape[0] == 27
    assert mesh.tets.shape[0] == 48
    E, F = topo_counts(mesh)
    assert (E, F) == (98, 120)
    # Euler relation for a ball-like mesh
    assert 27 - E + F - 48 == 1
    topo = build_topology(mesh)
    assert topo.boundary_edges.sum() == 72
    assert topo.boundary_vertices.sum() == 26
    interior = np.flatnonzero(~topo.boundary_vertices)
    assert interior.size == 1
    assert np.allclose(mesh.vertices[interior[0]], [0.5, 0.5, 0.5])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_h_max_and_volume(n):
    mesh = generate_cube_mesh(n)
    assert abs(mesh.h_max - np.sqrt(3.0) / n) < 1e-13
    vols = mesh.volumes()
    assert abs(vols.sum() - 1.0) < 1e-12
    assert vols.min() > 0.0
    # Kuhn split: 6 tets per subcube, all of volume 1/(6 n^3)
    assert np.allclose(vols, 1.0 / (6 * n**3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_euler_relation(n):
    mesh = generate_cube_mesh(n)
    E, F = topo_counts(mesh)
    V, T = mesh.vertices.shape[0], mesh.tets.shape[0]
    assert V - E + F - T == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_tets_match_loop_oracle(n):
    """Tets in the order of the explicit loop: subcube-major, then the six
    monotone paths in itertools.permutations order (which fixes the assembly
    summation order)."""
    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    tets = []
    for i, j, k in itertools.product(range(n), repeat=3):
        for perm in itertools.permutations(range(3)):
            corner = [i, j, k]
            path = [vid(*corner)]
            for axis in perm:
                corner[axis] += 1
                path.append(vid(*corner))
            tets.append(path)
    got = generate_cube_mesh(n).tets
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.array(tets, dtype=np.int64))


def test_tets_stored_sorted():
    mesh = generate_cube_mesh(2)
    assert (np.diff(mesh.tets, axis=1) > 0).all()


def test_degenerate_tet_rejected():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]])
    with pytest.raises(MeshError):
        Mesh(verts, np.array([[0, 1, 2, 3]]))


def test_tiny_tet_accepted_and_flat_tiny_tet_rejected():
    """The degeneracy test is relative to the tet's own size."""
    verts = 1e-5 * np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    assert Mesh(verts, np.array([[0, 1, 2, 3]])).volumes()[0] == pytest.approx(1e-15 / 6)
    flat = verts.copy()
    flat[3, 2] = 1e-18
    with pytest.raises(MeshError):
        Mesh(flat, np.array([[0, 1, 2, 3]]))


def test_one_dimensional_tets_rejected():
    verts = np.eye(4, 3)
    with pytest.raises(MeshError):
        Mesh(verts, np.array([0, 1, 2, 3]))


def test_nonfinite_vertex_rejected():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, np.nan]])
    with pytest.raises(MeshError):
        Mesh(verts, np.array([[0, 1, 2, 3]]))


def test_non_integer_index_rejected():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    with pytest.raises(MeshError):
        Mesh(verts, np.array([[0, 1.7, 2, 3]]))
    whole = Mesh(verts, np.array([[3.0, 0.0, 2.0, 1.0]]))
    assert whole.tets.dtype == np.int64
    assert whole.tets.tolist() == [[0, 1, 2, 3]]


def test_out_of_range_index_rejected():
    verts = np.eye(4, 3)
    with pytest.raises(MeshError):
        Mesh(verts, np.array([[0, 1, 2, 7]]))


def test_repeated_vertex_rejected():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    with pytest.raises(MeshError):
        Mesh(verts, np.array([[0, 1, 2, 2]]))


def test_unused_vertex_rejected():
    """A vertex no tet uses would become a free nodal DoF with no gradient."""
    cube = generate_cube_mesh(2)
    stray = [[0.5, 0.5, 0.25]]
    with pytest.raises(MeshError, match=r"1 vertices used by no tet: 27$"):
        Mesh(np.vstack([cube.vertices, stray]), cube.tets)
    with pytest.raises(MeshError, match=r"1 vertices used by no tet: 0$"):
        Mesh(np.vstack([stray, cube.vertices]), cube.tets + 1)
    many = np.vstack([cube.vertices, np.full((12, 3), 0.5)])
    with pytest.raises(MeshError, match=r"12 vertices used by no tet: 27, 28, .*, 36, \.\.\.$"):
        Mesh(many, cube.tets)


def test_two_tet_oracle():
    # two tets glued along the face (1,2,3)
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1],
                      [1.0, 1, 1]])
    mesh = Mesh(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]))
    topo = build_topology(mesh)
    assert topo.edges.shape[0] == 9
    assert topo.faces.shape[0] == 7
    assert topo.boundary_faces.sum() == 6
    assert topo.boundary_edges.sum() == 9


def test_topology_deterministic_under_tet_permutation():
    mesh = generate_cube_mesh(2)
    rng = np.random.default_rng(3)
    perm = rng.permutation(mesh.tets.shape[0])
    shuffled = Mesh(mesh.vertices.copy(), mesh.tets[perm])
    a, b = build_topology(mesh), build_topology(shuffled)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.faces, b.faces)


@pytest.mark.parametrize("permuted", [False, True])
def test_scalar_topology_keys_match_unique_rows_oracle(permuted):
    """Edges and faces ranked by scalar keys equal np.unique over the vertex rows."""
    mesh = jittered_cube_mesh(4, seed=31)
    if permuted:
        perm = np.random.default_rng(6).permutation(mesh.tets.shape[0])
        mesh = Mesh(mesh.vertices.copy(), mesh.tets[perm])
    topo = build_topology(mesh)
    T = mesh.num_tets
    for keys, table, index in ((LOCAL_EDGES, topo.edges, topo.tet_edges),
                               (LOCAL_FACES, topo.faces, topo.tet_faces)):
        rows = mesh.tets[:, keys].reshape(T * len(keys), -1)
        expected, inverse = np.unique(rows, axis=0, return_inverse=True)
        for got, want in ((table, expected), (index, inverse.reshape(T, len(keys)))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_nonconforming_mesh_detected():
    # three tets sharing the face (0,1,2)
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0],
                      [0.0, 0, 1], [0.0, 0, -1], [1.0, 1, 1]])
    with pytest.raises(NonConformingMeshError):
        Mesh(verts, np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]]))


def test_edge_orientation_low_to_high():
    topo = build_topology(generate_cube_mesh(2))
    assert (topo.edges[:, 0] < topo.edges[:, 1]).all()
    assert (np.diff(topo.faces, axis=1) > 0).all()


def test_five_tet_mesh_conforms():
    mesh = five_tet_cube_mesh(2)
    E, F = topo_counts(mesh)
    V, T = mesh.vertices.shape[0], mesh.tets.shape[0]
    assert T == 40
    assert V - E + F - T == 1
    assert abs(mesh.volumes().sum() - 1.0) < 1e-12


def test_jittered_mesh_valid():
    mesh = jittered_cube_mesh(2, seed=7)
    assert abs(mesh.volumes().sum() - 1.0) < 1e-12
    build_topology(mesh)  # must conform


REF_TET_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
$EndNodes
$Elements
1
1 4 2 0 1 1 2 3 4
$EndElements
"""


def test_gmsh_single_tet():
    mesh = read_gmsh(REF_TET_MSH)
    assert mesh.tets.shape[0] == 1
    assert abs(mesh.volumes()[0] - 1.0 / 6.0) < 1e-15


def test_tet_listed_twice_rejected():
    """A lone tet listed twice shares all four faces with its copy: the face
    count sees no boundary and no face of three tets, and the volume would
    read twice the tet's."""
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    with pytest.raises(MeshError, match=r"^tet \(0, 1, 2, 3\) listed twice$"):
        Mesh(verts, np.array([[0, 1, 2, 3], [3, 2, 1, 0]]))
    cube = generate_cube_mesh(2)
    with pytest.raises(MeshError, match="listed twice"):
        Mesh(cube.vertices, np.vstack([cube.tets, cube.tets[5, ::-1]]))
    text = REF_TET_MSH.replace("$Elements\n1\n1 4 2 0 1 1 2 3 4\n",
                               "$Elements\n2\n1 4 2 0 1 1 2 3 4\n2 4 2 0 1 4 2 3 1\n")
    with pytest.raises(MeshError, match=r"^tet \(0, 1, 2, 3\) listed twice$"):
        read_gmsh(text)


def test_gmsh_skips_triangles_and_points():
    text = REF_TET_MSH.replace(
        "$Elements\n1\n1 4 2 0 1 1 2 3 4\n",
        "$Elements\n3\n1 2 2 0 1 1 2 3\n2 15 2 0 1 1\n3 4 2 0 1 1 2 3 4\n")
    mesh = read_gmsh(text)
    assert mesh.tets.shape[0] == 1
    assert mesh.vertices.shape[0] == 4


def test_gmsh_sparse_node_ids_remapped():
    text = REF_TET_MSH.replace(
        "1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1",
        "10 0 0 0\n20 1 0 0\n30 0 1 0\n40 0 0 1").replace(
        "1 4 2 0 1 1 2 3 4", "1 4 2 0 1 10 20 30 40")
    mesh = read_gmsh(text)
    assert mesh.vertices.shape[0] == 4
    assert abs(mesh.volumes()[0] - 1.0 / 6.0) < 1e-15


def test_gmsh_version_4_rejected():
    text = REF_TET_MSH.replace("2.2 0 8", "4.1 0 8")
    with pytest.raises(GmshParseError, match="version"):
        read_gmsh(text)


def test_gmsh_missing_section():
    text = REF_TET_MSH.replace("$Nodes", "$Points").replace("$EndNodes", "$EndPoints")
    with pytest.raises(GmshParseError, match="Nodes"):
        read_gmsh(text)


def test_gmsh_bad_node_count():
    text = REF_TET_MSH.replace("$Nodes\n4", "$Nodes\n5")
    with pytest.raises(GmshParseError):
        read_gmsh(text)


def test_gmsh_repeated_node_id_rejected():
    """A second line for node 4 is refused, not read over the first."""
    text = REF_TET_MSH.replace("$Nodes\n4\n", "$Nodes\n5\n").replace(
        "4 0 0 1\n", "4 0 0 1\n4 9 9 9\n")
    with pytest.raises(GmshParseError, match="node id listed twice"):
        read_gmsh(text)


def test_gmsh_no_tets():
    text = REF_TET_MSH.replace("1 4 2 0 1 1 2 3 4", "1 2 2 0 1 1 2 3")
    with pytest.raises(GmshParseError, match="tetrahedra"):
        read_gmsh(text)


def test_gmsh_roundtrip_cube():
    mesh = generate_cube_mesh(2)
    back = read_gmsh(write_gmsh(mesh, extra_triangles=3))
    assert back.vertices.shape == mesh.vertices.shape
    assert back.tets.shape == mesh.tets.shape
    assert abs(back.volumes().sum() - 1.0) < 1e-12
    ea, fa = topo_counts(mesh)
    eb, fb = topo_counts(back)
    assert (ea, fa) == (eb, fb)


def test_boundary_masks(cube2):
    topo = build_topology(cube2)
    assert topo.boundary_edges.sum() == 72
    assert topo.boundary_faces.sum() == 48
    assert topo.boundary_vertices.sum() == 26
    # every boundary edge lies on a boundary face
    bface_edges = set()
    for f in np.flatnonzero(topo.boundary_faces):
        a, b, c = topo.faces[f]
        for pair in ((a, b), (a, c), (b, c)):
            bface_edges.add(pair)
    for e in np.flatnonzero(topo.boundary_edges):
        assert tuple(topo.edges[e]) in bface_edges


def _boundary_oracle(mesh, topo):
    """Boundary masks by a loop over faces: a face with one incident tet is on
    the boundary, and so are its three edges and three vertices."""
    incident = np.zeros(topo.num_faces, dtype=np.int64)
    for faces in topo.tet_faces:
        for f in faces:
            incident[f] += 1
    edge_index = {tuple(e): i for i, e in enumerate(topo.edges.tolist())}
    verts = np.zeros(mesh.num_vertices, dtype=bool)
    edges = np.zeros(topo.num_edges, dtype=bool)
    faces = incident == 1
    for f in np.flatnonzero(faces):
        a, b, c = topo.faces[f].tolist()
        verts[[a, b, c]] = True
        for pair in ((a, b), (a, c), (b, c)):
            edges[edge_index[pair]] = True
    return verts, edges, faces


def _permuted_jittered4():
    mesh = jittered_cube_mesh(4, seed=7)
    perm = np.random.default_rng(13).permutation(mesh.num_tets)
    return Mesh(mesh.vertices.copy(), mesh.tets[perm])


@pytest.mark.parametrize("make", [
    lambda: jittered_cube_mesh(4, seed=7),
    _permuted_jittered4,
    lambda: five_tet_cube_mesh(3),
    lambda: read_gmsh((DATA / "ball_h03.msh").read_text()),
], ids=["jittered4", "jittered4-permuted", "five-tet3", "ball"])
def test_boundary_masks_match_face_loop_oracle(make):
    mesh = make()
    topo = build_topology(mesh)
    verts, edges, faces = _boundary_oracle(mesh, topo)
    assert faces.any() and not faces.all()
    assert np.array_equal(topo.boundary_vertices, verts)
    assert np.array_equal(topo.boundary_edges, edges)
    assert np.array_equal(topo.boundary_faces, faces)
    for mask in (topo.boundary_vertices, topo.boundary_edges, topo.boundary_faces):
        assert mask.dtype == bool and not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = not mask[0]


def test_face_edge_table_matches_local_faces():
    for f in range(4):
        pairs = LOCAL_EDGES[FACE_EDGES[f]]
        a, b, c = LOCAL_FACES[f]
        assert pairs.tolist() == [[a, b], [a, c], [b, c]]
