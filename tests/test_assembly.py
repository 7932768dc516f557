import numpy as np
import pytest

from meshes import jittered_cube_mesh
from quadcurl import (
    DofVector, SparseMatrix, assemble_curlcurl, assemble_gradient_map,
    assemble_load, assemble_mass, generate_cube_mesh, interpolate, make_space,
    restrict,
)
from quadcurl.errors import SpaceError
from quadcurl.fespace import eval_cells
from quadcurl.mesh import Mesh
from quadcurl.quadrature import tet_rule


@pytest.mark.parametrize("order", [1, 2])
def test_mass_matrix_spd(order, cube2):
    M = assemble_mass(make_space(cube2, "edge", order))
    assert M.symmetric
    assert M.asymmetry() <= 1e-14 * M.max_abs()
    w = np.linalg.eigvalsh(M.to_dense())
    assert w.min() > 0.0


def test_mass_energy_of_unit_field(cube2):
    space = make_space(cube2, "edge", 1)
    ex = np.array([1.0, 0.0, 0.0])
    u = interpolate(space, lambda x: np.broadcast_to(ex, np.asarray(x).shape).copy())
    M = assemble_mass(space)
    energy = u.values @ (M.mat @ u.values)
    assert energy == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_curlcurl_annihilates_discrete_gradients(order):
    mesh = jittered_cube_mesh(2, seed=3)
    edge = make_space(mesh, "edge", order)
    nodal = make_space(mesh, "nodal", order)
    C = assemble_curlcurl(edge)
    G = assemble_gradient_map(nodal, edge)
    CG = C.mat @ G.mat
    assert (np.abs(CG.data).max() if CG.nnz else 0.0) < 1e-12


@pytest.mark.parametrize(
    "assemble, order",
    [
        pytest.param(assemble_mass, 1, id="1"),
        pytest.param(assemble_mass, 2, id="2"),
        pytest.param(assemble_curlcurl, 1, id="curlcurl-1"),
        pytest.param(assemble_curlcurl, 2, id="curlcurl-2"),
    ],
)
def test_default_quadrature_degree_saturates(assemble, order, cube2):
    """The default degrees (2k for mass, 2k - 2 for curl-curl) are exact."""
    space = make_space(cube2, "edge", order)
    default = assemble(space).to_dense()
    high = assemble(space, degree=2 * order + 6).to_dense()
    assert np.abs(default - high).max() < 1e-13 * np.abs(high).max()


def _poly_load(x):
    """Quadratic load: every (f, phi_i) is integrated exactly by both rules below."""
    x = np.asarray(x)
    return np.stack([x[..., 1] * x[..., 2] + 1.0, x[..., 0] ** 2 - x[..., 2],
                     x[..., 0] + x[..., 1] * x[..., 2]], axis=-1)


def _poly_load_scalar(x):
    x = np.asarray(x)
    return x[..., 0] * x[..., 1] - 2.0 * x[..., 2] + 0.5


def _oracle(kind, space, f):
    """Plain per-tet, per-point assembly on the full layout.

    Explicit J per tet from its vertices, the element's own tabulation and a
    degree-(2k + 4) rule; edge values map by J^{-T}, curls by J / det J.
    """
    rule = tet_rule(2 * space.order + 4)
    vals, derivs = space.element.tabulate(rule.points)
    n = space.element.ndofs
    out = np.zeros(space.ndofs) if kind == "load" else np.zeros((space.ndofs, space.ndofs))
    for t, cell in enumerate(space.mesh.tets):
        v = space.mesh.vertices[cell]
        J = (v[1:] - v[0]).T
        det = np.linalg.det(J)
        dofs = space.cell_dofs[t]
        for x_hat, w, r, d in zip(rule.points, rule.weights, vals, derivs):
            r = r.reshape(n, -1)
            if kind == "curlcurl":
                phi = d @ J.T / det
            elif space.family == "edge":
                phi = np.linalg.solve(J.T, r.T).T
            else:
                phi = r
            if kind == "load":
                out[dofs] += w * abs(det) * (phi @ np.atleast_1d(f(v[0] + J @ x_hat)))
            else:
                out[np.ix_(dofs, dofs)] += w * abs(det) * (phi @ phi.T)
    return out


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "family, kind",
    [("edge", "mass"), ("edge", "curlcurl"), ("edge", "load"), ("nodal", "mass"), ("nodal", "load")],
)
def test_assembly_matches_pointwise_oracle(family, kind, order):
    mesh = jittered_cube_mesh(2, seed=21)
    space = make_space(mesh, family, order)
    f = _poly_load if family == "edge" else _poly_load_scalar
    expected = _oracle(kind, space, f)
    if kind == "mass":
        got = assemble_mass(space).to_dense()
    elif kind == "curlcurl":
        got = assemble_curlcurl(space).to_dense()
    else:
        got = assemble_load(space, f).values
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_assembly_invariant_under_tet_relabeling(cube2):
    rng = np.random.default_rng(42)
    perm = rng.permutation(cube2.num_tets)
    shuffled = Mesh(cube2.vertices.copy(), cube2.tets[perm])
    for mesh_a, mesh_b in [(cube2, shuffled)]:
        Ma = assemble_mass(make_space(mesh_a, "edge", 1)).to_dense()
        Mb = assemble_mass(make_space(mesh_b, "edge", 1)).to_dense()
        assert np.abs(Ma - Mb).max() < 1e-13
        Ca = assemble_curlcurl(make_space(mesh_a, "edge", 2)).to_dense()
        Cb = assemble_curlcurl(make_space(mesh_b, "edge", 2)).to_dense()
        assert np.abs(Ca - Cb).max() < 1e-11


def test_gradient_map_lowest_order_is_signed_incidence(cube2):
    from quadcurl import build_topology

    topo = build_topology(cube2)
    edge = make_space(cube2, "edge", 1)
    nodal = make_space(cube2, "nodal", 1)
    G = assemble_gradient_map(nodal, edge).to_dense()
    expected = np.zeros_like(G)
    for e, (a, b) in enumerate(topo.edges):
        expected[e, a] = -1.0
        expected[e, b] = 1.0
    assert np.abs(G - expected).max() < 1e-13


@pytest.mark.parametrize("order", [1, 2])
def test_gradient_map_matches_pointwise_gradient(order):
    mesh = jittered_cube_mesh(2, seed=17)
    edge = make_space(mesh, "edge", order)
    nodal = make_space(mesh, "nodal", order)
    G = assemble_gradient_map(nodal, edge)
    rng = np.random.default_rng(1)
    p = rng.standard_normal(nodal.ndofs)
    gp = DofVector(edge, G.mat @ p)
    pts = np.array([[0.25, 0.25, 0.25], [0.1, 0.3, 0.2], [0.5, 0.2, 0.1]])
    edge_vals, edge_curls = eval_cells(edge, gp, pts)
    _, nodal_grads = eval_cells(nodal, DofVector(nodal, p), pts)
    assert np.abs(edge_vals - nodal_grads).max() < 1e-11
    assert np.abs(edge_curls).max() < 1e-10


@pytest.mark.parametrize("order", [1, 2])
def test_load_of_in_space_field_is_mass_action(order, cube2):
    space = make_space(cube2, "edge", order)
    c = np.array([0.7, -0.2, 0.4])
    field = lambda x: np.cross(np.asarray(x), c)
    u = interpolate(space, field)
    M = assemble_mass(space)
    b = assemble_load(space, field)
    assert np.abs(b.values - M.mat @ u.values).max() < 1e-12


def test_load_quadrature_degree_saturated(cube2):
    space = make_space(cube2, "edge", 2)

    def f(x):
        x = np.asarray(x)
        out = np.zeros(x.shape)
        out[..., 0] = np.sin(np.pi * x[..., 1])
        out[..., 1] = np.cos(np.pi * x[..., 2])
        out[..., 2] = x[..., 0] ** 2
        return out

    b10 = assemble_load(space, f, degree=10).values
    b14 = assemble_load(space, f, degree=14).values
    assert np.abs(b10 - b14).max() < 1e-10 * np.abs(b14).max()


def test_restrict_matches_dense_indexing():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 8))
    A = A + A.T
    S = SparseMatrix.from_triplets((8, 8), *np.nonzero(A), A[np.nonzero(A)],
                                   symmetric=True)
    rows = np.array([1, 3, 6])
    cols = np.array([0, 2, 5, 7])
    sub = restrict(S, rows, cols)
    assert np.abs(sub.to_dense() - A[np.ix_(rows, cols)]).max() == 0.0
    assert not sub.symmetric
    square = restrict(S, rows)
    assert square.symmetric
    assert np.abs(square.to_dense() - A[np.ix_(rows, rows)]).max() == 0.0
    vec = restrict(DofVectorStub(A[:, 0]), rows)
    assert np.array_equal(vec, A[rows, 0])


class DofVectorStub:
    """Bare array stand-in: restrict handles plain arrays too."""

    def __init__(self, values):
        self.values = values

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


def test_from_triplets_accumulates_duplicates():
    S = SparseMatrix.from_triplets((2, 2), [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
    dense = S.to_dense()
    assert dense[0, 1] == 5.0
    assert dense[1, 0] == 1.0
    assert S.mat.nnz == 2


def test_from_triplets_rejects_out_of_range():
    with pytest.raises(SpaceError):
        SparseMatrix.from_triplets((2, 2), [0, 2], [0, 0], [1.0, 1.0])
    with pytest.raises(SpaceError):
        SparseMatrix.from_triplets((2, 2), [0], [-1], [1.0])


def test_dump_coordinate_format(tmp_path):
    S = SparseMatrix.from_triplets((3, 4), [0, 2, 1], [3, 0, 1],
                                   [1.5, -2.25, 1e-17])
    path = tmp_path / "mat.txt"
    S.dump(str(path))
    lines = path.read_text().splitlines()
    header = lines[0].split()
    assert [int(v) for v in header] == [3, 4, 3]
    rebuilt = np.zeros((3, 4))
    for ln in lines[1:]:
        r, c, v = ln.split()
        rebuilt[int(r), int(c)] = float(v)
    assert np.array_equal(rebuilt, S.to_dense())


def test_uniform_scaling_of_operators():
    """Dilating the mesh by s scales edge mass by s and curl-curl by 1/s."""
    base = generate_cube_mesh(2)
    s = 2.5
    scaled = Mesh(base.vertices * s, base.tets.copy())
    M0 = assemble_mass(make_space(base, "edge", 1)).to_dense()
    M1 = assemble_mass(make_space(scaled, "edge", 1)).to_dense()
    assert np.abs(M1 - s * M0).max() < 1e-12 * np.abs(M1).max()
    C0 = assemble_curlcurl(make_space(base, "edge", 1)).to_dense()
    C1 = assemble_curlcurl(make_space(scaled, "edge", 1)).to_dense()
    assert np.abs(C1 - C0 / s).max() < 1e-12 * np.abs(C0).max()


def test_curlcurl_rejects_mismatched_spaces(cube2):
    nodal = make_space(cube2, "nodal", 1)
    edge1 = make_space(cube2, "edge", 1)
    edge2 = make_space(cube2, "edge", 2)
    with pytest.raises(SpaceError):
        assemble_curlcurl(nodal)
    with pytest.raises(SpaceError):
        assemble_curlcurl(edge1, edge2)
    with pytest.raises(SpaceError):
        assemble_gradient_map(edge1, edge1)
    other = generate_cube_mesh(2)
    with pytest.raises(SpaceError):
        assemble_curlcurl(edge1, make_space(other, "edge", 1))


def test_rectangular_curlcurl_block(cube2):
    """Mixed constrained/unconstrained spaces give the coupling rectangle."""
    full = make_space(cube2, "edge", 1)
    constrained = make_space(cube2, "edge", 1, constrained=True)
    K = assemble_curlcurl(constrained, full)
    assert K.shape == (constrained.num_free, full.ndofs)
    C = assemble_curlcurl(full)
    dense = C.to_dense()[np.ix_(constrained.free_dofs, np.arange(full.ndofs))]
    assert np.abs(K.to_dense() - dense).max() < 1e-13
