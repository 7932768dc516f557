import numpy as np
import pytest
import scipy.sparse as sp

from checks import (assert_block_of, coo_scatter, eval_at, gram_at_degree, load_at_degree,
                    nonzero_pattern)
from meshes import five_tet_cube_mesh, jittered_cube_mesh
from quadcurl import (
    DofVector, SparseMatrix, assemble_curlcurl, assemble_gradient_map, assemble_load,
    assemble_mass, build_curlcurl_system, build_quadcurl_pencil, generate_cube_mesh,
    interpolate, make_space,
)
from quadcurl.assembly import _gram, _reference_tensor
from quadcurl.errors import SpaceError
from quadcurl.fespace import _reference_tables
from quadcurl.mesh import Mesh
from quadcurl.quadrature import tet_rule


@pytest.mark.parametrize("order", [1, 2])
def test_mass_matrix_spd(order, cube2):
    M = assemble_mass(make_space(cube2, "edge", order)).to_dense()
    # Measured: |M - M^T| <= 7.3e-17 max|M| (order 2); the two triangles of a
    # local block differ only in summation order.
    assert np.abs(M - M.T).max() <= 1e-15 * np.abs(M).max()
    w = np.linalg.eigvalsh(M)
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
    "assemble, half, order",
    [
        pytest.param(assemble_mass, 0, 1, id="1"),
        pytest.param(assemble_mass, 0, 2, id="2"),
        pytest.param(assemble_curlcurl, 1, 1, id="curlcurl-1"),
        pytest.param(assemble_curlcurl, 1, 2, id="curlcurl-2"),
    ],
)
def test_default_quadrature_degree_saturates(assemble, half, order, cube2):
    """The rules assembly uses (2k for mass, 2k - 2 for curl-curl) are exact:
    a degree-(2k + 6) Gram matrix reads the same."""
    space = make_space(cube2, "edge", order)
    default = assemble(space).to_dense()
    high = gram_at_degree(space, half, 2 * order + 6)
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


@pytest.mark.parametrize("free", [False, True])
@pytest.mark.parametrize("order", [1, 2])
def test_gradient_map_matches_triplet_reference_without_zeros(order, free):
    """One owner row per edge DoF equals scattering every tet's block, minus
    zeros, on the full layout and on a record's free rows and columns."""
    from quadcurl.reference import ref_gradient_matrix

    mesh = jittered_cube_mesh(2, seed=17)
    edge = make_space(mesh, "edge", order)
    nodal = make_space(mesh, "nodal", order)
    G = build_quadcurl_pencil(mesh, order).G0 if free else assemble_gradient_map(nodal, edge)
    assert np.all(G.mat.data != 0.0)

    g_ref = ref_gradient_matrix(order)
    ref = {}
    for t in range(mesh.num_tets):
        for i, row in enumerate(edge.cell_dofs[t]):
            for j, col in enumerate(nodal.cell_dofs[t]):
                ref.setdefault((row, col), g_ref[i, j])
    dense = np.zeros((edge.ndofs, nodal.ndofs))
    for (row, col), v in ref.items():
        dense[row, col] = v
    if free:
        dense = dense[np.ix_(edge.free_dofs, nodal.free_dofs)]
    assert G.shape == dense.shape
    assert np.abs(G.to_dense() - dense).max() <= 1e-15


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
    edge_vals, edge_curls = eval_at(gp, pts)
    _, nodal_grads = eval_at(DofVector(nodal, p), pts)
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
    """The load's SAMPLE_DEGREE rule reads a smooth load as a degree-14 rule does."""
    space = make_space(cube2, "edge", 2)

    def f(x):
        x = np.asarray(x)
        out = np.zeros(x.shape)
        out[..., 0] = np.sin(np.pi * x[..., 1])
        out[..., 1] = np.cos(np.pi * x[..., 2])
        out[..., 2] = x[..., 0] ** 2
        return out

    b10 = assemble_load(space, f).values
    b14 = load_at_degree(space, f, 14)
    assert np.abs(b10 - b14).max() < 1e-10 * np.abs(b14).max()


def test_dump_coordinate_format(tmp_path):
    S = SparseMatrix(sp.csr_matrix(([1.5, -2.25, 1e-17], ([0, 2, 1], [3, 0, 1])), shape=(3, 4)))
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
    with pytest.raises(SpaceError):
        assemble_curlcurl(nodal)
    with pytest.raises(SpaceError):
        assemble_gradient_map(edge1, edge1)


PATTERN_MESHES = {
    "jittered": lambda: jittered_cube_mesh(2, seed=5),
    "kuhn": lambda: generate_cube_mesh(2),
    "five-tet": lambda: five_tet_cube_mesh(2),
}


def test_rectangular_curlcurl_block():
    """Every record block is bitwise its rows and columns of the full-layout operator.

    K = C[:, free], M_N = M[free][:, free] (and C0, M0 likewise), G0 =
    G[free][:, nodal free] and M_M = M, against an oracle that slices no
    sparse matrix: the pattern of triplet compression over the kept rows and
    columns (of the dense slice's nonzeros for G0, which stores no zero) and
    the dense full layout's values, on Kuhn, jittered and five-tet meshes at
    orders 1 and 2.
    """
    for make_mesh in PATTERN_MESHES.values():
        for order in (1, 2):
            mesh = make_mesh()
            pen, cc = build_quadcurl_pencil(mesh, order), build_curlcurl_system(mesh, order)
            edge, nodal = pen.spaces.edge, pen.spaces.nodal
            every, free, nodal_free = np.arange(edge.ndofs), edge.free_dofs, nodal.free_dofs
            C, M = assemble_curlcurl(edge).mat, assemble_mass(edge).mat
            G = assemble_gradient_map(nodal, edge).mat
            curls, masses = _gram(edge, 1), _gram(edge, 0)
            g_pattern = nonzero_pattern(G.toarray()[np.ix_(free, nodal_free)])
            cases = [
                (pen.K, C, every, free, curls),
                (pen.M_N, M, free, free, masses),
                (pen.M_M, M, every, every, masses),
                (cc.C0, C, free, free, curls),
                (cc.M0, M, free, free, masses),
            ]
            for got, full, rows, cols, local in cases:
                want = coo_scatter(edge, local, rows, cols)
                assert_block_of(got.mat, full, rows, cols, (want.indptr, want.indices))
            for got in (pen.G0, cc.G0):
                assert_block_of(got.mat, G, free, nodal_free, g_pattern)


# --- the coupling pattern against triplet compression ----------------------

@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("mesh_name", sorted(PATTERN_MESHES))
def test_pattern_matches_triplet_compression(mesh_name, order):
    """Same indptr and indices as COO compression, data within 2 ulp of max|entry|.

    Covers the full layouts the pattern is built on; the free blocks the
    records keep are checked against the same compression by
    :func:`test_rectangular_curlcurl_block`.  Only the order in which an
    entry's contributions add may differ: the pattern adds them in element
    order, the compression in its sort order.
    """
    mesh = PATTERN_MESHES[mesh_name]()
    edge = make_space(mesh, "edge", order)
    nodal = make_space(mesh, "nodal", order)
    every, nodal_every = np.arange(edge.ndofs), np.arange(nodal.ndofs)
    cases = [
        (assemble_mass(edge), edge, every, every, _gram(edge, 0)),
        (assemble_curlcurl(edge), edge, every, every, _gram(edge, 1)),
        (assemble_mass(nodal), nodal, nodal_every, nodal_every, _gram(nodal, 0)),
    ]
    for got, space, row_dofs, col_dofs, local in cases:
        want = coo_scatter(space, local, row_dofs, col_dofs)
        assert got.shape == want.shape
        assert np.array_equal(got.mat.indptr, want.indptr)
        assert np.array_equal(got.mat.indices, want.indices)
        ulp = np.spacing(np.abs(want.data).max())
        assert np.abs(got.mat.data - want.data).max() <= 2 * ulp


@pytest.mark.parametrize("family, order", [("edge", 1), ("edge", 2), ("nodal", 2)])
def test_coupling_slot_map_hits_every_entry_once(family, order):
    """Each local entry (t, i, j) lands on the stored pair (dof_ti, dof_tj),
    every stored pair is hit, and as often as tets share it."""
    mesh = jittered_cube_mesh(2, seed=9)
    space = make_space(mesh, family, order)
    pattern = space.coupling
    dofs = space.cell_dofs
    T, n = dofs.shape
    assert pattern.slot.shape == (T, n, n)
    rows = np.repeat(np.arange(space.ndofs), np.diff(pattern.indptr))
    assert np.array_equal(rows[pattern.slot], np.broadcast_to(dofs[:, :, None], (T, n, n)))
    assert np.array_equal(pattern.indices[pattern.slot], np.broadcast_to(dofs[:, None, :], (T, n, n)))
    hits = np.bincount(pattern.slot.ravel(), minlength=pattern.nnz)
    shared = sp.coo_matrix((np.ones(T * n * n), (np.broadcast_to(dofs[:, :, None], (T, n, n)).ravel(),
                                                 np.broadcast_to(dofs[:, None, :], (T, n, n)).ravel())),
                           shape=(space.ndofs,) * 2).tocsr()
    assert hits.min() >= 1
    assert np.array_equal(hits, shared.data)
    # Pairs that share a tet are symmetric, so is the pattern.
    P = sp.csr_matrix((np.ones(pattern.nnz), pattern.indices, pattern.indptr), shape=shared.shape)
    assert (P != P.T).nnz == 0


@pytest.mark.parametrize("family, order", [("edge", 1), ("edge", 2), ("nodal", 1), ("nodal", 2)])
@pytest.mark.parametrize("half", [0, 1])
def test_reference_tensor_is_the_contraction_of_the_cached_table(family, order, half):
    """R is bitwise the contraction of the cached table at the exact rule,
    degree 2k - 2 half, read-only, and one object per (family, order, half)."""
    degree = 2 * order - 2 * half
    rule = tet_rule(degree)
    ref = _reference_tables(family, order, degree)[half]
    _, n, c = ref.shape
    want = np.einsum("q,qia,qjb->abij", rule.weights, ref, ref).reshape(c * c, n * n)
    R = _reference_tensor(family, order, half)
    assert R.dtype == want.dtype and np.array_equal(R, want)
    assert not R.flags.writeable
    assert _reference_tensor(family, order, half) is R
