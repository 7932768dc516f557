import os

import numpy as np
import pytest

from checks import eval_at, physical_points
from meshes import five_tet_cube_mesh, jittered_cube_mesh
from quadcurl import (
    DofVector, Mesh, build_topology, generate_cube_mesh, integrate_errors,
    interpolate, make_space, read_gmsh,
)
from quadcurl import fespace
from quadcurl.errors import SpaceError
from quadcurl.fespace import SAMPLE_DEGREE, map_points, reference_basis
from quadcurl.manufactured import smooth_field
from quadcurl.mesh import LOCAL_FACES
from quadcurl.quadrature import tet_rule

REF_PTS = np.array([[0.25, 0.25, 0.25], [0.1, 0.2, 0.3], [0.55, 0.1, 0.15],
                    [0.05, 0.6, 0.1]])


def test_edge_space_dof_counts(cube2):
    topo = build_topology(cube2)
    E, F = topo.edges.shape[0], topo.faces.shape[0]
    assert make_space(cube2, "edge", 1).ndofs == E == 98
    assert make_space(cube2, "edge", 2).ndofs == 2 * E + 2 * F == 436
    assert make_space(cube2, "nodal", 1).ndofs == 27
    assert make_space(cube2, "nodal", 2).ndofs == 27 + E


def test_constrained_counts(cube2, cube3):
    assert make_space(cube2, "edge", 1, constrained=True).num_free == 26
    assert make_space(cube3, "edge", 1, constrained=True).num_free == 117
    assert make_space(cube2, "nodal", 1, constrained=True).num_free == 1
    assert make_space(cube3, "nodal", 1, constrained=True).num_free == 8
    assert make_space(cube2, "edge", 2, constrained=True).num_free == 196
    # nodal order 2 frees interior vertices and interior edges
    assert make_space(cube2, "nodal", 2, constrained=True).num_free == 1 + 26


def _layout_oracle(mesh, family, order):
    """(ndofs, cell_dofs, free_dofs) written out per (family, order), entity by entity."""
    topo = mesh.topology
    E, F, V = topo.num_edges, topo.num_faces, mesh.num_vertices
    emask, fmask, vmask = topo.boundary_edges, topo.boundary_faces, topo.boundary_vertices
    if family == "edge" and order == 1:
        ndofs, cell_dofs, free = E, topo.tet_edges.copy(), ~emask
    elif family == "edge":
        ndofs = 2 * E + 2 * F
        cell_dofs = np.empty((mesh.num_tets, 20), dtype=np.int64)
        cell_dofs[:, 0:12:2] = 2 * topo.tet_edges
        cell_dofs[:, 1:12:2] = 2 * topo.tet_edges + 1
        cell_dofs[:, 12::2] = 2 * E + 2 * topo.tet_faces
        cell_dofs[:, 13::2] = 2 * E + 2 * topo.tet_faces + 1
        free = np.empty(ndofs, dtype=bool)
        free[0 : 2 * E : 2] = free[1 : 2 * E : 2] = ~emask
        free[2 * E :: 2] = free[2 * E + 1 :: 2] = ~fmask
    elif order == 1:
        ndofs, cell_dofs, free = V, mesh.tets.copy(), ~vmask
    else:
        ndofs = V + E
        cell_dofs = np.hstack([mesh.tets, V + topo.tet_edges])
        free = np.concatenate([~vmask, ~emask])
    return ndofs, cell_dofs, np.flatnonzero(free)


def _ball_mesh():
    with open(os.path.join(os.path.dirname(__file__), "data", "ball_h03.msh")) as fh:
        return read_gmsh(fh.read())


@pytest.mark.parametrize("family,order", [("edge", 1), ("edge", 2), ("nodal", 1), ("nodal", 2)])
@pytest.mark.parametrize("make_mesh", [
    pytest.param(lambda: generate_cube_mesh(2), id="kuhn"),
    pytest.param(lambda: five_tet_cube_mesh(2), id="five-tet"),
    pytest.param(lambda: jittered_cube_mesh(2, seed=7), id="jittered"),
    pytest.param(_ball_mesh, id="ball"),
])
def test_layout_matches_written_out_branches(make_mesh, family, order):
    """The DOFS_PER_ENTITY layout is bitwise the one written out per (family, order)."""
    mesh = make_mesh()
    ndofs, cell_dofs, free_dofs = _layout_oracle(mesh, family, order)
    for constrained in (False, True):
        space = make_space(mesh, family, order, constrained)
        assert space.ndofs == ndofs
        for got, want in ((space.cell_dofs, cell_dofs), (space.free_dofs, free_dofs)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_unconstrained_active_is_all(cube2):
    space = make_space(cube2, "edge", 1)
    assert space.num_active == space.ndofs
    assert np.array_equal(space.active_dofs, np.arange(space.ndofs))


@pytest.mark.parametrize("order", [1, 2])
def test_constant_field_reproduced(order):
    mesh = jittered_cube_mesh(2, seed=5)
    space = make_space(mesh, "edge", order)
    c = np.array([1.0, -2.0, 0.5])
    vec = interpolate(space, lambda x: np.broadcast_to(c, np.asarray(x).shape).copy())
    vals, curls = eval_at(vec, REF_PTS)
    assert np.abs(vals - c).max() < 1e-11
    assert np.abs(curls).max() < 1e-10


@pytest.mark.parametrize("order", [1, 2])
def test_rotational_field_reproduced(order):
    """x -> x cross c lies in the lowest-order space; curl is -2c."""
    mesh = generate_cube_mesh(2)
    space = make_space(mesh, "edge", order)
    c = np.array([0.4, 1.3, -0.6])
    vec = interpolate(space, lambda x: np.cross(np.asarray(x), c))
    vals, curls = eval_at(vec, REF_PTS)
    phys = physical_points(mesh, REF_PTS)
    assert np.abs(vals - np.cross(phys, c)).max() < 1e-11
    assert np.abs(curls - (-2.0 * c)).max() < 1e-10


def test_order2_reproduces_general_linear():
    mesh = jittered_cube_mesh(2, seed=9)
    space = make_space(mesh, "edge", 2)
    A = np.array([[0.3, 1.2, -0.1], [0.7, -0.5, 0.2], [0.0, 0.8, 1.1]])
    b = np.array([0.2, -0.9, 0.4])
    vec = interpolate(space, lambda x: np.asarray(x) @ A.T + b)
    vals, _ = eval_at(vec, REF_PTS)
    phys = physical_points(mesh, REF_PTS)
    assert np.abs(vals - (phys @ A.T + b)).max() < 1e-10


def test_map_points_returns_one_readonly_array_per_rule():
    """Every caller in a source solve gets the same read-only array that owns
    its memory: the manufactured fields key their shared trig table on it."""
    mesh = jittered_cube_mesh(2, seed=4)
    X = map_points(mesh, SAMPLE_DEGREE)
    assert map_points(mesh, SAMPLE_DEGREE) is X
    assert not X.flags.writeable and X.base is None
    assert map_points(mesh, 2) is not X
    assert np.array_equal(map_points(mesh, SAMPLE_DEGREE), X)


def test_nodal_interpolation_exact_for_polynomials(cube2):
    s1 = make_space(cube2, "nodal", 1)
    v1 = interpolate(s1, lambda x: 2.0 * x[..., 0] - x[..., 2] + 1.0)
    vals, grads = eval_at(v1, REF_PTS)
    phys = physical_points(cube2, REF_PTS)
    assert np.abs(vals - (2 * phys[..., 0] - phys[..., 2] + 1)).max() < 1e-12
    assert np.abs(grads - np.array([2.0, 0.0, -1.0])).max() < 1e-12

    s2 = make_space(cube2, "nodal", 2)

    def q(x):
        x = np.asarray(x)
        return x[..., 0] * x[..., 1] + x[..., 2] ** 2

    v2 = interpolate(s2, q)
    vals2, _ = eval_at(v2, REF_PTS)
    assert np.abs(vals2 - q(phys)).max() < 1e-11


@pytest.mark.parametrize("order", [1, 2])
def test_tangential_continuity_across_interior_faces(order):
    """The jump of the tangential trace vanishes on interior faces."""
    mesh = jittered_cube_mesh(2, seed=13)
    topo = build_topology(mesh)
    space = make_space(mesh, "edge", order)
    rng = np.random.default_rng(0)
    vec = DofVector(space, rng.standard_normal(space.ndofs))

    # One point per local face, with fixed weights on the face's ascending
    # vertices: two tets sharing a face both see it at the same physical point.
    corners = np.vstack([np.zeros(3), np.eye(3)])
    pts = np.einsum("k,fkd->fd", [0.55, 0.25, 0.20], corners[LOCAL_FACES])
    vals, _ = eval_at(vec, pts)
    phys = physical_points(mesh, pts)

    # Sorted by face, an interior face's two (tet, local face) slots sit side by side.
    slots = np.argsort(topo.tet_faces.ravel(), kind="stable")
    faces = topo.tet_faces.ravel()[slots]
    pair = np.flatnonzero(faces[1:] == faces[:-1])
    interior = faces[pair]
    assert len(interior) == np.count_nonzero(~topo.boundary_faces)
    sides = [(vals[s // 4, s % 4], phys[s // 4, s % 4]) for s in (slots[pair], slots[pair + 1])]
    assert np.abs(sides[0][1] - sides[1][1]).max() < 1e-14

    tri = mesh.vertices[topo.faces[interior]]
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    jump = sides[0][0] - sides[1][0]
    normal_jump = (jump * normal).sum(axis=1, keepdims=True)
    assert np.abs(normal_jump).max() > 1e-2  # the normal trace is free to jump
    assert np.abs(jump - normal_jump * normal).max() < 1e-10


def _single_random_tet():
    verts = np.random.default_rng(3).uniform(-1.0, 2.0, (4, 3))
    if np.linalg.det(verts[1:] - verts[0]) < 0:
        verts[[1, 2]] = verts[[2, 1]]
    return Mesh(verts, np.array([[0, 1, 2, 3]]))


@pytest.mark.parametrize("family,order", [
    pytest.param("edge", 1, id="1"), pytest.param("edge", 2, id="2"),
    pytest.param("nodal", 1, id="nodal-1"), pytest.param("nodal", 2, id="nodal-2"),
])
@pytest.mark.parametrize("mesh_cell", [
    pytest.param(lambda: (_single_random_tet(), 0), id="random-tet"),
    pytest.param(lambda: (jittered_cube_mesh(2), 17), id="jittered-cell"),
])
def test_interpolation_commutes_with_covariant_pullback(family, order, mesh_cell):
    """A cell's global DoFs of f are the reference DoFs of the pulled-back field:
    x_hat -> J^T f(x_0 + J x_hat) for the edge family, f(x_0 + J x_hat) for the nodal."""
    mesh, t = mesh_cell()
    space = make_space(mesh, family, order)

    def f(x):
        x, y, z = np.moveaxis(np.asarray(x), -1, 0)
        if family == "nodal":
            return np.sin(2.0 * y) * np.exp(z) + np.cos(x + 3.0 * z)
        return np.stack([np.sin(2.0 * y) * np.exp(z), np.cos(x + 3.0 * z),
                         np.exp(x * y) - z], axis=-1)

    x0, J = mesh.vertices[mesh.tets[t, 0]], mesh.jac[t]

    def pulled_back(xh):
        fx = f(x0 + xh @ J.T)
        return (fx @ J)[:, None, :] if family == "edge" else fx[:, None, None]

    # Same rule on both sides: the reference dual basis integrates at 2k + 2.
    got = interpolate(space, f, degree=2 * order + 2).values[space.cell_dofs[t]]
    want = space.element.apply_functionals(pulled_back)[:, 0]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_embed_scatters_free_dofs(cube2):
    space = make_space(cube2, "edge", 1, constrained=True)
    active = np.arange(1.0, space.num_free + 1)
    full = space.embed(active)
    assert full.values.shape == (space.ndofs,)
    assert np.count_nonzero(full.values) == space.num_free
    bmask = np.ones(space.ndofs, dtype=bool)
    bmask[space.free_dofs] = False
    assert np.abs(full.values[bmask]).max() == 0.0


def test_interpolation_error_decreases():
    def u(x):
        x = np.asarray(x)
        s = np.sin(np.pi * x)
        out = np.empty(x.shape)
        out[..., 0] = s[..., 1] * s[..., 2]
        out[..., 1] = s[..., 2] * s[..., 0]
        out[..., 2] = s[..., 0] * s[..., 1]
        return out

    errs = []
    for n in (2, 4):
        mesh = generate_cube_mesh(n)
        space = make_space(mesh, "edge", 1)
        vec = interpolate(space, u)
        e0, _ = integrate_errors(vec, exact_value=u)
        errs.append(e0)
    assert errs[1] < 0.65 * errs[0]


def test_integrate_errors_zero_for_exact_field(cube2):
    space = make_space(cube2, "edge", 1)
    c = np.array([0.3, 0.1, -0.2])
    vec = interpolate(space, lambda x: np.cross(np.asarray(x), c))
    e0, e1 = integrate_errors(vec,
                              exact_value=lambda x: np.cross(np.asarray(x), c),
                              exact_deriv=lambda x: np.broadcast_to(
                                  -2.0 * c, np.asarray(x).shape).copy())
    assert e0 < 1e-12
    assert e1 < 1e-12


def _exact_fields(family):
    """(value, derivative) of a smooth field of the family: the curl or the gradient."""
    if family == "edge":
        return smooth_field()

    def value(x):
        return np.sin(np.pi * x[..., 0]) * np.cos(x[..., 1]) + x[..., 2] ** 2

    def grad(x):
        return np.stack([np.pi * np.cos(np.pi * x[..., 0]) * np.cos(x[..., 1]),
                         -np.sin(np.pi * x[..., 0]) * np.sin(x[..., 1]),
                         2.0 * x[..., 2]], axis=-1)

    return value, grad


def _summed_axis_errors(vec, exact_value, exact_deriv, degree=10):
    """Both norms with the squares reduced by .sum(axis=2): the oracle of the fused norm."""
    mesh = vec.space.mesh
    rule = tet_rule(degree)
    vals, derivs = eval_at(vec, rule.points)
    X = map_points(mesh, degree)
    absdet = np.abs(mesh.jac_det)

    def norm(v):
        sq = (v * v).reshape(len(absdet), len(rule.weights), -1).sum(axis=2)
        return float(np.sqrt(absdet @ sq @ rule.weights))

    return norm(vals - exact_value(X)), norm(derivs - exact_deriv(X))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("family", ["edge", "nodal"])
def test_fused_norm_bitwise_equals_summed_axis(family, order):
    """Each norm, computed alone or with the other, is bitwise the .sum(axis=2) formula's.

    On the whole mesh a reordered sum of the squares rarely reaches the last
    bit of the norm, so each tet is also checked alone with a one-point rule.
    """
    mesh = jittered_cube_mesh(2, seed=5)
    value, deriv = _exact_fields(family)
    rng = np.random.default_rng(order)
    cells = [Mesh(mesh.vertices[tet], np.array([[0, 1, 2, 3]])) for tet in mesh.tets]
    for m, degree in [(mesh, 10)] + [(cell, 1) for cell in cells]:
        space = make_space(m, family, order)
        vec = DofVector(space, rng.standard_normal(space.ndofs))
        want = _summed_axis_errors(vec, value, deriv, degree)
        assert integrate_errors(vec, value, deriv, degree) == want
        assert integrate_errors(vec, exact_value=value, degree=degree) == (want[0], None)
        assert integrate_errors(vec, exact_deriv=deriv, degree=degree) == (None, want[1])


@pytest.mark.parametrize("skipped", [0, 1])
def test_none_exact_field_is_neither_evaluated_nor_integrated(cube2, skipped, monkeypatch):
    """A None exact field leaves its half of u_h unevaluated and its slot None."""
    vec = interpolate(make_space(cube2, "edge", 2), smooth_field()[0])
    both = integrate_errors(vec, *smooth_field())
    halves = []
    cell_field = fespace._cell_field

    def recording_cell_field(v, degree, half):
        halves.append(half)
        return cell_field(v, degree, half)

    def raising(x):
        raise AssertionError("the kept exact field is called")

    monkeypatch.setattr(fespace, "_cell_field", recording_cell_field)
    fields = [raising, raising]
    fields[skipped] = None
    with pytest.raises(AssertionError, match="kept exact field"):
        integrate_errors(vec, *fields)
    assert halves == [1 - skipped]

    halves.clear()
    fields = list(smooth_field())
    fields[skipped] = None
    errors = integrate_errors(vec, *fields)
    assert errors[skipped] is None and errors[1 - skipped] == both[1 - skipped]
    assert halves == [1 - skipped]
    assert integrate_errors(vec) == (None, None)
    assert halves == [1 - skipped]


def test_dofvector_length_checked(cube2):
    space = make_space(cube2, "edge", 1)
    with pytest.raises(SpaceError):
        DofVector(space, np.zeros(space.ndofs + 1))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("family", ["edge", "nodal"])
def test_reference_tables_cached_read_only(family, order, cube2):
    """Tables are tabulated once per (family, order, degree) and cannot be written."""
    space = make_space(cube2, family, order)
    points = tet_rule(SAMPLE_DEGREE).points
    vals, derivs = reference_basis(space, SAMPLE_DEGREE)
    fresh_vals, fresh_derivs = space.element.tabulate(points)
    assert np.array_equal(vals, fresh_vals.reshape(vals.shape[:2] + (-1,)))
    assert np.array_equal(derivs, fresh_derivs)
    assert vals.shape[:2] == derivs.shape[:2] == (len(points), space.element.ndofs)

    again = reference_basis(make_space(cube2, family, order, constrained=True), SAMPLE_DEGREE)
    assert again[0] is vals and again[1] is derivs
    for table in (vals, derivs):
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0

    other = reference_basis(space, 2)
    assert other[0].shape[0] == tet_rule(2).num_points
    assert np.array_equal(other[1], space.element.tabulate(tet_rule(2).points)[1])


def test_mapped_points_memoized_read_only():
    """The mesh keeps its last mapping under its degree: equal to a fresh one
    and not writable."""
    mesh = jittered_cube_mesh(2, seed=3)
    points = tet_rule(SAMPLE_DEGREE).points
    mapped = map_points(mesh, SAMPLE_DEGREE)
    fresh = map_points(Mesh(mesh.vertices, mesh.tets), SAMPLE_DEGREE)
    assert mapped is not fresh and np.array_equal(mapped, fresh)
    by_hand = mesh.vertices[mesh.tets[:, :1]] + np.einsum("tij,qj->tqi", mesh.jac, points)
    assert np.abs(mapped - by_hand).max() <= 1e-15
    assert map_points(mesh, SAMPLE_DEGREE) is mapped
    with pytest.raises(ValueError):
        mapped[0, 0, 0] = 1.0

    other = map_points(mesh, 2)
    assert other.shape == (mesh.num_tets, tet_rule(2).num_points, 3)
    assert not other.flags.writeable
    assert np.array_equal(map_points(mesh, SAMPLE_DEGREE), mapped)
