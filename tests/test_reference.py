import numpy as np
import pytest

from quadcurl.errors import SpaceError
from quadcurl.fespace import make_space
from quadcurl.quadrature import tet_rule
from quadcurl.reference import DOFS_PER_ENTITY, get_element, ref_gradient_matrix

RNG = np.random.default_rng(42)


def interior_points(m):
    """Random strictly interior points of the reference tet."""
    pts = []
    while len(pts) < m:
        p = RNG.uniform(0.05, 0.9, 3)
        if p.sum() < 0.95:
            pts.append(p)
    return np.array(pts)


@pytest.mark.parametrize("order,ndofs", [(1, 6), (2, 20)])
def test_edge_element_dimension(order, ndofs):
    el = get_element("edge", order)
    assert el.ndofs == ndofs


@pytest.mark.parametrize("order", [1, 2])
def test_edge_duality(order):
    """DoF functionals applied to the basis give the identity matrix."""
    el = get_element("edge", order)
    dual = el.apply_functionals(lambda x: el.tabulate(x)[0])
    assert dual.shape == (el.ndofs, el.ndofs)
    assert np.abs(dual - np.eye(el.ndofs)).max() < 1e-10


def barycentric_gradients():
    # lambda_0 = 1-x-y-z, lambda_i = x_i
    return np.array([[-1.0, -1, -1], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])


def barycentric(points):
    lam = np.empty((points.shape[0], 4))
    lam[:, 1:] = points
    lam[:, 0] = 1.0 - points.sum(axis=1)
    return lam


LOCAL_EDGE_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_order1_matches_whitney_form():
    el = get_element("edge", 1)
    pts = interior_points(12)
    vals, curls = el.tabulate(pts)
    lam = barycentric(pts)
    grad = barycentric_gradients()
    for e, (a, b) in enumerate(LOCAL_EDGE_PAIRS):
        whitney = lam[:, a, None] * grad[b] - lam[:, b, None] * grad[a]
        assert np.abs(vals[:, e, :] - whitney).max() < 1e-12
        wcurl = 2.0 * np.cross(grad[a], grad[b])
        assert np.abs(curls[:, e, :] - wcurl).max() < 1e-12


@pytest.mark.parametrize("order", [1, 2])
def test_tabulated_curl_consistent_with_fd(order):
    el = get_element("edge", order)
    pts = interior_points(6)
    _, curls = el.tabulate(pts)
    h = 1e-6
    for d_out, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        ei = np.zeros(3)
        ej = np.zeros(3)
        ei[i], ej[j] = h, h
        dvj = (el.tabulate(pts + ei)[0][..., j] - el.tabulate(pts - ei)[0][..., j]) / (2 * h)
        dvi = (el.tabulate(pts + ej)[0][..., i] - el.tabulate(pts - ej)[0][..., i]) / (2 * h)
        assert np.abs((dvj - dvi) - curls[..., d_out]).max() < 1e-5


@pytest.mark.parametrize("order", [1, 2])
def test_polynomial_reproduction(order):
    """Fields known to lie in R_k are reproduced exactly from their DoFs."""
    el = get_element("edge", order)
    c = np.array([0.3, -1.1, 0.7])

    def field(x):
        x = np.asarray(x)
        base = np.broadcast_to(c, x.shape).copy()
        return base + np.cross(x, np.array([0.5, 0.25, -0.75]))

    dofs = el.apply_functionals(lambda x: field(x)[:, None, :]).ravel()
    pts = interior_points(8)
    vals, _ = el.tabulate(pts)
    recon = np.einsum("m,qmc->qc", dofs, vals)
    assert np.abs(recon - field(pts)).max() < 1e-12


def test_order2_reproduces_linear_fields():
    el = get_element("edge", 2)
    A = np.array([[0.2, -0.4, 1.0], [0.9, 0.1, -0.3], [0.5, 0.6, 0.7]])

    def field(x):
        return np.asarray(x) @ A.T + np.array([1.0, -2.0, 0.5])

    dofs = el.apply_functionals(lambda x: field(x)[:, None, :]).ravel()
    pts = interior_points(8)
    vals, curls = el.tabulate(pts)
    recon = np.einsum("m,qmc->qc", dofs, vals)
    assert np.abs(recon - field(pts)).max() < 1e-11
    curl_exact = np.array([A[2, 1] - A[1, 2], A[0, 2] - A[2, 0], A[1, 0] - A[0, 1]])
    recon_curl = np.einsum("m,qmc->qc", dofs, curls)
    assert np.abs(recon_curl - curl_exact).max() < 1e-11


@pytest.mark.parametrize("order", [1, 2])
def test_gradient_matrix_maps_nodal_gradients(order):
    """Columns of the gradient matrix are edge-DoF vectors of nodal gradients."""
    edge_el = get_element("edge", order)
    nodal_el = get_element("nodal", order)
    G = ref_gradient_matrix(order)
    assert G.shape == (edge_el.ndofs, nodal_el.ndofs)
    assert ref_gradient_matrix(order) is G and not G.flags.writeable
    pts = interior_points(10)
    vals, curls = edge_el.tabulate(pts)
    _, grads = nodal_el.tabulate(pts)
    for j in range(nodal_el.ndofs):
        recon = np.einsum("m,qmc->qc", G[:, j], vals)
        assert np.abs(recon - grads[:, j, :]).max() < 1e-11
        rcurl = np.einsum("m,qmc->qc", G[:, j], curls)
        assert np.abs(rcurl).max() < 1e-11


@pytest.mark.parametrize("order", [1, 2])
def test_gradient_matrix_stores_exact_zeros(order):
    """No roundoff in place of a zero: every entry is 0 or at least 1e-12."""
    G = np.abs(ref_gradient_matrix(order))
    assert not np.any((G > 0.0) & (G < 1e-12))
    assert np.count_nonzero(G) == {1: 12, 2: 62}[order]


def test_gradient_matrix_order1_is_signed_incidence():
    G = ref_gradient_matrix(1)
    expected = np.zeros((6, 4))
    for e, (a, b) in enumerate(LOCAL_EDGE_PAIRS):
        expected[e, a] = -1.0
        expected[e, b] = 1.0
    assert np.abs(G - expected).max() < 1e-12


def lagrange_closed_form(order, points):
    """P1 and P2 Lagrange shape functions written out: values (n, ndofs) and
    gradients (n, ndofs, 3).  Order 1: lam_v.  Order 2: lam_v (2 lam_v - 1) at
    the vertices, then 4 lam_a lam_b at the edge midpoints."""
    lam, dlam = barycentric(points), barycentric_gradients()
    if order == 1:
        return lam, np.broadcast_to(dlam, (len(points), 4, 3))
    vals = np.empty((len(points), 10))
    grads = np.empty((len(points), 10, 3))
    for v in range(4):
        vals[:, v] = lam[:, v] * (2.0 * lam[:, v] - 1.0)
        grads[:, v] = (4.0 * lam[:, v] - 1.0)[:, None] * dlam[v]
    for e, (a, b) in enumerate(LOCAL_EDGE_PAIRS):
        vals[:, 4 + e] = 4.0 * lam[:, a] * lam[:, b]
        grads[:, 4 + e] = 4.0 * (lam[:, a, None] * dlam[b] + lam[:, b, None] * dlam[a])
    return vals, grads


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("where", ["interior", "rule"])
def test_nodal_matches_closed_form(order, where):
    """The dual basis of P_k against point values is the Lagrange basis."""
    pts = interior_points(20) if where == "interior" else tet_rule(10).points
    vals, grads = get_element("nodal", order).tabulate(pts)
    want_vals, want_grads = lagrange_closed_form(order, pts)
    assert vals.shape == want_vals.shape + (1,)
    assert np.abs(vals[..., 0] - want_vals).max() <= 1e-14
    assert np.abs(grads - want_grads).max() <= 1e-14


def test_nodal_partition_of_unity():
    pts = interior_points(6)
    for order in (1, 2):
        el = get_element("nodal", order)
        vals, grads = el.tabulate(pts)
        assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(grads.sum(axis=1)).max() < 1e-12


def test_nodal_order2_kronecker_property():
    el = get_element("nodal", 2)
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    mids = np.array([(verts[a] + verts[b]) / 2 for a, b in LOCAL_EDGE_PAIRS])
    nodes = np.vstack([verts, mids])
    vals, _ = el.tabulate(nodes)
    assert np.abs(vals[..., 0] - np.eye(10)).max() < 1e-12


def test_dofs_per_entity_count_the_element_dofs():
    """4 vertices, 6 edges and 4 faces carry all of an element's DoFs."""
    assert set(DOFS_PER_ENTITY) == {(f, k) for f in ("edge", "nodal") for k in (1, 2)}
    for (family, order), (v, e, f) in DOFS_PER_ENTITY.items():
        assert 4 * v + 6 * e + 4 * f == get_element(family, order).ndofs


@pytest.mark.parametrize("family,order", [("edge", 0), ("edge", 3), ("nodal", 0),
                                          ("nodal", 3), ("face", 1)])
def test_unsupported_order_rejected(family, order, cube2):
    """DOFS_PER_ENTITY alone decides which elements and spaces exist."""
    with pytest.raises(SpaceError):
        get_element(family, order)
    with pytest.raises(SpaceError):
        make_space(cube2, family, order)
