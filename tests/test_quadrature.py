import math

import numpy as np
import pytest

from quadcurl import segment_rule, tet_rule, triangle_rule
from quadcurl.errors import QuadratureError
from quadcurl.quadrature import MAX_DEGREE, _gauss_jacobi01


def tet_monomial_exact(a, b, c):
    """Integral of x^a y^b z^c over the reference tetrahedron."""
    return (math.factorial(a) * math.factorial(b) * math.factorial(c)
            / math.factorial(a + b + c + 3))


def tri_monomial_exact(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(0, 11))
def test_tet_rule_exactness(degree):
    rule = tet_rule(degree)
    x, y, z = rule.points.T
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                got = float(np.dot(rule.weights, x**a * y**b * z**c))
                exact = tet_monomial_exact(a, b, c)
                assert abs(got - exact) <= 1e-13 * exact + 1e-16, \
                    (a, b, c, got, exact)


def test_tet_rule_volume():
    for degree in (0, 3, 7, 12):
        rule = tet_rule(degree)
        assert abs(rule.weights.sum() - 1.0 / 6.0) < 1e-14


def test_tet_points_strictly_inside():
    rule = tet_rule(8)
    x, y, z = rule.points.T
    assert (x > 0).all() and (y > 0).all() and (z > 0).all()
    assert (x + y + z < 1).all()
    assert (rule.weights > 0).all()


@pytest.mark.parametrize("degree", range(0, 9))
def test_triangle_rule_exactness(degree):
    rule = triangle_rule(degree)
    x, y = rule.points.T
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float(np.dot(rule.weights, x**a * y**b))
            assert abs(got - tri_monomial_exact(a, b)) < 1e-14, (a, b)


def test_triangle_rule_area():
    assert abs(triangle_rule(5).weights.sum() - 0.5) < 1e-14


@pytest.mark.parametrize("degree", range(0, 12))
def test_segment_rule_exactness(degree):
    rule = segment_rule(degree)
    s = rule.points.ravel()
    for a in range(degree + 1):
        got = float(np.dot(rule.weights, s**a))
        assert abs(got - 1.0 / (a + 1)) < 1e-14, a


def test_rule_metadata():
    rule = tet_rule(5)
    assert rule.degree >= 5
    assert rule.num_points == rule.points.shape[0] == rule.weights.size


def test_negative_degree_rejected():
    with pytest.raises(QuadratureError):
        tet_rule(-1)


def test_excessive_degree_rejected():
    with pytest.raises(QuadratureError):
        tet_rule(100)


def test_tet_rule_built_once_and_read_only():
    rule = tet_rule(10)
    assert tet_rule(10) is rule
    with pytest.raises(ValueError):
        rule.points[0, 0] = 0.5
    with pytest.raises(ValueError):
        rule.weights[0] = 0.5


def _explicit_rules(degree):
    """The tet, triangle and segment conical products written out one by one."""
    n = degree // 2 + 1
    a, wa = _gauss_jacobi01(n, 2)
    b, wb = _gauss_jacobi01(n, 1)
    c, wc = _gauss_jacobi01(n, 0)
    A, B, C = np.meshgrid(a, b, c, indexing="ij")
    tet = (np.stack([A.ravel(), (B * (1.0 - A)).ravel(),
                     (C * (1.0 - A) * (1.0 - B)).ravel()], axis=1),
           (wa[:, None, None] * wb[None, :, None] * wc[None, None, :]).ravel())
    A, B = np.meshgrid(b, c, indexing="ij")
    tri = (np.stack([A.ravel(), (B * (1.0 - A)).ravel()], axis=1),
           (wb[:, None] * wc[None, :]).ravel())
    return tet, tri, (c[:, None], wc)


def test_collapsed_rules_match_explicit_products_bitwise():
    for degree in range(MAX_DEGREE + 1):
        rules = (tet_rule(degree), triangle_rule(degree), segment_rule(degree))
        for rule, (pts, w) in zip(rules, _explicit_rules(degree)):
            assert rule.points.shape == pts.shape, degree
            assert np.array_equal(rule.points, pts) and np.array_equal(rule.weights, w), degree
            assert not rule.points.flags.writeable and not rule.weights.flags.writeable
