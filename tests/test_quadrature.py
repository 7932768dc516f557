import math

import numpy as np
import pytest

from quadcurl import segment_rule, tet_rule, triangle_rule
from quadcurl.errors import QuadratureError


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
