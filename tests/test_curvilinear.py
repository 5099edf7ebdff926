import math

import numpy as np
import pytest

from billiard_weyl import curvilinear as cv
from billiard_weyl.errors import DomainError


def test_axis_maps_to_itself():
    m = cv.FlattenMap(1.1)
    assert cv.flatten(m, 0.7, 0.0) == pytest.approx((0.7, 0.0), abs=1e-15)


def test_straight_angle_is_identity():
    m = cv.FlattenMap(math.pi)
    for u, v in ((0.3, -0.2), (1.5, 0.9), (0.01, 0.5)):
        assert cv.flatten(m, u, v) == pytest.approx((u, v), rel=1e-14)


def test_singular_at_origin():
    m = cv.FlattenMap(1.0)
    with pytest.raises(cv.SingularPointError):
        cv.flatten(m, 0.0, 0.0)
    with pytest.raises(DomainError):
        cv.flatten(m, -0.1, 0.2)


def test_gamma_pair():
    m = cv.FlattenMap(0.9)
    assert m.gamma * m.gamma_bar == pytest.approx(1.0, rel=1e-16)


def test_unit_jacobian_numeric():
    rng = np.random.default_rng(0)
    for alpha in (0.6, 1.1, 2.0, 2.9):
        m = cv.FlattenMap(alpha)
        for _ in range(50):
            u = rng.uniform(0.2, 2.0)
            v = rng.uniform(-1.0, 1.0)
            h = 1e-6
            xu = np.array(cv.flatten(m, u + h, v))
            xd = np.array(cv.flatten(m, u - h, v))
            yu = np.array(cv.flatten(m, u, v + h))
            yd = np.array(cv.flatten(m, u, v - h))
            jac = np.column_stack([(xu - xd) / (2 * h), (yu - yd) / (2 * h)])
            assert abs(np.linalg.det(jac) - 1.0) < 1e-8


def test_round_trip():
    m = cv.FlattenMap(1.3)
    rng = np.random.default_rng(1)
    for _ in range(30):
        u = rng.uniform(0.1, 2.0)
        v = rng.uniform(-1.5, 1.5)
        x, y = cv.flatten(m, u, v)
        u2, v2 = cv.unflatten(m, x, y)
        assert (u2, v2) == pytest.approx((u, v), rel=1e-12)


def test_area_preservation_of_rectangles():
    # image area of a rectangle away from the origin, by fine polyline
    # shoelace: the testable content of the unit Jacobian
    for alpha in (0.8, 1.6, 2.4):
        m = cv.FlattenMap(alpha)
        u0, u1, v0, v1 = 0.5, 1.2, -0.4, 0.3
        n = 1500
        us = np.linspace(u0, u1, n)
        vs = np.linspace(v0, v1, n)
        path = ([(u, v0) for u in us] + [(u1, v) for v in vs]
                + [(u, v1) for u in us[::-1]] + [(u0, v) for v in vs[::-1]])
        pts = np.array([cv.flatten(m, u, v) for u, v in path])
        area = 0.5 * np.sum(pts[:-1, 0] * pts[1:, 1] - pts[1:, 0] * pts[:-1, 1])
        area += 0.5 * (pts[-1, 0] * pts[0, 1] - pts[0, 0] * pts[-1, 1])
        expect = (u1 - u0) * (v1 - v0)
        assert abs(area - expect) < 1e-6 * expect


def test_corner_coeff_identity_values():
    lhs, rhs1, rhs2 = cv.corner_coeff_identity(math.pi / 2)
    assert lhs == pytest.approx(1.0 / 16, abs=1e-14)
    assert rhs1 == pytest.approx(1.0 / 16, abs=1e-14)
    assert rhs2 == pytest.approx(1.0 / 16, abs=1e-14)
    lhs, rhs1, rhs2 = cv.corner_coeff_identity(math.pi / 3)
    assert lhs == pytest.approx(1.0 / 9, rel=1e-13)
    for alpha in np.linspace(0.05, math.pi - 1e-6, 40):
        lhs, rhs1, rhs2 = cv.corner_coeff_identity(float(alpha))
        assert abs(lhs - rhs1) < 1e-14 * max(1.0, abs(lhs))
        assert abs(lhs - rhs2) < 1e-14 * max(1.0, abs(lhs))


def test_near_straight_angle_identity_goes_to_zero():
    lhs, _, _ = cv.corner_coeff_identity(math.pi - 1e-9)
    assert abs(lhs) < 1e-9


def _laplacian_fd(f, p, h):
    x, y = p
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
            - 4.0 * f(x, y)) / (h * h)


def test_laplacian_perturbation_scales_with_gamma_squared_minus_one():
    # structural check: the difference between the true Laplacian in the
    # wedge coordinates and the flat (u, v) Laplacian, applied to a smooth
    # test function, scales linearly in (gamma^2 - 1) near gamma = 1
    def f_uv(u, v):
        return math.exp(-((u - 1.2) ** 2 + (v - 0.1) ** 2))

    p_uv = (1.0, 0.25)
    h = 1e-4
    flat = _laplacian_fd(f_uv, p_uv, h)

    devs = []
    gammas = 1.0 + np.array([0.02, 0.04, 0.08, 0.16])
    for gam in gammas:
        m = cv.FlattenMap(math.pi / gam)

        def f_xy(x, y, m=m):
            u, v = cv.unflatten(m, x, y)
            return f_uv(u, v)

        p_xy = cv.flatten(m, *p_uv)
        curved = _laplacian_fd(f_xy, p_xy, h)
        devs.append(abs(curved - flat))
    devs = np.array(devs)
    eps = gammas**2 - 1.0
    slope = np.polyfit(np.log(eps), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)
