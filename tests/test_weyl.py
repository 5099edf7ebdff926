import math

import mpmath
import numpy as np
import pytest

from billiard_weyl import geometry as g
from billiard_weyl import specfun as sf
from billiard_weyl import weyl as w
from billiard_weyl.errors import DomainError


def test_square_expansion():
    e = w.weyl_expansion(g.measures(g.square()), w.DIRICHLET)
    assert e.const_coef == pytest.approx(1.0 / (4 * math.pi), rel=1e-15)
    assert e.inv_sqrt_coef == pytest.approx(-4.0 / (8 * math.pi), rel=1e-15)
    assert e.delta_coef == pytest.approx(0.25, abs=1e-15)
    assert e.per_corner == pytest.approx((1.0 / 16,) * 4, abs=1e-15)
    assert e.flags == ()


def test_disk_expansion():
    e = w.weyl_expansion(g.measures(g.disk()), w.DIRICHLET)
    assert e.const_coef == pytest.approx(0.25, rel=1e-15)
    assert e.inv_sqrt_coef == pytest.approx(-0.25, rel=1e-15)
    assert e.delta_coef == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert e.curvature_part == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert e.corner_part == 0.0


def test_delta_coef_is_sum_of_parts():
    for b in (g.square(), g.disk(), g.rectangle(1.0, 2.0)):
        e = w.weyl_expansion(g.measures(b))
        assert e.delta_coef == pytest.approx(e.curvature_part + e.corner_part,
                                             abs=1e-14)


def test_flat_corner_contributes_nothing():
    assert w.weyl_corner_coefficient(math.pi) == pytest.approx(0.0, abs=1e-16)


def test_neumann_flips_length_sign_and_flags():
    m = g.measures(g.square())
    ed = w.weyl_expansion(m, w.DIRICHLET)
    en = w.weyl_expansion(m, w.NEUMANN)
    assert en.inv_sqrt_coef == -ed.inv_sqrt_coef
    assert en.const_coef == ed.const_coef
    assert en.curvature_part == ed.curvature_part
    assert en.corner_part == ed.corner_part
    assert w.NEUMANN_UNVERIFIED in en.flags


def test_smooth_counting_square():
    e = w.weyl_expansion(g.measures(g.square()))
    val = w.smooth_counting(e, 4 * math.pi**2)
    assert val == pytest.approx(math.pi - 2.0 + 0.25, rel=1e-14)


def test_smooth_counting_disk():
    e = w.weyl_expansion(g.measures(g.disk()))
    assert w.smooth_counting(e, 100.0) == pytest.approx(25.0 - 5.0 + 1.0 / 6.0,
                                                        rel=1e-14)


def test_smooth_counting_small_energy_limit():
    e = w.weyl_expansion(g.measures(g.square()))
    assert w.smooth_counting(e, 1e-28) == pytest.approx(e.delta_coef, abs=1e-13)
    with pytest.raises(DomainError):
        w.smooth_counting(e, 0.0)


def test_smooth_counting_increment_matches_density_quadrature():
    e = w.weyl_expansion(g.measures(g.rectangle(1.0, 1.7)))

    def density(x):
        return e.const_coef + e.inv_sqrt_coef / np.sqrt(x)

    e1, e2 = 3.0, 40.0
    quad = sf.integrate(density, e1, e2, tol=1e-12)
    diff = w.smooth_counting(e, e2) - w.smooth_counting(e, e1)
    assert diff == pytest.approx(quad.value.real, abs=1e-10)


def test_corner_coeffs_right_angle_exact():
    c = w.corner_coeffs(math.pi / 2)
    assert c.weyl == 0.0625
    assert c.orbit == pytest.approx(0.0625, abs=2e-16)
    assert c.edge_correction == pytest.approx(0.0, abs=1e-16)
    assert c.total_semiclassical == pytest.approx(0.0625, abs=2e-16)
    assert c.absent_reason is None


def test_corner_coeffs_obtuse_absent():
    c = w.corner_coeffs(2 * math.pi / 3)
    assert c.orbit is None and c.edge_correction is None
    assert c.total_semiclassical is None
    assert c.absent_reason == w.OBTUSE_NO_CLOSED_ORBIT
    assert c.weyl == pytest.approx((1.5 - 2.0 / 3.0) / 24.0, rel=1e-14)


def _linear_slope(f, d):
    # f(d) = f(0) + a d + O(d^2): Richardson one-sided extraction
    return (4.0 * f(d / 2) - f(d) - 3.0 * f(0.0)) / d


def test_corner_coeffs_slopes_near_right_angle():
    delta = 1e-3
    tot = lambda dd: w.corner_coeffs((0.5 - dd) * math.pi).total_semiclassical
    wey = lambda dd: w.corner_coeffs((0.5 - dd) * math.pi).weyl
    s_tot = _linear_slope(tot, delta)
    s_wey = _linear_slope(wey, delta)
    assert s_tot == pytest.approx(1.0 / 8.0, rel=1e-4)
    assert s_wey == pytest.approx(5.0 / 24.0, rel=1e-4)


def test_corner_coeffs_small_angle_ratio():
    c = w.corner_coeffs(1e-3)
    assert c.total_semiclassical / c.weyl == pytest.approx(9.0 / math.pi**2,
                                                           rel=1e-3)


def test_corner_coeffs_sharp_corner_keeps_every_digit():
    # sin(alpha)**2 is subnormal below ~1.5e-154; sin(alpha) = alpha in floating point here,
    # so orbit = 1/(8 pi alpha) and total = orbit + 1/(4 pi tan alpha) = 3/(8 pi alpha)
    for alpha in (1e-150, 1e-158, 1e-161):
        c = w.corner_coeffs(alpha)
        with mpmath.workdps(30):
            ref = 1 / (8 * mpmath.pi * mpmath.mpf(alpha))
            assert abs(c.orbit / ref - 1) <= 4e-16, alpha
            assert abs(c.total_semiclassical / (3 * ref) - 1) <= 4e-16, alpha


def test_weyl_coefficient_three_forms_identity():
    for alpha in np.linspace(0.05, math.pi - 0.05, 25):
        gam = math.pi / alpha
        lhs = (math.pi**2 - alpha**2) / (24 * math.pi * alpha)
        rhs1 = (gam - 1.0 / gam) / 24.0
        rhs2 = (gam * gam - 1.0) / (24.0 * gam)
        v = w.weyl_corner_coefficient(alpha)
        assert v == pytest.approx(lhs, abs=1e-14)
        assert lhs == pytest.approx(rhs1, abs=1e-14)
        assert lhs == pytest.approx(rhs2, abs=1e-14)


def test_weyl_coefficient_monotone_vanishing():
    alphas = np.linspace(math.pi / 2 + 0.01, math.pi - 1e-6, 200)
    vals = [w.weyl_corner_coefficient(a) for a in alphas]
    assert all(v > 0 for v in vals[:-1])
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] < 1e-6
