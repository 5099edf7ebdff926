import cmath
import math

import numpy as np
import pytest

from billiard_weyl import birkhoff as bk
from billiard_weyl import orbit_terms as ot
from billiard_weyl import specfun as sf
from billiard_weyl import weyl as w
from billiard_weyl.errors import DomainError, NonConvergence


def test_flat_factors():
    a = ot.single_reflection_factors(1.0, 1.0)
    assert a.d_factor == pytest.approx(1.0 / 8.0, rel=1e-15)
    assert a.det_c == pytest.approx(1.0 / (4.0 * a.time**2), rel=1e-15)
    assert a.principal_function == pytest.approx(1.0, rel=1e-15)   # y^2/t with t = y/k
    assert a.action == pytest.approx(2.0, rel=1e-15)
    assert a.length == 2.0
    assert a.bounce_count == 1


def test_curved_factors():
    a = ot.single_reflection_factors(1.0, 1.0, 0.5)
    assert a.d_factor == pytest.approx(1.0 / 4.0, rel=1e-15)
    assert a.det_c == pytest.approx(1.0 / (4.0 * a.time**2 * 0.5), rel=1e-15)


def test_caustic_error():
    with pytest.raises(ot.CausticError):
        ot.single_reflection_factors(2.0, 1.0, 0.5)


def test_action_is_momentum_times_length():
    rng = np.random.default_rng(0)
    for _ in range(20):
        y, k = rng.uniform(0.2, 3.0, 2)
        a = ot.single_reflection_factors(y, k)
        assert a.action == pytest.approx(2.0 * k * (a.length / 2.0), rel=1e-14)


def test_amplitude_agrees_with_chain_product_route():
    # the chain's off-diagonal entry fixes both density factors:
    # |m12| = 2y(1-cy) gives D = 1/(4 k |m12|) and detC = k^2/(2 y |m12|)
    rng = np.random.default_rng(1)
    for _ in range(30):
        y = rng.uniform(0.2, 1.5)
        k = rng.uniform(0.5, 3.0)
        c = rng.uniform(-0.5, 0.5)
        spec = bk.OrbitSpec(v_perp=(1.0,), curvature=(c,), chords=(),
                            y_first=y, y_last=-y)
        m12 = abs(bk.monodromy(spec).m12)
        a = ot.single_reflection_factors(y, k, c)
        assert a.d_factor == pytest.approx(1.0 / (4.0 * k * m12), rel=1e-12)
        assert a.det_c == pytest.approx(k * k / (2.0 * y * m12), rel=1e-12)


def test_propagator_modulus_and_phase():
    for y, t in ((0.5, 0.2), (1.0, 1.0), (2.0, 0.3)):
        k = ot.single_reflection_propagator(y, t)
        assert abs(k) == pytest.approx(1.0 / (4 * math.pi * t), rel=1e-14)
    # phase pi in the exponent flips the sign against the -1/(4 i pi t) prefactor
    t = 1.0 / math.pi
    k = ot.single_reflection_propagator(1.0, t)
    assert k == pytest.approx((1.0 / (4j * math.pi * t)) * 1.0, rel=1e-12)


def test_reflection_parity_between_families():
    # one bounce: overall minus; two bounces: overall plus
    y, t, alpha = 0.8, 0.4, math.pi / 2
    k1 = ot.single_reflection_propagator(y, t)
    k2 = ot.corner_orbit_propagator(y, alpha, t)   # r sin(pi/2) = y
    assert k2 == pytest.approx(-k1, rel=1e-14)
    assert abs(k2) == pytest.approx(1.0 / (4 * math.pi * t), rel=1e-14)


def test_green_from_hankel():
    val = ot.single_reflection_green(1.0, 1.0)
    assert val == pytest.approx((-1.0 / 4j) * sf.hankel1_0(2.0), rel=1e-14)


def test_green_asymptotic_magnitude():
    for ky in (30.0, 100.0):
        val = ot.single_reflection_green(ky, 1.0)
        assert abs(val) == pytest.approx(0.25 * math.sqrt(1.0 / (math.pi * ky)),
                                         rel=2e-2 / ky * 10)


def test_green_fourier_oracle():
    for y, k in ((1.0, 1.0), (0.5, 2.0), (2.0, 3.0)):
        q = ot.green_fourier(y, k)
        exact = ot.single_reflection_green(y, k)
        assert abs(q.value - exact) <= q.error_estimate


def test_green_fourier_at_high_k_lands_within_its_estimate_or_raises():
    from scipy.special import hankel1

    # 2ky = 8 (_PANEL_BUDGET - 2) = 131056 is the last the arc's panel budget covers
    edge = 4.0 * (sf._PANEL_BUDGET - 2)
    for k in (30.0, 100.0, 300.0, 1000.0, 1e4, edge):
        q = ot.green_fourier(1.0, k)
        exact = -0.25 / 1j * hankel1(0, 2.0 * k)
        assert abs(q.value - exact) <= q.error_estimate, k
    # past it the arc of the rotated contour runs out of panels; the
    # partial result it carries is the amplitude, not the raw H0
    past = math.nextafter(edge, math.inf)
    with pytest.raises(NonConvergence) as exc:
        ot.green_fourier(1.0, past)
    with pytest.raises(NonConvergence) as raw:
        sf.hankel_time_integral(2.0 * past)
    assert exc.value.result.value == (-1.0 / 4j) * raw.value.result.value
    assert exc.value.result.error_estimate == raw.value.result.error_estimate / 4.0


def test_stationary_phase_magnitude_exact():
    for y, k in ((0.5, 1.0), (2.0, 4.0)):
        val = ot.green_stationary(y, k)
        assert abs(val) == pytest.approx(1.0 / (4.0 * math.sqrt(math.pi * k * y)),
                                         rel=1e-14)


def test_stationary_vs_uniform_asymptotic_consistency():
    # |stationary| / |uniform| -> 1, within 1/(ky) already at ky >= 5
    for ky in (5.0, 10.0, 100.0):
        r = abs(ot.green_stationary(ky, 1.0)) / abs(ot.single_reflection_green(ky, 1.0))
        assert abs(r - 1.0) < 1.0 / ky
    r10 = abs(ot.green_stationary(10.0, 1.0)) / abs(ot.single_reflection_green(10.0, 1.0))
    assert abs(r10 - 1.0) < 0.02
    r100 = abs(ot.green_stationary(100.0, 1.0)) / abs(ot.single_reflection_green(100.0, 1.0))
    assert abs(r100 - 1.0) < 0.002


def test_stationary_phase_matching_index():
    # the stored index fixes the semiclassical phase so the stationary-phase
    # amplitude (2 pi/(2 pi i)^(3/2)) sqrt(D) exp(i S - i mu pi/2) matches the
    # Hankel asymptotics of the uniform amplitude at large ky
    y, k = 40.0, 1.0
    a = ot.single_reflection_factors(y, k)
    prefactor = 2 * math.pi / (2 * math.pi * 1j) ** 1.5
    matched = prefactor * math.sqrt(a.d_factor) * cmath.exp(
        1j * a.action - 0.5j * math.pi * a.maslov)
    uniform = ot.single_reflection_green(y, k)
    assert cmath.phase(matched / uniform) == pytest.approx(0.0, abs=2e-2)
    assert abs(matched) == pytest.approx(abs(ot.green_stationary(y, k)), rel=1e-12)


def test_sqrt2_density_discrepancy_of_stationary_form():
    # closed-form strip density from the stationary amplitude overshoots the
    # uniform result by exactly sqrt(2):
    # integral of |stationary| phase factors gives L/(4 sqrt(2 E) pi) magnitude
    length, energy = 1.0, 4.0
    uniform = abs(ot.length_term_density(length, energy))
    stationary_form = length / (4.0 * math.sqrt(2.0 * energy) * math.pi)
    assert stationary_form / uniform == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_length_term_closed_form():
    assert ot.length_term_density(4.0, 4.0) == pytest.approx(-1.0 / (4 * math.pi),
                                                             rel=1e-14)
    assert ot.length_term_density(1.0, 1e12) == pytest.approx(0.0, abs=1e-7)
    assert ot.length_term_density(1.0, 1e12) < 0.0


def test_length_term_quadrature_verification():
    q = ot.length_term_density_quadrature(1.0, 4.0)
    closed = ot.length_term_density(1.0, 4.0)
    assert abs(q.value - closed) <= q.error_estimate
    assert abs(q.value - closed) / abs(closed) < 1e-10


def test_acute_corner_orbit_lengths():
    o = ot.acute_corner_orbit(math.pi / 2, 1.0, math.pi / 4)
    assert o.length == pytest.approx(2.0, rel=1e-12)
    o = ot.acute_corner_orbit(math.pi / 3, 2.0, 0.4)
    assert o.length == pytest.approx(2 * 2 * math.sin(math.pi / 3), rel=1e-12)


def test_acute_corner_orbit_obtuse_rejected():
    with pytest.raises(ot.ObtuseNoClosedOrbitError):
        ot.acute_corner_orbit(2 * math.pi / 3, 1.0, 0.3)


def test_acute_corner_orbit_image_angles():
    alpha, r, th1 = 0.9, 1.7, 0.35
    o = ot.acute_corner_orbit(alpha, r, th1)
    for pt, ang in ((o.q1, 2 * alpha - th1), (o.q2, 2 * alpha + th1),
                    (o.q_m1, -th1), (o.q_m2, -2 * alpha + th1)):
        assert math.hypot(*pt) == pytest.approx(r, rel=1e-12)
        assert math.atan2(pt[1], pt[0]) == pytest.approx(ang, abs=1e-12)


def test_acute_corner_orbit_specular_reflection():
    # incidence equals reflection at both bounce points, and the polyline
    # length equals the chord length
    alpha, r, th1 = 0.7, 1.3, 0.3
    o = ot.acute_corner_orbit(alpha, r, th1)
    src = np.array([r * math.cos(th1), r * math.sin(th1)])
    b_ob = np.array(o.bounce_on_ob)
    b_oa = np.array(o.bounce_on_oa)
    loop = [src, b_ob, b_oa, src]
    total = sum(np.linalg.norm(q - p) for p, q in zip(loop[:-1], loop[1:]))
    assert total == pytest.approx(o.length, rel=1e-10)

    def reflection_residual(p_in, vertex, p_out, normal):
        d_in = (vertex - p_in) / np.linalg.norm(vertex - p_in)
        d_out = (p_out - vertex) / np.linalg.norm(p_out - vertex)
        # specular law: the tangential component is continuous, the normal
        # component flips
        return abs((d_in @ normal) + (d_out @ normal)), np.linalg.norm(
            d_in - normal * (d_in @ normal) - (d_out - normal * (d_out @ normal)))

    n_ob = np.array([-math.sin(alpha), math.cos(alpha)])
    n_oa = np.array([0.0, 1.0])
    for res in reflection_residual(src, b_ob, b_oa, n_ob):
        assert res < 1e-10
    for res in reflection_residual(b_ob, b_oa, src, n_oa):
        assert res < 1e-10


def test_corner_orbit_propagator_scaling():
    r, alpha = 1.1, 0.8
    k = ot.corner_orbit_propagator(r, alpha, 0.7)
    assert abs(k) == pytest.approx(1.0 / (4 * math.pi * 0.7), rel=1e-14)


def test_corner_delta_quadrature_matches_closed_form():
    for alpha in (math.pi / 2, math.pi / 3, 0.7, 0.05):
        q = ot.corner_delta_by_quadrature(alpha)
        closed = alpha / (8 * math.pi * math.sin(alpha)**2)
        assert abs(q.value - closed) <= q.error_estimate, alpha
        assert q.value == pytest.approx(closed, rel=1e-10)


def test_acute_family_ends_at_the_right_angle():
    # one float past pi/2 the family is absent everywhere: corner_coeffs, the
    # corner quadrature and the orbit construction agree
    alpha = math.nextafter(math.pi / 2, 4)
    assert w.corner_coeffs(alpha).absent_reason == w.OBTUSE_NO_CLOSED_ORBIT
    with pytest.raises(ot.ObtuseNoClosedOrbitError):
        ot.corner_delta_by_quadrature(alpha)
    with pytest.raises(ot.ObtuseNoClosedOrbitError):
        ot.acute_corner_orbit(alpha, 1.0, 0.3)


def test_moment_oracles_at_small_arguments_cost_what_they_cost_at_one():
    # the Hankel moment integrates an a-free kernel, so a small corner angle or
    # energy lands within its estimate at the same evaluation count
    at_one = ot.corner_delta_by_quadrature(1.0).evaluations
    for alpha in (1e-4, 1e-5, 1e-8):
        q = ot.corner_delta_by_quadrature(alpha)
        closed = alpha / (8 * math.pi * math.sin(alpha)**2)
        assert abs(q.value - closed) <= q.error_estimate, alpha
        assert q.evaluations == at_one, alpha
    q = ot.length_term_density_quadrature(1.0, 1e-18)
    assert abs(q.value - ot.length_term_density(1.0, 1e-18)) <= q.error_estimate
    assert q.evaluations == ot.length_term_density_quadrature(1.0, 4.0).evaluations


def test_moment_scale_overflow_is_a_domain_error():
    # not an OverflowError, and no RuntimeWarning (the suite makes those errors)
    with pytest.raises(DomainError):
        ot.corner_delta_by_quadrature(1e-200)
    with pytest.raises(DomainError):
        sf.hankel0_halfline_moment(0.0, 5e-324)


def test_green_at_an_overflowing_or_underflowing_phase_is_a_domain_error():
    # 2ky = inf: not the bare ValueError of math.cos(inf); 2ky = 0: not a ZeroDivisionError
    for green in (ot.green_stationary, ot.single_reflection_green, ot.green_fourier):
        for y, k in ((1e308, 1e308), (1e-300, 1e-300)):
            with pytest.raises(DomainError):
                green(y, k)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("func, args", [
    (ot.corner_delta_by_quadrature, (-1.0,)),
    (ot.corner_delta_by_quadrature, (NAN,)),
    (ot.corner_delta_by_quadrature, (INF,)),
    (ot.acute_corner_orbit, (-1.0, 1.0, 0.5)),
    (ot.corner_orbit_propagator, (1.0, NAN, 1.0)),
    (ot.single_reflection_factors, (1.0, 1.0, NAN)),
    (ot.single_reflection_factors, (INF, 1.0)),
    (ot.single_reflection_factors, (1e-300, 1e300)),    # t = y/k underflows to 0
    (ot.single_reflection_factors, (1e300, 1e-300)),    # t overflows to inf
    (ot.single_reflection_factors, (1e200, 1.0)),       # t*t and y*y overflow
    (ot.single_reflection_factors, (1e-200, 1.0)),      # t*t and y*y/t underflow to 0
    (ot.single_reflection_propagator, (1e200, 1e-200)),
    (ot.single_reflection_propagator, (INF, 1.0)),
    (ot.single_reflection_propagator, (1.0, INF)),
    (ot.corner_orbit_propagator, (1e200, 1.0, 1e-10)),
    (ot.corner_orbit_propagator, (1.0, 1.0, INF)),
    (ot.acute_corner_orbit, (1.0, INF, 0.5)),
    (ot.acute_corner_orbit, (1.0, 1.7e308, 0.5)),
    (ot.length_term_density, (INF, 1.0)),
    (ot.length_term_density_quadrature, (INF, 1.0)),
], ids=lambda v: v.__name__ if callable(v) else ",".join(map(repr, v)))
def test_non_finite_or_out_of_domain_input_is_a_domain_error(func, args):
    # not a NaN or infinite result, a bare ValueError or OverflowError from math, and not
    # ObtuseNoClosedOrbitError for an angle that is no angle at all (alpha <= 0, NaN, inf)
    with pytest.raises(DomainError):
        func(*args)


def test_sharp_corner_oracle_stops_before_the_closed_form():
    # documented deviation: corner_coeffs answers down to alpha ~ 1.6e-162, where sin^2
    # underflows, but the oracle's moment scale (2 sin alpha)^-2 passes e^709 below ~5.5e-155,
    # so between the two the closed-form orbit coefficient has no oracle
    q = ot.corner_delta_by_quadrature(5.6e-155)
    assert abs(q.value - w.corner_coeffs(5.6e-155).orbit) <= q.error_estimate
    for alpha in (5.5e-155, 1e-158, 1e-161):
        assert w.corner_coeffs(alpha).orbit > 0
        with pytest.raises(DomainError):
            ot.corner_delta_by_quadrature(alpha)


def test_first_hankel_moment_oracle_behind_corner_quadrature():
    # the wedge reduction rests on the first half-line moment 2i/(pi a^2)
    res = sf.hankel0_halfline_moment(1.0, 3.0)
    assert abs(res.value - 2j / (math.pi * 9.0)) <= res.error_estimate
