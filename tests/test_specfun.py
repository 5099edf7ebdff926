import collections
import hashlib
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from billiard_weyl import specfun as sf
from billiard_weyl.errors import DomainError, NonConvergence

# frozen from a 30-digit mpmath run (independent of the numpy evaluation)
J0_10 = -0.245935764451348335197760862485
Y0_10 = 0.0556711672835993914244598774102
FIRST_J0_ZERO = 2.404825557695773


def j0_power_series(x: float, terms: int = 200) -> float:
    """Independent oracle: compensated power-series sum for J0."""
    t = 1.0
    out = [1.0]
    for k in range(1, terms):
        t *= -(x * x / 4.0) / (k * k)
        out.append(t)
    return math.fsum(out)


def test_bessel_at_first_zero():
    # locate the zero by bisection on the series, then check j0 there
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if j0_power_series(lo) * j0_power_series(mid) <= 0:
            hi = mid
        else:
            lo = mid
    zero = 0.5 * (lo + hi)
    assert zero == pytest.approx(FIRST_J0_ZERO, abs=1e-14)
    assert abs(sf.hankel1_0(zero).real) < 1e-12


def test_bessel_small_argument_limit():
    h = sf.hankel1_0(1e-8)
    j0, y0 = h.real, h.imag
    assert j0 == pytest.approx(1.0, abs=1e-14)
    assert y0 < -10.0  # logarithmic divergence


def test_bessel_against_series_oracle():
    h = sf.hankel1_0(10.0)
    j0, y0 = h.real, h.imag
    assert j0 == pytest.approx(J0_10, rel=1e-12)
    assert y0 == pytest.approx(Y0_10, rel=1e-12)
    # power-series oracle agrees at moderate argument
    for x in (0.5, 2.0, 5.0, 8.0):
        assert sf.hankel1_0(x).real == pytest.approx(j0_power_series(x), abs=1e-12)


def test_bessel_wide_range_finite():
    for x in (1e-8, 1e-3, 1.0, 50.0, 1e3, 1e6):
        h = sf.hankel1_0(x)
        assert math.isfinite(h.real) and math.isfinite(h.imag)


def test_bessel_domain_error():
    # H0 and its time integral take the same finite x > 0
    for x in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            sf.hankel1_0(x)
        with pytest.raises(DomainError):
            sf.hankel_time_integral(x)


# either side of x = 25, where Hankel's expansion takes over from Bessel's integral
BESSEL_POINTS = (0.0, 1e-300, 1e-8, 0.5, FIRST_J0_ZERO, 10.0, 24.99, 25.0, 25.01, 100.0,
                 316.2, 1e4)


def test_bessel_j0_j1_against_mpmath():
    j0, j1 = sf.bessel_j0_j1(np.array(BESSEL_POINTS))
    for x, v0, v1 in zip(BESSEL_POINTS, j0, j1):
        assert abs(v0 - float(mpmath.besselj(0, x))) <= 4e-15, x
        assert abs(v1 - float(mpmath.besselj(1, x))) <= 4e-15, x


def test_hankel1_0_against_mpmath():
    # absolute below |H0| = 1, relative above it (Y0 diverges like ln x at 0)
    for x in BESSEL_POINTS[1:]:
        h = sf.hankel1_0(x)
        ref = complex(mpmath.hankel1(0, x))
        assert abs(h - ref) <= 4e-15 * max(1.0, abs(ref)), x
        assert h.real == sf.bessel_j0_j1(x)[0], x


@pytest.mark.parametrize("x", [6e307, 1e308, 1.7976931348623157e308])
def test_hankel_expansion_holds_up_to_the_float_maximum(x):
    # pi x overflows from x = 5.73e307 on; Hankel's expansion divides by sqrt(pi x) all the
    # same.  |H0| bounds both parts, so the bound is relative to it.
    with mpmath.workdps(30):
        ref = complex(mpmath.hankel1(0, x))
        ref_j1 = float(mpmath.besselj(1, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = sf.hankel1_0(x)
        j0, j1 = sf.bessel_j0_j1(np.array([x]))
    assert abs(h - ref) <= 4e-16 * abs(ref)
    assert abs(j0[0] - ref.real) <= 4e-16 * abs(ref)
    assert abs(j1[0] - ref_j1) <= 4e-16 * abs(ref)


def test_bessel_j0_j1_does_not_depend_on_the_batch():
    x = np.random.default_rng(23).uniform(0.0, 50.0, 200)
    assert np.any(x < 25.0) and np.any(x >= 25.0)
    j0, j1 = sf.bessel_j0_j1(x)
    for xi, v0, v1 in zip(x, j0, j1):
        one0, one1 = sf.bessel_j0_j1(xi)
        assert one0 == v0 and one1 == v1, xi


def test_wronskian_identity():
    # J0 Y0' - J0' Y0 = 2/(pi x), derivatives by central differences
    for x in (0.5, 1.0, 5.0, 20.0):
        h = 1e-6 * max(1.0, x)
        jp = (sf.hankel1_0(x + h).real - sf.hankel1_0(x - h).real) / (2 * h)
        yp = (sf.hankel1_0(x + h).imag - sf.hankel1_0(x - h).imag) / (2 * h)
        j0, y0 = sf.hankel1_0(x).real, sf.hankel1_0(x).imag
        assert j0 * yp - jp * y0 == pytest.approx(2.0 / (math.pi * x), abs=1e-10)


def test_hankel_magnitude_and_asymptotics():
    h = sf.hankel1_0(10.0)
    assert 0.24 < abs(h) < 0.26
    assert abs(h) == pytest.approx(math.sqrt(2.0 / (10.0 * math.pi)), rel=0.01)
    # leading asymptotic form beyond x = 10
    for x in (15.0, 40.0, 200.0):
        lead = math.sqrt(2.0 / (math.pi * x)) * np.exp(1j * (x - math.pi / 4.0))
        assert abs(sf.hankel1_0(x) - lead) / abs(lead) < 1.0 / x


def test_hankel_components():
    h = sf.hankel1_0(FIRST_J0_ZERO)
    assert abs(h.real) < 1e-12
    h = sf.hankel1_0(1e-6)
    assert h.real == pytest.approx(1.0, abs=1e-9)
    assert h.imag < -5.0
    # real arguments only: a complex one is refused, never truncated
    for z in (2.0 + 0.5j, 2.0 + 0j):
        with pytest.raises(TypeError):
            sf.hankel1_0(z)


def test_integrate_polynomial():
    res = sf.integrate(lambda x: x**2, np.array([0.0, 1.0]))
    assert res.value.real == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.error_estimate < 1e-10
    assert res.evaluations >= 15


def test_integrate_deterministic():
    def f(x):
        return np.sin(17.3 * x) * np.exp(-0.2 * x)

    r1 = sf.integrate(f, np.linspace(0.0, 30.0, 31))
    r2 = sf.integrate(f, np.linspace(0.0, 30.0, 31))
    assert r1.value == r2.value           # bit-identical
    assert r1.evaluations == r2.evaluations


def test_panel_budget_error_carries_result(monkeypatch):
    # w = 100 needs 15 arc panels: past a budget of 8 the partial H0 is the leg's alone
    monkeypatch.setattr(sf, "_PANEL_BUDGET", 8)
    with pytest.raises(NonConvergence) as exc:
        sf.hankel_time_integral(100.0)
    assert exc.value.result is not None
    assert exc.value.result.error_estimate > 0
    assert abs(exc.value.result.value - sf.hankel1_0(100.0)) <= exc.value.result.error_estimate


def _seeded_integrands():
    """(f, lo, hi, tol) cases: polynomials, oscillations and Hankel kernels."""
    from scipy.special import hankel1

    rng = np.random.default_rng(9)
    real = np.polynomial.Polynomial(rng.standard_normal(30))
    cplx = np.polynomial.Polynomial(rng.standard_normal(25) + 1j * rng.standard_normal(25))
    cases = [
        pytest.param(real, -1.0, 1.3, 1e-10, id="real polynomial"),
        pytest.param(cplx, -0.7, 1.1, 1e-12, id="complex polynomial"),
        pytest.param(lambda x: np.sin(17.3 * x) * np.exp(-0.2 * x), 0.0, 30.0, 1e-10,
                     id="damped sine"),
    ]
    # damped oscillatory Hankel kernels on their damped tail cuts
    for xz, eps in zip(rng.uniform(0.5, 12.0, 2),
                       rng.choice((0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625), 2)):
        w = xz * complex(1.0, eps)
        s_max = math.acosh(max(sf._TAIL_LOG / (xz * eps), 2.0))
        cases.append(pytest.param(lambda s, w=w: np.exp(1j * w * np.cosh(s)), 0.0, s_max, 1e-9,
                                  id=f"exp(i w cosh s), w={w:.4g}"))
    for mu, a, eps in zip(rng.uniform(0.0, 1.0, 2), rng.uniform(0.5, 4.0, 2), (0.2, 0.025)):
        aa = a * complex(1.0, eps)
        cases.append(pytest.param(lambda z, mu=mu, aa=aa: z**mu * hankel1(0, aa * z),
                                  0.0, sf._TAIL_LOG / (a * eps), 1e-8,
                                  id=f"z**{mu:.3f} H0(a z), a={aa:.4g}"))
    for alpha, eps in zip(rng.uniform(0.05, math.pi / 2, 2), (0.64, 0.08)):
        a = 2.0 * complex(0.0, eps) ** 0.5 * math.sin(alpha)
        cases.append(pytest.param(lambda rr, a=a: rr * hankel1(0, a * rr),
                                  0.0, sf._TAIL_LOG / a.imag, 1e-8, id=f"rr H0(a rr), a={a:.4g}"))
    # the arc and the imaginary-time leg of hankel_time_integral, and the
    # rotated-contour moment of hankel0_halfline_moment, at seeded parameters
    for w in 10.0 ** rng.uniform(-3.0, 3.0, 2):
        cases.append(pytest.param(lambda phi, w=w: np.exp(1j * w * np.cos(phi)),
                                  0.0, 0.5 * math.pi, 1e-9, id=f"exp(i w cos phi), w={w:.4g}"))
        log_w = math.log(w)
        cases.append(pytest.param(
            lambda t, w=w, log_w=log_w: np.exp(-0.5 * (np.exp(t + log_w) - w * np.exp(-t))),
            0.0, math.log(2.0 * sf._TAIL_LOG + w) - log_w, 1e-9, id=f"exp(-w sinh t), w={w:.4g}"))
    for mu, a in zip((0.0, 1.0), 10.0 ** rng.uniform(-1.0, 2.0, 2)):
        cases.append(pytest.param(lambda y, mu=mu, a=a: y**mu * hankel1(0, 1j * a * y),
                                  0.0, sf._TAIL_LOG / a, 1e-9,
                                  id=f"y**{mu:g} H0(i a y), a={a:.4g}"))
    return cases


@pytest.mark.parametrize("f,lo,hi,tol", _seeded_integrands())
def test_fixed_panels_match_an_adaptive_reference(f, lo, hi, tol):
    # the fewest of 1, 4, ..., 1024 equal panels, with 40 halving panels towards lo for
    # the log and power singularities there, that bring the estimate within tol
    from scipy.integrate import quad

    shapes = []

    def recorded(x):
        shapes.append(x.shape)
        return f(x)

    for n in 4 ** np.arange(6):
        h = (hi - lo) / n
        edges = np.unique(np.concatenate([lo + h * 2.0 ** -np.arange(40.0, 0.0, -1.0),
                                          np.linspace(lo, hi, n + 1)]))
        shapes.clear()
        res = sf.integrate(recorded, edges)
        if res.error_estimate <= tol:
            break
    assert res.error_estimate <= tol, n
    # one call of f, on both rules' nodes of every panel at once
    panels = edges.size - 1
    assert shapes == [(panels * (sf._NODES_HI + sf._NODES_LO),)]
    assert res.evaluations == panels * (sf._NODES_HI + sf._NODES_LO)
    # QUADPACK's adaptive integral lies within the two estimates
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref, ref_err = quad(f, lo, hi, complex_func=True, epsabs=1e-14, epsrel=1e-14,
                            limit=20000)
    assert abs(res.value - ref) <= res.error_estimate + abs(ref_err)


def test_halving_panels_does_not_drift():
    def f(x):
        return np.cos(3.0 * x) / (1.0 + x * x)

    coarse = sf.integrate(f, np.linspace(0.0, 10.0, 3))
    assert coarse.error_estimate < 1e-6
    for n in (2, 4, 8, 16):
        fine = sf.integrate(f, np.linspace(0.0, 10.0, 2 * n + 1))
        assert abs(fine.value - coarse.value) <= coarse.error_estimate, n
        coarse = fine


def test_damped_hankel_moments():
    # integral of H0(a z) over the half line -> 1/a, first moment -> 2i/(pi a^2);
    # for any mu > -1, i^(mu+1) a^(-mu-1) (2/(i pi)) 2^(mu-1) Gamma((mu+1)/2)^2
    # (H0(i u) = (2/(i pi)) K0(u) and DLMF 10.43.19)
    def closed(mu, a):
        return (1j ** (mu + 1.0) * a ** (-mu - 1.0) * (2.0 / (1j * math.pi))
                * 2.0 ** (mu - 1.0) * math.gamma(0.5 * (mu + 1.0)) ** 2)

    for a in (0.1, 2.0, 200.0):
        cases = [(0.0, 1.0 / a), (1.0, 2.0j / (math.pi * a * a))]
        cases += [(mu, closed(mu, a)) for mu in (-0.999, -0.9, -0.5, 0.5, 3.0, 10.0, 20.0, 50.0)]
        for mu, exact in cases:
            res = sf.hankel0_halfline_moment(mu, a)
            assert abs(res.value - exact) <= res.error_estimate, (mu, a)
    # a^(-mu-1) alone underflows at (150, 1e3), where the moment is 3.7159e-192
    for mu, a in ((150.0, 1e3), (100.0, 1e3)):
        exact = complex(1j ** (mu + 1.0) * mpmath.power(a, -mu - 1.0) * (2.0 / (1j * mpmath.pi))
                        * mpmath.power(2.0, mu - 1.0) * mpmath.gamma(0.5 * (mu + 1.0)) ** 2)
        res = sf.hankel0_halfline_moment(mu, a)
        assert abs(res.value - exact) <= res.error_estimate, (mu, a)


@pytest.fixture
def uncached_k0_moments():
    sf._k0_moment.cache_clear()
    yield
    sf._k0_moment.cache_clear()


def test_halfline_moment_integrates_each_order_once(monkeypatch, uncached_k0_moments):
    integrate = sf.integrate
    calls = []

    def counted(f, edges):
        calls.append(edges)
        return integrate(f, edges)

    monkeypatch.setattr(sf, "integrate", counted)
    edges = np.linspace(0.0, 20.0, 41)
    for mu in (0.0, 1.0, 0.5):
        # Gamma(mu+1) times sech^(mu+1) on [0, 20], plus its exponential tail
        m1 = mu + 1.0
        ref = integrate(lambda t: np.cosh(t) ** -m1, edges)
        factor = (2.0 / (1j * math.pi)) * math.gamma(m1)
        k0 = factor * (ref.value + 2.0**m1 * math.exp(-20.0 * m1) / m1)
        k0_err = abs(factor) * ref.error_estimate + 1e-14 * abs(k0)
        for a in (0.1, 2.0, 200.0, 0.1):
            half = a ** (-0.5 * m1)
            assert sf.hankel0_halfline_moment(mu, a) == sf.QuadratureResult(
                1j ** m1 * k0 * half * half, k0_err * half * half,
                ref.evaluations), (mu, a)       # bit-identical, cached or not
    assert len(calls) == 3
    assert all(np.array_equal(c, edges) for c in calls)


@pytest.mark.parametrize("mu", [-1.0, -1.5, -math.inf, math.inf, math.nan, 200.0])
def test_halfline_moment_rejects_a_divergent_order(mu, uncached_k0_moments):
    # int_0^inf u^mu K0(u) du diverges at 0 for mu <= -1; a non-finite mu has no moment,
    # and Gamma(mu+1) overflows past mu = 170.6
    with pytest.raises(DomainError, match="mu="):
        sf.hankel0_halfline_moment(mu, 2.0)
    assert sf._k0_moment.cache_info().currsize == 0


def test_halfline_moment_refuses_a_moment_past_the_float_range():
    # a^(-mu-1) = 1e151 and Gamma(151) ~ 6e262 are in range, their product is not
    assert math.isfinite(abs(sf.hankel0_halfline_moment(150.0, 1.0).value))
    with pytest.raises(DomainError, match="mu="):
        sf.hankel0_halfline_moment(150.0, 0.1)


def test_halfline_moment_refuses_a_moment_that_underflows():
    # the first moment 2/(pi a^2) is 6.4e-307 at a = 1e153, subnormal at 1e155 and 0 at 1e170
    assert sf.hankel0_halfline_moment(1.0, 1e153).value.imag == pytest.approx(
        2.0 / (math.pi * 1e306), rel=1e-14)
    for mu, a in ((1.0, 1e155), (1.0, 1e170), (150.0, 1e300)):
        with pytest.raises(DomainError, match="mu="):
            sf.hankel0_halfline_moment(mu, a)


def test_hankel_time_integral_matches_closed_form():
    # the rotated contour holds H0 within its own estimate from the bottom of the
    # float range (where scipy's complex hankel1 gives NaN, but hankel1_0 does not)
    # to 1e5
    for x, z in ((1e-310, 1.0), (0.2, 1.0), (2.0, 6.0), (200.0, 1.0), (1e4, 1.0), (1.0, 1e5)):
        res = sf.hankel_time_integral(x * z)
        exact = sf.hankel1_0(x * z)
        assert abs(res.value - exact) <= res.error_estimate, (x, z)


@pytest.mark.parametrize("w", [2e16, 1e17, 1e300, 1.7976931348623157e308])
def test_hankel_time_integral_past_the_leg_cut_keeps_a_finite_partial(w):
    # from w ~ 1e16 on the leg's cut ln(2 _TAIL_LOG + w) - ln w rounds to 0; the arc
    # runs out of panels there, and the partial H0 it carries stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence) as exc:
            sf.hankel_time_integral(w)
    part = exc.value.result
    assert math.isfinite(abs(part.value)) and math.isfinite(part.error_estimate), w
    assert abs(part.value - sf.hankel1_0(w)) <= part.error_estimate, w


@pytest.mark.parametrize("w", [1e14, 1e15, 3e15])
def test_imaginary_time_leg_holds_its_exponent_where_the_cut_is_positive(w, monkeypatch):
    # w*leg = 1 - O(1/w^2); taken as the difference exp(t + ln w) - w exp(-t), w sinh t
    # cancels here, and w*leg reads 3.21 at 1e15 and 390 at 3e15, far outside its estimate
    calls = []
    integrate = sf.integrate
    monkeypatch.setattr(sf, "integrate",
                        lambda *args: calls.append(integrate(*args)) or calls[-1])
    with pytest.raises(NonConvergence):     # the arc runs out of panels
        sf.hankel_time_integral(w)
    leg = calls[0]
    assert abs(w * leg.value - 1.0) <= w * leg.error_estimate, w


# the last w whose arc the panel budget covers: ceil(w/8) + 2 = _PANEL_BUDGET panels
ARC_EDGE = 8.0 * (sf._PANEL_BUDGET - 2)


def test_time_integral_estimate_bounds_the_error_across_w():
    # the rounding term of the estimate is needed: the 20- against 14-node difference alone
    # falls short of the error at rounding level for some w
    ws = np.geomspace(5e-324, ARC_EDGE, 150)
    assert ws[0] > 0.0 and ws[-1] == ARC_EDGE == 131056.0
    for w in ws.tolist():
        res = sf.hankel_time_integral(w)
        assert abs(res.value - sf.hankel1_0(w)) <= res.error_estimate, w


@pytest.mark.parametrize("w", [math.nextafter(ARC_EDGE, math.inf), 1e300,
                               1.7976931348623157e308])
def test_time_integral_past_the_arc_edge_keeps_a_bounded_partial(w):
    # past the budget the arc is never integrated: no array grows with w (15,128 bytes
    # traced just past the edge, against 31 MB for the arc at the edge itself)
    sf.hankel_time_integral(1.0)            # numpy's first-use allocations
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence) as exc:
                sf.hankel_time_integral(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    part = exc.value.result
    assert math.isfinite(abs(part.value)) and math.isfinite(part.error_estimate), w
    assert abs(part.value - sf.hankel1_0(w)) <= part.error_estimate, w
    assert peak < 64 * 1024, peak


# sha256 of float.hex over (value.real, value.imag, error_estimate, evaluations) of each
# call, recorded with the 20- and 14-node sums taken one rule at a time
HANKEL_PINS = {
    "hankel_time_integral": "25936a4d8395d003847afd57a3a6858e66b4bb6bc2e8747b37a3309035c21234",
    "hankel0_halfline_moment": "8f5b45f48b82e03b3cc7464938f0dd36aca4fa48aa1c4c1696efdb180ae92615",
}
PINNED_W = [5e-324, *(math.ldexp(1.3, e) for e in (-60, -40, -20, -10, -6, -4, -3, -2, -1, 0,
                                                    1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16)),
            1.3e5]
PINNED_MU_A = [(-0.999, 0.3), (-0.5, 2.5), (0.0, 1.0), (0.25, 40.0), (0.5, 0.3), (1.0, 2.5),
               (1.5, 1.0), (2.0, 7.0), (3.0, 0.1), (5.0, 1.0), (10.0, 0.5), (20.0, 3.0),
               (50.0, 1.0), (100.0, 2.0), (150.0, 1e3), (170.0, 1.0)]


@pytest.mark.parametrize("name", sorted(HANKEL_PINS))
def test_hankel_integrals_are_pinned(name, uncached_k0_moments):
    if name == "hankel_time_integral":
        results = [sf.hankel_time_integral(w) for w in PINNED_W]
    else:
        results = [sf.hankel0_halfline_moment(mu, a) for mu, a in PINNED_MU_A]
    text = " ".join(float.hex(float(x)) for q in results
                    for x in (q.value.real, q.value.imag, q.error_estimate, q.evaluations))
    assert hashlib.sha256(text.encode()).hexdigest() == HANKEL_PINS[name]


def test_every_quadrature_builds_one_rule_per_node_count(monkeypatch, uncached_k0_moments):
    # the oracles, the broken path and the corner constant share the cached Gauss-Legendre
    # rules: numpy builds each node count once per process, however often it is used
    from billiard_weyl import folding
    from billiard_weyl import orbit_terms as ot

    leggauss = np.polynomial.legendre.leggauss
    built = collections.Counter()

    def counted(n):
        built[n] += 1
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    sf._legendre_rule.cache_clear()
    for _ in range(2):
        ot.green_fourier(1.0, 1.0)
        ot.green_fourier(0.5, 30.0)
        ot.length_term_density_quadrature(1.0, 4.0)
        ot.corner_delta_by_quadrature(1.0)
        folding.broken_path_propagator(1.0, 0.3, math.pi / 2, 0.2)
        folding.obtuse_corner_constant(2.0944, grid=1)
        folding.obtuse_corner_constant(1.0, grid=2)
        sf._k0_moment.cache_clear()
    assert {sf._NODES_HI, sf._NODES_LO} <= built.keys()
    assert max(built.values()) == 1, built


def test_gauss_legendre_panels_share_one_read_only_rule():
    xs, ws = sf._legendre_rule(7)
    assert sf._legendre_rule(7)[0] is xs
    with pytest.raises(ValueError):
        xs[0] = 0.0
    with pytest.raises(ValueError):
        ws[0] = 0.0
    # seven nodes per panel integrate degree 13 exactly
    nodes, weights = sf.gauss_legendre(np.array([0.0, 1.0, 3.0]), 7)
    assert len(nodes) == 14
    assert weights @ nodes**13 == pytest.approx(3.0**14 / 14, rel=1e-13)
    # panels run along the last axis: each row equals its 1-D call bit for bit
    rows = np.array([[0.0, 1.0, 3.0], [-2.0, 0.5, 0.5], [0.1, 0.2, 7.0]])
    nodes, weights = sf.gauss_legendre(rows, 7)
    assert nodes.shape == weights.shape == (3, 14)
    for edges, row_nodes, row_weights in zip(rows, nodes, weights):
        one_nodes, one_weights = sf.gauss_legendre(edges, 7)
        assert np.array_equal(row_nodes, one_nodes)
        assert np.array_equal(row_weights, one_weights)

