import math

import numpy as np
import pytest

from billiard_weyl import specfun as sf
from billiard_weyl.errors import DomainError, NonConvergence

# frozen from a 30-digit mpmath run (independent of the scipy backing)
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
    # series oracle (no scipy) agrees at moderate argument
    for x in (0.5, 2.0, 5.0, 8.0):
        assert sf.hankel1_0(x).real == pytest.approx(j0_power_series(x), abs=1e-12)


def test_bessel_wide_range_finite():
    for x in (1e-8, 1e-3, 1.0, 50.0, 1e3, 1e6):
        h = sf.hankel1_0(x)
        assert math.isfinite(h.real) and math.isfinite(h.imag)


def test_bessel_domain_error():
    with pytest.raises(DomainError):
        sf.hankel1_0(0.0)
    with pytest.raises(DomainError):
        sf.hankel1_0(-1.0)


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
    res = sf.integrate(lambda x: x**2, 0.0, 1.0, tol=1e-12)
    assert res.value.real == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.error_estimate < 1e-10
    assert res.evaluations >= 15


def test_integrate_deterministic():
    def f(x):
        return np.sin(17.3 * x) * np.exp(-0.2 * x)

    r1 = sf.integrate(f, 0.0, 30.0, tol=1e-10)
    r2 = sf.integrate(f, 0.0, 30.0, tol=1e-10)
    assert r1.value == r2.value           # bit-identical
    assert r1.evaluations == r2.evaluations


def test_integrate_budget_error_carries_result(monkeypatch):
    def nasty(x):
        return np.sin(1.0 / (x + 1e-12))

    monkeypatch.setattr(sf, "_PANEL_BUDGET", 8)
    with pytest.raises(NonConvergence) as exc:
        sf.integrate(nasty, 0.0, 1.0, tol=1e-14)
    assert exc.value.result is not None
    assert exc.value.result.error_estimate > 0


def _depth_first_integrate(f, lo, hi, tol):
    """The depth-first G7-K15 integrator that level-order ``integrate`` replaced.

    Same panels, rule and acceptance test, one panel per call of ``f``;
    returns the result and how many panels it evaluated at each depth.
    """
    total_len = hi - lo
    values, errors, per_depth = [], [], {}
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        y = np.asarray(f(mid + half * sf._NODES))
        vk = half * np.sum(sf._WEIGHTS_K * y)
        err = abs(vk - half * np.sum(sf._WEIGHTS_G * y[np.arange(1, 15, 2)]))
        per_depth[depth] = per_depth.get(depth, 0) + 1
        width = b - a
        if err <= tol * max(width / total_len, 1e-3) or width <= 1e-14 * total_len:
            values.append(complex(vk))
            errors.append(err)
        else:
            m = 0.5 * (a + b)
            stack.append((m, b, depth + 1))
            stack.append((a, m, depth + 1))
    value = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    result = sf.QuadratureResult(value, math.fsum(errors), 15 * sum(per_depth.values()))
    return result, [per_depth[d] for d in range(len(per_depth))]


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
def test_level_order_matches_depth_first_integrator(f, lo, hi, tol):
    shapes = []

    def recorded(x):
        shapes.append(x.shape)
        return f(x)

    ref, per_depth = _depth_first_integrate(f, lo, hi, tol)
    res = sf.integrate(recorded, lo, hi, tol)
    assert len(per_depth) > 1                              # some panel was bisected
    assert res.value == ref.value                          # bit-identical
    assert res.evaluations == ref.evaluations
    assert res.error_estimate == pytest.approx(ref.error_estimate, rel=1e-14, abs=0.0)
    # one call of f per bisection level, on every pending panel of that level at once
    assert shapes == [(n, 15) for n in per_depth]


def test_halving_tolerance_does_not_drift():
    def f(x):
        return np.cos(3.0 * x) / (1.0 + x * x)

    loose = sf.integrate(f, 0.0, 10.0, tol=1e-6)
    tight = sf.integrate(f, 0.0, 10.0, tol=5e-7)
    assert abs(tight.value - loose.value) <= max(loose.error_estimate, 1e-6)


def test_damped_hankel_moments():
    # integral of H0(a z) over the half line -> 1/a, first moment -> 2i/(pi a^2)
    for a in (0.1, 2.0, 200.0):
        for mu, exact in ((0.0, 1.0 / a), (1.0, 2.0j / (math.pi * a * a))):
            res = sf.hankel0_halfline_moment(mu, a)
            assert abs(res.value - exact) <= res.error_estimate, (mu, a)


def test_hankel_time_integral_matches_closed_form():
    # the rotated contour holds H0 within its own estimate from the bottom of the
    # float range (where scipy's complex hankel1 gives NaN, but j0 and y0 do not)
    # to 1e5
    for x, z in ((1e-310, 1.0), (0.2, 1.0), (2.0, 6.0), (200.0, 1.0), (1e4, 1.0), (1.0, 1e5)):
        res = sf.hankel_time_integral(x * z)
        exact = sf.hankel1_0(x * z)
        assert abs(res.value - exact) <= res.error_estimate, (x, z)


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

