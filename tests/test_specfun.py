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
    j0, _ = sf.bessel_j0y0(zero)
    assert abs(j0) < 1e-12


def test_bessel_small_argument_limit():
    j0, y0 = sf.bessel_j0y0(1e-8)
    assert j0 == pytest.approx(1.0, abs=1e-14)
    assert y0 < -10.0  # logarithmic divergence


def test_bessel_against_series_oracle():
    j0, y0 = sf.bessel_j0y0(10.0)
    assert j0 == pytest.approx(J0_10, rel=1e-12)
    assert y0 == pytest.approx(Y0_10, rel=1e-12)
    # series oracle (no scipy) agrees at moderate argument
    for x in (0.5, 2.0, 5.0, 8.0):
        assert sf.bessel_j0y0(x)[0] == pytest.approx(j0_power_series(x), abs=1e-12)


def test_bessel_wide_range_finite():
    for x in (1e-8, 1e-3, 1.0, 50.0, 1e3, 1e6):
        j0, y0 = sf.bessel_j0y0(x)
        assert math.isfinite(j0) and math.isfinite(y0)


def test_bessel_domain_error():
    with pytest.raises(DomainError):
        sf.bessel_j0y0(0.0)
    with pytest.raises(DomainError):
        sf.bessel_j0y0(-1.0)


def test_wronskian_identity():
    # J0 Y0' - J0' Y0 = 2/(pi x), derivatives by central differences
    for x in (0.5, 1.0, 5.0, 20.0):
        h = 1e-6 * max(1.0, x)
        jp = (sf.bessel_j0y0(x + h)[0] - sf.bessel_j0y0(x - h)[0]) / (2 * h)
        yp = (sf.bessel_j0y0(x + h)[1] - sf.bessel_j0y0(x - h)[1]) / (2 * h)
        j0, y0 = sf.bessel_j0y0(x)
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


def test_halving_tolerance_does_not_drift():
    def f(x):
        return np.cos(3.0 * x) / (1.0 + x * x)

    loose = sf.integrate(f, 0.0, 10.0, tol=1e-6)
    tight = sf.integrate(f, 0.0, 10.0, tol=5e-7)
    assert abs(tight.value - loose.value) <= max(loose.error_estimate, 1e-6)


def test_damped_hankel_moments():
    # integral of H0(a z) over the half line -> 1/a
    res = sf.hankel0_halfline_moment(0.0, 2.0)
    assert res.value == pytest.approx(0.5 + 0.0j, abs=5e-6)
    # first moment -> 2i/(pi a^2)
    res = sf.hankel0_halfline_moment(1.0, 2.0)
    assert res.value == pytest.approx(2.0j / (math.pi * 4.0), abs=5e-6)


def test_hankel_time_integral_matches_closed_form():
    for x, z in ((2.0, 1.0), (5.0, 1.0), (1.0, 3.0)):
        res = sf.hankel_time_integral(x, z)
        exact = sf.hankel1_0(x * z)
        assert abs(res.value - exact) <= max(res.error_estimate * 3.0, 1e-7)


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


def test_extrapolate_to_zero():
    eps = [0.2, 0.1, 0.05, 0.025]
    vals = [1.0 + 3.0 * e + 2.0 * e * e for e in eps]
    limit, spread = sf.extrapolate_to_zero(eps, vals)
    assert limit.real == pytest.approx(1.0, abs=1e-12)
    assert spread < 1e-10
