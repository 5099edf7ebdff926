import math
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from billiard_weyl import folding as fl
from billiard_weyl import ledger
from billiard_weyl import weyl as w
from billiard_weyl.errors import DomainError

PI = math.pi

# Exact folded-Gaussian decomposition of each signature, derived analytically
# from the per-axis factors (alpha, beta) of integral_0^X integral_0^inf
# exp(-[(x s1 x0)^2 + (x s2 x0)^2]/(4 tau)) = alpha X + beta:
#   (-,-): alpha = sqrt(2 pi tau), beta = -tau
#   (+,+): alpha = 0,              beta = +tau
#   (+,-)/(-,+): alpha = 0,        beta = pi tau / 2
# assembled per signature with sign (-1)^bounces.  Length in per-side units
# of 1/(8 sqrt(pi T)), area in units of 1/(4 pi T), T = 2 tau.
EXACT_GAUSSIAN = {
    "----": (1.0, -2.0 / PI, 1.0 / (16 * PI**2)),
    "-+-+": (0.0, 1.0 / PI, -1.0 / (16 * PI**2)),
    "+-+-": (0.0, 1.0 / PI, -1.0 / (16 * PI**2)),
    "+---": (0.0, -0.5, 1.0 / (32 * PI)),
    "-+--": (0.0, -0.5, 1.0 / (32 * PI)),
    "--+-": (0.0, -0.5, 1.0 / (32 * PI)),
    "---+": (0.0, -0.5, 1.0 / (32 * PI)),
    "+--+": (0.0, 0.0, 1.0 / 64),
    "-++-": (0.0, 0.0, 1.0 / 64),
    "++--": (0.0, 0.0, 1.0 / 64),
    "--++": (0.0, 0.0, 1.0 / 64),
    "+++-": (0.0, 0.0, -1.0 / (32 * PI)),
    "++-+": (0.0, 0.0, -1.0 / (32 * PI)),
    "+-++": (0.0, 0.0, -1.0 / (32 * PI)),
    "-+++": (0.0, 0.0, -1.0 / (32 * PI)),
    "++++": (0.0, 0.0, 1.0 / (16 * PI**2)),
}


def _sig(s: str) -> ledger.SignSignature:
    return ledger.SignSignature(*s)


def test_ledger_exact_totals():
    # the exact Dirichlet quadrant trace A/(4 pi T) - L/(8 sqrt(pi T)) + 1/16
    led = ledger.signature_ledger()
    assert led.total_area == Fraction(1)
    assert led.total_length == ledger.DeltaValue(const=Fraction(-2))
    assert led.total_delta.const == Fraction(1, 16)
    assert led.total_delta.over_pi == 0
    assert led.total_delta.over_pi2 == 0
    assert led.total_delta.value() == w.weyl_corner_coefficient(PI / 2)


def test_ledger_tabulated_entries():
    led = {str(e.signature): e for e in ledger.signature_ledger().entries}
    assert led["----"].area_units == 1
    assert led["----"].length_units == ledger.DeltaValue(over_pi=Fraction(-2))
    assert led["----"].delta_units == ledger.DeltaValue(over_pi2=Fraction(1, 16))
    for s in ("-+-+", "+-+-"):
        assert led[s].length_units == ledger.DeltaValue(over_pi=Fraction(1))
        assert led[s].delta_units == ledger.DeltaValue(over_pi2=Fraction(-1, 16))
    for s in ("+---", "-+--", "--+-", "---+"):
        assert led[s].length_units == ledger.DeltaValue(const=Fraction(-1, 2))
        assert led[s].delta_units == ledger.DeltaValue(over_pi=Fraction(1, 32))
    for s in ("+--+", "-++-", "++--", "--++"):
        assert led[s].delta_units == ledger.DeltaValue(const=Fraction(1, 64))
    for s in ("+++-", "++-+", "+-++", "-+++"):
        assert led[s].delta_units == ledger.DeltaValue(over_pi=Fraction(-1, 32))
    assert led["++++"].delta_units == ledger.DeltaValue(over_pi2=Fraction(1, 16))


def test_ledger_neumann_parity():
    led_d = ledger.signature_ledger(w.DIRICHLET)
    led_n = ledger.signature_ledger(w.NEUMANN)
    assert "DERIVED-ONLY" in led_n.flags
    for ed, en in zip(led_d.entries, led_n.entries):
        flip = -1 if ed.signature.bounce_count % 2 == 1 else 1
        assert en.length_units.value() == flip * ed.length_units.value()
        assert en.delta_units.value() == pytest.approx(
            flip * ed.delta_units.value(), abs=1e-16)
    # even-bounce entries and the area are untouched, so the delta total is
    # preserved while the length total flips the odd part
    assert led_n.total_delta.value() == pytest.approx(
        led_d.total_delta.value(), abs=1e-16)
    assert led_n.total_area == led_d.total_area
    # Neumann quadrant trace: A/(4 pi T) + L/(8 sqrt(pi T)) + 1/16
    assert led_n.total_length == ledger.DeltaValue(const=Fraction(2))
    assert led_n.total_delta == ledger.DeltaValue(const=Fraction(1, 16))


def test_oracle_matches_exact_gaussian_decomposition():
    # every signature's folded-Gaussian decomposition, against the frozen
    # analytic values, at two unrelated tau (the decomposition must be
    # tau-independent)
    for tau in (0.17, 0.31):
        for s, (area, length, delta) in EXACT_GAUSSIAN.items():
            got = fl.signature_oracle(_sig(s), tau=tau)
            assert got["area_units"] == pytest.approx(area, abs=2e-7), s
            assert got["length_units"] == pytest.approx(length, abs=2e-7), s
            assert got["delta_units"] == pytest.approx(delta, abs=2e-7), s


def test_oracle_builds_at_most_three_grids_and_is_scale_free():
    # each axis line is one tau-free grid per sorted sign pair, scaled by
    # sqrt(tau) and tau, so sweeps at any tau share the same three grids
    # and give the same rows up to rounding of the scaling
    fl._axis_pair_line.cache_clear()
    rows = {tau: [fl.signature_oracle(s, tau=tau) for s in ledger.ALL_SIGNATURES]
            for tau in (0.17, 0.23, 0.31)}
    assert fl._axis_pair_line.cache_info().misses <= 3
    for lo, hi in zip(rows[0.17], rows[0.31]):
        for key in ("area_units", "length_units", "delta_units"):
            assert lo[key] == pytest.approx(hi[key], rel=0, abs=1e-15), key


def test_oracle_totals_close_like_the_exact_quadrant():
    # the exact decomposition is a semigroup identity: totals are the
    # quadrant's area, its two per-side edge terms, and the constant 1/16
    tot = np.zeros(3)
    for s in EXACT_GAUSSIAN:
        got = fl.signature_oracle(_sig(s), tau=0.23)
        tot += [got["area_units"], got["length_units"], got["delta_units"]]
    assert tot[0] == pytest.approx(1.0, abs=1e-6)
    assert tot[1] == pytest.approx(-2.0, abs=1e-6)
    assert tot[2] == pytest.approx(1.0 / 16.0, abs=1e-6)


def test_table_vs_oracle_known_attribution_differences():
    # the tabulated ledger is the exact folded-Gaussian decomposition: every
    # one of the sixteen rows equals the analytic value, so no attribution
    # difference remains between table and oracle
    led = {str(e.signature): e for e in ledger.signature_ledger().entries}
    for s, (area, length, delta) in EXACT_GAUSSIAN.items():
        e = led[s]
        assert float(e.area_units) == pytest.approx(area, rel=1e-12), s
        assert float(e.length_units) == pytest.approx(length, rel=1e-12), s
        assert e.delta_units.value() == pytest.approx(delta, rel=1e-12), s


def test_broken_path_half_identity_at_right_angle():
    alpha = PI / 2
    for tau in (0.02, 0.05):
        for r in (0.4, 0.8):
            for th1 in (0.1, 0.6, 1.2):
                broken = fl.broken_path_propagator(r, th1, alpha, tau)
                half = 0.5 * fl.corner_orbit_kernel_imag(r, alpha, 2 * tau)
                assert broken.real == pytest.approx(half, rel=1e-10)
                assert broken.imag == 0.0


def _two_free_legs_over_cone(p, q, tau, lo, hi, n=400):
    """Two free imaginary-time kernels, time tau each, composed through a mediate
    point over the cone lo <= theta0 <= hi: a Gauss-Legendre product rule in polar
    (r0, theta0) on [0, R] x [lo, hi], R past the Gaussian range of both ends."""
    x, w = np.polynomial.legendre.leggauss(n)
    big_r = max(np.hypot(*p), np.hypot(*q)) + 12.0 * math.sqrt(tau)
    r0, wr = 0.5 * big_r * (x + 1.0), 0.5 * big_r * w
    th0, wt = lo + 0.5 * (hi - lo) * (x + 1.0), 0.5 * (hi - lo) * w
    mx = r0[:, None] * np.cos(th0)[None, :]
    my = r0[:, None] * np.sin(th0)[None, :]
    d2 = (mx - p[0])**2 + (my - p[1])**2 + (mx - q[0])**2 + (my - q[1])**2
    legs = np.exp(-d2 / (4.0 * tau)) / (4.0 * math.pi * tau)**2
    return float(wr @ (r0[:, None] * legs) @ wt)


def test_fold_composition_matches_broken_path_in_the_unfolded_cone():
    # the broken-path kernel is the composition of two free kernels through a
    # mediate point in the visible part of the unfolded triple sector
    for alpha, th1, r, tau in ((1.0, 0.5, 1.0, 0.01), (0.6, 0.2, 0.8, 0.03),
                               (1.4, 1.0, 0.5, 0.02)):
        th2 = 2 * alpha + th1
        lo = max(0.0, th2 - math.pi)
        hi = min(3 * alpha, th1 + math.pi)
        p = np.array([r * math.cos(th1), r * math.sin(th1)])
        q = np.array([r * math.cos(th2), r * math.sin(th2)])
        composed = _two_free_legs_over_cone(p, q, tau, lo, hi)
        broken = fl.broken_path_propagator(r, th1, alpha, tau)
        assert broken.real == pytest.approx(composed, rel=1e-10)
        assert broken.imag == 0.0


def test_broken_path_scaling_invariance():
    # depends on r^2/tau only, up to the 1/tau^2 prefactor structure
    alpha, th1 = 0.6, 0.2
    v1 = fl.broken_path_propagator(1.0, th1, alpha, 0.05)
    v2 = fl.broken_path_propagator(2.0, th1, alpha, 0.2)
    assert (v1.real * 0.05**2) == pytest.approx(v2.real * 0.2**2 / 4.0, rel=1e-8)


def test_broken_path_saddle_point_reverts_to_closed_orbit_kernel():
    # for a strictly acute wedge the mediate-point saddle (the chord
    # midpoint) lies inside the angular domain, so the small-tau limit of
    # the folded kernel is the full one-piece closed-orbit kernel; the
    # factor one half is specific to the right angle, where the radial
    # Gaussian is pinned at the corner and the angular window is half a turn
    alpha, th1, r = 1.2, 0.6, 1.0
    ratios = []
    for tau in (0.02, 0.01, 0.005):
        broken = fl.broken_path_propagator(r, th1, alpha, tau).real
        full = fl.corner_orbit_kernel_imag(r, alpha, 2 * tau)
        ratios.append(broken / full)
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    assert ratios[-1] == pytest.approx(1.0, abs=1e-4)


def _reflection(beta):
    """Matrix of the reflection across the line through the corner at angle beta."""
    c, s = math.cos(2 * beta), math.sin(2 * beta)
    return np.array([[c, s], [s, -c]])


def _reflecting_trace(alpha, th_x, th_y, word, r_x=1.0, r_y=1.0):
    """Whether a ray in the wedge 0 <= theta <= alpha goes from (r_x, th_x) to (r_y, th_y)
    bouncing on the sides in ``word`` order ("a" the side at angle 0, "b" at alpha).

    The ray leaves toward the end point's mirror image across the sides of ``word`` taken
    last to first, the one direction that can work.  It is then traced by specular
    reflection: each side it meets first must be the next letter of ``word``, and after
    the last bounce the end point must lie ahead on it.
    """
    th_x, th_y, r_x, r_y = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                                 for v in (th_x, th_y, r_x, r_y)))
    pos = r_x[..., None] * np.stack([np.cos(th_x), np.sin(th_x)], axis=-1)
    end = r_y[..., None] * np.stack([np.cos(th_y), np.sin(th_y)], axis=-1)
    sides = {"a": 0.0, "b": alpha}
    image = end
    for side in reversed(word):
        image = image @ _reflection(sides[side])
    step = image - pos
    ok = np.ones(th_x.shape, dtype=bool)
    for side in word:
        hit = {}
        for name, beta in sides.items():
            along = np.array([math.cos(beta), math.sin(beta)])
            normal = np.array([-math.sin(beta), math.cos(beta)])
            dn = step @ normal
            t = -(pos @ normal) / np.where(dn == 0.0, 1.0, dn)
            on_ray = (pos + t[..., None] * step) @ along > 0.0
            hit[name] = np.where((dn != 0.0) & (t > 1e-12) & on_ray, t, np.inf)
        other = hit["b" if side == "a" else "a"]
        ok &= hit[side] < other
        t = np.where(ok, hit[side], 0.0)
        pos = pos + t[..., None] * step
        step = step @ _reflection(sides[side])
    ahead = end - pos
    cross = ahead[..., 0] * step[..., 1] - ahead[..., 1] * step[..., 0]
    return ok & (np.sum(ahead * step, axis=-1) > 0.0) & (np.abs(cross) < 1e-9)


# Reflection words up to length 3; "" is the direct path.
WORDS = ("", "a", "b", "ab", "ba", "aba", "bab")
TRACE_ALPHAS = (PI / 6, PI / 4, 0.9, PI / 2, 2.0, 2.5, 3.0)


def _in_sector(alpha, psi_u, psi_v, th0, margin):
    """Whether th0 lies inside ``_visible_sector``, and whether it is within margin of an end."""
    lo, hi = fl._visible_sector(alpha, psi_u, psi_v)
    inside = (th0 > lo) & (th0 < hi)
    near = (np.abs(th0 - lo) < margin) | (np.abs(th0 - hi) < margin)
    return inside, near


def test_leg_validity_against_explicit_wedge_trace():
    # one leg from x to y along a word is valid exactly when y lies within pi of x
    # reflected along the word; with the other leg direct (always visible, as
    # alpha < pi) that is membership of y in the visible sector.  Checked against a
    # reflecting ray trace between points of unequal radii, for words up to length 3
    rng = np.random.default_rng(13)
    valid_long = 0
    for alpha in TRACE_ALPHAS:
        x = rng.uniform(1e-3, alpha - 1e-3, 3000)
        y = rng.uniform(1e-3, alpha - 1e-3, 3000)
        r_x, r_y = rng.uniform(0.2, 2.0, (2, 3000))
        for word in WORDS:
            traced = _reflecting_trace(alpha, x, y, word, r_x, r_y)
            inside, near = _in_sector(alpha, fl._image_angle(alpha, x, word), x, y, 1e-9)
            assert np.array_equal(traced[~near], inside[~near]), (alpha, word)
            if len(word) == 3:
                valid_long += int(traced.sum())
        # the one-bounce closed forms: the mirrored chord meets the side's ray; and
        # "ba" is "ab" with the sides swapped (x, y -> alpha - x, alpha - y)
        assert np.array_equal(_reflecting_trace(alpha, x, y, "a"), np.sin(x + y) > 0.0)
        assert np.array_equal(_reflecting_trace(alpha, x, y, "b"),
                              np.sin(2.0 * alpha - x - y) > 0.0)
        assert np.array_equal(_reflecting_trace(alpha, x, y, "ba"),
                              _reflecting_trace(alpha, alpha - x, alpha - y, "ab"))
        assert _reflecting_trace(alpha, x, y, "").all()
    # acute wedges have valid three-bounce legs
    assert valid_long > 1000


def test_leg_validity_reproduces_the_closed_forms():
    # the one sector rule gives back each class's closed form: one bounce on a
    # side is valid when the mirrored chord meets that side's ray, and the other
    # double-bounce order is "ab" with the sides swapped (x, y -> alpha - x, alpha - y)
    rng = np.random.default_rng(17)
    for alpha in (0.3, 1.0, PI / 2, 2.0, 2.5, 3.0):
        x = rng.uniform(0.0, alpha, 20000)
        y = rng.uniform(0.0, alpha, 20000)

        def valid(path, x=x, y=y):
            return _in_sector(alpha, fl._image_angle(alpha, x, path), x, y, 0.0)[0]

        assert np.array_equal(valid("a"), np.sin(x + y) > 0.0)
        assert np.array_equal(valid("b"), np.sin(2.0 * alpha - x - y) > 0.0)
        assert np.array_equal(valid("ba"), valid("ab", alpha - x, alpha - y))
        assert valid("d").all()


def test_leg_validity_complementary_orders_at_right_angle():
    # at the rectangular corner exactly one bounce order of the double
    # reflection is admissible for generic endpoints
    alpha = PI / 2
    rng = np.random.default_rng(11)
    thx = rng.uniform(0.01, alpha - 0.01, 200)
    thy = rng.uniform(0.01, alpha - 0.01, 200)
    ab, _ = _in_sector(alpha, fl._image_angle(alpha, thx, "ab"), thx, thy, 0.0)
    ba, _ = _in_sector(alpha, fl._image_angle(alpha, thx, "ba"), thx, thy, 0.0)
    assert np.all(ab ^ ba)


def test_sectors_resolve_a_narrow_invalid_gap():
    # an outer Gauss-Legendre node of the alpha = 2.5, grid-1 run just above
    # pi - alpha: the ("d", "a") pair is valid only up to theta0 = pi - theta,
    # which leaves an invalid gap 2.4e-4 wide below alpha
    alpha, theta = 2.5, 0.6418353226947738
    lo, hi = fl._visible_sector(alpha, fl._image_angle(alpha, theta, "d"),
                                fl._image_angle(alpha, theta, "a"))
    assert lo == 0.0
    assert hi == pytest.approx(2.499757331, abs=1e-9)
    assert hi == pytest.approx(PI - theta, abs=1e-15)


@pytest.mark.parametrize("alpha", sorted(set(TRACE_ALPHAS) | {1.0, 0.96 * PI}))
def test_sectors_match_a_dense_validity_scan(alpha):
    # away from the sector ends, every mediate angle theta0 of a uniform scan lies
    # in the pair's visible sector exactly when the out leg (theta -> theta0) and
    # the back leg (theta0 -> theta) both trace as reflecting rays
    n_scan = 20000
    h = alpha / n_scan
    scan = (np.arange(n_scan) + 0.5) * h
    thetas = alpha * np.array([0.13, 0.37, 0.61, 0.89])
    if PI - alpha < alpha:
        thetas = np.append(thetas, PI - alpha + 2.4e-4)
    th, th0 = thetas[:, None], scan[None, :]
    out = {w: _reflecting_trace(alpha, th, th0, w, 1.0, 0.6) for w in WORDS}
    back = {w: _reflecting_trace(alpha, th0, th, w, 0.6, 1.0) for w in WORDS}
    for p1, p2 in product(WORDS, repeat=2):
        psi_u = fl._image_angle(alpha, th, p1)
        psi_v = fl._image_angle(alpha, th, p2[::-1])
        inside, near = _in_sector(alpha, psi_u, psi_v, th0, h)
        valid = out[p1] & back[p2]
        assert np.array_equal(valid[~near], inside[~near]), (p1, p2)


@pytest.fixture(scope="module")
def right_angle_constant():
    return fl.obtuse_corner_constant(PI / 2, grid=2)


def test_corner_constant_right_angle_calibration(right_angle_constant):
    res = right_angle_constant
    target = 1.0 / 16 - 1.0 / (16 * PI**2)
    assert res.value == pytest.approx(target, abs=0.01 * target)
    assert res.error_estimate < 0.01 * target
    assert res.weyl_value == pytest.approx(1.0 / 16, rel=1e-12)


def test_corner_constant_main_paths_subtotal(right_angle_constant):
    # the one-bounce-per-side classes alone reproduce the 4 x 1/64 block
    assert right_angle_constant.main_value == pytest.approx(1.0 / 16, abs=2e-4)


def test_corner_constant_per_class_against_signature_values(right_angle_constant):
    per = right_angle_constant.per_class

    def const_of(*pairs):
        return sum(per[p] for p in pairs)

    # ordered double-bounce classes split one Cartesian signature between
    # the two bounce orders; their sums land on the tabulated constants
    assert const_of(("d", "ab"), ("d", "ba")) == pytest.approx(1 / 64, abs=2e-5)
    assert const_of(("ab", "d"), ("ba", "d")) == pytest.approx(1 / 64, abs=2e-5)
    assert const_of(("a", "b")) == pytest.approx(1 / 64, abs=2e-5)
    assert const_of(("b", "a")) == pytest.approx(1 / 64, abs=2e-5)
    # singles keep their +1/(32 pi) constants after the edge part is removed, and
    # same-side doubles carry -1/(16 pi^2), both to rounding
    assert const_of(("d", "a")) == pytest.approx(1 / (32 * PI), rel=1e-13)
    assert const_of(("a", "d")) == pytest.approx(1 / (32 * PI), rel=1e-13)
    assert const_of(("a", "a")) == pytest.approx(-1 / (16 * PI**2), rel=1e-15)
    assert const_of(("b", "b")) == pytest.approx(-1 / (16 * PI**2), rel=1e-15)
    # triples and the quadruple group
    assert const_of(("a", "ab"), ("a", "ba")) == pytest.approx(-1 / (32 * PI),
                                                               abs=3e-5)
    assert const_of(("ab", "ab"), ("ab", "ba"), ("ba", "ab"), ("ba", "ba")) \
        == pytest.approx(1 / (16 * PI**2), abs=3e-5)


def test_dd_constant_is_the_ledger_doubly_direct_row_at_right_angle():
    led = {str(e.signature): e for e in ledger.signature_ledger().entries}
    assert fl.dd_constant(PI / 2) == pytest.approx(led["----"].delta_units.value(), rel=1e-15)
    assert fl.dd_constant(PI / 2) == pytest.approx(1 / (16 * PI**2), rel=1e-15)


@pytest.mark.parametrize("alpha", (0.7, 1.0, 2.0, 2.8))
def test_dd_constant_moments_by_quadrature(alpha):
    # the two Gaussian moments of the (d,d) derivation, Q = U^2 + V^2 + 2 U V cos(alpha),
    # by 2-D quadrature, and the constant they assemble into
    from scipy.integrate import nquad
    c, s = math.cos(alpha), math.sin(alpha)

    def gauss(v, u):
        return math.exp(-(u * u + v * v + 2.0 * u * v * c))

    opts = dict(limit=200, epsabs=0.0, epsrel=1e-13)
    half_line = [0.0, math.inf]
    m_uv = nquad(lambda v, u: u * v * gauss(v, u), [half_line, half_line], opts=opts)[0]
    # V in two halves about the Gaussian's ridge V = -U cos(alpha)
    m_uu = sum(nquad(lambda v, u: u * u * gauss(v, u), [v_range, half_line], opts=opts)[0]
               for v_range in (lambda u: (-math.inf, -u * c), lambda u: (-u * c, math.inf)))
    assert m_uv == pytest.approx((1 - alpha / math.tan(alpha)) / (4 * s * s), rel=1e-10)
    assert m_uu == pytest.approx(PI / (4 * s**3), rel=1e-10)
    assert fl.dd_constant(alpha) == pytest.approx(
        4 * s * s * (m_uv + c * m_uu) / (16 * PI**2), rel=1e-10)


def test_dd_constant_vanishes_toward_straight_angle():
    # 1 + (pi - alpha) cot(alpha) = 1 - d cot(d) = d^2/3 + O(d^4) with d = pi - alpha, the
    # exact gap to pi of the double alpha (math.pi - alpha plus the part of pi math.pi drops)
    for alpha in (PI - 1e-3, PI - 1e-6, PI - 1e-15):
        d = (PI - alpha) + math.sin(PI)
        assert fl.dd_constant(alpha) == pytest.approx(
            (d * d / 3 + d**4 / 45) / (16 * PI**2), rel=1e-9, abs=1e-18)


def test_full_value_at_right_angle_is_weyl(right_angle_constant):
    # every class pair, (d,d) included, rebuilds the quadrant's 1/16
    res = right_angle_constant
    assert res.full_value == res.value + res.dd_constant
    assert abs(res.full_value - 1 / 16) <= res.error_estimate


def test_stable_g_at_minus_one_takes_the_series_without_dividing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # rho = cos(0) cos(pi) = -1
        assert fl._stable_g(np.array([0.0]), np.array([PI]))[0] == 1.0 / 3.0


def test_stable_g_branches_agree_across_the_switch():
    # w = arccos(-rho) just below 1e-2 takes the series, just above it the direct form;
    # each matches the other branch's formula at the same point
    for w in (1e-2 * (1 - 1e-9), 1e-2 * (1 + 1e-9)):
        rho = -math.cos(w)
        s2 = 1.0 - rho * rho
        direct = (rho * math.acos(-rho) + math.sqrt(s2)) / s2**1.5
        series = 1.0 / 3.0 + 2.0 * math.acos(-rho) ** 2 / 15.0
        got = fl._stable_g(np.array([0.0]), np.array([PI - w]))[0]
        assert got == pytest.approx(direct, rel=1e-7)
        assert got == pytest.approx(series, rel=1e-7)


@pytest.mark.parametrize("alpha", (PI / 6, 1.0, PI / 2, 2.5, 0.96 * PI))
def test_sector_branches_switch_only_at_listed_kinks(alpha):
    # along a dense theta scan, the branch that wins the max (lo) and the min (hi) of
    # every pair's visible sector, and whether the sector is empty, change only across
    # a kink that _sector_kinks lists or an end of [0, alpha]
    scan = np.linspace(0.0, alpha, 20001)
    for p1, p2 in product(fl.PATH_CLASSES, repeat=2):
        psi_u = fl._image_angle(alpha, scan, p1)
        psi_v = fl._image_angle(alpha, scan, p2[::-1])
        lo, hi = fl._visible_sector(alpha, psi_u, psi_v)
        winners = [np.argmax([np.zeros_like(scan), psi_u - PI, psi_v - PI], axis=0),
                   np.argmin([np.full_like(scan, alpha), psi_u + PI, psi_v + PI], axis=0),
                   hi - lo > 1e-12 * alpha]    # the integrator's sliver threshold
        kinks = np.concatenate([[0.0], fl._sector_kinks(alpha, p1, p2), [alpha]])
        for won in winners:
            for i in np.flatnonzero(won[1:] != won[:-1]):
                assert np.any((kinks >= scan[i] - 1e-12) & (kinks <= scan[i + 1] + 1e-12)), \
                    (p1, p2, scan[i])


# The grid-3 ladder's Neville-extrapolated sum of the 18 non-edge per-class values,
# from the all-pairs tau ladder this module used before the tau-free integrals, and the
# measured gap of the grid-1 tau-free sum to it (per pair up to 6e-10 at pi/6 and 1.4e-11
# at 1.0), with margin.
LADDER_NON_EDGE_SUMS = [
    (PI / 6, 0.05891664144397868, 2e-9),
    (1.0, 0.03610729395531335, 1e-10),
    (2.5, 0.013839553674902198, 2e-12),
]


@pytest.mark.parametrize("alpha, ladder_sum, tol", LADDER_NON_EDGE_SUMS)
def test_tau_free_pairs_match_the_ladder_limit(alpha, ladder_sum, tol):
    res = fl.obtuse_corner_constant(alpha, grid=1)
    non_edge = [p for p in fl.CLASS_PAIRS if p not in fl.EDGE_PAIRS]
    assert len(non_edge) == 18
    assert sum(res.per_class[p] for p in non_edge) == pytest.approx(ladder_sum, abs=tol)


MIXED_EDGE_PAIRS = (("d", "a"), ("a", "d"), ("d", "b"), ("b", "d"))

# The grid-3 ladder's Neville-extrapolated (d, a) and (a, a) constants, from the tau ladder
# this module used before the edge pairs were taken at tau = 0, and the measured gap of
# the grid-1 constants of all six edge pairs to them (largest 8.4e-11 at 0.6, 1.7e-11 at 1.0,
# 1.6e-11 at 2.0, 1.4e-11 at 2.5 and 3.1e-11 at 3.0), with margin.  The ladder's (d, b) and
# (b, b) differ from these by up to 7e-13 and 4e-13.
LADDER_EDGE_CONSTANTS = [
    (0.6, 0.04484662827168882, -0.024301948582094633, 2e-10),
    (1.0, 0.024102492961042315, -0.01352846826610535, 3e-11),
    (2.0, 0.003918896038313698, -0.0030240668578671082, 3e-11),
    (2.5, 0.0009709668533340068, -0.0008937363928477643, 3e-11),
    (3.0, 4.254649080794265e-05, -4.237615823696692e-05, 5e-11),
]


@pytest.mark.parametrize("alpha, ladder_da, ladder_aa, tol", LADDER_EDGE_CONSTANTS)
def test_edge_pairs_match_the_ladder_limit(alpha, ladder_da, ladder_aa, tol):
    per = fl.obtuse_corner_constant(alpha, grid=1).per_class
    assert per["d", "a"] == pytest.approx(ladder_da, abs=tol)
    assert per["a", "a"] == pytest.approx(ladder_aa, abs=tol)
    # leg reversal and the mirror theta -> alpha - theta map the one-bounce edge pairs onto
    # each other, and (a, a) onto (b, b)
    assert len({per[p] for p in MIXED_EDGE_PAIRS}) == 1
    assert per["a", "a"] == per["b", "b"]


def _g_of_cos(phi):
    """g(cos(phi)) = ((pi - phi) cos(phi) + sin(phi))/sin(phi)^3 for 0 < phi < pi."""
    return ((PI - phi) * math.cos(phi) + math.sin(phi)) / math.sin(phi) ** 3


@pytest.mark.parametrize("alpha", (1.0, 2.5))
def test_aa_constant_against_the_phi_integral(alpha):
    # 16 pi^2 C_aa = integral over (0, Phi) of [L g(cos phi) - pi/phi^2] dphi - pi/Phi, with
    # L = min(phi, 2 alpha - phi) and Phi = min(2 alpha, pi), by adaptive quadrature
    from scipy.integrate import quad
    big_phi = min(2.0 * alpha, PI)

    def integrand(phi):
        return min(phi, 2.0 * alpha - phi) * _g_of_cos(phi) - PI / phi**2

    total = sum(quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                for a, b in ((0.0, alpha), (alpha, big_phi)))
    c_aa = (total - PI / big_phi) / (16 * PI**2)
    assert fl.obtuse_corner_constant(alpha, grid=1).per_class["a", "a"] == pytest.approx(
        c_aa, rel=1e-10)


def test_da_constant_keeps_its_digits_at_a_sharp_corner():
    # the (d, a) integrand cancels r g against pi/r^2 near the corner; with 1 - rho^2 and
    # arccos(-rho) formed from the two angles, 7 and 30 nodes per panel agree to rounding
    # (with 1 - rho^2 from rho they differ by 1.4e-6 at alpha = 0.05)
    assert fl._da_constant(0.05, 30) == pytest.approx(fl._da_constant(0.05, 7), abs=1e-12)


@pytest.mark.parametrize("alpha", (0.35, 1e-3))
def test_corner_constant_converges_at_a_sharp_corner_on_grid_one(alpha):
    res = fl.obtuse_corner_constant(alpha, grid=1)
    assert res.error_estimate < 0.01
    assert res.weyl_value == pytest.approx(w.weyl_corner_coefficient(alpha), rel=1e-12)


def test_corner_constant_vanishes_toward_straight_angle():
    # no corner at alpha = pi: the constant decreases to zero along with the
    # counting-function coefficient it is compared against
    vals = []
    for alpha in (0.80 * PI, 0.90 * PI, 0.96 * PI):
        res = fl.obtuse_corner_constant(alpha, grid=1)
        vals.append(res.value)
        assert abs(res.value) < 3.0 * res.weyl_value + res.error_estimate
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert vals[2] < 0.01


@pytest.mark.parametrize("alpha, value, main_value", [
    (PI / 6, 0.21086163482060666, 0.13164059017942037),
    (1.0, 0.10546032937195939, 0.08370039404385024),
    (PI / 2, 0.05616742605887241, 0.062499999999999986),
    (2.5, 0.015935948345134215, 0.01682968473200572),
], ids=("pi_over_6", "1.0", "pi_over_2", "2.5"))
def test_corner_constant_pinned_at_grid_one(alpha, value, main_value):
    # grid-1 values; a change in the order of the inner quadrature's sums
    # may move them only at rounding level
    res = fl.obtuse_corner_constant(alpha, grid=1)
    assert res.value == pytest.approx(value, rel=1e-11)
    assert res.main_value == pytest.approx(main_value, rel=1e-11)
    # one tau -> 0 constant for each of the 24 ordered class pairs, ("d", "d") left out,
    # in product order
    pairs = [p for p in product(fl.PATH_CLASSES, repeat=2) if p != ("d", "d")]
    assert list(res.per_class) == pairs
    assert all(isinstance(v, float) for v in res.per_class.values())
    # a double bounce in both legs has no valid path at an obtuse or right corner
    if alpha >= PI / 2:
        for pair in (("ab", "ab"), ("ba", "ba")):
            assert res.per_class[pair] == 0.0
    # the main value is the plain sum of the six one-a-one-b pairs, in order
    mains = [("d", "ab"), ("d", "ba"), ("a", "b"), ("b", "a"), ("ab", "d"), ("ba", "d")]
    assert res.main_value == sum(res.per_class[p] for p in mains)


def test_corner_constant_rejects_bad_inputs():
    with pytest.raises(DomainError):
        fl.obtuse_corner_constant(0.0)
    with pytest.raises(DomainError):
        fl.obtuse_corner_constant(3.5)
    with pytest.raises(DomainError):
        fl.obtuse_corner_constant(1.0, grid=0)
    # below about 1.05e-8 cos(alpha) rounds to 1
    with pytest.raises(DomainError):
        fl.obtuse_corner_constant(1e-300)
    with pytest.raises(DomainError):
        fl.dd_constant(0.0)


def test_signature_helpers():
    s = ledger.SignSignature("-", "+", "-", "+")
    assert str(s) == "-+-+"
    assert s.bounce_count == 2
    with pytest.raises(DomainError):
        ledger.SignSignature("x", "+", "-", "+")
    assert len(ledger.ALL_SIGNATURES) == 16
