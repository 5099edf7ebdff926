import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from billiard_weyl import folding as fl
from billiard_weyl import ledger
from billiard_weyl import weyl as w
from billiard_weyl.errors import DomainError
from billiard_weyl.specfun import gauss_legendre

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
    # and give the same rows up to rounding of the scaling, out to both
    # ends of the tau range
    taus = (0.17, 0.23, 0.31, math.nextafter(1e-150, 1.0), math.nextafter(1e150, 0.0))
    fl._axis_pair_line.cache_clear()
    rows = {tau: [fl.signature_oracle(s, tau=tau) for s in ledger.ALL_SIGNATURES]
            for tau in taus}
    assert fl._axis_pair_line.cache_info().misses <= 3
    for tau in taus[1:]:
        for lo, hi in zip(rows[taus[0]], rows[tau]):
            for key in ("area_units", "length_units", "delta_units"):
                assert lo[key] == pytest.approx(hi[key], rel=0, abs=1e-15), (tau, key)


def _full_grid_line(s1, s2):
    """``_axis_pair_line`` from the whole 528 x 912 product grid in one array: the reference
    the panel-row integration must reproduce bit for bit."""
    g1, g2 = (1.0 if s == "+" else -1.0 for s in (s1, s2))
    x, wx = gauss_legendre(np.arange(23.0), 24)
    x0, w0 = gauss_legendre(np.arange(39.0), 24)
    e = np.exp(-((x[:, None] + g1 * x0[None, :])**2
                 + (x[:, None] + g2 * x0[None, :])**2) / 4.0)
    rows = (wx * (e @ w0)).reshape(22, 24).sum(axis=1)
    i1, i2 = float(rows[:14].sum()), float(rows.sum())
    slope = (i2 - i1) / 8.0
    return slope, i1 - slope * 14.0


@pytest.mark.parametrize("s1, s2", [("+", "+"), ("+", "-"), ("-", "-")])
def test_oracle_panel_rows_equal_the_full_grid(s1, s2):
    # one x panel row at a time sums each row's 24 x 912 block exactly as the whole grid does
    fl._axis_pair_line.cache_clear()
    assert fl._axis_pair_line(s1, s2) == _full_grid_line(s1, s2)


def test_oracle_cold_sweep_peak_memory():
    # a cold sweep builds three grids one 24 x 912 panel row at a time (measured: 0.53 MiB;
    # the whole 528 x 912 grid and its temporaries took 7.5 MiB)
    fl._axis_pair_line.cache_clear()
    tracemalloc.start()
    try:
        for s in ledger.ALL_SIGNATURES:
            fl.signature_oracle(s, tau=0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("tau", [math.inf, 1e-200, 1e-310, 1e200, 1e300, 1e150, 1e-150,
                                 0.0, -0.25, math.nan])
def test_oracle_refuses_out_of_range_tau(tau):
    # tau^2 under- or overflows outside (1e-150, 1e150), the range broken_path_propagator takes
    with pytest.raises(DomainError, match="tau="):
        fl.signature_oracle(ledger.ALL_SIGNATURES[0], tau=tau)


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


def test_corner_orbit_kernel_overflows_to_zero_and_refuses_a_bad_angle():
    # (r sin alpha)^2 is past the float range: the kernel is 0, not an OverflowError
    assert fl.corner_orbit_kernel_imag(1e300, 1.0, 1e-300) == 0.0
    for alpha in (math.nan, 0.0, math.pi, -1.0, 4.0, math.inf):
        with pytest.raises(DomainError):
            fl.corner_orbit_kernel_imag(1.0, alpha, 1.0)


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


def _alternating_words(length):
    """The two alternating bounce words over {a, b} of each length 1 .. ``length``."""
    return [("ab" * length)[start:start + n] for n in range(1, length + 1)
            for start in (0, 1)]


def test_leg_words_are_d_and_the_alternating_words():
    # folding's own word list against this module's independent one, in the same order
    for length in range(1, 8):
        assert fl._leg_words(length) == ("d", *_alternating_words(length))
    assert fl._leg_words(2) == ("d", "a", "b", "ab", "ba")


def _alternating_pairs(alpha):
    """Every ordered pair of legs, "d" or an alternating word of up to floor(pi/alpha) + 1
    bounces, (d, d) included."""
    return list(product(["d"] + _alternating_words(math.floor(PI / alpha) + 1), repeat=2))


def _image_angle(alpha, theta, sides):
    """theta reflected across ``sides`` in order ("a" at angle 0, "b" at alpha; "d" none)."""
    s, n = fl._image_line(sides)
    return s * theta + n * alpha


def _folded_line(alpha, sides):
    """The image angle s theta + k of theta folded across ``sides`` in order, k in floats:
    side "a" at angle 0 takes the angle psi to -psi, side "b" at alpha to 2 alpha - psi."""
    s, k = 1, 0.0
    for side in sides:
        s, k = -s, (-k if side == "a" else 2.0 * alpha - k)
    return s, k


def test_image_line_is_the_folded_image_angle():
    # the word alone gives s and n, and n alpha is the folded offset to the last bit up to
    # ten letters, where the fold's partial offsets are 2, 4 and 8 alpha (exact; 2 alpha plus
    # 6 alpha rounded rounds back to 8 alpha) or 6 and 10 alpha rounded once, as n alpha is
    # (-0.0 and 0.0 compare equal); from eleven letters on the fold rounds at many "b"s, each
    # by at most half an ulp of a partial offset no larger than |n alpha|
    rng = np.random.default_rng(23)
    assert fl._image_line("d") == (1, 0)
    for alpha in [*rng.uniform(1e-3, 3.1, 200), *(PI / n for n in range(2, 22))]:
        for word in _alternating_words(32):
            s, n = fl._image_line(word)
            folded_s, k = _folded_line(alpha, word)
            assert s == folded_s, word
            if len(word) <= 10:
                assert n * alpha == k, (alpha, word)
            else:
                assert abs(n * alpha - k) <= len(word) / 4 * math.ulp(n * alpha), (alpha, word)


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
            inside, near = _in_sector(alpha, _image_angle(alpha, x, word), x, y, 1e-9)
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
            return _in_sector(alpha, _image_angle(alpha, x, path), x, y, 0.0)[0]

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
    ab, _ = _in_sector(alpha, _image_angle(alpha, thx, "ab"), thx, thy, 0.0)
    ba, _ = _in_sector(alpha, _image_angle(alpha, thx, "ba"), thx, thy, 0.0)
    assert np.all(ab ^ ba)


def test_sectors_resolve_a_narrow_invalid_gap():
    # an outer Gauss-Legendre node of the alpha = 2.5, grid-1 run just above
    # pi - alpha: the ("d", "a") pair is valid only up to theta0 = pi - theta,
    # which leaves an invalid gap 2.4e-4 wide below alpha
    alpha, theta = 2.5, 0.6418353226947738
    lo, hi = fl._visible_sector(alpha, _image_angle(alpha, theta, "d"),
                                _image_angle(alpha, theta, "a"))
    assert lo == 0.0
    assert hi == pytest.approx(2.499757331, abs=1e-9)
    assert hi == pytest.approx(PI - theta, abs=1e-15)


# Reflection words up to length 5, for the sharp wedges where four and five bounces occur.
LONG_WORDS = WORDS + ("abab", "baba", "ababa", "babab")


@pytest.mark.parametrize("alpha", sorted(set(TRACE_ALPHAS) | {1.0, 0.96 * PI, PI / 5}))
def test_sectors_match_a_dense_validity_scan(alpha):
    # away from the sector ends, every mediate angle theta0 of a uniform scan lies
    # in the pair's visible sector exactly when the out leg (theta -> theta0) and
    # the back leg (theta0 -> theta) both trace as reflecting rays
    words = LONG_WORDS if alpha in (PI / 4, PI / 5) else WORDS
    n_scan = 20000
    h = alpha / n_scan
    scan = (np.arange(n_scan) + 0.5) * h
    thetas = alpha * np.array([0.13, 0.37, 0.61, 0.89])
    if PI - alpha < alpha:
        thetas = np.append(thetas, PI - alpha + 2.4e-4)
    th, th0 = thetas[:, None], scan[None, :]
    out = {w: _reflecting_trace(alpha, th, th0, w, 1.0, 0.6) for w in words}
    back = {w: _reflecting_trace(alpha, th0, th, w, 0.6, 1.0) for w in words}
    for p1, p2 in product(words, repeat=2):
        psi_u = _image_angle(alpha, th, p1)
        psi_v = _image_angle(alpha, th, p2[::-1])
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
    # an end of one of the pair's _pair_geometry panels; every alternating word pair at the
    # sharp angles (225 and 81 pairs), the class pairs elsewhere
    pairs = (_alternating_pairs(alpha) if alpha in (PI / 6, 1.0)
             else list(product(fl._leg_words(2), repeat=2)))
    scan = np.linspace(0.0, alpha, 20001)
    _, panels, owner = fl._pair_geometry(alpha, fl._pair_lines(pairs))
    for n, (p1, p2) in enumerate(pairs):
        psi_u = _image_angle(alpha, scan, p1)
        psi_v = _image_angle(alpha, scan, p2[::-1])
        lo, hi = fl._visible_sector(alpha, psi_u, psi_v)
        winners = [np.argmax([np.zeros_like(scan), psi_u - PI, psi_v - PI], axis=0),
                   np.argmin([np.full_like(scan, alpha), psi_u + PI, psi_v + PI], axis=0),
                   hi - lo > 1e-12 * alpha]    # the integrator's sliver threshold
        kinks = panels[owner == n].ravel()
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


# The pairs of the leg words d, a, b, ab and ba whose word uses both sides, in product order.
NON_EDGE_PAIRS = tuple(p for p in product(fl._leg_words(2), repeat=2)
                       if len(set(fl._word(p))) == 2)


@pytest.mark.parametrize("alpha, ladder_sum, tol", LADDER_NON_EDGE_SUMS)
def test_tau_free_pairs_match_the_ladder_limit(alpha, ladder_sum, tol):
    res = fl.obtuse_corner_constant(alpha, grid=1)
    assert len(NON_EDGE_PAIRS) == 18
    assert sum(res.per_class[p] for p in NON_EDGE_PAIRS) == pytest.approx(ladder_sum, abs=tol)


def _line_crossings(alpha, p1, p2):
    """The sorted distinct crossings in (0, alpha) of one pair's six sector lines, pair of
    lines by pair of lines: the per-pair reference for ``_pair_geometry``."""
    su, nu, sv, nv = fl._pair_lines([(p1, p2)])[0]
    ku, kv = nu * alpha, nv * alpha
    lines = [(0.0, 0.0), (0.0, alpha), (su, ku - PI), (su, ku + PI),
             (sv, kv - PI), (sv, kv + PI)]
    cross = [(k2 - k1) / (s1 - s2) for i, (s1, k1) in enumerate(lines)
             for s2, k2 in lines[i + 1:] if s1 != s2]
    return np.unique([x for x in cross if 0.0 < x < alpha])


@pytest.mark.parametrize("alpha", (0.1, PI / 6, 1.0, PI / 2, 2.5, 3.0))
def test_sector_panels_end_at_each_pairs_line_crossings(alpha):
    # one array pass over all pairs gives each pair the panels between 0, its own sorted
    # distinct line crossings and alpha, bit for bit, in pair order
    pairs = _alternating_pairs(alpha)
    _, panels, owner = fl._pair_geometry(alpha, fl._pair_lines(pairs))
    assert np.array_equal(owner, np.sort(owner))
    for n, (p1, p2) in enumerate(pairs):
        edges = np.concatenate([[0.0], _line_crossings(alpha, p1, p2), [alpha]])
        assert np.array_equal(panels[owner == n], np.stack([edges[:-1], edges[1:]], axis=-1))


def _non_edge_constant(alpha, p1, p2, n_gl):
    """One non-edge pair's constant, integrated on its own: the per-pair reference the
    stacked ``_non_edge_constants`` must reproduce bit for bit."""
    _, panels, _ = fl._pair_geometry(alpha, fl._pair_lines([(p1, p2)]))
    thetas, th_w = (x.ravel() for x in gauss_legendre(panels, n_gl))
    psi_u, psi_v = _image_angle(alpha, thetas, p1), _image_angle(alpha, thetas, p2[::-1])
    lo, hi = fl._visible_sector(alpha, psi_u, psi_v)
    r = np.flatnonzero(hi - lo > 1e-12 * alpha)
    th0, w0 = gauss_legendre(np.stack([lo[r], hi[r]], axis=-1), n_gl)
    half_diff, mid = 0.5 * (psi_u[r] - psi_v[r]), 0.5 * (psi_u[r] + psi_v[r])
    g = fl._stable_g(half_diff[:, None], th0 - mid[:, None])
    sign = (-1.0) ** len(fl._word((p1, p2)))
    return sign / (16.0 * PI**2) * float(np.sum(th_w[r, None] * w0 * g))


@pytest.mark.parametrize("alpha", (PI / 6, PI / 5, 1.0, PI / 2, 2.0944, 2.5, 3.0))
def test_stacked_pairs_equal_the_per_pair_integrals_bit_for_bit(alpha):
    # stacking changes only how many pairs one numpy call sees: each pair's rows keep their
    # order and are summed alone, so every value is the per-pair integral's, to the last bit;
    # at pi/5 on the non-edge pairs of every alternating word up to six bounces
    pairs = NON_EDGE_PAIRS
    if alpha == PI / 5:
        pairs = [p for p in _alternating_pairs(alpha) if len(set(fl._word(p))) == 2]
    n_gls = (4, 7, 10)
    for n_gl, values in zip(n_gls, fl._non_edge_constants(alpha, fl._pair_lines(pairs), n_gls)):
        assert values == [_non_edge_constant(alpha, p1, p2, n_gl) for p1, p2 in pairs]


@pytest.mark.parametrize("alpha", (1.0, 2.5))
def test_corner_constant_integrates_all_non_edge_pairs_in_one_pass(alpha, monkeypatch):
    # one pair of each reversal orbit is integrated, 10 of the 18 non-edge pairs; their sector
    # panels come from one array pass per call, on the plan's alpha-free image lines (no
    # _image_line call once the plan is built), and both grids' node counts share one
    # _stable_g call in _non_edge_constants and one in _da_constant
    fl._pair_plan(2)
    calls, received = Counter(), []

    def counted(name):
        func = getattr(fl, name)

        def wrapper(*args):
            calls[name] += 1
            if name == "_non_edge_constants":
                received.append(len(args[1]))
            return func(*args)
        return wrapper

    for name in ("_stable_g", "_pair_geometry", "_image_line", "_non_edge_constants"):
        monkeypatch.setattr(fl, name, counted(name))
    fl.obtuse_corner_constant(alpha, grid=1)
    assert calls["_stable_g"] == 2
    assert received == [10]
    assert calls["_pair_geometry"] == 1
    assert calls["_image_line"] == 0


@pytest.mark.parametrize("alpha", (PI / 10, 0.3, PI / 4, 1.0, 2.5))
def test_reversed_swapped_legs_give_the_same_constant_bit_for_bit(alpha):
    # (p1, p2) -> (p2 reversed, p1 reversed) swaps the pair's two image lines, so each
    # non-edge pair integrated alone has its twin's value to the last bit: at every word
    # length up to floor(pi/alpha) + 1 bounces, not only at _leg_words(2)
    pairs = [p for p in product(fl._leg_words(math.floor(PI / alpha) + 1), repeat=2)
             if len(set(fl._word(p))) == 2]
    n_gls = (4, 7, 10)
    alone = {p: [v[0].hex() for v in fl._non_edge_constants(alpha, fl._pair_lines([p]), n_gls)]
             for p in pairs}
    for (p1, p2), bits in alone.items():
        assert alone[p2[::-1], p1[::-1]] == bits


def test_pair_plan_copies_each_orbits_value_to_its_twin():
    # every non-edge pair reads the value of its own orbit's one integrated pair
    plan = fl._pair_plan(2)
    assert len(plan.pairs) == 24 and len(plan.lines) == 10
    per_class = fl.obtuse_corner_constant(1.0, grid=1).per_class
    assert list(per_class) == list(plan.pairs)
    source = dict(zip(plan.pairs, plan.source))
    readers = {}
    for p1, p2 in NON_EDGE_PAIRS:
        twin = (p2[::-1], p1[::-1])
        assert source[p1, p2] == source[twin]
        readers.setdefault(source[p1, p2], set()).add((p1, p2))
        assert per_class[p1, p2] == per_class[twin]
    # each integrated value is read by exactly one orbit: a pair and its twin, or a pair
    # that is its own twin
    assert sorted(readers) == list(range(2, 2 + len(plan.lines)))
    for group in readers.values():
        p1, p2 = min(group)
        assert group == {(p1, p2), (p2[::-1], p1[::-1])}


@pytest.mark.parametrize("max_len", range(2, 7))
def test_pair_plan_holds_one_line_row_per_reversal_orbit(max_len):
    # the reversal (p1, p2) -> (p2 reversed, p1 reversed) gives a non-edge pair its own two
    # alpha-free image lines swapped, so its twin's constant is its own bit for bit; the plan
    # holds one row per orbit, and each pair's source is a row of its lines or their swap
    plan = fl._pair_plan(max_len)
    non_edge = [p for p in plan.pairs if len(set(fl._word(p))) == 2]
    sources = [i for i in plan.source if i >= 2]
    assert [p for p, i in zip(plan.pairs, plan.source) if i >= 2] == non_edge
    rows = fl._pair_lines(non_edge)
    swap = [2, 3, 0, 1]
    assert np.array_equal(fl._pair_lines((p2[::-1], p1[::-1]) for p1, p2 in non_edge),
                          rows[:, swap])
    orbits = {frozenset({(p1, p2), (p2[::-1], p1[::-1])}) for p1, p2 in non_edge}
    assert len(plan.lines) == len(orbits) == len(set(sources))
    if max_len == 2:
        assert len(orbits) == 10
    assert not plan.lines.flags.writeable
    for row, i in zip(rows, sources):
        held = plan.lines[i - 2]
        assert np.array_equal(held, row) or np.array_equal(held, row[swap])


# obtuse_corner_constant's value, error_estimate and main_value and four right-angle
# broken_path_propagator values, as float.hex: the inputs of the benchmark's fold-sweep
# round (the broken-path points are the first four half-identity draws of its seed 101).
# Any rewrite of these paths for speed must give the same bits.
PINNED_CORNERS = {
    (1.0, 1): ("0x1.aff72b9ad8e61p-4", "0x1.30622b12a0000p-21", "0x1.56d639714a57ap-4"),
    (1.0, 2): ("0x1.aff72b9902139p-4", "0x1.d6d2800000000p-36", "0x1.56d639714a105p-4"),
    (1.0, 3): ("0x1.aff72b9902214p-4", "0x1.b600000000000p-49", "0x1.56d639714a108p-4"),
    (PI / 2, 1): ("0x1.cc1fa140bf536p-5", "0x1.34eee89dc0000p-21", "0x1.ffffffffffffep-5"),
    (PI / 2, 2): ("0x1.cc1fa13bb9e76p-5", "0x1.415b000000000p-35", "0x1.ffffffffffffep-5"),
    (PI / 2, 3): ("0x1.cc1fa13bb9a85p-5", "0x1.f880000000000p-48", "0x1.0000000000000p-4"),
    (2.5, 1): ("0x1.0518363e4737bp-6", "0x1.9b57b7cb40000p-23", "0x1.13bcd061a93f8p-6"),
    (2.5, 2): ("0x1.0518363af789ep-6", "0x1.a7d6e80000000p-37", "0x1.13bcd061a9534p-6"),
    (2.5, 3): ("0x1.0518363af791ap-6", "0x1.f000000000000p-52", "0x1.13bcd061a9536p-6"),
}
PINNED_BROKEN_PATHS = {
    (0.849363788378984, 1.0089195221917413, 0.04216101678391341): "0x1.7cf245a3d0cf0p-14",
    (0.7138947296605882, 0.5604081322137434, 0.04819541995648054): "0x1.118648cc6493cp-9",
    (0.5060299928378498, 0.7965466644606902, 0.05106960963709093): "0x1.041db44b00662p-5",
    (0.94590798049604, 0.5955708690234093, 0.07411360410172395): "0x1.506a674d9449dp-11",
}


@pytest.mark.parametrize("alpha, grid", sorted(PINNED_CORNERS))
def test_corner_constant_is_pinned_bit_for_bit(alpha, grid):
    res = fl.obtuse_corner_constant(alpha, grid=grid)
    bits = (res.value.hex(), res.error_estimate.hex(), res.main_value.hex())
    assert bits == PINNED_CORNERS[alpha, grid]


@pytest.mark.parametrize("r, theta1, tau", sorted(PINNED_BROKEN_PATHS))
def test_broken_path_is_pinned_bit_for_bit(r, theta1, tau):
    k = fl.broken_path_propagator(r, theta1, PI / 2, tau)
    assert (k.real.hex(), k.imag) == (PINNED_BROKEN_PATHS[r, theta1, tau], 0.0)


@pytest.mark.parametrize("alpha", (PI / 10, 1.0, 2.5))
def test_pair_blocks_keep_every_pair_bit_for_bit(alpha, monkeypatch):
    # each pair's rows sit whole inside one block, so blocks of 7 pairs give every pair the
    # value of one pass over all of them, with one _pair_geometry call per block
    rows = fl._pair_lines(p for p in _alternating_pairs(alpha) if len(set(fl._word(p))) == 2)
    n_gls = (4, 7, 10)
    monkeypatch.setattr(fl, "_PAIR_BLOCK", len(rows))
    whole = list(fl._non_edge_constants(alpha, rows, n_gls))
    calls = Counter()
    geometry = fl._pair_geometry

    def counted(*args):
        calls["_pair_geometry"] += 1
        return geometry(*args)

    monkeypatch.setattr(fl, "_pair_geometry", counted)
    monkeypatch.setattr(fl, "_PAIR_BLOCK", 7)
    assert list(fl._non_edge_constants(alpha, rows, n_gls)) == whole
    assert calls["_pair_geometry"] == -(-len(rows) // 7)


def test_non_edge_constants_peak_memory_at_sharp_corner():
    # all 16,122 non-edge pairs of alternating words at alpha = 0.05: one block of
    # _PAIR_BLOCK pairs is held at a time (measured: 8.5 MiB; 149 MiB in one pass)
    alpha = 0.05
    pairs = [p for p in _alternating_pairs(alpha) if len(set(fl._word(p))) == 2]
    assert len(pairs) == 16_122
    rows = fl._pair_lines(pairs)
    tracemalloc.start()
    try:
        values = next(fl._non_edge_constants(alpha, rows, (10,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(values) == len(pairs)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("alpha, n_pairs", [(PI / 4, 120), (PI / 6, 224), (PI / 10, 528)])
def test_every_alternating_word_pair_stacks_to_weyl(alpha, n_pairs):
    # legs of every alternating word up to floor(pi/alpha) + 1 bounces: at alpha = pi/n the
    # two-piece total, (d, d) included, is Weyl's corner value; the non-edge pairs go
    # through blocks of whole pairs however many there are
    pairs = [p for p in _alternating_pairs(alpha) if p != ("d", "d")]
    assert len(pairs) == n_pairs
    edge = [p for p in pairs if len(set(fl._word(p))) == 1]
    non_edge = [p for p in pairs if p not in edge]
    assert sorted(edge) == sorted(p for p in product(fl._leg_words(2), repeat=2)
                                  if len(set(fl._word(p))) == 1)
    c_aa, (c_da,) = fl._aa_constant(alpha), fl._da_constant(alpha, (10,))
    total = (fl.dd_constant(alpha) + sum(c_aa if p1 == p2 else c_da for p1, p2 in edge)
             + sum(next(fl._non_edge_constants(alpha, fl._pair_lines(non_edge), (10,)))))
    assert total == pytest.approx(w.weyl_corner_coefficient(alpha), abs=1e-12)


# Exact per-pair constants at alpha = pi/n, as 16 pi^2 C, at 25 nodes per panel.  Each was
# found by an integer-relation search on 1, pi and pi^2 and checked at 13, 25 and 40 nodes;
# the gaps do not shrink with nodes (the largest, 8.2e-13 at (ab, ba) at pi/2, is a rounding
# floor), hence 1e-11.
EXACT_RIGHT_ANGLE = {
    **dict.fromkeys([("d", "a"), ("a", "d"), ("d", "b"), ("b", "d")], PI / 2),
    **dict.fromkeys([("a", "a"), ("b", "b")], -1.0),
    **dict.fromkeys([("d", "ab"), ("d", "ba"), ("ab", "d"), ("ba", "d")], PI**2 / 8),
    **dict.fromkeys([("a", "b"), ("b", "a")], PI**2 / 4),
    **dict.fromkeys([*product("ab", ("ab", "ba")), *product(("ab", "ba"), "ab")], -PI / 4),
    **dict.fromkeys([("ab", "ba"), ("ba", "ab")], 0.5),
    **dict.fromkeys([("ab", "ab"), ("ba", "ba")], 0.0),
}
EXACT_NON_EDGE = [
    (4, ("a", "b"), 13 * PI**2 / 36),
    (4, ("d", "abab"), PI**2 / 32),
    (4, ("a", "bab"), PI**2 / 16),
    (4, ("aba", "bab"), PI**2 / 36),
    (4, ("ab", "ba"), PI / 4),
    (4, ("aba", "aba"), (PI - 2) / 4),
    (4, ("abab", "baba"), (4 - PI) / 8),
    (3, ("ab", "ba"), 2 * PI / (3 * math.sqrt(3)) - 0.5),
]


def test_every_right_angle_pair_constant_is_exact():
    # grid 7 is 25 nodes per panel; the 24 pairs and (d, d) are all elementary at pi/2
    res = fl.obtuse_corner_constant(PI / 2, grid=7)
    assert res.per_class.keys() == EXACT_RIGHT_ANGLE.keys()
    for pair, exact in EXACT_RIGHT_ANGLE.items():
        assert 16 * PI**2 * res.per_class[pair] == pytest.approx(exact, abs=1e-11), pair
    assert 16 * PI**2 * res.dd_constant == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("n, pair, exact", EXACT_NON_EDGE)
def test_non_edge_pair_constant_is_exact_at_pi_over_n(n, pair, exact):
    # every non-edge pair of the leg words up to n + 1 bounces, in one pass
    pairs = [p for p in product(fl._leg_words(n + 1), repeat=2) if len(set(fl._word(p))) == 2]
    values = next(fl._non_edge_constants(PI / n, fl._pair_lines(pairs), (25,)))
    value = dict(zip(pairs, values))[pair]
    assert 16 * PI**2 * value == pytest.approx(exact, abs=1e-11)


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
    fine, coarse = fl._da_constant(0.05, (30, 7))
    assert fine == pytest.approx(coarse, abs=1e-12)


@pytest.mark.parametrize("alpha", (0.05, 1.0, PI / 2, 2.5))
def test_da_constant_counts_share_one_g_call_bit_for_bit(alpha):
    # g is elementwise, so taking it once on both counts' nodes changes no bit of either
    assert fl._da_constant(alpha, (7, 4)) == [*fl._da_constant(alpha, (7,)),
                                              *fl._da_constant(alpha, (4,))]


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
    pairs = [p for p in product(fl._leg_words(2), repeat=2) if p != ("d", "d")]
    assert list(res.per_class) == pairs
    assert all(isinstance(v, float) for v in res.per_class.values())
    # a double bounce in both legs has no valid path at an obtuse or right corner
    if alpha >= PI / 2:
        for pair in (("ab", "ab"), ("ba", "ba")):
            assert res.per_class[pair] == 0.0
    # the main value is the plain sum of the six one-a-one-b pairs, in order
    mains = [("d", "ab"), ("d", "ba"), ("a", "b"), ("b", "a"), ("ab", "d"), ("ba", "d")]
    assert res.main_value == sum(res.per_class[p] for p in mains)


# Known deviations of the two-piece total: R_2 = full_value - W at grid 3 (error estimates
# at most 1.9e-13), and the README's acute gap at alpha = 0.1, grid 1 (estimate 3.9e-6),
# where the legs stop at two bounces though one can bounce up to floor(pi/alpha) + 1 times.
OBTUSE_R2 = [(1.7, -2.4508333807030103e-05), (2.0, -0.0018574796032970672),
             (2.5, -0.0023729130170149146), (3.0, -0.00021936958124334303)]


@pytest.mark.parametrize("alpha, r2", OBTUSE_R2)
def test_obtuse_two_piece_total_misses_weyl_by_a_pinned_residual(alpha, r2):
    res = fl.obtuse_corner_constant(alpha, grid=3)
    assert res.error_estimate < 2e-13
    assert res.full_value - res.weyl_value == pytest.approx(r2, abs=1e-12)


@pytest.mark.parametrize("alpha", (PI / 2, 1.7, 2.0, 2.5, 3.0))
def test_obtuse_full_value_is_the_main_value(alpha):
    # from pi/2 on, the pairs whose word is not one a and one b cancel (measured gap at most
    # 2.4e-14 at grid 3); below pi/2 they do not (3.7e-2 at 1.0)
    res = fl.obtuse_corner_constant(alpha, grid=3)
    assert res.full_value == pytest.approx(res.main_value, abs=1e-13)


def test_acute_two_piece_total_sits_above_weyl_at_alpha_0_1():
    res = fl.obtuse_corner_constant(0.1, grid=1)
    assert res.error_estimate < 4e-6
    assert res.full_value - res.weyl_value == pytest.approx(1.2857165e-2, abs=4e-6)


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


def test_corner_constant_checks_grid_before_any_quadrature(monkeypatch):
    # a grid that is not an integer, or above 20, is refused before any rule is built:
    # numpy's leggauss takes only an integer degree, and grid 10**6 would ask it for a
    # 3,000,004-point companion matrix
    def no_rule(*args):
        raise AssertionError("a quadrature rule was built")

    monkeypatch.setattr(fl, "gauss_legendre", no_rule)
    for grid in (1.5, 2.0, "2", None, 21, 10**6, 0, -1):
        with pytest.raises(DomainError, match="grid"):
            fl.obtuse_corner_constant(1.0, grid=grid)


@pytest.mark.parametrize("r, tau, name", [(1.0, 1e-300, "tau="), (1.0, 1e160, "tau="),
                                          (1.0, 5e-324, "tau="), (1e160, 0.05, "r=")])
def test_broken_path_refuses_out_of_range_scales(r, tau, name):
    # tau^2 underflows or overflows, or r^2/tau overflows: refused before any arithmetic
    with pytest.raises(DomainError, match=name):
        fl.broken_path_propagator(r, 0.3, PI / 2, tau)


def test_signature_helpers():
    s = ledger.SignSignature("-", "+", "-", "+")
    assert str(s) == "-+-+"
    assert s.bounce_count == 2
    with pytest.raises(DomainError):
        ledger.SignSignature("x", "+", "-", "+")
    assert len(ledger.ALL_SIGNATURES) == 16
