import math
from fractions import Fraction

import numpy as np
import pytest

from billiard_weyl import folding as fl
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


def _sig(s: str) -> fl.SignSignature:
    return fl.SignSignature(*s)


def test_ledger_exact_totals():
    # the exact Dirichlet quadrant trace A/(4 pi T) - L/(8 sqrt(pi T)) + 1/16
    led = fl.signature_ledger()
    assert led.total_area == Fraction(1)
    assert led.total_length == fl.DeltaValue(const=Fraction(-2))
    assert led.total_delta.const == Fraction(1, 16)
    assert led.total_delta.over_pi == 0
    assert led.total_delta.over_pi2 == 0
    assert led.total_delta.value() == w.weyl_corner_coefficient(PI / 2)


def test_ledger_tabulated_entries():
    led = {str(e.signature): e for e in fl.signature_ledger().entries}
    assert led["----"].area_units == 1
    assert led["----"].length_units == fl.DeltaValue(over_pi=Fraction(-2))
    assert led["----"].delta_units == fl.DeltaValue(over_pi2=Fraction(1, 16))
    for s in ("-+-+", "+-+-"):
        assert led[s].length_units == fl.DeltaValue(over_pi=Fraction(1))
        assert led[s].delta_units == fl.DeltaValue(over_pi2=Fraction(-1, 16))
    for s in ("+---", "-+--", "--+-", "---+"):
        assert led[s].length_units == fl.DeltaValue(const=Fraction(-1, 2))
        assert led[s].delta_units == fl.DeltaValue(over_pi=Fraction(1, 32))
    for s in ("+--+", "-++-", "++--", "--++"):
        assert led[s].delta_units == fl.DeltaValue(const=Fraction(1, 64))
    for s in ("+++-", "++-+", "+-++", "-+++"):
        assert led[s].delta_units == fl.DeltaValue(over_pi=Fraction(-1, 32))
    assert led["++++"].delta_units == fl.DeltaValue(over_pi2=Fraction(1, 16))


def test_ledger_neumann_parity():
    led_d = fl.signature_ledger(w.DIRICHLET)
    led_n = fl.signature_ledger(w.NEUMANN)
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
    assert led_n.total_length == fl.DeltaValue(const=Fraction(2))
    assert led_n.total_delta == fl.DeltaValue(const=Fraction(1, 16))


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
    led = {str(e.signature): e for e in fl.signature_ledger().entries}
    for s, (area, length, delta) in EXACT_GAUSSIAN.items():
        e = led[s]
        assert float(e.area_units) == pytest.approx(area, rel=1e-12), s
        assert float(e.length_units) == pytest.approx(length, rel=1e-12), s
        assert e.delta_units.value() == pytest.approx(delta, rel=1e-12), s


def test_fold_semigroup_on_the_plane():
    K = fl.fold(fl.free_kernel, fl.free_kernel, "plane")
    rng = np.random.default_rng(3)
    for _ in range(3):
        p = rng.uniform(-1, 1, 2)
        q = rng.uniform(-1, 1, 2)
        tau = rng.uniform(0.05, 0.3)
        assert K(p, q, tau) == pytest.approx(float(fl.free_kernel(p, q, tau)),
                                             rel=1e-6)


def test_fold_five_point_pairs_midpoint_split():
    K = fl.fold(fl.free_kernel, fl.free_kernel, "plane")
    pairs = [((0.0, 0.0), (0.3, -0.2)), ((1.0, 0.5), (1.0, 0.5)),
             ((-0.4, 0.1), (0.2, 0.6)), ((0.0, 1.0), (0.5, 0.0)),
             ((0.7, 0.7), (-0.1, 0.2))]
    for p, q in pairs:
        p, q = np.array(p), np.array(q)
        assert K(p, q, 0.2) == pytest.approx(float(fl.free_kernel(p, q, 0.2)),
                                             rel=1e-6)


def test_fold_halfplane_leaks():
    Kh = fl.fold(fl.free_kernel, fl.free_kernel, ("halfplane_y",))
    p = np.array([0.0, 0.08])
    q = np.array([0.05, 0.1])
    free = float(fl.free_kernel(p, q, 0.2))
    leaked = Kh(p, q, 0.2)
    assert leaked < 0.75 * free       # boundary truncation loses mass


def test_broken_path_half_identity_at_right_angle():
    alpha = PI / 2
    for tau in (0.02, 0.05):
        for r in (0.4, 0.8):
            for th1 in (0.1, 0.6, 1.2):
                broken = fl.broken_path_propagator(r, th1, alpha, tau)
                half = 0.5 * fl.corner_orbit_kernel_imag(r, alpha, 2 * tau)
                assert broken.real == pytest.approx(half, rel=1e-10)
                assert broken.imag == 0.0


def test_fold_composition_matches_broken_path_in_the_unfolded_cone():
    # composing two free kernels over the unfolded angular domain reproduces
    # the broken-path kernel (small tau keeps the integrand exponentially
    # dead at the masked region boundary)
    alpha, th1, r, tau = 1.0, 0.5, 1.0, 0.01
    th2 = 2 * alpha + th1
    lo = max(0.0, th2 - math.pi)
    hi = min(3 * alpha, th1 + math.pi)
    K = fl.fold(fl.free_kernel, fl.free_kernel, ("cone", lo, hi), n_nodes=96)
    p = np.array([r * math.cos(th1), r * math.sin(th1)])
    q = np.array([r * math.cos(th2), r * math.sin(th2)])
    composed = K(p, q, 2 * tau)
    broken = fl.broken_path_propagator(r, th1, alpha, tau).real
    assert composed == pytest.approx(broken, rel=1e-3)


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


def test_leg_validity_complementary_orders_at_right_angle():
    # at the rectangular corner exactly one bounce order of the double
    # reflection is admissible for generic endpoints
    alpha = PI / 2
    rng = np.random.default_rng(11)
    thx = rng.uniform(0.01, alpha - 0.01, 200)
    thy = rng.uniform(0.01, alpha - 0.01, 200)
    ab = fl._leg_valid(alpha, thx, thy, "ab")
    ba = fl._leg_valid(alpha, thx, thy, "ba")
    assert np.all(ab ^ ba)


def test_leg_validity_against_explicit_wedge_trace():
    # brute-force check: unfold the candidate path and verify the bounce
    # points sit on the physical side rays in the right order
    rng = np.random.default_rng(13)

    def explicit_ab_valid(alpha, th_x, th_y):
        x = np.array([math.cos(th_x), math.sin(th_x)])
        img = np.array([math.cos(th_y - 2 * alpha), math.sin(th_y - 2 * alpha)])
        d = img - x
        # crossing with the x-axis
        if abs(d[1]) < 1e-15 or abs(x[1]) < 1e-15:
            return False
        t_a = x[1] / (x[1] - img[1])
        if not 0.0 < t_a < 1.0:
            return False
        if x[0] + t_a * d[0] < 0.0:
            return False
        # crossing with the reflected second side (angle -alpha)
        n = np.array([math.sin(alpha), math.cos(alpha)])
        sx, si = x @ n, img @ n
        if sx * si >= 0.0:
            return False
        t_b = sx / (sx - si)
        if not t_a < t_b < 1.0:
            return False
        u = np.array([math.cos(alpha), -math.sin(alpha)])
        return (x + t_b * d) @ u >= 0.0

    for alpha in (PI / 2, 2.0, 2.5, 3.0):
        thx = rng.uniform(1e-3, alpha - 1e-3, 300)
        thy = rng.uniform(1e-3, alpha - 1e-3, 300)
        fast = fl._leg_valid(alpha, thx, thy, "ab")
        slow = np.array([explicit_ab_valid(alpha, a, b) for a, b in zip(thx, thy)])
        assert np.array_equal(fast, slow)


def test_sectors_resolve_a_narrow_invalid_gap():
    # an outer Gauss-Legendre node of the alpha = 2.5, grid-1 run just above
    # pi - alpha: the ("d", "a") pair is valid only up to theta0 = pi - theta,
    # which leaves an invalid gap 2.4e-4 wide below alpha
    alpha, theta = 2.5, 0.6418353226947738
    rows, lo, hi = fl._sectors_for_nodes(alpha, np.array([theta]), "d", "a")
    assert rows.tolist() == [0]
    sector = (lo[0], hi[0])
    assert sector[0] == 0.0
    assert sector[1] == pytest.approx(2.499757331, abs=1e-9)
    assert sector[1] == pytest.approx(PI - theta, abs=1e-15)


@pytest.mark.parametrize("alpha", [1.0, PI / 2, 2.5, 0.96 * PI])
def test_sectors_match_a_dense_validity_scan(alpha):
    # away from the sector ends, every angle of a uniform scan is valid
    # exactly when it lies inside a sector
    n_scan = 20000
    h = alpha / n_scan
    scan = (np.arange(n_scan) + 0.5) * h
    thetas = alpha * np.array([0.13, 0.37, 0.61, 0.89])
    if PI - alpha < alpha:
        thetas = np.append(thetas, PI - alpha + 2.4e-4)
    for pair in fl._pair_list():
        rows, lo, hi = fl._sectors_for_nodes(alpha, thetas, *pair)
        sectors = [list(zip(lo[rows == i], hi[rows == i])) for i in range(len(thetas))]
        valid = fl._pair_valid(alpha, thetas[:, None], scan[None, :], *pair)
        for row, secs in zip(valid, sectors):
            inside = np.zeros(n_scan, dtype=bool)
            near = np.zeros(n_scan, dtype=bool)
            for lo, hi in secs:
                inside |= (scan > lo) & (scan < hi)
                near |= (np.abs(scan - lo) < h) | (np.abs(scan - hi) < h)
            assert np.array_equal(row[~near], inside[~near]), (pair, secs)
            # adjacent valid pieces are merged into one sector
            assert all(b < a for (_, b), (a, _) in zip(secs, secs[1:])), (pair, secs)


def _extrapolate_sqrt_tau(taus, vals):
    xs = [math.sqrt(t) for t in taus]
    tab = list(vals)
    for lv in range(1, len(xs)):
        for i in range(len(xs) - lv):
            tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * xs[i + lv] / (xs[i] - xs[i + lv])
    return tab[0]


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
    taus = right_angle_constant.tau_ladder

    def const_of(*pairs):
        vals = np.sum([per[p] for p in pairs], axis=0)
        return _extrapolate_sqrt_tau(taus, vals)

    # ordered double-bounce classes split one Cartesian signature between
    # the two bounce orders; their sums land on the tabulated constants
    assert const_of(("d", "ab"), ("d", "ba")) == pytest.approx(1 / 64, abs=2e-5)
    assert const_of(("ab", "d"), ("ba", "d")) == pytest.approx(1 / 64, abs=2e-5)
    assert const_of(("a", "b")) == pytest.approx(1 / 64, abs=2e-5)
    assert const_of(("b", "a")) == pytest.approx(1 / 64, abs=2e-5)
    # singles keep their +1/(32 pi) constants after the edge part is removed
    assert const_of(("d", "a")) == pytest.approx(1 / (32 * PI), abs=3e-5)
    assert const_of(("a", "d")) == pytest.approx(1 / (32 * PI), abs=3e-5)
    # same-side doubles carry -1/(16 pi^2)
    assert const_of(("a", "a")) == pytest.approx(-1 / (16 * PI**2), abs=3e-5)
    assert const_of(("b", "b")) == pytest.approx(-1 / (16 * PI**2), abs=3e-5)
    # triples and the quadruple group
    assert const_of(("a", "ab"), ("a", "ba")) == pytest.approx(-1 / (32 * PI),
                                                               abs=3e-5)
    assert const_of(("ab", "ab"), ("ab", "ba"), ("ba", "ab"), ("ba", "ba")) \
        == pytest.approx(1 / (16 * PI**2), abs=3e-5)


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
    (1.0, 0.10542281615692589, 0.08366917286008727),
    (PI / 2, 0.05615430456530561, 0.062489475879648475),
    (2.5, 0.0159313956373167, 0.01682822365628247),
])
def test_corner_constant_pinned_at_grid_one(alpha, value, main_value):
    # grid-1 values; a change in the order of the inner quadrature's sums
    # may move them only at rounding level
    res = fl.obtuse_corner_constant(alpha, grid=1)
    assert res.value == pytest.approx(value, rel=1e-11)
    assert res.main_value == pytest.approx(main_value, rel=1e-11)


def test_corner_constant_rejects_bad_inputs():
    with pytest.raises(DomainError):
        fl.obtuse_corner_constant(0.0)
    with pytest.raises(DomainError):
        fl.obtuse_corner_constant(3.5)
    with pytest.raises(DomainError):
        fl.obtuse_corner_constant(1.0, grid=0)
    for ladder in [(), (0.0,), (0.02, -0.01), (math.nan,), (math.inf,), (0.02, 0.02)]:
        with pytest.raises(DomainError):
            fl.obtuse_corner_constant(2.0, tau_ladder=ladder)


def test_signature_helpers():
    s = fl.SignSignature("-", "+", "-", "+")
    assert str(s) == "-+-+"
    assert s.bounce_count == 2
    with pytest.raises(DomainError):
        fl.SignSignature("x", "+", "-", "+")
    assert len(fl.ALL_SIGNATURES) == 16
