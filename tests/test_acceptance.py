"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from billiard_weyl import birkhoff as bk
from billiard_weyl import folding as fl
from billiard_weyl import geometry as g
from billiard_weyl import ledger
from billiard_weyl import orbit_terms as ot
from billiard_weyl import spectra as spc
from billiard_weyl import weyl as w

PI = math.pi


class _Criterion:
    """Timed context that always prints one pass/fail line."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.notes: list[str] = []

    def note(self, text: str):
        self.notes.append(text)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        detail = "; ".join(self.notes)
        print(f"ACCEPTANCE {self.number} {self.label}: {verdict} "
              f"({elapsed:.1f}s of {self.budget_s:.0f}s budget) {detail}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s > {self.budget_s}s")
        return False


def test_criterion_1_rectangle_weyl_constant():
    with _Criterion(1, "rectangle-weyl-constant", 10.0) as c:
        a, b = 1.0, 2.0 ** (1.0 / 3.0)
        sp = spc.rectangle_spectrum(a, b, 5000.0)
        e = w.weyl_expansion(g.measures(g.rectangle(a, b)))
        res = spc.staircase_residual(sp, e, (500.0, 5000.0))
        c.note(f"mean={res['mean']:.4f} target=0.25+-0.03")
        assert res["mean"] == pytest.approx(0.25, abs=0.03)


def test_criterion_2_disk_curvature_term():
    with _Criterion(2, "disk-curvature-term", 60.0) as c:
        sp = spc.disk_spectrum(1.0, 4000.0)
        e = w.weyl_expansion(g.measures(g.disk()))
        res = spc.staircase_residual(sp, e, (500.0, 4000.0))
        c.note(f"mean={res['mean']:.4f} target={1 / 6:.4f}+-0.03")
        assert res["mean"] == pytest.approx(1.0 / 6.0, abs=0.03)


def test_criterion_3_length_term_by_quadrature():
    with _Criterion(3, "length-term-quadrature", 5.0) as c:
        quad = ot.length_term_density_quadrature(1.0, 4.0)
        closed = ot.length_term_density(1.0, 4.0)
        rel = abs(quad.value - closed) / abs(closed)
        c.note(f"quad={quad.value:.8f} closed={closed:.8f} rel={rel:.2e}")
        assert rel < 0.005


def test_criterion_4_corner_coefficient_table():
    with _Criterion(4, "corner-coefficients", 1.0) as c:
        cc = w.corner_coeffs(PI / 2)
        assert cc.weyl == 0.0625
        assert abs(cc.total_semiclassical - 0.0625) <= 4e-16

        def slope(f, d):
            return (4.0 * f(d / 2) - f(d) - 3.0 * f(0.0)) / d

        d = 1e-3
        s_tot = slope(lambda x: w.corner_coeffs((0.5 - x) * PI).total_semiclassical, d)
        s_wey = slope(lambda x: w.corner_coeffs((0.5 - x) * PI).weyl, d)
        assert abs(s_tot - 1.0 / 8.0) / (1.0 / 8.0) < 1e-4
        assert abs(s_wey - 5.0 / 24.0) / (5.0 / 24.0) < 1e-4

        small = w.corner_coeffs(1e-3)
        ratio = small.total_semiclassical / small.weyl
        assert abs(ratio - 9.0 / PI**2) / (9.0 / PI**2) < 1e-3
        c.note(f"right-angle=1/16 exact; slopes=({s_tot:.6f},{s_wey:.6f}); "
               f"small-angle ratio={ratio:.6f}")


def test_criterion_5_signature_ledger():
    """The sixteen-signature ledger is the exact quadrant decomposition.

    Totals in exact arithmetic are the Dirichlet quadrant trace
    A/(4 pi T) - L/(8 sqrt(pi T)) + 1/16: area 1, length -2 (per unit side
    length, summed over both sides) and the corner constant 1/16, which is
    Weyl's right-angle coefficient.  Every one of the sixteen tabulated
    entries is then confirmed by the folded-Gaussian quadrature oracle,
    which is independent of the table, to 1e-6.
    """
    with _Criterion(5, "signature-ledger", 30.0) as c:
        led = ledger.signature_ledger()
        assert led.total_area == Fraction(1)
        assert led.total_length == ledger.DeltaValue(const=Fraction(-2))
        assert led.total_delta.const == Fraction(1, 16)
        assert led.total_delta.over_pi == 0
        assert led.total_delta.over_pi2 == 0
        assert led.total_delta.value() == w.weyl_corner_coefficient(PI / 2)
        c.note("totals exact: PASS")

        failures = []
        print()
        print("  sig    table(area,len,delta)        oracle(area,len,delta)")
        for entry in led.entries:
            got = fl.signature_oracle(entry.signature, tau=0.25)
            want = (float(entry.area_units), float(entry.length_units),
                    entry.delta_units.value())
            have = (got["area_units"], got["length_units"], got["delta_units"])
            ok = all(abs(a - b) <= 1e-6 for a, b in zip(want, have))
            print(f"  {entry.signature}  ({want[0]:+.6f},{want[1]:+.6f},{want[2]:+.8f})"
                  f"  ({have[0]:+.6f},{have[1]:+.6f},{have[2]:+.8f})"
                  f"  {'ok' if ok else 'DEVIATES'}")
            if not ok:
                failures.append(str(entry.signature))
        c.note(f"oracle confirms {16 - len(failures)}/16 entries")
        assert not failures, (
            f"entries {failures} are not reproduced by the folded-Gaussian "
            "oracle to 1e-6: the table no longer holds the exact per-signature "
            "decomposition")


def test_criterion_6_bounce_map_algebra():
    with _Criterion(6, "bounce-map-algebra", 5.0) as c:
        rng = np.random.default_rng(0)
        worst_pair = 0.0
        worst_det = 0.0
        for _ in range(100):
            v1, v2 = rng.uniform(0.05, 1.0, 2)
            l12 = rng.uniform(0.1, 5.0)
            c1, c2 = rng.uniform(-2.0, 2.0, 2)
            m_closed = bk.linearized_bounce_map(v1, v2, l12, c1, c2)
            m_product = bk.linearized_bounce_map_product(v1, v2, l12, c1, c2)
            a, b = m_closed.as_array(), m_product.as_array()
            worst_pair = max(worst_pair,
                             float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a)))))
            worst_det = max(worst_det, abs(m_closed.det() - 1.0))
        assert worst_pair <= 1e-12
        assert worst_det <= 1e-12

        # polygonal chains collapse to (-1)^n [[1, L], [0, 1]]
        worst_poly = 0.0
        for n in (1, 2, 3, 6):
            v = tuple(rng.uniform(0.2, 1.0, n))
            chords = tuple(rng.uniform(0.3, 2.0, max(n - 1, 0)))
            spec = bk.OrbitSpec(v_perp=v, curvature=(0.0,) * n, chords=chords,
                                y_first=rng.uniform(0.1, 1.0),
                                y_last=-rng.uniform(0.1, 1.0))
            m = bk.monodromy(spec).as_array()
            want = (-1.0) ** n * np.array([[1.0, spec.length], [0.0, 1.0]])
            worst_poly = max(worst_poly, float(np.max(np.abs(m - want))))
        assert worst_poly <= 1e-12 * 10

        # finite differences of the nonlinear trace against the linearization
        def fd(bdy, c0, h=1e-6):
            out = np.empty((2, 2))
            per = bdy.perimeter
            for j, (ds, dv) in enumerate(((h, 0.0), (0.0, h))):
                cp = bk.bounce_map(bdy, bk.BirkhoffCoord(c0.s + ds, c0.v + dv))
                cm = bk.bounce_map(bdy, bk.BirkhoffCoord(c0.s - ds, c0.v - dv))
                dsv = cp.s - cm.s
                dsv -= per * round(dsv / per)
                out[0, j] = dsv / (2 * h)
                out[1, j] = (cp.v - cm.v) / (2 * h)
            return out

        worst_fd = 0.0
        for bdy in (g.square(), g.disk()):
            tested = 0
            while tested < 20:
                s = rng.uniform(0, bdy.perimeter)
                v = rng.uniform(-0.9, 0.9)
                try:
                    c0 = bk.BirkhoffCoord(s, v)
                    c1 = bk.bounce_map(bdy, c0)
                    f0, f1 = g.frame_at(bdy, c0.s), g.frame_at(bdy, c1.s)
                    l12 = math.hypot(f1.point[0] - f0.point[0],
                                     f1.point[1] - f0.point[1])
                    analytic = bk.linearized_bounce_map(
                        c0.v_perp, c1.v_perp, l12, f0.curvature, f1.curvature
                    ).as_array()
                    numeric = fd(bdy, c0)
                except (bk.CornerHitError, g.CornerPointError):
                    continue
                worst_fd = max(worst_fd, float(
                    np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic))))
                tested += 1
        assert worst_fd < 1e-6
        c.note(f"closed-vs-factored {worst_pair:.1e}; polygonal {worst_poly:.1e}; "
               f"finite-diff {worst_fd:.1e}")


def test_criterion_7_green_function_consistency():
    with _Criterion(7, "green-function-consistency", 10.0) as c:
        worst = 0.0
        for y, k in ((1.0, 1.0), (0.5, 2.0), (2.0, 3.0)):
            quad = ot.green_fourier(y, k)
            exact = ot.single_reflection_green(y, k)
            assert abs(quad.value - exact) <= max(3.0 * quad.error_estimate, 1e-7)
            worst = max(worst, abs(quad.value - exact))
        for ky in (5.0, 7.0, 10.0, 40.0, 200.0):
            ratio = abs(ot.green_stationary(ky, 1.0)) / abs(
                ot.single_reflection_green(ky, 1.0))
            assert abs(ratio - 1.0) < 1.0 / ky
        c.note(f"time-integral worst |diff|={worst:.1e}; "
               "stationary/uniform magnitude within 1/(ky)")


def test_criterion_8_folding_calibration():
    with _Criterion(8, "folding-calibration", 300.0) as c:
        # half identity of the two-piece kernel at the right angle
        worst = 0.0
        for r in (0.4, 0.9):
            for th1 in (0.2, 0.8, 1.3):
                broken = fl.broken_path_propagator(r, th1, PI / 2, 0.05).real
                half = 0.5 * fl.corner_orbit_kernel_imag(r, PI / 2, 0.1)
                worst = max(worst, abs(broken - half) / half)
        assert worst < 0.01
        c.note(f"half-identity worst rel={worst:.1e}")

        # right-angle calibration of the numerical constant
        target = 1.0 / 16 - 1.0 / (16 * PI**2)
        res1 = fl.obtuse_corner_constant(PI / 2, grid=1)
        res2 = fl.obtuse_corner_constant(PI / 2, grid=2)
        assert res2.value == pytest.approx(target, rel=0.01)
        assert res2.error_estimate <= 0.5 * res1.error_estimate
        c.note(f"right-angle value={res2.value:.7f} target={target:.7f}; "
               f"err {res1.error_estimate:.1e} -> {res2.error_estimate:.1e}")

        # obtuse run: convergence certificate plus the side-by-side column
        obtuse = fl.obtuse_corner_constant(2 * PI / 3, grid=1)
        assert obtuse.error_estimate < 0.01 * abs(obtuse.value)
        assert obtuse.weyl_value == pytest.approx((PI / (2 * PI / 3)
                                                   - (2 * PI / 3) / PI) / 24.0)
        c.note(f"alpha=2pi/3 value={obtuse.value:.6f}+-{obtuse.error_estimate:.1e} "
               f"(weyl column {obtuse.weyl_value:.6f})")
