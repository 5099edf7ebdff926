import itertools
import math
import statistics
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special as sp_special

from billiard_weyl import geometry as g
from billiard_weyl import spectra as spc
from billiard_weyl import weyl as w
from billiard_weyl.errors import DomainError
from billiard_weyl.specfun import bessel_j0_j1


def test_rectangle_first_eigenvalue():
    s = spc.rectangle_spectrum(1.0, 1.0, 100.0)
    assert s.eigenvalues[0] == pytest.approx(2 * math.pi**2, rel=1e-14)


def test_rectangle_exhaustive_enumeration():
    a, b, emax = 1.0, 2.0, 30.0
    s = spc.rectangle_spectrum(a, b, emax)
    brute = sorted(
        math.pi**2 * (m**2 / a**2 + n**2 / b**2)
        for m in range(1, 40)
        for n in range(1, 40)
        if math.pi**2 * (m**2 / a**2 + n**2 / b**2) <= emax
    )
    assert np.allclose(s.eigenvalues, brute, rtol=1e-14)


def test_rectangle_symmetric_in_sides():
    s1 = spc.rectangle_spectrum(1.0, 2.0, 200.0)
    s2 = spc.rectangle_spectrum(2.0, 1.0, 200.0)
    assert np.allclose(s1.eigenvalues, s2.eigenvalues, rtol=1e-14)


def test_rectangle_count_tracks_smooth_counting():
    a, b, emax = 1.0, 2.0 ** (1.0 / 3.0), 3000.0
    s = spc.rectangle_spectrum(a, b, emax)
    e = w.weyl_expansion(g.measures(g.rectangle(a, b)))
    expect = w.smooth_counting(e, emax)
    assert abs(len(s) - expect) < 6.0 * emax**0.25


def test_rectangle_empty_spectrum_error():
    with pytest.raises(spc.EmptySpectrumError):
        spc.rectangle_spectrum(1.0, 1.0, 10.0)


def test_bessel_zeros_match_scipy_oracle():
    # every zero below the cutoff, and none beyond it; orders 150 and 300 sit far
    # up the interlacing ladder
    for order, upper in ((0, 60.0), (1, 60.0), (5, 60.0), (17, 60.0), (150, 250.0), (300, 320.0)):
        mine = spc.bessel_zeros_bracketed(order, upper)
        oracle = sp_special.jn_zeros(order, len(mine) + 1)
        assert np.allclose(mine, oracle[:-1], rtol=1e-12, atol=1e-10)
        assert oracle[-1] > upper


def test_bessel_zeros_reject_a_bad_order():
    for order in (-1, 2.5):
        with pytest.raises(DomainError):
            spc.bessel_zeros_bracketed(order, 60.0)
    assert np.array_equal(spc.bessel_zeros_bracketed(np.int64(1), 60.0),
                          spc.bessel_zeros_bracketed(1, 60.0))


def test_disk_zeros_are_complete_and_interlace():
    # either side of j_{0,1} = 2.4048, exactly on a sweep node, and the disk's
    # cutoffs; one order past the last holding a zero must hold none
    for upper in (0.5, 2.40, 2.41, 7.0, math.sqrt(4000.0), math.sqrt(1e5)):
        zeros, orders = spc._all_zeros(upper)
        rows = [zeros[orders == m] for m in range(int(orders.max(initial=-1)) + 2)]
        for m, row in enumerate(rows):
            oracle = sp_special.jn_zeros(m, len(row) + 1)
            assert oracle[-1] > upper, (upper, m, len(row))
            np.testing.assert_allclose(row, oracle[:-1], rtol=1e-14, atol=0)
            if m:
                below = rows[m - 1]
                assert len(row) <= len(below) <= len(row) + 1
                assert np.all(below[:len(row)] < row)
                assert np.all(row[:len(below) - 1] < below[1:])


def test_polishing_in_blocks_gives_the_same_zeros(monkeypatch):
    # blocks hold brackets of several orders and split an order's brackets between them
    upper = math.sqrt(4000.0)
    zeros, orders = spc._all_zeros(upper)
    assert len(zeros) > 3 * 7
    monkeypatch.setattr(spc, "_POLISH_BLOCK", 7)
    blocked, blocked_orders = spc._all_zeros(upper)
    assert np.array_equal(blocked, zeros) and np.array_equal(blocked_orders, orders)


def test_one_order_is_polished_alone_and_is_its_share_of_all_zeros(monkeypatch):
    polished, polish = [], spc._polish

    def recording_polish(x, i, m, *rest):
        polished.append(m)
        return polish(x, i, m, *rest)

    monkeypatch.setattr(spc, "_polish", recording_polish)
    for order, upper in ((0, 60.0), (17, 60.0), (300, 320.0)):
        polished.clear()
        mine = spc.bessel_zeros_bracketed(order, upper)
        assert len(polished) == 1 and np.all(polished[0] == order)
        zeros, orders = spc._all_zeros(upper)
        assert len(mine) and np.array_equal(mine, zeros[orders == order])


def _sweep_by_order(upper: float):
    """Brackets from one pair of recurrence rows walked up the orders one at a time.

    The same nodes, recurrence and nearer-end rule as ``spc._brackets``, with the sign
    changes of each order found on their own.
    """
    x = upper - spc._STEP * np.arange(math.ceil(upper / spc._STEP) - 1, -1, -1)
    j0, j1 = bessel_j0_j1(x)
    r, prev, cur = 1.0 / x, -j1, j0
    s, cells = 0, []
    for m in itertools.count():
        pos = cur[s:] > 0
        i = s + np.flatnonzero(pos[:-1] != pos[1:])
        if not len(i):
            break
        flo, fhi = cur[i], cur[i + 1]
        cells.append((i, np.full(len(i), m), flo, fhi, prev[i + (np.abs(fhi) < np.abs(flo))]))
        s = int(np.searchsorted(x, m + 1, side="right"))
        np.subtract((2.0 * m) * r[s:] * cur[s:], prev[s:], out=prev[s:])
        prev, cur = cur, prev
    return [x] + ([np.concatenate(c) for c in zip(*cells)] if cells else [np.empty(0)] * 5)


def test_chunked_bracket_sweep_matches_the_sweep_by_order(monkeypatch):
    # the uppers of test_disk_zeros_are_complete_and_interlace and 1000, then again with
    # chunks of 3 orders, so that orders and their brackets cross chunk boundaries
    uppers = (0.5, 2.40, 2.41, 7.0, math.sqrt(4000.0), math.sqrt(1e5), 1000.0)
    for orders_per_chunk in (spc._SWEEP_ORDERS, 3):
        monkeypatch.setattr(spc, "_SWEEP_ORDERS", orders_per_chunk)
        for upper in uppers:
            mine, ref = spc._brackets(upper), _sweep_by_order(upper)
            for name, a, b in zip(("x", "i", "m", "flo", "fhi", "jb"), mine, ref):
                assert np.array_equal(a, b), (orders_per_chunk, upper, name)


def test_taylor_series_matches_mpmath():
    # about a node near the turning point and one far from it, out to one step either side;
    # scipy's jv is itself off by 5e-15 at (50, 316.25), so 30-digit mpmath is the oracle,
    # and the series starts from its J_m and J_{m-1} so that only the series is tested
    d = np.arange(-16, 17) / 16.0
    for m in (0, 1, 7, 50, 150, 300):
        for x0 in (m + 1.5, 316.25):
            with mpmath.workdps(30):
                j, jb = (float(mpmath.besselj(n, x0)) for n in (m, m - 1))
                ref = [float(mpmath.besselj(m, x)) for x in (x0 + d).tolist()]
                ref_d = [float(mpmath.besselj(m, x, 1)) for x in (x0 + d).tolist()]
            c = spc._taylor(*(np.full(len(d), v) for v in (x0, m, j, jb)))
            f, df = spc._horner(c, d)
            np.testing.assert_allclose(f, ref, rtol=0, atol=1e-15, err_msg=f"{m} {x0}")
            np.testing.assert_allclose(df, ref_d, rtol=0, atol=1e-15, err_msg=f"{m} {x0}")


def _taylor_with_temporaries(x0, m, j, jb):
    """``spc._taylor``'s recurrence as one array expression per coefficient row."""
    c = np.zeros((spc._TAYLOR_TERMS + 2, len(x0)))
    c[2], c[3] = j, jb - m / x0 * j
    q, x2, y = (x0 - m) * (x0 + m), 2.0 * x0, -1.0 / (x0 * x0)
    for k in range(spc._TAYLOR_TERMS - 2):
        c[k + 4] = (((k + 1) * (2 * k + 1)) * x0 * c[k + 3] + (k * k + q) * c[k + 2]
                    + x2 * c[k + 1] + c[k]) * y / ((k + 1) * (k + 2))
    return c[2:]


def test_in_place_taylor_rows_and_disk_eigenvalues_are_bit_identical(monkeypatch):
    # the rows for every bracket of the disk at emax 1e5, then the spectrum polished on each
    x, i, m, flo, fhi, jb = spc._brackets(math.sqrt(1e5))
    near = np.abs(fhi) < np.abs(flo)
    args = (np.where(near, x[i + 1], x[i]), m, np.where(near, fhi, flo), jb)
    assert np.array_equal(spc._taylor(*args), _taylor_with_temporaries(*args))
    mine = spc.disk_spectrum(1.0, 1e5).eigenvalues
    monkeypatch.setattr(spc, "_taylor", _taylor_with_temporaries)
    assert np.array_equal(mine, spc.disk_spectrum(1.0, 1e5).eigenvalues)


@pytest.mark.parametrize("spectrum, args", [
    (spc.disk_spectrum, (1e300, 1e100)),            # sqrt(emax) * R overflows to inf
    (spc.disk_spectrum, (1.0, 1e300)),
    (spc.rectangle_spectrum, (1.0, 1.0, 1e300)),
    (spc.rectangle_spectrum, (1e150, 1.0, 1e300)),  # the grid count overflows to inf
    (spc.bessel_zeros_bracketed, (0, 1e300)),
    (spc.disk_spectrum, (1.0, 4.1e8)),              # just past the bound: 1.03e8 zeros
    (spc.rectangle_spectrum, (1.0, 1.0, 1e9)),      # and 1.01e8 grid points
], ids=["disk-overflow", "disk-huge", "rectangle-huge", "rectangle-overflow", "zeros-huge",
        "disk-past-bound", "rectangle-past-bound"])
def test_spectra_refuse_grids_that_cannot_be_built(spectrum, args):
    # refused before any array is allocated
    with pytest.raises(DomainError, match="entries; the bound is 1e"):
        spectrum(*args)


def test_spectrum_rejects_nan_disorder_and_out_of_range_eigenvalues():
    for ev in ([np.nan], [1.0, np.nan, 3.0], [2.0, 1.0], [-1.0, 2.0], [0.0, 2.0], [1.0, 11.0]):
        with pytest.raises(DomainError, match="sorted, positive, and <= emax"):
            spc.Spectrum(np.array(ev), "x", 10.0)
    with pytest.raises(spc.EmptySpectrumError):
        spc.Spectrum(np.empty(0), "x", 10.0)
    assert len(spc.Spectrum(np.array([1.0, 1.0, 10.0]), "x", 10.0)) == 3


def test_disk_spectrum_peak_memory():
    # 12,471 brackets of 40 bytes, one polishing block of 2,048 brackets with its
    # 22-row coefficient table, and the sweep's 66-row table of 317 nodes (measured: 1.45 MiB)
    spc.disk_spectrum(1.0, 1e5)
    tracemalloc.start()
    try:
        spc.disk_spectrum(1.0, 1e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 2**20


def test_disk_below_its_first_zero_is_refused_without_a_warning():
    # the bracket sweep's only node is x = 1e-319, whose reciprocal overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(spc.EmptySpectrumError):
            spc.disk_spectrum(1e-320, 100.0)


def test_disk_first_eigenvalue_and_degeneracy():
    s = spc.disk_spectrum(1.0, 60.0)
    assert s.eigenvalues[0] == pytest.approx(2.404825557695773**2, rel=1e-12)
    # first order-one zero appears twice
    j11 = sp_special.jn_zeros(1, 1)[0]
    idx = np.searchsorted(s.eigenvalues, j11**2 - 1e-9)
    assert s.eigenvalues[idx] == pytest.approx(j11**2, rel=1e-12)
    assert s.eigenvalues[idx + 1] == pytest.approx(j11**2, rel=1e-12)


def test_disk_radius_scaling():
    s1 = spc.disk_spectrum(1.0, 100.0)
    s2 = spc.disk_spectrum(2.0, 25.0)
    assert np.allclose(s2.eigenvalues, s1.eigenvalues / 4.0, rtol=1e-12)


def test_disk_count_tracks_smooth_counting():
    s = spc.disk_spectrum(1.0, 1500.0)
    e = w.weyl_expansion(g.measures(g.disk()))
    expect = w.smooth_counting(e, 1500.0)
    assert abs(len(s) - expect) < 6.0 * 1500.0**0.25


def test_staircase_residual_square_quarter():
    s = spc.rectangle_spectrum(1.0, 1.0, 5000.0)
    e = w.weyl_expansion(g.measures(g.square()))
    r = spc.staircase_residual(s, e, (500.0, 5000.0))
    assert r["mean"] == pytest.approx(0.25, abs=0.03)


def _step_integral(ev: np.ndarray, e1: float, e2: float) -> float:
    """Integral of N(E) = #{eigenvalues <= E} over [e1, e2], one term per eigenvalue."""
    return math.fsum(e2 - max(lam, e1) for lam in ev.tolist() if lam <= e2)


def test_staircase_residual_zero_expansion_gives_mean_count():
    s = spc.rectangle_spectrum(1.0, 1.0, 3000.0)
    ev = s.eigenvalues
    zero = w.SpectralExpansion(0.0, 0.0, 0.0, 0.0, 0.0)
    # the square's spectrum is degenerate; the last two windows start and end on eigenvalues
    for e1, e2 in ((100.0, 3000.0), (ev[10], ev[150]), (ev[3], ev[-1])):
        r = spc.staircase_residual(s, zero, (e1, e2))
        assert r["mean"] == pytest.approx(_step_integral(ev, e1, e2) / (e2 - e1), rel=1e-12)
        inside = [i + 1 for i, lam in enumerate(ev.tolist()) if e1 <= lam <= e2]
        assert r["count"] == len(inside)
        # with no smooth part, the residual at the i-th eigenvalue is i
        assert r["stderr"] == pytest.approx(statistics.pstdev(inside) / math.sqrt(len(inside)),
                                            rel=1e-12)


def _residual_integral_gauss_legendre(ev: np.ndarray, e: w.SpectralExpansion,
                                      e1: float, e2: float) -> float:
    """Integral of the residual over [e1, e2] by 3-node Gauss-Legendre per panel in u = sqrt(E).

    N is constant between eigenvalues and dE = 2u du, so the integrand is a cubic
    in u on each panel, which the rule integrates exactly.
    """
    cuts = np.sqrt(np.unique(np.concatenate([[e1, e2], ev[(ev > e1) & (ev < e2)]])))
    a, b = cuts[:-1, None], cuts[1:, None]
    x, wt = np.polynomial.legendre.leggauss(3)
    u = 0.5 * (a + b) + 0.5 * (b - a) * x
    n = np.searchsorted(ev, u * u, side="right")
    resid = n - e.const_coef * u * u - 2.0 * e.inv_sqrt_coef * u
    return math.fsum((0.5 * (b - a) * wt * resid * 2.0 * u).ravel().tolist())


def test_staircase_residual_matches_gauss_legendre_reference():
    a, b = 1.0, 2.0 ** (1.0 / 3.0)
    cases = ((spc.rectangle_spectrum(a, b, 6000.0), g.rectangle(a, b), (1000.0, 6000.0)),
             (spc.disk_spectrum(1.0, 4000.0), g.disk(), (500.0, 4000.0)))
    for s, boundary, (e1, e2) in cases:
        e = w.weyl_expansion(g.measures(boundary))
        r = spc.staircase_residual(s, e, (e1, e2))
        ref = _residual_integral_gauss_legendre(s.eigenvalues, e, e1, e2) / (e2 - e1)
        assert r["mean"] == pytest.approx(ref, rel=1e-12), s.shape


def test_staircase_residual_is_additive_over_windows():
    a, b = 1.0, 2.0 ** (1.0 / 3.0)
    s = spc.rectangle_spectrum(a, b, 6000.0)
    e = w.weyl_expansion(g.measures(g.rectangle(a, b)))
    whole = spc.staircase_residual(s, e, (1000.0, 6000.0))["mean"] * 5000.0
    left = spc.staircase_residual(s, e, (1000.0, 3500.0))["mean"] * 2500.0
    right = spc.staircase_residual(s, e, (3500.0, 6000.0))["mean"] * 2500.0
    assert whole == pytest.approx(left + right, rel=1e-12)


def test_staircase_residual_window_stability():
    a, b = 1.0, 2.0 ** (1.0 / 3.0)
    s = spc.rectangle_spectrum(a, b, 6000.0)
    e = w.weyl_expansion(g.measures(g.rectangle(a, b)))
    r1 = spc.staircase_residual(s, e, (1000.0, 3500.0))
    r2 = spc.staircase_residual(s, e, (1000.0, 6000.0))
    assert abs(r2["mean"] - r1["mean"]) < 0.02


def test_staircase_residual_insufficient_data():
    s = spc.rectangle_spectrum(1.0, 1.0, 400.0)
    e = w.weyl_expansion(g.measures(g.square()))
    with pytest.raises(spc.InsufficientDataError):
        spc.staircase_residual(s, e, (390.0, 400.0))


def test_staircase_residual_window_validation():
    s = spc.rectangle_spectrum(1.0, 1.0, 400.0)
    e = w.weyl_expansion(g.measures(g.square()))
    with pytest.raises(DomainError):
        spc.staircase_residual(s, e, (100.0, 500.0))
