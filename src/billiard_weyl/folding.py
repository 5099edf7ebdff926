"""Two-piece (folded) propagator sums at a wedge corner.

A closed path at a rectangular corner splits into two legs through a
mediate point; expanding each leg in wall images gives sixteen "four
signs" signatures.  Their exact folded-Gaussian (area, length, delta(E))
content is the ``ledger`` module's table, whose names are imported here
too.  ``signature_oracle`` recomputes the same decomposition of each
signature by quadrature in imaginary time, independently of the table.

For a general wedge the same two-piece construction is organised by leg
path classes (direct, one bounce per side, double bounces in both orders),
each leg valid when its unfolded chord spans at most pi, and the corner's
delta(E) constant is extracted numerically: ``obtuse_corner_constant``.

All numerical propagator work here is done in imaginary time (t -> -i*tau),
which turns the oscillatory kernels into Gaussians; the (E^0, E^-1/2,
delta(E)) coefficients map onto the (1/tau, 1/sqrt(tau), 1) terms of the
trace, so nothing is lost by the rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import DomainError, NonConvergence
from .ledger import (ALL_SIGNATURES, DeltaValue, Ledger, PathContribution, SignSignature,
                     signature_ledger)
from .specfun import extrapolate_to_zero, gauss_legendre

__all__ = [
    "SignSignature",
    "DeltaValue",
    "PathContribution",
    "Ledger",
    "ALL_SIGNATURES",
    "signature_ledger",
    "signature_oracle",
    "broken_path_propagator",
    "corner_orbit_kernel_imag",
    "ObtuseCornerResult",
    "obtuse_corner_constant",
    "PATH_CLASSES",
]


# ---------------------------------------------------------------------------
# folded-Gaussian oracle for the signatures (imaginary time)


def _axis_pair_integral(s1: str, s2: str, tau: float, cut: float) -> float:
    """Quadrature of the one-axis factor over (0, cut) x (0, inf)."""
    st = math.sqrt(tau)
    g1 = 1.0 if s1 == "+" else -1.0
    g2 = 1.0 if s2 == "+" else -1.0
    hi0 = cut + 16.0 * st
    x, wx = gauss_legendre(np.linspace(0.0, cut, max(8, int(cut / st)) + 1), 24)
    x0, w0 = gauss_legendre(np.linspace(0.0, hi0, max(8, int(hi0 / st)) + 1), 24)
    e = np.exp(-((x[:, None] + g1 * x0[None, :])**2
                 + (x[:, None] + g2 * x0[None, :])**2) / (4.0 * tau))
    return float(wx @ e @ w0)


def signature_oracle(sig: SignSignature, tau: float = 0.25) -> dict:
    """Folded-Gaussian decomposition of one signature, by pure quadrature.

    The four-fold integral factorizes per axis; each axis factor is exactly
    linear in the trace cutoff once the cutoff clears the Gaussian range,
    so two cutoffs separate the extensive (area/edge) parts from the
    cutoff-independent constant.  Returned units match the table: area in
    A/(4 pi T), length per unit of side length in 1/(8 sqrt(pi T)) (sum of
    the two sides), delta as a plain constant; T = 2 tau is the total
    imaginary time of the two legs.
    """
    if not tau > 0:
        raise DomainError("tau must be positive")
    st = math.sqrt(tau)
    cut1, cut2 = 14.0 * st, 22.0 * st
    coeffs = {}
    for pair in {(sig.sx1, sig.sx2), (sig.sy1, sig.sy2)}:
        i1 = _axis_pair_integral(*pair, tau, cut1)
        i2 = _axis_pair_integral(*pair, tau, cut2)
        slope = (i2 - i1) / (cut2 - cut1)
        coeffs[pair] = (slope, i1 - slope * cut1)
    ax, bx = coeffs[(sig.sx1, sig.sx2)]
    ay, by = coeffs[(sig.sy1, sig.sy2)]
    sgn = (-1.0) ** sig.bounce_count
    big_t = 2.0 * tau
    pref = 1.0 / (16.0 * math.pi**2 * tau**2)
    u_area = 1.0 / (4.0 * math.pi * big_t)
    u_len = 1.0 / (8.0 * math.sqrt(math.pi * big_t))
    return {
        "area_units": sgn * pref * ax * ay / u_area,
        "length_units": sgn * pref * (ax * by + bx * ay) / u_len,
        "delta_units": sgn * pref * bx * by,
    }


# ---------------------------------------------------------------------------
# broken two-piece path through the unfolded wedge


def _radial_first_moment(m: np.ndarray, tau: float) -> np.ndarray:
    """integral of r0 exp(-(r0-m)^2/(2 tau)) over r0 in (0, inf)."""
    from scipy.special import erfc  # deferred: scipy dominates import time
    s = math.sqrt(2.0 * tau)
    return tau * np.exp(-(m * m) / (2.0 * tau)) \
        + m * math.sqrt(math.pi * tau / 2.0) * erfc(-m / s)


# Geometric refinement levels around each peak, and Gauss-Legendre nodes
# per panel of the broken-path angular quadrature.
_REFINE_LEVELS = 7
_BROKEN_PATH_NODES = 12


def _panel_edges(lo, hi, peaks, scale: float) -> np.ndarray:
    """Sorted panel edges on [lo, hi] per row, refined geometrically near the row's ``peaks``.

    Edges outside [lo, hi] are clipped onto it, so a row may repeat an edge;
    ``np.unique`` of a row, or dropping its zero-width panels, leaves the distinct ones.
    """
    steps = scale * 2.0 ** np.arange(_REFINE_LEVELS + 1)
    offsets = np.concatenate([-steps, [0.0], steps])
    peaks = np.asarray(peaks, dtype=float)
    lo, hi = (np.asarray(x, dtype=float)[..., None] for x in (lo, hi))
    cand = (peaks[..., None] + offsets).reshape(*peaks.shape[:-1], -1)
    return np.sort(np.concatenate([lo, np.clip(cand, lo, hi), hi], axis=-1), axis=-1)


def broken_path_propagator(r: float, theta1: float, alpha: float, tau: float) -> complex:
    """Two-piece kernel from (r, theta1) to its double-reflection image.

    The mediate point roams the unfolded triple sector [0, 3*alpha], with
    the visibility constraints |theta0 - theta1| <= pi and
    |theta0 - theta2| <= pi, theta2 = 2*alpha + theta1.  Both legs carry
    the free kernel for time ``tau`` each (total 2*tau).  Evaluated in
    imaginary time; the radial part of the mediate integral is closed
    form, the angular part is quadrature.
    """
    if not (r > 0 and tau > 0):
        raise DomainError("broken_path_propagator requires r > 0 and tau > 0")
    if not 0.0 < alpha < math.pi:
        raise DomainError("alpha must be in (0, pi)")
    if not 0.0 <= theta1 <= alpha:
        raise DomainError("theta1 must lie in [0, alpha]")
    theta2 = 2.0 * alpha + theta1
    lo = max(0.0, theta2 - math.pi)
    hi = min(3.0 * alpha, theta1 + math.pi)
    if hi <= lo:
        return complex(0.0)
    psi_mid = 0.5 * (theta1 + theta2)
    peaks = [psi_mid, psi_mid - math.pi, psi_mid + math.pi]
    scale = math.sqrt(2.0 * tau) / (2.0 * max(r, math.sqrt(tau)))
    edges = np.unique(_panel_edges(lo, hi, peaks, scale))
    th0, w = gauss_legendre(edges, _BROKEN_PATH_NODES)
    c = np.cos(th0 - theta1) + np.cos(th0 - theta2)
    envelope = np.exp(-(r * r) * (1.0 - 0.25 * c * c) / (2.0 * tau))
    integrand = envelope * _radial_first_moment(0.5 * r * c, tau)
    value = float(np.sum(w * integrand)) / (16.0 * math.pi**2 * tau**2)
    return complex(value)


def corner_orbit_kernel_imag(r: float, alpha: float, total_tau: float) -> float:
    """Imaginary-time closed-orbit kernel of the corner family.

    Wick rotation of the double-reflection kernel:
    (1/(4 pi t)) exp(-(r sin alpha)^2 / t) at t = total_tau.
    """
    if not (r > 0 and total_tau > 0):
        raise DomainError("corner_orbit_kernel_imag requires positive arguments")
    return math.exp(-(r * math.sin(alpha)) ** 2 / total_tau) / (4.0 * math.pi * total_tau)


# ---------------------------------------------------------------------------
# wedge path classes and the numerical corner constant

PATH_CLASSES = ("d", "a", "b", "ab", "ba")


def _image_angle(alpha: float, theta, sides: str):
    """theta reflected across ``sides`` in order ("a" at angle 0, "b" at alpha; "d" none)."""
    for side in sides.replace("d", ""):
        theta = -theta if side == "a" else 2.0 * alpha - theta
    return theta


def _visible_sector(alpha: float, psi_u, psi_v):
    """[lo, hi], the theta0 in [0, alpha] within pi of both image angles (empty if hi <= lo)."""
    lo = np.maximum(0.0, np.maximum(psi_u, psi_v) - math.pi)
    hi = np.minimum(alpha, np.minimum(psi_u, psi_v) + math.pi)
    return lo, hi


def _stable_g(rho: np.ndarray) -> np.ndarray:
    """[rho*arccos(-rho) + sqrt(1-rho^2)] / (1-rho^2)^(3/2), stably, for |rho| < 1:
    ``_radial_double_moment`` has |rho| <= (1 + 2 tau/_WINDOW_R^2)^(-1/2), as |c| <= 2."""
    s2 = 1.0 - rho * rho
    s = np.sqrt(s2)
    w = np.arccos(-rho)
    direct = (rho * w + s) / (s2 * s)
    small = w < 1e-2
    series = 1.0 / 3.0 + 2.0 * w * w / 15.0
    return np.where(small, series, direct)


# Radius of the Gaussian window exp(-r^2/_WINDOW_R^2) on the corner trace.
_WINDOW_R = 1.0


def _radial_double_moment(c: np.ndarray, tau: float) -> np.ndarray:
    """Closed form of the windowed radial double integral.

    integral over (0,inf)^2 of r r0 exp(-[2r^2 + 2r0^2 - 2 r r0 c]/(4 tau)
    - r^2/_WINDOW_R^2) dr dr0, expressed through the positive-quadrant
    moment of a correlated Gaussian.
    """
    a = 1.0 / (2.0 * tau) + 1.0 / _WINDOW_R**2
    b = 1.0 / (2.0 * tau)
    rho = (c / (4.0 * tau)) / math.sqrt(a * b)
    return _stable_g(rho) / (4.0 * a * b)


# Sectors per numpy pass of ``_rung_traces``: each carries ~90 panel edges, and one pass
# over all of a pair's few hundred sectors adds ~3 MiB of peak memory for no clear speed-up.
_SECTOR_BLOCK = 64


def _rung_traces(alpha: float, tau: float, n_gl: int) -> dict:
    """Unsigned windowed two-piece trace of every class pair at one rung, on one theta grid.

    Unfolded, a leg is the chord from theta0 to theta reflected along its word (reversed
    for the back leg), and it meets each side line in turn iff it spans at most pi.
    """
    scale = math.sqrt(2.0 * tau) / (2.0 * _WINDOW_R)
    crit = [x for x in (2.0 * alpha - math.pi, math.pi - alpha, 3.0 * alpha - 2.0 * math.pi)
            if 0.0 < x < alpha]
    th_edges = np.unique(_panel_edges(0.0, alpha, [0.0, alpha] + crit, scale))
    thetas, th_w = gauss_legendre(th_edges, n_gl)
    traces = {}
    for p1, p2 in product(PATH_CLASSES, repeat=2):
        if p1 == p2 == "d":
            continue
        psi_u, psi_v = _image_angle(alpha, thetas, p1), _image_angle(alpha, thetas, p2[::-1])
        lo, hi = _visible_sector(alpha, psi_u, psi_v)
        rows = np.flatnonzero(hi - lo > 1e-12)
        psi_mid = 0.5 * (psi_u + psi_v)
        two_cos_half = 2.0 * np.cos(0.5 * (psi_u - psi_v))
        total = 0.0
        for start in range(0, len(rows), _SECTOR_BLOCK):
            r = rows[start:start + _SECTOR_BLOCK]
            peaks = psi_mid[r, None] + math.pi * np.arange(-2, 3)
            edges = _panel_edges(lo[r], hi[r], peaks, scale)
            sec, pan = np.nonzero(edges[:, 1:] > edges[:, :-1])    # the live panels
            th0, w0 = gauss_legendre(edges[sec[:, None], pan[:, None] + (0, 1)], n_gl)
            node = r[sec, None]
            c = two_cos_half[node] * np.cos(th0 - psi_mid[node])
            total += float(np.sum(th_w[node] * w0 * _radial_double_moment(c, tau)))
        traces[p1, p2] = total
    return traces


# Largest error estimate obtuse_corner_constant accepts (absolute).
_ERROR_TOL = 0.01


@dataclass(frozen=True)
class ObtuseCornerResult:
    alpha: float
    value: float
    error_estimate: float
    weyl_value: float
    main_value: float              # classes with one bounce on each side
    per_class: dict
    tau_ladder: tuple[float, ...]
    grid: int


def _constant_at(alpha: float, tau_ladder: Sequence[float],
                 n_gl: int) -> tuple[float, float, float, dict]:
    """delta-constant estimate: per-class traces, edge parts removed, tau -> 0.

    A pair's bounce word w = (p1 + p2).replace("d", "") gives its sign (-1)^len(w), its
    extensive edge part per unit length in units of 1/(8 sqrt(pi T)) when w is on one side
    only (-1/2 once, +1/pi twice: folded-Gaussian values, see the oracle), and it is a
    main pair when w is one "a" and one "b".
    """
    per_class: dict = {}
    totals = []
    mains = []
    for tau in tau_ladder:
        big_t = 2.0 * tau
        edge_unit = (math.sqrt(math.pi) * _WINDOW_R / 2.0) / (8.0 * math.sqrt(math.pi * big_t))
        tot = main = 0.0
        for (p1, p2), total in _rung_traces(alpha, tau, n_gl).items():
            word = (p1 + p2).replace("d", "")
            t_val = (-1.0) ** len(word) / (16.0 * math.pi**2 * tau**2) * total
            if len(set(word)) == 1:
                t_val -= (-0.5 if len(word) == 1 else 1.0 / math.pi) * edge_unit
            per_class.setdefault((p1, p2), []).append(t_val)
            tot += t_val
            if sorted(word) == ["a", "b"]:
                main += t_val
        totals.append(tot)
        mains.append(main)
    roots = [math.sqrt(t) for t in tau_ladder]
    value, spread = extrapolate_to_zero(roots, totals)
    main_value, _ = extrapolate_to_zero(roots, mains)
    return value.real, spread, main_value.real, {k: tuple(v) for k, v in per_class.items()}


def obtuse_corner_constant(alpha: float, grid: int = 2) -> ObtuseCornerResult:
    """Numerical corner delta(E) constant from two-piece folded paths.

    All ordered leg-path class pairs are summed except the doubly-direct
    one, whose area and edge parts are not separated here, so its finite
    part is left out; the edge classes have their extensive per-side parts
    removed analytically.  The remaining
    constant is Richardson-extrapolated over the imaginary-time ladder
    0.02 * 0.5**j, j < 2 + 2*grid.
    The trace is windowed by exp(-r^2/_WINDOW_R^2), which regularizes the
    extensive parts without introducing a spurious cutoff boundary.

    Works for any wedge angle in (0, pi).  At alpha = pi/2 it reproduces
    the sixteen-signature total 1/16 less the doubly-direct ('----')
    constant 1/(16 pi^2), i.e. 1/16 - 1/(16 pi^2), because the ("d", "d")
    class is excluded; that value is the calibration used by the acceptance
    suite.

    The error estimate is the larger of the Neville spread over the ladder
    and the difference from a pass with three fewer Gauss-Legendre nodes
    per panel (4 + 3*grid in the main pass): it measures ladder and
    quadrature convergence only.  Raises
    :class:`NonConvergence` when it exceeds 0.01 or is NaN.
    """
    if not 0.0 < alpha < math.pi:
        raise DomainError("alpha must be in (0, pi)")
    if grid < 1:
        raise DomainError("grid must be >= 1")
    # two extra halvings per refinement level: deeper extrapolation
    tau_ladder = tuple(0.02 * 0.5**j for j in range(2 + 2 * grid))
    n_gl = 4 + 3 * grid
    value, spread, main_value, per_class = _constant_at(alpha, tau_ladder, n_gl)
    coarse, _, _, _ = _constant_at(alpha, tau_ladder, n_gl - 3)
    err = max(spread, abs(value - coarse))
    from .weyl import weyl_corner_coefficient
    result = ObtuseCornerResult(
        alpha=alpha, value=value, error_estimate=err,
        weyl_value=weyl_corner_coefficient(alpha),
        main_value=main_value,
        per_class=per_class,
        tau_ladder=tau_ladder, grid=grid,
    )
    if not err <= _ERROR_TOL:
        raise NonConvergence(
            f"corner constant error estimate {err:.3e} exceeds tol {_ERROR_TOL:.3e}",
            result=result)
    return result
