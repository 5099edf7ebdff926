"""Two-piece (folded) propagator sums at a wedge corner.

A closed path at a rectangular corner splits into two legs through a
mediate point; expanding each leg in wall images gives sixteen "four
signs" signatures.  Their exact folded-Gaussian (area, length, delta(E))
content is the ``ledger`` module's table.  ``signature_oracle`` recomputes
the same decomposition of each signature by quadrature in imaginary time,
independently of the table.

For a general wedge the same two-piece construction is organised by leg
path classes (direct, one bounce per side, double bounces in both orders),
each leg valid when its unfolded chord spans at most pi, and the corner's
delta(E) constant is extracted numerically: ``obtuse_corner_constant``.

All propagator work here is done in imaginary time (t -> -i*tau), which
turns the oscillatory kernels into Gaussians; the (E^0, E^-1/2, delta(E))
coefficients map onto the (1/tau, 1/sqrt(tau), 1) terms of the trace, so
nothing is lost by the rotation.  The corner constant is the tau -> 0 limit
of the trace's constant term, taken in closed form under the integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DomainError, NonConvergence
# ALL_SIGNATURES is unused here but kept: the benchmark sweeps folding.ALL_SIGNATURES
from .ledger import ALL_SIGNATURES, SignSignature
from .specfun import gauss_legendre

__all__ = [
    "signature_oracle",
    "broken_path_propagator",
    "corner_orbit_kernel_imag",
    "ObtuseCornerResult",
    "obtuse_corner_constant",
    "dd_constant",
    "PATH_CLASSES",
    "CLASS_PAIRS",
    "EDGE_PAIRS",
]


# ---------------------------------------------------------------------------
# folded-Gaussian oracle for the signatures (imaginary time)


@functools.lru_cache(maxsize=None)
def _axis_pair_line(s1: str, s2: str) -> tuple[float, float]:
    """Slope and intercept in the cutoff c of the one-axis factor over (0, c) x (0, inf) at
    tau = 1, from c = 14 and 22: the first 14 and all 22 panel rows of one 22 x 38 product
    grid of unit width.  x = sqrt(tau) u scales them by sqrt(tau) and tau at any tau."""
    g1, g2 = (1.0 if s == "+" else -1.0 for s in (s1, s2))
    x, wx = gauss_legendre(np.arange(23.0), 24)
    x0, w0 = gauss_legendre(np.arange(39.0), 24)
    e = np.exp(-((x[:, None] + g1 * x0[None, :])**2
                 + (x[:, None] + g2 * x0[None, :])**2) / 4.0)
    rows = (wx * (e @ w0)).reshape(22, 24).sum(axis=1)
    i1, i2 = float(rows[:14].sum()), float(rows.sum())
    slope = (i2 - i1) / 8.0
    return slope, i1 - slope * 14.0


def signature_oracle(sig: SignSignature, tau: float = 0.25) -> dict:
    """Folded-Gaussian decomposition of one signature, by pure quadrature.

    The four-fold integral factorizes per axis; each axis factor is exactly
    linear in the trace cutoff once the cutoff clears the Gaussian range,
    so two cutoffs separate the extensive (area/edge) parts from the
    cutoff-independent constant.  Returned units match the table: area in
    A/(4 pi T), length per unit of side length in 1/(8 sqrt(pi T)) (sum of
    the two sides), delta as a plain constant; T = 2 tau is the total
    imaginary time of the two legs.  The axis factor is scale free, so the
    rows do not depend on tau: one cached unit grid per sorted sign pair.
    """
    if not tau > 0:
        raise DomainError("tau must be positive")
    st = math.sqrt(tau)
    lines = [_axis_pair_line(*sorted(p)) for p in ((sig.sx1, sig.sx2), (sig.sy1, sig.sy2))]
    (ax, bx), (ay, by) = ((st * slope, tau * icpt) for slope, icpt in lines)
    sgn = (-1.0) ** sig.bounce_count
    pref = 1.0 / (16.0 * math.pi**2 * tau**2)
    u_area = 1.0 / (8.0 * math.pi * tau)
    u_len = 1.0 / (8.0 * math.sqrt(2.0 * math.pi * tau))
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


def _panel_edges(lo: float, hi: float, peaks, scale: float) -> np.ndarray:
    """Distinct sorted panel edges on [lo, hi], refined geometrically near ``peaks``."""
    steps = scale * 2.0 ** np.arange(_REFINE_LEVELS + 1)
    offsets = np.concatenate([-steps, [0.0], steps])
    cand = (np.asarray(peaks, dtype=float)[:, None] + offsets).ravel()
    return np.unique(np.concatenate([[lo], np.clip(cand, lo, hi), [hi]]))


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
    lo, hi = _visible_sector(3.0 * alpha, theta1, theta2)
    if hi <= lo:
        return complex(0.0)
    psi_mid = 0.5 * (theta1 + theta2)
    peaks = [psi_mid, psi_mid - math.pi, psi_mid + math.pi]
    scale = math.sqrt(2.0 * tau) / (2.0 * max(r, math.sqrt(tau)))
    th0, w = gauss_legendre(_panel_edges(lo, hi, peaks, scale), _BROKEN_PATH_NODES)
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


def _word(pair: tuple[str, str]) -> str:
    """The pair's bounce word: both legs' sides in order, direct legs dropped."""
    return (pair[0] + pair[1]).replace("d", "")


# Ordered leg-class pairs summed into the corner constant, in product order; ("d", "d") is
# left out (its constant is ``dd_constant``).  The edge pairs' words use one side only.
CLASS_PAIRS = tuple(p for p in product(PATH_CLASSES, repeat=2) if p != ("d", "d"))
EDGE_PAIRS = tuple(p for p in CLASS_PAIRS if len(set(_word(p))) == 1)


def _image_line(alpha: float, sides: str) -> tuple[float, float]:
    """(s, k) with theta reflected across ``sides`` in order equal to s*theta + k.

    Side "a" lies at angle 0 (theta -> -theta), side "b" at alpha (theta -> 2 alpha - theta);
    "d" reflects nothing.
    """
    s, k = 1.0, 0.0
    for side in sides.replace("d", ""):
        s, k = -s, (-k if side == "a" else 2.0 * alpha - k)
    return s, k


def _image_angle(alpha: float, theta, sides: str):
    """theta reflected across ``sides`` in order ("a" at angle 0, "b" at alpha; "d" none)."""
    s, k = _image_line(alpha, sides)
    return s * theta + k


def _visible_sector(top: float, psi_u, psi_v):
    """[lo, hi], the theta0 in [0, top] within pi of both image angles (empty if hi <= lo)."""
    lo = np.maximum(0.0, np.maximum(psi_u, psi_v) - math.pi)
    hi = np.minimum(top, np.minimum(psi_u, psi_v) + math.pi)
    return lo, hi


def _sector_kinks(alpha: float, p1: str, p2: str) -> np.ndarray:
    """Sorted theta in (0, alpha) where a max or min of the pair's ``_visible_sector`` may
    switch branch: the crossings of its six lines 0, alpha, psi_u +- pi and psi_v +- pi,
    each affine in theta (psi_u along p1, psi_v along p2 reversed)."""
    (su, ku), (sv, kv) = _image_line(alpha, p1), _image_line(alpha, p2[::-1])
    lines = [(0.0, 0.0), (0.0, alpha), (su, ku - math.pi), (su, ku + math.pi),
             (sv, kv - math.pi), (sv, kv + math.pi)]
    cross = [(k2 - k1) / (s1 - s2) for i, (s1, k1) in enumerate(lines)
             for s2, k2 in lines[i + 1:] if s1 != s2]
    return np.unique([x for x in cross if 0.0 < x < alpha])


def _stable_g(a, b):
    """g(rho) = [rho*arccos(-rho) + sqrt(1-rho^2)] / (1-rho^2)^(3/2) at rho = cos(a) cos(b).

    1 - rho^2 is formed as sin^2 a + cos^2 a sin^2 b and arccos(-rho) as the angle of
    (-rho, sqrt(1 - rho^2)), so neither loses digits as rho -> 1, where the (d, a) integrand
    cancels r*g against pi/r^2.  Near rho = -1 numerator and denominator both vanish; where
    w = arccos(-rho) < 1e-2 the series 1/3 + 2 w^2/15 is taken, and chosen before dividing,
    so g(-1) = 1/3 with no 0/0 (the non-edge pairs reach rho = -1 at some sector ends).
    """
    rho = np.cos(a) * np.cos(b)
    s = np.hypot(np.sin(a), np.cos(a) * np.sin(b))
    w = np.arctan2(s, -rho)
    small = w < 1e-2
    s = np.where(small, 1.0, s)
    return np.where(small, 1.0 / 3.0 + 2.0 * w * w / 15.0, (rho * w + s) / s**3)


def _non_edge_constant(alpha: float, p1: str, p2: str, n_gl: int) -> float:
    """A non-edge pair's constant, (-1)^|w|/(16 pi^2) times the integral of g(c/2).

    In imaginary time tau per leg, with the window exp(-r^2) on the corner, the radial
    double integral of a pair's two-piece trace is closed form: the trace is
    (-1)^|w|/(16 pi^2) times the integral of g(rho)/(1 + 2 tau) over theta in [0, alpha] and
    theta0 in the visible sector, with rho = c/(2 sqrt(1 + 2 tau)) and
    c = cos(theta0 - psi_u) + cos(theta0 - psi_v).  Off the edge pairs c/2 stays below 1, so
    the tau -> 0 limit is the same integral of g(c/2), smooth inside the sector; theta panels
    end at the sector's kinks, where its ends are affine in theta, and each theta node takes
    one theta0 panel [lo, hi].
    """
    edges = np.concatenate([[0.0], _sector_kinks(alpha, p1, p2), [alpha]])
    thetas, th_w = gauss_legendre(edges, n_gl)
    psi_u, psi_v = _image_angle(alpha, thetas, p1), _image_angle(alpha, thetas, p2[::-1])
    lo, hi = _visible_sector(alpha, psi_u, psi_v)
    r = np.flatnonzero(hi - lo > 1e-12 * alpha)    # drops rounding-level slivers
    th0, w0 = gauss_legendre(np.stack([lo[r], hi[r]], axis=-1), n_gl)
    half_diff, mid = 0.5 * (psi_u[r] - psi_v[r]), 0.5 * (psi_u[r] + psi_v[r])
    g = _stable_g(half_diff[:, None], th0 - mid[:, None])
    sign = (-1.0) ** len(_word((p1, p2)))
    return sign / (16.0 * math.pi**2) * float(np.sum(th_w[r, None] * w0 * g))


def _aa_constant(alpha: float) -> float:
    """C_aa(alpha), the (a, a) pair's constant in closed form; (b, b) is its mirror.

    Both legs bounce once on side a, so psi_u = psi_v = -theta and the trace's integrand
    depends on theta and theta0 only through phi = theta + theta0: rho = cos(phi)/sqrt(1 + 2 tau),
    weighted by the length L(phi) = min(phi, 2 alpha - phi) of its line in the sector, on
    0 < phi < Phi = min(2 alpha, pi).  Near phi = 0, g ~ pi/(phi^2 + 2 tau)^(3/2), and
    L pi/(phi^2 + 2 tau)^(3/2) integrates to pi/sqrt(2 tau) - pi/Phi as tau -> 0.  The first
    term is the edge part, 16 pi^2 / pi times 1/(16 sqrt(2 tau)) (the folded-Gaussian +1/pi
    per unit length in units of 1/(8 sqrt(pi T)), T = 2 tau, over the window's length
    sqrt(pi)/2 along the side), so
        16 pi^2 C_aa = integral over (0, Phi) of [L g(cos phi) - pi/phi^2] dphi - pi/Phi.
    Now g(cos phi) = ((pi - phi) cos phi + sin phi)/sin^3 phi is the derivative of
    G = -(pi - phi)/(2 sin^2 phi) - cot(phi)/2, and phi g that of
    H = -phi (pi - phi)/(2 sin^2 phi) - (pi/2) cot phi, with H + pi/phi -> 1/2 at 0,
    G(pi) = 0 and H(pi) = 1/2.  The integral is then 2 H(alpha) - 2 alpha G(alpha) - 1
    = -(1 + (pi - alpha) cot alpha) when 2 alpha >= pi, and gains
    2 alpha G(2 alpha) - H(2 alpha) + 1/2 = (1 + (pi - 2 alpha) cot 2 alpha)/2 when
    2 alpha < pi: C_aa = -C_dd(alpha) + C_dd(2 alpha)/2 if 2 alpha < pi, else -C_dd(alpha).
    ``dd_constant`` keeps this accurate up to pi.
    """
    half_turn = 0.5 * dd_constant(2.0 * alpha) if 2.0 * alpha < math.pi else 0.0
    return half_turn - dd_constant(alpha)


def _da_constant(alpha: float, n_gl: int) -> float:
    """C_da(alpha), the (d, a) pair's constant, as one polar integral about the corner.

    Here psi_u = theta and psi_v = -theta, so rho = cos(theta) cos(theta0)/sqrt(1 + 2 tau)
    on D = {theta, theta0 in [0, alpha], theta + theta0 <= pi}, and the sign is -1.  rho
    reaches 1 only at (0, 0), where 1 - rho^2 ~ r^2 + 2 tau in polar (r, beta) about it and
    the part pi r/(r^2 + 2 tau)^(3/2) integrates to (pi^2/2)/sqrt(2 tau) less the integral
    of pi/R(beta).  The first term is the edge part, 16 pi^2 times 1/2 times
    1/(16 sqrt(2 tau)) (the folded-Gaussian -1/2 per unit length, as for (a, a)), so
        16 pi^2 C_da = -integral over (0, pi/2) of
                       [integral over (0, R) of (r g - pi/r^2) dr - pi/R] dbeta,
    R(beta) = min(alpha/max(cos beta, sin beta), pi/(cos beta + sin beta)).  beta panels end
    at pi/4 and, for alpha > pi/2, where the cut theta + theta0 = pi takes over,
    beta1 = atan(pi/alpha - 1) and pi/2 - beta1; n_gl nodes per panel in beta and in r.
    Reversing the legs gives (a, d), and the mirror theta -> alpha - theta (d, b) and (b, d).
    """
    edges = [0.0, 0.25 * math.pi, 0.5 * math.pi]
    if alpha > 0.5 * math.pi:
        beta1 = math.atan(math.pi / alpha - 1.0)
        edges += [beta1, 0.5 * math.pi - beta1]
    beta, w_beta = gauss_legendre(np.unique(edges), n_gl)
    cos_b, sin_b = np.cos(beta), np.sin(beta)
    big_r = np.minimum(alpha / np.maximum(cos_b, sin_b), math.pi / (cos_b + sin_b))
    r, w_r = gauss_legendre(np.stack([np.zeros_like(big_r), big_r], axis=-1), n_gl)
    g = _stable_g(r * cos_b[:, None], r * sin_b[:, None])
    inner = np.sum(w_r * (r * g - math.pi / r**2), axis=-1) - math.pi / big_r
    return -float(w_beta @ inner) / (16.0 * math.pi**2)


def _pair_constants(alpha: float, n_gl: int) -> dict:
    """The tau -> 0 constant of every pair in CLASS_PAIRS, in order, with no tau ladder."""
    c_aa, c_da = _aa_constant(alpha), _da_constant(alpha, n_gl)
    return {(p1, p2): (c_aa if p1 == p2 else c_da) if (p1, p2) in EDGE_PAIRS
            else _non_edge_constant(alpha, p1, p2, n_gl) for p1, p2 in CLASS_PAIRS}


# Largest error estimate obtuse_corner_constant accepts (absolute).
_ERROR_TOL = 0.01


# pi - math.pi, to double precision.
_PI_LOW = 1.2246467991473532e-16


def dd_constant(alpha: float) -> float:
    """C_dd(alpha) = (1 + (pi - alpha) cot alpha)/(16 pi^2): the doubly-direct pair's constant.

    The ("d", "d") trace is (16 pi^2 tau^2)^-1 times the integral over h of
    exp(-|h|^2/(2 tau)) F(h), where F(h) is the integral of exp(-|x|^2) over W and W + h
    (the window at unit radius).  With h = u e_a + v e_b (e_a, e_b the unit vectors along
    the sides), that overlap is W moved to the apex p = u+ e_a + v+ e_b, and to second order
        F = alpha/2 - (sqrt(pi)/2) sin(alpha) (u+ + v+)
            + (1/2) sin(alpha) [2 u+ v+ + cos(alpha) (u+^2 + v+^2)] + O(|p|^3):
    the area part, the edge part and the constant.  Scaling u, v by sqrt(2 tau) (so
    dh = 2 tau sin(alpha) dU dV) takes the constant to
    4 sin^2(alpha)/(16 pi^2) [M_uv + cos(alpha) M_uu], with Q = U^2 + V^2 + 2 U V cos(alpha),
        M_uv = integral over U, V > 0 of U V exp(-Q) = (1 - alpha cot alpha)/(4 sin^2 alpha),
        M_uu = integral over U > 0, all V, of U^2 exp(-Q) = pi/(4 sin^3 alpha);
    they give (1 - alpha cot alpha)/(16 pi^2) and pi cot(alpha)/(16 pi^2).  At pi/2 this is
    the ledger's '----' constant 1/(16 pi^2).
    """
    if not 0.0 < alpha < math.pi:
        raise DomainError("alpha must be in (0, pi)")
    # near pi, (pi - alpha) cot(alpha) -> -1 and math.tan sees the true pi, so pi - alpha
    # must too: math.pi - alpha is exact there, and _PI_LOW adds the part of pi it drops
    return (1.0 + (math.pi - alpha + _PI_LOW) / math.tan(alpha)) / (16.0 * math.pi**2)


@dataclass(frozen=True)
class ObtuseCornerResult:
    alpha: float
    value: float                   # every class pair but ("d", "d")
    error_estimate: float
    weyl_value: float
    main_value: float              # classes with one bounce on each side
    per_class: dict                # tau -> 0 constant of each pair in CLASS_PAIRS
    grid: int
    tau_ladder: tuple[float, ...] = ()   # always empty; kept for callers that still pass it

    @property
    def dd_constant(self) -> float:
        """The left-out ("d", "d") pair's constant, in closed form (``dd_constant``)."""
        return dd_constant(self.alpha)

    @property
    def full_value(self) -> float:
        """Every class pair: ``value`` plus the doubly-direct constant."""
        return self.value + self.dd_constant


def obtuse_corner_constant(alpha: float, grid: int = 2) -> ObtuseCornerResult:
    """Numerical corner delta(E) constant from two-piece folded paths.

    All ordered leg-path class pairs are summed except the doubly-direct
    one, whose closed form is ``dd_constant`` (``full_value`` adds it).
    Each pair's constant is the tau -> 0 limit of its imaginary-time trace
    with the area and edge parts removed, taken under the integral: the 18
    non-edge pairs, whose bounce word uses both sides, as 2-D integrals
    (``_non_edge_constant``), (a, a) and (b, b) in closed form
    (``_aa_constant``) and the four one-bounce edge pairs as one polar
    integral (``_da_constant``).  ``grid`` sets 4 + 3*grid Gauss-Legendre
    nodes per panel.

    Works for any wedge angle in (0, pi) whose cosine is below 1 in floating
    point (alpha above about 1.05e-8; below it the non-edge integrands reach
    g's pole at rho = 1).  At alpha = pi/2 ``value`` is
    the sixteen-signature total 1/16 less the doubly-direct ('----')
    constant 1/(16 pi^2), and ``full_value`` is 1/16; the first is the
    calibration used by the acceptance suite.

    The error estimate is the change in ``value`` from a pass with three
    fewer nodes per panel (grid against grid - 1): it measures quadrature
    convergence only.  Raises :class:`NonConvergence` when it exceeds 0.01
    or is NaN.
    """
    if not (0.0 < alpha < math.pi and math.cos(alpha) < 1.0):
        raise DomainError("alpha must be in (0, pi) with cos(alpha) < 1")
    if grid < 1:
        raise DomainError("grid must be >= 1")
    n_gl = 4 + 3 * grid
    per_class = _pair_constants(alpha, n_gl)
    value = sum(per_class.values())
    err = abs(value - sum(_pair_constants(alpha, n_gl - 3).values()))
    from .weyl import weyl_corner_coefficient
    result = ObtuseCornerResult(
        alpha=alpha, value=value, error_estimate=err,
        weyl_value=weyl_corner_coefficient(alpha),
        main_value=sum(v for pair, v in per_class.items() if sorted(_word(pair)) == ["a", "b"]),
        per_class=per_class, grid=grid,
    )
    if not err <= _ERROR_TOL:
        raise NonConvergence(
            f"corner constant error estimate {err:.3e} exceeds tol {_ERROR_TOL:.3e}",
            result=result)
    return result
