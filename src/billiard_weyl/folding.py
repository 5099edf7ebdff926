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
import numbers
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

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
]


# ---------------------------------------------------------------------------
# folded-Gaussian oracle for the signatures (imaginary time)


@functools.lru_cache(maxsize=None)
def _axis_pair_line(s1: str, s2: str) -> tuple[float, float]:
    """Slope and intercept in the cutoff c of the one-axis factor over (0, c) x (0, inf) at
    tau = 1, from c = 14 and 22: the first 14 and all 22 panel rows of one 22 x 38 product
    grid of unit width.  x = sqrt(tau) u scales them by sqrt(tau) and tau at any tau.  The
    grid is integrated one x panel row at a time (24 x 912 nodes), so only one row's
    exponentials are held at once."""
    g1, g2 = (1.0 if s == "+" else -1.0 for s in (s1, s2))
    x, wx = (v.reshape(22, 24) for v in gauss_legendre(np.arange(23.0), 24))
    x0, w0 = gauss_legendre(np.arange(39.0), 24)
    rows = np.empty(22)
    for i, (u, w) in enumerate(zip(x, wx)):
        e = np.exp(-((u[:, None] + g1 * x0)**2 + (u[:, None] + g2 * x0)**2) / 4.0)
        rows[i] = (w * (e @ w0)).sum()
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
    tau^2 must stay in range: tau outside (1e-150, 1e150) is a domain error.
    """
    if not 1e-150 < tau < 1e150:
        raise DomainError(f"signature_oracle needs 1e-150 < tau < 1e150; got tau={tau!r}")
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
    z = -m / math.sqrt(2.0 * tau)
    erfc = np.fromiter(map(math.erfc, z.tolist()), float, z.size)     # numpy has no erfc
    return tau * np.exp(-(m * m) / (2.0 * tau)) + m * math.sqrt(math.pi * tau / 2.0) * erfc


# Geometric refinement levels around each peak, and Gauss-Legendre nodes
# per panel of the broken-path angular quadrature.
_REFINE_LEVELS = 7
_BROKEN_PATH_NODES = 12


def _panel_edges(lo: float, hi: float, peaks, scale: float) -> np.ndarray:
    """Distinct sorted panel edges on [lo, hi], refined geometrically near ``peaks``."""
    steps = [scale * 2.0**k for k in range(_REFINE_LEVELS + 1)]
    offsets = [*(-step for step in steps), 0.0, *steps]
    cand = (p + d for p in peaks for d in offsets)
    # a candidate clipped to [lo, hi] lands inside it or on lo or hi, already edges
    return np.array(sorted({lo, hi, *(x for x in cand if lo < x < hi)}))


def broken_path_propagator(r: float, theta1: float, alpha: float, tau: float) -> complex:
    """Two-piece kernel from (r, theta1) to its double-reflection image.

    The mediate point roams the unfolded triple sector [0, 3*alpha], with
    the visibility constraints |theta0 - theta1| <= pi and
    |theta0 - theta2| <= pi, theta2 = 2*alpha + theta1.  Both legs carry
    the free kernel for time ``tau`` each (total 2*tau).  Evaluated in
    imaginary time; the radial part of the mediate integral is closed
    form, the angular part is quadrature.  tau^2 and r^2/tau must stay in range.
    """
    if not 1e-150 < tau < 1e150:
        raise DomainError(f"broken_path_propagator needs 1e-150 < tau < 1e150; got tau={tau!r}")
    if not (r > 0 and r * r / tau < 1e300):
        raise DomainError(f"broken_path_propagator needs r > 0, r^2/tau < 1e300; got r={r!r}")
    if not 0.0 < alpha < math.pi:
        raise DomainError("alpha must be in (0, pi)")
    if not 0.0 <= theta1 <= alpha:
        raise DomainError("theta1 must lie in [0, alpha]")
    theta2 = 2.0 * alpha + theta1
    # the ``_visible_sector`` of [0, 3 alpha], in floats: theta1 <= theta2
    lo, hi = max(0.0, theta2 - math.pi), min(3.0 * alpha, theta1 + math.pi)
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
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"corner_orbit_kernel_imag needs 0 < alpha < pi; got alpha={alpha!r}")
    d = r * math.sin(alpha)     # d * d is inf where d ** 2 raises OverflowError
    return math.exp(-d * d / total_tau) / (4.0 * math.pi * total_tau)


# ---------------------------------------------------------------------------
# wedge leg words and the numerical corner constant


def _leg_words(max_len: int) -> tuple[str, ...]:
    """Direct leg "d", then the alternating words of 1 to ``max_len`` letters: a, b, ab, ba, ..."""
    return ("d", *(("ab" * max_len)[i:i + n] for n in range(1, max_len + 1) for i in (0, 1)))


def _word(pair: tuple[str, str]) -> str:
    """The pair's bounce word: both legs' sides in order, direct legs dropped."""
    return (pair[0] + pair[1]).replace("d", "")


def _image_line(sides: str) -> tuple[int, int]:
    """(s, n) with theta reflected across ``sides`` in order equal to s*theta + n*alpha.

    Side "a" lies at angle 0 (theta -> -theta, so n -> -n), side "b" at alpha
    (theta -> 2 alpha - theta, so n -> 2 - n); "d" reflects nothing.
    """
    s, n = 1, 0
    for side in sides.replace("d", ""):
        s, n = -s, (-n if side == "a" else 2 - n)
    return s, n


def _pair_lines(pairs) -> np.ndarray:
    """Each pair's alpha-free (su, nu, sv, nv) row: psi_u = su theta + nu alpha along p1 and
    psi_v along p2 read reversed (read-only)."""
    rows = np.array([(*_image_line(p1), *_image_line(p2[::-1])) for p1, p2 in pairs], dtype=int)
    rows.setflags(write=False)
    return rows


def _visible_sector(top: float, psi_u, psi_v):
    """[lo, hi], the theta0 in [0, top] within pi of both image angles (empty if hi <= lo)."""
    lo = np.maximum(0.0, np.maximum(psi_u, psi_v) - math.pi)
    hi = np.minimum(top, np.minimum(psi_u, psi_v) + math.pi)
    return lo, hi


def _pair_geometry(alpha: float, rows):
    """Each pair's (su, ku, sv, kv) row of ``lines``, its ``_pair_lines`` row times
    (1, alpha, 1, alpha): psi_u = su theta + ku along p1 and psi_v along p2 reversed; and its
    theta panels, (n, 2) ends and each one's row, cut at the kinks of its ``_visible_sector``:
    where 0, alpha, psi_u +- pi, psi_v +- pi cross in (0, alpha)."""
    lines = rows * (1.0, alpha, 1.0, alpha)
    (su, ku, sv, kv), zero = lines.T, np.zeros(len(lines))
    s = np.stack([zero, zero, su, su, sv, sv], axis=1)
    k = np.stack([zero, zero + alpha, ku - math.pi, ku + math.pi, kv - math.pi, kv + math.pi], 1)
    with np.errstate(divide="ignore", invalid="ignore"):    # parallel lines: +-inf or nan
        cross = (k[:, None, :] - k[:, :, None]) / (s[:, :, None] - s[:, None, :])
    # each crossing comes twice, as (i, j) and (j, i); the other entries are parked at alpha
    cross = np.where((s[:, :, None] != s[:, None, :]) & (0 < cross) & (cross < alpha), cross, alpha)
    ends = np.concatenate([zero[:, None], np.sort(cross.reshape(-1, 36), axis=1)], axis=1)
    lo, hi = ends[:, :-1], ends[:, 1:]
    panel = lo < hi     # drops the repeats
    return lines, np.stack([lo[panel], hi[panel]], axis=-1), np.nonzero(panel)[0]


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


_PAIR_BLOCK = 512   # non-edge pairs integrated together: bounds one block's stacked rows


def _joined_g(passes):
    """``_stable_g`` on every pass's (a, b), arrays of one shape per pass, in one call, split
    back into one array per pass: g is elementwise, so each is bit for bit its own call's."""
    g = _stable_g(*(np.concatenate(side, axis=None) for side in zip(*passes)))
    parts, start = [], 0
    for a, _ in passes:
        parts.append(g[start:start + a.size].reshape(a.shape))
        start += a.size
    return parts


def _non_edge_constants(alpha: float, rows, n_gls):
    """Yields, for each node count in ``n_gls``, the constant of each non-edge pair whose
    ``_pair_lines`` row is in ``rows``, in order: (-1)^|w|/(16 pi^2) times the integral of g(c/2).

    In imaginary time tau per leg, with the window exp(-r^2) on the corner, the radial
    double integral of a pair's two-piece trace is closed form: the trace is
    (-1)^|w|/(16 pi^2) times the integral of g(rho)/(1 + 2 tau) over theta in [0, alpha] and
    theta0 in the visible sector, with rho = c/(2 sqrt(1 + 2 tau)) and
    c = cos(theta0 - psi_u) + cos(theta0 - psi_v).  Off the edge pairs c/2 stays below 1, so
    the tau -> 0 limit is the same integral of g(c/2), smooth inside the sector; theta panels
    end at the sector's kinks, where its ends are affine in theta, and each theta node takes
    one theta0 panel [lo, hi].  The rows are integrated in blocks of ``_PAIR_BLOCK`` whole
    pairs: ``_pair_geometry`` turns a block's alpha-free rows into image lines and kinks once,
    each node count stacks the block's panels, and g is taken once on every count's rows
    together, so one block costs one geometry and one g call whatever the counts, and memory
    does not grow with the number of pairs.
    """
    values = [[] for _ in n_gls]
    for start in range(0, len(rows), _PAIR_BLOCK):
        block = rows[start:start + _PAIR_BLOCK]
        lines, panels, panel_owner = _pair_geometry(alpha, block)
        signs = (lines[:, 0] * lines[:, 2] / (16.0 * math.pi**2)).tolist()   # su sv = (-1)^|w|
        weights, owners, args = [], [], []
        for n_gl in n_gls:
            thetas, th_w = (x.ravel() for x in gauss_legendre(panels, n_gl))
            owner = np.repeat(panel_owner, n_gl)
            su, ku, sv, kv = lines[owner].T
            psi_u, psi_v = su * thetas + ku, sv * thetas + kv
            lo, hi = _visible_sector(alpha, psi_u, psi_v)
            r = np.flatnonzero(hi - lo > 1e-12 * alpha)    # drops rounding-level slivers
            th0, w0 = gauss_legendre(np.stack([lo[r], hi[r]], axis=-1), n_gl)
            half_diff, mid = 0.5 * (psi_u[r] - psi_v[r]), 0.5 * (psi_u[r] + psi_v[r])
            weights.append(th_w[r, None] * w0)
            owners.append(owner[r])
            args.append((np.broadcast_to(half_diff[:, None], th0.shape), th0 - mid[:, None]))
        for weight, row, g, out in zip(weights, owners, _joined_g(args), values):
            terms = weight * g
            # each pair's rows are contiguous, theta-major: summed alone, bit for bit its own
            # pass, whatever block it sits in
            ends = np.searchsorted(row, np.arange(len(block) + 1))
            out += [sign * float(terms[a:b].sum())
                    for sign, a, b in zip(signs, ends[:-1], ends[1:])]
    yield from values


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


def _da_constant(alpha: float, n_gls) -> list[float]:
    """C_da(alpha), the (d, a) pair's constant, at each node count in ``n_gls``, as one polar
    integral about the corner.

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
    beta1 = atan(pi/alpha - 1) and pi/2 - beta1; n_gl nodes per panel in beta and in r, g
    taken once on every count's nodes together.
    Reversing the legs gives (a, d), and the mirror theta -> alpha - theta (d, b) and (b, d).
    """
    edges = [0.0, 0.25 * math.pi, 0.5 * math.pi]
    if alpha > 0.5 * math.pi:
        beta1 = math.atan(math.pi / alpha - 1.0)
        edges += [beta1, 0.5 * math.pi - beta1]
    edges = np.array(sorted(set(edges)))
    rules, args = [], []
    for n_gl in n_gls:
        beta, w_beta = gauss_legendre(edges, n_gl)
        cos_b, sin_b = np.cos(beta), np.sin(beta)
        big_r = np.minimum(alpha / np.maximum(cos_b, sin_b), math.pi / (cos_b + sin_b))
        r, w_r = gauss_legendre(np.stack([np.zeros_like(big_r), big_r], axis=-1), n_gl)
        rules.append((w_beta, big_r, r, w_r))
        args.append((r * cos_b[:, None], r * sin_b[:, None]))
    values = []
    for (w_beta, big_r, r, w_r), g in zip(rules, _joined_g(args)):
        inner = np.sum(w_r * (r * g - math.pi / r**2), axis=-1) - math.pi / big_r
        values.append(-float(w_beta @ inner) / (16.0 * math.pi**2))
    return values


class _PairPlan(NamedTuple):
    pairs: tuple     # every ordered pair but ("d", "d"), in product order
    lines: np.ndarray   # the _pair_lines rows of one non-edge pair per reversal orbit
    source: tuple    # each pair's index into (C_aa, C_da, *the constants of the lines' pairs)
    main: tuple      # the pairs whose word is one a and one b, in pair order


@functools.lru_cache(maxsize=None)
def _pair_plan(max_len: int) -> _PairPlan:
    """The alpha-free tables of the pair sum over ``_leg_words(max_len)``, built once.

    Edge pairs, whose word uses one side only, take C_aa ((a, a) and (b, b)) or C_da.  The
    reversal (p1, p2) -> (p2 reversed, p1 reversed) gives a non-edge pair the same two image
    lines swapped, so the same constant bit for bit: one pair of each orbit is integrated and
    its value copied to its twin; a pair such as (ab, ba) is its own twin.
    """
    pairs = tuple(p for p in product(_leg_words(max_len), repeat=2) if p != ("d", "d"))
    rep_index, source = {}, []
    for p in pairs:
        if len(set(_word(p))) == 1:
            source.append(0 if p[0] == p[1] else 1)
        else:
            twin = (p[1][::-1], p[0][::-1])
            source.append(2 + rep_index.setdefault(twin if twin in rep_index else p,
                                                   len(rep_index)))
    main = tuple(p for p in pairs if sorted(_word(p)) == ["a", "b"])
    return _PairPlan(pairs, _pair_lines(rep_index), tuple(source), main)


def _pair_constants(alpha: float, plan: _PairPlan, n_gls):
    """Yields, per node count, the tau -> 0 constant of every pair of ``plan``, in its order."""
    c_aa = _aa_constant(alpha)
    for c_da, rep_values in zip(_da_constant(alpha, n_gls),
                                _non_edge_constants(alpha, plan.lines, n_gls)):
        values = (c_aa, c_da, *rep_values)
        yield dict(zip(plan.pairs, map(values.__getitem__, plan.source)))


# Largest error estimate obtuse_corner_constant accepts (absolute), and its largest grid.
_ERROR_TOL = 0.01
_MAX_GRID = 20


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
    value: float                   # every pair of leg words but ("d", "d")
    error_estimate: float
    weyl_value: float
    main_value: float              # the pairs whose bounce word is one a and one b
    per_class: dict                # tau -> 0 constant of each pair, ("d", "d") left out
    grid: int
    tau_ladder: tuple[float, ...] = ()   # always empty; kept for callers that still pass it

    @property
    def dd_constant(self) -> float:
        """The left-out ("d", "d") pair's constant, in closed form (``dd_constant``)."""
        return dd_constant(self.alpha)

    @property
    def full_value(self) -> float:
        """Every pair of leg words: ``value`` plus the doubly-direct constant."""
        return self.value + self.dd_constant


def obtuse_corner_constant(alpha: float, grid: int = 2) -> ObtuseCornerResult:
    """Numerical corner delta(E) constant from two-piece folded paths.

    All ordered pairs of the leg words d, a, b, ab and ba are summed but
    (d, d), whose closed form is ``dd_constant`` (``full_value`` adds it).
    Each pair's constant is the tau -> 0 limit of its imaginary-time trace
    with the area and edge parts removed, taken under the integral: the 18
    non-edge pairs, whose bounce word uses both sides, fall in 10 orbits of
    the reversal (p1, p2) -> (p2 reversed, p1 reversed), which keeps the
    constant bit for bit, so one pair per orbit is a 2-D integral, in blocks
    of whole pairs (``_non_edge_constants``, sector kinks found once per
    block), and its twin takes its value.  Each pair's two image lines are
    s*theta + n*alpha with integers s and n read from its words alone, built
    once per word length (``_pair_plan``).  (a, a) and (b, b) are in closed
    form (``_aa_constant``) and the four one-bounce edge pairs one polar
    integral (``_da_constant``); the integrals take both node counts of the
    error estimate in one pass.  ``grid`` sets 4 + 3*grid Gauss-Legendre
    nodes per panel.  It must be an integer from 1 to 20 (64 nodes), checked
    before any quadrature: from grid 3 on the error estimate is already at
    its rounding floor (below 4e-13 at eight angles from 0.3 to 3.0), so a
    larger grid only costs time and memory.

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
    if not (isinstance(grid, numbers.Integral) and 1 <= grid <= _MAX_GRID):
        raise DomainError(f"grid must be an integer in [1, {_MAX_GRID}], got {grid!r}")
    n_gl = 4 + 3 * grid
    plan = _pair_plan(2)
    per_class, coarse = _pair_constants(alpha, plan, (n_gl, n_gl - 3))
    value = sum(per_class.values())
    err = abs(value - sum(coarse.values()))
    from .weyl import weyl_corner_coefficient
    result = ObtuseCornerResult(
        alpha=alpha, value=value, error_estimate=err,
        weyl_value=weyl_corner_coefficient(alpha),
        main_value=sum(per_class[pair] for pair in plan.main),
        per_class=per_class, grid=grid,
    )
    if not err <= _ERROR_TOL:
        raise NonConvergence(
            f"corner constant error estimate {err:.3e} exceeds tol {_ERROR_TOL:.3e}",
            result=result)
    return result
