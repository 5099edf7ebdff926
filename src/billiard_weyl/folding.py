"""Two-piece (folded) propagator sums at a wedge corner.

A closed path at a rectangular corner splits into two legs through a
mediate point; expanding each leg in wall images gives sixteen terms, one
per "four signs" signature in the squared path lengths

    [(x s1 x0)^2 + (y s2 y0)^2] + [(x s3 x0)^2 + (y s4 y0)^2],

where a plus between a coordinate and its mediate partner marks a bounce
on the corresponding side.  ``signature_ledger`` tabulates the exact
folded-Gaussian (area, length, delta(E)) content of each signature in
exact arithmetic, assembled from the closed-form one-axis factors of the
Gaussian integrals; its totals are the Dirichlet quadrant trace
A/(4 pi T) - L/(8 sqrt(pi T)) + 1/16, whose constant is Weyl's right-angle
corner coefficient.  ``signature_oracle`` recomputes the same decomposition
of each signature by quadrature in imaginary time, independently of the
table.

For a general wedge the same two-piece construction is organised by leg
path classes (direct, one bounce per side, double bounces in both orders)
with explicit geometric validity, and the corner's delta(E) constant is
extracted numerically: ``obtuse_corner_constant``.

All numerical propagator work here is done in imaginary time (t -> -i*tau),
which turns the oscillatory kernels into Gaussians; the (E^0, E^-1/2,
delta(E)) coefficients map onto the (1/tau, 1/sqrt(tau), 1) terms of the
trace, so nothing is lost by the rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfc

from .errors import DomainError, NonConvergence
from .specfun import extrapolate_to_zero, gauss_legendre
from .weyl import BoundaryCondition, DIRICHLET

__all__ = [
    "SignSignature",
    "DeltaValue",
    "PathContribution",
    "Ledger",
    "ALL_SIGNATURES",
    "signature_ledger",
    "signature_oracle",
    "free_kernel",
    "fold",
    "broken_path_propagator",
    "corner_orbit_kernel_imag",
    "ObtuseCornerResult",
    "obtuse_corner_constant",
    "PATH_CLASSES",
]


# ---------------------------------------------------------------------------
# the sixteen-signature table


@dataclass(frozen=True)
class SignSignature:
    """Signs (x1, y1, x2, y2): legs 1 and 2, x- and y-partners."""

    sx1: str
    sy1: str
    sx2: str
    sy2: str

    def __post_init__(self):
        for s in (self.sx1, self.sy1, self.sx2, self.sy2):
            if s not in "+-":
                raise DomainError(f"signs must be '+' or '-', got {s!r}")

    @property
    def bounce_count(self) -> int:
        return f"{self.sx1}{self.sy1}{self.sx2}{self.sy2}".count("+")

    def __str__(self) -> str:
        return self.sx1 + self.sy1 + self.sx2 + self.sy2


ALL_SIGNATURES: tuple[SignSignature, ...] = tuple(
    SignSignature(*s) for s in product("-+", repeat=4)
)


@dataclass(frozen=True)
class DeltaValue:
    """Exact constant of the form a + b/pi + c/pi^2 with rational a, b, c."""

    const: Fraction = Fraction(0)
    over_pi: Fraction = Fraction(0)
    over_pi2: Fraction = Fraction(0)

    def value(self) -> float:
        return (float(self.const) + float(self.over_pi) / math.pi
                + float(self.over_pi2) / math.pi**2)

    def __float__(self) -> float:
        return self.value()

    def __add__(self, other: "DeltaValue") -> "DeltaValue":
        return DeltaValue(self.const + other.const,
                          self.over_pi + other.over_pi,
                          self.over_pi2 + other.over_pi2)

    def __neg__(self) -> "DeltaValue":
        return DeltaValue(-self.const, -self.over_pi, -self.over_pi2)


@dataclass(frozen=True)
class PathContribution:
    signature: SignSignature
    area_units: Fraction           # multiples of the area density A/(4 pi)
    # multiples of 1/(8 pi sqrt(E)) per unit length of a side, summed over
    # both sides (trace: 1/(8 sqrt(pi T))); a single bounce carries -1/2
    length_units: DeltaValue
    delta_units: DeltaValue        # coefficient of delta(E)


@dataclass(frozen=True)
class Ledger:
    entries: tuple[PathContribution, ...]
    total_area: Fraction
    total_length: DeltaValue
    total_delta: DeltaValue
    flags: tuple[str, ...] = ()


# One-axis factor of a signature: for the axis sign pair (s1, s2),
#   integral_0^X dx integral_0^inf dx0 exp(-[(x s1 x0)^2 + (x s2 x0)^2]/(4 tau))
#     = alpha X + beta   (up to exponentially small terms),
# with alpha = a sqrt(2 pi tau) and beta = b pi^k tau, stored as (a, b, k).
_AXIS_FACTORS = {
    ("-", "-"): (1, Fraction(-1), 0),
    ("+", "+"): (0, Fraction(1), 0),
    ("+", "-"): (0, Fraction(1, 2), 1),
    ("-", "+"): (0, Fraction(1, 2), 1),
}


def _times_pi_power(coef: Fraction, power: int) -> DeltaValue:
    """Exact coef * pi^power for power in {0, -1, -2}."""
    return DeltaValue(*(coef if p == power else Fraction(0) for p in (0, -1, -2)))


def _dirichlet_entry(sig: SignSignature) -> PathContribution:
    """Exact folded-Gaussian content of one signature.

    The trace factorizes into the x- and y-axis factors, times
    (-1)^bounces / (16 pi^2 tau^2); in the table's units the area is
    a_x a_y, the length (a_x b_y pi^k_y + b_x a_y pi^k_x)/pi and the
    delta constant b_x b_y pi^(k_x + k_y) / (16 pi^2).
    """
    ax, bx, kx = _AXIS_FACTORS[(sig.sx1, sig.sx2)]
    ay, by, ky = _AXIS_FACTORS[(sig.sy1, sig.sy2)]
    sgn = (-1) ** sig.bounce_count
    length = (_times_pi_power(sgn * ax * by, ky - 1)
              + _times_pi_power(sgn * bx * ay, kx - 1))
    delta = _times_pi_power(sgn * bx * by / 16, kx + ky - 2)
    return PathContribution(sig, Fraction(sgn * ax * ay), length, delta)


def signature_ledger(bc: BoundaryCondition = DIRICHLET) -> Ledger:
    """The sixteen-signature table: exact folded-Gaussian content per row.

    Dirichlet rows are the exact decomposition of each signature's
    two-piece Gaussian trace, which ``signature_oracle`` reproduces by
    quadrature.  The totals are the exact quadrant trace: area 1, length
    -2 (the two sides at -1 each) and delta 1/16, Weyl's right-angle corner
    coefficient.  Neumann flips the sign of every odd-bounce entry
    (reflection parity), giving length +2 and delta 1/16, and is flagged
    DERIVED-ONLY, since it is not checked against an independent oracle.
    """
    entries = []
    for sig in ALL_SIGNATURES:
        e = _dirichlet_entry(sig)
        if bc.kind == "neumann" and sig.bounce_count % 2 == 1:
            e = PathContribution(sig, -e.area_units, -e.length_units,
                                 -e.delta_units)
        entries.append(e)
    total_area = sum((e.area_units for e in entries), Fraction(0))
    total_length = sum((e.length_units for e in entries), DeltaValue())
    total_delta = sum((e.delta_units for e in entries), DeltaValue())
    flags = () if bc.kind == "dirichlet" else ("DERIVED-ONLY",)
    return Ledger(tuple(entries), total_area, total_length, total_delta, flags)


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
# kernels and the folding composition


def free_kernel(p, q, tau: float):
    """Free imaginary-time kernel (1/(4 pi tau)) exp(-|p-q|^2/(4 tau))."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d2 = np.sum((p - q) ** 2, axis=-1)
    return np.exp(-d2 / (4.0 * tau)) / (4.0 * math.pi * tau)


def fold(k1: Callable, k2: Callable, region="plane", n_nodes: int = 64) -> Callable:
    """Compose two kernels through a mediate point: the folding identity.

    Returns a kernel ``K(p, q, tau)`` evaluating the composition with the
    time split at the midpoint, the mediate point integrated over
    ``region``: "plane", ("halfplane_y",) for y > 0, or ("cone", lo, hi)
    for an angular sector about the origin.  Quadrature is a fixed
    Gauss-Legendre grid on a Gaussian-localized box, so the composition of
    two free kernels over the plane reproduces the free kernel to
    quadrature accuracy; restricted regions leak probability near their
    boundary, which is the physical content, not an error.
    """

    def folded(p, q, tau: float):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        half = 0.5 * tau
        center = 0.5 * (p + q)
        span = 9.0 * math.sqrt(2.0 * half) + 0.5 * float(np.linalg.norm(p - q))
        xs, wxs = gauss_legendre(np.linspace(center[0] - span, center[0] + span, 9), n_nodes // 8)
        ys, wys = gauss_legendre(np.linspace(center[1] - span, center[1] + span, 9), n_nodes // 8)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx, gy], axis=-1)
        w = wxs[:, None] * wys[None, :]
        if region == "plane":
            mask = 1.0
        elif isinstance(region, tuple) and region[0] == "halfplane_y":
            mask = (gy > 0.0).astype(float)
        elif isinstance(region, tuple) and region[0] == "cone":
            ang = np.arctan2(gy, gx)
            mask = ((ang >= region[1]) & (ang <= region[2])).astype(float)
        else:
            raise DomainError(f"unknown region {region!r}")
        vals = k1(p, pts, half) * k2(pts, q, half) * mask
        return float(np.sum(w * vals))

    return folded


# ---------------------------------------------------------------------------
# broken two-piece path through the unfolded wedge


def _radial_first_moment(m: np.ndarray, tau: float) -> np.ndarray:
    """integral of r0 exp(-(r0-m)^2/(2 tau)) over r0 in (0, inf)."""
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
_BOUNCES = {"d": 0, "a": 1, "b": 1, "ab": 2, "ba": 2}

# per-unit-length edge coefficients of the extensive part of each edge
# class, in units of 1/(8 sqrt(pi T)): one-bounce classes carry -1/2, the
# same-side double carries +1/pi (folded-Gaussian values; see the oracle)
_EDGE_CLASSES = {
    ("d", "a"): -0.5, ("a", "d"): -0.5, ("a", "a"): 1.0 / math.pi,
    ("d", "b"): -0.5, ("b", "d"): -0.5, ("b", "b"): 1.0 / math.pi,
}


def _leg_valid(alpha: float, th_x, th_y, path: str):
    """Validity of one leg from angle th_x to angle th_y (unit radii).

    Conditions are homogeneous in the radii, so angles suffice.  For the
    double-bounce paths the unfolded segment must cross both reflected
    side lines in order, at nonnegative ray coordinates.
    """
    th_x = np.asarray(th_x, dtype=float)
    th_y = np.asarray(th_y, dtype=float)
    if path == "d":
        return np.ones(np.broadcast(th_x, th_y).shape, dtype=bool)
    if path == "a":
        return np.sin(th_x + th_y) >= 0.0
    if path == "b":
        return np.sin(2.0 * alpha - th_x - th_y) >= 0.0
    if path == "ba":
        return _leg_valid(alpha, alpha - th_x, alpha - th_y, "ab")
    if path != "ab":
        raise DomainError(f"unknown path {path!r}")
    # path "ab": bounce on side A (the x-axis ray) first, then on side B.
    x_x, y_x = np.cos(th_x), np.sin(th_x)
    x_i, y_i = np.cos(th_y - 2.0 * alpha), np.sin(th_y - 2.0 * alpha)
    sa, ca = math.sin(alpha), math.cos(alpha)
    cross_a = y_i < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_a = y_x / (y_x - y_i)
        x_at_a = x_x + t_a * (x_i - x_x)
        sig_x = ca * y_x + sa * x_x          # side function of the reflected B line
        sig_i = ca * y_i + sa * x_i
        cross_b = sig_x * sig_i < 0.0
        t_b = sig_x / (sig_x - sig_i)
        px = x_x + t_b * (x_i - x_x)
        py = y_x + t_b * (y_i - y_x)
        radius_b = px * ca - py * sa         # coordinate along the -alpha ray
    ok = cross_a & cross_b
    ok &= (t_a > 0.0) & (t_a < t_b) & (t_b < 1.0)
    ok &= x_at_a >= 0.0
    ok &= radius_b >= 0.0
    return ok


# (sign, shift) of the image angle psi = sign*theta + shift*alpha of each leg
# class, in the first (u) and the second (v) leg of a pair
_IMAGES = {"d": ((1, 0), (1, 0)), "a": ((-1, 0), (-1, 0)), "b": ((-1, 2), (-1, 2)),
           "ab": ((1, 2), (1, -2)), "ba": ((1, -2), (1, 2))}


def _image_angles(alpha: float, theta, p1: str, p2: str):
    """Angles of the two effective Gaussian centers for a class pair."""
    (su, hu), (sv, hv) = _IMAGES[p1][0], _IMAGES[p2][1]
    return su * theta + hu * alpha, sv * theta + hv * alpha


def _pair_valid(alpha: float, theta, theta0, p1: str, p2: str):
    return _leg_valid(alpha, theta, theta0, p1) & _leg_valid(alpha, theta0, theta, p2)


def _sectors_for_nodes(alpha: float, thetas: np.ndarray, p1: str,
                       p2: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Valid theta0 intervals in [0, alpha] per outer node, from closed-form breakpoints.

    Returns flat ``(rows, lo, hi)``: sector k is [lo[k], hi[k]] at ``thetas[rows[k]]``.

    ``_leg_valid`` tests signs of sinusoids in the leg end angles x, y and of
    ratios of them: sin(x + y), sin(2 alpha - x - y), sin x, sin(x + alpha),
    sin(y - alpha), sin(y - 2 alpha), sin(x - y + 2 alpha) (numerator of
    t_b - t_a and of both bounce coordinates) and the half-angle factors of
    the two denominators; "ba" is "ab" under x, y -> alpha - x, alpha - y.
    So with one end at theta, validity changes only at theta0 = j alpha or
    j alpha +- theta (mod pi), |j| <= 2, and one ``_pair_valid`` call at the
    midpoint of each piece between breakpoints classifies it.
    """
    n = len(thetas)
    th = np.asarray(thetas, dtype=float)[:, None]
    j_alpha = alpha * np.arange(-2, 3)
    cand = np.mod(np.concatenate(np.broadcast_arrays(j_alpha, j_alpha + th, j_alpha - th),
                                 axis=1), math.pi)
    cand = np.where(cand < alpha, cand, 0.0)
    breaks = np.sort(np.column_stack([np.zeros(n), cand, np.full(n, alpha)]), axis=1)
    lo, hi = breaks[:, :-1], breaks[:, 1:]
    ok = _pair_valid(alpha, th, 0.5 * (lo + hi), p1, p2)
    step = np.diff(np.pad(ok, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    rows, first = np.nonzero(step == 1)
    _, after = np.nonzero(step == -1)
    a, b = lo[rows, first], hi[rows, after - 1]
    keep = b - a > 1e-12
    return rows[keep], a[keep], b[keep]


def _stable_g(rho: np.ndarray) -> np.ndarray:
    """[rho*arccos(-rho) + sqrt(1-rho^2)] / (1-rho^2)^(3/2), stably."""
    rho = np.clip(rho, -1.0 + 1e-300, 1.0 - 1e-15)
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


# Sectors per numpy pass of ``_class_trace``: each carries ~90 panel edges, and one pass
# over all of a pair's few hundred sectors adds ~3 MiB of peak memory for no clear speed-up.
_SECTOR_BLOCK = 64


def _class_trace(alpha: float, p1: str, p2: str, tau: float, n_gl: int) -> float:
    """Windowed two-piece trace of one ordered class pair (angular quadrature)."""
    scale = math.sqrt(2.0 * tau) / (2.0 * _WINDOW_R)
    crit = [x for x in (2.0 * alpha - math.pi, math.pi - alpha, 3.0 * alpha - 2.0 * math.pi)
            if 0.0 < x < alpha]
    th_edges = np.unique(_panel_edges(0.0, alpha, [0.0, alpha] + crit, scale))
    thetas, th_w = gauss_legendre(th_edges, n_gl)
    rows, lo, hi = _sectors_for_nodes(alpha, thetas, p1, p2)
    sign = (-1.0) ** (_BOUNCES[p1] + _BOUNCES[p2])
    pref = sign / (16.0 * math.pi**2 * tau**2)
    psi_u, psi_v = _image_angles(alpha, thetas, p1, p2)
    psi_mid = 0.5 * (psi_u + psi_v)
    two_cos_half = 2.0 * np.cos(0.5 * (psi_u - psi_v))
    total = 0.0
    for start in range(0, len(rows), _SECTOR_BLOCK):
        block = slice(start, start + _SECTOR_BLOCK)
        r = rows[block]
        peaks = psi_mid[r, None] + math.pi * np.arange(-2, 3)
        edges = _panel_edges(lo[block], hi[block], peaks, scale)
        sec, pan = np.nonzero(edges[:, 1:] > edges[:, :-1])    # the live panels
        th0, w0 = gauss_legendre(edges[sec[:, None], pan[:, None] + (0, 1)], n_gl)
        node = r[sec, None]
        c = two_cos_half[node] * np.cos(th0 - psi_mid[node])
        total += float(np.sum(th_w[node] * w0 * _radial_double_moment(c, tau)))
    return pref * total


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


def _pair_list() -> list[tuple[str, str]]:
    return [(p1, p2) for p1 in PATH_CLASSES for p2 in PATH_CLASSES
            if not (p1 == "d" and p2 == "d")]


_MAIN_PAIRS = {("a", "b"), ("b", "a"), ("d", "ab"), ("d", "ba"),
               ("ab", "d"), ("ba", "d")}


def _constant_at(alpha: float, tau_ladder: Sequence[float],
                 n_gl: int) -> tuple[float, float, float, dict]:
    """delta-constant estimate: per-class traces, edge parts removed, tau -> 0."""
    per_class: dict = {}
    totals = []
    mains = []
    for tau in tau_ladder:
        big_t = 2.0 * tau
        edge_unit = (math.sqrt(math.pi) * _WINDOW_R / 2.0) / (8.0 * math.sqrt(math.pi * big_t))
        tot = 0.0
        main = 0.0
        for pair in _pair_list():
            t_val = _class_trace(alpha, *pair, tau, n_gl)
            if pair in _EDGE_CLASSES:
                t_val -= _EDGE_CLASSES[pair] * edge_unit
            per_class.setdefault(pair, []).append(t_val)
            tot += t_val
            if pair in _MAIN_PAIRS:
                main += t_val
        totals.append(tot)
        mains.append(main)
    roots = [math.sqrt(t) for t in tau_ladder]
    value, spread = extrapolate_to_zero(roots, totals)
    main_value, _ = extrapolate_to_zero(roots, mains)
    return value.real, spread, main_value.real, {k: tuple(v) for k, v in per_class.items()}


def obtuse_corner_constant(
    alpha: float,
    grid: int = 2,
    tau_ladder: Sequence[float] | None = None,
    tol: float = 0.01,
) -> ObtuseCornerResult:
    """Numerical corner delta(E) constant from two-piece folded paths.

    All ordered leg-path class pairs are summed except the doubly-direct
    one, whose area and edge parts are not separated here, so its finite
    part is left out; the edge classes have their extensive per-side parts
    removed analytically.  The remaining
    constant is Richardson-extrapolated over the imaginary-time ladder.
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
    :class:`NonConvergence` when it exceeds ``tol`` or is NaN, and
    :class:`DomainError` unless the ladder's rungs are distinct, positive
    and finite.
    """
    if not 0.0 < alpha < math.pi:
        raise DomainError("alpha must be in (0, pi)")
    if grid < 1:
        raise DomainError("grid must be >= 1")
    if tau_ladder is None:
        # two extra halvings per refinement level: deeper extrapolation
        tau_ladder = tuple(0.02 * 0.5**j for j in range(2 + 2 * grid))
    tau_ladder = tuple(tau_ladder)
    if (not tau_ladder or len(set(tau_ladder)) < len(tau_ladder)
            or not all(0.0 < t < math.inf for t in tau_ladder)):
        raise DomainError("tau_ladder must hold distinct positive finite rungs")
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
    if not err <= tol:
        raise NonConvergence(
            f"corner constant error estimate {err:.3e} exceeds tol {tol:.3e}",
            result=result)
    return result
