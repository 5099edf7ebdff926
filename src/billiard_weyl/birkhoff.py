"""Bounce-map linearization in boundary coordinates (s, v).

``s`` is arclength along the boundary and ``v`` the tangential component of
the unit velocity right after reflection; ``v_perp = +sqrt(1 - v^2)`` is the
normal component.  The linearized bounce-to-bounce map, the endpoint
Jacobians between (s, v) perturbations and transverse (displacement,
velocity) perturbations, and their chain product along an orbit are all
unit-determinant 2x2 matrices.

The off-diagonal entry of the chain product divided by the momentum k is
the transverse position/momentum Jacobian of the orbit; for an all-straight
orbit of length L it reduces to (-1)^n L / k.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import BilliardError, DomainError
from . import geometry
from .geometry import Boundary, BoundaryFrame, frame_at

__all__ = [
    "Mat2",
    "BirkhoffCoord",
    "OrbitSpec",
    "GrazingIncidenceError",
    "RayEscapeError",
    "CornerHitError",
    "linearized_bounce_map",
    "linearized_bounce_map_product",
    "transverse_jacobians",
    "monodromy",
    "jacobian_r_p",
    "bounce_map",
    "trace_orbit",
    "chain_product",
]


class GrazingIncidenceError(BilliardError):
    """v_perp -> 0: the linearized map is singular at grazing incidence."""


class RayEscapeError(BilliardError):
    """Ray found no next boundary intersection (open or misoriented geometry)."""


class CornerHitError(BilliardError):
    """Ray landed within tolerance of a corner, where reflection is undefined."""


class Mat2(NamedTuple):
    """A 2x2 matrix ((m11, m12), (m21, m22)), unpacked as the tuple (m11, m12, m21, m22)."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __matmul__(self, other: "Mat2") -> "Mat2":
        a11, a12, a21, a22 = self
        b11, b12, b21, b22 = other
        return Mat2(a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                    a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def as_array(self) -> "numpy.ndarray":
        import numpy as np  # deferred: numpy dominates import time
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def diag(a: float, b: float) -> "Mat2":
        return Mat2(a, 0.0, 0.0, b)


class _Coord(NamedTuple):
    s: float
    v: float


class BirkhoffCoord(_Coord):
    """Boundary point s (finite) with signed tangential velocity v, |v| < 1.

    A tuple: it unpacks as ``(s, v)`` and equals the plain tuple ``(s, v)``.
    Every coordinate is checked as it is made, traced ones included.
    """

    __slots__ = ()

    def __new__(cls, s: float, v: float) -> "BirkhoffCoord":
        # s - s is 0.0 for finite s and NaN otherwise: one comparison tests both
        if not abs(v) + (s - s) < 1.0:
            if s - s == 0.0:
                raise DomainError(f"|v| must be < 1, got {v!r}")
            raise DomainError(f"s must be finite, got {s!r}")
        return tuple.__new__(cls, (s, v))

    @classmethod
    def _make(cls, iterable) -> "BirkhoffCoord":
        return cls(*iterable)       # so that _replace checks too

    @property
    def v_perp(self) -> float:
        return math.sqrt(1.0 - self.v * self.v)


@dataclass(frozen=True)
class OrbitSpec:
    """Bounce-sequence data for an orbit with interior endpoints.

    ``y_first`` is the position of the first bounce relative to the launch
    point, measured along the motion (positive: the bounce lies ahead).
    ``y_last`` is the position of the last bounce relative to the endpoint
    (negative: the bounce lies behind).  ``chords[i]`` joins bounce i to
    bounce i+1.
    """

    v_perp: tuple[float, ...]
    curvature: tuple[float, ...]
    chords: tuple[float, ...]
    y_first: float
    y_last: float

    def __post_init__(self):
        n = len(self.v_perp)
        if n < 1:
            raise DomainError("OrbitSpec needs at least one bounce")
        if len(self.curvature) != n or len(self.chords) != n - 1:
            raise DomainError("inconsistent per-bounce data lengths")
        if not all(0.0 < l < math.inf for l in self.chords):
            raise DomainError("chord lengths must be positive and finite")
        if not all(map(math.isfinite, (self.y_first, self.y_last, *self.curvature))):
            raise DomainError("bounce offsets and curvatures must be finite")

    @property
    def n(self) -> int:
        return len(self.v_perp)

    @property
    def length(self) -> float:
        return abs(self.y_first) + math.fsum(self.chords) + abs(self.y_last)


def _check_v_perp(*vs: float) -> None:
    for v in vs:
        if not v > 0.0:
            raise GrazingIncidenceError(f"v_perp must be > 0, got {v!r}")
        if v > 1.0 + 1e-12:
            raise DomainError(f"v_perp must be <= 1, got {v!r}")


def _check_bounce(v1_perp: float, v2_perp: float, l12: float, c1: float, c2: float) -> None:
    _check_v_perp(v1_perp, v2_perp)
    if not 0.0 < l12 < math.inf:
        raise DomainError(f"chord length must be positive and finite, got {l12!r}")
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise DomainError(f"curvatures must be finite, got {c1!r} and {c2!r}")


def linearized_bounce_map(v1_perp: float, v2_perp: float, l12: float,
                          c1: float, c2: float) -> Mat2:
    """Linearized bounce-to-bounce map from (s1, v1) to (s2, v2).

    c is the boundary curvature at the bounce (positive when the interior
    curves around the center), l12 the chord length.
    """
    # valid input in one chained comparison (c - c is 0.0 for finite c and NaN
    # otherwise); _check_bounce only names what failed
    if not 0.0 == c1 - c1 == c2 - c2 < v1_perp <= 1.0 + 1e-12 >= v2_perp > 0.0 < l12 < math.inf:
        _check_bounce(v1_perp, v2_perp, l12, c1, c2)
    return tuple.__new__(Mat2, (    # Mat2's own constructor checks nothing and costs a call
        (l12 * c1 - v1_perp) / v2_perp,
        -l12 / (v1_perp * v2_perp),
        c1 * v2_perp + c2 * v1_perp - l12 * c1 * c2,
        (l12 * c2 - v2_perp) / v1_perp,
    ))


def linearized_bounce_map_product(v1_perp: float, v2_perp: float, l12: float,
                                  c1: float, c2: float) -> Mat2:
    """Same map synthesized from its five unit-determinant factors, refusing the same input."""
    _check_bounce(v1_perp, v2_perp, l12, c1, c2)
    return (Mat2.diag(1.0 / v2_perp, v2_perp)
            @ Mat2(1.0, 0.0, -c2 / v2_perp, 1.0)
            @ Mat2(-1.0, -l12, 0.0, -1.0)
            @ Mat2(1.0, 0.0, -c1 / v1_perp, 1.0)
            @ Mat2.diag(v1_perp, 1.0 / v1_perp))


def transverse_jacobians(y: float, c: float, v_perp: float,
                         end: str = "start") -> tuple[Mat2, Mat2]:
    """Jacobians between (ds, dv) at a bounce and transverse (xi, kappa).

    ``end="start"`` treats the bounce as the chord's first endpoint
    (velocity pointing along the chord); ``end="finish"`` as its second
    endpoint, which replaces v_perp by -v_perp.  ``y`` is the bounce's
    position along the chord relative to the reference point.  Returns
    (J_s_xi, J_xi_s) with J_s_xi @ J_xi_s = identity.  A ``y`` or ``c`` that
    is not finite is a :class:`DomainError`.
    """
    _check_v_perp(v_perp)
    if not (math.isfinite(y) and math.isfinite(c)):
        raise DomainError(f"bounce offset and curvature must be finite, got {y!r} and {c!r}")
    if end == "finish":
        v = -v_perp
    elif end == "start":
        v = v_perp
    else:
        raise DomainError(f"end must be 'start' or 'finish', got {end!r}")
    j_sxi = Mat2(1.0 / v, y / v, c, v + c * y)
    j_xis = Mat2(v + y * c, -y / v, -c, 1.0 / v)
    return j_sxi, j_xis


def monodromy(orbit: OrbitSpec) -> Mat2:
    """Chain product of endpoint Jacobians and bounce maps along an orbit.

    The launch leg ends at bounce 1 (finish-type Jacobian, y = y_first > 0);
    the final leg starts at bounce n (start-type, y = y_last < 0).  For an
    all-straight orbit the product is (-1)^n [[1, L], [0, 1]].
    """
    n = orbit.n
    m = transverse_jacobians(orbit.y_first, orbit.curvature[0],
                             orbit.v_perp[0], end="finish")[0]
    for i in range(n - 1):
        m = linearized_bounce_map(
            orbit.v_perp[i], orbit.v_perp[i + 1], orbit.chords[i],
            orbit.curvature[i], orbit.curvature[i + 1]) @ m
    j_out = transverse_jacobians(orbit.y_last, orbit.curvature[n - 1],
                                 orbit.v_perp[n - 1], end="start")[1]
    return j_out @ m


def jacobian_r_p(m: Mat2, k: float) -> float:
    """Transverse position/momentum Jacobian: the chain's 1-2 entry over k, a positive
    finite momentum."""
    if not 0.0 < k < math.inf:
        raise DomainError(f"k must be positive and finite, got {k!r}")
    return m.m12 / k


# ---------------------------------------------------------------------------
# nonlinear bounce map (ray trace with specular reflection)

_HIT_TOL = 1e-9  # hits closer than this to the launch point are ignored


def _bounce(b: Boundary, coord: BirkhoffCoord,
            fr: BoundaryFrame) -> tuple[BirkhoffCoord, BoundaryFrame]:
    """The next bounce from ``coord``, whose frame is ``fr``, and the frame there.

    The ray meets each segment as ``b.ray_rows`` holds it, worked out once per boundary.
    """
    s, v = coord
    vp = math.sqrt(1.0 - v * v)
    (px, py), (tx, ty), (ix, iy), _ = fr
    dx = v * tx + vp * ix
    dy = v * ty + vp * iy

    best_t = math.inf
    hit = -1
    for i, row in enumerate(b.ray_rows):
        if row[0]:
            # solve p + t d = (x0, y0) + u * tangent
            _, length, x0, y0, nx, ny = row
            denom = dx * nx + dy * ny
            if -1e-15 < denom < 1e-15:
                continue
            rx, ry = x0 - px, y0 - py
            t = (rx * nx + ry * ny) / denom
            if _HIT_TOL < t < best_t:
                u = (dx * ry - dy * rx) / denom
                if -1e-12 <= u <= length + 1e-12:
                    # min(max(u, 0.0), length), without the two builtin calls
                    best_t, hit, local = t, i, 0.0 if u < 0.0 else length if u > length else u
            continue
        _, cx, cy, r2, a0, extent, sign, r = row
        fx, fy = px - cx, py - cy
        bq = fx * dx + fy * dy
        disc = bq * bq - (fx * fx + fy * fy - r2)
        if disc < 0.0:
            continue
        sq = math.sqrt(disc)
        for t in (-bq - sq, -bq + sq):
            if not _HIT_TOL < t < best_t:
                continue
            # angle from a0 measured along the sweep, then the nearer hit
            ang = math.atan2(py + t * dy - cy, px + t * dx - cx)
            rel = (sign * (ang - a0)) % geometry.TWO_PI
            if rel <= extent + 1e-12:
                best_t, hit, local = t, i, r * (extent if rel > extent else rel)
    if hit < 0:
        raise RayEscapeError(f"ray from s={s}, v={v} escaped")
    cum = b.cumlen
    s_hit = (cum[hit] + local) % cum[-1]
    # At least CORNER_TOL inside segment hit, measured on the rounded s_hit: there
    # frame_at finds no corner and bisects to that segment, so build its frame here.
    # (A margin on ``local`` fails where one ulp of cumlen exceeds CORNER_TOL.)
    if s_hit - cum[hit] >= geometry.CORNER_TOL <= cum[hit + 1] - s_hit:
        piece = b.pieces[hit]
        fr2 = geometry._frame(piece, (s_hit - cum[hit]) / piece[1])
    else:
        try:
            fr2 = frame_at(b, s_hit)
        except geometry.CornerPointError:
            raise CornerHitError(f"ray hit corner at s={s_hit}") from None
    _, (tx, ty), _, _ = fr2
    v2 = dx * tx + dy * ty          # clamped to |v2| <= 1 - 1e-15
    if v2 > 1.0 - 1e-15:
        v2 = 1.0 - 1e-15
    elif v2 < -1.0 + 1e-15:
        v2 = -1.0 + 1e-15
    # BirkhoffCoord's test, inline; its constructor raises what fails it
    if abs(v2) + (s_hit - s_hit) < 1.0:
        return tuple.__new__(BirkhoffCoord, (s_hit, v2)), fr2
    return BirkhoffCoord(s_hit, v2), fr2


def bounce_map(b: Boundary, coord: BirkhoffCoord) -> BirkhoffCoord:
    """Trace the ray leaving (s, v) to the next bounce.

    The tangential velocity component is continuous across a specular
    reflection, so the returned coordinate is again post-reflection data.
    A plain ``(s, v)`` pair is taken as ``BirkhoffCoord(s, v)``.  Raises
    :class:`RayEscapeError`, or :class:`CornerHitError` when the ray lands within
    ``geometry.CORNER_TOL`` of a corner.
    """
    coord = BirkhoffCoord(*coord)
    return _bounce(b, coord, frame_at(b, coord.s))[0]


class _Trace(list):
    """The points of one trace, with the boundary traced, a snapshot of the
    points and the frame found at each point, for ``chain_product``."""

    __slots__ = ("boundary", "points", "frames")


def trace_orbit(b: Boundary, start: BirkhoffCoord, bounces: int) -> list[BirkhoffCoord]:
    """Iterate the bounce map ``bounces`` times (an integer >= 0), returning all visited coords.

    Each bounce launches from the frame its hit found, so the trace finds
    ``bounces + 1`` boundary frames.  The returned list keeps them:
    ``chain_product`` reuses them while the list is unmodified and is given
    the same ``Boundary`` object.  Slices and concatenations are plain lists.  A plain
    ``(s, v)`` start is taken as ``BirkhoffCoord(s, v)``; a bool is not a bounce count.
    """
    if not (isinstance(bounces, numbers.Integral) and not isinstance(bounces, bool)
            and bounces >= 0):
        raise DomainError(f"bounces must be an integer >= 0, got {bounces!r}")
    c = BirkhoffCoord(*start)
    fr = frame_at(b, c.s)
    pts, frames = _Trace([c]), [fr]
    for _ in range(bounces):
        c, fr = _bounce(b, c, fr)
        pts.append(c)
        frames.append(fr)
    pts.boundary, pts.points, pts.frames = b, tuple(pts), frames
    return pts


def chain_product(b: Boundary, pts: Sequence[BirkhoffCoord]) -> Mat2:
    """Product of the linearized bounce maps along a traced point sequence.

    Takes each point's boundary frame from the trace when ``pts`` is the
    unmodified list ``trace_orbit(b, ...)`` returned, for this same ``b``
    object, and otherwise takes each point as ``BirkhoffCoord(s, v)``, so a plain pair
    works, and finds its frame with ``frame_at``; either way the frames are the same
    floats.  Takes each point's v_perp once, calls ``linearized_bounce_map`` once per
    neighbour pair, and accumulates the product in four floats, each operation in the
    order ``map @ m`` takes it.
    """
    if len(pts) < 2:
        raise DomainError("need at least two boundary points")
    if isinstance(pts, _Trace) and pts.boundary is b and tuple(pts) == pts.points:
        frames = pts.frames
    else:
        pts = [BirkhoffCoord(*c) for c in pts]
        frames = [frame_at(b, c.s) for c in pts]
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    (x1, y1), _, _, k1 = frames[0]
    _, v1 = pts[0]
    vp1 = math.sqrt(1.0 - v1 * v1)
    for (_, v2), ((x2, y2), _, _, k2) in zip(pts[1:], frames[1:]):
        vp2 = math.sqrt(1.0 - v2 * v2)
        a11, a12, a21, a22 = linearized_bounce_map(vp1, vp2, math.hypot(x2 - x1, y2 - y1), k1, k2)
        m11, m12, m21, m22 = (a11 * m11 + a12 * m21, a11 * m12 + a12 * m22,
                              a21 * m11 + a22 * m21, a21 * m12 + a22 * m22)
        x1, y1, k1, vp1 = x2, y2, k2, vp2
    return Mat2(m11, m12, m21, m22)
