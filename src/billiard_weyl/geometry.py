"""Billiard boundaries built from line and arc segments.

A boundary is a closed, counterclockwise chain; it supplies the geometric
inputs of the mode-density expansion: area, perimeter, the integrated
boundary curvature, and the interior corner angles.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

from .errors import BilliardError, DomainError

__all__ = [
    "Segment",
    "Boundary",
    "Corner",
    "GeometricMeasures",
    "BoundaryFrame",
    "parse_geometry",
    "serialize_geometry",
    "measures",
    "frame_at",
    "GeometryError",
    "GeometrySyntaxError",
    "OpenChainError",
    "OrientationError",
    "ZeroLengthSegmentError",
    "CornerPointError",
    "CLOSURE_TOL",
    "CORNER_TOL",
]

CLOSURE_TOL = 1e-9      # chain closure, absolute distance
CORNER_TOL = 1e-9       # tangent mismatch below this is a smooth joint, radians
TWO_PI = 2.0 * math.pi


class GeometryError(BilliardError):
    """Base class of the errors about a boundary and points on it."""


class GeometrySyntaxError(GeometryError):
    """Malformed geometry document."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class OpenChainError(GeometryError):
    """Segment chain does not close."""


class OrientationError(GeometryError):
    """Boundary is oriented clockwise (interior must be on the left)."""


class ZeroLengthSegmentError(GeometryError):
    """Segment with no extent."""


class CornerPointError(GeometryError):
    """Frame requested exactly at a corner, where it is undefined."""


class Segment(NamedTuple):
    """One boundary piece: a straight line or a circular arc.

    Lines: ``p0 -> p1``.  Arcs: circle of radius ``r`` about ``center``,
    from angle ``a0`` through a signed ``sweep`` (positive = ccw).
    """

    kind: str                       # "line" | "arc"
    p0: tuple[float, float]
    p1: tuple[float, float]
    center: tuple[float, float] | None = None
    radius: float = 0.0
    a0: float = 0.0
    sweep: float = 0.0

    @property
    def length(self) -> float:
        if self.kind == "line":
            return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])
        return self.radius * abs(self.sweep)


def _piece(seg: Segment) -> tuple:
    length = seg.length
    if seg.kind == "line":
        (x0, y0), (x1, y1) = seg.p0, seg.p1
        ex, ey = x1 - x0, y1 - y0
        tx, ty = ex / length, ey / length
        return (True, length, x0, y0, -ty, tx, ex, ey, (tx, ty), (-ty, tx))
    r, sweep = seg.radius, seg.sweep
    sign = 1.0 if sweep > 0 else -1.0
    return (False, length, *seg.center, r**2, seg.a0, abs(sweep), sign, r, sweep, sign / r)


class Corner(NamedTuple):
    alpha: float                    # interior angle, in (0, 2*pi)
    arclength: float                # cumulative arclength of the junction


class _BoundaryFields(NamedTuple):
    segments: tuple[Segment, ...]
    corners: tuple[Corner, ...]
    cumlen: tuple[float, ...]       # cumulative arclength at segment starts
    pieces: tuple[tuple, ...]


class Boundary(_BoundaryFields):
    """A closed ccw chain: its segments, corners and the arclength at each segment start.

    ``pieces``, built from ``segments`` when not given and by ``_replace``, is each segment
    as one flat row.  A line is (True, length, x0, y0, inward normal nx, ny, edge vector ex,
    ey, unit tangent, inward normal); an arc is (False, length, cx, cy, r**2, a0, |sweep|,
    sign of sweep, r, sweep, curvature sign/r: +1/r when the center is on the interior,
    left, side).  The ray trace reads the fields before ex and before sweep.
    """

    __slots__ = ()

    def __new__(cls, segments, corners, cumlen, pieces=None) -> "Boundary":
        if pieces is None:
            pieces = tuple(map(_piece, segments))
        return tuple.__new__(cls, (segments, corners, cumlen, pieces))

    @classmethod
    def _make(cls, iterable) -> "Boundary":
        return cls(*tuple(iterable)[:3])      # so that _replace rebuilds the rows

    @property
    def perimeter(self) -> float:
        return self.cumlen[-1]


class GeometricMeasures(NamedTuple):
    area: float
    perimeter: float
    curvature_integral: float
    corners: tuple[Corner, ...]


class BoundaryFrame(NamedTuple):
    point: tuple[float, float]
    tangent: tuple[float, float]
    inward_normal: tuple[float, float]
    curvature: float


def signed_area(segments) -> float:
    """Exact signed area of the closed chain (shoelace + circular segments)."""
    total = 0.0
    for seg in segments:
        x0, y0 = seg.p0
        x1, y1 = seg.p1
        total += 0.5 * (x0 * y1 - x1 * y0)
        if seg.kind == "arc":
            # area between chord and arc: (r^2/2) * (sweep - sin(sweep)), signed
            total += 0.5 * seg.radius**2 * (seg.sweep - math.sin(seg.sweep))
    return total


def _frame(piece: tuple, t: float) -> BoundaryFrame:
    """The frame at fraction t of the segment that ``piece`` describes."""
    # tuple.__new__: BoundaryFrame's own constructor checks nothing and costs a call
    if piece[0]:
        _, _, x0, y0, _, _, ex, ey, tangent, normal = piece
        return tuple.__new__(BoundaryFrame, ((x0 + t * ex, y0 + t * ey), tangent, normal, 0.0))
    _, _, cx, cy, _, a0, _, sign, r, sweep, curvature = piece
    ang = a0 + t * sweep
    tx, ty = -sign * math.sin(ang), sign * math.cos(ang)
    return tuple.__new__(BoundaryFrame, ((cx + r * math.cos(ang), cy + r * math.sin(ang)),
                                         (tx, ty), (-ty, tx), curvature))


def _build_boundary(segments: list[Segment]) -> Boundary:
    if not segments:
        raise OpenChainError("no segments")
    # each check is a negated positive test, so that NaN fails it
    for i, seg in enumerate(segments):
        if not 0.0 < seg.length < math.inf:
            raise ZeroLengthSegmentError(f"segment {i} has zero or non-finite length")
    n = len(segments)
    for i, seg in enumerate(segments):
        nxt = segments[(i + 1) % n]
        gap = math.hypot(seg.p1[0] - nxt.p0[0], seg.p1[1] - nxt.p0[1])
        if not gap <= CLOSURE_TOL:
            raise OpenChainError(
                f"segment {i} ends at {seg.p1} but segment {(i + 1) % n} "
                f"starts at {nxt.p0} (gap {gap:.3e})")
    if not 0.0 < signed_area(segments) < math.inf:
        raise OrientationError("boundary must be counterclockwise (interior on the left): "
                               "its signed area is negative, zero or non-finite")

    cum = [0.0]
    for seg in segments:
        cum.append(cum[-1] + seg.length)

    pieces = tuple(map(_piece, segments))
    corners = []
    for i in range(n):
        ax, ay = _frame(pieces[i], 1.0).tangent
        bx, by = _frame(pieces[(i + 1) % n], 0.0).tangent
        turn = math.atan2(ax * by - ay * bx, ax * bx + ay * by)     # signed, in (-pi, pi]
        if abs(turn) < CORNER_TOL:
            continue
        alpha = math.pi - turn
        if not CORNER_TOL <= alpha <= TWO_PI - CORNER_TOL:
            raise GeometryError(f"segment {i} doubles back at {segments[i].p1}: a cusp, "
                                f"interior angle {alpha!r} within {CORNER_TOL} of 0 or 2*pi")
        corners.append(Corner(alpha=alpha, arclength=cum[i + 1] % cum[-1]))
    return Boundary(tuple(segments), tuple(corners), tuple(cum), pieces)


def _numbers(tokens: list[str], lineno: int) -> list[float]:
    """The finite floats a record's number tokens spell."""
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise GeometrySyntaxError(f"bad number: {exc}", lineno) from None
    if not all(map(math.isfinite, values)):
        raise GeometrySyntaxError(f"non-finite number in {' '.join(tokens)!r}", lineno)
    return values


def parse_geometry(text: str) -> Boundary:
    """Parse a geometry document (see the file-format notes in the README).

    Raises :class:`GeometrySyntaxError`, :class:`OpenChainError`,
    :class:`OrientationError`, :class:`ZeroLengthSegmentError`, or
    :class:`GeometryError` for a cusp, a junction where the chain doubles back.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "billiard v1":
        raise GeometrySyntaxError("missing 'billiard v1' header", 1)
    segments: list[Segment] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        kind = tokens[0]
        if kind == "line":
            if len(tokens) != 5:
                raise GeometrySyntaxError("'line' needs 4 numbers: x0 y0 x1 y1", lineno)
            x0, y0, x1, y1 = _numbers(tokens[1:], lineno)
            segments.append(Segment("line", (x0, y0), (x1, y1)))
        elif kind == "arc":
            if len(tokens) != 7:
                raise GeometrySyntaxError("'arc' needs: cx cy r a0 a1 ccw|cw", lineno)
            cx, cy, r, a0, a1 = _numbers(tokens[1:6], lineno)
            direction = tokens[6]
            if direction not in ("ccw", "cw"):
                raise GeometrySyntaxError("arc direction must be 'ccw' or 'cw'",
                                          lineno, column=len(stripped) - len(tokens[6]) + 1)
            if r <= 0:
                raise ZeroLengthSegmentError(f"line {lineno}: arc radius must be > 0")
            if direction == "ccw":
                sweep = (a1 - a0) % TWO_PI
                if sweep == 0.0 and a1 != a0:
                    sweep = TWO_PI
            else:
                sweep = -((a0 - a1) % TWO_PI)
                if sweep == 0.0 and a1 != a0:
                    sweep = -TWO_PI
            p0 = (cx + r * math.cos(a0), cy + r * math.sin(a0))
            p1 = (cx + r * math.cos(a0 + sweep), cy + r * math.sin(a0 + sweep))
            segments.append(Segment("arc", p0, p1, center=(cx, cy), radius=r,
                                    a0=a0, sweep=sweep))
        else:
            raise GeometrySyntaxError(f"unknown record '{kind}'", lineno)
    return _build_boundary(segments)


def serialize_geometry(b: Boundary) -> str:
    """Inverse of :func:`parse_geometry` (round-trips to identical measures)."""
    out = ["billiard v1"]
    for seg in b.segments:
        if seg.kind == "line":
            out.append(f"line {seg.p0[0]!r} {seg.p0[1]!r} {seg.p1[0]!r} {seg.p1[1]!r}")
        else:
            a1 = seg.a0 + seg.sweep
            word = "ccw" if seg.sweep > 0 else "cw"
            out.append(f"arc {seg.center[0]!r} {seg.center[1]!r} {seg.radius!r} "
                       f"{seg.a0!r} {a1!r} {word}")
    return "\n".join(out) + "\n"


def measures(b: Boundary) -> GeometricMeasures:
    """Area, perimeter, integrated curvature and corners of a boundary."""
    return GeometricMeasures(
        area=signed_area(b.segments),
        perimeter=b.perimeter,
        curvature_integral=math.fsum(s.sweep for s in b.segments if s.kind == "arc"),
        corners=b.corners,
    )


def frame_at(b: Boundary, s: float) -> BoundaryFrame:
    """Boundary frame (point, tangent, inward normal, curvature) at arclength s.

    Reads the segment's geometry from ``b.pieces``.  Raises
    :class:`CornerPointError` within ``CORNER_TOL`` of a corner and
    :class:`DomainError` for an s that is not finite.
    """
    cum = b.cumlen
    per = cum[-1]
    s_wrapped = s % per
    for c in b.corners:
        d = abs(s_wrapped - c.arclength)
        if d < CORNER_TOL or per - d < CORNER_TOL:
            raise CornerPointError(f"s={s} is at a corner (alpha={c.alpha:.6f})")
    s_wrapped %= per                # (-1e-20) % 2 pi is 2 pi itself: this maps it to 0
    if not s_wrapped < per:         # NaN: s is not finite
        raise DomainError(f"frame_at needs a finite arclength, got {s!r}")
    # the first segment that ends above s_wrapped, else the last
    i = bisect.bisect_right(cum, s_wrapped, 1, len(cum) - 1) - 1
    piece = b.pieces[i]
    return _frame(piece, (s_wrapped - cum[i]) / piece[1])


def square(side: float = 1.0) -> Boundary:
    """Axis-aligned ccw square with corner at the origin."""
    return rectangle(side, side)


def rectangle(a: float, b_: float) -> Boundary:
    return _build_boundary([
        Segment("line", (0.0, 0.0), (a, 0.0)),
        Segment("line", (a, 0.0), (a, b_)),
        Segment("line", (a, b_), (0.0, b_)),
        Segment("line", (0.0, b_), (0.0, 0.0)),
    ])


def disk(radius: float = 1.0) -> Boundary:
    p0 = (radius, 0.0)
    return _build_boundary([
        Segment("arc", p0, p0, center=(0.0, 0.0), radius=radius, a0=0.0, sweep=TWO_PI),
    ])
