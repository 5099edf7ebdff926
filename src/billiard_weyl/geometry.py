"""Billiard boundaries built from line and arc segments.

A boundary is a closed, counterclockwise chain; it supplies the geometric
inputs of the mode-density expansion: area, perimeter, the integrated
boundary curvature, and the interior corner angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


from .errors import BilliardError

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


@dataclass(frozen=True)
class Segment:
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

    def point(self, t: float) -> tuple[float, float]:
        """Point at arclength fraction t in [0, 1]."""
        if self.kind == "line":
            return (self.p0[0] + t * (self.p1[0] - self.p0[0]),
                    self.p0[1] + t * (self.p1[1] - self.p0[1]))
        ang = self.a0 + t * self.sweep
        return (self.center[0] + self.radius * math.cos(ang),
                self.center[1] + self.radius * math.sin(ang))

    def tangent(self, t: float) -> tuple[float, float]:
        """Unit tangent along the traversal direction at fraction t."""
        if self.kind == "line":
            dx, dy = self.p1[0] - self.p0[0], self.p1[1] - self.p0[1]
            n = math.hypot(dx, dy)
            return (dx / n, dy / n)
        ang = self.a0 + t * self.sweep
        s = 1.0 if self.sweep > 0 else -1.0
        return (-s * math.sin(ang), s * math.cos(ang))

    @property
    def curvature(self) -> float:
        """Signed curvature: 0 for lines, +1/r when the center sits on the
        interior (left) side of the traversal direction."""
        if self.kind == "line":
            return 0.0
        return (1.0 if self.sweep > 0 else -1.0) / self.radius


@dataclass(frozen=True)
class Corner:
    position: tuple[float, float]
    alpha: float                    # interior angle, in (0, 2*pi)
    arclength: float                # cumulative arclength of the junction
    segments: tuple[int, int]       # incoming, outgoing segment indices


@dataclass(frozen=True)
class Boundary:
    segments: tuple[Segment, ...]
    corners: tuple[Corner, ...]
    cumlen: tuple[float, ...]       # cumulative arclength at segment starts

    @property
    def perimeter(self) -> float:
        return self.cumlen[-1]


@dataclass(frozen=True)
class GeometricMeasures:
    area: float
    perimeter: float
    curvature_integral: float
    corners: tuple[Corner, ...]


class BoundaryFrame(NamedTuple):
    point: tuple[float, float]
    tangent: tuple[float, float]
    inward_normal: tuple[float, float]
    curvature: float


def _arc_chord_correction(seg: Segment) -> float:
    # area between chord and arc: (r^2/2) * (sweep - sin(sweep)), signed
    return 0.5 * seg.radius**2 * (seg.sweep - math.sin(seg.sweep))


def signed_area(segments) -> float:
    """Exact signed area of the closed chain (shoelace + circular segments)."""
    total = 0.0
    for seg in segments:
        x0, y0 = seg.p0
        x1, y1 = seg.p1
        total += 0.5 * (x0 * y1 - x1 * y0)
        if seg.kind == "arc":
            total += _arc_chord_correction(seg)
    return total


def _turn_angle(t_in, t_out) -> float:
    """Signed turn from tangent t_in to t_out, in (-pi, pi]."""
    return math.atan2(t_in[0] * t_out[1] - t_in[1] * t_out[0],
                      t_in[0] * t_out[0] + t_in[1] * t_out[1])


def _build_boundary(segments: list[Segment]) -> Boundary:
    if not segments:
        raise OpenChainError("no segments")
    for i, seg in enumerate(segments):
        if seg.length <= 0.0:
            raise ZeroLengthSegmentError(f"segment {i} has zero length")
    n = len(segments)
    for i, seg in enumerate(segments):
        nxt = segments[(i + 1) % n]
        gap = math.hypot(seg.p1[0] - nxt.p0[0], seg.p1[1] - nxt.p0[1])
        if gap > CLOSURE_TOL:
            raise OpenChainError(
                f"segment {i} ends at {seg.p1} but segment {(i + 1) % n} "
                f"starts at {nxt.p0} (gap {gap:.3e})")
    if signed_area(segments) <= 0.0:
        raise OrientationError("boundary must be counterclockwise (interior on the left)")

    cum = [0.0]
    for seg in segments:
        cum.append(cum[-1] + seg.length)

    corners = []
    for i in range(n):
        seg = segments[i]
        nxt = segments[(i + 1) % n]
        turn = _turn_angle(seg.tangent(1.0), nxt.tangent(0.0))
        if abs(turn) < CORNER_TOL:
            continue
        alpha = math.pi - turn
        s_corner = cum[i + 1] if i + 1 < len(cum) else cum[-1]
        if i == n - 1:
            s_corner = 0.0
        corners.append(Corner(position=nxt.p0, alpha=alpha,
                              arclength=s_corner, segments=(i, (i + 1) % n)))
    return Boundary(segments=tuple(segments), corners=tuple(corners), cumlen=tuple(cum))


def parse_geometry(text: str) -> Boundary:
    """Parse a geometry document (see the file-format notes in the README).

    Raises :class:`GeometrySyntaxError`, :class:`OpenChainError`,
    :class:`OrientationError`, or :class:`ZeroLengthSegmentError`.
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
            try:
                x0, y0, x1, y1 = (float(t) for t in tokens[1:])
            except ValueError as exc:
                raise GeometrySyntaxError(f"bad number: {exc}", lineno) from None
            segments.append(Segment("line", (x0, y0), (x1, y1)))
        elif kind == "arc":
            if len(tokens) != 7:
                raise GeometrySyntaxError("'arc' needs: cx cy r a0 a1 ccw|cw", lineno)
            try:
                cx, cy, r, a0, a1 = (float(t) for t in tokens[1:6])
            except ValueError as exc:
                raise GeometrySyntaxError(f"bad number: {exc}", lineno) from None
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


def locate(b: Boundary, s: float) -> tuple[int, float]:
    """Segment index and local arclength for boundary coordinate s (wrapped)."""
    s = s % b.perimeter
    cum = b.cumlen
    # cumlen is short; linear scan keeps this branch-free of numpy overhead
    for i in range(len(b.segments)):
        if s < cum[i + 1] or i == len(b.segments) - 1:
            return i, s - cum[i]
    raise AssertionError("unreachable")


def frame_at(b: Boundary, s: float) -> BoundaryFrame:
    """Boundary frame (point, tangent, inward normal, curvature) at arclength s.

    Raises :class:`CornerPointError` within ``CORNER_TOL`` of a corner.
    """
    s_wrapped = s % b.perimeter
    for c in b.corners:
        d = abs(s_wrapped - c.arclength)
        if min(d, b.perimeter - d) < CORNER_TOL:
            raise CornerPointError(f"s={s} is at a corner (alpha={c.alpha:.6f})")
    i, local = locate(b, s_wrapped)
    seg = b.segments[i]
    t = local / seg.length
    tx, ty = seg.tangent(t)
    return BoundaryFrame(
        point=seg.point(t),
        tangent=(tx, ty),
        inward_normal=(-ty, tx),
        curvature=seg.curvature,
    )


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
