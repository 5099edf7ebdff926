import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from billiard_weyl import geometry as g
from billiard_weyl.errors import DomainError

SQUARE_DOC = """billiard v1
# unit square, counterclockwise
line 0 0 1 0
line 1 0 1 1
line 1 1 0 1
line 0 1 0 0
"""

CIRCLE_DOC = """billiard v1
arc 0 0 1 0 6.283185307179586 ccw
"""

QUARTER_DISK_DOC = """billiard v1
line 0 0 1 0
arc 0 0 1 0 1.5707963267948966 ccw
line 0 1 0 0
"""


def test_parse_square():
    b = g.parse_geometry(SQUARE_DOC)
    assert len(b.segments) == 4
    assert len(b.corners) == 4
    for c in b.corners:
        assert c.alpha == pytest.approx(math.pi / 2, abs=1e-12)


def test_parse_circle_no_corners():
    b = g.parse_geometry(CIRCLE_DOC)
    assert len(b.segments) == 1
    assert len(b.corners) == 0


def test_parse_open_chain():
    doc = "\n".join(SQUARE_DOC.strip().splitlines()[:-1]) + "\n"
    with pytest.raises(g.OpenChainError):
        g.parse_geometry(doc)


def test_parse_clockwise_rejected():
    doc = """billiard v1
line 0 0 0 1
line 0 1 1 1
line 1 1 1 0
line 1 0 0 0
"""
    with pytest.raises(g.OrientationError):
        g.parse_geometry(doc)


def test_parse_zero_length_segment():
    doc = "billiard v1\nline 0 0 0 0\n"
    with pytest.raises(g.ZeroLengthSegmentError):
        g.parse_geometry(doc)


@pytest.mark.parametrize("build, args", [(g.square, (math.nan,)), (g.disk, (math.nan,)),
                                         (g.rectangle, (math.inf, 1.0)),
                                         (g.rectangle, (1.0, math.nan))])
def test_boundary_of_non_finite_size_is_refused(build, args):
    with pytest.raises(g.GeometryError, match="zero or non-finite"):
        build(*args)


def test_parse_syntax_errors_carry_position():
    with pytest.raises(g.GeometrySyntaxError) as exc:
        g.parse_geometry("billiard v1\nline 0 0 1\n")
    assert exc.value.line == 2
    with pytest.raises(g.GeometrySyntaxError):
        g.parse_geometry("not a header\n")
    with pytest.raises(g.GeometrySyntaxError):
        g.parse_geometry("billiard v1\nblob 1 2 3\n")


def test_measures_square():
    m = g.measures(g.parse_geometry(SQUARE_DOC))
    assert m.area == pytest.approx(1.0, abs=1e-14)
    assert m.perimeter == pytest.approx(4.0, abs=1e-14)
    assert m.curvature_integral == 0.0
    assert len(m.corners) == 4


def test_measures_disk():
    m = g.measures(g.parse_geometry(CIRCLE_DOC))
    assert m.area == pytest.approx(math.pi, rel=1e-14)
    assert m.perimeter == pytest.approx(2 * math.pi, rel=1e-14)
    assert m.curvature_integral == pytest.approx(2 * math.pi, rel=1e-14)
    assert len(m.corners) == 0


def test_measures_quarter_disk_vs_polygonal_oracle():
    m = g.measures(g.parse_geometry(QUARTER_DISK_DOC))
    # brute-force polygonal approximation of the arc
    n = 200000
    ang = np.linspace(0.0, math.pi / 2, n)
    xs = np.concatenate([[0.0], np.cos(ang), [0.0]])
    ys = np.concatenate([[0.0], np.sin(ang), [0.0]])
    area_poly = 0.5 * np.sum(xs[:-1] * ys[1:] - xs[1:] * ys[:-1])
    perim_poly = 2.0 + np.sum(np.hypot(np.diff(np.cos(ang)), np.diff(np.sin(ang))))
    assert m.area == pytest.approx(math.pi / 4, rel=1e-12)
    assert m.area == pytest.approx(area_poly, rel=1e-8)
    assert m.perimeter == pytest.approx(2 + math.pi / 2, rel=1e-12)
    assert m.perimeter == pytest.approx(perim_poly, rel=1e-8)
    assert m.curvature_integral == pytest.approx(math.pi / 2, rel=1e-12)
    assert sorted(c.alpha for c in m.corners) == pytest.approx(
        [math.pi / 2] * 3, abs=1e-12)


def _random_convex_polygon_doc(rng) -> str:
    n = rng.integers(4, 9)
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    rx, ry = rng.uniform(0.5, 2.0, 2)
    pts = np.column_stack([rx * np.cos(angles), ry * np.sin(angles)])
    lines = ["billiard v1"]
    for i in range(n):
        x0, y0 = (float(v) for v in pts[i])
        x1, y1 = (float(v) for v in pts[(i + 1) % n])
        lines.append(f"line {x0!r} {y0!r} {x1!r} {y1!r}")
    return "\n".join(lines) + "\n"


def test_gauss_bonnet_on_shapes():
    rng = np.random.default_rng(42)
    docs = [SQUARE_DOC, CIRCLE_DOC, QUARTER_DISK_DOC]
    docs += [_random_convex_polygon_doc(rng) for _ in range(10)]
    for doc in docs:
        m = g.measures(g.parse_geometry(doc))
        total = m.curvature_integral + math.fsum(math.pi - c.alpha for c in m.corners)
        assert total == pytest.approx(2 * math.pi, abs=1e-10)


def test_rigid_motion_invariance():
    rng = np.random.default_rng(5)
    base = g.parse_geometry(QUARTER_DISK_DOC)
    m0 = g.measures(base)
    for _ in range(5):
        phi = rng.uniform(0, 2 * math.pi)
        dx, dy = rng.uniform(-3, 3, 2)
        c, s = math.cos(phi), math.sin(phi)

        def move(p):
            return (c * p[0] - s * p[1] + dx, s * p[0] + c * p[1] + dy)

        segs = []
        for seg in base.segments:
            if seg.kind == "line":
                segs.append(g.Segment("line", move(seg.p0), move(seg.p1)))
            else:
                segs.append(g.Segment("arc", move(seg.p0), move(seg.p1),
                                      center=move(seg.center), radius=seg.radius,
                                      a0=seg.a0 + phi, sweep=seg.sweep))
        m = g.measures(g._build_boundary(segs))
        assert m.area == pytest.approx(m0.area, abs=1e-10)
        assert m.perimeter == pytest.approx(m0.perimeter, abs=1e-10)
        assert m.curvature_integral == pytest.approx(m0.curvature_integral, abs=1e-10)


def test_serialize_round_trip():
    for doc in (SQUARE_DOC, CIRCLE_DOC, QUARTER_DISK_DOC):
        b = g.parse_geometry(doc)
        b2 = g.parse_geometry(g.serialize_geometry(b))
        m1, m2 = g.measures(b), g.measures(b2)
        assert m1.area == m2.area
        assert m1.perimeter == m2.perimeter
        assert m1.curvature_integral == m2.curvature_integral
        assert len(m1.corners) == len(m2.corners)


_coord = st.floats(-10.0, 10.0)
_size = st.floats(0.1, 10.0)


@st.composite
def _polygon_docs(draw) -> str:
    # star-shaped about (cx, cy): vertices in angular order, each edge spanning < pi
    cx, cy = draw(_coord), draw(_coord)
    n = draw(st.integers(3, 8))
    gaps = draw(st.lists(st.floats(0.6, 1.0), min_size=n, max_size=n))
    radii = draw(st.lists(_size, min_size=n, max_size=n))
    angles = np.cumsum(gaps) * (2 * math.pi / sum(gaps))
    pts = [(cx + r * math.cos(a), cy + r * math.sin(a)) for r, a in zip(radii, angles)]
    lines = [f"line {p[0]!r} {p[1]!r} {q[0]!r} {q[1]!r}" for p, q in zip(pts, pts[1:] + pts[:1])]
    return "\n".join(["billiard v1", *lines]) + "\n"


@st.composite
def _arc_docs(draw) -> str:
    # a circular sector (two radii and a ccw arc) or a whole disk
    cx, cy, r = draw(_coord), draw(_coord), draw(_size)
    a0 = draw(st.floats(-math.pi, math.pi))
    if draw(st.booleans()):
        return f"billiard v1\narc {cx!r} {cy!r} {r!r} {a0!r} {a0 + 2 * math.pi!r} ccw\n"
    a1 = a0 + draw(st.floats(0.2, 2 * math.pi - 0.2))
    p0 = (cx + r * math.cos(a0), cy + r * math.sin(a0))
    p1 = (cx + r * math.cos(a1), cy + r * math.sin(a1))
    return (f"billiard v1\nline {cx!r} {cy!r} {p0[0]!r} {p0[1]!r}\n"
            f"arc {cx!r} {cy!r} {r!r} {a0!r} {a1!r} ccw\n"
            f"line {p1[0]!r} {p1[1]!r} {cx!r} {cy!r}\n")


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.one_of(_polygon_docs(), _arc_docs()))
def test_serialize_round_trips_random_shapes(doc):
    b = g.parse_geometry(doc)
    assert g.measures(g.parse_geometry(g.serialize_geometry(b))) == g.measures(b)


def test_frame_at_disk():
    b = g.parse_geometry(CIRCLE_DOC)
    fr = g.frame_at(b, 0.0)
    assert fr.curvature == pytest.approx(1.0)
    assert fr.point == pytest.approx((1.0, 0.0))
    # inward normal points to the center
    assert fr.inward_normal == pytest.approx((-1.0, 0.0))
    # (-1e-20) % 2*pi rounds to 2*pi itself; the frame is that of s = 0
    assert -1e-20 % b.perimeter == b.perimeter
    assert g.frame_at(b, -1e-20) == fr


def test_frame_at_square_edge_and_corner():
    b = g.parse_geometry(SQUARE_DOC)
    fr = g.frame_at(b, 0.5)
    assert fr.curvature == 0.0
    assert fr.tangent == pytest.approx((1.0, 0.0))
    for corner in (1.0, b.perimeter):
        with pytest.raises(g.CornerPointError):
            g.frame_at(b, corner)
    with pytest.raises(g.CornerPointError, match=r"^s=3\.0 is at a corner \(alpha=1\.570796\)$"):
        g.frame_at(b, 3.0)
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            g.frame_at(b, s)


def test_smooth_junction_is_not_a_corner():
    # split the circle into two arcs: tangents match, no corners
    doc = """billiard v1
arc 0 0 1 0 3.141592653589793 ccw
arc 0 0 1 3.141592653589793 6.283185307179586 ccw
"""
    b = g.parse_geometry(doc)
    assert len(b.corners) == 0
