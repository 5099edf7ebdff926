import collections
import hashlib
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from billiard_weyl import birkhoff as bk
from billiard_weyl import geometry as g
from billiard_weyl.errors import DomainError


def test_closed_form_equals_factored_product():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v1, v2 = rng.uniform(0.05, 1.0, 2)
        l12 = rng.uniform(0.1, 5.0)
        c1, c2 = rng.uniform(-2.0, 2.0, 2)
        a = bk.linearized_bounce_map(v1, v2, l12, c1, c2).as_array()
        b = bk.linearized_bounce_map_product(v1, v2, l12, c1, c2).as_array()
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


def test_bounce_map_matrix_unit_determinant():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v1, v2 = rng.uniform(0.05, 1.0, 2)
        m = bk.linearized_bounce_map(v1, v2, rng.uniform(0.1, 4.0),
                                     rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert m.det() == pytest.approx(1.0, abs=1e-12)


def test_flat_perpendicular_chord_map():
    m = bk.linearized_bounce_map(1.0, 1.0, 3.0, 0.0, 0.0)
    assert m.as_array() == pytest.approx(np.array([[-1.0, -3.0], [0.0, -1.0]]))


def test_grazing_incidence_raises():
    with pytest.raises(bk.GrazingIncidenceError):
        bk.linearized_bounce_map(0.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(bk.GrazingIncidenceError):
        bk.transverse_jacobians(1.0, 0.0, 0.0)


def test_transverse_jacobians_inverse_pair():
    rng = np.random.default_rng(2)
    for end in ("start", "finish"):
        for _ in range(50):
            y = rng.uniform(-2.0, 2.0)
            c = rng.uniform(-2.0, 2.0)
            v = rng.uniform(0.05, 1.0)
            j_sxi, j_xis = bk.transverse_jacobians(y, c, v, end)
            prod = (j_sxi @ j_xis).as_array()
            assert prod == pytest.approx(np.eye(2), abs=1e-12)
            assert j_sxi.det() == pytest.approx(1.0, abs=1e-12)


def test_transverse_jacobian_flat_example():
    _, j_xis = bk.transverse_jacobians(0.7, 0.0, 1.0, "start")
    assert j_xis.as_array() == pytest.approx(np.array([[1.0, -0.7], [0.0, 1.0]]))


def test_transverse_jacobian_generic_start_matrix():
    y, c, v = 0.8, 1.3, 0.6
    j_sxi, _ = bk.transverse_jacobians(y, c, v, "start")
    expect = np.array([[1.0 / v, y / v], [c, v + c * y]])
    assert j_sxi.as_array() == pytest.approx(expect, rel=1e-14)


def test_chord_map_factorizes_through_endpoint_jacobians():
    # map from bounce 1 to bounce 2 equals J_sxi(finish at 2) @ J_xis(start at 1)
    # with the reference point on the chord: y2 - y1 = l12
    rng = np.random.default_rng(3)
    for _ in range(50):
        v1, v2 = rng.uniform(0.1, 1.0, 2)
        c1, c2 = rng.uniform(-1.5, 1.5, 2)
        y1 = rng.uniform(-2.0, -0.1)
        l12 = rng.uniform(0.2, 3.0)
        y2 = y1 + l12
        m = bk.linearized_bounce_map(v1, v2, l12, c1, c2).as_array()
        j1 = bk.transverse_jacobians(y1, c1, v1, "start")[1]
        j2 = bk.transverse_jacobians(y2, c2, v2, "finish")[0]
        assert (j2 @ j1).as_array() == pytest.approx(m, rel=1e-11, abs=1e-11)


def test_monodromy_single_flat_bounce():
    spec = bk.OrbitSpec(v_perp=(1.0,), curvature=(0.0,), chords=(),
                        y_first=1.3, y_last=-1.3)
    m = bk.monodromy(spec)
    assert m.as_array() == pytest.approx(-np.array([[1.0, 2.6], [0.0, 1.0]]),
                                         abs=1e-13)


def test_monodromy_two_bounce_square_chord():
    spec = bk.OrbitSpec(v_perp=(1.0, 1.0), curvature=(0.0, 0.0), chords=(1.0,),
                        y_first=0.25, y_last=-0.75)
    m = bk.monodromy(spec)
    assert m.as_array() == pytest.approx(np.array([[1.0, 2.0], [0.0, 1.0]]),
                                         abs=1e-13)


def test_monodromy_polygonal_orbits_exact_form():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5, 8):
        v = tuple(rng.uniform(0.15, 1.0, n))
        chords = tuple(rng.uniform(0.3, 2.0, max(n - 1, 0)))
        spec = bk.OrbitSpec(v_perp=v, curvature=(0.0,) * n, chords=chords,
                            y_first=rng.uniform(0.1, 1.5),
                            y_last=-rng.uniform(0.1, 1.5))
        m = bk.monodromy(spec).as_array()
        want = (-1.0) ** n * np.array([[1.0, spec.length], [0.0, 1.0]])
        assert m == pytest.approx(want, rel=1e-13, abs=1e-13)
        assert bk.monodromy(spec).det() == pytest.approx(1.0, abs=1e-12)


def test_monodromy_curved_single_bounce():
    y, c = 0.6, 0.9
    spec = bk.OrbitSpec(v_perp=(1.0,), curvature=(c,), chords=(),
                        y_first=y, y_last=-y)
    m = bk.monodromy(spec)
    assert m.m12 == pytest.approx(-2.0 * y * (1.0 - c * y), rel=1e-13)
    assert m.det() == pytest.approx(1.0, abs=1e-12)


def test_jacobian_r_p():
    spec = bk.OrbitSpec(v_perp=(1.0,), curvature=(0.0,), chords=(),
                        y_first=1.0, y_last=-1.0)
    m = bk.monodromy(spec)
    assert bk.jacobian_r_p(m, 2.0) == pytest.approx(-2.0 / 2.0, rel=1e-13)
    spec2 = bk.OrbitSpec(v_perp=(1.0, 1.0), curvature=(0.0, 0.0), chords=(1.0,),
                         y_first=0.5, y_last=-0.5)
    assert bk.jacobian_r_p(bk.monodromy(spec2), 3.0) == pytest.approx(2.0 / 3.0,
                                                                      rel=1e-13)
    assert bk.jacobian_r_p(bk.Mat2.identity(), 5.0) == 0.0
    # an infinite k read 0.0, and NaN with an infinite m12
    for k in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="positive and finite"):
            bk.jacobian_r_p(bk.Mat2(1.0, math.inf, 0.0, 1.0), k)


def test_bounce_map_square_perpendicular():
    sq = g.square()
    nxt = bk.bounce_map(sq, bk.BirkhoffCoord(0.5, 0.0))
    assert nxt.s == pytest.approx(2.5, abs=1e-12)   # top edge midpoint
    assert nxt.v == pytest.approx(0.0, abs=1e-12)


def test_bounce_map_disk_conserves_tangential_velocity():
    d = g.disk()
    c = bk.BirkhoffCoord(0.3, 0.42)
    for _ in range(6):
        c2 = bk.bounce_map(d, c)
        assert c2.v == pytest.approx(c.v, abs=1e-12)
        c = c2


def test_bounce_map_corner_hit():
    sq = g.square()
    # aim exactly at the (1, 1) corner from the bottom-left region
    s = 0.5
    v = math.cos(math.atan2(1.0, 0.5))
    with pytest.raises(bk.CornerHitError):
        bk.bounce_map(sq, bk.BirkhoffCoord(s, v))
    with pytest.raises(bk.CornerHitError):
        bk.trace_orbit(sq, bk.BirkhoffCoord(s, v), 3)


def test_birkhoff_coord_validation():
    with pytest.raises(DomainError):
        bk.BirkhoffCoord(0.5, 1.0)
    # _replace builds through the same check
    c = bk.BirkhoffCoord(0.3, 0.2)
    with pytest.raises(DomainError):
        c._replace(v=1.5)


def test_birkhoff_coord_refuses_values_that_are_not_real():
    # each was built: the complex one then raised a bare TypeError from v_perp
    for s, v in ((0.5, 0.5j), (Decimal("0.5"), Decimal("0.2")), (0.5, Decimal("0.2"))):
        with pytest.raises(DomainError, match="real numbers"):
            bk.BirkhoffCoord(s, v)
    with pytest.raises(DomainError, match="real numbers"):
        bk.BirkhoffCoord(0.3, 0.2)._replace(s=0.5j)
    assert bk.BirkhoffCoord(Fraction(1, 2), np.float64(0.25)).v_perp == math.sqrt(0.9375)


def test_non_finite_input_to_the_ray_path_is_refused():
    sq = g.square()
    start = bk.BirkhoffCoord(0.3, 0.2)
    for s, v in ((math.nan, 0.2), (math.inf, 0.2), (-math.inf, 0.2), (0.3, math.nan)):
        with pytest.raises(DomainError):
            bk.BirkhoffCoord(s, v)
    for bounces in (-3, 2.5, True, False):
        with pytest.raises(DomainError):
            bk.trace_orbit(sq, start, bounces)
    assert bk.trace_orbit(sq, start, 0) == [start]
    for l12 in (math.inf, math.nan, 0.0):
        with pytest.raises(DomainError):
            bk.linearized_bounce_map(0.5, 0.5, l12, 0.0, 0.0)
    with pytest.raises(bk.GrazingIncidenceError):
        bk.linearized_bounce_map(0.5, math.nan, math.inf, 0.0, 0.0)
    for chords, curvature, y_first in (((math.inf,), (0.0, 0.0), 0.5),
                                       ((math.nan,), (0.0, 0.0), 0.5),
                                       ((1.0,), (0.0, math.inf), 0.5),
                                       ((1.0,), (0.0, 0.0), math.nan)):
        with pytest.raises(DomainError):
            bk.OrbitSpec(v_perp=(1.0, 1.0), curvature=curvature, chords=chords,
                         y_first=y_first, y_last=-0.5)


def test_plain_pairs_are_taken_as_birkhoff_coords():
    # each raised a bare AttributeError
    sq = g.square()
    start = bk.BirkhoffCoord(0.5, 0.2)
    assert bk.trace_orbit(sq, (0.5, 0.2), 3) == bk.trace_orbit(sq, start, 3)
    assert bk.bounce_map(sq, (0.5, 0.2)) == bk.bounce_map(sq, start)
    pairs = [(0.5, 0.2), (1.3, 0.1)]
    assert bk.chain_product(sq, pairs) == bk.chain_product(sq, [bk.BirkhoffCoord(*p) for p in pairs])
    for call in (lambda: bk.trace_orbit(sq, (0.5, 1.5), 2),
                 lambda: bk.bounce_map(sq, (math.nan, 0.2)),
                 lambda: bk.chain_product(sq, [(0.5, 0.2), (1.3, -1.0)])):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("call", [
    lambda sq: bk.trace_orbit(sq, (0.5, 0.2, 0.1), 2),
    lambda sq: bk.bounce_map(sq, 0.5),
    lambda sq: bk.chain_product(sq, [(0.5, 0.1), 7]),
    lambda sq: bk.trace_orbit(sq, "01", 2),
    lambda sq: bk.chain_product(sq, [(0.5, 0.1), (1.5, "x")]),
], ids=["triple", "scalar", "scalar-point", "string", "string-v"])
def test_a_start_or_point_that_is_not_a_pair_of_reals_is_refused(call):
    # each raised a bare TypeError
    with pytest.raises(DomainError, match="start or point"):
        call(g.square())


@pytest.mark.parametrize("fn,args", [
    (bk.transverse_jacobians, (math.inf, 0.0, 1.0)),
    (bk.transverse_jacobians, (math.nan, 0.0, 1.0, "finish")),
    (bk.transverse_jacobians, (0.5, math.nan, 1.0)),
    (bk.transverse_jacobians, (0.5, -math.inf, 1.0, "finish")),
    (bk.linearized_bounce_map, (0.5, 0.5, 1.0, math.nan, 0.0)),
    (bk.linearized_bounce_map, (0.5, 0.5, 1.0, 0.0, math.inf)),
    (bk.linearized_bounce_map, (0.5, 0.5, 1.0, -math.inf, 0.0)),
    (bk.linearized_bounce_map_product, (0.5, 0.5, math.inf, 0.0, 0.0)),
    (bk.linearized_bounce_map_product, (0.5, 0.5, math.nan, 0.0, 0.0)),
    (bk.linearized_bounce_map_product, (0.5, 0.5, 1.0, math.nan, 0.0)),
    (bk.linearized_bounce_map_product, (0.5, 0.5, 1.0, 0.0, -math.inf)),
])
def test_non_finite_offset_curvature_or_chord_is_refused(fn, args):
    with pytest.raises(DomainError, match="finite"):
        fn(*args)


def test_records_are_immutable_hashable_value_tuples():
    m = bk.Mat2(1.0, 2.0, 3.0, 4.0)
    c = bk.BirkhoffCoord(0.5, -0.25)
    for record, field in ((m, "m11"), (c, "s"), (c, "v")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
    with pytest.raises(AttributeError):
        c.extra = 0.0                       # slotted: no instance dict
    assert m == bk.Mat2(1.0, 2.0, 3.0, 4.0) and hash(m) == hash(bk.Mat2(1.0, 2.0, 3.0, 4.0))
    assert c == bk.BirkhoffCoord(0.5, -0.25) and len({c, bk.BirkhoffCoord(0.5, -0.25)}) == 1
    assert c == (0.5, -0.25) and tuple(m) == (1.0, 2.0, 3.0, 4.0)
    s, v = c
    assert (s, v) == (c.s, c.v)
    assert repr(m) == "Mat2(m11=1.0, m12=2.0, m21=3.0, m22=4.0)"
    assert repr(c) == "BirkhoffCoord(s=0.5, v=-0.25)"
    assert m @ bk.Mat2.identity() == m and bk.Mat2.diag(2.0, 0.5).det() == 1.0


def test_chain_product_calls_the_bounce_map_by_name_once_per_pair(monkeypatch):
    # the benchmark's orbit check patches birkhoff.linearized_bounce_map and
    # needs the patched map in every factor of the chain
    b = GEOMETRIES["quarter_disk"]
    pts = bk.trace_orbit(b, bk.BirkhoffCoord(0.37 * b.perimeter, 0.31), 12)
    calls = []
    original = bk.linearized_bounce_map
    monkeypatch.setattr(bk, "linearized_bounce_map",
                        lambda *a: calls.append(a) or bk.Mat2.diag(2.0, 0.5) @ original(*a))
    m = bk.chain_product(b, pts)
    assert len(calls) == len(pts) - 1
    monkeypatch.undo()
    want = bk.Mat2.identity()
    for a in calls:
        want = bk.Mat2.diag(2.0, 0.5) @ bk.linearized_bounce_map(*a) @ want
    assert m == want


def test_each_segment_row_is_built_once_per_boundary(monkeypatch):
    # the corner angles and the ray trace read one set of rows: 4 calls on the square, not 8
    calls = []
    piece = g._piece
    monkeypatch.setattr(g, "_piece", lambda seg: calls.append(seg) or piece(seg))
    doc = (Path(__file__).parents[1] / "geometries" / "square.bil").read_text(encoding="utf-8")
    b = g.parse_geometry(doc)
    bk.trace_orbit(b, bk.BirkhoffCoord(0.5, 0.2), 3)
    assert calls == list(b.segments)
    assert b._replace(segments=g.square(2.0).segments).pieces == g.square(2.0).pieces


def test_bounce_map_ray_escape_on_open_chain():
    # an open chain cannot pass boundary validation, so build the container
    # directly: a single bottom edge, ray leaving upward never returns
    seg = g.Segment("line", (0.0, 0.0), (1.0, 0.0))
    open_boundary = g.Boundary(segments=(seg,), corners=(), cumlen=(0.0, 1.0))
    with pytest.raises(bk.RayEscapeError):
        bk.bounce_map(open_boundary, bk.BirkhoffCoord(0.5, 0.0))


def _fd_jacobian(b, c0, h=1e-6):
    out = np.empty((2, 2))
    per = b.perimeter
    for j, (ds, dv) in enumerate(((h, 0.0), (0.0, h))):
        cp = bk.bounce_map(b, bk.BirkhoffCoord(c0.s + ds, c0.v + dv))
        cm = bk.bounce_map(b, bk.BirkhoffCoord(c0.s - ds, c0.v - dv))
        dsv = cp.s - cm.s
        if dsv > per / 2:
            dsv -= per
        if dsv < -per / 2:
            dsv += per
        out[0, j] = dsv / (2 * h)
        out[1, j] = (cp.v - cm.v) / (2 * h)
    return out


def _analytic_jacobian(b, c0):
    c1 = bk.bounce_map(b, c0)
    f0, f1 = g.frame_at(b, c0.s), g.frame_at(b, c1.s)
    l12 = math.hypot(f1.point[0] - f0.point[0], f1.point[1] - f0.point[1])
    return bk.linearized_bounce_map(c0.v_perp, c1.v_perp, l12,
                                    f0.curvature, f1.curvature).as_array()


@pytest.mark.parametrize("shape", ["square", "disk"])
def test_finite_difference_matches_linearization(shape):
    b = g.square() if shape == "square" else g.disk()
    rng = np.random.default_rng(7)
    tested = 0
    while tested < 20:
        s = rng.uniform(0, b.perimeter)
        v = rng.uniform(-0.9, 0.9)
        try:
            c0 = bk.BirkhoffCoord(s, v)
            a = _analytic_jacobian(b, c0)
            f = _fd_jacobian(b, c0)
        except (bk.CornerHitError, g.CornerPointError):
            continue
        assert np.max(np.abs(a - f)) / np.max(np.abs(a)) < 1e-6
        tested += 1


def test_chain_product_on_traced_square_orbit():
    sq = g.square()
    pts = bk.trace_orbit(sq, bk.BirkhoffCoord(0.3, 0.2), 4)
    m = bk.chain_product(sq, pts)
    assert m.det() == pytest.approx(1.0, abs=1e-12)


GEOMETRY_TEXTS = {p.stem: p.read_text(encoding="utf-8")
                  for p in sorted((Path(__file__).parents[1] / "geometries").glob("*.bil"))}
GEOMETRIES = {name: g.parse_geometry(text) for name, text in GEOMETRY_TEXTS.items()}


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(name=st.sampled_from(sorted(GEOMETRIES)),
       frac=st.floats(0.0, 1.0, exclude_max=True),
       v=st.floats(-0.95, 0.95))
def test_bounce_map_is_reversible_and_area_preserving(name, frac, v):
    # running the ray back from the hit point returns to the start, and the
    # linearized map of that one bounce has unit determinant
    b = GEOMETRIES[name]
    c0 = bk.BirkhoffCoord(frac * b.perimeter, v)
    try:
        c1 = bk.bounce_map(b, c0)
        back = bk.bounce_map(b, bk.BirkhoffCoord(c1.s, -c1.v))
    except (bk.CornerHitError, g.CornerPointError):
        assume(False)
    ds = abs(back.s - c0.s) % b.perimeter
    assert min(ds, b.perimeter - ds) <= 1e-12
    assert back.v == pytest.approx(-c0.v, abs=1e-12)
    assert bk.chain_product(b, [c0, c1]).det() == pytest.approx(1.0, abs=1e-12)


def _pairwise_chain_product(b, pts):
    """The chain product with both frames of every neighbour pair found afresh."""
    m = bk.Mat2.identity()
    for c1, c2 in zip(pts[:-1], pts[1:]):
        f1, f2 = g.frame_at(b, c1.s), g.frame_at(b, c2.s)
        l12 = math.hypot(f2.point[0] - f1.point[0], f2.point[1] - f1.point[1])
        m = bk.linearized_bounce_map(c1.v_perp, c2.v_perp, l12, f1.curvature, f2.curvature) @ m
    return m


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_tracing_finds_each_frame_once(name, monkeypatch):
    # a trace builds one frame per point, and chain_product reuses them all
    b = GEOMETRIES[name]
    start, bounces = bk.BirkhoffCoord(0.37 * b.perimeter, 0.31), 25
    plain = [start]
    for _ in range(bounces):
        plain.append(bk.bounce_map(b, plain[-1]))
    built = []
    frame = g._frame
    monkeypatch.setattr(g, "_frame", lambda piece, t: built.append(t) or frame(piece, t))
    pts = bk.trace_orbit(b, start, bounces)
    m = bk.chain_product(b, pts)
    assert len(built) == len(pts)
    monkeypatch.undo()
    assert pts == plain                     # bit-identical
    assert m == _pairwise_chain_product(b, pts)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_chain_product_reuses_only_the_frames_of_its_own_unmodified_trace(name, monkeypatch):
    b = GEOMETRIES[name]

    def trace():
        return bk.trace_orbit(b, bk.BirkhoffCoord(0.37 * b.perimeter, 0.31), 25)

    other = bk.bounce_map(b, bk.BirkhoffCoord(0.61 * b.perimeter, -0.2))
    pts, changed, longer = trace(), trace(), trace()
    changed[3] = other
    longer.append(other)
    assert type(pts[:]) is list and type(pts + [other]) is list
    afresh = [(b, list(pts)), (b, changed), (b, longer),
              (g.parse_geometry(GEOMETRY_TEXTS[name]), pts),
              (b, pts[:]), (b, pts[2:9]), (b, pts + [other])]
    calls = []
    frame_at = bk.frame_at
    monkeypatch.setattr(bk, "frame_at", lambda b, s: calls.append(s) or frame_at(b, s))
    for boundary, seq in afresh:
        calls.clear()
        m = bk.chain_product(boundary, seq)
        assert len(calls) == len(seq)
        assert m == _pairwise_chain_product(boundary, seq)
    calls.clear()
    assert bk.chain_product(b, pts) == _pairwise_chain_product(b, pts)
    assert calls == []


# Last point and chain-product entries of a 60-bounce trace from
# (0.37 * perimeter, 0.31), recorded with each segment's length and direction
# computed afresh at every bounce; the per-boundary segment table must give
# the same floats.
PINNED_TRACES = {
    "circle": (2.200726513846559, 0.31000000000000827,
               (1.0000000000001403, -126.21792984676533,
                -1.3322676295502105e-15, 1.0000000000000309)),
    "quarter_disk": (2.6806488273126368, 0.9373991350644697,
                     (-2.3959999630894875, 115.57566726112829,
                      0.3482568902123623, -17.216203297177852)),
    "square": (3.1528343446862563, 0.30999999999999994,
               (1.0, 52.36389389593582, -0.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_sixty_bounce_trace_is_pinned(name):
    b = GEOMETRIES[name]
    pts = bk.trace_orbit(b, bk.BirkhoffCoord(0.37 * b.perimeter, 0.31), 60)
    m = bk.chain_product(b, pts)
    s, v, entries = PINNED_TRACES[name]
    assert (pts[-1].s, pts[-1].v) == (s, v)
    assert (m.m11, m.m12, m.m21, m.m22) == entries


# a 2 x 1 rectangle with a half disk bitten out of its top edge: the bite is
# a clockwise (concave, dispersing) arc
CONCAVE_BITE = """billiard v1
line 0 0 2 0
line 2 0 2 1
line 2 1 1.5 1
arc 1 1 0.5 0 3.141592653589793 cw
line 0.5 1 0 1
line 0 1 0 0
"""


def test_concave_arc_frame_and_trace():
    b = g.parse_geometry(CONCAVE_BITE)
    arc = b.segments[3]
    assert arc.sweep < 0
    on_arc = (b.cumlen[3], b.cumlen[4])
    fr = g.frame_at(b, on_arc[0] + 0.3)
    assert fr.curvature == -1.0 / arc.radius
    # the inward normal is radial and points away from the centre
    rx, ry = fr.point[0] - arc.center[0], fr.point[1] - arc.center[1]
    assert fr.inward_normal[0] * rx + fr.inward_normal[1] * ry == pytest.approx(arc.radius)
    assert fr.inward_normal[0] * ry - fr.inward_normal[1] * rx == pytest.approx(0.0, abs=1e-15)

    pts = bk.trace_orbit(b, bk.BirkhoffCoord(0.7, 0.3), 6)
    assert on_arc[0] < pts[1].s < on_arc[1]
    m = bk.chain_product(b, pts)
    assert m.det() == pytest.approx(1.0, abs=1e-12)
    # recorded with each segment's geometry computed afresh at every bounce
    assert [(p.s, p.v) for p in pts] == [
        (0.7, 0.3),
        (4.423924491221113, -0.02763647914983214),
        (0.7310241601613185, -0.24683483295566502),
        (5.094488544426904, 0.24683483295566502),
        (0.22159140457466708, -0.24683483295566502),
        (5.700842825985992, -0.9690575654932729),
        (5.537671353576238, -0.24683483295566508),
    ]
    assert (m.m11, m.m12, m.m21, m.m22) == (
        15.288975205684562, 13.070297787448993, 3.6991009108144235, 3.2277081875193443)


def _trace_by_frame_at(b, start, bounces):
    """``trace_orbit``'s points with every hit's frame found by ``frame_at``."""
    pts, fr = [start], g.frame_at(b, start.s)
    for _ in range(bounces):
        (_, v), (_, (tx, ty), (ix, iy), _) = pts[-1], fr
        vp = math.sqrt(1.0 - v * v)
        dx, dy = v * tx + vp * ix, v * ty + vp * iy
        # only the hit's arclength is read; _bounce raises CornerHitError here
        # only after frame_at itself raised CornerPointError at that arclength
        s_hit = bk._bounce(b, pts[-1], fr)[0].s
        try:
            fr = g.frame_at(b, s_hit)
        except g.CornerPointError:
            raise bk.CornerHitError(f"ray hit corner at s={s_hit}") from None
        _, (tx, ty), _, _ = fr
        pts.append(bk.BirkhoffCoord(s_hit, min(max(dx * tx + dy * ty, -1.0 + 1e-15), 1.0 - 1e-15)))
    return pts


def _outcome(trace, b, start, bounces):
    """The points and chain product of a trace, or the corner error that ended it."""
    try:
        pts = trace(b, start, bounces)
    except (bk.CornerHitError, g.CornerPointError) as exc:
        return type(exc).__name__, str(exc)
    return pts, _pairwise_chain_product(b, pts)


def _assert_traces_by_frame_at(b, start, bounces):
    """Assert that the trace matches ``_trace_by_frame_at``; True if it ended at a corner."""
    want = _outcome(_trace_by_frame_at, b, start, bounces)
    got = _outcome(bk.trace_orbit, b, start, bounces)
    assert got == want
    if isinstance(got[0], list):
        assert bk.chain_product(b, got[0]) == want[1]
    return isinstance(got[0], str)


CROSS_CHECKED = {**GEOMETRIES, "concave_bite": g.parse_geometry(CONCAVE_BITE),
                 "square_3e7": g.square(3e7), "rectangle_3e-6": g.rectangle(3e-6, 2e-6)}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(sorted(CROSS_CHECKED)),
       frac=st.floats(0.0, 1.0, exclude_max=True),
       v=st.floats(-0.95, 0.95))
def test_interior_hit_frames_equal_frame_at(name, frac, v):
    b = CROSS_CHECKED[name]
    _assert_traces_by_frame_at(b, bk.BirkhoffCoord(frac * b.perimeter, v), 40)


@pytest.mark.parametrize("side,starts,reach", [(1.0, 199, 1e-8), (3e7, 99, 1e-7)])
def test_rays_near_a_corner_end_as_with_frame_at(side, starts, reach):
    # rays from a square's bottom edge aimed at its corner (side, side) or at
    # most ``reach`` from it along either edge, across the CORNER_TOL edge of
    # the corner test; at side 3e7 one ulp of the corner's arclength is 7.5e-9
    sq = g.square(side)
    corner_hits = traces = 0
    for x in side * np.arange(1, starts + 1) / (starts + 1):
        for offset in np.linspace(0.0, reach, 21):
            for tx, ty in ((side, side - offset), (side - offset, side)):
                v = (tx - x) / math.hypot(tx - x, ty)
                corner_hits += _assert_traces_by_frame_at(sq, bk.BirkhoffCoord(x, v), 4)
                traces += 1
    assert 0.1 * traces < corner_hits < 0.9 * traces


# sha256 of float.hex over every point, frame and chain-product entry of six seeded
# 60-bounce traces per boundary (a trace that ends at a corner adds its error instead),
# recorded with the segment table as ("line", ...) and ("arc", ...) tuples
TRACE_DIGESTS = {
    "circle": "c963de6006eb2a81e5dd5443802fd8b2d18265fe9cbb2503034b0483cb27b4c0",
    "concave_bite": "529f09c3d8a845fc3c1cd13ef45b959c736e5a532594ca03c16961ab26c19fcc",
    "quarter_disk": "3e576a6810a3459fc681548e5c8a74c67d553937d0baf4d7a593f7ece9ad0627",
    "rectangle_3e-6": "eff0784ba3a72f058575c0f758d6ba59fa8cb279d308b4e7c7febfc45d311858",
    "square": "372f1be98d6731d2f2aa81b1860bd85db0ee7e313d22bab88abc95f61c232535",
    "square_3e7": "756d9b3b2a4bc3d9e3d8cd09050f15307eb30bcad88d87b1c142294aff62bd89",
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_seeded_traces_are_pinned(name):
    b = CROSS_CHECKED[name]
    rng = np.random.default_rng(2024)
    digest = hashlib.sha256()
    for frac, v in zip(rng.uniform(0.0, 1.0, 6).tolist(), rng.uniform(-0.95, 0.95, 6).tolist()):
        try:
            pts = bk.trace_orbit(b, bk.BirkhoffCoord(frac * b.perimeter, v), 60)
        except (bk.CornerHitError, g.CornerPointError) as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        floats = [x for p in pts for x in p]
        floats += [x for (p, t, n, k) in pts.frames for x in (*p, *t, *n, k)]
        floats += bk.chain_product(b, pts)
        digest.update(" ".join(map(float.hex, floats)).encode())
    assert digest.hexdigest() == TRACE_DIGESTS[name]


def _first_bounce(step, b, start):
    """The first bounce ``step`` finds, or the type and message of the error that ended it."""
    try:
        return step(b, start)
    except (bk.CornerHitError, bk.RayEscapeError, g.CornerPointError) as exc:
        return type(exc).__name__, str(exc)


def test_bounce_map_is_the_first_step_of_a_trace():
    rng = np.random.default_rng(11)
    starts = [(b, bk.BirkhoffCoord(frac * b.perimeter, v)) for b in CROSS_CHECKED.values()
              for frac, v in zip(rng.uniform(0.0, 1.0, 40).tolist(),
                                 rng.uniform(-0.95, 0.95, 40).tolist())]
    # rays aimed at a square's corner (side, side) or near it, as in
    # test_rays_near_a_corner_end_as_with_frame_at
    for side, reach in ((1.0, 1e-8), (3e7, 1e-7)):
        sq = g.square(side)
        for x in side * np.arange(1, 20) / 20:
            for offset in np.linspace(0.0, reach, 11):
                for tx, ty in ((side, side - offset), (side - offset, side)):
                    starts.append((sq, bk.BirkhoffCoord(x, (tx - x) / math.hypot(tx - x, ty))))
    seg = g.Segment("line", (0.0, 0.0), (1.0, 0.0))
    starts.append((g.Boundary(segments=(seg,), corners=(), cumlen=(0.0, 1.0)),
                   bk.BirkhoffCoord(0.5, 0.0)))
    kinds = collections.Counter()
    for b, start in starts:
        got = _first_bounce(bk.bounce_map, b, start)
        assert got == _first_bounce(lambda b, c: bk.trace_orbit(b, c, 1)[1], b, start)
        kinds[got[0] if isinstance(got[0], str) else "bounce"] += 1
    assert kinds["RayEscapeError"] == 1 and kinds["CornerHitError"] > 50 < kinds["bounce"]
