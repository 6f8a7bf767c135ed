from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, reject, settings, strategies as st

from divides import (
    DivideError,
    assign_signs,
    divide_to_text,
    gen_a,
    ingest_polyline,
    parse_divide,
    trace_faces,
)
from divides.core import validate_divide
from divides.geometry import order_key, order_shift
from divides.report import run_pipeline
import conftest
from conftest import A4_SNAKE_POLYLINE, CHORD_DRAWS, chord_polylines


F = Fraction


def test_ingest_two_diagonals_is_a1():
    d = ingest_polyline(
        [([(-9, -9), (9, 9)], False), ([(-9, 9), (9, -9)], False)],
        disc_radius=8,
        seed_point=(1, 0),
        seed_sign=-1,
    )
    assert len(d.double_points) == 1
    assert len(d.terminals) == 4
    assert len(d.branches) == 2
    fs = trace_faces(d)
    assert fs.region_indices == ()


def test_shared_boundary_point_is_rejected_before_the_terminal_order():
    """Ingestion rejects two ends at one boundary point as a crossing on the
    boundary, before the terminals are ordered."""
    with pytest.raises(DivideError, match="^intersection on the disc boundary$"):
        ingest_polyline([([(-10, 0), (10, 0)], False), ([(0, -10), (10, 10)], False)],
                        5, (0, 1), 1)


def test_ingest_terminal_order_is_ccw():
    d = ingest_polyline(
        [([(-9, -9), (9, 9)], False), ([(-9, 9), (9, -9)], False)],
        disc_radius=8,
        seed_point=(1, 0),
        seed_sign=-1,
    )
    # t0 is where branch 0 enters, at 225 degrees; then 315, 45 and 135
    assert d.terminals == ("t0", "t1", "t2", "t3")
    assert [e.ends for e in d.edges] == [
        (("t0", 0), ("x0", 2)), (("x0", 0), ("t2", 0)),
        (("t3", 0), ("x0", 1)), (("x0", 3), ("t1", 0)),
    ]


def test_circle_point_order():
    """Three chords meet the radius-5 circle at exact points; read
    counterclockwise from the east, (3, 4) comes before the north point and
    the terminal names rise cyclically."""
    branches = [
        ([(-10, 0), (10, 0)], False),
        ([(0, -10), (0, 10)], False),
        ([(-8, -7), (7, 8)], False),
    ]
    clips = [((-5, 0), (5, 0)), ((0, -5), (0, 5)), ((-4, -3), (3, 4))]
    d = ingest_polyline(branches, 5, (2, -1), 1)
    name = {}
    for (enter, leave), ids in zip(clips, d.branches):
        name[enter] = d.edge_index[ids[0]].ends[0][0]
        name[leave] = d.edge_index[ids[-1]].ends[1][0]
    ccw = [(5, 0), (3, 4), (0, 5), (-5, 0), (-4, -3), (0, -5)]
    order = [int(name[p][1:]) for p in ccw]
    assert order == [(order[0] + i) % 6 for i in range(6)]


def test_circle_order_rejects_coincident_points():
    # branch 0 leaves the disc of radius 5 at (0, 5), where branch 1 enters
    with pytest.raises(DivideError, match="^intersection on the disc boundary$"):
        ingest_polyline([([(0, -10), (0, 10)], False), ([(4, 8), (-12, -4)], False)],
                        5, (2, -1), 1)


def test_terminal_order_holds_where_floats_cannot_separate_clips():
    """Branch 1 crosses branch 0 one unit inside the circle at a slope of
    1e-12, so it leaves the disc about 1e-21 rad counterclockwise of branch
    0; both clips are turned by atan2(4, 3), where their float angles differ
    by rounding alone.  Branch 1 enters about 2e-12 rad after branch 0."""
    big_r, run = 10 ** 9, 10 ** 12

    def turn(x, y):
        return (3 * x - 4 * y, 4 * x + 3 * y)

    branches = [
        ([turn(-2 * big_r, 0), turn(2 * big_r, 0)], False),
        ([turn(big_r - 1 - run, -1), turn(big_r - 1 + run, 1)], False),
    ]
    d = ingest_polyline(branches, 5 * big_r, (0, 7), 1)
    assert [e.ends for e in d.edges] == [
        (("t0", 0), ("x0", 2)), (("x0", 0), ("t2", 0)),
        (("t1", 0), ("x0", 3)), (("x0", 1), ("t3", 0)),
    ]
    angles = _terminal_angles(d, branches, 5 * big_r)
    assert abs(angles["t3"] - angles["t2"]) < 1e-12


def _clip_angle(a, b, r2, leaving):
    """The float angle of the point where the segment from a to b meets the
    circle |p|^2 = r2: the larger root when it leaves the disc, the smaller
    when it enters."""
    (ax, ay), (dx, dy) = a, (b[0] - a[0], b[1] - a[1])
    aq, bq = dx * dx + dy * dy, 2 * (ax * dx + ay * dy)
    disc = bq * bq - 4 * aq * (ax * ax + ay * ay - r2)
    t = (-bq + (1 if leaving else -1) * math.sqrt(disc)) / (2 * aq)
    return math.atan2(ay + t * dy, ax + t * dx)


def _terminal_angles(divide, branches, radius):
    """Terminal name -> the float angle of its clip, found through the first
    and last edge of its branch."""
    angles = {}
    for (points, closed), ids in zip(branches, divide.branches):
        if not closed:
            start = divide.edge_index[ids[0]].ends[0][0]
            end = divide.edge_index[ids[-1]].ends[1][0]
            angles[start] = _clip_angle(points[0], points[1], radius ** 2, False)
            angles[end] = _clip_angle(points[-2], points[-1], radius ** 2, True)
    return angles


def test_ingest_rejects_endpoint_inside():
    with pytest.raises(DivideError, match="outside the disc"):
        ingest_polyline([([(0, 0), (9, 9)], False)], 8, (1, 0), -1)


def test_ingest_rejects_interior_vertex_outside():
    with pytest.raises(DivideError, match="inside"):
        ingest_polyline([([(-9, 0), (0, 9), (9, 0)], False)], 8, (0, 1), -1)


def test_ingest_rejects_vertex_intersection():
    with pytest.raises(DivideError, match="intersection at a polyline vertex"):
        ingest_polyline(
            [([(-9, 0), (0, 0), (9, 9)], False), ([(-9, 9), (0, 0), (9, -9)], False)],
            8,
            (1, 0),
            -1,
        )


def test_ingest_rejects_triple_point():
    with pytest.raises(DivideError, match="triple point"):
        ingest_polyline(
            [
                ([(-9, -9), (9, 9)], False),
                ([(-9, 9), (9, -9)], False),
                ([(-9, 0), (9, 0)], False),
            ],
            8,
            (1, 1),
            -1,
        )


def test_ingest_rejects_overlap():
    with pytest.raises(DivideError, match="tangency or overlapping"):
        ingest_polyline(
            [([(-9, 0), (9, 0)], False), ([(-9, 0), (9, 0)], False)], 8, (1, 1), -1
        )


def test_ingest_rejects_witness_on_curve():
    with pytest.raises(DivideError, match="witness point on a curve"):
        ingest_polyline(
            [([(-9, -9), (9, 9)], False), ([(-9, 9), (9, -9)], False)], 8, (2, 2), -1
        )


def test_ingest_rejects_disconnected():
    with pytest.raises(DivideError, match="disconnected"):
        ingest_polyline(
            [([(-9, 5), (9, 5)], False), ([(-9, -5), (9, -5)], False)], 8, (0, 0), -1
        )


MISSES_DISC = ([(13, -13), (9, 1)], False)  # its line cuts the circle of radius 9
CROSSING_CHORDS = [([(-10, -1), (10, 1)], False), ([(-1, -10), (1, 10)], False)]


@pytest.mark.parametrize(
    "branches, index",
    [
        ([MISSES_DISC], 0),
        ([MISSES_DISC, *CROSSING_CHORDS], 0),
        ([*CROSSING_CHORDS, MISSES_DISC], 2),
    ],
    ids=["alone", "before two chords", "after two chords"],
)
def test_ingest_rejects_segment_missing_disc(branches, index):
    with pytest.raises(DivideError, match=f"^open polyline {index} does not meet the disc$"):
        ingest_polyline(branches, 9, (3, 5), -1)


@pytest.mark.parametrize(
    "chord, message",
    [
        ([(-9, 9), (9, 9)], "open polyline 0 does not meet the disc"),
        ([(-9, 0), (-6, 0)], "open polyline 0 does not meet the disc"),
        ([(-9, 5), (9, 5)], "segment does not cross the disc boundary transversely"),
    ],
    ids=["line misses the circle", "line cuts the circle", "tangent"],
)
def test_ingest_one_segment_chord_outside_the_open_disc(chord, message):
    with pytest.raises(DivideError, match=f"^{message}$"):
        ingest_polyline([(chord, False)], 5, (0, 0), 1)


def test_ingest_euler_on_chords():
    """Chord arrangements satisfy V - E + F = 2 on the sphere compactification,
    i.e. traced faces number E - V + 1."""
    chords = [
        ([(-9, -1), (9, 1)], False),
        ([(-1, -9), (1, 9)], False),
        ([(-9, 4), (9, -5)], False),
    ]
    d = ingest_polyline(chords, 8, (0, 6), -1)
    fs = trace_faces(d)
    n_v = len(d.double_points) + len(d.terminals)
    n_e = len(d.edges) + len(d.terminals)
    assert len(fs.faces) == n_e - n_v + 1


def _upper(v):
    """Whether v points into the half-plane of angles [0, pi)."""
    return v[1] > 0 or (v[1] == 0 and v[0] > 0)


def _out_slots(di, dj):
    """The reference slot rule: slots of the outgoing directions di and dj
    among the four ends of a crossing, counted counterclockwise from angle 0.

    Let ui be whichever of +-di points into [0, pi), likewise uj.  The four
    directions run ui, uj, -ui, -uj when ui has the smaller angle, that is
    when cross(ui, uj) > 0, and uj, ui, -uj, -ui otherwise.  The incoming
    end of a segment sits opposite its outgoing one, at slot (out + 2) % 4.
    """
    ei, ej = (1 if _upper(di) else -1), (1 if _upper(dj) else -1)
    first_i = ei * ej * (di[0] * dj[1] - di[1] * dj[0]) > 0
    out_i = (0 if first_i else 1) + (0 if ei > 0 else 2)
    out_j = (1 if first_i else 0) + (0 if ej > 0 else 2)
    return out_i, out_j


_DIRECTION = st.one_of(
    st.tuples(st.sampled_from((-3, -1, 1, 2)), st.just(0)),  # horizontal, the tie of _upper
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda d: d != (0, 0)),
)


@settings(max_examples=200, deadline=None)
@given(_DIRECTION, _DIRECTION, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_crossing_slots_follow_the_reference_rule(d0, d1, c):
    """Two chords through the point c with non-parallel directions d0 and d1:
    the slots each chord's edges take at the crossing are those of
    ``_out_slots``, the outgoing end first and the incoming end opposite."""
    if d0[0] * d1[1] - d0[1] * d1[0] == 0:
        reject()
    chords = [([(c[0] - 20 * d[0], c[1] - 20 * d[1]), (c[0] + 20 * d[0], c[1] + 20 * d[1])], False)
              for d in (d0, d1)]
    # Each line through c meets at most one of the three offsets.
    witness = next((c[0] + ox, c[1] + oy) for ox, oy in ((1, 1), (1, 0), (0, 1))
                   if all(d[0] * oy - d[1] * ox for d in (d0, d1)))
    divide = ingest_polyline(chords, 10, witness, 1)
    assert divide.double_points == ("x0",)
    outs = []
    for branch in divide.branches:
        arrive, leave = (divide.edge_index[eid] for eid in branch)
        assert arrive.ends[1][0] == leave.ends[0][0] == "x0"
        outs.append(leave.ends[0][1])
        assert arrive.ends[1][1] == (leave.ends[0][1] + 2) % 4
    assert tuple(outs) == _out_slots(*((40 * d[0], 40 * d[1]) for d in (d0, d1)))


def _seeded(branches, witness):
    d = ingest_polyline(branches, 8, witness, -1)
    return d, assign_signs(d, trace_faces(d)).sign


def test_a4_snake_polyline_is_a4():
    snake = run_pipeline(ingest_polyline(**A4_SNAKE_POLYLINE, name="a4-snake"))
    a4 = run_pipeline(gen_a(4).divide)
    assert (snake.inv.d, snake.inv.r, snake.inv.mu) == (2, 1, 4)
    assert snake.inv == a4.inv
    assert snake.ag.census() == a4.ag.census()
    assert snake.char_poly == a4.char_poly == (1, -1, 1, -1, 1)
    assert snake.order == a4.order == 10
    assert snake.all_passed


RADIUS = 8
_INNER = st.tuples(st.integers(-7, 7), st.integers(-7, 7)).filter(
    lambda p: p[0] ** 2 + p[1] ** 2 < RADIUS ** 2
)
_OUTER = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(
    lambda p: p[0] ** 2 + p[1] ** 2 > RADIUS ** 2
)
_OPEN = st.builds(
    lambda start, inner, end: [start, *inner, end],
    _OUTER, st.lists(_INNER, min_size=1, max_size=3, unique=True), _OUTER,
)


def _bends(points):
    """Whether the polyline turns at one of its vertices."""
    return any(
        (b[0] - a[0]) * (c[1] - b[1]) != (b[1] - a[1]) * (c[0] - b[0])
        for a, b, c in zip(points, points[1:], points[2:])
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(_OPEN, min_size=2, max_size=3).filter(lambda bs: any(map(_bends, bs))),
       _INNER, st.sampled_from((1, -1)))
def test_random_bent_polylines_ingest_to_consistent_divides(points, witness, sign):
    """Counts, a byte-identical file round trip, and every verdict but
    lefschetz_zero hold on any accepted input.

    lefschetz_zero (trace(M_desc) = 1) is A'Campo's theorem for divides of
    singularities; a valid divide of another kind can fail it, e.g. the
    three polylines of ``LEFSCHETZ_COUNTEREXAMPLE``."""
    try:
        divide = ingest_polyline([(p, False) for p in points], RADIUS, witness, sign)
    except DivideError:
        reject()
    text = divide_to_text(divide)
    again, _diags = parse_divide(text)
    assert again == divide and divide_to_text(again) == text
    assert divide.diagnostics == again.diagnostics == tuple(validate_divide(divide)) == ()
    result = run_pipeline(divide)
    faces = result.signed.faces
    d, r = len(divide.double_points), len(divide.branches)
    n_v = d + len(divide.terminals)
    n_e = len(divide.edges) + len(divide.terminals)
    assert n_v - n_e + len(faces.faces) == 1
    assert len(faces.region_indices) == d - r + 1
    assert result.ag.mu == len(faces.region_indices) + d == result.inv.mu
    assert len(result.lattice.i_mat) == 2 * d - r + 1
    failed = [c.key for c in result.suite.checks if not c.passed]
    assert failed in ([], ["lefschetz_zero"])
    assert result.adapted_verdict.passed
    assert result.certificate.passed
    assert all(c.passed for c in result.cones)


_CLOSED = st.lists(_INNER, min_size=3, max_size=5, unique=True)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_OPEN.map(lambda p: (p, False)), _CLOSED.map(lambda p: (p, True))),
                min_size=2, max_size=4),
       _INNER, st.sampled_from((1, -1)))
def test_terminals_follow_the_clip_angles(branches, witness, sign):
    """Read counterclockwise from t0, where the first open polyline enters
    the disc, the terminals follow the float angles of their clips.  Draws
    with two clips within 1e-9 rad are left out."""
    try:
        divide = ingest_polyline(branches, RADIUS, witness, sign)
    except DivideError:
        reject()
    angles = _terminal_angles(divide, branches, RADIUS)
    by_angle = sorted(angles, key=angles.get)
    if not by_angle:
        reject()
    turn = [angles[b] - angles[a] for a, b in zip(by_angle, by_angle[1:])]
    if min(turn + [2 * math.pi + angles[by_angle[0]] - angles[by_angle[-1]]]) < 1e-9:
        reject()
    first_open = next(k for k, (_points, closed) in enumerate(branches) if not closed)
    assert divide.edge_index[divide.branches[first_open][0]].ends[0][0] == "t0"
    k = by_angle.index("t0")
    assert by_angle[k:] + by_angle[:k] == list(divide.terminals)


LEFSCHETZ_COUNTEREXAMPLE = [
    [(-13, -8), (1, 0), (0, 9)],
    [(14, 9), (-6, -6)],
    [(-12, -3), (2, -3), (1, -1), (6, 1), (11, -8)],
]


def test_valid_divide_may_fail_lefschetz_zero():
    divide = ingest_polyline([(p, False) for p in LEFSCHETZ_COUNTEREXAMPLE], RADIUS, (0, 1), -1)
    result = run_pipeline(divide)
    assert (result.inv.d, result.inv.r) == (2, 3)
    assert sum(result.m_desc[i][i] for i in range(result.inv.mu)) == 2
    (check,) = [c for c in result.suite.checks if c.key == "lefschetz_zero"]
    assert not check.passed


# Witnesses whose ray toward the first crossing meets that crossing, another
# crossing or a polyline vertex.  Their faces are checked against a reference
# witness whose ray meets none of these before the first crossing: face signs
# flip once per curve segment that the straight segment between the two
# witnesses crosses.  The oracle finds crossings and counts in exact
# rationals, held as integer triples, with no use of ``geometry``.


def _segments(branches):
    return [ab for points, _closed in branches for ab in zip(points, points[1:])]


def _vec(p, q):
    return (q[0] - p[0], q[1] - p[1])


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _cross_at(p, q, r):
    return _cross(_vec(p, q), _vec(p, r))


def _lift(p):
    return p if len(p) == 3 else (*p, 1)


def _between(x, p, q):
    """Whether x lies strictly inside the segment from p to q.  A point is an
    integer pair or a triple (x, y, den) for (x/den, y/den), den > 0."""
    (xx, xy, xd), (px, py, pd), (qx, qy, qd) = map(_lift, (x, p, q))
    u = (xx * pd - px * xd, xy * pd - py * xd)  # (x - p) times xd * pd
    v = (qx * xd - xx * qd, qy * xd - xy * qd)  # (q - x) times qd * xd
    return _cross(u, v) == 0 and u[0] * v[0] + u[1] * v[1] > 0


def _target_and_marks(branches):
    """The first crossing (least x, then y), and every other crossing and
    polyline vertex inside the disc, crossings as reduced triples."""
    segments = _segments(branches)
    crossings = []
    for i, (a, b) in enumerate(segments):
        for c, e in segments[i + 1:]:
            d1, d2, w = _vec(a, b), _vec(c, e), _vec(a, c)
            den, ns, nt = _cross(d1, d2), _cross(w, d2), _cross(w, d1)
            if den < 0:
                den, ns, nt = -den, -ns, -nt
            px, py = a[0] * den + ns * d1[0], a[1] * den + ns * d1[1]
            if 0 < ns < den and 0 < nt < den and px * px + py * py < (RADIUS * den) ** 2:
                g = gcd(px, py, den)
                crossings.append((px // g, py // g, den // g))
    if not crossings:
        return None, []
    target = min(crossings, key=lambda p: (F(p[0], p[2]), F(p[1], p[2])))
    vertices = [p for points, _closed in branches for p in points
                if p[0] ** 2 + p[1] ** 2 < RADIUS ** 2]
    return target, [x for x in crossings + vertices if x != target]


def _on_curve(branches, p):
    return any(p in (a, b) or _between(p, a, b) for a, b in _segments(branches))


def _parity(branches, p, q):
    """(-1) ** (the number of curve segments that the segment pq crosses),
    or None when pq meets a polyline vertex."""
    n = 0
    for a, b in _segments(branches):
        if _between(a, p, q) or _between(b, p, q):
            return None
        n += (_cross_at(a, b, p) * _cross_at(a, b, q) < 0
              and _cross_at(p, q, a) * _cross_at(p, q, b) < 0)
    return (-1) ** n


def _assert_signs_by_parity(branches, witness, reference):
    d, signs = _seeded(branches, witness)
    d_ref, signs_ref = _seeded(branches, reference)
    parity = _parity(branches, witness, reference)
    assert d._replace(sign_seed=d_ref.sign_seed) == d_ref
    assert signs == tuple(parity * x for x in signs_ref)


_POINTS = [(x, y) for x in range(-12, 13) for y in range(-12, 13)]
_DISC_POINTS = [p for p in _POINTS if p[0] ** 2 + p[1] ** 2 < RADIUS ** 2]
_OUTER_POINTS = [p for p in _POINTS if p[0] ** 2 + p[1] ** 2 > RADIUS ** 2]


def _degenerate_case(rng):
    """(branches, witness, reference) from 2 or 3 random open polylines: the
    ray of the witness toward the first crossing meets another crossing or a
    polyline vertex, that of the reference meets none, and the segment
    between them meets no polyline vertex.  None when 50 draws give none."""
    for _ in range(50):
        branches = [
            ([rng.choice(_OUTER_POINTS), *rng.sample(_DISC_POINTS, rng.randint(0, 3)),
              rng.choice(_OUTER_POINTS)], False)
            for _ in range(rng.randint(2, 3))
        ]
        target, marks = _target_and_marks(branches)
        if target is None:
            continue
        witnesses = [w for w in _DISC_POINTS if any(_between(x, w, target) for x in marks)
                     and not _on_curve(branches, w)]
        if not witnesses:
            continue
        witness = rng.choice(witnesses)
        reference = next((r for r in rng.sample(_DISC_POINTS, len(_DISC_POINTS))
                          if not _on_curve(branches, r)
                          and _parity(branches, witness, r) is not None
                          and not any(_between(x, r, target) for x in marks)), None)
        if reference is None:
            continue
        try:
            ingest_polyline(branches, RADIUS, witness, -1)
        except DivideError:
            continue
        return branches, witness, reference
    return None


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_witnesses_on_degenerate_rays_match_the_parity_oracle(rng):
    """A witness whose ray meets another crossing or a polyline vertex before
    the first crossing gets the signs of a clean reference witness, times the
    parity of the curve crossings between them."""
    case = _degenerate_case(rng)
    if case is None:
        reject()
    _assert_signs_by_parity(*case)


def test_witness_whose_ray_meets_the_target_first():
    # The first crossing, of chords 0 and 1, is (-14/11, -72/55), and nothing
    # lies between it and (3, -1).  So both chords are met there at once, the
    # hit lies on a crossing, and the ray from (3, 6) meets chord 2 first.
    chords = [
        ([(-10, 0), (10, -3)], False),
        ([(-8, -4), (12, 4)], False),
        ([(-2, 9), (9, -2)], False),
    ]
    _assert_signs_by_parity(chords, (3, -1), (3, 6))
    d, _signs = _seeded(chords, (3, -1))
    assert (d.sign_seed.edge, d.sign_seed.side) == ("e3", "right")


def test_witness_whose_ray_passes_a_crossing():
    # From (2, 5) toward the first crossing (-2/5, 22/5), the ray meets the
    # crossing (1, 19/4) first.
    branches = [
        ([(8, -11), (0, 7), (-2, -6), (0, -12)], False),
        ([(1, -10), (1, 6), (-6, -2), (4, 11)], False),
    ]
    _assert_signs_by_parity(branches, (2, 5), (4, 2))


@pytest.mark.parametrize(
    "branches, witness, reference",
    [
        # from (6, 0) toward the first crossing (1, -5), the ray meets the
        # polyline vertex (2, -4) first
        (
            [([(-2, -8), (2, -4), (7, 7)], False), ([(10, 3), (3, 2), (-1, -12)], False)],
            (6, 0),
            (5, 1),
        ),
        # from (-7, 0) toward the first crossing (17/7, 0), the ray meets the
        # vertex (-3, 0) and then runs along the segment from it to (10, 0)
        (
            [([(10, 0), (-3, 0), (-11, -3)], False), ([(9, 2), (1, 5), (5, -9)], False)],
            (-7, 0),
            (4, 4),
        ),
    ],
    ids=["through a vertex", "along a segment"],
)
def test_witness_whose_ray_meets_a_polyline_vertex(branches, witness, reference):
    _assert_signs_by_parity(branches, witness, reference)


def test_ingest_rejects_no_polyline():
    with pytest.raises(DivideError, match="^divide has no edges$"):
        ingest_polyline([], RADIUS, (0, 0), 1)


# Fractions n/den with den < 2**80: plain draws, each value again with a
# common factor, and its neighbours n/den +- 1/(den*m), closer to it than
# 1/den**2 when m > den.
_DEN = st.integers(1, 2 ** 80 - 1)
_FRACTION = st.tuples(st.integers(-(2 ** 90), 2 ** 90), _DEN)


@st.composite
def _fraction_lists(draw):
    base = draw(st.lists(_FRACTION, min_size=1, max_size=12))
    out = list(base)
    for n, den in base:
        factor = draw(st.integers(1, (2 ** 80 - 1) // den))
        out.append((n * factor, den * factor))  # equal, in another form
        m = draw(st.integers(1, (2 ** 80 - 1) // den))
        if m > 1:
            out += [(n * m + 1, den * m), (n * m - 1, den * m)]
    return draw(st.permutations(out))


@settings(max_examples=300, deadline=None)
@given(_fraction_lists())
def test_integer_order_keys_sort_like_fractions(fracs):
    shift = order_shift(max(den for _n, den in fracs))
    by_key = sorted(fracs, key=lambda f: order_key(f[0], f[1], shift))
    assert by_key == sorted(fracs, key=lambda f: Fraction(*f))


def test_order_keys_separate_the_closest_neighbours():
    # a/b < c/d with b*c - a*d = 1 differ by 1/(b*d), about 2**-160
    b, d = 2 ** 80 - 1, 2 ** 80 - 3
    c = pow(b, -1, d)
    a = (b * c - 1) // d
    assert b * c - a * d == 1
    shift = order_shift(b)
    assert order_key(a, b, shift) < order_key(c, d, shift)
    assert order_key(-c, d, shift) < order_key(-a, b, shift)


def _crossing_names_along_branches(divide) -> list[list[str]]:
    """The crossing ids met along each branch, in the branch's direction."""
    edges = divide.edge_index
    return [[edges[eid].ends[1][0] for eid in branch[:-1]] for branch in divide.branches]


def _reference_names_along_chords(chords, radius) -> list[list[str]]:
    """The same, for straight chords, from crossing points sorted as Fractions."""
    hits = []  # (point, chord, parameter) twice per crossing
    for i, (a, b) in enumerate(chords):
        for j in range(i + 1, len(chords)):
            c, e = chords[j]
            d1 = (F(b[0] - a[0]), F(b[1] - a[1]))
            d2 = (F(e[0] - c[0]), F(e[1] - c[1]))
            den = d1[0] * d2[1] - d1[1] * d2[0]
            w = (c[0] - a[0], c[1] - a[1])
            s = (w[0] * d2[1] - w[1] * d2[0]) / den
            t = (w[0] * d1[1] - w[1] * d1[0]) / den
            p = (a[0] + s * d1[0], a[1] + s * d1[1])
            if 0 < s < 1 and 0 < t < 1 and p[0] ** 2 + p[1] ** 2 < radius ** 2:
                hits += [(p, i, s), (p, j, t)]
    name = {p: f"x{k}" for k, p in enumerate(sorted({p for p, _i, _s in hits}))}
    return [[name[p] for p, i, _s in sorted(hits, key=lambda h: h[2]) if i == chord]
            for chord in range(len(chords))]


def test_crossings_on_one_vertical_line_are_named_by_y():
    # The downward vertical chord meets the other two at (0, 71/41) and
    # (0, 109/39); they cross each other at (1700/1801, 4031/1801).  So x0
    # and x1 lie on x = 0, named by y alone, and the chord meets x1 first.
    chords = [
        ([(0, 20), (0, -20)], False),
        ([(-20, -9), (21, 13)], False),
        ([(-19, 14), (20, -9)], False),
    ]
    d = ingest_polyline(chords, 15, (3, 0), 1)
    got = _crossing_names_along_branches(d)
    assert got == _reference_names_along_chords([p for p, _closed in chords], 15)
    assert got == [["x1", "x0"], ["x0", "x2"], ["x1", "x2"]]


@pytest.mark.parametrize("k, seed", [(6, 0), (8, 1), (12, 2)])
def test_crossing_names_match_a_fraction_sort(k, seed):
    kwargs = chord_polylines(k, seed)
    d = ingest_polyline(**kwargs)
    chords = [p for p, _closed in kwargs["branches"]]
    assert _crossing_names_along_branches(d) == _reference_names_along_chords(
        chords, kwargs["disc_radius"])


def test_chord_draws_end_with_a_named_error(monkeypatch):
    """When no draw ingests, ``chord_polylines`` stops after CHORD_DRAWS
    draws and names k, the seed and the last diagnostic."""
    calls = []

    def refuse(**kwargs):
        calls.append(kwargs)
        raise DivideError(f"refused draw {len(calls)}")

    monkeypatch.setattr(conftest, "ingest_polyline", refuse)
    with pytest.raises(RuntimeError) as info:
        chord_polylines(5, 3)
    assert len(calls) == CHORD_DRAWS
    assert str(info.value) == (
        f"chord_polylines(k=5, seed=3): no draw of {CHORD_DRAWS} ingested with all "
        f"crossings; last: refused draw {CHORD_DRAWS}"
    )
