from __future__ import annotations

import dataclasses
from fractions import Fraction

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
from divides.core import seed_face_index
from divides.corpus import A4_SNAKE_POLYLINE
from divides.geometry import QuadPoint, compare_circle_points, sign_quad, sign_quad2
from divides.report import run_pipeline


F = Fraction


def test_sign_quad():
    assert sign_quad(F(0), F(0), F(2)) == 0
    assert sign_quad(F(-3), F(2), F(2)) == -1  # 2*sqrt(2) < 3
    assert sign_quad(F(-2), F(2), F(2)) == 1  # 2*sqrt(2) > 2
    assert sign_quad(F(-2), F(1), F(4)) == 0  # sqrt(4) = 2
    assert sign_quad(F(5), F(-1), F(16)) == 1


def test_sign_quad2():
    # sqrt(2) + sqrt(3) - sqrt(2*3) + 1 > 0 and its negation < 0
    assert sign_quad2(F(1), F(1), F(1), F(-1), F(2), F(3)) == 1
    assert sign_quad2(F(-1), F(-1), F(-1), F(1), F(2), F(3)) == -1
    # sqrt(2)*sqrt(8) - 4 = 0
    assert sign_quad2(F(-4), F(0), F(0), F(1), F(2), F(8)) == 0


def test_circle_point_order():
    # exact points on a radius-5 circle, no irrational parts needed
    def pt(x, y):
        return QuadPoint(ax=F(x), bx=F(0), ay=F(y), by=F(0), d=F(0))

    east, north, west, south = pt(5, 0), pt(0, 5), pt(-5, 0), pt(0, -5)
    ring = [east, north, west, south]
    for i in range(3):
        assert compare_circle_points(ring[i], ring[i + 1]) == -1
    assert compare_circle_points(north, pt(3, 4)) == 1  # (3,4) is earlier


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


def test_ingest_terminal_order_is_ccw():
    d = ingest_polyline(
        [([(-9, -9), (9, 9)], False), ([(-9, 9), (9, -9)], False)],
        disc_radius=8,
        seed_point=(1, 0),
        seed_sign=-1,
    )
    # four terminals at 45, 135, 225, 315 degrees; t0 is the northeast one
    assert d.terminals == ("t0", "t1", "t2", "t3")


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


def _seeded(branches, witness):
    d = ingest_polyline(branches, 8, witness, -1)
    fs = trace_faces(d)
    return d, seed_face_index(d, fs), assign_signs(d, fs).sign


def _assert_same_face(branches, witness, reference):
    d, face, signs = _seeded(branches, witness)
    d_ref, face_ref, signs_ref = _seeded(branches, reference)
    assert dataclasses.replace(d, sign_seed=d_ref.sign_seed) == d_ref
    assert face == face_ref
    assert signs == signs_ref


def test_witness_whose_vertical_ray_hits_a_crossing():
    # (0, 6) looks straight down at the crossing at the origin; (-1, 6) lies
    # in the same face and its vertical ray is clean.
    chords = [
        ([(-9, -1), (9, 1)], False),
        ([(-1, -9), (1, 9)], False),
        ([(-9, 4), (9, -5)], False),
    ]
    d_ref, _, _ = _seeded(chords, (-1, 6))
    assert (d_ref.sign_seed.edge, d_ref.sign_seed.side) == ("e6", "left")
    _assert_same_face(chords, (0, 6), (-1, 6))


@pytest.mark.parametrize(
    "branches, witness, reference",
    [
        # the first thing below (0, 5) is the polyline vertex (0, 3)
        (
            [([(-9, -1), (0, 3), (9, -1)], False), ([(-1, -9), (1, 9)], False)],
            (0, 5),
            (-1, 5),
        ),
        # the ray up from (2, -5) runs along the vertical segment x = 2
        (
            [([(-9, 2), (2, 2), (2, -3), (9, -3)], False), ([(-9, -8), (9, 10)], False)],
            (2, -5),
            (3, -5),
        ),
    ],
    ids=["through a vertex", "along a vertical segment"],
)
def test_witness_whose_vertical_ray_meets_a_polyline_vertex(branches, witness, reference):
    _assert_same_face(branches, witness, reference)


def _ingest_spec(spec, **kwargs):
    branches = [(b["points"], b["closed"]) for b in spec["branches"]]
    return ingest_polyline(
        branches, spec["disc_radius"], spec["seed_point"], spec["seed_sign"], **kwargs
    )


def test_a4_snake_polyline_is_a4():
    snake = run_pipeline(_ingest_spec(A4_SNAKE_POLYLINE, name="a4-snake"))
    a4 = run_pipeline(gen_a(4).divide)
    assert (snake.inv.d, snake.inv.r, snake.inv.mu) == (2, 1, 4)
    assert snake.inv == a4.inv
    assert snake.ag.census() == a4.ag.census()
    assert snake.cpo.coefficients == a4.cpo.coefficients == (1, -1, 1, -1, 1)
    assert snake.cpo.order == a4.cpo.order == 10
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
    result = run_pipeline(divide)
    faces = result.signed.faces
    d, r = len(divide.double_points), len(divide.branches)
    n_v = d + len(divide.terminals)
    n_e = len(divide.edges) + len(divide.terminals)
    assert n_v - n_e + len(faces.faces) == 1
    assert len(faces.region_indices) == d - r + 1
    assert len(result.lattice.i_mat) == 2 * d - r + 1
    failed = [c.key for c in result.suite.checks if not c.passed]
    assert failed in ([], ["lefschetz_zero"])
    assert result.adapted_verdict.passed
    assert result.certificate.passed
    assert all(c.passed for c in result.cones)


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
