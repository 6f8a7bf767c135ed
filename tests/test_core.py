from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from divides import (
    Divide,
    DivideError,
    EdgeDef,
    SignSeed,
    assign_signs,
    gen_a,
    gen_e6,
    ingest_polyline,
    invariants,
    trace_faces,
    validate_divide,
)
from divides import core
from divides.corpus import builtin_entries
from divides.fileio import divide_to_text, parse_divide
from divides.report import run_pipeline
from conftest import (
    CORPUS_NAMES,
    SLOT_PERMUTATIONS,
    a1_mirrored_at_c1,
    chord_polylines,
    dart_numbers,
    entry,
    generic_chords,
    line_through_triangle,
    mutated,
    one_chord,
    pipeline,
    validate_divide_reference,
    with_slots_permuted,
)


def test_a1_structure():
    d = gen_a(1).divide
    assert validate_divide(d) == []
    assert len(d.double_points) == 1
    assert len(d.branches) == 2


def test_three_valent_vertex_rejected():
    d = gen_a(1).divide
    # drop one edge end by removing an edge entirely
    broken = d._replace(
        edges=d.edges[:-1],
        branches=(d.branches[0], d.branches[1][:-1]),
    )
    diags = validate_divide(broken)
    assert any("degree mismatch at vertex" in m for m in diags)


def test_slot_used_twice_rejected():
    d = gen_a(1).divide
    e0 = d.edges[0]
    clash = EdgeDef(id="clash", ends=(e0.ends[1], ("tB", 0)))
    broken = d._replace(edges=d.edges + (clash,))
    diags = validate_divide(broken)
    assert any("slot used twice" in m for m in diags)


def test_terminal_slot_out_of_range_rejected():
    d = gen_a(1).divide
    (_tl, c1_end) = d.edges[0].ends
    moved = EdgeDef(id=d.edges[0].id, ends=(("tL", 1), c1_end))
    broken = d._replace(edges=(moved,) + d.edges[1:])
    assert validate_divide(broken) == [
        "edge 'l0': slot 1 out of range at vertex 'tL'",
        "degree mismatch at vertex 'tL': slots []",
    ]


@pytest.mark.parametrize("slot", ["0", 0.0, True], ids=["str", "float", "bool"])
def test_slot_that_is_not_an_int_is_a_diagnostic(slot):
    # A hand-built divide: parsing admits only int slots, a Divide does not.
    d = gen_a(1).divide
    tl_end, _c1_end = d.edges[0].ends
    broken = d._replace(edges=(EdgeDef("l0", (tl_end, ("c1", slot))),) + d.edges[1:])
    assert validate_divide(broken) == [
        f"edge 'l0': slot {slot!r} is not an int at vertex 'c1'",
        "degree mismatch at vertex 'c1': slots [0, 1, 3]",
    ]


def test_disconnected_rejected():
    # two separate crossing pairs, never touching: two copies of A_1
    a = gen_a(1).divide
    ren = {v: v + "'" for v in a.double_points + a.terminals}
    other_edges = tuple(
        EdgeDef(id=e.id + "'", ends=((ren[e.ends[0][0]], e.ends[0][1]),
                                     (ren[e.ends[1][0]], e.ends[1][1])))
        for e in a.edges
    )
    broken = Divide(
        name="two-a1",
        double_points=a.double_points + tuple(ren[v] for v in a.double_points),
        terminals=a.terminals + tuple(ren[v] for v in a.terminals),
        edges=a.edges + other_edges,
        branches=a.branches
        + tuple(tuple(e + "'" for e in b) for b in a.branches),
        sign_seed=a.sign_seed,
    )
    assert any("disconnected graph" in m for m in validate_divide(broken))


def _polyline_text(k: int, seed: int) -> str:
    kwargs = chord_polylines(k, seed)
    return json.dumps({
        "name": kwargs["name"],
        "mode": "polyline",
        "branches": [{"points": [list(p) for p in points], "closed": closed}
                     for points, closed in kwargs["branches"]],
        "disc_radius": kwargs["disc_radius"],
        "sign_seed": {"point": list(kwargs["seed_point"]),
                      "sign": "+" if kwargs["seed_sign"] == 1 else "-"},
    })


@pytest.mark.parametrize("text", [divide_to_text(gen_e6().divide), _polyline_text(5, 0)],
                         ids=["map", "polyline"])
def test_a_divide_is_validated_once_from_parse_to_report(monkeypatch, text):
    calls = []
    real = core.validate_divide

    def counting(divide):
        calls.append(divide.name)
        return real(divide)

    monkeypatch.setattr(core, "validate_divide", counting)
    divide, diags = parse_divide(text)
    assert divide is not None and diags == []
    assert run_pipeline(divide).all_passed
    assert len(calls) == 1


def _broken_divides() -> list[Divide]:
    d = gen_a(1).divide
    e0 = d.edges[0]
    return [
        d._replace(edges=d.edges[:-1], branches=(d.branches[0], d.branches[1][:-1])),
        d._replace(edges=d.edges + (EdgeDef(id="clash", ends=(e0.ends[1], ("tB", 0))),)),
        d._replace(sign_seed=SignSeed(edge="nope", side="left", sign=-1)),
        d._replace(double_points=()),
    ]


@pytest.mark.parametrize("broken", _broken_divides(), ids=["degree", "slot", "seed", "mu0"])
def test_trace_faces_rejects_a_hand_built_invalid_divide(broken):
    want = validate_divide(broken)
    assert want
    with pytest.raises(DivideError) as info:
        trace_faces(broken)
    assert info.value.diagnostics == want


def test_diagnostics_are_validate_divide():
    for divide in [e.divide for e in builtin_entries()] + _broken_divides():
        assert divide.diagnostics == tuple(validate_divide(divide))
        assert divide.diagnostics is divide.diagnostics  # kept, not recomputed


# Divides the mutations start from: the built-in corpus, generic chords, a
# line through a closed triangle (a circle branch) and a single chord.
MUTATION_BASES = ([e.divide for e in builtin_entries()]
                  + [generic_chords(k, 0) for k in (3, 4, 5)]
                  + [line_through_triangle(), one_chord()])

# The diagnostic families of validate_divide, each by the start of its text.
DIAGNOSTIC_FAMILIES = (
    "duplicate ids among double points",
    "duplicate ids among terminals",
    "duplicate ids: vertex appears as both",
    "duplicate ids among edges",
    "does not have exactly two ends",
    "references unknown vertex",
    "out of range at vertex",
    "slot used twice",
    "degree mismatch",
    "disconnected graph",
    "mu = 0",
    "divide has no edges",
    "branch partition invalid: does not partition",
    "branch partition invalid: disagrees",
    "malformed sign seed: unknown edge",
    "malformed sign seed",
)


def _family(message: str) -> str:
    return next(f for f in DIAGNOSTIC_FAMILIES if f in message)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(MUTATION_BASES))), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_validate_divide_matches_reference_on_mutants(base, count, rng):
    """End swaps, slot and vertex changes, repeated ids, branch moves, splits,
    merges, empty branches, dropped edges and seed changes: the diagnostics
    equal the reference's, in order."""
    divide = mutated(MUTATION_BASES[base], rng, count)
    assert validate_divide(divide) == validate_divide_reference(divide)


def test_mutants_reach_every_diagnostic_family():
    rng = random.Random("validate-mutants")
    reached = set()
    for _ in range(3000):
        divide = mutated(rng.choice(MUTATION_BASES), rng, rng.randint(1, 3))
        diags = validate_divide(divide)
        assert diags == validate_divide_reference(divide)
        reached.update(map(_family, diags))
    assert reached == set(DIAGNOSTIC_FAMILIES)


def test_empty_branch_beside_merged_strands_is_rejected():
    """Two strands declared as one branch and an empty one: as many branches
    as strands, each strand inside one branch, yet not the strands."""
    a1 = gen_a(1).divide
    broken = a1._replace(branches=((), a1.branches[0] + a1.branches[1]))
    assert validate_divide(broken) == [
        "branch partition invalid: disagrees with strand continuation"]


def test_branch_repeating_one_edge_and_missing_another_is_rejected():
    """As many branch ids as edges, all of them edge ids, yet one repeated:
    not a partition of the edge set."""
    broken = gen_a(1).divide._replace(branches=(("l0", "l0"), ("a", "b")))
    assert validate_divide(broken) == [
        "branch partition invalid: does not partition the edge set"]
    assert validate_divide_reference(broken) == validate_divide(broken)


def test_malformed_seed_rejected():
    d = gen_a(1).divide
    broken = d._replace(sign_seed=SignSeed(edge="nope", side="left", sign=-1))
    assert any("malformed sign seed" in m for m in validate_divide(broken))
    broken = d._replace(sign_seed=SignSeed(edge="l0", side="up", sign=-1))
    assert any("malformed sign seed" in m for m in validate_divide(broken))


@pytest.mark.parametrize("sign", [True, 1.0, -1.0], ids=str)
def test_seed_sign_that_is_not_an_int_is_malformed(sign):
    # A hand-built seed: parsing admits only "+" and "-", a SignSeed does not.
    broken = gen_a(3).divide._replace(sign_seed=SignSeed(edge="l0", side="left", sign=sign))
    assert validate_divide(broken) == ["malformed sign seed"]
    assert validate_divide_reference(broken) == ["malformed sign seed"]
    with pytest.raises(DivideError, match="^malformed sign seed$"):
        assign_signs(broken, trace_faces(broken))


def test_trace_faces_a1():
    d = gen_a(1).divide
    fs = trace_faces(d)
    assert len(fs.faces) == 4
    assert all(f.outer for f in fs.faces)
    assert fs.region_indices == ()


def test_trace_faces_a2():
    fs = trace_faces(gen_a(2).divide)
    assert len(fs.region_indices) == 1
    assert len(fs.faces) == 3


def test_trace_faces_e6():
    fs = trace_faces(gen_e6().divide)
    assert len(fs.region_indices) == 3


def test_trace_is_bijection_on_darts_and_arcs():
    for name in ("a1", "a4", "e6", "depth1"):
        d = entry(name).divide
        fs = trace_faces(d)
        items = [it for f in fs.faces for it in f.items]
        n_terms = len(d.terminals)
        n_darts = 4 * len(d.double_points) + n_terms
        assert sorted(items) == list(range(n_darts + n_terms))
        for f in fs.faces:
            assert f.outer == any(it >= n_darts for it in f.items)
            # the arc after terminal j, item n_darts + j, leads out of terminal j + 1
            for it, nxt in zip(f.items, f.items[1:] + f.items[:1]):
                if it >= n_darts:
                    j = it - n_darts
                    assert nxt == n_darts - n_terms + (j + 1) % n_terms


def test_signs_a1_alternate():
    d = gen_a(1).divide
    sd = assign_signs(d, trace_faces(d))
    assert sorted(sd.sign) == [-1, -1, 1, 1]
    # every edge separates opposite signs; its side faces found by a scan
    dart = dart_numbers(d)
    face = {it: f.index for f in sd.faces.faces for it in f.items}
    for e in d.edges:
        a, b = (face[dart[end]] for end in e.ends)
        assert sd.sign[a] == -sd.sign[b]


def _line_through_square():
    """An interval threaded through a closed square: one arc, one circle."""
    return ingest_polyline(
        [([(-9, 0), (9, 0)], False), ([(-3, -3), (3, -3), (3, 3), (-3, 3)], True)],
        disc_radius=8,
        seed_point=(0, 1),
        seed_sign=-1,
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.just("a"), st.integers(1, 60)),
                 st.tuples(st.just("chords"), st.integers(2, 8), st.integers(0, 9)),
                 st.just(("square",))),
       st.data())
def test_signs_are_a_checkerboard_on_every_traced_divide(case, data):
    """On A_n, generic chords and a divide with a circle, with the slots of
    up to two double points permuted and any seed edge, side and sign, a
    divide that validates and traces gets a sign on every face, the seed's
    on its face, and opposite signs on the two sides of every edge."""
    if case[0] == "a":
        d = gen_a(case[1]).divide
    elif case[0] == "chords":
        d = generic_chords(case[1], case[2])
    else:
        d = _line_through_square()
    moved = data.draw(st.dictionaries(st.sampled_from(d.double_points),
                                      st.sampled_from(SLOT_PERMUTATIONS), max_size=2))
    seed = SignSeed(edge=data.draw(st.sampled_from(d.edges)).id,
                    side=data.draw(st.sampled_from(("left", "right"))),
                    sign=data.draw(st.sampled_from((1, -1))))
    d = with_slots_permuted(d, moved)._replace(sign_seed=seed)
    if d.diagnostics:
        reject()
    try:
        faces = trace_faces(d)
    except DivideError:
        reject()
    sd = assign_signs(d, faces)
    assert len(sd.sign) == len(faces.faces)
    assert set(sd.sign) <= {1, -1}
    dart = dart_numbers(d)
    left, right = d.edge_index[seed.edge].ends
    assert sd.sign[faces.face_of[dart[left if seed.side == "left" else right]]] == seed.sign
    for e in d.edges:
        a, b = (faces.face_of[dart[end]] for end in e.ends)
        assert sd.sign[a] == -sd.sign[b]


def test_signs_a4_both_minus():
    sd = pipeline("a4").signed
    assert [sd.sign[f] for f in sd.faces.region_indices] == [-1, -1]


def test_signs_e6_pattern():
    r = pipeline("e6")
    # in diagram order the signed vertices read (-, -, +)
    types = [v.vtype for v in r.ag.vertices if v.vtype != "0"]
    assert types == ["-", "-", "+"]


def test_seed_flip_negates_everything():
    d = gen_e6().divide
    sd = assign_signs(d, trace_faces(d))
    flipped = d._replace(sign_seed=d.sign_seed._replace(sign=-d.sign_seed.sign))
    sd2 = assign_signs(flipped, trace_faces(flipped))
    assert sd2.sign == tuple(-s for s in sd.sign)


def test_invariants_examples():
    for name, want in {
        "a4": (2, 1, 4, 2, 1),
        "e6": (3, 1, 6, 3, 1),
        "depth1": (6, 3, 10, 4, 3),
    }.items():
        inv = pipeline(name).inv
        got = (inv.d, inv.r, inv.mu, inv.genus, inv.boundary_components)
        assert got == want, name
        assert inv.mu == 2 * inv.d - inv.r + 1
        assert inv.n_regions == inv.d - inv.r + 1
        assert inv.euler_characteristic == 1 - inv.mu


def test_invariants_reject_circle_components():
    d = _line_through_square()
    fs = trace_faces(d)
    sd = assign_signs(d, fs)
    with pytest.raises(DivideError, match="circle components"):
        invariants(sd)


def test_trace_rejects_no_terminals():
    # two closed rectangles crossing at four points: no terminals at all
    d = ingest_polyline(
        [
            ([(-3, -1), (3, -1), (3, 1), (-3, 1)], True),
            ([(-1, -3), (1, -3), (1, 3), (-1, 3)], True),
        ],
        disc_radius=8,
        seed_point=(0, 0),
        seed_sign=1,
    )
    with pytest.raises(DivideError, match="no terminals"):
        trace_faces(d)


def test_euler_relation_diagnostic():
    d = a1_mirrored_at_c1()
    assert validate_divide(d) == []
    with pytest.raises(DivideError) as info:
        trace_faces(d)
    assert info.value.diagnostics == [
        "rotation system not planar-consistent: Euler relation fails (V=5, E=8, F=2); "
        "offending orbit (('dart', 'c1', 0), ('arc', 'tR', 'tA'), ('dart', 'tA', 0), "
        "('dart', 'c1', 2), ('arc', 'tL', 'tB'), ('dart', 'tB', 0))"
    ]


def _next_at_face(divide) -> dict:
    """The next-at-face map of ``trace_faces``, rebuilt from ``edge_darts`` by
    its documented rule: cross the edge, then leave a double point by the
    slot clockwise of the one arrived at, a terminal by the virtual arc
    after it; arc j leads into terminal j + 1."""
    n_dart, n_term = 4 * len(divide.double_points), len(divide.terminals)

    def turn(y):
        return y - y % 4 + (y - 1) % 4 if y < n_dart else y + n_term

    succ = {}
    for x, y in divide.edge_darts:
        succ[x], succ[y] = turn(y), turn(x)
    for j in range(n_term):
        succ[n_dart + n_term + j] = n_dart + (j + 1) % n_term
    return succ


_PERMUTED_CASES = CORPUS_NAMES + [(k, s) for k in range(3, 8) for s in (0, 1)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PERMUTED_CASES), st.data())
def test_next_at_face_is_a_permutation_of_every_item(case, data):
    """On every divide that validates, the corpus, generic chords and those
    with the slots of up to three double points permuted (rotations and
    mirrors among them), the next-at-face map permutes the darts and arcs.
    Where the faces trace, each face is one of its cycles."""
    d = entry(case).divide if isinstance(case, str) else generic_chords(*case)
    moved = data.draw(st.dictionaries(st.sampled_from(d.double_points),
                                      st.sampled_from(SLOT_PERMUTATIONS), max_size=3))
    d = with_slots_permuted(d, moved)
    if d.diagnostics:
        reject()
    succ = _next_at_face(d)
    items = list(range(4 * len(d.double_points) + 2 * len(d.terminals)))
    assert sorted(succ) == sorted(succ.values()) == items
    try:
        faces = trace_faces(d)
    except DivideError as exc:
        assert exc.diagnostics[0].startswith(
            "rotation system not planar-consistent: Euler relation fails")
        return
    for f in faces.faces:
        assert [succ[x] for x in f.items] == list(f.items[1:] + f.items[:1])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CORPUS_NAMES + [(3, 0), (4, 0), (5, 0)]), st.data())
def test_traced_maps_have_no_bridge(case, data):
    """With the slots of up to two double points permuted, a divide that
    still validates and traces has no edge with one face on both sides, and
    each of its branches touches 0 or 2 terminal ends."""
    d = entry(case).divide if isinstance(case, str) else generic_chords(*case)
    moved = data.draw(st.dictionaries(st.sampled_from(d.double_points),
                                      st.sampled_from(SLOT_PERMUTATIONS), max_size=2))
    d = with_slots_permuted(d, moved)
    if d.diagnostics:
        reject()
    try:
        faces = trace_faces(d)
    except DivideError:
        reject()
    dart = dart_numbers(d)
    face = {it: f.index for f in faces.faces for it in f.items}
    for e in d.edges:
        assert face[dart[e.ends[0]]] != face[dart[e.ends[1]]]
    terminals = set(d.terminals)
    for branch in d.branches:
        ends = [v for eid in branch for v, _ in d.edge_index[eid].ends if v in terminals]
        assert len(ends) in (0, 2)
