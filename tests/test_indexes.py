"""The indexes of FaceSet and AGDiagram, the strand walk of validation and
the int-keyed AG edge count agree with plain scans and references."""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, reject, settings, strategies as st

from divides import (
    AGDiagram,
    DivideError,
    assign_signs,
    build_ag,
    depth_labels,
    exposure_set,
    gen_a,
    milnor_lattice,
    trace_faces,
)
from divides.agdiagram import AGEdge, AGVertex
from divides.core import _strands

from conftest import (
    CORPUS_NAMES,
    SLOT_PERMUTATIONS,
    dart_numbers,
    entry,
    generic_chords,
    hand_built_ag,
    orbits_by_bfs,
    random_within_type_orders,
    with_slots_permuted,
)

CHORDS = [(k, seed) for k in (3, 4, 5, 6, 7) for seed in range(3)] + [(9, 0)]


def _divide(case):
    return entry(case).divide if isinstance(case, str) else generic_chords(*case)


CASES = CORPUS_NAMES + CHORDS


def _signed_and_ag(case):
    divide = _divide(case)
    signed = assign_signs(divide, trace_faces(divide))
    return signed, build_ag(signed)


def _assert_ag_indexes_match_scans(ag):
    mu = ag.mu
    for pos in [-1, mu] + list(range(mu)):
        scan = sorted(
            [e.v for e in ag.edges if e.u == pos] + [e.u for e in ag.edges if e.v == pos]
        )
        assert ag.neighbors(pos) == scan


def _assert_written_index_is_the_built_one(ag):
    """The index ``build_ag`` wrote with the edges is the one a hand-built
    diagram with the same fields builds on its first query."""
    assert "_adjacent" in vars(ag)
    assert ag._adjacent == AGDiagram(*ag)._adjacent


@pytest.mark.parametrize("case", CASES, ids=str)
def test_ag_indexes_match_scans(case):
    signed, ag = _signed_and_ag(case)
    _assert_written_index_is_the_built_one(ag)
    _assert_ag_indexes_match_scans(ag)
    rng = random.Random(str(case))
    for _ in range(3):
        reordered = build_ag(signed, random_within_type_orders(ag, rng))
        _assert_written_index_is_the_built_one(reordered)
        _assert_ag_indexes_match_scans(reordered)


def test_ag_indexes_survive_a_reorder_that_moves_an_edge():
    signed, ag = _signed_and_ag("depth1")
    swapped = build_ag(signed, {"-": (2, 1), "0": (6, 5, 4, 3, 2, 1)})
    assert swapped.edges != ag.edges
    _assert_written_index_is_the_built_one(swapped)
    _assert_ag_indexes_match_scans(swapped)


def test_ag_indexes_on_an_unsorted_edge_list_with_repeats():
    # the queries answer as the scans did: neighbors ascending and once per
    # edge
    kinds = [("a", "-"), ("b", "0"), ("a", "+"), ("c", "0")]
    vertices = tuple(
        AGVertex(label=label, vtype=t, origin=("region", i))
        for i, (label, t) in enumerate(kinds)
    )
    edges = (
        AGEdge(2, 3, 1), AGEdge(0, 3, 2), AGEdge(1, 2, 1),
        AGEdge(0, 1, 3), AGEdge(0, 3, 5), AGEdge(0, 2, 1),
    )
    ag = AGDiagram(vertices=vertices, edges=edges)
    _assert_ag_indexes_match_scans(ag)
    assert ag.neighbors(0) == [1, 2, 3, 3]


@pytest.mark.parametrize("edge", [AGEdge(-1, 0, 1), AGEdge(0, 3, 1)], ids=str)
def test_ag_index_refuses_an_edge_outside_the_positions(edge):
    """An edge end outside range(mu), here mu = 3, neither wraps to another
    position nor fails as an IndexError: the index refuses it in the words
    of ``milnor_lattice``."""
    message = f"AG edge ({edge.u}, {edge.v}) is out of range or out of order"
    ag = hand_built_ag("-0+", [(0, 1, 1), tuple(edge)])
    with pytest.raises(DivideError) as info:
        milnor_lattice(ag)
    assert str(info.value) == message
    for query in (lambda: ag.neighbors(0), lambda: depth_labels(ag, frozenset({0}))):
        with pytest.raises(DivideError) as info:
            query()
        assert str(info.value) == message


@pytest.mark.parametrize("case", CASES, ids=str)
def test_face_across_agrees_with_edge_side_faces(case):
    """The faces on the two sides of each edge, read from ``face_of`` at the
    darts of its two ends, are the faces whose cycles a scan finds those
    darts in; so is the face of each virtual arc."""
    divide = _divide(case)
    faces = trace_faces(divide)
    dart = dart_numbers(divide)

    def scanned(item):
        (index,) = [f.index for f in faces.faces if item in f.items]
        return index

    seen = set()
    for e in divide.edges:
        left, right = (dart[end] for end in e.ends)
        assert faces.face_of[left] == scanned(left)
        assert faces.face_of[right] == scanned(right)
        seen.update((left, right))
    assert divide.edge_darts == tuple(tuple(dart[end] for end in e.ends) for e in divide.edges)
    assert seen == set(dart.values()) == set(range(len(dart)))
    assert len(faces.face_of) == len(dart) + len(divide.terminals)
    for arc in range(len(dart), len(faces.face_of)):
        assert faces.face_of[arc] == scanned(arc)


def _exposure_by_scans(signed, ag):
    """The exposure rule by vertex names, with the face of each dart and the
    face across each edge found by scans of the face cycles."""
    faces, edges = signed.faces, signed.divide.edges
    dart = dart_numbers(signed.divide)
    vertex = {x: v for (v, _s), x in dart.items()}
    face = {it: f.index for f in faces.faces for it in f.items}
    outer = set(faces.outer_indices)
    outer_vertices = {vertex[x] for f in outer for x in faces.faces[f].items if x in vertex}
    exposed = set()
    for pos, vx in enumerate(ag.vertices):
        kind, origin = vx.origin
        if kind == "double_point":
            hit = any(face[dart[(origin, s)]] in outer for s in range(4))
        else:
            items = faces.faces[origin].items
            across = [
                face[dart[e.ends[1 - k]]]
                for e in edges for k in (0, 1) if dart[e.ends[k]] in items
            ]
            names = {vertex[x] for x in items if x in vertex}
            hit = bool(outer & set(across)) or bool(outer_vertices & names)
        if hit:
            exposed.add(pos)
    return frozenset(exposed)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_exposure_set_matches_scans(case):
    signed, ag = _signed_and_ag(case)
    assert exposure_set(signed, ag) == _exposure_by_scans(signed, ag)


def _depths_by_bfs(ag, exposed):
    """Breadth-first distances over an edge list read directly."""
    adjacent = [[] for _ in range(ag.mu)]
    for e in ag.edges:
        adjacent[e.u].append(e.v)
        adjacent[e.v].append(e.u)
    depth = [None] * ag.mu
    queue = deque(exposed)
    for p in exposed:
        depth[p] = 0
    while queue:
        p = queue.popleft()
        for q in adjacent[p]:
            if depth[q] is None:
                depth[q] = depth[p] + 1
                queue.append(q)
    return tuple(depth)


@pytest.mark.parametrize("case", ["a2000", (12, 0)], ids=str)
def test_depth_labels_match_bfs_on_large_diagrams(case):
    divide = gen_a(2000).divide if case == "a2000" else _divide(case)
    signed = assign_signs(divide, trace_faces(divide))
    ag = build_ag(signed)
    exposed = exposure_set(signed, ag)
    # the real exposed set, then a single exposed vertex, which makes the
    # distances large on the path-shaped A_2000 diagram
    for seeds in (exposed, frozenset({0})):
        got = depth_labels(ag, seeds)
        assert got.depth == _depths_by_bfs(ag, seeds)
        assert got.diagram_depth == max(got.depth)
    if case == "a2000":
        assert depth_labels(ag, frozenset({0})).diagram_depth > 1000
    else:
        assert depth_labels(ag, exposed).diagram_depth >= 2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 4), st.randoms(use_true_random=False))
def test_strands_match_bfs_partition(d, half_t, rng):
    """On a random fixed-point-free involution over 4d darts at double
    points and 2 * half_t terminal darts, ``_strands`` numbers the strands
    0, 1, ... and gives two darts one number exactly when a plain BFS puts
    them in one strand."""
    n_dart = 4 * d
    darts = list(range(n_dart + 2 * half_t))
    rng.shuffle(darts)
    twin = [0] * len(darts)
    for x, y in zip(darts[::2], darts[1::2]):
        twin[x], twin[y] = y, x
    strand_of, n_strand = _strands(twin, n_dart)
    assert all(0 <= k < n_strand for k in strand_of)
    got = [set() for _ in range(n_strand)]
    for x, k in enumerate(strand_of):
        got[k].add(x)
    assert sorted(map(sorted, got)) == sorted(map(sorted, orbits_by_bfs(twin, n_dart, (2,))))


def _ag_edges_by_tuples(signed, ag):
    """The AG edges counted under (u, v) tuple keys, from ``ag``'s vertex
    positions and the face of each dart, sorted as tuples sort."""
    divide, face_of = signed.divide, signed.faces.face_of
    dart = dart_numbers(divide)
    region_pos = {vx.origin[1]: p for p, vx in enumerate(ag.vertices) if vx.origin[0] == "region"}
    saddle_pos = {vx.origin[1]: p for p, vx in enumerate(ag.vertices)
                  if vx.origin[0] == "double_point"}
    counts = {}
    for (v, _s), x in dart.items():
        if v in saddle_pos and face_of[x] in region_pos:
            key = tuple(sorted((saddle_pos[v], region_pos[face_of[x]])))
            counts[key] = counts.get(key, 0) + 1
    for e in divide.edges:
        a, b = (face_of[dart[end]] for end in e.ends)
        if a in region_pos and b in region_pos:
            key = tuple(sorted((region_pos[a], region_pos[b])))
            counts[key] = counts.get(key, 0) + 1
    return tuple(AGEdge(u, v, m) for (u, v), m in sorted(counts.items()))


@pytest.mark.parametrize("case", CORPUS_NAMES + [(k, 0) for k in range(3, 13)], ids=str)
def test_build_ag_edges_match_a_tuple_keyed_count(case):
    signed, ag = _signed_and_ag(case)
    assert ag.edges == _ag_edges_by_tuples(signed, ag)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CORPUS_NAMES + [(3, 0), (4, 0), (5, 0)]), st.data())
def test_build_ag_edges_match_a_tuple_keyed_count_on_slot_permuted_divides(case, data):
    """With the slots of up to two double points permuted, a divide that
    still traces and signs gets the edges of the tuple-keyed count.  So does
    a random within-type reorder of its diagram, whose exposed set and depths
    are those of the scans and of a breadth-first search over its edge list."""
    d = _divide(case)
    moved = data.draw(st.dictionaries(st.sampled_from(d.double_points),
                                      st.sampled_from(SLOT_PERMUTATIONS), max_size=2))
    d = with_slots_permuted(d, moved)
    if d.diagnostics:
        reject()
    try:
        signed = assign_signs(d, trace_faces(d))
    except DivideError:
        reject()
    ag = build_ag(signed)
    assert ag.edges == _ag_edges_by_tuples(signed, ag)
    assert all(ag.vertices[e.u].vtype != ag.vertices[e.v].vtype for e in ag.edges)

    rng = data.draw(st.randoms(use_true_random=False))
    ag = build_ag(signed, random_within_type_orders(ag, rng))
    assert ag.edges == _ag_edges_by_tuples(signed, ag)
    exposed = exposure_set(signed, ag)
    assert exposed == _exposure_by_scans(signed, ag)
    want = _depths_by_bfs(ag, exposed)
    if not exposed or None in want:
        with pytest.raises(DivideError, match="^depth undefined"):
            depth_labels(ag, exposed)
    else:
        assert depth_labels(ag, exposed) == (want, max(want))


@pytest.mark.parametrize("case", ["e6", "depth1", (12, 0)], ids=str)
def test_screen_leaves_unqueried_ag_indexes_unbuilt(case):
    """build_ag writes the adjacency index with the edges, and a screen
    (exposure_set, depth_labels) and later queries read that one list.  A
    copy built by hand, ``AGDiagram(*ag)``, has nothing built until its first
    query builds an equal index.  Built indexes do not enter equality."""
    signed, ag = _signed_and_ag(case)
    assert set(vars(ag)) == {"_adjacent"}
    index = ag._adjacent
    depth_labels(ag, exposure_set(signed, ag))
    ag.neighbors(0)
    assert set(vars(ag)) == {"_adjacent"} and ag._adjacent is index
    fresh = AGDiagram(*ag)
    assert not vars(fresh)
    assert fresh == ag and hash(fresh) == hash(ag)
    assert depth_labels(fresh, exposure_set(signed, fresh)) == depth_labels(
        ag, exposure_set(signed, ag))
    assert set(vars(fresh)) == {"_adjacent"} and fresh._adjacent == index
