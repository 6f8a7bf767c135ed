from __future__ import annotations

import functools
import re

import pytest
from hypothesis import given, settings, strategies as st

from divides import (
    DivideError,
    assign_signs,
    build_ag,
    depth_labels,
    exposure_set,
    to_dot,
    trace_faces,
)
from divides.agdiagram import AGDiagram, AGEdge, AGVertex
from divides.report import run_pipeline
from conftest import CORPUS_NAMES, entry, generic_chords, hand_built_ag, pipeline, position


def _edge_labels(ag):
    return sorted(
        (ag.vertices[e.u].label, ag.vertices[e.v].label, e.multiplicity)
        for e in ag.edges
    )


def test_a1_single_saddle():
    r = pipeline("a1")
    assert r.ag.census() == (0, 1, 0)
    assert r.ag.edges == ()


def test_e6_nine_edges():
    r = pipeline("e6")
    assert r.ag.census() == (2, 3, 1)
    assert _edge_labels(r.ag) == sorted(
        [
            ("v-_1", "v0_1", 1),
            ("v-_1", "v0_2", 1),
            ("v-_1", "v+_1", 1),
            ("v-_2", "v0_2", 1),
            ("v-_2", "v0_3", 1),
            ("v-_2", "v+_1", 1),
            ("v0_1", "v+_1", 1),
            ("v0_2", "v+_1", 1),
            ("v0_3", "v+_1", 1),
        ]
    )


def test_a4_path():
    r = pipeline("a4")
    assert _edge_labels(r.ag) == sorted(
        [("v-_1", "v0_1", 1), ("v-_2", "v0_1", 1), ("v-_2", "v0_2", 1)]
    )


def test_vertex_counts_match_mu(corpus_names):
    for name in corpus_names:
        r = pipeline(name)
        n_minus, n_zero, n_plus = r.ag.census()
        assert r.ag.mu == len(r.signed.faces.region_indices) + r.inv.d == r.inv.mu
        assert n_zero == r.inv.d
        assert n_minus + n_plus == r.inv.d - r.inv.r + 1


def test_all_corpus_multiplicities_one(corpus_names):
    for name in corpus_names:
        assert all(e.multiplicity == 1 for e in pipeline(name).ag.edges), name


def test_edges_join_distinct_types(corpus_names):
    for name in corpus_names:
        ag = pipeline(name).ag
        for e in ag.edges:
            assert ag.vertices[e.u].vtype != ag.vertices[e.v].vtype


def test_exposure_e6_all():
    r = pipeline("e6")
    assert r.exposed == frozenset(range(6))


def test_exposure_a1():
    r = pipeline("a1")
    assert r.exposed == frozenset({0})


def test_exposure_depth1_all_but_center():
    r = pipeline("depth1")
    center = position(r.ag, "v0_6")
    assert r.exposed == frozenset(set(range(10)) - {center})


def test_depths_e6_zero():
    r = pipeline("e6")
    assert r.depths.depth == (0,) * 6
    assert r.depths.diagram_depth == 0


def test_depths_depth1():
    r = pipeline("depth1")
    center = position(r.ag, "v0_6")
    assert r.depths.depth[center] == 1
    assert sum(r.depths.depth) == 1
    assert r.depths.diagram_depth == 1


def test_depth_bfs_on_synthetic_path():
    # a path with only one endpoint exposed peels to depths 0, 1, 2, ...
    vertices = tuple(
        AGVertex(label=f"v{'-' if i % 2 == 0 else '0'}_{i // 2 + 1}",
                 vtype="-" if i % 2 == 0 else "0",
                 origin=("region", i))
        for i in range(5)
    )
    # positions in diagram order: minus block = 0,1,2 ; zero block = 3,4
    # path in declaration: m1 - z1 - m2 - z2 - m3 -> positions 0-3-1-4-2
    edges = (AGEdge(0, 3, 1), AGEdge(1, 3, 1), AGEdge(1, 4, 1), AGEdge(2, 4, 1))
    order = [0, 3, 1, 4, 2]
    ag = AGDiagram(
        vertices=tuple(vertices[i] for i in range(5)), edges=edges
    )
    labels = depth_labels(ag, frozenset({order[0]}))
    assert [labels.depth[p] for p in order] == [0, 1, 2, 3, 4]
    assert labels.diagram_depth == 4


def test_to_dot_deterministic_and_counts():
    r = pipeline("e6")
    text1 = to_dot(r.ag, r.depths)
    text2 = to_dot(r.ag, r.depths)
    assert text1 == text2
    assert text1.count("--") == 9
    r1 = pipeline("a1")
    assert to_dot(r1.ag, r1.depths).count("--") == 0


def test_build_ag_reorder_preserves_structure():
    r = pipeline("e6")
    swapped = build_ag(r.signed, {"-": (2, 1), "0": (3, 1, 2)})
    assert swapped.census() == r.ag.census()
    assert sorted(e.multiplicity for e in swapped.edges) == sorted(
        e.multiplicity for e in r.ag.edges
    )
    # origins are permuted, never lost
    assert sorted(v.origin for v in swapped.vertices) == sorted(
        v.origin for v in r.ag.vertices
    )


def test_build_ag_depends_only_on_signed_divide():
    sd = pipeline("a4").signed
    assert build_ag(sd) == pipeline("a4").ag
    exposed = exposure_set(sd, pipeline("a4").ag)
    assert exposed == pipeline("a4").exposed


PERMUTED_CASES = CORPUS_NAMES + [(k, seed) for k in range(3, 8) for seed in range(3)]


@functools.lru_cache(maxsize=None)
def _divide(case):
    return entry(case).divide if isinstance(case, str) else generic_chords(*case)


@functools.lru_cache(maxsize=None)
def _signed(case):
    divide = _divide(case)
    return assign_signs(divide, trace_faces(divide))


@st.composite
def _case_and_perms(draw):
    """A case and 1-based permutations of some of its vertex types."""
    case = draw(st.sampled_from(PERMUTED_CASES))
    census = dict(zip("-0+", build_ag(_signed(case)).census()))
    perms = {}
    for t, n in census.items():
        if draw(st.booleans()):
            perms[t] = tuple(draw(st.permutations(range(1, n + 1))))
    return case, perms


def _relabelled(ag, perms):
    """``ag`` with the vertices of each type t put in the order perms[t]:
    labels follow the new positions, origins go with their vertices, and
    each edge moves with its ends."""
    blocks = {t: [p for p, vx in enumerate(ag.vertices) if vx.vtype == t] for t in "-0+"}
    order = [blocks[t][i - 1] for t in "-0+" for i in perms.get(t, range(1, len(blocks[t]) + 1))]
    new_pos = {old: new for new, old in enumerate(order)}
    seen = {t: 0 for t in "-0+"}
    vertices = []
    for old in order:
        vx = ag.vertices[old]
        seen[vx.vtype] += 1
        vertices.append(AGVertex(f"v{vx.vtype}_{seen[vx.vtype]}", vx.vtype, vx.origin))
    edges = sorted(AGEdge(*sorted((new_pos[e.u], new_pos[e.v])), e.multiplicity) for e in ag.edges)
    return AGDiagram(vertices=tuple(vertices), edges=tuple(edges))


@settings(max_examples=120, deadline=None)
@given(_case_and_perms())
def test_build_ag_with_a_permutation_relabels_the_declaration_order(case_and_perms):
    case, perms = case_and_perms
    signed = _signed(case)
    assert build_ag(signed, perms) == _relabelled(build_ag(signed), perms)


@settings(max_examples=40, deadline=None)
@given(_case_and_perms())
def test_pipeline_passes_under_any_within_type_order(case_and_perms):
    """Same-type vanishing cycles are disjoint, so any order within a type is
    again distinguished: every verdict passes and the monodromy's
    characteristic polynomial and order do not move."""
    case, perms = case_and_perms
    permuted = run_pipeline(_divide(case), reorder=perms)
    assert all(permuted.verdicts.values()), permuted.verdicts
    plain = run_pipeline(_divide(case))
    assert (permuted.char_poly, permuted.order) == (plain.char_poly, plain.order)


def test_depth_labels_rejects_an_empty_exposed_set():
    with pytest.raises(DivideError, match="^depth undefined: exposed set is empty$"):
        depth_labels(pipeline("a3").ag, frozenset())


def test_depth_labels_names_the_vertices_cut_off_from_the_exposed_set():
    ag = hand_built_ag("-0+0", [(0, 1, 1), (1, 2, 1)])
    assert ag._adjacent[3] == []  # v0_4 is joined to nothing
    with pytest.raises(DivideError) as info:
        depth_labels(ag, frozenset({0}))
    assert str(info.value) == (
        "depth undefined for vertices disconnected from the exposed set: ['v0_4']")


@pytest.mark.parametrize("exposed, bad", [({-1}, [-1]), ({3}, [3]), ({-1, 1, 3, 7}, [-1, 3, 7])])
def test_depth_labels_refuses_exposed_positions_outside_the_diagram(exposed, bad):
    # -1 would wrap to the last vertex and 3 would index past the end.
    ag = hand_built_ag("-0+", [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(DivideError) as info:
        depth_labels(ag, frozenset(exposed))
    assert str(info.value) == f"depth undefined: exposed positions {bad} are outside range(3)"
    assert depth_labels(ag, frozenset({2})).depth == (2, 1, 0)


def test_build_ag_rejects_a_non_permutation():
    signed = _signed("e6")
    for t, perm in [("0", (1, 1, 2)), ("0", (1, 2)), ("0", (1, 2, 3, 4)), ("0", (0, 1, 2)),
                    ("-", (2,)), ("+", ()), ("x", (1,))]:
        with pytest.raises(DivideError, match=re.escape(f"invalid permutation for type '{t}': {perm}")):
            build_ag(signed, {t: perm})
