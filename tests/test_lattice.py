from __future__ import annotations

import functools
import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from divides import (
    __version__,
    assign_signs,
    build_ag,
    exceptional_certificate,
    gen_a,
    identity_suite,
    invariants,
    milnor_lattice,
    monodromy,
    trace_faces,
    verify_adapted,
)
from divides import intmat
from divides.agdiagram import AGEdge
from divides.core import DivideError, SignedDivide
from divides.lattice import DIM_N, PL_SIGN
from divides.report import build_report, report_json, run_pipeline
from conftest import (
    BILLIARDS,
    CORPUS_NAMES,
    charpoly_moduli,
    entry,
    freeze,
    generic_chords,
    hand_built_ag,
    identity,
    lattice_of,
    lattice_reference,
    pipeline,
    random_within_type_orders,
    transvection,
    transvection_product,
)
from test_golden import CONE_KEYS, V3_KEYS, _key_paths


def test_pl_sign():
    # the Picard-Lefschetz sign (-1)^(n(n-1)/2) for plane curves, n = 2
    assert DIM_N == 2
    assert PL_SIGN == (-1) ** (DIM_N * (DIM_N - 1) // 2) == -1


def _neg(m):
    return tuple(tuple(-x for x in row) for row in m)


def test_intersection_a1():
    assert pipeline("a1").lattice.i_mat == ((0,),)


def test_intersection_a2():
    assert pipeline("a2").lattice.i_mat == ((0, -1), (1, 0))


def test_intersection_e6_antisymmetric_with_nine_ones():
    i_mat = pipeline("e6").lattice.i_mat
    assert intmat.transpose(i_mat) == _neg(i_mat)
    ones = [(r, c) for r in range(6) for c in range(6) if i_mat[r][c] == 1]
    assert len(ones) == 9
    assert all(r > c for r, c in ones)


def test_seifert_examples():
    assert pipeline("a1").lattice.s_mat == ((1,),)
    assert pipeline("a2").lattice.s_mat == ((1, 1), (0, 1))


def test_seifert_triangular_unipotent(corpus_names):
    for name in corpus_names:
        lat = pipeline(name).lattice
        s, mu = lat.s_mat, lat.mu
        assert all(s[i][i] == 1 for i in range(mu))
        assert all(s[i][j] == 0 for i in range(mu) for j in range(i))
        assert sympy.Matrix(s).det() == 1
        st = intmat.transpose(s)
        assert tuple(
            tuple(st[i][j] - s[i][j] for j in range(mu)) for i in range(mu)
        ) == lat.i_mat


def test_transvection_a2():
    i_mat = pipeline("a2").lattice.i_mat
    assert transvection(i_mat, 0) == ((1, -1), (0, 1))
    # T_k fixes its own cycle
    for k in range(2):
        t = transvection(i_mat, k)
        col = tuple(t[i][k] for i in range(2))
        assert col == tuple(1 if i == k else 0 for i in range(2))
        assert sympy.Matrix(t).det() == 1


def test_disjoint_same_type_transvections_commute():
    i_mat = pipeline("a4").lattice.i_mat
    # v-_1 and v-_2 are disjoint (I[0][1] = 0)
    t0, t1 = transvection(i_mat, 0), transvection(i_mat, 1)
    assert intmat.mul(t0, t1) == intmat.mul(t1, t0)


def test_monodromy_a2():
    r = pipeline("a2")
    assert r.m_desc == ((0, -1), (1, 1))
    s = r.lattice.s_mat
    assert intmat.mul(s, r.m_desc) == intmat.transpose(s)


def test_monodromy_a1_trivial():
    assert pipeline("a1").m_desc == ((1,),)


def test_identity_suite_passes_corpus(corpus_names):
    for name in corpus_names:
        r = pipeline(name)
        assert r.suite.passed, (name, [c for c in r.suite.checks if not c.passed])


def test_identity_suite_a1_determinants():
    r = pipeline("a1")
    assert sympy.Matrix(((r.m_desc[0][0] - 1,),)).det() == 0
    assert sympy.Matrix(r.lattice.i_mat).det() == 0


@pytest.mark.parametrize(
    "make, mu",
    [(lambda: gen_a(200).divide, 200), (lambda: generic_chords(15, 0), 196)],
    ids=["a200", "chords15"],
)
def test_intersection_rank_at_large_mu(make, mu):
    # rank(I) = mu - r + 1 on the largest inputs, where fill and entry growth show
    divide = make()
    signed = assign_signs(divide, trace_faces(divide))
    inv = invariants(signed)
    i_mat = milnor_lattice(build_ag(signed)).i_mat
    assert len(i_mat) == inv.mu == mu
    assert intmat.rank(i_mat) == mu - inv.r + 1


def test_identity_suite_reports_failures_without_aborting():
    lat = pipeline("a2").lattice
    bad_m = monodromy(lattice_of(((0, -2), (2, 0))))  # wrong lattice for this Seifert data
    suite = identity_suite(lat, bad_m, branch_count=1)
    assert not suite.passed
    assert len(suite.checks) == 3  # every check still evaluated
    failed = [c.key for c in suite.checks if not c.passed]
    assert failed == ["seifert_monodromy", "lefschetz_zero"]


def _product(factors, mu):
    m = identity(mu)
    for t in factors:
        m = intmat.mul(m, t)
    return m


@pytest.mark.parametrize("mutant", ["flipped sign", "ascending order", "last twist skipped"])
def test_seifert_monodromy_catches_wrong_twist_products(mutant):
    r = pipeline("a5")
    i_mat, mu = r.lattice.i_mat, r.lattice.mu
    twists = [transvection(i_mat, k) for k in range(mu)]
    assert _product(twists, mu) == r.m_desc
    if mutant == "flipped sign":  # x -> x - PL_SIGN (x . V_k) V_k
        twists = [
            tuple(tuple(2 * (i == j) - t[i][j] for j in range(mu)) for i in range(mu))
            for t in twists
        ]
    elif mutant == "ascending order":
        twists = twists[::-1]
    else:
        twists = twists[:-1]
    suite = identity_suite(r.lattice, _product(twists, mu), r.inv.r)
    (check,) = [c for c in suite.checks if c.key == "seifert_monodromy"]
    assert not check.passed


def _char_poly_and_order(m):
    char_poly = intmat.charpoly(m)
    return char_poly, intmat.matrix_order(m, char_poly)


def test_char_poly_and_order_examples():
    assert _char_poly_and_order(pipeline("a2").m_desc) == ((1, -1, 1), 6)
    assert _char_poly_and_order(pipeline("a1").m_desc) == ((1, -1), 1)
    assert _char_poly_and_order(pipeline("a4").m_desc)[1] == 10


def test_char_poly_order_exceeds_max():
    assert _char_poly_and_order(((1, 1), (0, 1)))[1] is None


def test_e6_monodromy_order_divides_12():
    r = pipeline("e6")
    assert r.order is not None and 12 % r.order == 0


def test_determinants_one_everywhere(corpus_names):
    for name in corpus_names:
        assert sympy.Matrix(pipeline(name).m_desc).det() == 1


# A sorted hand-built diagram whose types are not in the order build_ag
# gives them: "+" at position 2 comes before "0" at position 3.
HAND_BUILT = (("-", "0", "+", "0"), [(0, 1, 3), (0, 2, 1), (0, 3, 2), (1, 2, 1), (2, 3, 1)])


def _assert_lattice_matches_reference(ag):
    lat = milnor_lattice(ag)
    assert lat == lattice_reference(ag)
    assert all(type(x) is int for m in lat for row in m for x in row)


CHORDS = [(k, seed) for k in range(3, 8) for seed in range(3)]


@pytest.mark.parametrize("case", CORPUS_NAMES + CHORDS, ids=str)
def test_milnor_lattice_matches_the_reference(case):
    # each case also under three random within-type orders
    divide = entry(case).divide if isinstance(case, str) else generic_chords(*case)
    signed = assign_signs(divide, trace_faces(divide))
    ag = build_ag(signed)
    _assert_lattice_matches_reference(ag)
    rng = random.Random(str(case))
    for _ in range(3):
        _assert_lattice_matches_reference(build_ag(signed, random_within_type_orders(ag, rng)))


def test_milnor_lattice_matches_the_reference_on_a_hand_built_diagram():
    _assert_lattice_matches_reference(hand_built_ag(*HAND_BUILT))


# Edge lists that break the edge rule of AGDiagram, and the diagnostic of each.
BROKEN_EDGES = {
    "reversed": (("-", "0"), [(1, 0, 1)], "AG edge (1, 0) is out of range or out of order"),
    "repeated": (("-", "0", "+", "0"), [(0, 1, 3), (0, 3, 2), (0, 3, 5)],
                 "AG edge (0, 3) is out of range or out of order"),
    "out_of_order": (("-", "0", "+"), [(0, 2, 4), (0, 1, 2)],
                     "AG edge (0, 1) is out of range or out of order"),
    "negative": (("-", "0"), [(-1, 0, 1)], "AG edge (-1, 0) is out of range or out of order"),
    "loop": (("-", "0"), [(0, 1, 1), (1, 1, 1)], "AG edge (1, 1) is out of range or out of order"),
    "at_mu": (("-", "0", "+"), [(0, 1, 1), (1, 3, 1)],
              "AG edge (1, 3) is out of range or out of order"),
    "same_type": (("-", "-"), [(0, 1, 1)], "AG edge between same-type vertices v-_1, v-_2"),
    "zero_multiplicity": (("-", "0", "+"), [(0, 1, 1), (1, 2, 0)],
                          "AG edge (1, 2) has multiplicity 0, not an int >= 1"),
    "negative_multiplicity": (("-", "0"), [(0, 1, -2)],
                              "AG edge (0, 1) has multiplicity -2, not an int >= 1"),
    "bool_multiplicity": (("-", "0"), [(0, 1, True)],
                          "AG edge (0, 1) has multiplicity True, not an int >= 1"),
}


@pytest.mark.parametrize("name", BROKEN_EDGES)
def test_milnor_lattice_refuses_an_edge_list_that_breaks_the_rule(name):
    kinds, edges, message = BROKEN_EDGES[name]
    with pytest.raises(DivideError) as caught:
        milnor_lattice(hand_built_ag(kinds, edges))
    assert str(caught.value) == message


def test_milnor_lattice_refuses_a_same_type_edge_from_a_hand_signed_divide():
    # every face of e6 signed -1: regions that share a divide edge are both
    # minus regions; build_ag writes their edge and the lattice refuses it
    divide = entry("e6").divide
    faces = trace_faces(divide)
    ag = build_ag(SignedDivide(divide, faces, (-1,) * len(faces.faces)))
    with pytest.raises(DivideError) as caught:
        milnor_lattice(ag)
    assert str(caught.value) == "AG edge between same-type vertices v-_1, v-_2"


@functools.lru_cache(maxsize=None)
def _ag_of(case):
    divide = entry(case).divide if isinstance(case, str) else generic_chords(*case)
    return build_ag(assign_signs(divide, trace_faces(divide)))


# a1 and a2 have fewer than two edges to swap
@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from([n for n in CORPUS_NAMES if n not in ("a1", "a2")] + CHORDS[::3]),
    how=st.sampled_from(("swap", "reverse", "duplicate", "out_of_range")),
    data=st.data(),
)
def test_a_corrupted_edge_list_cannot_enter_the_lattice(case, how, data):
    ag = _ag_of(case)
    lat = milnor_lattice(ag)
    assert lat == lattice_reference(ag)
    assert exceptional_certificate(lat, ag).violations == ()

    edges = list(ag.edges)
    i = data.draw(st.integers(0, len(edges) - 1), label="i")
    u, v, m = edges[i]
    if how == "swap":
        j = data.draw(st.integers(0, len(edges) - 1).filter(lambda j: j != i), label="j")
        edges[i], edges[j] = edges[j], edges[i]
    elif how == "reverse":
        edges[i] = AGEdge(v, u, m)
    elif how == "duplicate":
        edges.insert(i, edges[i])
    else:
        bad = data.draw(st.integers(-2, -1) | st.integers(ag.mu, ag.mu + 1), label="bad")
        at_u = data.draw(st.booleans(), label="at u")
        edges[i] = AGEdge(bad, v, m) if at_u else AGEdge(u, bad, m)
    with pytest.raises(DivideError):
        milnor_lattice(ag._replace(edges=tuple(edges)))


@pytest.mark.parametrize("case", CHORDS, ids=str)
def test_monodromy_of_chords_is_the_dense_product_of_transvections(case):
    # the corpus is checked in test_intmat
    lat = milnor_lattice(_ag_of(case))
    assert monodromy(lat) == transvection_product(lat.i_mat)


@st.composite
def hand_built_diagrams(draw):
    """A diagram of 1 to 9 vertices of drawn types, with an edge of
    multiplicity 1 to 3, or none, between each pair of different types."""
    kinds = draw(st.lists(st.sampled_from("-0+"), min_size=1, max_size=9))
    edges = []
    for u in range(len(kinds)):
        for v in range(u + 1, len(kinds)):
            if kinds[u] != kinds[v]:
                m = draw(st.integers(0, 3))
                if m:
                    edges.append((u, v, m))
    return hand_built_ag(kinds, edges)


@settings(max_examples=100, deadline=None)
@given(hand_built_diagrams())
def test_monodromy_of_a_hand_built_diagram_is_the_dense_product_of_transvections(ag):
    lat = milnor_lattice(ag)
    assert lat == lattice_reference(ag)
    assert monodromy(lat) == transvection_product(lat.i_mat)


def test_lattice_from_ag_has_labels():
    r = pipeline("e6")
    assert r.lattice.mu == r.ag.mu == 6
    labels = tuple(v.label for v in r.ag.vertices)
    assert labels == ("v-_1", "v-_2", "v0_1", "v0_2", "v0_3", "v+_1")


def _brieskorn_pham_charpoly(a: int, b: int) -> tuple[int, ...]:
    """prod (t - exp(2 pi i (s/a + u/b))), 1 <= s < a, 1 <= u < b, grouped
    by eigenvalue order into cyclotomic factors."""
    t = sympy.Symbol("t")
    counts: dict[int, int] = {}
    for s in range(1, a):
        for u in range(1, b):
            d = sympy.Rational(s, a) + sympy.Rational(u, b)
            counts[d.q] = counts.get(d.q, 0) + 1
    poly = sympy.Integer(1)
    for d, c in counts.items():
        assert c % sympy.totient(d) == 0
        poly *= sympy.cyclotomic_poly(d, t) ** (c // sympy.totient(d))
    return tuple(int(c) for c in sympy.Poly(poly, t).all_coeffs())


SEIFERT_CASES = (
    [(f"a{n}", (n + 1, 2)) for n in range(1, 13)]
    + [("e6", (3, 4)), ("depth1", None)]
    + [(f"chords{k}", (k, k)) for k in range(3, 7)]
    + [(name, (p, q)) for name, (p, q, _sign) in BILLIARDS.items()]
)


@pytest.mark.parametrize("name, bp", SEIFERT_CASES, ids=[c[0] for c in SEIFERT_CASES])
def test_alexander_polynomial_of_seifert_form_is_char_poly(name, bp):
    # det(t S - S^T) is monic of degree mu (det S = 1); it equals the
    # characteristic polynomial of M = S^{-1} S^T.  Both sides are compared
    # at t = 0..mu, with sympy's integer determinant.
    if name.startswith("chords"):
        r = run_pipeline(generic_chords(int(name[6:]), 0))
    else:
        r = pipeline(name)
    coeffs, mu = r.char_poly, r.lattice.mu
    s = sympy.Matrix(r.lattice.s_mat)
    for t in range(mu + 1):
        want = sum(c * t ** (mu - i) for i, c in enumerate(coeffs))
        assert (t * s - s.T).det(method="bareiss") == want, t
    if bp is not None:
        assert coeffs == _brieskorn_pham_charpoly(*bp)


def _inertia(sym) -> tuple[int, int, int]:
    """(positive, negative, zero) counts of a symmetric integer matrix's
    eigenvalues, by congruence elimination over Fraction.  A zero diagonal
    with a nonzero entry a_ij first gets row and column j added to row and
    column i, which makes a_ii = 2 a_ij."""
    a = [[Fraction(x) for x in row] for row in sym]
    live = list(range(len(a)))
    pos = neg = 0
    while live:
        p = next((i for i in live if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live if a[i][j]), None)
            if pair is None:
                break
            p, j = pair
            for row in a:
                row[p] += row[j]
            a[p] = [x + y for x, y in zip(a[p], a[j])]
        live.remove(p)
        pivot = a[p][p]
        pos, neg = pos + (pivot > 0), neg + (pivot < 0)
        for i in live:
            f = a[p][i] / pivot
            if f:
                for k in live:
                    a[i][k] -= f * a[p][k]
    return pos, neg, len(a) - pos - neg


def _brieskorn_pham_inertia(a: int, b: int) -> tuple[int, int, int]:
    """Over x = s/a + u/b, 1 <= s < a, 1 <= u < b: the counts of
    1/2 < x < 3/2, of x < 1/2 or x > 3/2, and of x = 1/2 or 3/2."""
    xs = [Fraction(s, a) + Fraction(u, b) for s in range(1, a) for u in range(1, b)]
    ends = (Fraction(1, 2), Fraction(3, 2))
    inside = sum(ends[0] < x < ends[1] for x in xs)
    on = sum(x in ends for x in xs)
    return inside, len(xs) - inside - on, on


INERTIA_CASES = (
    [(f"a{n}", (n + 1, 2)) for n in range(1, 13)]
    + [("e6", (3, 4))]
    + [(f"chords{k}-s{seed}", (k, k)) for k in range(3, 8) for seed in (0, 1)]
    + [(name, (p, q)) for name, (p, q, _sign) in BILLIARDS.items()]
)


@pytest.mark.parametrize("name, bp", INERTIA_CASES, ids=[c[0] for c in INERTIA_CASES])
def test_inertia_of_symmetrised_seifert_form_is_brieskorn_pham(name, bp):
    """S + S^T has the inertia that Brieskorn's count over the spectrum
    gives; for instance 6 chords give (19, 2, 4)."""
    if name.startswith("chords"):
        k, seed = name[6:].split("-s")
        s = run_pipeline(generic_chords(int(k), int(seed))).lattice.s_mat
    else:
        s = pipeline(name).lattice.s_mat
    sym = [[x + y for x, y in zip(row, col)] for row, col in zip(s, zip(*s))]
    assert _inertia(sym) == _brieskorn_pham_inertia(*bp)


@pytest.mark.parametrize("n, e", [(36, 89), (72, 521)])
def test_char_poly_of_a_n_beyond_2_61_is_brieskorn_pham(monkeypatch, n, e):
    used = charpoly_moduli(monkeypatch)
    r = run_pipeline(gen_a(n).divide)
    assert used == [(1 << e) - 1]
    assert r.char_poly == _brieskorn_pham_charpoly(n + 1, 2)


def test_report_of_diagram_depth_2_notes_the_missing_towers(monkeypatch):
    """Nine generic chords: mu = 64, diagram depth 2, a cone at each of the
    23 depth-1 vertices and none at the 4 of depth 2."""
    used = charpoly_moduli(monkeypatch)
    result = run_pipeline(generic_chords(9, 0))
    report = json.loads(report_json(build_report(result, __version__, "0" * 64)))
    assert report["depth_note"] == (
        "diagram depth exceeds 1: cone towers for deeper vertices are not constructed"
    )
    assert _key_paths(report) == V3_KEYS | CONE_KEYS | {"depth_note"}
    depths = [v["depth"] for v in report["ag"]["vertices"]]
    assert (report["ag"]["diagram_depth"], depths.count(1), depths.count(2)) == (2, 23, 4)
    labels = [v["label"] for v in report["ag"]["vertices"]]
    depth1 = [label for label, depth in zip(labels, depths) if depth == 1]
    assert [c["vertex"] for c in report["depth1_cones"]] == depth1
    assert result.all_passed
    assert report["char_poly"]["coefficients"] == list(_brieskorn_pham_charpoly(9, 9))
    assert report["char_poly"]["order"] == 9
    assert used == [(1 << 521) - 1]


def hurwitz_move(i_mat: list, basis: list, i: int) -> None:
    """(d_i, d_(i+1)) -> (T_(d_i) d_(i+1), d_i) with T_d x = x + PL_SIGN (x . d) d.

    i_mat is the intersection matrix of the basis d and basis holds the d as
    columns in the starting basis; both are lists of lists, changed in place
    by the basis change P: I -> P^T I P and basis -> basis P.
    """
    c = PL_SIGN * i_mat[i + 1][i]
    for rows in (i_mat, basis):
        for row in rows:
            row[i], row[i + 1] = row[i + 1] + c * row[i], row[i]
    i_mat[i], i_mat[i + 1] = [y + c * x for x, y in zip(i_mat[i], i_mat[i + 1])], i_mat[i]


@functools.lru_cache(maxsize=None)
def _start_lattice(name: str):
    if name.startswith("chords"):
        return run_pipeline(generic_chords(int(name[6:]), 0)).lattice
    return pipeline(name).lattice


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["e6", "depth1", "a7", "chords5", "chords6"]),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=10),
)
def test_hurwitz_moves_keep_the_monodromy(name, picks):
    # Hurwitz moves act on distinguished bases and keep T_1 ... T_mu, so the
    # monodromy M' of the moved lattice I' = P^T I P satisfies M P = P M'.
    # Adjacent cycles of one type pair to 0, where a move is only a swap, so
    # each step picks a pair a < b with nonzero pairing, carries d_b down to
    # a + 1 and moves it past d_a.
    lat = _start_lattice(name)
    mu = lat.mu
    i_mat = [list(row) for row in lat.i_mat]
    basis = [list(row) for row in identity(mu)]
    for pick in picks:
        pairs = [(a, b) for a in range(mu) for b in range(a + 1, mu) if i_mat[a][b]]
        a, b = pairs[pick % len(pairs)]
        for i in range(b - 1, a - 1, -1):
            hurwitz_move(i_mat, basis, i)
    p, moved = freeze(basis), lattice_of(freeze(i_mat))
    assert moved.i_mat == intmat.mul(intmat.mul(intmat.transpose(p), lat.i_mat), p)
    m, m_moved = monodromy(lat), monodromy(moved)
    assert intmat.mul(m, p) == intmat.mul(p, m_moved)
    assert intmat.charpoly(m_moved) == intmat.charpoly(m)
    assert verify_adapted(moved).passed
