from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from divides import (
    MilnorLattice,
    depth1_cone,
    exceptional_certificate,
    pl_variation,
    quiver_dot,
    verify_adapted,
)
from divides.core import DivideError
from divides.report import run_pipeline
from divides.adapted import AdaptedVerdict, CertificateVerdict
from divides.lattice import PL_SIGN
from conftest import CORPUS_NAMES, freeze, generic_chords, hand_built_ag, pipeline, position


def _columns(lat):
    """The adapted family: the columns of S."""
    return tuple(zip(*lat.s_mat))


def test_adapted_vectors_examples():
    assert _columns(pipeline("a1").lattice) == ((1,),)
    assert _columns(pipeline("a2").lattice) == ((1, 0), (1, 1))
    assert _columns(pipeline("e6").lattice)[5] == (1, 1, 1, 1, 1, 1)


def test_adapted_clauses(corpus_names):
    for name in corpus_names:
        lat = pipeline(name).lattice
        i_mat, mu = lat.i_mat, lat.mu
        for j, vec in enumerate(_columns(lat)):
            assert vec[j] == 1
            assert all(vec[i] == 0 for i in range(j + 1, mu))
            assert all(vec[i] == i_mat[j][i] for i in range(j))


def test_pl_variation_a2():
    i_mat = pipeline("a2").lattice.i_mat
    assert pl_variation((1, 0), i_mat) == (-1, 0)
    assert pl_variation((1, 1), i_mat) == (0, -1)
    assert pl_variation((0, 0), i_mat) == (0, 0)


def test_pl_variation_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(DivideError,
                       match="^intersection vector has length 1, expected 2$"):
        pl_variation((1,), ((0, 1), (-1, 0)))


def test_pl_variation_perturbed_fails():
    # column 1 of S becomes (2, 1)
    lat = pipeline("a2").lattice._replace(s_mat=((1, 2), (0, 1)))
    verdict = verify_adapted(lat)
    assert not verdict.passed
    assert verdict.first_failure == (1, (-1, -1))


def test_verify_adapted_corpus(corpus_names):
    for name in corpus_names:
        assert verify_adapted(pipeline(name).lattice).passed, name


def test_variation_matrix_triangular():
    # column j of the variation matrix is the variation of the unit vector e_j
    for name in ("a3", "e6", "depth1"):
        i_mat = pipeline(name).lattice.i_mat
        mu = len(i_mat)
        for j in range(mu):
            col = pl_variation(tuple(int(i == j) for i in range(mu)), i_mat)
            assert col[j] == -1
            assert all(col[i] == 0 for i in range(j + 1, mu))


def _euler(lat):
    """E = 2 Id - S."""
    return [[2 * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(lat.s_mat)]


def test_euler_matrix_e6():
    r = pipeline("e6")
    e, mu = _euler(r.lattice), 6
    assert all(e[i][i] == 1 for i in range(mu))
    assert all(e[i][j] == 0 for i in range(mu) for j in range(i))
    uppers = {(i, j): e[i][j] for i in range(mu) for j in range(i + 1, mu) if e[i][j] != 0}
    assert len(uppers) == 9
    assert all(abs(x) == 1 for x in uppers.values())
    assert [(i, j, abs(x)) for (i, j), x in uppers.items()] == list(r.quiver.arrows)
    assert r.quiver.sigma == 1


def test_euler_matrix_a4_arrows():
    q = pipeline("a4").quiver
    assert [(i, j) for (i, j, w) in q.arrows] == [(0, 2), (1, 2), (1, 3)]
    assert all(w == 1 for (_, _, w) in q.arrows)


def test_euler_matrix_a1():
    assert _euler(pipeline("a1").lattice) == [[1]]
    assert pipeline("a1").quiver.arrows == ()


def test_certificate_passes_corpus(corpus_names):
    for name in corpus_names:
        r = pipeline(name)
        assert exceptional_certificate(r.lattice, r.ag).passed, name


def test_certificate_flags_lower_entry():
    r = pipeline("a3")
    s = [list(row) for row in r.lattice.s_mat]
    s[2][0] = -1  # E[2][0] = 1
    bad = r.lattice._replace(s_mat=freeze(s))
    verdict = exceptional_certificate(bad, r.ag)
    assert not verdict.passed
    assert verdict.violations == ((2, 0, 0, 1),)


def _a3_certificate_with(i, j, value):
    """The certificate of A_3, whose edges are (0, 1, 1) and (0, 2, 1), with
    S[i][j] set to ``value``."""
    r = pipeline("a3")
    assert r.ag.edges == ((0, 1, 1), (0, 2, 1))
    s = [list(row) for row in r.lattice.s_mat]
    s[i][j] = value
    return exceptional_certificate(r.lattice._replace(s_mat=freeze(s)), r.ag)


@pytest.mark.parametrize(
    "i, j, value, violations",
    [
        (1, 1, 2, ((1, 1, 1, 0),)),  # a diagonal entry of S set to 2
        (0, 2, 2, ((0, 2, 1, -2),)),  # magnitude 2 on a multiplicity-1 edge
        (1, 2, 1, ((1, 2, 0, -1),)),  # a nonzero upper entry where there is no edge
    ],
    ids=["diagonal", "magnitude", "no-edge"],
)
def test_certificate_flags_each_kind_of_entry(i, j, value, violations):
    verdict = _a3_certificate_with(i, j, value)
    assert not verdict.passed
    assert verdict.violations == violations


def test_certificate_reports_the_sign_of_an_upper_entry_without_asserting_it():
    # E[0][1] = +1 instead of -1: the magnitude is the multiplicity, so the
    # certificate passes
    verdict = _a3_certificate_with(0, 1, -1)
    assert verdict.passed and verdict.violations == ()


def test_quiver_dot_counts():
    r6 = pipeline("e6")
    labels = [v.label for v in r6.ag.vertices]
    dot = quiver_dot(r6.quiver, labels)
    assert dot.count("->") == 9
    assert dot == quiver_dot(r6.quiver, labels)
    r4 = pipeline("a4")
    assert quiver_dot(r4.quiver, [v.label for v in r4.ag.vertices]).count("->") == 3
    r1 = pipeline("a1")
    assert quiver_dot(r1.quiver, ["v0_1"]).count("->") == 0


def test_depth1_cone_corpus():
    r = pipeline("depth1")
    assert len(r.cones) == 1
    cone = r.cones[0]
    v = position(r.ag, "v0_6")
    assert cone.vertex == v
    assert r.ag.vertices[cone.partner].vtype == "-"
    mu = r.ag.mu
    want_var = tuple(
        -1 if i == v else (1 if i == cone.partner else 0) for i in range(mu)
    )
    assert pl_variation(cone.a_prime, r.lattice.i_mat) == want_var
    assert cone.passed
    # the cone class solves a' = a_v - a_partner
    a_v, a_w = (_columns(r.lattice)[p] for p in (v, cone.partner))
    assert cone.a_prime == tuple(x - y for x, y in zip(a_v, a_w))


def test_depth1_cone_rejects_depth0():
    r = pipeline("depth1")
    with pytest.raises(DivideError, match="not depth 1"):
        depth1_cone(r.ag, r.depths, r.lattice, 0)


@pytest.mark.parametrize("pos", [-1, 10])
def test_depth1_cone_rejects_a_position_out_of_range(pos):
    r = pipeline("depth1")
    assert r.ag.mu == 10
    with pytest.raises(DivideError, match=f"^vertex position {pos} out of range$"):
        depth1_cone(r.ag, r.depths, r.lattice, pos)


def test_depth1_cone_sum_property():
    # the two components a' and a_partner (column partner of S) add up to
    # column v of S, whose variation is -e_v
    r = pipeline("depth1")
    cone = r.cones[0]
    i_mat, mu = r.lattice.i_mat, r.lattice.mu
    a_partner = _columns(r.lattice)[cone.partner]
    total = tuple(
        x + y for x, y in zip(pl_variation(cone.a_prime, i_mat), pl_variation(a_partner, i_mat))
    )
    assert total == tuple(-1 if i == cone.vertex else 0 for i in range(mu))
    # moving the partner's column of S keeps the total and fails only
    # var(a') = -(e_v - e_partner); moving both columns alike keeps a' and
    # fails only the total
    for moved in ((cone.partner,), (cone.vertex, cone.partner)):
        s = [list(row) for row in r.lattice.s_mat]
        for col in moved:
            s[0][col] += 1
        got = depth1_cone(r.ag, r.depths, r.lattice._replace(s_mat=freeze(s)),
                          cone.vertex)
        assert (got.a_prime == cone.a_prime) == (len(moved) == 2)
        assert not got.passed, moved


def test_pl_variation_linearity_explicit():
    i_mat = pipeline("e6").lattice.i_mat
    a = (1, -2, 0, 3, 1, 0)
    b = (0, 4, -1, 2, 2, -3)
    ab = tuple(x + y for x, y in zip(a, b))
    va = pl_variation(a, i_mat)
    vb = pl_variation(b, i_mat)
    assert pl_variation(ab, i_mat) == tuple(x + y for x, y in zip(va, vb))


@pytest.mark.parametrize("k, seed", [(4, 0), (5, 1), (6, 2), (7, 0)])
def test_variation_inverts_seifert_on_random_vectors(k, seed):
    # var = -S^{-1}: the variation of S x is -x
    lat = run_pipeline(generic_chords(k, seed)).lattice
    s, mu = lat.s_mat, lat.mu
    rng = random.Random(f"{k}:{seed}")
    for n in range(40):
        x = tuple(
            rng.randint(-3, 3) if rng.random() < (0.1 if n % 2 else 0.6) else 0
            for _ in range(mu)
        )
        sx = tuple(sum(a * b for a, b in zip(row, x)) for row in s)
        assert pl_variation(sx, lat.i_mat) == tuple(-v for v in x)


@pytest.mark.parametrize("k, seed", [(5, 0), (7, 1)])
def test_depth1_cones_on_chords(k, seed):
    r = run_pipeline(generic_chords(k, seed))
    depth1 = [p for p, d in enumerate(r.depths.depth) if d == 1]
    assert depth1 and [c.vertex for c in r.cones] == depth1
    assert all(c.passed for c in r.cones)
    columns = _columns(r.lattice)
    for c in r.cones:
        assert c.a_prime == tuple(
            x - y for x, y in zip(columns[c.vertex], columns[c.partner])
        )


def test_column_index_is_built_once_per_lattice_not_per_cone(monkeypatch):
    from divides import adapted, lattice

    build = lattice.column_nonzeros
    calls = []

    def counted(i_mat):
        calls.append(len(i_mat))
        return build(i_mat)

    monkeypatch.setattr(lattice, "column_nonzeros", counted)
    monkeypatch.setattr(adapted, "column_nonzeros", counted)
    counts = []
    for k in (5, 12):
        calls.clear()
        cones = run_pipeline(generic_chords(k, 0)).cones
        counts.append((len(cones), len(calls)))
    (few, calls_few), (many, calls_many) = counts
    assert 0 < few < many == 41
    # MilnorLattice.columns only, which the monodromy reads too
    assert calls_few == calls_many == 1


@functools.lru_cache(maxsize=None)
def _lattice(name):
    if name.startswith("chords"):
        return run_pipeline(generic_chords(int(name[6:]), 0)).lattice
    return pipeline(name).lattice


@pytest.mark.parametrize("name", ["a5", "chords5"])
def test_verify_adapted_reads_the_intersection_matrix_it_is_given(name):
    # S stays the clean one; every antisymmetric one-unit change of I moves
    # -S^{-1}, so the iteration on the corrupted I must reject the family.
    lat = _lattice(name)
    assert verify_adapted(lat).passed
    for m in range(lat.mu):
        for k in range(m):
            rows = [list(row) for row in lat.i_mat]
            rows[m][k] += 1
            rows[k][m] -= 1
            bad = MilnorLattice(i_mat=freeze(rows), s_mat=lat.s_mat)
            assert not verify_adapted(bad).passed, (m, k)


def _dense_variation(vector, i_mat):
    """The iteration with the full sum over every m: O(mu^2) per class."""
    mu = len(i_mat)
    c = [0] * mu
    for k in range(mu - 1, -1, -1):
        pairing = vector[k] + sum(c[m] * i_mat[m][k] for m in range(mu))
        c[k] += PL_SIGN * pairing
    return tuple(c)


VARIATION_LATTICES = CORPUS_NAMES + [f"chords{k}" for k in range(3, 8)]


@st.composite
def lattice_and_vector(draw):
    i_mat = _lattice(draw(st.sampled_from(VARIATION_LATTICES))).i_mat
    mu = len(i_mat)
    vector = draw(st.lists(st.integers(-5, 5) | st.integers(), min_size=mu, max_size=mu))
    return i_mat, tuple(vector)


@settings(max_examples=150, deadline=None)
@given(lattice_and_vector())
def test_pl_variation_matches_dense_iteration(case):
    i_mat, vector = case
    assert pl_variation(vector, i_mat) == _dense_variation(vector, i_mat)


@functools.lru_cache(maxsize=None)
def _result(name):
    if name.startswith("chords"):
        return run_pipeline(generic_chords(int(name[6:]), 0))
    return pipeline(name)


def _verify_adapted_reference(lat) -> AdaptedVerdict:
    """``verify_adapted`` one column of S at a time, each by the dense iteration."""
    mu = lat.mu
    passes, first_failure = [], None
    for j, vec in enumerate(zip(*lat.s_mat)):
        got = _dense_variation(vec, lat.i_mat)
        ok = got == tuple(PL_SIGN * (i == j) for i in range(mu))
        passes.append(ok)
        if not ok and first_failure is None:
            first_failure = (j, got)
    return AdaptedVerdict(passes=tuple(passes), first_failure=first_failure)


def _with_entry(m, i, j, value):
    rows = [list(row) for row in m]
    rows[i][j] = value
    return freeze(rows)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(VARIATION_LATTICES),
    which=st.sampled_from(("I", "S")),
    data=st.data(),
)
def test_verify_adapted_matches_the_per_column_reference_on_a_corrupted_lattice(name, which, data):
    # one entry of I or of S moved, antisymmetry and triangularity not kept
    lat = _result(name).lattice
    i = data.draw(st.integers(0, lat.mu - 1), label="i")
    j = data.draw(st.integers(0, lat.mu - 1), label="j")
    matrix = lat.i_mat if which == "I" else lat.s_mat
    value = matrix[i][j] + data.draw(st.sampled_from((-2, -1, 1, 2)), label="delta")
    if which == "I":
        bad = MilnorLattice(i_mat=_with_entry(lat.i_mat, i, j, value), s_mat=lat.s_mat)
    else:
        bad = MilnorLattice(i_mat=lat.i_mat, s_mat=_with_entry(lat.s_mat, i, j, value))
    assert verify_adapted(bad) == _verify_adapted_reference(bad)


def _certificate_reference(lat, ag) -> CertificateVerdict:
    """The certificate entry by entry, every entry of S checked."""
    expected = {(u, v): m for u, v, m in ag.edges}
    violations = []
    for i, row in enumerate(lat.s_mat):
        for j, s in enumerate(row):
            if i < j:
                want = expected.get((i, j), 0)
                if abs(s) != want:
                    violations.append((i, j, want, -s))
            elif s != (i == j):
                violations.append((i, j, int(i == j), 2 * (i == j) - s))
    return CertificateVerdict(passed=not violations, violations=tuple(violations))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(VARIATION_LATTICES), data=st.data())
def test_certificate_matches_the_entry_by_entry_reference_under_mutations_of_s(name, data):
    r = _result(name)
    s = r.lattice.s_mat
    position = st.integers(0, r.lattice.mu - 1)
    for _ in range(data.draw(st.integers(1, 4), label="count")):
        i, j = data.draw(position, label="i"), data.draw(position, label="j")
        s = _with_entry(s, i, j, data.draw(st.integers(-3, 3), label="value"))
    bad = r.lattice._replace(s_mat=s)
    assert exceptional_certificate(bad, r.ag) == _certificate_reference(bad, r.ag)


@pytest.mark.parametrize(
    "i, j, value",
    [(3, 3, -1), (4, 1, -1), (5, 0, -2), (0, 3, -1), (2, 5, -1)],
    ids=["diagonal -1", "below -1", "below -2", "upper sign", "upper no-edge -1"],
)
def test_certificate_matches_the_reference_on_negative_entries(i, j, value):
    # abs() of a row would pass a -1 on the diagonal
    r = pipeline("e6")
    bad = r.lattice._replace(s_mat=_with_entry(r.lattice.s_mat, i, j, value))
    verdict = exceptional_certificate(bad, r.ag)
    assert verdict == _certificate_reference(bad, r.ag)
    assert verdict.passed == (i < j and abs(value) == dict(
        ((u, v), m) for u, v, m in r.ag.edges).get((i, j), 0))


@pytest.mark.parametrize("multiplicity", [-1, 0, True, 1.0])
def test_certificate_matches_the_reference_on_an_edge_milnor_lattice_refuses(multiplicity):
    # S[0][1] = -1 read against the edge (0, 1, multiplicity): only the
    # entry-by-entry rule decides
    ag = hand_built_ag(("-", "0"), [(0, 1, multiplicity)])
    lat = MilnorLattice(i_mat=((0, 1), (-1, 0)), s_mat=((1, -1), (0, 1)))
    assert exceptional_certificate(lat, ag) == _certificate_reference(lat, ag)
