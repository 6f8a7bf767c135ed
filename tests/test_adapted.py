from __future__ import annotations

import random

import pytest

from divides import (
    adapted_vectors,
    depth1_cone,
    euler_matrix,
    exceptional_certificate,
    pl_variation,
    quiver_dot,
    verify_adapted,
)
from divides.adapted import AdaptedFamily, EulerQuiver
from divides.core import DivideError
from divides.report import run_pipeline
from conftest import generic_chords, pipeline


def test_adapted_vectors_examples():
    assert adapted_vectors(pipeline("a1").lattice.s_mat).vectors == ((1,),)
    assert adapted_vectors(pipeline("a2").lattice.s_mat).vectors == ((1, 0), (1, 1))
    e6 = adapted_vectors(pipeline("e6").lattice.s_mat)
    assert e6.vectors[5] == (1, 1, 1, 1, 1, 1)


def test_adapted_clauses(corpus_names):
    for name in corpus_names:
        lat = pipeline(name).lattice
        i_mat, fam, mu = lat.i_mat, adapted_vectors(lat.s_mat), lat.mu
        for j, vec in enumerate(fam.vectors):
            assert vec[j] == 1
            assert all(vec[i] == 0 for i in range(j + 1, mu))
            assert all(vec[i] == i_mat[j][i] for i in range(j))


def test_pl_variation_a2():
    i_mat = pipeline("a2").lattice.i_mat
    assert pl_variation((1, 0), i_mat) == (-1, 0)
    assert pl_variation((1, 1), i_mat) == (0, -1)
    assert pl_variation((0, 0), i_mat) == (0, 0)


def test_pl_variation_perturbed_fails():
    i_mat = pipeline("a2").lattice.i_mat
    fam = AdaptedFamily(vectors=((1, 0), (2, 1)))
    verdict = verify_adapted(fam, i_mat)
    assert not verdict.passed
    assert verdict.first_failure == (1, (-1, -1))


def test_verify_adapted_corpus(corpus_names):
    for name in corpus_names:
        lat = pipeline(name).lattice
        assert verify_adapted(adapted_vectors(lat.s_mat), lat.i_mat).passed, name


def test_variation_matrix_triangular():
    # column j of the variation matrix is the variation of the unit vector e_j
    for name in ("a3", "e6", "depth1"):
        i_mat = pipeline(name).lattice.i_mat
        mu = len(i_mat)
        for j in range(mu):
            col = pl_variation(tuple(int(i == j) for i in range(mu)), i_mat)
            assert col[j] == -1
            assert all(col[i] == 0 for i in range(j + 1, mu))


def test_euler_matrix_e6():
    q = pipeline("e6").quiver
    mu = 6
    assert all(q.e_mat[i][i] == 1 for i in range(mu))
    assert all(q.e_mat[i][j] == 0 for i in range(mu) for j in range(i))
    uppers = [q.e_mat[i][j] for i in range(mu) for j in range(i + 1, mu)
              if q.e_mat[i][j] != 0]
    assert len(uppers) == 9
    assert all(abs(x) == 1 for x in uppers)
    assert q.sigma == 1


def test_euler_matrix_a4_arrows():
    q = pipeline("a4").quiver
    assert [(i, j) for (i, j, w) in q.arrows] == [(0, 2), (1, 2), (1, 3)]
    assert all(w == 1 for (_, _, w) in q.arrows)


def test_euler_matrix_a1():
    assert pipeline("a1").quiver.e_mat == ((1,),)
    assert pipeline("a1").quiver.arrows == ()


def test_certificate_passes_corpus(corpus_names):
    for name in corpus_names:
        r = pipeline(name)
        assert exceptional_certificate(r.quiver, r.ag).passed, name


def test_certificate_flags_lower_entry():
    r = pipeline("a3")
    e = [list(row) for row in r.quiver.e_mat]
    e[2][0] = 1
    bad = EulerQuiver(
        e_mat=tuple(tuple(row) for row in e),
        arrows=r.quiver.arrows,
        sigma=1,
        grading_note="",
    )
    verdict = exceptional_certificate(bad, r.ag)
    assert not verdict.passed
    assert (2, 0, 0, 1) in verdict.violations


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
    v = r.ag.position_by_label("v0_6")
    assert cone.vertex == v
    assert r.ag.vertices[cone.partner].vtype == "-"
    mu = r.ag.mu
    want_var = tuple(
        -1 if i == v else (1 if i == cone.partner else 0) for i in range(mu)
    )
    assert cone.variation_a_prime == want_var
    assert cone.total_variation == tuple(-1 if i == v else 0 for i in range(mu))
    assert len(cone.components) == r.depths.depth[v] + 1 == 2
    assert cone.passed
    # the cone class solves a' = a_v - a_partner
    fam = adapted_vectors(r.lattice.s_mat)
    a_v, a_w = fam.vectors[v], fam.vectors[cone.partner]
    assert cone.a_prime == tuple(x - y for x, y in zip(a_v, a_w))


def test_depth1_cone_rejects_depth0():
    r = pipeline("depth1")
    with pytest.raises(DivideError, match="not depth 1"):
        depth1_cone(r.ag, r.depths, r.lattice, 0)


def test_depth1_cone_sum_property():
    r = pipeline("depth1")
    cone = r.cones[0]
    total = tuple(
        x + y for x, y in zip(cone.variation_a_prime, cone.variation_partner)
    )
    assert total == cone.total_variation


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
    fam = adapted_vectors(r.lattice.s_mat)
    for c in r.cones:
        assert c.a_partner == fam.vectors[c.partner]
        assert c.a_prime == tuple(
            x - y for x, y in zip(fam.vectors[c.vertex], fam.vectors[c.partner])
        )
