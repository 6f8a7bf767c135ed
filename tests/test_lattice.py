from __future__ import annotations

import pytest

from divides import (
    char_poly_and_order,
    identity_suite,
    intersection_matrix,
    milnor_lattice,
    monodromy,
    seifert_matrix,
    transvection,
)
from divides import intmat
from divides.core import DivideError
from divides.lattice import pl_sign_for_dim
from conftest import entry, pipeline


def test_pl_sign():
    assert pl_sign_for_dim(2) == -1
    assert pl_sign_for_dim(3) == -1
    assert pl_sign_for_dim(4) == 1
    assert pl_sign_for_dim(5) == 1


def test_intersection_a1():
    assert pipeline("a1").lattice.i_mat == ((0,),)


def test_intersection_a2():
    assert pipeline("a2").lattice.i_mat == ((0, -1), (1, 0))


def test_intersection_e6_antisymmetric_with_nine_ones():
    i_mat = pipeline("e6").lattice.i_mat
    assert intmat.transpose(i_mat) == intmat.neg(i_mat)
    ones = [(r, c) for r in range(6) for c in range(6) if i_mat[r][c] == 1]
    assert len(ones) == 9
    assert all(r > c for r, c in ones)


def test_seifert_examples():
    assert pipeline("a1").lattice.s_mat == ((1,),)
    assert pipeline("a2").lattice.s_mat == ((1, 0), (-1, 1))
    lat = pipeline("e6").lattice
    assert intmat.add(
        intmat.neg(lat.s_mat), intmat.transpose(lat.s_mat)
    ) == lat.i_mat


def test_seifert_triangular_unipotent(corpus_names):
    for name in corpus_names:
        s = pipeline(name).lattice.s_mat
        mu = len(s)
        assert all(s[i][i] == 1 for i in range(mu))
        assert all(s[i][j] == 0 for i in range(mu) for j in range(i + 1, mu))
        assert intmat.det(s) == 1


def test_transvection_a2():
    i_mat = pipeline("a2").lattice.i_mat
    assert transvection(i_mat, 0) == ((1, -1), (0, 1))
    # T_k fixes its own cycle
    for k in range(2):
        t = transvection(i_mat, k)
        col = tuple(t[i][k] for i in range(2))
        assert col == tuple(1 if i == k else 0 for i in range(2))
        assert intmat.det(t) == 1


def test_disjoint_same_type_transvections_commute():
    i_mat = pipeline("a4").lattice.i_mat
    # v-_1 and v-_2 are disjoint (I[0][1] = 0)
    t0, t1 = transvection(i_mat, 0), transvection(i_mat, 1)
    assert intmat.mul(t0, t1) == intmat.mul(t1, t0)


def test_monodromy_a2():
    pair = pipeline("a2").pair
    assert pair.m_desc == ((0, -1), (1, 1))
    assert pair.m_asc == ((1, -1), (1, 0))
    assert pair.rho_s == ((0, 1), (-1, 1))
    assert intmat.mul(pair.rho_s, pair.m_asc) == intmat.identity(2)


def test_monodromy_a1_trivial():
    pair = pipeline("a1").pair
    assert pair.m_desc == pair.m_asc == pair.rho_s == ((1,),)


def test_identity_suite_passes_corpus(corpus_names):
    for name in corpus_names:
        r = pipeline(name)
        assert r.suite.passed, (name, [c for c in r.suite.checks if not c.passed])


def test_identity_suite_a1_determinants():
    r = pipeline("a1")
    assert intmat.det(intmat.sub(r.pair.m_desc, intmat.identity(1))) == 0
    assert intmat.det(r.lattice.i_mat) == 0


def test_identity_suite_reports_failures_without_aborting():
    lat = pipeline("a2").lattice
    bad_pair = monodromy(((0, -2), (2, 0)))  # wrong lattice for this Seifert data
    suite = identity_suite(lat, bad_pair, branch_count=1)
    assert not suite.passed
    assert len(suite.checks) == 7  # every check still evaluated


def test_char_poly_and_order_examples():
    r2 = pipeline("a2")
    cpo = char_poly_and_order(r2.pair.m_desc)
    assert cpo.coefficients == (1, -1, 1)
    assert cpo.order == 6
    r1 = pipeline("a1")
    cpo1 = char_poly_and_order(r1.pair.m_desc)
    assert cpo1.coefficients == (1, -1)
    assert cpo1.order == 1
    r4 = pipeline("a4")
    assert char_poly_and_order(r4.pair.m_desc).order == 10


def test_char_poly_order_exceeds_max():
    cpo = char_poly_and_order(((1, 1), (0, 1)))
    assert cpo.order is None


def test_e6_monodromy_order_divides_12():
    r = pipeline("e6")
    assert r.cpo.order is not None and 12 % r.cpo.order == 0


def test_determinants_one_everywhere(corpus_names):
    for name in corpus_names:
        pair = pipeline(name).pair
        assert intmat.det(pair.m_desc) == 1
        assert intmat.det(pair.m_asc) == 1
        assert abs(intmat.det(pair.rho_s)) == 1


def test_char_poly_equality_on_tree_diagrams():
    # reversal of the twist product is a conjugation exactly when same-type
    # blocks let factors peel off; the path diagrams a_n all qualify
    for n in range(1, 13):
        pair = pipeline(f"a{n}").pair
        assert intmat.charpoly(pair.m_desc) == intmat.charpoly(pair.m_asc)


def test_ascending_product_trace_differs_off_trees():
    # with cycles in the diagram the two products are genuinely different
    pair = pipeline("e6").pair
    assert intmat.trace(pair.m_desc) == 1
    assert intmat.trace(pair.m_asc) == -7


def test_seifert_rejects_asymmetric_input():
    with pytest.raises(DivideError):
        seifert_matrix(((0, 1), (1, 0)))


def test_lattice_from_ag_has_labels():
    r = pipeline("e6")
    assert r.lattice.basis == ("v-_1", "v-_2", "v0_1", "v0_2", "v0_3", "v+_1")
