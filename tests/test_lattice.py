from __future__ import annotations

import pytest
import sympy

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
from divides.lattice import DIM_N, PL_SIGN
from divides.report import run_pipeline
from conftest import entry, generic_chords, pipeline


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
        assert intmat.det(s) == 1
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
        assert intmat.det(t) == 1


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
    assert intmat.det(((r.m_desc[0][0] - 1,),)) == 0
    assert intmat.det(r.lattice.i_mat) == 0


def test_identity_suite_reports_failures_without_aborting():
    lat = pipeline("a2").lattice
    bad_m = monodromy(((0, -2), (2, 0)))  # wrong lattice for this Seifert data
    suite = identity_suite(lat, bad_m, branch_count=1)
    assert not suite.passed
    assert len(suite.checks) == 3  # every check still evaluated
    failed = [c.key for c in suite.checks if not c.passed]
    assert failed == ["seifert_monodromy", "lefschetz_zero"]


def _product(factors, mu):
    m = intmat.identity(mu)
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


def test_char_poly_and_order_examples():
    r2 = pipeline("a2")
    cpo = char_poly_and_order(r2.m_desc)
    assert cpo.coefficients == (1, -1, 1)
    assert cpo.order == 6
    r1 = pipeline("a1")
    cpo1 = char_poly_and_order(r1.m_desc)
    assert cpo1.coefficients == (1, -1)
    assert cpo1.order == 1
    r4 = pipeline("a4")
    assert char_poly_and_order(r4.m_desc).order == 10


def test_char_poly_order_exceeds_max():
    cpo = char_poly_and_order(((1, 1), (0, 1)))
    assert cpo.order is None


def test_e6_monodromy_order_divides_12():
    r = pipeline("e6")
    assert r.cpo.order is not None and 12 % r.cpo.order == 0


def test_determinants_one_everywhere(corpus_names):
    for name in corpus_names:
        assert intmat.det(pipeline(name).m_desc) == 1


def test_seifert_rejects_asymmetric_input():
    with pytest.raises(DivideError):
        seifert_matrix(((0, 1), (1, 0)))


def test_lattice_from_ag_has_labels():
    r = pipeline("e6")
    assert r.lattice.basis == ("v-_1", "v-_2", "v0_1", "v0_2", "v0_3", "v+_1")


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
    coeffs, mu = r.cpo.coefficients, r.lattice.mu
    s = sympy.Matrix(r.lattice.s_mat)
    for t in range(mu + 1):
        want = sum(c * t ** (mu - i) for i, c in enumerate(coeffs))
        assert (t * s - s.T).det(method="bareiss") == want, t
    if bp is not None:
        assert coeffs == _brieskorn_pham_charpoly(*bp)
