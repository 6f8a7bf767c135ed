"""The exact integer layer against sympy, and the order against closed forms."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from divides import gen_a, intmat, monodromy, seifert_matrix, transvection
from conftest import pipeline

SMALL = st.integers(-6, 6)
SPARSE = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3))
BIG = st.integers(-(10**20), 10**20)


def square(entries, max_n=6, min_n=1):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(intmat.freeze)
    )


def rectangular(entries):
    return st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda rc: st.lists(
            st.lists(entries, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(intmat.freeze)
    )


ANY_SQUARE = st.one_of(square(SMALL), square(SPARSE), square(BIG, max_n=5))
ANY_RECT = st.one_of(rectangular(SMALL), rectangular(SPARSE), rectangular(BIG))


def sympy_charpoly(m) -> tuple[int, ...]:
    x = sympy.Symbol("x")
    return tuple(int(c) for c in sympy.Matrix(m).charpoly(x).all_coeffs())


@settings(max_examples=80, deadline=None)
@given(ANY_SQUARE)
def test_charpoly_matches_sympy(m):
    assert intmat.charpoly(m) == sympy_charpoly(m)


@settings(max_examples=80, deadline=None)
@given(ANY_SQUARE)
def test_det_matches_sympy(m):
    assert intmat.det(m) == int(sympy.Matrix(m).det())


@settings(max_examples=80, deadline=None)
@given(ANY_RECT)
def test_rank_matches_sympy(m):
    assert intmat.rank(m) == sympy.Matrix(m).rank()


@settings(max_examples=40, deadline=None)
@given(rectangular(SMALL), rectangular(SMALL))
def test_rank_of_low_rank_products(a, b):
    # a (r x k) times b' (k x c) has rank at most k; sympy decides the exact value
    k = len(a[0])
    b = tuple(b[i % len(b)] for i in range(k))
    prod = intmat.mul(a, b)
    assert intmat.rank(prod) == sympy.Matrix(prod).rank()


def test_zero_pivots_and_empty():
    swap = ((0, 1), (1, 0))
    assert intmat.det(swap) == -1
    assert intmat.rank(swap) == 2
    assert intmat.charpoly(swap) == (1, 0, -1)
    hollow = ((0, 0, 1), (0, 0, 0), (1, 0, 0))
    assert intmat.det(hollow) == 0
    assert intmat.rank(hollow) == 2
    assert intmat.charpoly(hollow) == sympy_charpoly(hollow)
    assert intmat.det(()) == 1
    assert intmat.rank(()) == 0
    assert intmat.charpoly(()) == (1,)


@settings(max_examples=20, deadline=None)
@given(square(st.integers(10**18, 10**20).map(lambda x: x * (-1) ** (x % 2)), 4, min_n=2))
def test_charpoly_needs_several_primes(m):
    first = next(intmat.primes_below_2_61())
    assert 2 * intmat.coefficient_bound(m) + 1 > first  # one prime is not enough
    assert intmat.charpoly(m) == sympy_charpoly(m)


def test_coefficient_bound_holds():
    for name in ("a12", "e6", "depth1"):
        m = pipeline(name).m_desc
        bound = intmat.coefficient_bound(m)
        assert all(abs(c) <= bound for c in intmat.charpoly(m))


def test_generated_primes_are_consecutive_primes():
    primes = list(itertools.islice(intmat.primes_below_2_61(), 12))
    assert primes[0] == 2**61 - 1
    for p, q in zip(primes, primes[1:]):
        assert sympy.isprime(p)
        assert sympy.prevprime(p) == q
    assert sympy.isprime(primes[-1])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64))
def test_is_prime_matches_sympy(n):
    assert intmat._is_prime(n) == sympy.isprime(n)


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to bases 2..7 and to bases 2..23 respectively
    for n in (3215031751, 3825123056546413051):
        assert not intmat._is_prime(n)


def test_mul_matches_definition():
    a = ((1, 0, 2), (0, 0, 0), (-3, 1, 0))
    b = ((2, 1), (0, 5), (1, -1))
    want = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(2))
        for i in range(3)
    )
    assert intmat.mul(a, b) == want


def antisymmetric(n_max=7):
    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(SPARSE, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
            lambda xs: _antisym(n, xs)
        )
    )


def _antisym(n, xs):
    rows = [[0] * n for _ in range(n)]
    it = iter(xs)
    for i in range(n):
        for j in range(i):
            rows[i][j] = next(it)
            rows[j][i] = -rows[i][j]
    return intmat.freeze(rows)


def _transvection_product(i_mat):
    m = intmat.identity(len(i_mat))
    for k in range(len(i_mat)):
        m = intmat.mul(m, transvection(i_mat, k))
    return m


@settings(max_examples=60, deadline=None)
@given(antisymmetric())
def test_monodromy_is_the_product_of_transvections(i_mat):
    m = monodromy(i_mat)
    assert m == _transvection_product(i_mat)
    s = sympy.Matrix(seifert_matrix(i_mat))
    assert sympy.Matrix(m) == s.inv() * s.T


def test_monodromy_on_corpus_is_the_product_of_transvections(corpus_names):
    for name in corpus_names:
        r = pipeline(name)
        assert r.m_desc == _transvection_product(r.lattice.i_mat)


def brieskorn_pham_order(a: int, b: int) -> int:
    """Order of the monodromy of x^a + y^b: lcm of the eigenvalue orders."""
    return lcm(
        *(
            Fraction(s * b + t * a, a * b).denominator
            for s in range(1, a)
            for t in range(1, b)
        )
    )


def test_order_of_a_n_is_brieskorn_pham():
    from divides.report import run_pipeline

    for n in range(1, 41):
        result = run_pipeline(gen_a(n).divide)
        assert result.cpo.order == brieskorn_pham_order(n + 1, 2), n
    assert brieskorn_pham_order(33, 2) == 66


def test_infinite_orders_are_none():
    assert intmat.matrix_order(((1, 1), (0, 1))) is None  # Jordan block
    assert intmat.matrix_order(((-1, 1), (0, -1))) is None
    assert intmat.matrix_order(((2, 1), (1, 1))) is None  # not cyclotomic
    assert pipeline("depth1").cpo.order is None


def test_finite_orders():
    assert intmat.matrix_order(()) == 1
    assert intmat.matrix_order(((0, -1), (1, 0))) == 4
    assert intmat.matrix_order(((-1,),)) == 2
    assert pipeline("e6").cpo.order == 12


@settings(max_examples=40, deadline=None)
@given(
    st.permutations(list(range(6))),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)), max_size=8),
    st.booleans(),
)
def test_order_of_conjugated_permutation(perm, moves, negate):
    # U P U^-1 for a permutation matrix P and unimodular U has the order of P
    n = len(perm)
    p = intmat.freeze([[int(perm[j] == i) for j in range(n)] for i in range(n)])
    if negate:
        p = tuple(tuple(-x for x in row) for row in p)
    u = u_inv = intmat.identity(n)
    for i, j, c in moves:
        if i == j:
            continue
        e = [list(row) for row in intmat.identity(n)]
        e[i][j] = c
        e_inv = [list(row) for row in intmat.identity(n)]
        e_inv[i][j] = -c
        u = intmat.mul(u, intmat.freeze(e))
        u_inv = intmat.mul(intmat.freeze(e_inv), u_inv)
    m = intmat.mul(intmat.mul(u, p), u_inv)
    seen, cycle_lengths = set(), []
    for start in range(n):
        length, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur]
            length += 1
        if length:
            cycle_lengths.append(length)
    want = lcm(*cycle_lengths)
    if negate:  # (-P)^k = Id needs P^k = Id and k even
        want = lcm(2, want)
    assert intmat.matrix_order(m) == want
