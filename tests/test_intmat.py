"""The exact integer layer against sympy, and the order against closed forms."""

from __future__ import annotations

import copy
import functools
import json
import operator
import pickle
from fractions import Fraction
from math import isqrt, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from divides import DivideError, gen_a, intmat, monodromy
from divides.report import run_pipeline
from conftest import (
    CORPUS_NAMES, charpoly_moduli, freeze, generic_chords, identity, lattice_of, pipeline,
    transvection_product,
)

SMALL = st.integers(-6, 6)
SPARSE = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3))
BIG = st.integers(-(10**20), 10**20)
T = sympy.Symbol("t")


def square(entries, max_n=6, min_n=1):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(freeze)
    )


def rectangular(entries):
    return st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda rc: st.lists(
            st.lists(entries, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(freeze)
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


@st.composite
def sparse_antisymmetric(draw, entries):
    """Antisymmetric matrices of size 10-30 with at most 4n nonzero pairs."""
    n = draw(st.integers(10, 30))
    rows = [[0] * n for _ in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), entries)
    for i, j, x in draw(st.lists(pairs, max_size=4 * n)):
        if i != j:
            rows[i][j], rows[j][i] = x, -x
    return freeze(rows)


NEAR_1E20 = st.tuples(st.integers(-1000, 1000), st.sampled_from((1, -1))).map(
    lambda d: d[1] * (10**20 + d[0])
)


@settings(max_examples=40, deadline=None)
@given(sparse_antisymmetric(st.integers(-3, 3)))
def test_rank_of_sparse_antisymmetric_matches_sympy(m):
    assert intmat.rank(m) == sympy.Matrix(m).rank()


@settings(max_examples=25, deadline=None)
@given(sparse_antisymmetric(NEAR_1E20))
def test_rank_of_sparse_antisymmetric_with_huge_entries_matches_sympy(m):
    assert intmat.rank(m) == sympy.Matrix(m).rank()


def test_zero_pivots_and_empty():
    swap = ((0, 1), (1, 0))
    assert intmat.rank(swap) == 2
    assert intmat.charpoly(swap) == (1, 0, -1)
    hollow = ((0, 0, 1), (0, 0, 0), (1, 0, 0))
    assert intmat.rank(hollow) == 2
    assert intmat.charpoly(hollow) == sympy_charpoly(hollow)
    assert intmat.rank(()) == 0
    assert intmat.charpoly(()) == (1,)


@settings(max_examples=20, deadline=None)
@given(square(st.integers(10**18, 10**20).map(lambda x: x * (-1) ** (x % 2)), 4, min_n=2))
def test_charpoly_needs_several_primes(m):
    # 2^61 - 1 is not enough, so a larger Mersenne prime is taken
    assert 2 * intmat.coefficient_bound(m) + 1 > 2**61 - 1
    assert intmat.charpoly(m) == sympy_charpoly(m)


def test_coefficient_bound_holds():
    for name in ("a12", "e6", "depth1"):
        m = pipeline(name).m_desc
        bound = intmat.coefficient_bound(m)
        assert all(abs(c) <= bound for c in intmat.charpoly(m))


def test_mersenne_exponents_give_primes():
    # Lucas-Lehmer: for an odd prime e, 2^e - 1 is prime iff s_(e-2) = 0,
    # where s_0 = 4 and s_(k+1) = s_k^2 - 2 mod 2^e - 1.
    for e in intmat.MERSENNE_EXPONENTS:
        assert sympy.isprime(e)
        p, s = (1 << e) - 1, 4
        for _ in range(e - 2):
            s = (s * s - 2) % p
        assert s == 0, e
    assert list(intmat.MERSENNE_EXPONENTS) == sorted(intmat.MERSENNE_EXPONENTS)


SYLVESTER_4 = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


@pytest.mark.parametrize(
    "below, e",
    zip((1,) + intmat.MERSENNE_EXPONENTS[:-1], intmat.MERSENNE_EXPONENTS),
    ids=[f"2^{e}-1" for e in intmat.MERSENNE_EXPONENTS],
)
def test_charpoly_takes_the_least_mersenne_prime_above_the_bound(monkeypatch, below, e):
    # x times a Hadamard matrix has rows of norm 2x and determinant (2x)^4,
    # close to the bound (1 + 2x)^4: with the least x that puts (2x)^4 above
    # 2^(below - 1), the constant term does not fit 2^below - 1 and the
    # bound lies just above it.
    x = (isqrt(isqrt(1 << (below - 1))) + 2) // 2
    m = tuple(tuple(x * h for h in row) for row in SYLVESTER_4)
    need = 2 * intmat.coefficient_bound(m) + 1
    assert (1 << below) - 1 < need < (1 << e) - 1
    used = charpoly_moduli(monkeypatch)
    coeffs = intmat.charpoly(m)
    assert used == [(1 << e) - 1]
    assert abs(coeffs[-1]) > ((1 << below) - 1) // 2
    assert coeffs == sympy_charpoly(m)


def test_charpoly_beyond_the_largest_modulus_raises_before_any_work(monkeypatch):
    monkeypatch.setattr(intmat, "coefficient_bound", lambda a: 1 << 4423)
    used = charpoly_moduli(monkeypatch)
    with pytest.raises(DivideError, match="has 4425 bits, beyond the largest modulus"):
        intmat.charpoly(((1,),))
    assert used == []


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
    return freeze(rows)


@settings(max_examples=60, deadline=None)
@given(antisymmetric())
def test_monodromy_is_the_product_of_transvections(i_mat):
    lat = lattice_of(i_mat)
    m = monodromy(lat)
    assert m == transvection_product(i_mat)
    s = sympy.Matrix(lat.s_mat)
    assert sympy.Matrix(m) == s.inv() * s.T


def test_monodromy_on_corpus_is_the_product_of_transvections(corpus_names):
    for name in corpus_names:
        r = pipeline(name)
        assert r.m_desc == transvection_product(r.lattice.i_mat)


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
    for n in range(1, 41):
        result = run_pipeline(gen_a(n).divide)
        assert result.order == brieskorn_pham_order(n + 1, 2), n
    assert brieskorn_pham_order(33, 2) == 66


@pytest.mark.parametrize("k", range(3, 8))
def test_order_of_chords_is_brieskorn_pham(k):
    # The eigenvalues of x^k + y^k are zeta^(s + t) for 1 <= s, t < k, zeta a
    # primitive k-th root of unity; 1 among them at least twice, so a
    # cyclotomic factor repeats and the order comes from the check on the starts.
    for seed in (0, 1):
        result = run_pipeline(generic_chords(k, seed))
        assert result.order == brieskorn_pham_order(k, k), (k, seed)


def order(m) -> int | None:
    return intmat.matrix_order(m, intmat.charpoly(m))


def test_infinite_orders_are_none():
    assert order(((1, 1), (0, 1))) is None  # Jordan block
    assert order(((-1, 1), (0, -1))) is None
    assert order(((2, 1), (1, 1))) is None  # not cyclotomic
    assert pipeline("depth1").order is None


def cyclotomic(k: int) -> sympy.Poly:
    return sympy.Poly(sympy.cyclotomic_poly(k, T), T)


def coefficients(poly: sympy.Poly) -> list[int]:
    """Descending powers."""
    return [int(c) for c in poly.all_coeffs()]


def companion(poly) -> intmat.Mat:
    """The companion matrix of a monic polynomial given in descending powers."""
    n = len(poly) - 1
    return tuple(
        tuple(-poly[n - i] if j == n - 1 else int(i == j + 1) for j in range(n))
        for i in range(n)
    )


def block_diagonal(blocks) -> intmat.Mat:
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(row) + [0] * (n - at - len(b)) for row in b]
        at += len(b)
    return freeze(rows)


def test_cyclotomic_at_2_is_the_value_at_2():
    for k in range(1, 401):
        primes = intmat._distinct_prime_factors(k)
        phi = intmat._cyclotomic(k, primes, int(sympy.totient(k)))
        if k <= 120:
            assert phi == coefficients(cyclotomic(k)), k
        value = 0
        for c in phi:
            value = 2 * value + c
        assert intmat._cyclotomic_at_2(k, primes) == value, k


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=4))
def test_order_of_cyclotomic_blocks(ks):
    # Block-diagonal companions of Phi_k are diagonalisable, repeats included,
    # so the order is the lcm of the k.  A companion matrix is cyclic, so a
    # repeated factor makes it non-diagonalisable, and a factor that is not
    # cyclotomic has an eigenvalue that is no root of unity (t - 2 makes the
    # value at 2 vanish, so every k passes the filter).
    factors = [cyclotomic(k) for k in ks]
    blocks = [companion(coefficients(f)) for f in factors]
    assert order(block_diagonal(blocks)) == lcm(*ks)
    product = functools.reduce(operator.mul, factors)
    not_cyclotomic = (sympy.Poly(T - 2), sympy.Poly(T**2 - 3 * T + 1))
    for poly in [factors[0] ** 2] + [product * f for f in not_cyclotomic]:
        assert order(companion(coefficients(poly))) is None


def conjugated(m, moves) -> intmat.Mat:
    """U m U^-1, U the product of the elementary matrices I + c e_i e_j^T
    for the (i, j, c) in ``moves`` with i != j: unimodular."""
    rows = [list(row) for row in m]
    for i, j, c in moves:
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[j] -= c * row[i]
    return freeze(rows)


@st.composite
def cyclotomic_blocks(draw):
    """(M, ks, jordan): companions of Phi_k, or of Phi_k^2 where ``jordan``
    names a block, on the diagonal and conjugated by a unimodular matrix;
    the k are those with phi(k) <= 4, so M has at most 40 rows."""
    ks = draw(st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 10, 12)), min_size=1, max_size=5))
    squared = draw(st.lists(st.booleans(), min_size=len(ks), max_size=len(ks)))
    blocks = [companion(coefficients(cyclotomic(k) ** (1 + sq))) for k, sq in zip(ks, squared)]
    m = block_diagonal(blocks)
    n = len(m)
    index = st.integers(0, n - 1)
    moves = draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=2 * n))
    return conjugated(m, moves), ks, any(squared)


@settings(max_examples=80, deadline=None)
@given(cyclotomic_blocks())
def test_order_of_conjugated_cyclotomic_blocks(drawn):
    # With no Jordan block M is diagonalisable over C with roots of unity of
    # the orders in ks; a companion of Phi_k^2 has a 2 x 2 Jordan block at
    # each root of Phi_k.
    m, ks, jordan = drawn
    assert order(m) == (None if jordan else lcm(*ks))


# A Jordan block seen only from one start of the Hessenberg pass: the middle
# block of diag(1) + J_2(1) + (1); the final 1 x 1 block, which the loop over
# the subdiagonal never reaches; and a start e_1 that the pass reaches at
# position 2, after it swapped rows and columns 1 and 2.
ONE_START_JORDAN = {
    "middle": ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "final": ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
    "swapped": ((-1, 0, 0), (0, 1, 0), (-2, 1, 1)),
}


@pytest.mark.parametrize("name", ONE_START_JORDAN)
def test_jordan_block_seen_from_one_start(name):
    m = ONE_START_JORDAN[name]
    assert order(m) is None
    # lcm K is 1 or 2 here, so M^2 != Id is what infinite order means
    assert intmat.mul(m, m) != identity(len(m))


def test_charpoly_starts_of_the_named_cases():
    assert intmat.charpoly(ONE_START_JORDAN["middle"]).starts == (0, 1, 2, 3)
    assert intmat.charpoly(ONE_START_JORDAN["final"]).starts == (0, 1, 2)
    assert intmat.charpoly(ONE_START_JORDAN["swapped"]).starts == (0, 1)
    assert intmat.charpoly(((2,),)).starts == (0,)
    assert intmat.charpoly(()).starts == ()


@settings(max_examples=80, deadline=None)
@given(st.one_of(square(SPARSE, max_n=8), square(SMALL), cyclotomic_blocks().map(lambda d: d[0])))
def test_krylov_vectors_of_the_starts_span(m):
    n = len(m)
    starts = intmat.charpoly(m).starts
    krylov = []
    for s in starts:
        v = [int(i == s) for i in range(n)]
        for _ in range(n):
            krylov.append(v)
            v = [sum(x * y for x, y in zip(row, v)) for row in m]
    assert sympy.Matrix(krylov).rank() == n


def test_charpoly_is_its_coefficient_tuple():
    m = ((0, -1), (1, 0))
    cp = intmat.charpoly(m)
    assert cp == (1, 0, 1) and tuple(cp) == (1, 0, 1) and hash(cp) == hash((1, 0, 1))
    assert json.dumps(cp) == "[1, 0, 1]"
    for copied in (copy.copy(cp), copy.deepcopy(cp), pickle.loads(pickle.dumps(cp))):
        assert copied == cp and copied.starts == cp.starts


def test_order_filter_skips_the_failing_divisions(monkeypatch):
    calls = []
    real = intmat._divmod_monic

    def counted(num, den):
        calls.append(len(den) - 1)
        return real(num, den)

    monkeypatch.setattr(intmat, "_divmod_monic", counted)
    # Phi_1(2) = 1 divides every value, so t - 1 is always tried; every other
    # division made is one that succeeds (dividing by every Phi_k makes 401).
    phi = cyclotomic(401)
    poly = coefficients(phi)
    assert intmat.matrix_order(companion(poly), poly) == 401
    assert calls == [1, 400]
    # Once Phi_3 and Phi_5 are divided out, 7 and 31 no longer divide the
    # value at 2, so neither is tried a second time.
    calls.clear()
    poly = coefficients(cyclotomic(3) * cyclotomic(5) * phi)
    assert intmat.matrix_order(companion(poly), poly) == 3 * 5 * 401
    assert calls == [1, 2, 4, 400]


def test_finite_orders():
    assert order(()) == 1
    assert order(((0, -1), (1, 0))) == 4
    assert order(((-1,),)) == 2
    assert pipeline("e6").order == 12


@settings(max_examples=40, deadline=None)
@given(
    st.permutations(list(range(6))),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)), max_size=8),
    st.booleans(),
)
def test_order_of_conjugated_permutation(perm, moves, negate):
    # U P U^-1 for a permutation matrix P and unimodular U has the order of P
    n = len(perm)
    p = freeze([[int(perm[j] == i) for j in range(n)] for i in range(n)])
    if negate:
        p = tuple(tuple(-x for x in row) for row in p)
    m = conjugated(p, moves)
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
    assert order(m) == want


def _charpoly_mod_reference(a, p):
    """The Hessenberg pass as it was before it read only nonzeros: the pivot
    by a scan of every row, the multiplier formed for every row below it and
    the recurrence's subdiagonal product walked down one entry at a time."""
    n = len(a)
    h = [[x % p for x in row] for row in a]
    perm = list(range(n))
    starts = [0] if n else []
    for m in range(1, n - 1):
        col = m - 1
        pivot = next((i for i in range(m, n) if h[i][col]), None)
        if pivot is None:
            starts.append(perm[m])
            continue
        if pivot != m:
            h[pivot], h[m] = h[m], h[pivot]
            for row in h:
                row[pivot], row[m] = row[m], row[pivot]
            perm[pivot], perm[m] = perm[m], perm[pivot]
        h_m = h[m]
        inv = pow(h_m[col], -1, p)
        for i in range(m + 1, n):
            h_i = h[i]
            u = h_i[col] * inv % p
            if not u:
                continue
            h_i[col:] = [(x - u * y) % p for x, y in zip(h_i[col:], h_m[col:])]
            for row in h:
                if row[i]:
                    row[m] = (row[m] + u * row[i]) % p
    if n > 1 and not h[n - 1][n - 2]:
        starts.append(perm[n - 1])
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        nxt = [0] + prev
        h_mm = h[m][m]
        for j, c in enumerate(prev):
            nxt[j] -= h_mm * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            f = h[i][m] * t % p
            if f:
                for j, c in enumerate(polys[i]):
                    nxt[j] -= f * c
        polys.append([c % p for c in nxt])
    return polys[n][::-1], starts


def banded(max_n=12):
    """Square matrices with entries in -3..3 within a drawn distance of the
    diagonal, below and above it, and zeros beyond."""
    return st.tuples(st.integers(1, max_n), st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda nlu: st.lists(SMALL, min_size=nlu[0] ** 2, max_size=nlu[0] ** 2).map(
            lambda xs: freeze(
                [[xs[i * nlu[0] + j] if -nlu[1] <= j - i <= nlu[2] else 0
                  for j in range(nlu[0])] for i in range(nlu[0])]
            )
        )
    )


@st.composite
def permuted_blocks(draw):
    """A block-diagonal matrix of sparse blocks of 1 to 4 rows, its rows and
    columns then permuted alike, so the blocks interleave."""
    blocks = draw(st.lists(square(SPARSE, max_n=4), min_size=1, max_size=4))
    m = block_diagonal(blocks)
    perm = draw(st.permutations(range(len(m))))
    return tuple(tuple(m[i][j] for j in perm) for i in perm)


# A small prime makes zero pivots, zero subdiagonals and so many unreduced
# blocks common; 2^61 - 1 is the modulus every benchmark input takes.
PRIMES = st.sampled_from((2, 3, 5, 7, (1 << 61) - 1))


@settings(max_examples=200, deadline=None)
@given(st.one_of(square(SPARSE, max_n=10), banded(), permuted_blocks()), PRIMES)
def test_charpoly_mod_matches_the_reference_pass(m, p):
    assert intmat._charpoly_mod(m, p) == _charpoly_mod_reference(m, p)
    char_poly = intmat.charpoly(m)
    p = next((1 << e) - 1 for e in intmat.MERSENNE_EXPONENTS
             if (1 << e) - 1 > 2 * intmat.coefficient_bound(m) + 1)
    coefficients, starts = _charpoly_mod_reference(m, p)
    assert tuple(char_poly) == tuple(c - p if c > p // 2 else c for c in coefficients)
    assert char_poly.starts == tuple(starts)


@pytest.mark.parametrize(
    "name", CORPUS_NAMES + ["a16", "a20", "a24", "a32"] + [f"chords{k}" for k in range(3, 7)]
)
def test_charpoly_of_report_monodromies_matches_the_reference_pass(name):
    # the corpus and the sizes of the benchmark's report inputs
    if name.startswith("chords"):
        m = run_pipeline(generic_chords(int(name[6:]), 0)).m_desc
    elif name in CORPUS_NAMES:
        m = pipeline(name).m_desc
    else:
        m = run_pipeline(gen_a(int(name[1:])).divide).m_desc
    p = (1 << 61) - 1
    assert 2 * intmat.coefficient_bound(m) + 1 < p
    coefficients, starts = _charpoly_mod_reference(m, p)
    char_poly = intmat.charpoly(m)
    assert char_poly.starts == tuple(starts)
    assert tuple(char_poly) == tuple(c - p if c > p // 2 else c for c in coefficients)
