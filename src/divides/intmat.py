"""Exact linear algebra over the integers.

All matrices are tuples of tuples of Python ints, and every result is an
exact integer.  Rank is integer elimination on sparse rows, each divided
by the gcd of its entries.  The characteristic polynomial is the Hessenberg
recurrence taken once, modulo a Mersenne prime above twice a proven bound
on its coefficients (Cohen, *A Course in Computational Algebraic Number
Theory*, 2.2), and read as symmetric residues; that pass also leaves the
unit vectors whose Krylov spaces span Q^n.  The pass skips zeros: the
reduction finds the rows with an entry in the pivot column by a scan in C,
clears only those and inverts a pivot only when there is one to clear; the
recurrence reads only the nonzero entries above the diagonal of each
unreduced block, each subdiagonal product from prefix products and one
inversion per block.  The order of a matrix comes from
the cyclotomic factors of that polynomial and, when one repeats, an exact
sparse check of their product on those start vectors alone.  A factor Phi_k
is divided out only when Phi_k(2) divides the value at 2 of what remains:
f = Phi_k q with q in Z[t] gives f(2) = Phi_k(2) q(2).  Nothing here
touches floating point or rationals.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, count
from math import gcd, isqrt, lcm
from operator import itemgetter
from typing import Sequence

from .core import DivideError

Mat = tuple[tuple[int, ...], ...]


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mul(a: Mat, b: Mat) -> Mat:
    """Row i of the product is the sum of a[i][k] * b[k] over a[i][k] != 0."""
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * n
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


Columns = tuple[tuple[tuple[int, int], ...], ...]


def column_nonzeros(a: Mat) -> Columns:
    """For each column k of a, the pairs (i, a[i][k]) with a[i][k] != 0."""
    return tuple(tuple(zip(compress(count(), col), filter(None, col))) for col in zip(*a))


def trace(a: Mat) -> int:
    return sum(a[i][i] for i in range(len(a)))


def rank(a: Mat) -> int:
    """Rank over Q by exact integer elimination on sparse rows.

    Rows are dicts of their nonzero entries.  Each step takes a shortest row
    as the pivot row and in it an entry p of least magnitude, in column c.
    Every other row with an entry f in column c becomes p * row - f * pivot
    row divided by the gcd of its entries, or is dropped when it vanishes;
    the rows without one are kept as they are.  The rank is the number of
    pivots; on a matrix that stays sparse, like I, it costs O(rows * nnz).
    """
    rows = [row for row in ({j: x for j, x in enumerate(r) if x} for r in a) if row]
    pivots = 0
    while rows:
        pivot = min(rows, key=len)
        c, p = min(pivot.items(), key=lambda item: abs(item[1]))
        rest = []
        for row in rows:
            f = row.get(c)
            if not f:
                rest.append(row)
            elif row is not pivot:
                new = {j: p * x for j, x in row.items()}
                for j, y in pivot.items():
                    new[j] = new.get(j, 0) - f * y
                g = gcd(*new.values())
                if g:
                    rest.append({j: x // g for j, x in new.items() if x})
        rows = rest
        pivots += 1
    return pivots


# ---------------------------------------------------------------------------
# Characteristic polynomial

# Exponents e of the Mersenne primes 2^e - 1 from 2^61 - 1 to 2^4423 - 1.
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)


def coefficient_bound(a: Mat) -> int:
    """B = prod_i (1 + ceil(|row_i|_2)), a bound on every charpoly coefficient.

    The coefficient of t^(n-k) is a signed sum of the principal k-minors; by
    Hadamard each is at most the product of its rows' norms, and these
    products sum to at most B.
    """
    bound = 1
    for row in a:
        sq = sum(x * x for x in filter(None, row))
        root = isqrt(sq)
        bound *= 1 + root + (root * root < sq)
    return bound


class CharPoly(tuple):
    """det(tI - M) from ``charpoly(M)``: the tuple of its int coefficients by
    descending power, which it iterates, compares and is written as.

    ``starts`` are the indices s of the unit vectors e_s that begin the
    unreduced diagonal blocks of charpoly's Hessenberg form of M; their
    Krylov vectors M^k e_s span Q^n.  ``matrix_order`` reads them.
    """

    starts: tuple[int, ...]

    def __new__(cls, coefficients, starts):
        self = super().__new__(cls, coefficients)
        self.starts = tuple(starts)
        return self

    def __getnewargs__(self):
        return tuple(self), self.starts


def _charpoly_mod(a: Mat, p: int) -> tuple[list[int], list[int]]:
    """det(tI - a) mod p, descending powers, via upper Hessenberg form H =
    Q^-1 a Q, and the Krylov start indices.

    Step m swaps columns m and pivot >= m of Q, then adds multiples of later
    columns to column m only, so when step m begins each column j >= m of Q
    is still a unit vector e_perm[j].  An unreduced diagonal block of H
    starts at 0, at each step m that finds no pivot, and at n - 1 when
    H[n-1][n-2] = 0; column m of Q is then e_perm[m], the start it records.
    In a block starting at m, H^k e_m has its last nonzero in row m + k, so
    the Krylov vectors of the starts are Q times a triangular matrix with
    nonzero diagonal: they span F_p^n, and the integer a^k e_s span Q^n.
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    perm = list(range(n))
    starts = [0] if n else []
    # Similarity transforms that clear column m-1 below its subdiagonal.
    for m in range(1, n - 1):
        col = m - 1
        # the rows >= m with a nonzero in column col; the steps below change
        # that column only where they clear it
        nonzero = list(compress(count(m), map(itemgetter(col), h[m:])))
        if not nonzero:
            starts.append(perm[m])
            continue
        pivot = nonzero[0]
        if pivot != m:
            h[pivot], h[m] = h[m], h[pivot]
            for row in h:
                row[pivot], row[m] = row[m], row[pivot]
            perm[pivot], perm[m] = perm[m], perm[pivot]
        if len(nonzero) == 1:
            continue
        h_m = h[m]
        inv = pow(h_m[col], -1, p)
        for i in nonzero[1:]:
            h_i = h[i]
            u = h_i[col] * inv % p
            # row i -= u * row m, then column m += u * column i
            h_i[col:] = [(x - u * y) % p for x, y in zip(h_i[col:], h_m[col:])]
            for row in h:
                if row[i]:
                    row[m] = (row[m] + u * row[i]) % p
    if n > 1 and not h[n - 1][n - 2]:
        starts.append(perm[n - 1])
    # p_{m+1} = (t - h[m][m]) p_m - sum_{i<m} h[i][m] h[i+1][i] ... h[m][m-1] p_i,
    # each p_k a coefficient list in ascending powers.  The product vanishes
    # across a zero of the subdiagonal, so i runs over the nonzero h[i][m] of
    # m's unreduced block only.  There it is prefix[m] / prefix[i], for the
    # products of the subdiagonal from the block's start; every factor is a
    # unit, and one inversion mod p gives a block's inverse[i], made the first
    # time the block needs one.
    prefix, inverse = [1] * n, [0] * n  # 0: not yet inverted
    for k in range(1, n):
        if h[k][k - 1]:
            prefix[k] = prefix[k - 1] * h[k][k - 1] % p
    polys: list[list[int]] = [[1]]
    start = 0
    for m in range(n):
        if m and not h[m][m - 1]:
            start = m
        prev = polys[m]
        nxt = [0] + prev
        h_mm = h[m][m]
        for j, c in enumerate(prev):
            nxt[j] -= h_mm * c
        for i in compress(range(start, m), map(itemgetter(m), h[start:m])):
            if not inverse[i]:
                end = next((k for k in range(m + 1, n) if not h[k][k - 1]), n)
                inv = pow(prefix[end - 1], -1, p)
                for k in range(end - 1, start, -1):
                    inverse[k] = inv
                    inv = inv * h[k][k - 1] % p
                inverse[start] = 1
            f = h[i][m] * prefix[m] * inverse[i] % p
            for j, c in enumerate(polys[i]):
                nxt[j] -= f * c
        polys.append([c % p for c in nxt])
    return polys[n][::-1], starts


def charpoly(a: Mat) -> CharPoly:
    """Characteristic polynomial det(tI - M), coefficients by descending power,
    with the Krylov start indices of its Hessenberg pass.

    Computed modulo the least Mersenne prime p = 2^e - 1, e in
    MERSENNE_EXPONENTS, with p > 2B + 1 for the coefficient bound B, and read
    as symmetric residues.  A bound beyond the largest of them raises
    DivideError, naming the bound's bit length, before any Hessenberg work.
    """
    need = 2 * coefficient_bound(a) + 1
    for e in MERSENNE_EXPONENTS:
        p = (1 << e) - 1
        if p > need:
            half = p // 2
            coefficients, starts = _charpoly_mod(a, p)
            return CharPoly((c - p if c > half else c for c in coefficients), starts)
    raise DivideError(
        f"characteristic polynomial: the coefficient bound 2B + 1 has {need.bit_length()} "
        f"bits, beyond the largest modulus 2^{MERSENNE_EXPONENTS[-1]} - 1"
    )


# ---------------------------------------------------------------------------
# Order


def _divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder by a monic divisor, both in descending powers."""
    out = list(num)
    k = len(den) - 1
    for i in range(len(num) - k):
        c = out[i]
        if c:
            for j in range(1, k + 1):
                out[i + j] -= c * den[j]
    return out[: len(num) - k], out[len(num) - k:]


def _distinct_prime_factors(k: int) -> list[int]:
    out, p = [], 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out.append(k)
    return out


def _moebius_divisors(k: int, primes: list[int]) -> list[tuple[int, int]]:
    """(k / e, mu(e)) for each squarefree divisor e of k, given k's distinct prime factors."""
    out = [(k, 1)]
    for p in primes:
        out += [(d // p, -sign) for d, sign in out]
    return out


def _cyclotomic(k: int, primes: list[int], degree: int) -> list[int]:
    """Phi_k in descending powers, given the distinct prime factors of k and phi(k).

    Phi_k = prod over squarefree e | k of (1 - t^(k/e))^mu(e), expanded as a
    power series truncated above degree phi(k).  For k >= 2 it is
    palindromic, so the ascending series is also the descending coefficient
    list; for k = 1 the series 1 - t reads as t - 1.
    """
    series = [1] + [0] * degree
    for d, sign in _moebius_divisors(k, primes):
        if sign == 1:  # multiply by 1 - t^d
            for i in range(degree, d - 1, -1):
                series[i] -= series[i - d]
        else:  # divide by 1 - t^d
            for i in range(d, degree + 1):
                series[i] += series[i - d]
    return series


def _cyclotomic_at_2(k: int, primes: list[int]) -> int:
    """Phi_k(2) = prod over squarefree e | k of (2^(k/e) - 1)^mu(e), a positive int."""
    num = den = 1
    for d, sign in _moebius_divisors(k, primes):
        if sign == 1:
            num *= (1 << d) - 1
        else:
            den *= (1 << d) - 1
    return num // den


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two coefficient lists, both by descending power."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _vanishes_on(m: Mat, q: Sequence[int], starts: Sequence[int]) -> bool:
    """Whether q(m) e_s = 0 for every start s, for monic q in descending powers.

    Horner in exact ints, w <- m w + c e_s, reading the nonzeros of each
    column of m; it stops at the first start with a nonzero result.
    """
    n = len(m)
    cols = column_nonzeros(m)
    for s in starts:
        w = [0] * n
        w[s] = 1
        for c in q[1:]:
            nxt = [0] * n
            for j, y in enumerate(w):
                if y:
                    for i, x in cols[j]:
                        nxt[i] += x * y
            nxt[s] += c
            w = nxt
        if any(w):
            return False
    return True


def matrix_order(m: Mat, char_poly: CharPoly) -> int | None:
    """The least N >= 1 with m^N = identity, or None when the order is infinite.

    char_poly must be charpoly(m).

    A matrix of finite order has a characteristic polynomial that is a
    product of cyclotomic polynomials Phi_k.  These are divided out for every
    k with phi(k) at most the remaining degree (phi(k) >= sqrt(k) for k > 6
    bounds the search); a factor left over means infinite order.  Otherwise
    the order is a multiple of N = lcm of the k found.  When no Phi_k repeats,
    the characteristic polynomial divides t^N - 1 and Cayley-Hamilton gives
    m^N = identity.  Else m^N = identity exactly when the squarefree
    q = prod Phi_k, which divides t^N - 1, has q(m) = 0.  q(m) commutes with
    m, so it vanishes on the span of the Krylov vectors m^j e_s of
    char_poly.starts, which is Q^n, once q(m) e_s = 0 for every start s;
    a start with q(m) e_s != 0 leaves a Jordan block and infinite order.

    A division is tried only while Phi_k(2) divides rest(2), an exact int kept
    in step with rest.  Monic Phi_k dividing rest in Z[t] leaves a quotient g
    in Z[t], so rest(2) = Phi_k(2) g(2): every skipped division would have
    failed, and the result is that of dividing by every Phi_k.  When
    rest(2) = 0 every k passes.
    """
    rest = list(char_poly)
    value = 0  # rest(2), by Horner
    for c in rest:
        value = 2 * value + c
    order = 1
    factors = []  # the Phi_k found, each once
    repeated = False
    k = 1
    while len(rest) > 1 and k <= max(6, (len(rest) - 1) ** 2):
        primes = _distinct_prime_factors(k)
        totient = k
        for p in primes:
            totient -= totient // p
        found = 0
        if totient < len(rest):
            at_2 = _cyclotomic_at_2(k, primes)
            if value % at_2 == 0:
                phi = _cyclotomic(k, primes, totient)
                while len(rest) > totient and value % at_2 == 0:
                    quotient, remainder = _divmod_monic(rest, phi)
                    if any(remainder):
                        break
                    rest = quotient
                    value //= at_2
                    found += 1
        if found:
            order = lcm(order, k)
            factors.append(phi)
            repeated = repeated or found > 1
        k += 1
    if len(rest) > 1:
        return None
    if not repeated or _vanishes_on(m, reduce(_poly_mul, factors), char_poly.starts):
        return order
    return None
