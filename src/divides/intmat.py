"""Exact linear algebra over the integers.

All matrices are tuples of tuples of Python ints, and every result is an
exact integer.  Determinant and rank use fraction-free Bareiss elimination
(Bareiss, Math. Comp. 22, 1968).  The characteristic polynomial is the
Hessenberg recurrence taken modulo 61-bit primes and combined by the Chinese
remainder theorem under a proven bound on its coefficients (Cohen, *A Course
in Computational Algebraic Number Theory*, 2.2).  The order of a matrix comes
from the cyclotomic factors of that polynomial and one check by binary
powering.  Nothing here touches floating point or rationals.
"""

from __future__ import annotations

from math import isqrt, lcm
from typing import Iterator, Sequence

Mat = tuple[tuple[int, ...], ...]


def freeze(rows: Sequence[Sequence[int]]) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def trace(a: Mat) -> int:
    return sum(a[i][i] for i in range(len(a)))


def _bareiss(a: Mat) -> tuple[int, int, int]:
    """Fraction-free row echelon form: (rank, sign of the row swaps, last pivot).

    After the step on pivot column c every entry below the pivot rows is a
    minor of the input divided exactly by the previous pivot, so all
    arithmetic stays in integers.
    """
    m = [list(row) for row in a]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    r, sign, prev = 0, 1, 1
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        p_row = m[r]
        p = p_row[c]
        for i in range(r + 1, n_rows):
            row = m[i]
            f = row[c]
            row[c] = 0
            row[c + 1:] = [(x * p - f * y) // prev for x, y in zip(row[c + 1:], p_row[c + 1:])]
        prev = p
        r += 1
    return r, sign, prev


def det(a: Mat) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    r, sign, last = _bareiss(a)
    return sign * last if r == len(a) else 0


def rank(a: Mat) -> int:
    """Rank over Q by fraction-free Bareiss elimination."""
    return _bareiss(a)[0]


# ---------------------------------------------------------------------------
# Characteristic polynomial

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases.

    Deterministic below 318665857834031151167461, the least strong
    pseudoprime to all twelve bases (Sorenson and Webster, 2015), which
    covers every candidate below 2^61.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below_2_61() -> Iterator[int]:
    """The primes below 2^61 in descending order, 2^61 - 1 first."""
    n = (1 << 61) - 1
    while n > 2:
        if _is_prime(n):
            yield n
        n -= 2


def coefficient_bound(a: Mat) -> int:
    """B = prod_i (1 + ceil(|row_i|_2)), a bound on every charpoly coefficient.

    The coefficient of t^(n-k) is a signed sum of the principal k-minors; by
    Hadamard each is at most the product of its rows' norms, and these
    products sum to at most B.
    """
    bound = 1
    for row in a:
        sq = sum(x * x for x in row)
        root = isqrt(sq)
        bound *= 1 + root + (root * root < sq)
    return bound


def _charpoly_mod(a: Mat, p: int) -> list[int]:
    """det(tI - a) mod p, descending powers, via upper Hessenberg form."""
    n = len(a)
    h = [[x % p for x in row] for row in a]
    # Similarity transforms that clear column m-1 below its subdiagonal.
    for m in range(1, n - 1):
        col = m - 1
        pivot = next((i for i in range(m, n) if h[i][col]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[pivot], h[m] = h[m], h[pivot]
            for row in h:
                row[pivot], row[m] = row[m], row[pivot]
        h_m = h[m]
        inv = pow(h_m[col], -1, p)
        for i in range(m + 1, n):
            h_i = h[i]
            u = h_i[col] * inv % p
            if not u:
                continue
            # row i -= u * row m, then column m += u * column i
            h_i[col:] = [(x - u * y) % p for x, y in zip(h_i[col:], h_m[col:])]
            for row in h:
                if row[i]:
                    row[m] = (row[m] + u * row[i]) % p
    # p_{m+1} = (t - h[m][m]) p_m - sum_{i<m} h[i][m] h[i+1][i] ... h[m][m-1] p_i,
    # each p_k a coefficient list in ascending powers.
    polys: list[list[int]] = [[1]]
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
    return polys[n][::-1]


def charpoly(a: Mat) -> tuple[int, ...]:
    """Characteristic polynomial det(tI - M), coefficients by descending power.

    Computed modulo successive 61-bit primes until their product exceeds
    2B + 1 for the coefficient bound B, then read as symmetric residues.
    """
    need = 2 * coefficient_bound(a) + 1
    coeffs: list[int] = []
    modulus = 1
    for p in primes_below_2_61():
        res = _charpoly_mod(a, p)
        if modulus == 1:
            coeffs = res
        else:
            inv = pow(modulus % p, -1, p)
            coeffs = [c + modulus * ((r - c) * inv % p) for c, r in zip(coeffs, res)]
        modulus *= p
        if modulus > need:
            break
    half = modulus // 2
    return tuple(c - modulus if c > half else c for c in coeffs)


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


def _cyclotomic(k: int, primes: list[int], degree: int) -> list[int]:
    """Phi_k in descending powers, given the distinct prime factors of k and phi(k).

    Phi_k = prod over squarefree e | k of (1 - t^(k/e))^mu(e), expanded as a
    power series truncated above degree phi(k).  For k >= 2 it is
    palindromic, so the ascending series is also the descending coefficient
    list; for k = 1 the series 1 - t reads as t - 1.
    """
    series = [1] + [0] * degree
    for mask in range(1 << len(primes)):
        e, parity = 1, 1
        for bit, p in enumerate(primes):
            if mask >> bit & 1:
                e *= p
                parity = -parity
        d = k // e
        if parity == 1:  # multiply by 1 - t^d
            for i in range(degree, d - 1, -1):
                series[i] -= series[i - d]
        else:  # divide by 1 - t^d
            for i in range(d, degree + 1):
                series[i] += series[i - d]
    return series


def _power(m: Mat, e: int) -> Mat:
    result = identity(len(m))
    while e:
        if e & 1:
            result = mul(result, m)
        e >>= 1
        if e:
            m = mul(m, m)
    return result


def matrix_order(m: Mat, char_poly: Sequence[int] | None = None) -> int | None:
    """The least N >= 1 with m^N = identity, or None when the order is infinite.

    char_poly, when given, must be charpoly(m); it saves computing it again.

    A matrix of finite order has a characteristic polynomial that is a
    product of cyclotomic polynomials Phi_k.  These are divided out for every
    k with phi(k) at most the remaining degree (phi(k) >= sqrt(k) for k > 6
    bounds the search); a factor left over means infinite order.  Otherwise
    the order is a multiple of N = lcm of the k found.  When no Phi_k repeats,
    the characteristic polynomial divides t^N - 1 and Cayley-Hamilton gives
    m^N = identity; else m^N is computed, and if it is not the identity, m is
    not diagonalisable and has no finite order.
    """
    rest = list(charpoly(m) if char_poly is None else char_poly)
    order = 1
    repeated = False
    k = 1
    while len(rest) > 1 and k <= max(6, (len(rest) - 1) ** 2):
        primes = _distinct_prime_factors(k)
        totient = k
        for p in primes:
            totient -= totient // p
        if totient < len(rest):
            phi = _cyclotomic(k, primes, totient)
            found = 0
            while len(rest) > totient:
                quotient, remainder = _divmod_monic(rest, phi)
                if any(remainder):
                    break
                rest = quotient
                found += 1
            if found:
                order = lcm(order, k)
                repeated = repeated or found > 1
        k += 1
    if len(rest) > 1:
        return None
    if not repeated or _power(m, order) == identity(len(m)):
        return order
    return None
