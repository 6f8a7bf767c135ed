"""Independent checks of the program's outputs.

Nothing here imports ``divides``.  Reports are checked as parsed JSON and
screening results as plain numbers, against closed forms and against this
module's own computations:

* the characteristic polynomial of the monodromy of x^a + y^b, from the
  cyclotomic factors of the Brieskorn-Pham eigenvalues exp(2 pi i (s/a + t/b)),
  1 <= s < a, 1 <= t < b, and the monodromy order as the lcm of their orders;
* M_desc as the product of Picard-Lefschetz transvections T_1 ... T_mu,
  accumulated one rank-one update at a time from the report's I;
* for screening: the Euler relation, the region count d - r + 1, the A_n
  census, and depth labels as breadth-first distances from the exposed set.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from math import gcd

PL_SIGN = -1  # (-1)^(n(n-1)/2) for curves, n = 2

Poly = list[int]  # coefficients by descending power (tuples are read too)


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_div_exact(p: Poly, q: Poly) -> Poly:
    """p / q for monic q dividing p; raises if there is a remainder."""
    rem = list(p)
    quot = []
    for i in range(len(p) - len(q) + 1):
        c = rem[i]
        quot.append(c)
        for j, y in enumerate(q):
            rem[i + j] -= c * y
    if any(rem):
        raise ArithmeticError("polynomial division has a remainder")
    return quot


def _totient(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


@cache
def cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d, as (t^d - 1) divided by Phi_e for every proper divisor e of d."""
    p = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            p = _poly_div_exact(p, cyclotomic(e))
    return tuple(p)


def brieskorn_pham(a: int, b: int) -> tuple[Poly, int]:
    """(characteristic polynomial, monodromy order) for x^a + y^b.

    Each eigenvalue exp(2 pi i m / N), N = lcm(a, b), has order N / gcd(N, m).
    The orders are counted, each count must be a multiple of phi(order), and
    the polynomial is the product of the matching cyclotomic powers.  The
    monodromy of a Brieskorn-Pham singularity is semisimple, so its order is
    the lcm of the eigenvalue orders.
    """
    n_all = _lcm(a, b)
    counts: dict[int, int] = {}
    for s in range(1, a):
        for t in range(1, b):
            m = (s * (n_all // a) + t * (n_all // b)) % n_all
            d = n_all // gcd(n_all, m)
            counts[d] = counts.get(d, 0) + 1
    poly: Poly = [1]
    order = 1
    for d, c in sorted(counts.items()):
        if c % _totient(d):
            raise ArithmeticError(f"eigenvalues of order {d} do not fill whole orbits")
        for _ in range(c // _totient(d)):
            poly = _poly_mul(poly, cyclotomic(d))
        order = _lcm(order, d)
    return poly, order


def transvection_product(i_mat: list[list[int]], sign: int = PL_SIGN) -> list[list[int]]:
    """T_1 T_2 ... T_mu with T_k x = x + sign (x . V_k) V_k, as a matrix.

    T_k = Id + sign e_k c_k^T with c_k[j] = I[j][k], so right-multiplying by
    T_k adds sign * (column k) * c_k^T.
    """
    mu = len(i_mat)
    m = [[int(i == j) for j in range(mu)] for i in range(mu)]
    for k in range(mu):
        col = [m[i][k] for i in range(mu)]
        c = [sign * i_mat[j][k] for j in range(mu)]
        for i in range(mu):
            if col[i]:
                row = m[i]
                f = col[i]
                for j in range(mu):
                    if c[j]:
                        row[j] += f * c[j]
    return m


class OrderCapFault(Exception):
    """The report gives no order because the true order exceeds its cap."""


def check_report(rep: dict, a: int, b: int, d: int, r: int) -> list[str]:
    """Problems with a report of a divide of x^a + y^b with d crossings on r
    branches.  Raises OrderCapFault when the only fault is an order left
    null below the true order because it exceeds the report's max_power."""
    problems: list[str] = []
    mu = 2 * d - r + 1
    if mu != (a - 1) * (b - 1):
        raise ValueError(f"d = {d}, r = {r} does not describe x^{a} + y^{b}")
    inv = rep["invariants"]
    for key, want in (("d", d), ("r", r), ("mu", mu)):
        if inv[key] != want:
            problems.append(f"invariants.{key} = {inv[key]}, expected {want}")
    mats = rep["matrices"]
    i_mat = mats["I"]
    if len(i_mat) != mu or any(len(row) != mu for row in i_mat):
        problems.append(f"I is not {mu} x {mu}")
        return problems

    poly, order = brieskorn_pham(a, b)
    if rep["char_poly"]["coefficients"] != poly:
        problems.append(
            f"char_poly.coefficients = {rep['char_poly']['coefficients']}, "
            f"Brieskorn-Pham ({a},{b}) gives {poly}"
        )
    if rep["calibration"]["pl_sign"] != PL_SIGN:
        problems.append(f"calibration.pl_sign = {rep['calibration']['pl_sign']}")
    if mats["M_desc"] != transvection_product(i_mat):
        problems.append("M_desc differs from the product of transvections of I")

    suite = rep["identity_suite"]
    if suite["passed"] is not True:
        problems.append("identity_suite.passed is not true")
    problems += [
        f"identity check {c['key']}: {c['verdict']}"
        for c in suite["checks"]
        if c["verdict"] != "pass"
    ]
    adapted = rep["adapted"]
    if adapted["passed"] is not True or any(v != "pass" for v in adapted["verdicts"]):
        problems.append("adapted family verdict is not pass")
    if rep["certificate"]["verdict"] != "pass":
        problems.append("certificate verdict is not pass")
    problems += [
        f"depth-1 cone at {c['vertex']}: {c['verdict']}"
        for c in rep["depth1_cones"]
        if c["verdict"] != "pass"
    ]

    got = rep["char_poly"]["order"]
    cap = rep["char_poly"]["max_power"]
    if got is None and order > cap and not problems:
        raise OrderCapFault(f"order null; the true order {order} exceeds max_power {cap}")
    if got != order:
        problems.append(f"char_poly.order = {got}, expected {order}")
    return problems


def bfs_depths(mu: int, edges: list[tuple[int, int]], exposed: set[int]) -> list[int]:
    """Graph distance of every vertex from the exposed set (-1 if unreachable)."""
    adj: list[list[int]] = [[] for _ in range(mu)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    depth = [-1] * mu
    queue = deque(sorted(exposed))
    for v in queue:
        depth[v] = 0
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if depth[nxt] == -1:
                depth[nxt] = depth[cur] + 1
                queue.append(nxt)
    return depth


def check_screen(s: dict, d: int, r: int, a_n: bool) -> list[str]:
    """Problems with one screening result, given as plain numbers.

    ``s`` holds V, E, F (vertices, edges and faces of the traced map, virtual
    boundary arcs counted as edges), regions, the AG census and vertex types,
    the AG edges as position pairs, the exposed positions and the depth of
    every position.
    """
    problems: list[str] = []
    if s["V"] - s["E"] + s["F"] != 1:
        problems.append(f"V - E + F = {s['V'] - s['E'] + s['F']}, expected 1")
    if s["regions"] != d - r + 1:
        problems.append(f"{s['regions']} regions, expected d - r + 1 = {d - r + 1}")
    mu = 2 * d - r + 1
    if sum(s["census"]) != mu:
        problems.append(f"AG has {sum(s['census'])} vertices, expected mu = {mu}")
        return problems
    if a_n and tuple(s["census"]) != (d - r + 1, d, 0):
        problems.append(f"census {s['census']}, expected {(d - r + 1, d, 0)}")
    if a_n and len(s["exposed"]) != mu:
        problems.append(f"{mu - len(s['exposed'])} A_n vertices are not exposed")
    if any(not (0 <= u < v < mu) for u, v in s["edges"]):
        problems.append("AG edge out of range or not ordered")
        return problems
    if len(s["depth"]) != mu or any(not 0 <= v < mu for v in s["exposed"]):
        problems.append("depth labels or exposed set do not fit the AG")
        return problems
    want = bfs_depths(mu, s["edges"], set(s["exposed"]))
    if list(s["depth"]) != want:
        bad = next(i for i, (x, y) in enumerate(zip(s["depth"], want)) if x != y)
        problems.append(f"depth[{bad}] = {s['depth'][bad]}, BFS distance is {want[bad]}")
    if not s["round_trip"]:
        problems.append("divide_to_text round trip is not byte-identical")
    return problems
