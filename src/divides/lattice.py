"""Milnor lattice of the ordered distinguished collection.

The intersection matrix I and the upper unipotent Seifert matrix S of the
variation operator, both written from the AG edges in one pass; the
homological monodromy M as the product of the Picard-Lefschetz
transvections; and the exact identity suite relating them.  An AG edge
(u, v, m), u < v, writes I[v][u] = S[u][v] = m and I[u][v] = -m.
For plane curves the classical dictionary reads I = -S + S^T, var = -S^{-1}
and M = S^{-1} S^T (Lamotke, Math. Z. 143 (1975); Arnold, Gusein-Zade and
Varchenko, *Singularities of Differentiable Maps II*, chapter 2).
"""

from __future__ import annotations

from bisect import insort
from functools import cached_property
from typing import NamedTuple

from . import intmat
from .agdiagram import AGDiagram
from .core import DivideError
from .intmat import Columns, Mat, column_nonzeros

DIM_N = 2  # plane curves: singularities of functions of two variables
PL_SIGN = -1  # the transvection sign (-1)^(n(n-1)/2) for n = DIM_N


class _LatticeFields(NamedTuple):
    i_mat: Mat
    s_mat: Mat


class MilnorLattice(_LatticeFields):
    """I and S; the column index of I is built on its first read."""

    @property
    def mu(self) -> int:
        return len(self.i_mat)

    @cached_property
    def columns(self) -> Columns:
        """``column_nonzeros(i_mat)``, built once per lattice."""
        return column_nonzeros(self.i_mat)


def milnor_lattice(ag: AGDiagram) -> MilnorLattice:
    """I and S in one pass over the AG edges, which it holds to the edge rule
    of ``AGDiagram``.

    An edge (u, v, m) writes I[v][u] = S[u][v] = m and I[u][v] = -m: the
    higher type meets the lower type positively.  S has unit diagonal and
    zeros below it, so I = -S + S^T.
    """
    mu, vertices = ag.mu, ag.vertices
    i_rows = [[0] * mu for _ in range(mu)]
    s_rows = [[0] * k + [1] + [0] * (mu - 1 - k) for k in range(mu)]
    last = ()  # sorts before every pair
    for u, v, m in ag.edges:
        if not (0 <= u < v < mu and last < (u, v)):
            raise DivideError(f"AG edge ({u}, {v}) is out of range or out of order")
        last = (u, v)
        if vertices[u].vtype == vertices[v].vtype:
            raise DivideError(
                f"AG edge between same-type vertices {vertices[u].label}, {vertices[v].label}"
            )
        if type(m) is not int or m < 1:
            raise DivideError(f"AG edge ({u}, {v}) has multiplicity {m!r}, not an int >= 1")
        i_rows[v][u] = s_rows[u][v] = m
        i_rows[u][v] = -m
    return MilnorLattice(i_mat=tuple(map(tuple, i_rows)), s_mat=tuple(map(tuple, s_rows)))


def monodromy(lattice: MilnorLattice) -> Mat:
    """The monodromy T_1 T_2 ... T_mu: the twist of the last basis vector
    acts first, the composition the variation iteration follows.  Reads the
    lattice's column index of I.

    Row r of M is e_r T_1 ... T_mu, and twist k changes a row only when the
    row is nonzero at k.  So each row walks, in increasing order, only the
    positions its updates reach: twist k adds to the row at the nonzeros of
    column k of I, and those above k join the walk.  The cost is that of the
    updates, nnz(column k of I) for each position k a row reaches, with no
    step spent on a position that stays zero.
    """
    mu, columns = lattice.mu, lattice.columns
    rows = []
    queued = [-1] * mu  # queued[j]: the last row whose walk took position j
    for r in range(mu):
        row = [0] * mu
        row[r] = 1
        pending = [-r]  # negated positions still to walk, so pop() gives the least
        while pending:
            k = -pending.pop()
            v = row[k]
            if v:
                # T_k = Id + e_k c_k^T with c_k[j] = PL_SIGN * I[j][k], so
                # row <- row T_k = row + row[k] c_k^T
                v *= PL_SIGN
                for j, x in columns[k]:
                    row[j] += v * x
                    if j > k and queued[j] != r:
                        queued[j] = r
                        insort(pending, -j)
        rows.append(tuple(row))
    return tuple(rows)


class IdentityCheck(NamedTuple):
    key: str
    description: str
    passed: bool
    detail: str = ""


class IdentitySuite(NamedTuple):
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def identity_suite(lattice: MilnorLattice, m_desc: Mat, branch_count: int) -> IdentitySuite:
    """Evaluate the Seifert/monodromy identities in exact integers.

    Every check runs to completion; failures carry the offending matrices.
    S M = S^T checks the transvection product against the Seifert route, and
    with it det(M - Id) = det(S^{-1} I) = det(I).
    """
    i_mat, s = lattice.i_mat, lattice.s_mat
    checks: list[IdentityCheck] = []

    sm, st = intmat.mul(s, m_desc), intmat.transpose(s)
    checks.append(
        IdentityCheck(
            key="seifert_monodromy",
            description="S M_desc = S^T",
            passed=sm == st,
            detail="" if sm == st else f"got {list(map(list, sm))} expected {list(map(list, st))}",
        )
    )

    tr = intmat.trace(m_desc)
    checks.append(
        IdentityCheck(
            key="lefschetz_zero",
            description="trace(M_desc) = 1",
            passed=tr == 1,
            detail=f"trace(M_desc) = {tr}",
        )
    )

    rk = intmat.rank(i_mat)
    want = lattice.mu - branch_count + 1
    checks.append(
        IdentityCheck(
            key="intersection_rank",
            description="rank(I) = mu - r + 1",
            passed=rk == want,
            detail="" if rk == want else f"rank {rk}, expected {want}",
        )
    )
    return IdentitySuite(checks=tuple(checks))

