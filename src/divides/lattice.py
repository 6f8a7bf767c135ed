"""Milnor lattice of the ordered distinguished collection.

Intersection matrix from the AG diagram, the upper unipotent Seifert matrix
S of the variation operator, Picard-Lefschetz transvections, the homological
monodromy M as their product, and the exact identity suite relating them.
For plane curves the classical dictionary reads I = -S + S^T, var = -S^{-1}
and M = S^{-1} S^T (Lamotke, Math. Z. 143 (1975); Arnold, Gusein-Zade and
Varchenko, *Singularities of Differentiable Maps II*, chapter 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intmat
from .agdiagram import AGDiagram
from .core import DivideError
from .intmat import Mat

DIM_N = 2  # plane curves: singularities of functions of two variables
PL_SIGN = -1  # the transvection sign (-1)^(n(n-1)/2) for n = DIM_N


def intersection_matrix(ag: AGDiagram) -> Mat:
    """Antisymmetric intersection matrix in the AG vertex order.

    For an edge between order positions i < j the higher type meets the
    lower type positively: I[j][i] = +multiplicity, I[i][j] = -multiplicity.
    """
    mu = ag.mu
    rows = [[0] * mu for _ in range(mu)]
    for e in ag.edges:
        if ag.vertices[e.u].vtype == ag.vertices[e.v].vtype:
            raise DivideError("same-type AG edge cannot enter the lattice")
        rows[e.v][e.u] = e.multiplicity
        rows[e.u][e.v] = -e.multiplicity
    return intmat.freeze(rows)


def seifert_matrix(i_mat: Mat) -> Mat:
    """Unipotent upper-triangular Seifert matrix determined by I.

    S[i][i] = 1, S[i][j] = -I[i][j] above the diagonal and 0 below, so that
    I = -S + S^T holds entrywise exactly when I is antisymmetric.
    """
    mu = len(i_mat)
    if any(i_mat[j][i] != -i_mat[i][j] for i in range(mu) for j in range(i, mu)):
        raise DivideError("intersection matrix is not antisymmetric")
    return intmat.freeze(
        [[1 if i == j else (-i_mat[i][j] if j > i else 0) for j in range(mu)] for i in range(mu)]
    )


@dataclass(frozen=True)
class MilnorLattice:
    basis: tuple[str, ...]
    i_mat: Mat
    s_mat: Mat

    @property
    def mu(self) -> int:
        return len(self.basis)


def milnor_lattice(ag: AGDiagram) -> MilnorLattice:
    i_mat = intersection_matrix(ag)
    return MilnorLattice(
        basis=tuple(v.label for v in ag.vertices),
        i_mat=i_mat,
        s_mat=seifert_matrix(i_mat),
    )


def transvection(i_mat: Mat, k: int) -> Mat:
    """Matrix of x -> x + PL_SIGN * (x . V_k) * V_k in the cycle basis.

    k is a 0-based basis index.  Unipotent with determinant 1.
    """
    mu = len(i_mat)
    rows = [[int(i == j) for j in range(mu)] for i in range(mu)]
    for j in range(mu):
        rows[k][j] += PL_SIGN * i_mat[j][k]
    return intmat.freeze(rows)


def monodromy(i_mat: Mat) -> Mat:
    """The monodromy T_1 T_2 ... T_mu: the twist of the last basis vector
    acts first, the composition the variation iteration follows."""
    mu = len(i_mat)
    m = [[int(i == j) for j in range(mu)] for i in range(mu)]
    for k in range(mu):
        # T_k = Id + e_k c_k^T with c_k[j] = PL_SIGN * I[j][k], nonzeros only;
        # M <- M T_k = M + (M e_k) c_k^T.
        c = [(j, PL_SIGN * i_mat[j][k]) for j in range(mu) if i_mat[j][k]]
        for row in m:
            v = row[k]
            if v:
                for j, x in c:
                    row[j] += v * x
    return intmat.freeze(m)


@dataclass(frozen=True)
class IdentityCheck:
    key: str
    description: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class IdentitySuite:
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fmt(m: Mat) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in m) + "]"


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
            detail="" if sm == st else f"got {_fmt(sm)} expected {_fmt(st)}",
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


@dataclass(frozen=True)
class CharPolyOrder:
    coefficients: tuple[int, ...]  # det(tI - M), descending powers, monic
    order: int | None  # least k >= 1 with M^k = Id; None when the order is infinite


def char_poly_and_order(m: Mat) -> CharPolyOrder:
    coefficients = intmat.charpoly(m)
    return CharPolyOrder(
        coefficients=coefficients,
        order=intmat.matrix_order(m, coefficients),
    )
