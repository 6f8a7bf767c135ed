"""Milnor lattice of the ordered distinguished collection.

Intersection matrix from the AG diagram, lower-triangular unipotent Seifert
matrix, Picard-Lefschetz transvections, homological monodromy by two routes,
and the exact identity suite relating them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intmat
from .agdiagram import AGDiagram
from .core import DivideError
from .intmat import Mat


def pl_sign_for_dim(dim_n: int) -> int:
    """The transvection sign (-1)^(n(n-1)/2); -1 for curves (n = 2)."""
    return -1 if (dim_n * (dim_n - 1) // 2) % 2 else 1


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


def seifert_matrix(i_mat: Mat, dim_n: int = 2) -> Mat:
    """Unipotent lower-triangular Seifert matrix determined by I.

    S[i][i] = 1, S[i][j] = 0 above the diagonal, S[i][j] = -I[i][j] below;
    then I = -S + (-1)^n S^T holds entrywise.
    """
    mu = len(i_mat)
    rows = [
        [1 if i == j else (0 if j > i else -i_mat[i][j]) for j in range(mu)]
        for i in range(mu)
    ]
    s = intmat.freeze(rows)
    sign = 1 if dim_n % 2 == 0 else -1
    if intmat.add(intmat.neg(s), intmat.scal(sign, intmat.transpose(s))) != i_mat:
        raise DivideError("Seifert matrix does not reproduce the intersection form")
    return s


@dataclass(frozen=True)
class MilnorLattice:
    basis: tuple[str, ...]
    i_mat: Mat
    s_mat: Mat
    dim_n: int = 2

    @property
    def mu(self) -> int:
        return len(self.basis)

    @property
    def pl_sign(self) -> int:
        return pl_sign_for_dim(self.dim_n)


def milnor_lattice(ag: AGDiagram, dim_n: int = 2) -> MilnorLattice:
    i_mat = intersection_matrix(ag)
    return MilnorLattice(
        basis=tuple(v.label for v in ag.vertices),
        i_mat=i_mat,
        s_mat=seifert_matrix(i_mat, dim_n),
        dim_n=dim_n,
    )


def transvection(i_mat: Mat, k: int, pl_sign: int = -1) -> Mat:
    """Matrix of x -> x + pl_sign * (x . V_k) * V_k in the cycle basis.

    k is a 0-based basis index.  Unipotent with determinant 1.
    """
    mu = len(i_mat)
    rows = [[int(i == j) for j in range(mu)] for i in range(mu)]
    for j in range(mu):
        rows[k][j] += pl_sign * i_mat[j][k]
    return intmat.freeze(rows)


@dataclass(frozen=True)
class MonodromyPair:
    m_desc: Mat  # twist of the last basis vector applied first
    m_asc: Mat  # twist of the first basis vector applied first
    rho_s: Mat  # (-1)^n S^{-T} S


def monodromy(i_mat: Mat, dim_n: int = 2) -> MonodromyPair:
    """Both transvection products and the Seifert-form route.

    m_desc applies the twists in descending basis order (last first), which
    is the composition computing the variation iteration; m_asc is the
    reverse and is the product inverted by rho_s.
    """
    mu = len(i_mat)
    sign = pl_sign_for_dim(dim_n)
    # T_k = Id + e_k c_k^T with c_k[j] = sign * I[j][k]; only nonzero entries kept.
    cs = [[(j, sign * i_mat[j][k]) for j in range(mu) if i_mat[j][k]] for k in range(mu)]
    desc = [[int(i == j) for j in range(mu)] for i in range(mu)]
    asc = [row[:] for row in desc]
    for k, c in enumerate(cs):
        # M_desc <- M_desc T_k = M_desc + (M_desc e_k) c_k^T: T_mu acts first
        for row in desc:
            v = row[k]
            if v:
                for j, x in c:
                    row[j] += v * x
        # M_asc <- T_k M_asc, row k += c_k^T M_asc: T_1 acts first
        new_row = asc[k]
        for j, x in c:
            new_row = [a + x * y for a, y in zip(new_row, asc[j])]
        asc[k] = new_row
    m_desc, m_asc = intmat.freeze(desc), intmat.freeze(asc)
    s = seifert_matrix(i_mat, dim_n)
    s_inv_t = intmat.transpose(intmat.inverse_unipotent_lower(s))
    parity = 1 if dim_n % 2 == 0 else -1
    rho_s = intmat.scal(parity, intmat.mul(s_inv_t, s))
    return MonodromyPair(m_desc=m_desc, m_asc=m_asc, rho_s=rho_s)


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

    def by_key(self, key: str) -> IdentityCheck:
        for c in self.checks:
            if c.key == key:
                return c
        raise KeyError(key)


def _fmt(m: Mat) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in m) + "]"


def identity_suite(
    lattice: MilnorLattice, pair: MonodromyPair, branch_count: int
) -> IdentitySuite:
    """Evaluate all Seifert/monodromy identities in exact integers.

    Every check runs to completion; failures carry the offending matrices.
    """
    i_mat, s = lattice.i_mat, lattice.s_mat
    mu = lattice.mu
    parity = 1 if lattice.dim_n % 2 == 0 else -1
    checks: list[IdentityCheck] = []

    lhs = intmat.add(intmat.neg(s), intmat.scal(parity, intmat.transpose(s)))
    checks.append(
        IdentityCheck(
            key="intersection_from_seifert",
            description="I = -S + (-1)^n S^T",
            passed=lhs == i_mat,
            detail="" if lhs == i_mat else f"got {_fmt(lhs)} expected {_fmt(i_mat)}",
        )
    )

    conj = intmat.mul(intmat.transpose(pair.m_asc), intmat.mul(s, pair.m_asc))
    checks.append(
        IdentityCheck(
            key="seifert_monodromy_invariance",
            description="M_asc^T S M_asc = S",
            passed=conj == s,
            detail="" if conj == s else f"got {_fmt(conj)}",
        )
    )

    prod = intmat.mul(pair.rho_s, pair.m_asc)
    ident = intmat.identity(mu)
    checks.append(
        IdentityCheck(
            key="variation_dictionary",
            description="rho_S * M_asc = Id",
            passed=prod == ident,
            detail="" if prod == ident else f"got {_fmt(prod)}",
        )
    )

    # The Lefschetz-number theorem concerns the geometric monodromy, which is
    # the descending product; the ascending product is conjugate to it (and
    # so shares the trace) only when the diagram is a tree.
    tr_d, tr_a = intmat.trace(pair.m_desc), intmat.trace(pair.m_asc)
    checks.append(
        IdentityCheck(
            key="lefschetz_zero",
            description="trace(M_desc) = 1",
            passed=tr_d == 1,
            detail=f"trace(M_desc) = {tr_d}, trace(M_asc) = {tr_a}",
        )
    )

    det_mi = intmat.det(intmat.sub(pair.m_desc, ident))
    det_i = intmat.det(i_mat)
    ok = abs(det_mi) == abs(det_i)
    checks.append(
        IdentityCheck(
            key="monodromy_intersection_determinant",
            description="det(M_desc - Id) = +-det(I)",
            passed=ok,
            detail="" if ok else f"det(M - Id) = {det_mi}, det(I) = {det_i}",
        )
    )

    rk = intmat.rank(i_mat)
    want = mu - branch_count + 1
    checks.append(
        IdentityCheck(
            key="intersection_rank",
            description="rank(I) = mu - r + 1",
            passed=rk == want,
            detail="" if rk == want else f"rank {rk}, expected {want}",
        )
    )

    det_s = intmat.det(s)
    checks.append(
        IdentityCheck(
            key="seifert_unimodular",
            description="det(S) = 1",
            passed=det_s == 1,
            detail="" if det_s == 1 else f"det(S) = {det_s}",
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
