"""Adapted families, the variation iteration, Euler quivers, depth-1 cones.

A relative class is recorded as its integer intersection vector against the
vanishing-cycle basis.  The variation of such a class is computed by the
twist-by-twist iteration (last basis twist first), never by the Seifert
route, so the two are independent checks of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import intmat
from .agdiagram import AGDiagram, DepthLabels
from .core import DivideError
from .intmat import Mat
from .lattice import MilnorLattice

Vec = tuple[int, ...]


@dataclass(frozen=True)
class AdaptedFamily:
    """Vectors a_j with a_j[m] = (j-th relative class) . V_m."""

    vectors: tuple[Vec, ...]


def adapted_vectors(i_mat: Mat) -> AdaptedFamily:
    """The adapted family forced by the three intersection clauses.

    a_j meets V_j once positively, meets every earlier cycle with the
    multiplicity of the intersection form, and misses all later cycles.
    """
    return AdaptedFamily(vectors=tuple(adapted_vector(i_mat, j) for j in range(len(i_mat))))


def adapted_vector(i_mat: Mat, j: int) -> Vec:
    """The j-th vector of ``adapted_vectors``: (I[j][0..j-1], 1, 0, ..., 0)."""
    return tuple(i_mat[j][:j]) + (1,) + (0,) * (len(i_mat) - j - 1)


def pl_variation(vector: Sequence[int], i_mat: Mat, pl_sign: int = -1) -> Vec:
    """Variation image of a relative class, in the vanishing-cycle basis.

    Maintains x = K + sum c_m V_m through the twists applied in descending
    basis order; each twist k sends x to x + pl_sign * (x . V_k) V_k with
    x . V_k = vector[k] + sum_m c_m I[m][k].  Returns the final c.
    """
    mu = len(i_mat)
    if len(vector) != mu:
        raise DivideError(f"intersection vector has length {len(vector)}, expected {mu}")
    c = [0] * mu
    for k in range(mu - 1, -1, -1):
        pairing = vector[k] + sum(c[m] * i_mat[m][k] for m in range(mu))
        c[k] += pl_sign * pairing
    return tuple(c)


def variation_matrix(i_mat: Mat, pl_sign: int = -1) -> Mat:
    """Matrix of pl_variation on intersection vectors (columns = images of e_j).

    Upper triangular with diagonal pl_sign, hence unimodular.
    """
    mu = len(i_mat)
    cols = [pl_variation(unit(mu, j), i_mat, pl_sign) for j in range(mu)]
    return intmat.freeze([[cols[j][i] for j in range(mu)] for i in range(mu)])


def unit(mu: int, j: int) -> Vec:
    return tuple(1 if i == j else 0 for i in range(mu))


@dataclass(frozen=True)
class AdaptedVerdict:
    passes: tuple[bool, ...]
    first_failure: tuple[int, Vec] | None  # (index, computed variation)

    @property
    def passed(self) -> bool:
        return all(self.passes)


def verify_adapted(
    family: AdaptedFamily, i_mat: Mat, pl_sign: int = -1
) -> AdaptedVerdict:
    """Check var(a_j) = pl_sign * e_j for every j, by the iteration itself."""
    mu = len(i_mat)
    passes = []
    first_failure = None
    for j, vec in enumerate(family.vectors):
        got = pl_variation(vec, i_mat, pl_sign)
        want = tuple(pl_sign if i == j else 0 for i in range(mu))
        ok = got == want
        passes.append(ok)
        if not ok and first_failure is None:
            first_failure = (j, got)
    return AdaptedVerdict(passes=tuple(passes), first_failure=first_failure)


# ---------------------------------------------------------------------------
# Euler quiver


@dataclass(frozen=True)
class EulerQuiver:
    e_mat: Mat
    arrows: tuple[tuple[int, int, int], ...]  # (from, to, weight), from < to
    sigma: int
    grading_note: str


GRADING_NOTE = (
    "sigma normalized so the diagonal Euler characteristic is +1; the "
    "absolute sign of the strictly upper entries depends on a grading "
    "convention the lattice cannot see and is reported, not asserted"
)


def euler_matrix(lattice: MilnorLattice) -> EulerQuiver:
    """Euler characteristics of the pairwise monodromy cohomology groups.

    E[i][j] = sigma * S[j][i], with the global sign sigma in {+1, -1} fixed
    so that E[i][i] = +1.  Arrows run from lower to higher order index at
    every nonzero strictly-upper entry.
    """
    s = lattice.s_mat
    mu = lattice.mu
    sigma = 1 if s[0][0] > 0 else -1
    e_rows = [[sigma * s[j][i] for j in range(mu)] for i in range(mu)]
    e_mat = intmat.freeze(e_rows)
    if any(e_mat[i][i] != 1 for i in range(mu)):
        raise DivideError("Euler matrix diagonal cannot be normalized to +1")
    arrows = []
    for i in range(mu):
        for j in range(i + 1, mu):
            if e_mat[i][j] != 0:
                arrows.append((i, j, abs(e_mat[i][j])))
    return EulerQuiver(
        e_mat=e_mat, arrows=tuple(arrows), sigma=sigma, grading_note=GRADING_NOTE
    )


@dataclass(frozen=True)
class CertificateVerdict:
    passed: bool
    violations: tuple[tuple[int, int, int, int], ...]  # (i, j, expected, got)


def exceptional_certificate(quiver: EulerQuiver, ag: AGDiagram) -> CertificateVerdict:
    """Certify the one-directional vanishing pattern against the AG diagram.

    Passes iff E has unit diagonal, vanishes strictly below it, and the
    magnitude of every strictly-upper entry equals the AG multiplicity.
    """
    e = quiver.e_mat
    mu = len(e)
    violations = []
    for i in range(mu):
        for j in range(mu):
            if i == j:
                expected = 1
                got = e[i][j]
            elif i > j:
                expected = 0
                got = e[i][j]
            else:
                expected = ag.multiplicity(i, j)
                got = abs(e[i][j])
            if got != expected:
                violations.append((i, j, expected, e[i][j]))
    return CertificateVerdict(passed=not violations, violations=tuple(violations))


def quiver_dot(quiver: EulerQuiver, labels: Sequence[str]) -> str:
    """Deterministic DOT rendering of the Euler quiver."""
    lines = ["digraph euler {", "  node [shape=circle];"]
    for label in labels:
        lines.append(f'  "{label}";')
    for i, j, w in quiver.arrows:
        attr = f' [label="{w}"]' if w > 1 else ""
        lines.append(f'  "{labels[i]}" -> "{labels[j]}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Depth-1 cones


@dataclass(frozen=True)
class Depth1Cone:
    vertex: int  # order position of the depth-1 vertex
    partner: int  # order position of the chosen depth-0 neighbor
    a_prime: Vec
    a_partner: Vec
    variation_a_prime: Vec  # pl_sign*(e_vertex) - pl_sign*(e_partner)
    variation_partner: Vec
    total_variation: Vec
    components: tuple[Vec, ...]
    passed: bool


def depth1_cone(
    ag: AGDiagram,
    depths: DepthLabels,
    lattice: MilnorLattice,
    vertex: int,
) -> Depth1Cone:
    """Two-component class whose variation is pl_sign * V_vertex.

    The partner is the smallest-index depth-0 neighbor; a_prime solves
    var(a_prime) = pl_sign*(e_vertex - e_partner) by inverting the
    descending twist iteration (``_solve_variation``), and the result is
    checked by running ``pl_variation`` on it.
    """
    mu = lattice.mu
    if not (0 <= vertex < mu):
        raise DivideError(f"vertex position {vertex} out of range")
    if depths.depth[vertex] != 1:
        raise DivideError(
            f"vertex {ag.vertices[vertex].label} is not depth 1 "
            f"(depth {depths.depth[vertex]})"
        )
    partners = [w for w in ag.neighbors(vertex) if depths.depth[w] == 0]
    if not partners:
        raise DivideError(
            f"vertex {ag.vertices[vertex].label} has no depth-0 neighbor"
        )
    partner = min(partners)

    sign = lattice.pl_sign
    target = tuple(
        sign if i == vertex else (-sign if i == partner else 0) for i in range(mu)
    )
    a_prime = _solve_variation(lattice.i_mat, sign, target)
    a_partner = adapted_vector(lattice.i_mat, partner)

    var_prime = pl_variation(a_prime, lattice.i_mat, sign)
    var_partner = pl_variation(a_partner, lattice.i_mat, sign)
    total = tuple(x + y for x, y in zip(var_prime, var_partner))
    want_total = tuple(sign if i == vertex else 0 for i in range(mu))
    return Depth1Cone(
        vertex=vertex,
        partner=partner,
        a_prime=a_prime,
        a_partner=a_partner,
        variation_a_prime=var_prime,
        variation_partner=var_partner,
        total_variation=total,
        components=(a_prime, a_partner),
        passed=(var_prime == target and total == want_total),
    )


def _solve_variation(i_mat: Mat, pl_sign: int, target: Vec) -> Vec:
    """Solve pl_variation(a) = target, for pl_sign = +1 or -1.

    Twist k of the descending iteration leaves the coefficient
    c[k] = pl_sign * (a[k] + sum_{m>k} c[m] I[m][k]), later twists never
    change it, and c must end equal to target, so
    a[k] = pl_sign * target[k] - sum_{m>k} target[m] I[m][k]: integral, with
    no division, in O(mu * nnz(target)).
    """
    support = [m for m, x in enumerate(target) if x]
    return tuple(
        pl_sign * target[k] - sum(target[m] * i_mat[m][k] for m in support if m > k)
        for k in range(len(i_mat))
    )
