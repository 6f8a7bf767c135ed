"""Adapted families, the variation iteration, Euler quivers, depth-1 cones.

A relative class is recorded as its integer intersection vector against the
vanishing-cycle basis.  The adapted family is the columns of the Seifert
matrix S, since var = PL_SIGN * S^{-1} for plane curves.  The variation of a
class is computed by the twist-by-twist iteration (last basis twist first),
never by the Seifert route, so the two are independent checks of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import intmat
from .agdiagram import AGDiagram, DepthLabels
from .core import DivideError
from .intmat import Mat
from .lattice import PL_SIGN, MilnorLattice

Vec = tuple[int, ...]


@dataclass(frozen=True)
class AdaptedFamily:
    """Vectors a_j with a_j[m] = (j-th relative class) . V_m."""

    vectors: tuple[Vec, ...]


def adapted_vectors(s_mat: Mat) -> AdaptedFamily:
    """The adapted family: a_j is column j of the Seifert matrix S.

    a_j meets V_j once positively, meets every earlier cycle with the
    multiplicity of the intersection form, a_j[m] = I[j][m] for m < j, and
    misses all later cycles.
    """
    return AdaptedFamily(vectors=intmat.transpose(s_mat))


def pl_variation(vector: Sequence[int], i_mat: Mat) -> Vec:
    """Variation image of a relative class, in the vanishing-cycle basis.

    Maintains x = K + sum c_m V_m through the twists applied in descending
    basis order; each twist k sends x to x + PL_SIGN * (x . V_k) V_k with
    x . V_k = vector[k] + sum_m c_m I[m][k].  Returns the final c.
    """
    mu = len(i_mat)
    if len(vector) != mu:
        raise DivideError(f"intersection vector has length {len(vector)}, expected {mu}")
    c = [0] * mu
    for k in range(mu - 1, -1, -1):
        pairing = vector[k] + sum(c[m] * i_mat[m][k] for m in range(mu))
        c[k] += PL_SIGN * pairing
    return tuple(c)


@dataclass(frozen=True)
class AdaptedVerdict:
    passes: tuple[bool, ...]
    first_failure: tuple[int, Vec] | None  # (index, computed variation)

    @property
    def passed(self) -> bool:
        return all(self.passes)


def verify_adapted(family: AdaptedFamily, i_mat: Mat) -> AdaptedVerdict:
    """Check var(a_j) = PL_SIGN * e_j for every j, by the iteration itself."""
    mu = len(i_mat)
    passes = []
    first_failure = None
    for j, vec in enumerate(family.vectors):
        got = pl_variation(vec, i_mat)
        want = tuple(PL_SIGN if i == j else 0 for i in range(mu))
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

    E = 2 Id - S: unit diagonal, E[i][j] = I[i][j] above it and zero below,
    so sigma = +1.  Arrows run from lower to higher order index at every
    nonzero strictly-upper entry.
    """
    s = lattice.s_mat
    mu = lattice.mu
    e_mat = intmat.freeze([[2 * (i == j) - s[i][j] for j in range(mu)] for i in range(mu)])
    arrows = tuple(
        (i, j, abs(e_mat[i][j])) for i in range(mu) for j in range(i + 1, mu) if e_mat[i][j]
    )
    return EulerQuiver(e_mat=e_mat, arrows=arrows, sigma=1, grading_note=GRADING_NOTE)


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
    variation_a_prime: Vec  # PL_SIGN * (e_vertex - e_partner)
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
    """Two-component class whose variation is PL_SIGN * V_vertex.

    The partner is the smallest-index depth-0 neighbor.  a_prime is
    a_vertex - a_partner, the difference of two columns of S, so by
    linearity var(a_prime) = PL_SIGN * (e_vertex - e_partner); the result is
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

    s = lattice.s_mat
    a_prime = tuple(row[vertex] - row[partner] for row in s)
    a_partner = tuple(row[partner] for row in s)

    target = tuple(
        PL_SIGN if i == vertex else (-PL_SIGN if i == partner else 0) for i in range(mu)
    )
    var_prime = pl_variation(a_prime, lattice.i_mat)
    var_partner = pl_variation(a_partner, lattice.i_mat)
    total = tuple(x + y for x, y in zip(var_prime, var_partner))
    want_total = tuple(PL_SIGN if i == vertex else 0 for i in range(mu))
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
