"""Variation checks on the columns of S, the Euler quiver, depth-1 cones.

A relative class is recorded as its integer intersection vector against the
vanishing-cycle basis.  The adapted family is the columns of the Seifert
matrix S, since var = PL_SIGN * S^{-1} for plane curves; this module reads
them from ``MilnorLattice.s_mat`` and returns verdicts on them, the Euler
quiver and its exceptional certificate read from S, and the depth-1 cone
classes.  The variation of a class is computed by the twist-by-twist
iteration (last basis twist first) over the nonzeros of each column of I,
read from I itself and never by the Seifert route, so the two are
independent checks of each other.  One class costs O(mu + nnz(I)) steps;
``verify_adapted`` runs the iteration once for the whole family, one row
operation per nonzero of I below the diagonal, and the certificate compares
whole rows of S, checking entry by entry only a row that differs.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .agdiagram import AGDiagram, DepthLabels
from .core import DivideError
from .intmat import Mat
from .lattice import PL_SIGN, Columns, MilnorLattice, column_nonzeros

Vec = tuple[int, ...]


def pl_variation(vector: Sequence[int], i_mat: Mat) -> Vec:
    """Variation image of a relative class, in the vanishing-cycle basis.

    Maintains x = K + sum c_m V_m through the twists applied in descending
    basis order; each twist k sends x to x + PL_SIGN * (x . V_k) V_k with
    x . V_k = vector[k] + sum_m c_m I[m][k], a sum over the nonzeros of
    column k of I.  Returns the final c.
    """
    return _variation(vector, column_nonzeros(i_mat))


def _variation(vector: Sequence[int], columns: Columns) -> Vec:
    mu = len(columns)
    if len(vector) != mu:
        raise DivideError(f"intersection vector has length {len(vector)}, expected {mu}")
    c = [0] * mu
    for k in range(mu - 1, -1, -1):
        pairing = vector[k]
        for m, x in columns[k]:
            pairing += c[m] * x
        c[k] += PL_SIGN * pairing
    return tuple(c)


class AdaptedVerdict(NamedTuple):
    passes: tuple[bool, ...]
    first_failure: tuple[int, Vec] | None  # (index, computed variation)

    @property
    def passed(self) -> bool:
        return all(self.passes)


def verify_adapted(lattice: MilnorLattice) -> AdaptedVerdict:
    """Check var(a_j) = PL_SIGN * e_j for every column a_j of S, by the
    iteration itself over the lattice's cached columns of I.

    a_j meets V_j once positively, meets every earlier cycle with the
    multiplicity of the intersection form, a_j[m] = I[j][m] for m < j, and
    misses all later cycles.

    The iteration runs once for all columns: row k of the matrix C whose
    column j is var(a_j) is PL_SIGN * (S[k] + sum x C[m]) over the entries
    (m, x) of column k of I with m > k; an entry with m < k meets a row the
    iteration has not yet reached, which is still zero.  So the family costs
    one row operation per nonzero of I below the diagonal.
    """
    s, columns = lattice.s_mat, lattice.columns
    mu = len(columns)
    if len(s) != mu:
        raise DivideError(f"intersection vector has length {len(s)}, expected {mu}")
    # Row k of PL_SIGN * C = S[k] + sum (PL_SIGN x) (PL_SIGN C[m]), as
    # PL_SIGN^2 = 1; the identity matrix when the family passes.
    rows: list[Sequence[int]] = [()] * mu
    for k in range(mu - 1, -1, -1):
        row = s[k]
        for m, x in columns[k]:
            if m > k:
                x *= PL_SIGN
                row = [a + x * b for a, b in zip(row, rows[m])]
        rows[k] = row
    passes = []
    first_failure = None
    for j, col in enumerate(zip(*rows)):
        ok = col == (0,) * j + (1,) + (0,) * (mu - 1 - j)
        passes.append(ok)
        if not ok and first_failure is None:
            first_failure = (j, tuple(PL_SIGN * x for x in col))
    return AdaptedVerdict(passes=tuple(passes), first_failure=first_failure)


# ---------------------------------------------------------------------------
# Euler quiver


class EulerQuiver(NamedTuple):
    arrows: tuple[tuple[int, int, int], ...]  # (from, to, weight), from < to
    sigma: int
    grading_note: str


GRADING_NOTE = (
    "sigma normalized so the diagonal Euler characteristic is +1; the "
    "absolute sign of the strictly upper entries depends on a grading "
    "convention the lattice cannot see and is reported, not asserted"
)


def euler_quiver(lattice: MilnorLattice) -> EulerQuiver:
    """Quiver of the Euler characteristics of the pairwise monodromy
    cohomology groups.

    Their matrix is E = 2 Id - S: unit diagonal, E[i][j] = -S[i][j] =
    I[i][j] above it and zero below, so sigma = +1.  Arrows run from lower to
    higher order index at every nonzero strictly-upper entry of S.
    """
    arrows = tuple(
        (i, j, abs(row[j]))
        for i, row in enumerate(lattice.s_mat)
        for j in range(i + 1, lattice.mu)
        if row[j]
    )
    return EulerQuiver(arrows=arrows, sigma=1, grading_note=GRADING_NOTE)


class CertificateVerdict(NamedTuple):
    passed: bool
    violations: tuple[tuple[int, int, int, int], ...]  # (i, j, expected, E[i][j])


def exceptional_certificate(lattice: MilnorLattice, ag: AGDiagram) -> CertificateVerdict:
    """Certify the one-directional vanishing pattern against the AG diagram.

    Passes iff E = 2 Id - S has unit diagonal, vanishes strictly below it,
    and the magnitude of every strictly-upper entry (i, j) equals the
    multiplicity of the edge (i, j), or 0 when there is none.  Each entry of
    E is read from S where it is checked: a row of S equal to the row that
    passes is checked whole, any other row entry by entry.
    """
    expected = {(u, v): m for u, v, m in ag.edges}
    s = lattice.s_mat
    mu = len(s)
    # Row i of S as it passes: 1 at i and each multiplicity above it.  x = m
    # gives |x| = m only for an int m >= 0; any other multiplicity is put in
    # as None, which no entry equals, so its row is checked entry by entry.
    want_rows = [[0] * i + [1] + [0] * (mu - 1 - i) for i in range(mu)]
    for (u, v), m in expected.items():
        if 0 <= u < v < mu:
            want_rows[u][v] = m if type(m) is int and m >= 0 else None
    violations = []
    for i, row in enumerate(s):
        if row == tuple(want_rows[i]):
            continue
        for j, x in enumerate(row):
            if i < j:
                want = expected.get((i, j), 0)
                if abs(x) != want:
                    violations.append((i, j, want, -x))
            elif x != (i == j):  # E[i][j] = 2 (i == j) - x must be (i == j)
                violations.append((i, j, int(i == j), 2 * (i == j) - x))
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


class Depth1Cone(NamedTuple):
    vertex: int  # order position of the depth-1 vertex
    partner: int  # order position of the chosen depth-0 neighbor
    a_prime: Vec  # column vertex of S minus column partner
    passed: bool


def depth1_cone(
    ag: AGDiagram,
    depths: DepthLabels,
    lattice: MilnorLattice,
    vertex: int,
) -> Depth1Cone:
    """Two-component class (a_prime, a_partner) whose variation is
    PL_SIGN * V_vertex.

    The partner is the smallest-index depth-0 neighbor.  a_prime is
    a_vertex - a_partner, the difference of two columns of S, so by
    linearity var(a_prime) = PL_SIGN * (e_vertex - e_partner); the cone
    passes when the iteration gives that, and the variations of its two
    components sum to PL_SIGN * e_vertex.
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
        raise DivideError(f"vertex {ag.vertices[vertex].label} has no depth-0 neighbor")
    partner = min(partners)

    s = lattice.s_mat
    a_prime = tuple(row[vertex] - row[partner] for row in s)
    var_prime = _variation(a_prime, lattice.columns)
    var_partner = _variation(tuple(row[partner] for row in s), lattice.columns)
    target = tuple(PL_SIGN * ((i == vertex) - (i == partner)) for i in range(mu))
    total = tuple(x + y for x, y in zip(var_prime, var_partner))
    want_total = tuple(PL_SIGN * (i == vertex) for i in range(mu))
    return Depth1Cone(
        vertex=vertex,
        partner=partner,
        a_prime=a_prime,
        passed=(var_prime == target and total == want_total),
    )
