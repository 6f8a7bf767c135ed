"""Built-in divides: the A_n zigzag family, E6, and a depth-1 example.

A_n and E6 are Brieskorn-Pham curves x^p + y^q, and their divides are
A'Campo's: the Chebyshev billiard T_p(x) = T_q(y) (A'Campo, Ann. Fac. Sci.
Toulouse 8 (1999); Gusein-Zade, Funct. Anal. Appl. 8 (1974)), built as
integer polylines and ingested by ``geometry.ingest_polyline``.  Only the
depth-1 divide, which is not Brieskorn-Pham, is transcribed as a map from a
figure.  Generators are byte-deterministic.  Expected facts carry
provenance notes, are written independently of the generators and serve as
ground truth for the acceptance suite: each generated or transcribed map is
certified by matching the independently known structure (vertex census,
edge pattern, depth data), not trusted as built.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from .core import Divide, DivideError, EdgeDef, SignSeed
from .geometry import ingest_polyline


class _EntryFields(NamedTuple):
    name: str
    divide: Divide
    expected: dict
    sources: dict


class CorpusEntry(_EntryFields):
    """A divide with its expected facts, each with a source note.

    The notes are checked in ``_make``, which the constructor calls and
    ``_replace`` calls too: a NamedTuple's ``_replace`` never calls
    ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, name: str, divide: Divide, expected: dict, sources: dict):
        return cls._make((name, divide, expected, sources))

    @classmethod
    def _make(cls, iterable) -> CorpusEntry:
        entry = super()._make(iterable)
        missing = set(entry.expected) - set(entry.sources)
        if missing:
            raise DivideError(f"expected facts without source notes: {sorted(missing)}")
        return entry


def _billiard(p: int, q: int, sign: int, name: str) -> Divide:
    """A'Campo's divide of x^p + y^q: the Chebyshev billiard T_p(x) = T_q(y).

    Its piecewise-linear form is the union of the cell diagonals of a q x p
    grid through the grid points (i, j) with i + j even.  Each path is walked
    from an even corner to the corner where it ends, keeping the wall points
    where it turns.  Grid point (i, j) sits at (q - 2i, 2j - p), inside the
    disc of radius R = isqrt(p^2 + q^2) + 1, and each path's two ends move 2R
    out along their end diagonals.  Every integer point of the curve has
    X + Y = p + q (mod 2), so the witness (0, 0) or (-1, 0) is never on the
    curve; its face gets ``sign``.  With gcd(p, q) > 2 some paths close up
    into circles, and the call is refused.
    """
    if gcd(p, q) > 2:
        raise DivideError(f"billiard ({p}, {q}) has circle components: gcd(p, q) > 2")
    radius = isqrt(p * p + q * q) + 1

    def moved_out(end, nxt):
        return tuple(a + (2 * radius if a > b else -2 * radius) for a, b in zip(end, nxt))

    branches: list[tuple[list[tuple[int, int]], bool]] = []
    ends_reached = set()
    for i, j in [(i, j) for i in (0, q) for j in (0, p) if (i + j) % 2 == 0]:
        if (i, j) in ends_reached:
            continue
        di, dj = (1 if i == 0 else -1), (1 if j == 0 else -1)
        path = [(i, j)]
        while True:
            i, j = i + di, j + dj
            wall_i, wall_j = i in (0, q), j in (0, p)
            if wall_i or wall_j:
                path.append((i, j))
                if wall_i and wall_j:
                    break
                di, dj = (-di if wall_i else di), (-dj if wall_j else dj)
        ends_reached.add(path[-1])
        pts = [(q - 2 * i, 2 * j - p) for i, j in path]
        pts[0], pts[-1] = moved_out(pts[0], pts[1]), moved_out(pts[-1], pts[-2])
        branches.append((pts, False))
    witness = (0, 0) if (p + q) % 2 else (-1, 0)
    return ingest_polyline(branches, radius, witness, sign, name)


def gen_a(n: int) -> CorpusEntry:
    """The billiard divide of the chain singularity x^2 + y^(n+1): a zigzag."""
    if n < 1:
        raise DivideError("n must be >= 1")
    divide = _billiard(2, n + 1, -1, f"a{n}")
    d = (n + 1) // 2
    r = 1 if n % 2 == 0 else 2
    expected = {
        "d": d,
        "r": r,
        "mu": n,
        "n_regions": d - r + 1,
        "genus": d - r + 1,
        "boundary_components": r,
        "census": (d - r + 1, d, 0),
        # the path v0_1 - v-_1 - v0_2 - ... for odd n, v-_1 - v0_1 - v-_2 - ... for even n
        "ag_edges": [(f"v-_{i}", f"v0_{j}", 1)
                     for i in range(1, n // 2 + 1) for j in (i - 1 + n % 2, i + n % 2) if j],
        "depths": {f"v0_{i}": 0 for i in range(1, d + 1)}
        | {f"v-_{i}": 0 for i in range(1, d - r + 2)},
        "region_signs": tuple(-1 for _ in range(d - r + 1)),
    }
    src_counts = (
        f"chain singularity x^{n + 1} + y^2: mu = n with the zigzag divide "
        f"(d = ceil(n/2) crossings, {r} branch{'es' if r > 1 else ''})"
    )
    sources = {
        "d": src_counts,
        "r": src_counts,
        "mu": src_counts,
        "n_regions": "bounded regions of a divide number d - r + 1",
        "genus": "Milnor fiber of the chain family: genus d - r + 1 "
        "(n = 4: genus two with one boundary component)",
        "boundary_components": "boundary components = number of branches",
        "census": "zigzag divide: one minus region per fold, no plus regions",
        "ag_edges": "Coxeter diagram of the chain singularity is the path A_n",
        "depths": "the zigzag divide has depth zero: every vertex meets the "
        "unbounded complement",
        "region_signs": "all folds of the zigzag carry the minus sign",
    }
    return CorpusEntry(name=f"a{n}", divide=divide, expected=expected, sources=sources)


_E6_AG_EDGES = [
    ("v-_1", "v0_1", 1),
    ("v-_1", "v0_2", 1),
    ("v-_1", "v+_1", 1),
    ("v-_2", "v0_2", 1),
    ("v-_2", "v0_3", 1),
    ("v-_2", "v+_1", 1),
    ("v0_1", "v+_1", 1),
    ("v0_2", "v+_1", 1),
    ("v0_3", "v+_1", 1),
]


def gen_e6() -> CorpusEntry:
    """The billiard divide of the E6 singularity x^3 + y^4."""
    divide = _billiard(3, 4, 1, "e6")
    expected = {
        "d": 3,
        "r": 1,
        "mu": 6,
        "n_regions": 3,
        "genus": 3,
        "boundary_components": 1,
        "census": (2, 3, 1),
        "ag_edges": list(_E6_AG_EDGES),
        "depths": {
            "v-_1": 0, "v-_2": 0, "v0_1": 0, "v0_2": 0, "v0_3": 0, "v+_1": 0,
        },
        "region_signs": (-1, 1, -1),  # face-trace order: lune, triangle, lune
        "euler_arrow_count": 9,
    }
    src = "E6 singularity x^3 + y^4"
    sources = {
        "d": f"{src}: divide with three double points on one branch",
        "r": f"{src} is irreducible",
        "mu": f"{src}: mu = 6 = 2*3 - 1 + 1",
        "n_regions": f"{src}: two minus regions and one plus region",
        "genus": f"{src}: Milnor fiber of genus 3 with one boundary circle",
        "boundary_components": f"{src} is irreducible",
        "census": f"{src}: distinguished basis (2 minima, 3 saddles, 1 maximum)",
        "ag_edges": f"{src}: the E6 Coxeter diagram in divide form has these "
        "nine adjacencies",
        "depths": "ADE divides have depth 0",
        "region_signs": f"{src}: lunes negative, central triangle positive",
        "euler_arrow_count": f"{src}: exactly 9 ordered pairs carry "
        "one-dimensional monodromy cohomology",
    }
    return CorpusEntry(name="e6", divide=divide, expected=expected, sources=sources)


_DEPTH1_AG_EDGES = [
    ("v-_1", "v0_2", 1),
    ("v-_1", "v0_3", 1),
    ("v-_1", "v0_6", 1),
    ("v-_1", "v+_1", 1),
    ("v-_1", "v+_2", 1),
    ("v-_2", "v0_4", 1),
    ("v-_2", "v0_5", 1),
    ("v-_2", "v0_6", 1),
    ("v-_2", "v+_1", 1),
    ("v-_2", "v+_2", 1),
    ("v0_1", "v+_1", 1),
    ("v0_2", "v+_1", 1),
    ("v0_3", "v+_2", 1),
    ("v0_4", "v+_1", 1),
    ("v0_5", "v+_2", 1),
    ("v0_6", "v+_1", 1),
    ("v0_6", "v+_2", 1),
]


def gen_depth1() -> CorpusEntry:
    """Divide of (x^3 + y^2)(x + y)(x - y): loop enclosing a line cross.

    The cusp branch makes a loop (neck c0) around the crossing cC of the two
    line branches; each line chords the loop (cNW, cNE, cSW, cSE).  The four
    sectors inside the loop are the only bounded regions, so cC is the
    unique saddle not meeting the unbounded complement: depth 1.
    """
    edges = (
        # cusp branch: tail in, lower arc around, upper arc, tail out
        EdgeDef(id="TL1", ends=(("c0", 1), ("t2", 0))),
        EdgeDef(id="Le", ends=(("cSW", 1), ("c0", 3))),
        EdgeDef(id="Ld", ends=(("cSE", 2), ("cSW", 3))),
        EdgeDef(id="Lc", ends=(("cNE", 3), ("cSE", 0))),
        EdgeDef(id="Lb", ends=(("cNW", 0), ("cNE", 1))),
        EdgeDef(id="La", ends=(("c0", 0), ("cNW", 2))),
        EdgeDef(id="TL2", ends=(("c0", 2), ("t3", 0))),
        # line 1: southwest to northeast
        EdgeDef(id="A1", ends=(("t4", 0), ("cSW", 2))),
        EdgeDef(id="A2", ends=(("cSW", 0), ("cC", 2))),
        EdgeDef(id="A3", ends=(("cC", 0), ("cNE", 2))),
        EdgeDef(id="A4", ends=(("cNE", 0), ("t0", 0))),
        # line 2: northwest to southeast
        EdgeDef(id="B1", ends=(("t1", 0), ("cNW", 1))),
        EdgeDef(id="B2", ends=(("cNW", 3), ("cC", 1))),
        EdgeDef(id="B3", ends=(("cC", 3), ("cSE", 1))),
        EdgeDef(id="B4", ends=(("cSE", 3), ("t5", 0))),
    )
    divide = Divide(
        name="depth1",
        double_points=("c0", "cNW", "cNE", "cSW", "cSE", "cC"),
        terminals=("t0", "t1", "t2", "t3", "t4", "t5"),
        edges=edges,
        branches=(
            ("TL1", "Le", "Ld", "Lc", "Lb", "La", "TL2"),
            ("A1", "A2", "A3", "A4"),
            ("B1", "B2", "B3", "B4"),
        ),
        sign_seed=SignSeed(edge="B2", side="right", sign=1),
    )
    src = "quintic (x^3 + y^2)(x + y)(x - y)"
    expected = {
        "d": 6,
        "r": 3,
        "mu": 10,
        "n_regions": 4,
        "genus": 4,
        "boundary_components": 3,
        "census": (2, 6, 2),
        "ag_edges": list(_DEPTH1_AG_EDGES),
        "depths": {
            "v-_1": 0, "v-_2": 0,
            "v0_1": 0, "v0_2": 0, "v0_3": 0, "v0_4": 0, "v0_5": 0,
            "v0_6": 1,
            "v+_1": 0, "v+_2": 0,
        },
        "region_signs": (1, -1, 1, -1),
        "diagram_depth": 1,
    }
    sources = {
        "d": f"{src}: cusp self-crossing, line-line crossing, and four "
        "line-loop crossings",
        "r": f"{src} has three branches",
        "mu": f"{src}: ten vanishing cycles, mu = 2*6 - 3 + 1",
        "n_regions": "bounded regions number d - r + 1 = 4",
        "genus": f"{src}: Milnor fiber has genus 4",
        "boundary_components": f"{src}: three boundary components",
        "census": "four sectors split 2 plus / 2 minus around the center, "
        "six saddles",
        "ag_edges": "adjacency of the four sectors with the six crossings "
        "and with each other across the chords",
        "depths": "the central crossing is enclosed by the four bounded "
        "sectors: the unique depth-1 vertex",
        "region_signs": "sector signs alternate around the central crossing",
        "diagram_depth": "unique depth-1 vertex makes the diagram depth 1",
    }
    return CorpusEntry(name="depth1", divide=divide, expected=expected, sources=sources)


def builtin_entries() -> list[CorpusEntry]:
    """All built-in corpus entries: the billiard divides A_1 to A_12 and E6,
    then the transcribed depth-1 divide."""
    entries = [gen_a(n) for n in range(1, 13)]
    entries.append(gen_e6())
    entries.append(gen_depth1())
    return entries
