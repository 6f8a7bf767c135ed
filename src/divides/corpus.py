"""Built-in divides: the A_n snake family, E6, and a depth-1 example.

Generators emit combinatorial maps directly (no geometry at runtime) and are
byte-deterministic.  Expected facts carry provenance notes and serve as
ground truth for the acceptance suite; the transcriptions of the two
figure-derived divides are certified by matching the independently known
structure (vertex census, edge pattern, depth data), not trusted as drawn.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Divide, DivideError, EdgeDef, SignSeed


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


def _a_even(k: int) -> Divide:
    """Single-branch snake: straight run, U-turn, wave back across it.

    Crossings c1..ck east to west; c1 carries the U-turn cap.  The wave dips
    below the run after c1 and alternates sides, exiting past ck.
    """
    dps = [f"c{i}" for i in range(1, k + 1)]
    # type A (odd i): slots E, NE, W, SW; type B (even i): slots E, NW, W, SE
    edges: list[EdgeDef] = []
    walk: list[str] = []

    def add(edge_id: str, a, b):
        edges.append(EdgeDef(id=edge_id, ends=(a, b)))
        walk.append(edge_id)

    # straight run west to east: terminal, ck, ..., c1
    add("l0", ("tL", 0), (f"c{k}", 2))
    for i in range(k, 1, -1):
        add(f"l{k - i + 1}", (f"c{i}", 0), (f"c{i - 1}", 2))
    add("u", ("c1", 0), ("c1", 1))
    # wave east to west: exit slot 3 on type A, 1 on type B
    for i in range(1, k):
        s = 3 if i % 2 == 1 else 1
        add(f"w{i}", (f"c{i}", s), (f"c{i + 1}", s))
    exit_slot = 3 if k % 2 == 1 else 1
    add("x", (f"c{k}", exit_slot), ("tA", 0))

    terminals = ("tL", "tA") if k % 2 == 1 else ("tA", "tL")
    return Divide(
        name=f"a{2 * k}",
        double_points=tuple(dps),
        terminals=terminals,
        edges=tuple(edges),
        branches=(tuple(walk),),
        sign_seed=SignSeed(edge="u", side="left", sign=-1),
    )


def _a_odd(k: int) -> Divide:
    """Two branches: a straight line crossed k+1 times by a wave.

    Crossings c1..c(k+1) west to east; the wave enters above at c1, dips
    below, and alternates.  n = 2k + 1, so k = 0 gives two crossing segments.
    """
    m = k + 1
    dps = [f"c{i}" for i in range(1, m + 1)]
    edges: list[EdgeDef] = []
    line_walk: list[str] = []
    wave_walk: list[str] = []

    def add(edge_id: str, a, b, walk):
        edges.append(EdgeDef(id=edge_id, ends=(a, b)))
        walk.append(edge_id)

    add("l0", ("tL", 0), ("c1", 2), line_walk)
    for i in range(1, m):
        add(f"l{i}", (f"c{i}", 0), (f"c{i + 1}", 2), line_walk)
    add(f"l{m}", (f"c{m}", 0), ("tR", 0), line_walk)
    # type for c_i: odd i: slots E, NW, W, SE; even i: slots E, NE, W, SW
    add("a", ("tA", 0), ("c1", 1), wave_walk)
    for i in range(1, m):
        s = 3 if i % 2 == 1 else 1
        add(f"w{i}", (f"c{i}", s), (f"c{i + 1}", s), wave_walk)
    exit_slot = 3 if m % 2 == 1 else 1
    add("b", (f"c{m}", exit_slot), ("tB", 0), wave_walk)

    if m % 2 == 1:  # wave exits below, to the southeast
        terminals = ("tR", "tA", "tL", "tB")
    else:  # wave exits above, to the northeast
        terminals = ("tR", "tB", "tA", "tL")
    if k == 0:
        seed = SignSeed(edge="l1", side="left", sign=-1)  # north face of c1
    else:
        seed = SignSeed(edge="w1", side="left", sign=-1)  # first lens
    return Divide(
        name=f"a{2 * k + 1}",
        double_points=tuple(dps),
        terminals=terminals,
        edges=tuple(edges),
        branches=(tuple(line_walk), tuple(wave_walk)),
        sign_seed=seed,
    )


def _order_key(label: str) -> tuple[int, int]:
    t = label[1]
    return ({"-": 0, "0": 1, "+": 2}[t], int(label.split("_")[1]))


def _a_path_edges(n: int) -> list[tuple[str, str, int]]:
    """Expected AG path of gen_a(n), as (label, label, multiplicity) with
    each pair in basis order (minus block before saddle block)."""
    if n % 2 == 0:
        k = n // 2
        seq = []
        for i in range(1, k + 1):
            seq.extend([f"v-_{i}", f"v0_{i}"])
    else:
        k = (n - 1) // 2
        seq = ["v0_1"]
        for i in range(1, k + 1):
            seq.extend([f"v-_{i}", f"v0_{i + 1}"])
    return [
        (*sorted((a, b), key=_order_key), 1) for a, b in zip(seq, seq[1:])
    ]


def gen_a(n: int) -> CorpusEntry:
    """The standard zigzag divide of the chain singularity x^(n+1) + y^2."""
    if n < 1:
        raise DivideError("n must be >= 1")
    divide = _a_even(n // 2) if n % 2 == 0 else _a_odd((n - 1) // 2)
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
        "ag_edges": _a_path_edges(n),
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
    """Divide of x^3 + y^4: a loop whose tail is threaded through it.

    Crossings: c1 the loop neck, c2 and c3 where the tail dives through.
    Regions: the central triangle (plus) and two lunes (minus).
    """
    edges = (
        EdgeDef(id="s1", ends=(("t0", 0), ("c1", 2))),
        EdgeDef(id="s2", ends=(("c1", 0), ("c2", 2))),
        EdgeDef(id="s3", ends=(("c2", 0), ("c3", 0))),
        EdgeDef(id="s4", ends=(("c3", 2), ("c1", 3))),
        EdgeDef(id="s5", ends=(("c1", 1), ("c2", 1))),
        EdgeDef(id="s6", ends=(("c2", 3), ("c3", 1))),
        EdgeDef(id="s7", ends=(("c3", 3), ("t1", 0))),
    )
    divide = Divide(
        name="e6",
        double_points=("c1", "c2", "c3"),
        terminals=("t0", "t1"),
        edges=edges,
        branches=(("s1", "s2", "s3", "s4", "s5", "s6", "s7"),),
        sign_seed=SignSeed(edge="s2", side="right", sign=1),
    )
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
    """All built-in corpus entries: A_1 to A_12, E6, depth-1."""
    entries = [gen_a(n) for n in range(1, 13)]
    entries.append(gen_e6())
    entries.append(gen_depth1())
    return entries
