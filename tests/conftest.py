from __future__ import annotations

import functools
import itertools
import math
import random
import tempfile
import warnings
from collections import deque

# Hypothesis imports this module (and libcst under it) while it reports a
# failing test; libcst raises a DeprecationWarning on import, which under
# ``-W error`` would replace the falsifying example with an INTERNALERROR.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from divides import (
    AGDiagram,
    Divide,
    DivideError,
    EdgeDef,
    SignSeed,
    MilnorLattice,
    builtin_entries,
    gen_a,
    gen_depth1,
    gen_e6,
    ingest_polyline,
    intmat,
)
from divides.agdiagram import AGEdge, AGVertex
from divides.core import DOUBLE_POINT_DEGREE
from divides.lattice import PL_SIGN
from divides.report import run_pipeline

# No example database, so test runs write no .hypothesis/ directory into the
# working tree.  Tests keep their own max_examples and deadline settings.
settings.register_profile("divides", database=None)
settings.load_profile("divides")
# Hypothesis also caches the constants of the source under its home directory
# (from collection on); keep that in a temporary directory removed when the
# session ends.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


@functools.lru_cache(maxsize=None)
def entry(name: str):
    if name == "e6":
        return gen_e6()
    if name == "depth1":
        return gen_depth1()
    assert name.startswith("a")
    return gen_a(int(name[1:]))


@functools.lru_cache(maxsize=None)
def pipeline(name: str):
    return run_pipeline(entry(name).divide)


CORPUS_NAMES = [e.name for e in builtin_entries()]


def freeze(rows):
    """A matrix of lists as a tuple of tuples of ints."""
    return tuple(tuple(int(x) for x in row) for row in rows)


def intersection_reference(ag):
    """Dense I from the AG edges, one edge at a time: I[v][u] = m and
    I[u][v] = -m for an edge (u, v, m)."""
    mu = ag.mu
    rows = [[0] * mu for _ in range(mu)]
    for e in ag.edges:
        rows[e.v][e.u] = e.multiplicity
        rows[e.u][e.v] = -e.multiplicity
    return freeze(rows)


def seifert_reference(i_mat):
    """S from I: unit diagonal, S[i][j] = -I[i][j] above it and 0 below,
    after checking every pair for antisymmetry."""
    mu = len(i_mat)
    if any(i_mat[j][i] != -i_mat[i][j] for i in range(mu) for j in range(i, mu)):
        raise DivideError("intersection matrix is not antisymmetric")
    return freeze(
        [[1 if i == j else (-i_mat[i][j] if j > i else 0) for j in range(mu)] for i in range(mu)]
    )


def lattice_reference(ag) -> MilnorLattice:
    """The Milnor lattice built in two passes, I from the edges and then S
    from I: the reference ``milnor_lattice`` is checked against."""
    return lattice_of(intersection_reference(ag))


def lattice_of(i_mat) -> MilnorLattice:
    """The Milnor lattice of an antisymmetric I."""
    return MilnorLattice(i_mat, seifert_reference(i_mat))


def identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transvection(i_mat, k):
    """Matrix of x -> x + PL_SIGN * (x . V_k) * V_k in the cycle basis.

    k is a 0-based basis index.  Unipotent with determinant 1.
    """
    mu = len(i_mat)
    rows = [[int(i == j) for j in range(mu)] for i in range(mu)]
    for j in range(mu):
        rows[k][j] += PL_SIGN * i_mat[j][k]
    return freeze(rows)


def transvection_product(i_mat):
    """T_1 T_2 ... T_mu, the product of the dense transvection matrices: the
    reference ``monodromy`` is checked against."""
    m = identity(len(i_mat))
    for k in range(len(i_mat)):
        m = intmat.mul(m, transvection(i_mat, k))
    return m


def random_within_type_orders(ag, rng) -> dict:
    """A ``build_ag`` reorder: a random 1-based permutation of each type."""
    perms = {}
    for t in ("-", "0", "+"):
        n = sum(v.vtype == t for v in ag.vertices)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        perms[t] = tuple(perm)
    return perms


def hand_built_ag(kinds, edges):
    """An ``AGDiagram`` with vertices of the types ``kinds`` and the edges
    ``(u, v, multiplicity)`` as given."""
    vertices = tuple(AGVertex(f"v{t}_{i}", t, ("region", i)) for i, t in enumerate(kinds, 1))
    return AGDiagram(vertices=vertices, edges=tuple(AGEdge(*e) for e in edges))


def position(ag, label: str) -> int:
    """The order position of the first vertex of ``ag`` labelled ``label``."""
    return next(p for p, vx in enumerate(ag.vertices) if vx.label == label)


def charpoly_moduli(monkeypatch) -> list[int]:
    """The list to which each later ``intmat._charpoly_mod`` call appends its modulus."""
    used = []
    real = intmat._charpoly_mod

    def spy(a, p):
        used.append(p)
        return real(a, p)

    monkeypatch.setattr(intmat, "_charpoly_mod", spy)
    return used


@pytest.fixture(scope="session")
def corpus_names():
    return CORPUS_NAMES


# Every (k, seed) the tests use is accepted on its first draw, and over k = 2
# to 40 with seeds 0 to 9 no draw needed more than two; a defect that makes
# every ingestion fail ends the draws here instead of looping forever.
CHORD_DRAWS = 20


def chord_polylines(k: int, seed: int) -> dict:
    """The ``ingest_polyline`` arguments of k straight chords crossing pairwise.

    Chord i runs through a point near the centre in a direction near
    i * pi / k, so every pair crosses; a draw is kept only when it ingests
    with all k(k-1)/2 crossings (no triple point, none outside the disc).
    After ``CHORD_DRAWS`` rejected draws it raises, naming the last reason.
    """
    rng = random.Random(f"chords:{k}:{seed}")
    reach = 100 * k
    last = ""
    for _draw in range(CHORD_DRAWS):
        branches = []
        for i in range(k):
            theta = math.pi * (i + rng.uniform(0.25, 0.75)) / k
            dx, dy = round(reach * math.cos(theta)), round(reach * math.sin(theta))
            cx, cy = rng.randint(-k, k), rng.randint(-k, k)
            branches.append(([(cx - dx, cy - dy), (cx + dx, cy + dy)], False))
        witness = (rng.randint(-reach // 3, reach // 3), rng.randint(-reach // 3, reach // 3))
        kwargs = {
            "branches": branches,
            "disc_radius": reach * 2 // 3,
            "seed_point": witness,
            "seed_sign": rng.choice((1, -1)),
            "name": f"chords{k}",
        }
        try:
            divide = ingest_polyline(**kwargs)
        except DivideError as exc:
            last = str(exc)
            continue
        if len(divide.double_points) == k * (k - 1) // 2:
            return kwargs
        last = f"{len(divide.double_points)} crossings, not {k * (k - 1) // 2}"
    raise RuntimeError(
        f"chord_polylines(k={k}, seed={seed}): no draw of {CHORD_DRAWS} ingested "
        f"with all crossings; last: {last}"
    )


def generic_chords(k: int, seed: int):
    """The divide of ``chord_polylines(k, seed)``."""
    return ingest_polyline(**chord_polylines(k, seed))


def a1_mirrored_at_c1():
    """A_1 with the rotation at its double point ``c1`` mirrored: slot s
    becomes (0, 3, 2, 1)[s].  Every slot is still used once, so the divide
    validates, but its orbits do not close up into the faces of a disc."""
    a1 = gen_a(1).divide
    mirror = (0, 3, 2, 1)
    edges = tuple(
        EdgeDef(e.id, tuple((v, mirror[s]) if v == "c1" else (v, s) for v, s in e.ends))
        for e in a1.edges
    )
    return a1._replace(edges=edges)


SLOT_PERMUTATIONS = list(itertools.permutations(range(4)))


def with_slots_permuted(divide, moved: dict):
    """The divide with slot s of each double point v in ``moved`` renamed
    moved[v][s]; it may or may not still validate."""
    edges = tuple(
        EdgeDef(e.id, tuple((v, moved[v][s]) if v in moved else (v, s) for v, s in e.ends))
        for e in divide.edges
    )
    return divide._replace(edges=edges)


def dart_numbers(divide) -> dict:
    """(vertex, slot) -> dart, by the numbering the faces use: slot s of double
    point i is dart 4i + s and terminal j is dart 4d + j, d double points."""
    darts = {(v, s): 4 * i + s for i, v in enumerate(divide.double_points) for s in range(4)}
    n_dart = 4 * len(divide.double_points)
    darts.update(((t, 0), n_dart + j) for j, t in enumerate(divide.terminals))
    return darts


def orbits_by_bfs(twin, n_dart, flips):
    """Orbits of the darts under the edge involution x -> twin[x] and, at a
    double point (x < n_dart), the slot changes x -> x ^ k for k in
    ``flips``, by breadth-first search over an explicit neighbour list of
    each dart.  With flips (1, 2, 3) an orbit is a connected component of
    the graph; with (2,) it is a strand."""
    neighbours = [[twin[x]] + ([x ^ k for k in flips] if x < n_dart else [])
                  for x in range(len(twin))]
    seen, orbits = set(), []
    for start in range(len(twin)):
        if start in seen:
            continue
        seen.add(start)
        orbit, queue = {start}, deque([start])
        while queue:
            for y in neighbours[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    orbit.add(y)
                    queue.append(y)
        orbits.append(orbit)
    return orbits


def validate_divide_reference(divide) -> list:
    """``validate_divide`` written plainly, as the reference the package's
    one is tested against: connectivity from an orbit walk with all slot
    changes, the branches compared with the strands as sorted lists of edge
    ids, both walks being ``orbits_by_bfs``."""
    diags: list[str] = []
    dps = list(divide.double_points)
    terms = list(divide.terminals)
    if len(set(dps)) != len(dps):
        diags.append("duplicate ids among double points")
    if len(set(terms)) != len(terms):
        diags.append("duplicate ids among terminals")
    if set(dps) & set(terms):
        diags.append("duplicate ids: vertex appears as both double point and terminal")
    edge_ids = [e.id for e in divide.edges]
    if len(set(edge_ids)) != len(edge_ids):
        diags.append("duplicate ids among edges")

    first = divide.first_dart
    n_dart = DOUBLE_POINT_DEGREE * len(dps)
    used = [None] * (n_dart + len(terms))  # edge id at each dart
    for e in divide.edges:
        if len(e.ends) != 2:
            diags.append(f"edge '{e.id}' does not have exactly two ends")
            continue
        for v, s in e.ends:
            if v not in first:
                diags.append(f"edge '{e.id}' references unknown vertex '{v}'")
                continue
            deg = DOUBLE_POINT_DEGREE if first[v] < n_dart else 1
            if not (0 <= s < deg):
                diags.append(f"edge '{e.id}': slot {s} out of range at vertex '{v}'")
                continue
            x = first[v] + s
            if used[x] is not None:
                diags.append(f"slot used twice: ({v}, {s}) by '{used[x]}' and '{e.id}'")
            else:
                used[x] = e.id
    for names, want in ((dps, list(range(DOUBLE_POINT_DEGREE))), (terms, [0])):
        for v in names:
            x = first[v]
            deg = DOUBLE_POINT_DEGREE if x < n_dart else 1
            have = [s for s in range(deg) if used[x + s] is not None]
            if have != want:
                diags.append(f"degree mismatch at vertex '{v}': slots {have}")

    twin = [0] * len(used)
    if divide.edges and not diags:
        for x, y in divide.edge_darts:
            twin[x], twin[y] = y, x
        if len(orbits_by_bfs(twin, n_dart, (1, 2, 3))) != 1:
            diags.append("disconnected graph")
        elif not dps:
            diags.append("mu = 0: a divide without double points has an empty Milnor lattice")
    elif not divide.edges:
        diags.append("divide has no edges")

    if sorted(eid for b in divide.branches for eid in b) != sorted(edge_ids):
        diags.append("branch partition invalid: does not partition the edge set")
    elif not diags:
        declared = sorted(sorted(b) for b in divide.branches)
        computed = sorted(sorted({used[x] for x in strand})
                          for strand in orbits_by_bfs(twin, n_dart, (2,)))
        if declared != computed:
            diags.append("branch partition invalid: disagrees with strand continuation")

    seed = divide.sign_seed
    sign_ok = type(seed.sign) is int and seed.sign in (1, -1)
    if seed.side not in ("left", "right") or not sign_ok:
        diags.append("malformed sign seed")
    elif seed.edge not in set(edge_ids):
        diags.append(f"malformed sign seed: unknown edge '{seed.edge}'")
    return diags


# Mutations of a divide, each a function of (divide, rng) that returns a new
# divide, valid or not.  Together they reach every diagnostic family of
# ``validate_divide``.


def _with_end(divide, i, which, end):
    e = divide.edges[i]
    ends = tuple(end if w == which else old for w, old in enumerate(e.ends))
    return divide._replace(edges=divide.edges[:i] + (EdgeDef(e.id, ends),) + divide.edges[i + 1:])


def _swap_ends(divide, rng):
    """Exchange an end of one edge with an end of another, or reverse an edge."""
    i, j = rng.randrange(len(divide.edges)), rng.randrange(len(divide.edges))
    if i == j:
        e = divide.edges[i]
        edges = divide.edges[:i] + (EdgeDef(e.id, e.ends[::-1]),) + divide.edges[i + 1:]
        return divide._replace(edges=edges)
    a, b = rng.randrange(len(divide.edges[i].ends)), rng.randrange(len(divide.edges[j].ends))
    end_a, end_b = divide.edges[i].ends[a], divide.edges[j].ends[b]
    return _with_end(_with_end(divide, i, a, end_b), j, b, end_a)


def _change_slot(divide, rng):
    i = rng.randrange(len(divide.edges))
    which = rng.randrange(len(divide.edges[i].ends))
    v, _s = divide.edges[i].ends[which]
    return _with_end(divide, i, which, (v, rng.randrange(-1, 5)))


def _change_vertex(divide, rng):
    i = rng.randrange(len(divide.edges))
    which = rng.randrange(len(divide.edges[i].ends))
    _v, s = divide.edges[i].ends[which]
    v = rng.choice(divide.double_points + divide.terminals + ("nowhere",))
    return _with_end(divide, i, which, (v, s))


def _change_end_count(divide, rng):
    i = rng.randrange(len(divide.edges))
    e = divide.edges[i]
    ends = e.ends[:1] if rng.random() < 0.5 else e.ends + e.ends[:1]
    return divide._replace(edges=divide.edges[:i] + (EdgeDef(e.id, ends),) + divide.edges[i + 1:])


def _duplicate_edge_id(divide, rng):
    i, j = rng.randrange(len(divide.edges)), rng.randrange(len(divide.edges))
    edges = list(divide.edges)
    edges[i] = EdgeDef(edges[j].id, edges[i].ends)
    return divide._replace(edges=tuple(edges))


def _duplicate_vertex_id(divide, rng):
    """Rename one double point or terminal to another vertex's id."""
    names = divide.double_points + divide.terminals
    k, other = rng.randrange(len(names)), rng.choice(names)
    names = names[:k] + (other,) + names[k + 1:]
    d = len(divide.double_points)
    return divide._replace(double_points=names[:d], terminals=names[d:])


def _move_branch_edge(divide, rng):
    branches = [list(b) for b in divide.branches]
    if not any(branches):
        return _add_empty_branch(divide, rng)
    src = rng.choice([k for k, b in enumerate(branches) if b])
    eid = branches[src].pop(rng.randrange(len(branches[src])))
    dst = rng.randrange(len(branches) + 1)
    if dst == len(branches):
        branches.append([])
    branches[dst].insert(rng.randrange(len(branches[dst]) + 1), eid)
    return divide._replace(branches=tuple(map(tuple, branches)))


def _split_branch(divide, rng):
    k = rng.randrange(len(divide.branches))
    b = divide.branches[k]
    cut = rng.randrange(len(b) + 1)
    branches = divide.branches[:k] + (b[:cut], b[cut:]) + divide.branches[k + 1:]
    return divide._replace(branches=branches)


def _merge_branches(divide, rng):
    if len(divide.branches) < 2:
        return _split_branch(divide, rng)
    k, j = sorted(rng.sample(range(len(divide.branches)), 2))
    b = divide.branches
    return divide._replace(branches=b[:k] + (b[k] + b[j],) + b[k + 1:j] + b[j + 1:])


def _add_empty_branch(divide, rng):
    k = rng.randrange(len(divide.branches) + 1)
    return divide._replace(branches=divide.branches[:k] + ((),) + divide.branches[k:])


def _change_branch_ids(divide, rng):
    """Repeat an edge id in a branch or add an id that names no edge, either
    beside the branch's ids or in place of one of them; in place, the branch
    list keeps its length."""
    k = rng.randrange(len(divide.branches))
    b = divide.branches[k]
    extra = rng.choice([eid for b in divide.branches for eid in b] + ["nothing"])
    if b and rng.random() < 0.5:
        i = rng.randrange(len(b))
        b = b[:i] + (extra,) + b[i + 1:]
    else:
        b = b + (extra,)
    return divide._replace(branches=divide.branches[:k] + (b,) + divide.branches[k + 1:])


def _drop_edge(divide, rng):
    i = rng.randrange(len(divide.edges))
    eid = divide.edges[i].id
    divide = divide._replace(edges=divide.edges[:i] + divide.edges[i + 1:])
    if rng.random() < 0.5:
        divide = divide._replace(branches=tuple(tuple(x for x in b if x != eid)
                                                for b in divide.branches))
    return divide


def _drop_everything(divide, rng):
    """No edges, or no double points."""
    if rng.random() < 0.5:
        return divide._replace(edges=(), branches=())
    return divide._replace(double_points=())


def _change_seed(divide, rng):
    edge = rng.choice([e.id for e in divide.edges] + ["nothing"])
    return divide._replace(sign_seed=SignSeed(
        edge, rng.choice(("left", "right", "up")), rng.choice((1, -1, 0))))


def _disjoint_union(divide, rng):
    """The divide beside a renamed copy of itself: a disconnected graph."""
    def ren(v):
        return v + "'"
    copy = tuple(EdgeDef(ren(e.id), tuple((ren(v), s) for v, s in e.ends)) for e in divide.edges)
    return divide._replace(
        double_points=divide.double_points + tuple(map(ren, divide.double_points)),
        terminals=divide.terminals + tuple(map(ren, divide.terminals)),
        edges=divide.edges + copy,
        branches=divide.branches + tuple(tuple(map(ren, b)) for b in divide.branches),
    )


MUTATIONS = (
    _swap_ends, _change_slot, _change_vertex, _change_end_count, _duplicate_edge_id,
    _duplicate_vertex_id, _move_branch_edge, _split_branch, _merge_branches,
    _add_empty_branch, _change_branch_ids, _drop_edge, _drop_everything, _change_seed,
    _disjoint_union,
)


def mutated(divide, rng, count: int):
    """``divide`` after ``count`` mutations drawn by ``rng``; a mutation that
    needs an edge or a vertex the divide no longer has is skipped."""
    for _ in range(count):
        mutation = rng.choice(MUTATIONS)
        if divide.edges and divide.branches and (divide.double_points or divide.terminals):
            divide = mutation(divide, rng)
    return divide


def one_chord():
    """A single chord: valid but for its mu = 0."""
    return Divide("chord", (), ("ta", "tb"), (EdgeDef("e", (("ta", 0), ("tb", 0))),),
                  (("e",),), SignSeed("e", "left", 1))


# The A_4 snake x^5 + y^2 as one integer polyline: ``ingest_polyline``'s
# keyword arguments.
A4_SNAKE_POLYLINE = {
    "branches": [([(-10, 0), (4, 0), (4, 2), (2, 2), (2, -2), (0, -2), (0, 9)], False)],
    "disc_radius": 8,
    "seed_point": (3, 1),
    "seed_sign": -1,
}


# Two crossing chords as the text of a polyline file: a valid divide, mu = 1.
TWO_CHORDS = {
    "name": "two-chords",
    "mode": "polyline",
    "branches": [
        {"points": [[-12, 1], [12, -1]], "closed": False},
        {"points": [[1, -12], [-1, 12]], "closed": False},
    ],
    "disc_radius": 10,
    "sign_seed": {"point": [5, 5], "sign": "+"},
}


def line_through_triangle():
    """A line crossed twice by a closed triangle: an interval and a circle."""
    return ingest_polyline(
        [([(-10, 0), (10, 0)], False), ([(0, -3), (3, 3), (-3, 3)], True)],
        disc_radius=8, seed_point=(0, 5), seed_sign=1,
    )
