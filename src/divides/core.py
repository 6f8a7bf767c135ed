"""Combinatorial divides: planar maps in a disc, faces, signs, invariants.

A divide is stored as a planar combinatorial map: 4-valent double points
with an explicit counterclockwise rotation system, 1-valent terminals in
counterclockwise order along the disc boundary, and a checkerboard sign
seed.  Faces of the complement are recovered by orbit tracing, with a
virtual boundary arc inserted between cyclically consecutive terminals.

Every end of the map has one integer number.  With d double points and t
terminals, slot s of double point i is dart 4i + s, terminal j is dart
4d + j, and the virtual arc from terminal j to the next terminal is item
4d + t + j.  Dart x < 4d belongs to double point x // 4, and its opposite
slot, where the strand through it continues, is dart x ^ 2.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import NamedTuple, Optional

DOUBLE_POINT_DEGREE = 4


class DivideError(Exception):
    """Structural error in a divide or one of its derived objects."""

    def __init__(self, *diagnostics: str):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


End = tuple[str, int]  # (vertex id, slot index)


class EdgeDef(NamedTuple):
    """One edge of the map, attached at two (vertex, slot) ends.

    The declared end order orients the edge; the seed's ``left``/``right``
    side is taken relative to travel from ``ends[0]`` to ``ends[1]``.
    """

    id: str
    ends: tuple[End, End]


class SignSeed(NamedTuple):
    edge: str
    side: str  # "left" | "right"
    sign: int  # +1 | -1


class _DivideFields(NamedTuple):
    name: str
    double_points: tuple[str, ...]
    terminals: tuple[str, ...]
    edges: tuple[EdgeDef, ...]
    branches: tuple[tuple[str, ...], ...]
    sign_seed: SignSeed


class Divide(_DivideFields):
    """A divide as a combinatorial map.

    It is validated once: ``diagnostics`` holds ``validate_divide``'s result
    from its first read on, and parsing, polyline ingestion and
    ``trace_faces`` all read it.  A divide built with ``_replace`` is a new
    object and is validated again.  Equality and hashing read the fields
    only, never the indexes built on first use or kept by validation.
    """

    @cached_property
    def edge_index(self) -> dict[str, EdgeDef]:
        """Edge by id, built on first use; a repeated id keeps its last edge."""
        return {e.id: e for e in self.edges}

    @cached_property
    def diagnostics(self) -> tuple[str, ...]:
        """``validate_divide(self)``, computed on first read; empty when valid."""
        return tuple(validate_divide(self))

    @cached_property
    def first_dart(self) -> dict[str, int]:
        """Vertex id -> its slot-0 dart (4i for double point i, 4d + j for
        terminal j); a repeated id keeps its first number."""
        first: dict[str, int] = {}
        for i, v in enumerate(self.double_points):
            first.setdefault(v, DOUBLE_POINT_DEGREE * i)
        n_dart = DOUBLE_POINT_DEGREE * len(self.double_points)
        for j, t in enumerate(self.terminals):
            first.setdefault(t, n_dart + j)
        return first

    @cached_property
    def edge_darts(self) -> tuple[tuple[int, int], ...]:
        """The darts of each edge's two ends, in ``edges`` order, as the slot
        pass of ``validate_divide`` found them.  A call whose checks up to
        the slots all pass keeps them here; without them this raises
        DivideError with the divide's diagnostics."""
        diagnostics = self.diagnostics
        if "edge_darts" not in vars(self):
            raise DivideError(*diagnostics)
        return vars(self)["edge_darts"]


def _strands(twin: list[int], n_dart: int) -> tuple[list[int], int]:
    """(strand_of, n_strand): the strand number of every dart, and the count.

    A strand alternates the edge involution x -> twin[x], which must have no
    fixed point, with the step x -> x ^ 2 to the opposite slot of a double
    point (x < n_dart), where a branch continues.  A strand through a
    terminal is an interval that ends at another terminal, and it is walked
    once from its first terminal; the darts left lie on circles, each walked
    until it closes.  Numbers are written straight into ``strand_of``.
    """
    strand_of = [-1] * len(twin)
    n_strand = 0
    for x in chain(range(n_dart, len(twin)), range(n_dart)):
        if strand_of[x] < 0:
            while strand_of[x] < 0:
                y = twin[x]
                strand_of[x] = strand_of[y] = n_strand
                if y >= n_dart:
                    break
                x = y ^ 2
            n_strand += 1
    return strand_of, n_strand


def validate_divide(divide: Divide) -> list[str]:
    """All structural diagnostics for a divide; empty list means valid.

    A valid divide has at least one double point, so that mu >= 1.  The
    darts are walked once, into strands.  The graph is connected exactly when
    the strands are, once the two strands through each double point are
    joined, and the branches are checked against the strands by strand
    number, without sorting ids.  Each call recomputes the diagnostics;
    ``Divide.diagnostics`` keeps one call's result.  The slot pass looks
    each edge end up once; once it and the checks before it pass, the divide
    keeps the darts it found as ``Divide.edge_darts``.
    """
    diags: list[str] = []
    dps, terms = divide.double_points, divide.terminals
    dp_set, term_set = set(dps), set(terms)
    if len(dp_set) != len(dps):
        diags.append("duplicate ids among double points")
    if len(term_set) != len(terms):
        diags.append("duplicate ids among terminals")
    if not dp_set.isdisjoint(term_set):
        diags.append("duplicate ids: vertex appears as both double point and terminal")
    edge_index = divide.edge_index  # its keys are the distinct edge ids
    unique_ids = len(edge_index) == len(divide.edges)
    if not unique_ids:
        diags.append("duplicate ids among edges")

    first = divide.first_dart
    n_dart = DOUBLE_POINT_DEGREE * len(dps)
    used: list[Optional[str]] = [None] * (n_dart + len(terms))  # edge id at each dart
    n_used = 0
    darts: list[int] = []  # the dart of each end, in edge order while no end fails
    for e in divide.edges:
        if len(e.ends) != 2:
            diags.append(f"edge '{e.id}' does not have exactly two ends")
            continue
        for v, s in e.ends:
            x = first.get(v)
            if x is None:
                diags.append(f"edge '{e.id}' references unknown vertex '{v}'")
                continue
            if type(s) is not int:
                diags.append(f"edge '{e.id}': slot {s!r} is not an int at vertex '{v}'")
                continue
            if not (0 <= s < (DOUBLE_POINT_DEGREE if x < n_dart else 1)):
                diags.append(f"edge '{e.id}': slot {s} out of range at vertex '{v}'")
                continue
            x += s
            darts.append(x)
            if used[x] is not None:
                diags.append(f"slot used twice: ({v}, {s}) by '{used[x]}' and '{e.id}'")
            else:
                used[x] = e.id
                n_used += 1
    # With every dart used, each vertex has exactly its slots; otherwise each
    # vertex is checked.  A repeated vertex id keeps one dart number in
    # ``first_dart``, so it leaves the other vertex's darts unused.
    if n_used != len(used):
        for names, want in ((dps, list(range(DOUBLE_POINT_DEGREE))), (terms, [0])):
            for v in names:
                x = first[v]
                deg = DOUBLE_POINT_DEGREE if x < n_dart else 1
                have = [s for s in range(deg) if used[x + s] is not None]
                if have != want:
                    diags.append(f"degree mismatch at vertex '{v}': slots {have}")

    # Strands, and connectivity through them; from here on, with no
    # diagnostic so far, every dart is the end of exactly one edge.
    if divide.edges and not diags:
        edge_darts = vars(divide)["edge_darts"] = tuple(zip(darts[0::2], darts[1::2]))
        twin = [0] * len(used)
        for x, y in edge_darts:
            twin[x], twin[y] = y, x
        strand_of, n_strand = _strands(twin, n_dart)
        if _joined_strand_count(strand_of, n_strand, n_dart) != 1:
            diags.append("disconnected graph")
        elif not dps:  # one chord: mu = 2d - r + 1 = 0
            diags.append("mu = 0: a divide without double points has an empty Milnor lattice")
    elif not divide.edges:
        diags.append("divide has no edges")

    # Branch partition must agree with strand continuation.  A strand is an
    # orbit of two involutions, twin (no fixed point) and x -> x ^ 2 (fixed
    # only at terminals), so it touches 0 or 2 terminal ends: each branch is
    # then a circle or an interval.
    branch_ids = [eid for b in divide.branches for eid in b]
    if unique_ids:
        partition = (len(branch_ids) == len(edge_index)
                     and edge_index.keys() == set(branch_ids))
    else:
        partition = sorted(branch_ids) == sorted(e.id for e in divide.edges)
    if not partition:
        diags.append("branch partition invalid: does not partition the edge set")
    elif not diags:
        # Ids are unique here, so ``edge_index`` lists them in edge order.
        strand_of_edge = dict(zip(edge_index, map(strand_of.__getitem__, darts[0::2])))
        if not _branches_are_strands(divide.branches, strand_of_edge, n_strand):
            diags.append("branch partition invalid: disagrees with strand continuation")

    seed = divide.sign_seed
    if seed.side not in ("left", "right") or type(seed.sign) is not int or abs(seed.sign) != 1:
        diags.append("malformed sign seed")
    elif seed.edge not in edge_index:
        diags.append(f"malformed sign seed: unknown edge '{seed.edge}'")
    return diags


def _joined_strand_count(strand_of: list[int], n_strand: int, n_dart: int) -> int:
    """The number of classes of strands once, at each double point, the
    strand through its darts 4i and 4i + 2 is joined to the one through
    4i + 1 and 4i + 3: the number of connected components of the graph."""
    root = list(range(n_strand))
    count = n_strand
    for x in range(0, n_dart, DOUBLE_POINT_DEGREE):
        a, b = strand_of[x], strand_of[x + 1]
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a != b:
            root[a] = b
            count -= 1
    return count


def _branches_are_strands(
    branches: tuple[tuple[str, ...], ...], strand_of_edge: dict[str, int], n_strand: int
) -> bool:
    """Whether the branches are the strands, for branches that partition the
    edges, each id once: every branch is nonempty with its edges on one
    strand, and there are as many branches as strands.

    Every strand is then a union of branches, at least one, so the counts
    agree only when each strand is exactly one branch: the branches match
    the strands one to one.
    """
    return len(branches) == n_strand and all(
        len(set(map(strand_of_edge.__getitem__, branch))) == 1 for branch in branches
    )


# ---------------------------------------------------------------------------
# Face tracing


def clockwise_slot(x: int) -> int:
    """The dart one slot clockwise of dart x at its double point, x < 4d.

    Faces are walked by crossing an edge and then leaving its head by this
    slot, so that the face stays on the left."""
    return x - 1 if x % DOUBLE_POINT_DEGREE else x + DOUBLE_POINT_DEGREE - 1


class Face(NamedTuple):
    index: int
    items: tuple[int, ...]  # darts and virtual arcs, numbered as in the module docstring
    outer: bool  # contains a virtual boundary arc


class FaceSet:
    """Faces of the complement, as orbits of the next-at-face permutation.

    Items are numbered once for the whole map: with d double points and t
    terminals, dart 4i + s is slot s of double point i, dart 4d + j is
    terminal j, and item 4d + t + j is the virtual arc after terminal j.
    ``face_of[x]`` is the index of the face through item x; it is the one
    way from an end of the map to its face.
    """

    def __init__(self, faces: tuple[Face, ...], face_of: tuple[int, ...]):
        self.faces = faces
        self.face_of = face_of
        self.region_indices = tuple(f.index for f in faces if not f.outer)
        self.outer_indices = tuple(f.index for f in faces if f.outer)


def _item_tuple(divide: Divide, x: int) -> tuple:
    """Item x as diagnostics print it: ("dart", vertex, slot) or ("arc", a, b)."""
    n_dart = DOUBLE_POINT_DEGREE * len(divide.double_points)
    terms = divide.terminals
    if x < n_dart:
        return ("dart", divide.double_points[x // DOUBLE_POINT_DEGREE], x % DOUBLE_POINT_DEGREE)
    if x < n_dart + len(terms):
        return ("dart", terms[x - n_dart], 0)
    j = x - n_dart - len(terms)
    return ("arc", terms[j], terms[(j + 1) % len(terms)])


def trace_faces(divide: Divide) -> FaceSet:
    """Trace all complementary faces of the divide inside the disc.

    The next-at-face rule: cross the edge, then take the next half-edge
    clockwise at the head vertex.  Between cyclically consecutive terminals
    a virtual boundary arc is inserted, so every face incident to the disc
    boundary carries at least one arc and is flagged outer.  Faces are
    traced in item order, so face 0 is the face through dart 0.

    An invalid divide raises DivideError with its ``diagnostics``; they were
    computed once for the divide, when it was parsed or ingested, and are not
    computed again here.
    """
    if divide.diagnostics:
        raise DivideError(*divide.diagnostics)
    if not divide.terminals:
        raise DivideError(
            "divide with no terminals: outer face undetermined "
            "(all-circle divides are not supported by face tracing)"
        )
    n_dart = DOUBLE_POINT_DEGREE * len(divide.double_points)
    n_term = len(divide.terminals)
    first_arc = n_dart + n_term

    # The item after arriving at dart y, the turn: the slot clockwise of y
    # at a double point (``clockwise_slot``, written out), the arc after it
    # at a terminal.  succ is a permutation: the edge involution has no fixed
    # point on a valid divide, the turn maps the darts one to one onto slots
    # and arcs, and the arcs map one to one onto the terminal darts.  So each
    # walk closes at its start.
    succ = [0] * (first_arc + n_term)
    for x, y in divide.edge_darts:
        succ[x] = (y - 1 if y % 4 else y + 3) if y < n_dart else y + n_term
        succ[y] = (x - 1 if x % 4 else x + 3) if x < n_dart else x + n_term
    for j in range(n_term):  # arc j (a -> b) continues out of terminal b
        succ[first_arc + j] = n_dart + (j + 1) % n_term

    face_of = [-1] * len(succ)
    faces: list[Face] = []
    for start in range(len(succ)):
        if face_of[start] >= 0:
            continue
        index = len(faces)
        cycle = []
        cur = start
        while face_of[cur] < 0:
            cycle.append(cur)
            face_of[cur] = index
            cur = succ[cur]
        faces.append(Face(index=index, items=tuple(cycle), outer=max(cycle) >= first_arc))

    n_v = len(divide.double_points) + n_term
    n_e = len(divide.edges) + n_term  # virtual arcs count as edges
    if n_v - n_e + len(faces) != 1:
        orbit = tuple(_item_tuple(divide, x) for x in faces[0].items)
        raise DivideError(
            "rotation system not planar-consistent: Euler relation fails "
            f"(V={n_v}, E={n_e}, F={len(faces)}); offending orbit {orbit}"
        )
    return FaceSet(tuple(faces), tuple(face_of))


# ---------------------------------------------------------------------------
# Checkerboard signs


class SignedDivide:
    """A divide with a checkerboard sign on every complementary face."""

    def __init__(self, divide: Divide, faces: FaceSet, sign: tuple[int, ...]):
        self.divide = divide
        self.faces = faces
        self.sign = sign


def seed_face_index(divide: Divide, faces: FaceSet) -> int:
    """The seed edge's left face is the face of its first end's dart, its
    right face that of its second end's dart."""
    seed = divide.sign_seed
    left, right = divide.edge_index[seed.edge].ends
    v, s = left if seed.side == "left" else right
    return faces.face_of[divide.first_dart[v] + s]


def assign_signs(divide: Divide, faces: FaceSet) -> SignedDivide:
    """Extend the seed sign to the unique checkerboard coloring.

    A search out from the seed face gives the face across each edge the
    opposite sign.  On the faces that ``trace_faces`` returned for this
    divide it reaches every face and never meets a conflict: the disc is
    simply connected, so the parity of the crossings along a path between
    two faces is well defined, and its interior is connected.
    """
    face_of = faces.face_of
    adjacent: list[list[int]] = [[] for _ in faces.faces]
    for x, y in divide.edge_darts:
        a, b = face_of[x], face_of[y]
        adjacent[a].append(b)
        adjacent[b].append(a)
    sign = [0] * len(adjacent)
    start = seed_face_index(divide, faces)
    sign[start] = divide.sign_seed.sign
    queue = [start]
    while queue:
        cur = queue.pop()
        want = -sign[cur]
        for nxt in adjacent[cur]:
            if not sign[nxt]:
                sign[nxt] = want
                queue.append(nxt)
    return SignedDivide(divide, faces, tuple(sign))


# ---------------------------------------------------------------------------
# Numeric and surface invariants


class DivideInvariants(NamedTuple):
    # The report writes these fields, in this order, as its "invariants".
    d: int
    r: int
    mu: int
    n_regions: int
    genus: int
    boundary_components: int
    euler_characteristic: int


def invariants(signed: SignedDivide) -> DivideInvariants:
    """Counts and Milnor-fiber surface invariants of an interval divide.

    mu = 2d - r + 1; the fiber is a genus d-r+1 surface with r boundary
    components, so chi = 1 - mu; the traced region count must equal d-r+1.
    A valid divide's branches are intervals with two terminal ends each and
    circles with none, so it has a circle exactly when 2r differs from the
    number of terminals.
    """
    divide = signed.divide
    d = len(divide.double_points)
    r = len(divide.branches)
    if 2 * r != len(divide.terminals):
        raise DivideError("surface invariants undefined for circle components")
    mu = 2 * d - r + 1
    n_regions = len(signed.faces.region_indices)
    if n_regions != d - r + 1:
        raise DivideError(
            f"region count {n_regions} contradicts d - r + 1 = {d - r + 1}"
        )
    return DivideInvariants(
        d=d,
        r=r,
        mu=mu,
        n_regions=n_regions,
        genus=d - r + 1,
        boundary_components=r,
        euler_characteristic=1 - mu,
    )
