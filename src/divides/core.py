"""Combinatorial divides: planar maps in a disc, faces, signs, invariants.

A divide is stored as a planar combinatorial map: 4-valent double points
with an explicit counterclockwise rotation system, 1-valent terminals in
counterclockwise order along the disc boundary, and a checkerboard sign
seed.  Faces of the complement are recovered by orbit tracing, with a
virtual boundary arc inserted between cyclically consecutive terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

DOUBLE_POINT_DEGREE = 4


class DivideError(Exception):
    """Structural error in a divide or one of its derived objects."""

    def __init__(self, *diagnostics: str):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


End = tuple[str, int]  # (vertex id, slot index)


@dataclass(frozen=True)
class EdgeDef:
    """One edge of the map, attached at two (vertex, slot) ends.

    The declared end order orients the edge; the seed's ``left``/``right``
    side is taken relative to travel from ``ends[0]`` to ``ends[1]``.
    """

    id: str
    ends: tuple[End, End]


@dataclass(frozen=True)
class SignSeed:
    edge: str
    side: str  # "left" | "right"
    sign: int  # +1 | -1


@dataclass(frozen=True)
class Divide:
    name: str
    double_points: tuple[str, ...]
    terminals: tuple[str, ...]
    edges: tuple[EdgeDef, ...]
    branches: tuple[tuple[str, ...], ...]
    sign_seed: SignSeed

    @cached_property
    def edge_index(self) -> dict[str, EdgeDef]:
        """Edge by id, built on first use; a repeated id keeps its last edge."""
        return {e.id: e for e in self.edges}


def _end_maps(divide: Divide) -> dict[End, End]:
    """Map each used (vertex, slot) end to the opposite end of its edge."""
    twin: dict[End, End] = {}
    for e in divide.edges:
        a, b = e.ends
        twin[a] = b
        twin[b] = a
    return twin


def _strand_components(divide: Divide) -> list[set[str]]:
    """Edge components under strand continuation (opposite slots pair up).

    At a transversal double point the two local branches occupy opposite
    slots, so slot s continues into slot (s+2) mod 4; terminals end a strand.
    """
    adj: dict[str, set[str]] = {e.id: set() for e in divide.edges}
    end_edge: dict[End, str] = {}
    for e in divide.edges:
        for end in e.ends:
            end_edge[end] = e.id
    dps = set(divide.double_points)
    for (v, s), eid in end_edge.items():
        if v in dps:
            other = end_edge.get((v, (s + 2) % DOUBLE_POINT_DEGREE))
            if other is not None:
                adj[eid].add(other)
                adj[other].add(eid)
    seen: set[str] = set()
    comps = []
    for e in divide.edges:
        if e.id in seen:
            continue
        comp = set()
        stack = [e.id]
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(adj[cur] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def branch_kinds(divide: Divide) -> dict[int, str]:
    """Kind ("interval" or "circle") for each declared branch, by index."""
    terminal_set = set(divide.terminals)
    edges = divide.edge_index
    kinds = {}
    for i, branch in enumerate(divide.branches):
        n_term = 0
        for eid in branch:
            for v, _ in edges[eid].ends:
                if v in terminal_set:
                    n_term += 1
        if n_term == 2:
            kinds[i] = "interval"
        elif n_term == 0:
            kinds[i] = "circle"
        else:
            raise DivideError(
                f"branch {i} touches {n_term} terminal ends (expected 0 or 2)"
            )
    return kinds


def validate_divide(divide: Divide) -> list[str]:
    """All structural diagnostics for a divide; empty list means valid.

    A valid divide has at least one double point, so that mu >= 1.
    """
    diags: list[str] = []
    dps = list(divide.double_points)
    terms = list(divide.terminals)
    if len(set(dps)) != len(dps):
        diags.append("duplicate ids among double points")
    if len(set(terms)) != len(terms):
        diags.append("duplicate ids among terminals")
    dp_set = set(dps)
    if dp_set & set(terms):
        diags.append("duplicate ids: vertex appears as both double point and terminal")
    edge_ids = [e.id for e in divide.edges]
    if len(set(edge_ids)) != len(edge_ids):
        diags.append("duplicate ids among edges")

    vertices = dp_set | set(terms)
    used: dict[End, str] = {}
    for e in divide.edges:
        if len(e.ends) != 2:
            diags.append(f"edge '{e.id}' does not have exactly two ends")
            continue
        for v, s in e.ends:
            if v not in vertices:
                diags.append(f"edge '{e.id}' references unknown vertex '{v}'")
                continue
            deg = DOUBLE_POINT_DEGREE if v in dp_set else 1
            if not (0 <= s < deg):
                diags.append(f"edge '{e.id}': slot {s} out of range at vertex '{v}'")
                continue
            if (v, s) in used:
                diags.append(f"slot used twice: ({v}, {s}) by '{used[(v, s)]}' and '{e.id}'")
            else:
                used[(v, s)] = e.id
    slots: dict[str, list[int]] = {}
    for w, s in used:
        slots.setdefault(w, []).append(s)
    for v in dps:
        have = sorted(slots.get(v, ()))
        if have != list(range(DOUBLE_POINT_DEGREE)):
            diags.append(f"degree mismatch at vertex '{v}': slots {have}")
    for t in terms:
        have = sorted(slots.get(t, ()))
        if have != [0]:
            diags.append(f"degree mismatch at vertex '{t}': slots {have}")

    # Connectivity of the underlying graph.
    if divide.edges and not diags:
        adj: dict[str, set[str]] = {v: set() for v in vertices}
        for e in divide.edges:
            (u, _), (w, _) = e.ends
            adj[u].add(w)
            adj[w].add(u)
        start = next(iter(vertices))
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != vertices:
            diags.append("disconnected graph")
        elif not dps:  # one chord: mu = 2d - r + 1 = 0
            diags.append("mu = 0: a divide without double points has an empty Milnor lattice")
    elif not divide.edges:
        diags.append("divide has no edges")

    # Branch partition must agree with strand continuation.
    declared = sorted(sorted(b) for b in divide.branches)
    if sorted(eid for b in divide.branches for eid in b) != sorted(edge_ids):
        diags.append("branch partition invalid: does not partition the edge set")
    elif not diags:
        computed = sorted(sorted(c) for c in _strand_components(divide))
        if declared != computed:
            diags.append("branch partition invalid: disagrees with strand continuation")
        else:
            try:
                branch_kinds(divide)
            except DivideError as exc:
                diags.extend(exc.diagnostics)

    seed = divide.sign_seed
    if seed.side not in ("left", "right") or seed.sign not in (1, -1):
        diags.append("malformed sign seed")
    elif seed.edge not in set(edge_ids):
        diags.append(f"malformed sign seed: unknown edge '{seed.edge}'")
    return diags


# ---------------------------------------------------------------------------
# Face tracing


Dart = tuple[str, str, int]  # ("dart", vertex, slot)
Arc = tuple[str, str, str]  # ("arc", from terminal, to terminal)
FaceItem = tuple  # Dart | Arc


@dataclass(frozen=True)
class Face:
    index: int
    items: tuple[FaceItem, ...]
    outer: bool  # contains a virtual boundary arc

    @property
    def is_region(self) -> bool:
        return not self.outer

    def darts(self) -> list[tuple[str, int]]:
        return [(it[1], it[2]) for it in self.items if it[0] == "dart"]

    def vertices(self) -> list[str]:
        return [it[1] for it in self.items if it[0] == "dart"]


class FaceSet:
    """Faces of the complement, as orbits of the next-at-face permutation.

    ``dart_face`` maps each dart (vertex, slot) to the face it bounds; it is
    built once here.
    """

    def __init__(self, faces: tuple[Face, ...]):
        self.faces = faces
        self.dart_face: dict[End, int] = {}
        for f in faces:
            for d in f.darts():
                self.dart_face[d] = f.index
        self.region_indices = tuple(f.index for f in faces if f.is_region)
        self.outer_indices = tuple(f.index for f in faces if f.outer)

    def face_of_dart(self, vertex: str, slot: int) -> int:
        return self.dart_face[(vertex, slot)]


def trace_faces(divide: Divide) -> FaceSet:
    """Trace all complementary faces of the divide inside the disc.

    The next-at-face rule: cross the edge, then take the next half-edge
    clockwise at the head vertex.  Between cyclically consecutive terminals
    a virtual boundary arc is inserted, so every face incident to the disc
    boundary carries at least one arc and is flagged outer.
    """
    diags = validate_divide(divide)
    if diags:
        raise DivideError(*diags)
    if not divide.terminals:
        raise DivideError(
            "divide with no terminals: outer face undetermined "
            "(all-circle divides are not supported by face tracing)"
        )
    twin = _end_maps(divide)
    terms = divide.terminals
    succ_term = {terms[i]: terms[(i + 1) % len(terms)] for i in range(len(terms))}
    dp_set = set(divide.double_points)

    def next_item(item: FaceItem) -> FaceItem:
        if item[0] == "dart":
            v, j = twin[(item[1], item[2])]
            if v in dp_set:
                return ("dart", v, (j - 1) % DOUBLE_POINT_DEGREE)
            return ("arc", v, succ_term[v])
        # arc (a -> b): continue out of terminal b along its unique edge
        return ("dart", item[2], 0)

    items: list[FaceItem] = []
    for v in divide.double_points:
        for s in range(DOUBLE_POINT_DEGREE):
            items.append(("dart", v, s))
    for t in terms:
        items.append(("dart", t, 0))
    for t in terms:
        items.append(("arc", t, succ_term[t]))

    visited: set[FaceItem] = set()
    faces: list[Face] = []
    for start in items:
        if start in visited:
            continue
        cycle = [start]
        visited.add(start)
        cur = next_item(start)
        while cur != start:
            if cur in visited:
                raise DivideError(
                    f"rotation system not planar-consistent: orbit through {start} "
                    f"re-enters {cur}"
                )
            cycle.append(cur)
            visited.add(cur)
            cur = next_item(cur)
        outer = any(it[0] == "arc" for it in cycle)
        faces.append(Face(index=len(faces), items=tuple(cycle), outer=outer))

    n_v = len(divide.double_points) + len(terms)
    n_e = len(divide.edges) + len(terms)  # virtual arcs count as edges
    if n_v - n_e + len(faces) != 1:
        raise DivideError(
            "rotation system not planar-consistent: Euler relation fails "
            f"(V={n_v}, E={n_e}, F={len(faces)}); offending orbit {faces[0].items}"
        )
    return FaceSet(tuple(faces))


def edge_side_faces(divide: Divide, faces: FaceSet, edge: EdgeDef) -> tuple[int, int]:
    """(left face, right face) of an edge, relative to its declared orientation."""
    (u, su), (v, sv) = edge.ends
    return faces.face_of_dart(u, su), faces.face_of_dart(v, sv)


def region_shape_warnings(divide: Divide, faces: FaceSet) -> list[str]:
    """Report regions whose closure revisits a vertex outside the standard
    figure-eight pattern (opposite corners of a double point it crosses)."""
    warnings = []
    for f in faces.faces:
        if not f.is_region:
            continue
        slots_at: dict[str, list[int]] = {}
        for v, s in f.darts():
            slots_at.setdefault(v, []).append(s)
        for v, slots in sorted(slots_at.items()):
            if len(slots) == 1:
                continue
            if len(slots) == 2 and (slots[0] - slots[1]) % DOUBLE_POINT_DEGREE == 2:
                continue  # figure-eight: opposite corners
            warnings.append(
                f"region face {f.index} is not simply enclosed: revisits "
                f"vertex '{v}' at corners {sorted(slots)}"
            )
    return warnings


# ---------------------------------------------------------------------------
# Checkerboard signs


class SignedDivide:
    """A divide with a checkerboard sign on every complementary face."""

    def __init__(self, divide: Divide, faces: FaceSet, sign: tuple[int, ...]):
        self.divide = divide
        self.faces = faces
        self.sign = sign


def seed_face_index(divide: Divide, faces: FaceSet) -> int:
    seed = divide.sign_seed
    edge = divide.edge_index[seed.edge]
    left, right = edge_side_faces(divide, faces, edge)
    return left if seed.side == "left" else right


def assign_signs(divide: Divide, faces: FaceSet) -> SignedDivide:
    """Extend the seed sign to the unique checkerboard coloring."""
    n = len(faces.faces)
    sign: list[Optional[int]] = [None] * n
    start = seed_face_index(divide, faces)
    sign[start] = divide.sign_seed.sign
    queue = [start]
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for e in divide.edges:
        a, b = edge_side_faces(divide, faces, e)
        adj[a].append(b)
        adj[b].append(a)
    while queue:
        cur = queue.pop()
        for nxt in adj[cur]:
            want = -sign[cur]  # type: ignore[operator]
            if sign[nxt] is None:
                sign[nxt] = want
                queue.append(nxt)
            elif sign[nxt] != want:
                raise DivideError("divide not two-colorable")
    if any(s is None for s in sign):
        raise DivideError("divide not two-colorable: face adjacency is disconnected")
    return SignedDivide(divide, faces, tuple(sign))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Numeric and surface invariants


@dataclass(frozen=True)
class DivideInvariants:
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
    """
    divide = signed.divide
    kinds = branch_kinds(divide)
    if any(k == "circle" for k in kinds.values()):
        raise DivideError("surface invariants undefined for circle components")
    d = len(divide.double_points)
    r = len(divide.branches)
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
