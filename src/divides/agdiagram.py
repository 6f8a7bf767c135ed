"""AG diagrams: typed ordered vertices, weighted edges, depth labels.

Saddle vertices come from double points, signed vertices from bounded
regions.  The total order is minus vertices, then saddles, then plus
vertices; within a type, declaration order (double-point order for saddles,
face-trace order for regions) or a given permutation of it.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Optional

from .core import DOUBLE_POINT_DEGREE, DivideError, SignedDivide


class AGVertex(NamedTuple):
    label: str
    vtype: str  # "-", "0", "+"
    origin: tuple[str, object]  # ("double_point", id) | ("region", face index)


class AGEdge(NamedTuple):
    u: int  # position in the total order, u < v
    v: int
    multiplicity: int


class _AGFields(NamedTuple):
    vertices: tuple[AGVertex, ...]
    edges: tuple[AGEdge, ...]


class AGDiagram(_AGFields):
    """Vertices in the total order and edges between their positions.

    The edge rule: the edges are strictly increasing in (u, v), each has
    0 <= u < v < mu, each joins two vertices of different types, and each
    multiplicity is an exact int >= 1 (not a bool).  ``build_ag`` writes
    them so for every divide that ``assign_signs`` signed, and
    ``milnor_lattice`` refuses an edge list that breaks the rule; the
    constructor accepts any edge list.

    It has one index, the adjacency index: a list holding, at each position,
    the ascending positions joined to it, once per edge, so each query is a
    list index.  ``build_ag`` writes it with the edges.  A diagram built by
    hand builds it on its first query, and that refuses an edge with an end
    outside ``range(mu)``, which would otherwise wrap or fail as a bare
    IndexError.  Equality and hashing read the fields only.
    """

    @cached_property
    def _adjacent(self) -> list[list[int]]:
        mu = len(self.vertices)
        adjacent: list[list[int]] = [[] for _ in range(mu)]
        for u, v, _m in self.edges:
            if not (0 <= u < mu and 0 <= v < mu):
                raise DivideError(f"AG edge ({u}, {v}) is out of range or out of order")
            adjacent[u].append(v)
            adjacent[v].append(u)
        for ns in adjacent:
            ns.sort()
        return adjacent

    @property
    def mu(self) -> int:
        return len(self.vertices)

    def census(self) -> tuple[int, int, int]:
        n = {"-": 0, "0": 0, "+": 0}
        for vx in self.vertices:
            n[vx.vtype] += 1
        return n["-"], n["0"], n["+"]

    def neighbors(self, pos: int) -> list[int]:
        """Positions joined to ``pos``, ascending, once per edge; none for a
        ``pos`` outside ``range(mu)``."""
        adjacent = self._adjacent
        return list(adjacent[pos]) if 0 <= pos < len(adjacent) else []


def build_ag(
    signed: SignedDivide, reorder: Optional[dict[str, tuple[int, ...]]] = None
) -> AGDiagram:
    """The AG diagram of a signed divide.

    Edges join a saddle to a signed region once per quadrant of the double
    point lying in that region, and a plus region to a minus region once per
    shared divide edge; unbounded faces contribute nothing.  Minus regions
    come before saddles and saddles before plus regions, so each pair is
    ordered by the types of its ends.  Within a type the order is declaration
    order, or the 1-based permutation ``reorder[t]`` of it when one is given:
    ``reorder["-"] = (2, 1)`` puts the second minus region first.  Labels
    ``v{t}_{i}`` number the vertices of each type in the final order.

    The adjacency index is written with the edges, in the pass that emits
    them sorted, so no query of this diagram builds it again.  A diagram
    built by hand, ``AGDiagram(vertices, edges)``, still builds it on its
    first query and refuses there an edge end outside ``range(mu)``.
    """
    divide = signed.divide
    face_of = signed.faces.face_of
    sign = signed.sign
    regions = signed.faces.region_indices
    blocks = {
        "-": [f for f in regions if sign[f] == -1],
        "0": list(range(len(divide.double_points))),  # double point indices
        "+": [f for f in regions if sign[f] == 1],
    }
    for t, perm in (reorder or {}).items():
        if t not in blocks or sorted(perm) != list(range(1, len(blocks[t]) + 1)):
            raise DivideError(f"invalid permutation for type '{t}': {perm}")
        blocks[t] = [blocks[t][i - 1] for i in perm]
    minus, saddles, plus = blocks.values()

    # The records are made by tuple.__new__, as ``_make`` makes them, without
    # a Python-level constructor call each.
    new = tuple.__new__
    vertices = [new(AGVertex, (f"v-_{i}", "-", ("region", f))) for i, f in enumerate(minus, 1)]
    vertices += [new(AGVertex, (f"v0_{i}", "0", ("double_point", divide.double_points[k])))
                 for i, k in enumerate(saddles, 1)]
    vertices += [new(AGVertex, (f"v+_{i}", "+", ("region", f))) for i, f in enumerate(plus, 1)]
    pos_of_dp = [0] * len(saddles)
    for pos, k in enumerate(saddles, len(minus)):
        pos_of_dp[k] = pos
    pos_of_face = [-1] * len(signed.faces.faces)  # -1 at the outer faces
    for pos, f in enumerate(minus):
        pos_of_face[f] = pos
    for pos, f in enumerate(plus, len(minus) + len(saddles)):
        pos_of_face[f] = pos

    # An edge u < v is counted under the one int u * mu + v (v < mu), whose
    # order is that of the pair (u, v).  A minus region comes before a saddle
    # and a plus region after it, so comparing positions orders each pair.
    mu = len(vertices)
    keys = []
    for x in range(DOUBLE_POINT_DEGREE * len(divide.double_points)):  # slot x % 4 of x // 4
        p = pos_of_face[face_of[x]]
        if p >= 0:
            q = pos_of_dp[x // DOUBLE_POINT_DEGREE]
            keys.append(p * mu + q if p < q else q * mu + p)
    for x, y in divide.edge_darts:
        p, q = pos_of_face[face_of[x]], pos_of_face[face_of[y]]
        if p >= 0 and q >= 0:
            keys.append(p * mu + q if p < q else q * mu + p)
    # Each key list is freed once read, so that the index is built at a lower
    # peak of memory.
    counts = Counter(keys)
    del keys
    ordered = sorted(counts)
    us = [key // mu for key in ordered]
    vs = [key % mu for key in ordered]
    edges = tuple(map(new, repeat(AGEdge), zip(us, vs, map(counts.__getitem__, ordered))))
    del counts, ordered

    # The adjacency index, in the same pass: the edges ascend in (u, v), so
    # each position gets its lower neighbours first, then its higher ones,
    # each run already ascending.
    adjacent: list[list[int]] = [[] for _ in range(mu)]
    for u, v in zip(us, vs):
        adjacent[u].append(v)
        adjacent[v].append(u)
    ag = AGDiagram(vertices=tuple(vertices), edges=edges)
    vars(ag)["_adjacent"] = adjacent
    return ag


def exposure_set(signed: SignedDivide, ag: AGDiagram) -> frozenset[int]:
    """Vertices whose double point or region closure meets an outer face.

    A saddle is exposed when one of its quadrants is an outer-adjacent face;
    a region vertex when its closure shares a double point with an
    outer-adjacent face.  Sharing an edge needs no clause of its own: a
    bounded region never touches a terminal, so both ends of an edge it
    shares with an outer face are double points of both.  So both rules ask
    whether a double point, x // 4 of a dart x, is one that an outer face
    passes through; a region's items are all such darts.  Those double
    points are marked in a bytearray indexed by double-point number, and a
    region is exposed at the first of its darts that lands on a mark.
    O(V + E).
    """
    divide, faces = signed.divide, signed.faces
    touched = bytearray(len(divide.double_points))  # 1 at each double point an outer face meets
    n_dart = DOUBLE_POINT_DEGREE * len(touched)
    for f in faces.outer_indices:
        for x in faces.faces[f].items:
            if x < n_dart:
                touched[x // DOUBLE_POINT_DEGREE] = 1

    first = divide.first_dart
    exposed = []
    for pos, (_label, _vtype, (kind, origin)) in enumerate(ag.vertices):
        if kind == "double_point":
            if touched[first[origin] // DOUBLE_POINT_DEGREE]:
                exposed.append(pos)
        else:
            for x in faces.faces[origin].items:
                if touched[x // DOUBLE_POINT_DEGREE]:
                    exposed.append(pos)
                    break
    return frozenset(exposed)


class DepthLabels(NamedTuple):
    depth: tuple[int, ...]
    diagram_depth: int


def depth_labels(ag: AGDiagram, exposed: frozenset[int]) -> DepthLabels:
    """Depth = graph distance to the exposed set (the peeling recursion).

    One breadth-first search over the diagram's adjacency index, the list of
    neighbour lists by position, read in place rather than copied per vertex
    as ``neighbors`` returns it: O(V + E).  An edge with an end outside
    ``range(mu)`` raises DivideError when the index is built, and so does an
    exposed position outside ``range(mu)``.
    """
    if not exposed:
        raise DivideError("depth undefined: exposed set is empty")
    adjacent = ag._adjacent
    mu = len(adjacent)
    queue = deque(sorted(exposed))
    if queue[0] < 0 or queue[-1] >= mu:
        bad = [pos for pos in queue if not 0 <= pos < mu]
        raise DivideError(f"depth undefined: exposed positions {bad} are outside range({mu})")
    depth = [-1] * mu
    for pos in queue:
        depth[pos] = 0
    while queue:
        cur = queue.popleft()
        step = depth[cur] + 1
        for nxt in adjacent[cur]:
            if depth[nxt] < 0:
                depth[nxt] = step
                queue.append(nxt)
    if -1 in depth:
        bad = [ag.vertices[i].label for i, d in enumerate(depth) if d == -1]
        raise DivideError(f"depth undefined for vertices disconnected from the exposed set: {bad}")
    return DepthLabels(depth=tuple(depth), diagram_depth=max(depth))


def to_dot(ag: AGDiagram, depths: DepthLabels) -> str:
    """Deterministic DOT text; labels carry type, order index, and depth."""
    lines = ["graph ag {", "  node [shape=circle];"]
    for pos, vx in enumerate(ag.vertices):
        lines.append(
            f'  "{vx.label}" [label="{vx.label} ({pos + 1}) depth {depths.depth[pos]}"];'
        )
    for e in ag.edges:
        u, v = ag.vertices[e.u].label, ag.vertices[e.v].label
        attr = f' [label="{e.multiplicity}"]' if e.multiplicity > 1 else ""
        lines.append(f'  "{u}" -- "{v}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
