"""Exact-geometry ingestion of integer polylines into combinatorial divides.

Points stay integer pairs.  Each pair of segments is decided with integer
cross products.  A crossing is the point (px/den, py/den), named by its
reduced integer triple (px, py, den), and a crossing's parameter along a
segment is ns/den.  Crossings, and the crossings along each segment, are
ordered by the integer keys floor(n * 2**S / den) with 2**S > den**2 for
every den: two distinct fractions with denominators below 2**(S/2) differ by
more than 2**-S, so their keys differ and keep their order.  The witness
face is found by one ray from the witness toward the first crossing, pushed
an infinitesimal distance to its right so that it meets no crossing or
vertex; its tie-breaks are exact integer sign rules (symbolic perturbation,
Edelsbrunner and Muecke, ACM TOG 9 (1990)).  A point lies left of that ray
when its cross product with the ray's direction is >= 0, so a point on the
ray's line counts as left; a crossing on the hit segment lies before the hit
exactly when it is on the same side as the segment's start.  The rotation at
a crossing follows from the signs of the two segment directions.  The
points where open polylines cross the disc boundary, the terminals, are
never computed: they all lie on the unbounded face of the map, and one walk
around that face meets them in their order along the circle.  Only integers
are used: no fraction, no float.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .core import (
    DOUBLE_POINT_DEGREE,
    Divide,
    DivideError,
    EdgeDef,
    End,
    SignSeed,
    clockwise_slot,
)

IntPoint = tuple[int, int]


def _cross(a: IntPoint, b: IntPoint) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _dot(a: IntPoint, b: IntPoint) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _sub(a: IntPoint, b: IntPoint) -> IntPoint:
    return (a[0] - b[0], a[1] - b[1])


def _norm2(a: IntPoint) -> int:
    return a[0] * a[0] + a[1] * a[1]


def _ratio_text(n: int, den: int) -> str:
    """n/den in lowest terms, as "n" or "n/den", for den > 0."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def order_shift(max_den: int) -> int:
    """A shift S with 2**S > max_den**2, for ``order_key``."""
    return 2 * max_den.bit_length()


def order_key(n: int, den: int, shift: int) -> int:
    """floor(n * 2**shift / den) for den > 0.

    Sorting fractions n/den by this key sorts them by value when
    2**shift > den**2 for all of them: distinct ones differ by at least
    1/(den1*den2) > 2**-shift, so their scaled values are more than 1 apart.
    """
    return (n << shift) // den


# ---------------------------------------------------------------------------
# Segments


class _Seg(NamedTuple):
    branch: int
    a: IntPoint
    b: IntPoint
    d: IntPoint  # b - a


def _upper(v: IntPoint) -> bool:
    """Whether v points into the half-plane of angles [0, pi)."""
    return v[1] > 0 or (v[1] == 0 and v[0] > 0)


def _out_slots(di: IntPoint, dj: IntPoint) -> tuple[int, int]:
    """Slots of the outgoing directions di and dj among the four ends of a
    crossing, counted counterclockwise from angle 0.

    Let ui be whichever of +-di points into [0, pi), likewise uj.  The four
    directions run ui, uj, -ui, -uj when ui has the smaller angle, that is
    when cross(ui, uj) > 0, and uj, ui, -uj, -ui otherwise.  The incoming
    end of a segment sits opposite its outgoing one, at slot (out + 2) % 4.
    """
    ei, ej = (1 if _upper(di) else -1), (1 if _upper(dj) else -1)
    first_i = ei * ej * _cross(di, dj) > 0
    out_i = (0 if first_i else 1) + (0 if ei > 0 else 2)
    out_j = (1 if first_i else 0) + (0 if ej > 0 else 2)
    return out_i, out_j


# ---------------------------------------------------------------------------
# Ingestion


def ingest_polyline(
    branches: list[tuple[list[IntPoint], bool]],
    disc_radius: int,
    seed_point: IntPoint,
    seed_sign: int,
    name: str = "polyline",
) -> Divide:
    """Build the combinatorial divide of a set of integer polylines.

    Open polylines must start and end strictly outside the disc with all
    intermediate vertices strictly inside; closed polylines lie strictly
    inside.  All intersections must be transversal double points interior to
    segments; violations raise DivideError with a diagnostic.

    The witness ``seed_point`` may be any integer point strictly inside the
    disc that is not on a curve; the face containing it gets ``seed_sign``.
    That face is the one the witness sees at the first hit of a ray aimed at
    the first crossing and pushed an infinitesimal distance to its right.

    Terminals are numbered counterclockwise along the disc boundary, and t0
    is where the first open polyline enters the disc.  The order comes from
    one walk around the unbounded face that turns left at every crossing
    and back at every terminal; it meets the terminals clockwise.
    """
    if disc_radius <= 0:
        raise DivideError("disc_radius must be positive")
    r2 = disc_radius * disc_radius

    segs: list[_Seg] = []
    spans: list[tuple[int, int, bool]] = []  # (first segment, count, closed)
    for b_idx, (points, closed) in enumerate(branches):
        pts = [(x, y) for x, y in points]
        if closed:
            if len(pts) < 3:
                raise DivideError(f"closed polyline {b_idx} needs at least 3 points")
            if any(_norm2(p) >= r2 for p in pts):
                raise DivideError(
                    f"closed polyline {b_idx} must lie strictly inside the disc"
                )
            pts.append(pts[0])
        else:
            if len(pts) < 2:
                raise DivideError(f"open polyline {b_idx} needs at least 2 points")
            if _norm2(pts[0]) <= r2 or _norm2(pts[-1]) <= r2:
                raise DivideError(
                    f"open polyline {b_idx} endpoints must be strictly outside the disc"
                )
            if any(_norm2(p) >= r2 for p in pts[1:-1]):
                raise DivideError(
                    f"open polyline {b_idx} interior vertices must be strictly inside"
                )
        spans.append((len(segs), len(pts) - 1, closed))
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise DivideError(f"polyline {b_idx} repeats a point consecutively")
            segs.append(_Seg(b_idx, a, b, _sub(b, a)))

    # Fold-back overlap on adjacent segments.
    for first, count, closed in spans:
        for k in range(count if closed else count - 1):
            d1, d2 = segs[first + k].d, segs[first + (k + 1) % count].d
            if _cross(d1, d2) == 0 and _dot(d1, d2) < 0:
                raise DivideError("tangency or overlapping segments")

    # Pairwise intersections, decided in integers: with w = a2 - a1 the
    # lines meet at a1 + (ns/den) d1 = a2 + (nt/den) d2, den > 0.  The point
    # is (px/den, py/den), keyed by its reduced triple.
    crossings: dict[tuple[int, int, int], list[tuple[int, int, int, int, int]]] = {}
    flat = [(seg.branch, seg.a[0], seg.a[1], seg.d[0], seg.d[1]) for seg in segs]
    for i, (b1, ax, ay, dx1, dy1) in enumerate(flat):
        _first, count, closed = spans[b1]
        n1 = dx1 * dx1 + dy1 * dy1
        for j, (b2, bx, by, dx2, dy2) in enumerate(flat[i + 1:], i + 1):
            if b2 == b1 and (j - i == 1 or (closed and j - i == count - 1)):
                continue  # adjacent segments
            den = dx1 * dy2 - dy1 * dx2
            wx, wy = bx - ax, by - ay
            if den == 0:
                if dx1 * wy - dy1 * wx != 0:
                    continue  # parallel, disjoint lines
                # collinear: check overlap along d1
                t0, t1 = wx * dx1 + wy * dy1, (wx + dx2) * dx1 + (wy + dy2) * dy1
                lo, hi = min(t0, t1), max(t0, t1)
                if hi < 0 or lo > n1:
                    continue
                if hi == 0 or lo == n1:
                    raise DivideError("intersection at a polyline vertex")
                raise DivideError("tangency or overlapping segments")
            ns, nt = wx * dy2 - wy * dx2, wx * dy1 - wy * dx1
            if den < 0:
                den, ns, nt = -den, -ns, -nt
            if not (0 <= ns <= den and 0 <= nt <= den):
                continue
            px, py = ax * den + ns * dx1, ay * den + ns * dy1
            pn, rn = px * px + py * py, r2 * den * den
            if pn > rn:
                continue  # outside the disc; not part of the divide
            if pn == rn:
                raise DivideError("intersection on the disc boundary")
            if ns in (0, den) or nt in (0, den):
                raise DivideError("intersection at a polyline vertex")
            g = gcd(px, py, den)
            crossings.setdefault((px // g, py // g, den // g), []).append(
                (i, ns, j, nt, den))

    for (px, py, den), recs in crossings.items():
        if len(recs) > 1:
            raise DivideError(f"triple point at ({_ratio_text(px, den)}, {_ratio_text(py, den)})")

    # Events per segment: (order key of the parameter, crossing index, slot of
    # the outgoing end).  No denominator, reduced or not, exceeds the largest
    # raw one, so one shift serves every key.  The keys are ``order_key``'s,
    # written out.
    shift = order_shift(max((recs[0][4] for recs in crossings.values()), default=1))
    points_sorted = sorted(
        crossings, key=lambda p: ((p[0] << shift) // p[2], (p[1] << shift) // p[2]))
    names = [f"x{k}" for k in range(len(points_sorted))]
    seg_events: list[list[tuple[int, int, int]]] = [[] for _ in segs]
    for x, p in enumerate(points_sorted):
        ((i, s, j, t, den),) = crossings[p]
        out_i, out_j = _out_slots(segs[i].d, segs[j].d)
        seg_events[i].append(((s << shift) // den, x, out_i))
        seg_events[j].append(((t << shift) // den, x, out_j))
    for events in seg_events:
        events.sort()

    # A one-segment branch has both ends outside the disc.  It meets the
    # closed disc only when its line does, cross(a, d)^2 <= r^2 |d|^2, at the
    # point t = -a.d / |d|^2 nearest the centre, and that point lies on the
    # segment; it touches the circle there when equality holds.  Every other
    # open branch enters and leaves the disc through an inner vertex, so
    # transversely.
    for b_idx, (first, count, closed) in enumerate(spans):
        if not closed and count == 1:
            a, d = segs[first].a, segs[first].d
            if not (_cross(a, d) ** 2 <= r2 * _norm2(d) and 0 < -_dot(a, d) < _norm2(d)):
                raise DivideError(f"open polyline {b_idx} does not meet the disc")
            if _cross(a, d) ** 2 == r2 * _norm2(d):
                raise DivideError("segment does not cross the disc boundary transversely")

    # Walk each branch once: an edge runs from one stop's outgoing end to the
    # next stop's incoming end, opposite it.  With n crossings, slot s of
    # crossing x is dart 4x + s, and the start and end clips of the k-th open
    # branch, where it crosses the disc boundary, are darts 4n + 2k and
    # 4n + 2k + 1.
    n_slot = DOUBLE_POINT_DEGREE * len(points_sorted)
    darts: list[tuple[int, int]] = []
    branch_edges: list[range] = []
    n_clip = 0
    for b_idx, (first, count, closed) in enumerate(spans):
        outs = [DOUBLE_POINT_DEGREE * x + slot
                for k in range(first, first + count) for _key, x, slot in seg_events[k]]
        ins = [y ^ 2 for y in outs]
        if closed:
            if not outs:
                raise DivideError(
                    f"closed polyline {b_idx} has no crossings and cannot be encoded"
                )
            ins = ins[1:] + ins[:1]
        else:
            outs.insert(0, n_slot + n_clip)
            ins.append(n_slot + n_clip + 1)
            n_clip += 2
        branch_edges.append(range(len(darts), len(darts) + len(outs)))
        darts += zip(outs, ins)

    # Terminals.  Every clip lies on the unbounded face.  Walking that face
    # from the first start clip, turning back at each clip and leaving each
    # crossing by the slot clockwise of the one arrived at, keeps the face on
    # the left and so meets the clips of the walk's component clockwise.
    # Read backwards, they are numbered counterclockwise from t0, the first
    # start clip; clips on another component follow in branch order, and
    # validation rejects that divide as disconnected.
    twin = [0] * (n_slot + n_clip)
    for x, y in darts:
        twin[x], twin[y] = y, x
    clips: list[int] = []
    if n_clip:
        walk, x = [n_slot], twin[n_slot]
        while x != n_slot:
            if x < n_slot:
                x = twin[clockwise_slot(x)]
            else:
                walk.append(x)
                x = twin[x]
        clips = walk[:1] + walk[:0:-1]
    clips += sorted(set(range(n_slot, n_slot + n_clip)).difference(clips))
    term_names = [f"t{pos}" for pos in range(n_clip)]

    # The end of the map at each dart, then the edges, made by tuple.__new__
    # as ``_make`` makes them.
    ends: list[End] = [(v, s) for v in names for s in range(DOUBLE_POINT_DEGREE)]
    ends += [(t, 0) for _x, t in sorted(zip(clips, term_names))]
    edge_ids = [f"e{k}" for k in range(len(darts))]
    new = tuple.__new__
    edges = [new(EdgeDef, (eid, (ends[x], ends[y]))) for eid, (x, y) in zip(edge_ids, darts)]
    branch_edge_ids = [[edge_ids[k] for k in ks] for ks in branch_edges]

    # Seed: the face of the witness, from the first hit of one ray.  The
    # branch's stops before the hit are those of its earlier segments and
    # those of the hit segment on the side of the segment's start.
    k, v, side = _first_hit(segs, r2, seed_point, points_sorted)
    first, _count, closed = spans[segs[k].branch]
    ids = branch_edge_ids[segs[k].branch]
    wx, wy = seed_point
    start_left = _cross(v, _sub(segs[k].a, seed_point)) >= 0
    before = sum(len(seg_events[m]) for m in range(first, k))
    for _key, x, _slot in seg_events[k]:
        px, py, den = points_sorted[x]
        before += (_cross(v, (px - wx * den, py - wy * den)) >= 0) == start_left
    hit_edge = ids[(before - 1) % len(ids)] if closed else ids[before]

    divide = Divide(
        name=name,
        double_points=tuple(names),
        terminals=tuple(term_names),
        edges=tuple(edges),
        branches=tuple(tuple(ids) for ids in branch_edge_ids),
        sign_seed=SignSeed(edge=hit_edge, side=side, sign=seed_sign),
    )
    if divide.diagnostics:
        raise DivideError(*divide.diagnostics)
    return divide


def _first_hit(
    segs: list[_Seg], r2: int, w: IntPoint, crossings: list[tuple[int, int, int]]
) -> tuple[int, IntPoint, str]:
    """(segment k, ray direction v, side of the witness w) of the first hit.

    The ray runs from w toward the first crossing (px/den, py/den), along
    v = (px - w_x den, py - w_y den), pushed an infinitesimal eps to its
    right.  So a point p lies left of it when cross(v, p - w) >= 0, a point
    on the ray's line included, and a segment a + t d is crossed when its
    two ends disagree on that.  It is crossed at the ray parameter
    s0 + eps s1, with c = cross(v, d), s0 = cross(a - w, d) / c and
    s1 = -dot(v, d) / c; hits are ordered by the ``order_key``s of s0 and
    s1 over |c|.  A segment through the target crosses the ray there,
    inside the disc, so a hit exists at or before the target.  Without a
    crossing the divide has mu = 0 and is rejected whatever its seed, which
    then names the first edge.
    """
    if _norm2(w) >= r2:
        raise DivideError("witness point must lie strictly inside the disc")
    for seg in segs:
        u = _sub(w, seg.a)
        if _cross(seg.d, u) == 0 and 0 <= _dot(u, seg.d) <= _norm2(seg.d):
            raise DivideError("witness point on a curve")
    if not segs:
        raise DivideError("divide has no edges")
    if not crossings:
        return 0, (0, 0), "left"

    px, py, den = crossings[0]
    v = (px - w[0] * den, py - w[1] * den)
    hits = []  # (numerator of s0, numerator of s1, |c|, segment)
    for k, seg in enumerate(segs):
        u = _sub(seg.a, w)
        if (_cross(v, u) >= 0) != (_cross(v, _sub(seg.b, w)) >= 0):
            c, n0, n1 = _cross(v, seg.d), _cross(u, seg.d), -_dot(v, seg.d)
            if c < 0:
                c, n0, n1 = -c, -n0, -n1
            if n0 > 0:
                hits.append((n0, n1, c, k))
    shift = order_shift(max(c for _n0, _n1, c, _k in hits))
    _key0, _key1, k = min((order_key(n0, c, shift), order_key(n1, c, shift), k)
                          for n0, n1, c, k in hits)
    seg = segs[k]
    side = "left" if _cross(seg.d, _sub(w, seg.a)) > 0 else "right"
    return k, v, side
