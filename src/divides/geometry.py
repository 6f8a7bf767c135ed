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
a crossing follows from the signs of the two segment directions.  Disc
boundary crossings are quadratic irrationals, kept as integer
``QuadPoint``s.  Their angular order comes first from an integer key, the
half-plane and the floor of the abscissa taken with ``isqrt``; only
neighbours with equal keys are compared exactly, with sign computations in
Q(sqrt(D1), sqrt(D2)).  Only integers are used: no fraction, no float.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from .core import Divide, DivideError, EdgeDef, SignSeed

IntPoint = tuple[int, int]


def _cross(a: IntPoint, b: IntPoint) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _dot(a: IntPoint, b: IntPoint) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _sub(a: IntPoint, b: IntPoint) -> IntPoint:
    return (a[0] - b[0], a[1] - b[1])


def _norm2(a: IntPoint) -> int:
    return a[0] * a[0] + a[1] * a[1]


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


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
# Signs of expressions a + b*sqrt(D) and p + q*sqrt(D1) + r*sqrt(D2) + s*sqrt(D1*D2)


def sign_quad(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for d >= 0."""
    if d < 0:
        raise ValueError("negative radicand")
    if b == 0 or d == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    sa, sb = _sign(a), _sign(b)
    if sa == sb:
        return sa
    t = a * a - b * b * d
    if t == 0:
        return 0
    return sa if t > 0 else sb


def sign_quad2(p: int, q: int, r: int, s: int, d1: int, d2: int) -> int:
    """Exact sign of p + q*sqrt(d1) + r*sqrt(d2) + s*sqrt(d1*d2)."""
    sx = sign_quad(p, q, d1)
    sy = sign_quad(r, s, d1)
    if sy == 0:
        return sx
    if sx == 0:
        return sy
    if sx == sy:
        return sx
    # compare (p + q*sqrt(d1))^2 against d2*(r + s*sqrt(d1))^2
    x2a, x2b = p * p + q * q * d1, 2 * p * q
    y2a, y2b = (r * r + s * s * d1) * d2, 2 * r * s * d2
    t = sign_quad(x2a - y2a, x2b - y2b, d1)
    if t == 0:
        return 0
    return sx if t > 0 else sy


class QuadPoint(NamedTuple):
    """Point with coordinates (ax + bx*sqrt(d), ay + by*sqrt(d))."""

    ax: int
    bx: int
    ay: int
    by: int
    d: int

    def half(self) -> int:
        sy = sign_quad(self.ay, self.by, self.d)
        if sy > 0:
            return 0
        if sy < 0:
            return 1
        return 0 if sign_quad(self.ax, self.bx, self.d) > 0 else 1


def _cross_sign_quadpoints(p: QuadPoint, q: QuadPoint) -> int:
    """Sign of p.x*q.y - p.y*q.x."""
    c0 = p.ax * q.ay - p.ay * q.ax
    c1 = p.bx * q.ay - p.by * q.ax  # sqrt(p.d)
    c2 = p.ax * q.by - p.ay * q.bx  # sqrt(q.d)
    c3 = p.bx * q.by - p.by * q.bx  # sqrt(p.d*q.d)
    return sign_quad2(c0, c1, c2, c3, p.d, q.d)


def compare_circle_points(p: QuadPoint, q: QuadPoint) -> int:
    """Order two nonzero points by angle in [0, 2*pi), exactly."""
    hp, hq = p.half(), q.half()
    if hp != hq:
        return -1 if hp < hq else 1
    c = _cross_sign_quadpoints(p, q)
    return -c  # cross > 0 means p at the smaller angle


def _floor_quad(a: int, b: int, d: int, scale: int) -> int:
    """floor((a + b*sqrt(d)) / scale) for integers with d >= 0, scale > 0."""
    m = b * b * d
    root = isqrt(m)  # floor(|b| sqrt(d))
    if b < 0:
        root = -root if root * root == m else -root - 1
    return (a + root) // scale


def circle_order(points: list[QuadPoint], scales: list[int]) -> list[int]:
    """Indices of ``points`` in the order ``compare_circle_points`` gives.

    Point k is (x, y) * scales[k], scales[k] > 0, and every (x, y) lies on
    one circle about the origin.  There x falls on the half of angles
    [0, pi) and rises on [pi, 2 pi), so the integer key (half, -floor(x))
    or (half, floor(x)) orders points whose keys differ (a filtered exact
    predicate: Fortune and Van Wyk, ACM TOG 15 (1996)).  One insertion pass
    then orders each run of equal keys with ``compare_circle_points`` on
    neighbours.  Coincident points raise DivideError.
    """
    keys = []
    for p, scale in zip(points, scales):
        half = p.half()
        x = _floor_quad(p.ax, p.bx, p.d, scale)
        keys.append((half, x if half else -x))
    order = sorted(range(len(points)), key=keys.__getitem__)
    for i in range(1, len(order)):
        k = i
        while k and keys[order[k - 1]] == keys[order[k]]:
            c = compare_circle_points(points[order[k - 1]], points[order[k]])
            if c < 0:
                break
            if c == 0:
                # Not reached from ``ingest_polyline``: two clips at one
                # boundary point are two segments meeting there, already
                # rejected as an intersection on the disc boundary.
                raise DivideError("coincident boundary terminals")
            order[k - 1], order[k] = order[k], order[k - 1]
            k -= 1
    return order


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


def _terminal(seg: _Seg, r2: int, outward: bool) -> QuadPoint:
    """Where the segment meets the circle |p|^2 = r2, scaled by 2|d|^2 > 0.

    The meeting parameter is t = (-bq +- sqrt(disc)) / (2 aq), the larger
    root when the segment runs outward, the smaller when it runs inward.  A
    positive scale leaves the angular order of terminals unchanged.
    """
    (ax, ay), (dx, dy) = seg.a, seg.d
    aq = dx * dx + dy * dy
    bq = 2 * (ax * dx + ay * dy)
    disc = bq * bq - 4 * aq * (ax * ax + ay * ay - r2)
    if disc <= 0:
        raise DivideError("segment does not cross the disc boundary transversely")
    root = 1 if outward else -1
    return QuadPoint(2 * aq * ax - bq * dx, root * dx, 2 * aq * ay - bq * dy, root * dy, disc)


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
    # raw one, so one shift serves every key.
    shift = order_shift(max((recs[0][4] for recs in crossings.values()), default=1))
    points_sorted = sorted(
        crossings,
        key=lambda p: (order_key(p[0], p[2], shift), order_key(p[1], p[2], shift)),
    )
    names = [f"x{k}" for k in range(len(points_sorted))]
    seg_events: list[list[tuple[int, int, int]]] = [[] for _ in segs]
    for x, p in enumerate(points_sorted):
        ((i, s, j, t, den),) = crossings[p]
        out_i, out_j = _out_slots(segs[i].d, segs[j].d)
        seg_events[i].append((order_key(s, den, shift), x, out_i))
        seg_events[j].append((order_key(t, den, shift), x, out_j))
    for events in seg_events:
        events.sort()

    # Terminals (boundary clips) of each open branch, in CCW angular order.
    # Crossings on the out-of-disc side of a clip were already skipped.
    ends: list[tuple[int, bool]] = []  # (branch, whether the end terminal)
    clips: list[QuadPoint] = []
    scales: list[int] = []
    for b_idx, (first, count, closed) in enumerate(spans):
        if not closed:
            # A one-segment branch has both ends outside the disc.  It meets
            # the closed disc only when its line does, cross(a, d)^2 <=
            # r^2 |d|^2, at the point t = -a.d / |d|^2 nearest the centre,
            # and that point lies on the segment.  A tangent segment meets
            # the disc and is rejected below as not transverse.
            a, d = segs[first].a, segs[first].d
            if count == 1 and not (
                _cross(a, d) ** 2 <= r2 * _norm2(d) and 0 < -_dot(a, d) < _norm2(d)
            ):
                raise DivideError(f"open polyline {b_idx} does not meet the disc")
            ends += [(b_idx, False), (b_idx, True)]
            last = segs[first + count - 1]
            clips += [_terminal(segs[first], r2, False), _terminal(last, r2, True)]
            scales += [2 * _norm2(segs[first].d), 2 * _norm2(last.d)]
    order = circle_order(clips, scales)
    term_names = [f"t{pos}" for pos in range(len(order))]
    terminal_id = {ends[rec]: tid for rec, tid in zip(order, term_names)}

    # Walk each branch once: an edge runs from one stop's outgoing end to the
    # next stop's incoming end.
    edges: list[EdgeDef] = []
    branch_edge_ids: list[list[str]] = []
    for b_idx, (first, count, closed) in enumerate(spans):
        events = [ev for k in range(first, first + count) for ev in seg_events[k]]
        outs = [(names[x], slot) for _key, x, slot in events]
        ins = [(names[x], (slot + 2) % 4) for _key, x, slot in events]
        if closed:
            if not events:
                raise DivideError(
                    f"closed polyline {b_idx} has no crossings and cannot be encoded"
                )
            ins = ins[1:] + ins[:1]
        else:
            outs.insert(0, (terminal_id[(b_idx, False)], 0))
            ins.append((terminal_id[(b_idx, True)], 0))
        ids = []
        for out_end, in_end in zip(outs, ins):
            ids.append(f"e{len(edges)}")
            edges.append(EdgeDef(ids[-1], (out_end, in_end)))
        branch_edge_ids.append(ids)

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
