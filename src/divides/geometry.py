"""Exact-geometry ingestion of integer polylines into combinatorial divides.

Points stay integer pairs.  Each pair of segments is decided with integer
cross products; a ``Fraction`` is built only for a real crossing, its point
(which names and orders it) and its parameter along each segment.  The rotation
at a crossing follows from the signs of the two segment directions.  Disc
boundary crossings are quadratic irrationals, kept as integer ``QuadPoint``s;
their angular order is decided exactly with sign computations in
Q(sqrt(D1), sqrt(D2)).  No floating point is used anywhere.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .core import Divide, DivideError, EdgeDef, SignSeed, validate_divide

Rational = Union[int, Fraction]
Vec = tuple[Rational, Rational]
IntPoint = tuple[int, int]


def _cross(a: Vec, b: Vec) -> Rational:
    return a[0] * b[1] - a[1] * b[0]


def _dot(a: Vec, b: Vec) -> Rational:
    return a[0] * b[0] + a[1] * b[1]


def _sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def _norm2(a: Vec) -> Rational:
    return a[0] * a[0] + a[1] * a[1]


def _sign(x: Rational) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# Signs of expressions a + b*sqrt(D) and p + q*sqrt(D1) + r*sqrt(D2) + s*sqrt(D1*D2)


def sign_quad(a: Rational, b: Rational, d: Rational) -> int:
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


def sign_quad2(
    p: Rational, q: Rational, r: Rational, s: Rational, d1: Rational, d2: Rational
) -> int:
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


@dataclass(frozen=True)
class QuadPoint:
    """Point with coordinates (ax + bx*sqrt(d), ay + by*sqrt(d))."""

    ax: Rational
    bx: Rational
    ay: Rational
    by: Rational
    d: Rational

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


# ---------------------------------------------------------------------------
# Segments


@dataclass(frozen=True, slots=True)
class _Seg:
    branch: int
    a: IntPoint
    b: IntPoint
    d: IntPoint  # b - a

    def at(self, t: Fraction) -> Vec:
        return (self.a[0] + t * self.d[0], self.a[1] + t * self.d[1])


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
    It is anchored by casting an exact ray from it: upward, else downward,
    else along a rational direction whose first hit inside the disc is not a
    crossing or a polyline vertex.
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
    # lines meet at a1 + (ns/den) d1 = a2 + (nt/den) d2, den > 0.
    crossings: dict[tuple[Fraction, Fraction], list[tuple[int, Fraction, int, Fraction]]] = {}
    for i, s1 in enumerate(segs):
        _first, count, closed = spans[s1.branch]
        (ax, ay), d1 = s1.a, s1.d
        for j in range(i + 1, len(segs)):
            s2 = segs[j]
            if s2.branch == s1.branch and (j - i == 1 or (closed and j - i == count - 1)):
                continue  # adjacent segments
            d2 = s2.d
            den = _cross(d1, d2)
            w = _sub(s2.a, s1.a)
            if den == 0:
                if _cross(d1, w) != 0:
                    continue  # parallel, disjoint lines
                # collinear: check overlap along d1
                t0, t1 = _dot(w, d1), _dot(_sub(s2.b, s1.a), d1)
                lo, hi = min(t0, t1), max(t0, t1)
                if hi < 0 or lo > _norm2(d1):
                    continue
                if hi == 0 or lo == _norm2(d1):
                    raise DivideError("intersection at a polyline vertex")
                raise DivideError("tangency or overlapping segments")
            ns, nt = _cross(w, d2), _cross(w, d1)
            if den < 0:
                den, ns, nt = -den, -ns, -nt
            if not (0 <= ns <= den and 0 <= nt <= den):
                continue
            px, py = ax * den + ns * d1[0], ay * den + ns * d1[1]
            pn, rn = px * px + py * py, r2 * den * den
            if pn > rn:
                continue  # outside the disc; not part of the divide
            if pn == rn:
                raise DivideError("intersection on the disc boundary")
            if ns in (0, den) or nt in (0, den):
                raise DivideError("intersection at a polyline vertex")
            p = (Fraction(px, den), Fraction(py, den))
            crossings.setdefault(p, []).append((i, Fraction(ns, den), j, Fraction(nt, den)))

    for p, recs in crossings.items():
        if len(recs) > 1:
            raise DivideError(f"triple point at ({p[0]}, {p[1]})")

    # Events per segment: (parameter, crossing id, slot of the outgoing end).
    points_sorted = sorted(crossings)
    seg_events: list[list[tuple[Fraction, str, int]]] = [[] for _ in segs]
    for k, p in enumerate(points_sorted):
        ((i, s, j, t),) = crossings[p]
        out_i, out_j = _out_slots(segs[i].d, segs[j].d)
        seg_events[i].append((s, f"x{k}", out_i))
        seg_events[j].append((t, f"x{k}", out_j))
    for events in seg_events:
        events.sort()

    # Terminals (boundary clips) of each open branch, in CCW angular order.
    # Crossings on the out-of-disc side of a clip were already skipped.
    ends: list[tuple[int, bool]] = []  # (branch, whether the end terminal)
    clips: list[QuadPoint] = []
    for b_idx, (first, count, closed) in enumerate(spans):
        if not closed:
            # A one-segment branch has both ends outside the disc.  Its line
            # can cut the circle, cross(a, d)^2 < r^2 |d|^2, while the point
            # of the line nearest the centre, t = -a.d / |d|^2, is off the
            # segment; then the segment misses the disc.
            a, d = segs[first].a, segs[first].d
            if count == 1 and _cross(a, d) ** 2 < r2 * _norm2(d) and not (
                0 < -_dot(a, d) < _norm2(d)
            ):
                raise DivideError(f"open polyline {b_idx} does not meet the disc")
            ends += [(b_idx, False), (b_idx, True)]
            last = segs[first + count - 1]
            clips += [_terminal(segs[first], r2, False), _terminal(last, r2, True)]
    order = sorted(
        range(len(clips)),
        key=functools.cmp_to_key(lambda a, b: compare_circle_points(clips[a], clips[b])),
    )
    for a, b in zip(order, order[1:]):
        if compare_circle_points(clips[a], clips[b]) == 0:
            raise DivideError("coincident boundary terminals")
    terminal_id = {ends[rec]: f"t{pos}" for pos, rec in enumerate(order)}

    # Walk each branch once: an edge runs from one stop's outgoing end to the
    # next stop's incoming end.
    edges: list[EdgeDef] = []
    branch_edge_ids: list[list[str]] = []
    branch_stops: list[list[tuple[int, Fraction]]] = []  # (segment, t) per crossing
    for b_idx, (first, count, closed) in enumerate(spans):
        events = [(k, t, vid, slot) for k in range(first, first + count)
                  for t, vid, slot in seg_events[k]]
        outs = [(vid, slot) for _k, _t, vid, slot in events]
        ins = [(vid, (slot + 2) % 4) for _k, _t, vid, slot in events]
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
            edges.append(EdgeDef(id=ids[-1], ends=(out_end, in_end)))
        branch_edge_ids.append(ids)
        branch_stops.append([(k, t) for k, t, _vid, _slot in events])

    # Seed: locate the witness face by exact ray casting.
    k, t, side = _resolve_seed(segs, len(crossings), r2, seed_point)
    b_idx = segs[k].branch
    ids = branch_edge_ids[b_idx]
    before = bisect_left(branch_stops[b_idx], (k, t))
    hit_edge = ids[(before - 1) % len(ids)] if spans[b_idx][2] else ids[before]

    divide = Divide(
        name=name,
        double_points=tuple(f"x{k}" for k in range(len(points_sorted))),
        terminals=tuple(f"t{pos}" for pos in range(len(order))),
        edges=tuple(edges),
        branches=tuple(tuple(ids) for ids in branch_edge_ids),
        sign_seed=SignSeed(edge=hit_edge, side=side, sign=seed_sign),
    )
    diags = validate_divide(divide)
    if diags:
        raise DivideError(*diags)
    return divide


def _resolve_seed(
    segs: list[_Seg], n_crossings: int, r2: int, w: IntPoint
) -> tuple[int, Fraction, str]:
    """(segment, parameter, side of the witness) of the first clean ray hit."""
    if _norm2(w) >= r2:
        raise DivideError("witness point must lie strictly inside the disc")
    for seg in segs:
        u = _sub(w, seg.a)
        if _cross(seg.d, u) == 0 and 0 <= _dot(u, seg.d) <= _norm2(seg.d):
            raise DivideError("witness point on a curve")

    # Crossings plus a bound on the polyline vertices inside the disc.
    n_bad = n_crossings + len(segs)
    for v in _ray_directions(segs, r2, w, n_bad):
        hit = _first_hit(segs, r2, w, v)
        if hit is not None:
            break
    else:
        raise DivideError(
            "witness face could not be anchored: no ray from the witness meets the divide"
        )
    k, t = hit
    seg = segs[k]
    side = "left" if _cross(seg.d, _sub(w, seg.a)) > 0 else "right"
    return k, t, side


def _ray_directions(segs: list[_Seg], r2: int, w: IntPoint, n_bad: int) -> Iterator[Vec]:
    """Ray directions to try from the witness w, in order.

    The two vertical directions come first.  Then come n_bad + 1 rays aimed
    at distinct points of one segment strictly inside the disc, on a line
    that misses w.  Each of these rays meets the divide inside the disc, and
    distinct rays from w share no other point, so when at most n_bad
    crossings and vertices lie in the disc one of them has a clean first hit.
    """
    yield (Fraction(0), Fraction(1))
    yield (Fraction(0), Fraction(-1))
    for seg in segs:
        d = seg.d
        if _cross(d, _sub(w, seg.a)) == 0:
            continue
        # the point of the segment nearest the centre
        t = min(max(Fraction(-_dot(seg.a, d), _norm2(d)), Fraction(0)), Fraction(1))
        if _norm2(seg.at(t)) >= r2:
            continue  # the segment misses the open disc
        step = (1 - t) / 2 if t < 1 else -t / 2
        while _norm2(seg.at(t + step)) >= r2:
            step /= 2
        for j in range(1, n_bad + 2):
            yield _sub(seg.at(t + step / j), w)
        return


def _first_hit(
    segs: list[_Seg], r2: int, w: IntPoint, v: Vec
) -> Optional[tuple[int, Fraction]]:
    """First point where the ray w + s*v, s > 0, meets the divide inside the disc.

    The direction v has Fraction coordinates.  Returns (segment index,
    parameter t) when that point lies strictly inside one segment.  Returns
    None when the ray leaves the disc without meeting the divide, or when its
    first contact is a crossing or a polyline vertex.
    """
    contacts: list[tuple[Fraction, int, Optional[Fraction]]] = []
    for k, seg in enumerate(segs):
        d = seg.d
        u = _sub(seg.a, w)
        denom = _cross(v, d)
        t: Optional[Fraction]
        if denom == 0:
            if _cross(u, v) != 0:
                continue
            # The ray runs along the segment, so its first contact with it
            # is a polyline vertex.
            s = min(_dot(u, v), _dot(_sub(seg.b, w), v)) / _norm2(v)
            t = None
        else:
            s = _cross(u, d) / denom
            t = _cross(u, v) / denom
            if not 0 <= t <= 1:
                continue
        if s <= 0 or _norm2((w[0] + s * v[0], w[1] + s * v[1])) >= r2:
            continue
        contacts.append((s, k, t))
    if not contacts:
        return None
    s0 = min(c[0] for c in contacts)
    first = [c for c in contacts if c[0] == s0]
    _s, k, t = first[0]
    if len(first) > 1 or t is None or t in (0, 1):
        return None
    return k, t
