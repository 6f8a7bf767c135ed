"""Seeded input generators: A_n zigzag map files and generic chord polylines.

Nothing here imports ``divides``.  The A_n maps are built from the zigzag
picture directly, and the chord arrangements are checked with this module's
own exact rational arithmetic, so the counts d and r of every input are known
apart from the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------------------
# A_n zigzag maps (x^(n+1) + y^2)


def _a_even(k: int) -> dict:
    """One branch: a straight run, a U-turn at c1, a wave back across it."""
    edges: list[tuple[str, tuple, tuple]] = [("l0", ("tL", 0), (f"c{k}", 2))]
    for i in range(k, 1, -1):
        edges.append((f"l{k - i + 1}", (f"c{i}", 0), (f"c{i - 1}", 2)))
    edges.append(("u", ("c1", 0), ("c1", 1)))
    for i in range(1, k):
        s = 3 if i % 2 == 1 else 1
        edges.append((f"w{i}", (f"c{i}", s), (f"c{i + 1}", s)))
    edges.append(("x", (f"c{k}", 3 if k % 2 == 1 else 1), ("tA", 0)))
    return {
        "double_points": [f"c{i}" for i in range(1, k + 1)],
        "terminals": ["tL", "tA"] if k % 2 == 1 else ["tA", "tL"],
        "edges": edges,
        "branches": [[e[0] for e in edges]],
        "sign_seed": ("u", "left", "-"),
    }


def _a_odd(k: int) -> dict:
    """Two branches: a straight line crossed k + 1 times by a wave."""
    m = k + 1
    line = [("l0", ("tL", 0), ("c1", 2))]
    line += [(f"l{i}", (f"c{i}", 0), (f"c{i + 1}", 2)) for i in range(1, m)]
    line.append((f"l{m}", (f"c{m}", 0), ("tR", 0)))
    wave = [("a", ("tA", 0), ("c1", 1))]
    for i in range(1, m):
        s = 3 if i % 2 == 1 else 1
        wave.append((f"w{i}", (f"c{i}", s), (f"c{i + 1}", s)))
    wave.append(("b", (f"c{m}", 3 if m % 2 == 1 else 1), ("tB", 0)))
    return {
        "double_points": [f"c{i}" for i in range(1, m + 1)],
        "terminals": ["tR", "tA", "tL", "tB"] if m % 2 == 1 else ["tR", "tB", "tA", "tL"],
        "edges": line + wave,
        "branches": [[e[0] for e in line], [e[0] for e in wave]],
        "sign_seed": ("l1", "left", "-") if k == 0 else ("w1", "left", "-"),
    }


def a_n_text(n: int, rng: random.Random) -> str:
    """Map-mode file of the A_n zigzag divide, in canonical file layout.

    The seed renames every vertex and edge and shuffles the edge list.  The
    order of double points and terminals, which fixes the AG basis order, is
    kept, so every seed asks for the same work.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = _a_even(n // 2) if n % 2 == 0 else _a_odd((n - 1) // 2)
    tag = f"{rng.randrange(16 ** 4):04x}"
    vid = {v: f"{v}{tag}" for v in m["double_points"] + m["terminals"]}
    eid = {e[0]: f"{e[0]}_{tag}" for e in m["edges"]}
    edges = list(m["edges"])
    rng.shuffle(edges)
    edge_seed, side, sign = m["sign_seed"]
    obj = {
        "name": f"a{n}-{tag}",
        "mode": "map",
        "double_points": [vid[v] for v in m["double_points"]],
        "terminals": [vid[v] for v in m["terminals"]],
        "edges": [
            {"id": eid[i], "ends": [[vid[a[0]], a[1]], [vid[b[0]], b[1]]]}
            for i, a, b in edges
        ],
        "branches": [[eid[e] for e in b] for b in m["branches"]],
        "sign_seed": {"edge": eid[edge_seed], "side": side, "sign": sign},
    }
    return json.dumps(obj, indent=2) + "\n"


def a_n_counts(n: int) -> tuple[int, int]:
    """(d, r) of the A_n zigzag: ceil(n/2) crossings on 1 or 2 branches."""
    return (n + 1) // 2, 1 if n % 2 == 0 else 2


# ---------------------------------------------------------------------------
# Generic chords (the ordinary k-fold point x^k + y^k)

Pt = tuple[int, int]


@dataclass(frozen=True)
class Chords:
    radius: int
    chords: tuple[tuple[Pt, Pt], ...]
    witness: Pt
    sign: int


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def check_chords(radius: int, chords) -> list[str]:
    """Problems with an arrangement, by exact rational arithmetic.

    Every chord must start and end strictly outside the disc, every pair must
    cross at a point strictly inside the disc and strictly inside both
    segments, and no two pairs may share their crossing (no triple points).
    """
    r2 = radius * radius
    problems = []
    for i, (p, q) in enumerate(chords):
        for x, y in (p, q):
            if x * x + y * y <= r2:
                problems.append(f"chord {i} has an end point in the closed disc")
    seen: dict[tuple[Fraction, Fraction], tuple[int, int]] = {}
    for i in range(len(chords)):
        (px, py), (qx, qy) = chords[i]
        ux, uy = qx - px, qy - py
        for j in range(i + 1, len(chords)):
            (rx, ry), (sx, sy) = chords[j]
            vx, vy = sx - rx, sy - ry
            den = _cross(ux, uy, vx, vy)
            if den == 0:
                problems.append(f"chords {i} and {j} are parallel")
                continue
            wx, wy = rx - px, ry - py
            s = Fraction(_cross(wx, wy, vx, vy), den)
            t = Fraction(_cross(wx, wy, ux, uy), den)
            if not (0 < s < 1 and 0 < t < 1):
                problems.append(f"chords {i} and {j} do not cross")
                continue
            x, y = px + s * ux, py + s * uy
            if x * x + y * y >= r2:
                problems.append(f"chords {i} and {j} cross outside the open disc")
            if (x, y) in seen:
                problems.append(f"chords {seen[(x, y)]} and {(i, j)} meet at one point")
            seen[(x, y)] = (i, j)
    return problems


def base_chords(k: int, key: str) -> tuple[int, list[tuple[Pt, Pt]]]:
    """A generic arrangement of k chords, drawn from a fixed key.

    Directions are spread over half a turn with jitter, and each chord is
    shifted by a small offset from the centre.  A draw is kept only when
    ``check_chords`` finds nothing wrong.  Each chord runs upward (rightward
    if horizontal); ``chords`` carries that orientation through the seeded
    rotation to fix the colouring.
    """
    if k < 2:
        raise ValueError("need at least two chords")
    rng = random.Random(key)
    reach = 1000 * k
    radius = reach * 3 // 4
    offset = max(2, k // 4)
    while True:
        out = []
        for i in range(k):
            theta = math.pi * (i + rng.uniform(0.25, 0.75)) / k
            dx, dy = round(reach * math.cos(theta)), round(reach * math.sin(theta))
            cx, cy = rng.randint(-offset, offset), rng.randint(-offset, offset)
            ends = sorted([(cx - dx, cy - dy), (cx + dx, cy + dy)], key=lambda e: (e[1], e[0]))
            out.append(tuple(ends))
        if not check_chords(radius, out):
            return radius, out


# Integer points on the circle of radius 65: rotations that all scale by 65.
_ROTATIONS = [
    (x, y) for x in range(-65, 66) for y in range(-65, 66) if x * x + y * y == 65 * 65
]


def chords(k: int, key: str, rng: random.Random) -> Chords:
    """The arrangement ``base_chords(k, key)`` in a seeded presentation.

    The seed picks a rotation by an integer point of the circle of radius 65
    (all coordinates and the radius scale by 65), the order of the chords in
    the file, the order of each chord's end points and the witness point.
    The witness sign is the product of its sides of the base-oriented
    chords, so every seed gives the same colouring and hence the same AG
    diagram up to the order of same-type vertices: the report costs the same
    whatever the seed.  The rotated arrangement is checked again.
    """
    radius, base = base_chords(k, key)
    x, y = rng.choice(_ROTATIONS)
    radius *= 65
    oriented = [
        tuple((x * px - y * py, y * px + x * py) for px, py in chord) for chord in base
    ]
    problems = check_chords(radius, oriented)
    if problems:
        raise ValueError(f"rotated arrangement is not generic: {problems[0]}")
    while True:
        w = (rng.randint(-radius // 2, radius // 2), rng.randint(-radius // 2, radius // 2))
        sides = [_cross(q[0] - p[0], q[1] - p[1], w[0] - p[0], w[1] - p[1]) for p, q in oriented]
        if all(sides):  # off every chord
            break
    sign = math.prod(1 if c > 0 else -1 for c in sides)
    shown = [c if rng.random() < 0.5 else (c[1], c[0]) for c in oriented]
    rng.shuffle(shown)
    return Chords(radius=radius, chords=tuple(shown), witness=w, sign=sign)


def chords_text(ch: Chords, name: str) -> str:
    obj = {
        "name": name,
        "mode": "polyline",
        "branches": [{"points": [list(p), list(q)], "closed": False} for p, q in ch.chords],
        "disc_radius": ch.radius,
        "sign_seed": {"point": list(ch.witness), "sign": "+" if ch.sign > 0 else "-"},
    }
    return json.dumps(obj, indent=2) + "\n"
