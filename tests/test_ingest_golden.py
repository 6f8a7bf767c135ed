"""Ingested divides pinned by digest on a fixed, seeded list of polylines.

Each input is ingested with ``ingest_polyline``.  An accepted input is
digested through ``divide_to_text``, a rejected one through its joined
diagnostics; the sha256 of that text is compared with the one recorded in
``golden/ingest.sha256``.  The inputs are about 2000 random open and closed
polylines (1 to 4 branches in a disc of radius 4 to 12), the arrangements of
``generic_chords`` for k = 3 to 12 and ``A4_SNAKE_POLYLINE``.  To
rewrite the digests after an intended change of ingestion:

    PYTHONPATH=src python tests/test_ingest_golden.py
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from divides import DivideError, divide_to_text, ingest_polyline

from conftest import A4_SNAKE_POLYLINE, chord_polylines

GOLDEN = Path(__file__).resolve().parent / "golden" / "ingest.sha256"
N_RANDOM = 2000
CHORD_KS = range(3, 13)


def _random_polyline(rng: random.Random) -> dict:
    """Open branches run from outside the disc through 0-3 inner points back
    out; closed ones have 3-5 inner points.  One input in ten has a point
    moved anywhere in the box, and the witness is any point of the disc's
    bounding square, so many inputs are rejected."""
    radius = rng.randint(4, 12)
    box = radius + 4

    def point(inside: bool) -> tuple[int, int]:
        while True:
            p = (rng.randint(-box, box), rng.randint(-box, box))
            if (p[0] ** 2 + p[1] ** 2 < radius ** 2) == inside:
                return p

    branches = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.25:
            branches.append(([point(True) for _ in range(rng.randint(3, 5))], True))
        else:
            inner = [point(True) for _ in range(rng.randint(0, 3))]
            branches.append(([point(False), *inner, point(False)], False))
    if rng.random() < 0.1:
        points = rng.choice(branches)[0]
        points[rng.randrange(len(points))] = (rng.randint(-box, box), rng.randint(-box, box))
    witness = (rng.randint(-radius, radius), rng.randint(-radius, radius))
    return {
        "branches": branches,
        "disc_radius": radius,
        "seed_point": witness,
        "seed_sign": rng.choice((1, -1)),
    }


def cases() -> dict[str, dict]:
    """case id -> keyword arguments of ingest_polyline."""
    rng = random.Random("ingest-golden")
    out = {f"random{n}": _random_polyline(rng) for n in range(N_RANDOM)}
    for k in CHORD_KS:
        out[f"chords{k}"] = chord_polylines(k, 0)
    out["a4-snake"] = A4_SNAKE_POLYLINE
    return out


def digest(kwargs: dict) -> str:
    try:
        text = divide_to_text(ingest_polyline(**kwargs))
    except DivideError as exc:
        text = "\n".join(exc.diagnostics)
    return hashlib.sha256(text.encode()).hexdigest()


def _golden() -> dict[str, str]:
    lines = GOLDEN.read_text().splitlines()
    return {case: sha for sha, case in (line.split() for line in lines)}


CASES = cases()


def test_golden_lists_every_case():
    assert list(_golden()) == list(CASES)


def test_random_polylines_match_golden():
    golden = _golden()
    changed = [c for c, kw in CASES.items() if c.startswith("random") and digest(kw) != golden[c]]
    assert changed == []


@pytest.mark.parametrize("case", [f"chords{k}" for k in CHORD_KS] + ["a4-snake"])
def test_arrangement_matches_golden(case):
    assert digest(CASES[case]) == _golden()[case]


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{digest(kw)}  {case}\n" for case, kw in CASES.items()))
