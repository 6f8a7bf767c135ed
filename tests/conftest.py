from __future__ import annotations

import functools
import itertools
import math
import random
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from divides import (
    DivideError,
    EdgeDef,
    MilnorLattice,
    builtin_entries,
    gen_a,
    gen_depth1,
    gen_e6,
    ingest_polyline,
    intmat,
    seifert_matrix,
)
from divides.lattice import PL_SIGN
from divides.report import run_pipeline

# No example database, so test runs write no .hypothesis/ directory into the
# working tree.  Tests keep their own max_examples and deadline settings.
settings.register_profile("divides", database=None)
settings.load_profile("divides")
# Hypothesis also caches the constants of the source under its home directory
# (from collection on); keep that in a temporary directory removed at exit.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


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


def lattice_of(i_mat) -> MilnorLattice:
    """The Milnor lattice of an antisymmetric I."""
    return MilnorLattice(i_mat, seifert_matrix(i_mat))


def transvection(i_mat, k):
    """Matrix of x -> x + PL_SIGN * (x . V_k) * V_k in the cycle basis.

    k is a 0-based basis index.  Unipotent with determinant 1.
    """
    mu = len(i_mat)
    rows = [[int(i == j) for j in range(mu)] for i in range(mu)]
    for j in range(mu):
        rows[k][j] += PL_SIGN * i_mat[j][k]
    return intmat.freeze(rows)


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
