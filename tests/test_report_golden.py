"""Report bytes pinned by digest on a ladder of divides.

Each divide runs through ``run_pipeline``; its report, written by
``report_json`` with the digest of the divide's ``divide_to_text`` bytes as
input digest, is hashed and compared with the sha256 recorded in
``golden/report.sha256``.  The divides are ``gen_a(n)`` for n = 1 to 40,
``gen_e6()``, ``gen_depth1()`` and ``generic_chords(k, seed)`` for k = 3 to 8
and seeds 0 and 1.  To rewrite the digests after an intended change of the
report:

    PYTHONPATH=src python tests/test_report_golden.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from divides import __version__, divide_to_text, gen_a, gen_depth1, gen_e6
from divides.core import Divide
from divides.report import build_report, input_digest, report_json, run_pipeline

from conftest import generic_chords

GOLDEN = Path(__file__).resolve().parent / "golden" / "report.sha256"
A_NS = range(1, 41)
CHORD_KS = range(3, 9)
CHORD_SEEDS = (0, 1)


def cases() -> dict[str, Divide]:
    """case id -> divide."""
    out = {f"a{n}": gen_a(n).divide for n in A_NS}
    out["e6"] = gen_e6().divide
    out["depth1"] = gen_depth1().divide
    for k in CHORD_KS:
        for seed in CHORD_SEEDS:
            out[f"chords{k}-s{seed}"] = generic_chords(k, seed)
    return out


def digest(divide: Divide) -> str:
    data = divide_to_text(divide).encode()
    report = build_report(run_pipeline(divide), __version__, input_digest(data))
    return hashlib.sha256(report_json(report).encode()).hexdigest()


def _golden() -> dict[str, str]:
    lines = GOLDEN.read_text().splitlines()
    return {case: sha for sha, case in (line.split() for line in lines)}


CASES = cases()


def test_golden_lists_every_case():
    assert list(_golden()) == list(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_report_matches_golden(case):
    assert digest(CASES[case]) == _golden()[case]


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{digest(d)}  {case}\n" for case, d in CASES.items()))
