"""Golden report bytes: every built-in entry, a reordered depth1 and a
five-chord polyline arrangement, compared byte for byte.

The report of a divide file is what ``divides report FILE --json OUT``
writes.  To rewrite the golden files after an intended change of the report:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from divides import __version__, builtin_entries, divide_to_text, parse_divide
from divides.report import build_report, input_digest, report_json, run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden"

# depth1 with every type block permuted (census 2, 6, 2).
DEPTH1_REORDER = {"-": (2, 1), "0": (2, 3, 1, 6, 4, 5), "+": (2, 1)}

# Five generic chords in a disc of radius 60: depth 1, two depth-1 cones.
CHORDS5 = {
    "name": "chords5",
    "mode": "polyline",
    "branches": [
        {"points": [[-79, -32], [89, 30]], "closed": False},
        {"points": [[-41, -73], [51, 81]], "closed": False},
        {"points": [[6, -88], [-18, 90]], "closed": False},
        {"points": [[56, -64], [-62, 72]], "closed": False},
        {"points": [[77, -45], [-85, 35]], "closed": False},
    ],
    "disc_radius": 60,
    "sign_seed": {"point": [-7, 0], "sign": "-"},
}


def cases() -> dict[str, tuple[str, dict | None]]:
    """golden name -> (divide file text, reorder or None)."""
    out: dict[str, tuple[str, dict | None]] = {}
    for e in builtin_entries():
        out[e.name] = (divide_to_text(e.divide), None)
    out["depth1-reorder"] = (out["depth1"][0], DEPTH1_REORDER)
    out["chords5"] = (json.dumps(CHORDS5, indent=2) + "\n", None)
    return out


def report_text(text: str, reorder: dict | None) -> str:
    divide, diags = parse_divide(text)
    assert divide is not None, diags
    result = run_pipeline(divide, reorder=reorder)
    return report_json(build_report(result, __version__, input_digest(text.encode())))


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name):
    text, reorder = CASES[name]
    want = (GOLDEN / f"{name}.report.json").read_bytes()
    assert report_text(text, reorder).encode() == want


# Every key path of a schema v3 report, "[]" standing for the items of a list;
# the depth-1 cone keys appear only where there is a cone.
V3_KEYS = {
    "tool", "tool.name", "tool.version", "input", "input.name", "input.digest",
    "invariants", "invariants.d", "invariants.r", "invariants.mu", "invariants.n_regions",
    "invariants.genus", "invariants.boundary_components", "invariants.euler_characteristic",
    "ag", "ag.vertices", "ag.vertices[].label", "ag.vertices[].type", "ag.vertices[].depth",
    "ag.vertices[].exposed", "ag.edges", "ag.census", "ag.diagram_depth",
    "matrices", "matrices.I", "matrices.S", "matrices.M_desc",
    "identity_suite", "identity_suite.passed", "identity_suite.checks",
    "identity_suite.checks[].key", "identity_suite.checks[].description",
    "identity_suite.checks[].verdict", "identity_suite.checks[].detail",
    "char_poly", "char_poly.coefficients", "char_poly.order", "char_poly.max_power",
    "adapted", "adapted.verdicts", "adapted.passed", "adapted.first_failure",
    "euler", "euler.arrows", "euler.sigma", "euler.grading_note",
    "certificate", "certificate.verdict", "certificate.violations",
    "depth1_cones", "calibration", "calibration.dim_n", "calibration.pl_sign",
}
CONE_KEYS = {
    "depth1_cones[].vertex", "depth1_cones[].partner", "depth1_cones[].a_prime",
    "depth1_cones[].verdict",
}
# Schema v2 keys that restated S, a cone's a_prime or a verdict.
V2_ONLY_KEYS = {
    "adapted.vectors", "euler.matrix", "calibration.euler_sign", "warnings",
    "depth1_cones[].components", "depth1_cones[].variation_a_prime",
    "depth1_cones[].total_variation",
}


def _key_paths(value, prefix: str = "") -> set[str]:
    if isinstance(value, dict):
        out = set()
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else key
            out |= {path} | _key_paths(item, path)
        return out
    if isinstance(value, list):
        return set().union(*(_key_paths(item, prefix + "[]") for item in value))
    return set()


@pytest.mark.parametrize("name, keys", [("depth1", V3_KEYS | CONE_KEYS), ("a4", V3_KEYS)])
def test_report_has_exactly_the_schema_v3_keys(name, keys):
    report = json.loads(report_text(*CASES[name]))
    assert _key_paths(report) == keys
    assert not _key_paths(report) & V2_ONLY_KEYS


def test_every_golden_file_has_a_case():
    names = {p.name.removesuffix(".report.json") for p in GOLDEN.glob("*.report.json")}
    assert names == set(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (text, reorder) in CASES.items():
        (GOLDEN / f"{name}.report.json").write_text(report_text(text, reorder))
