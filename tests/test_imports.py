"""The import graph: what ``import divides``, a depth screening and a
map-file report load.

Each check runs a fresh interpreter without ``site``, so that only the
package's own imports are seen.  The interpreters write only into the
test's temporary directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import divides
from divides import divide_to_text, gen_a

from conftest import TWO_CHORDS

SRC = Path(divides.__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# Modules that neither ``import divides`` nor a map-file report may load.
HEAVY = ("dataclasses", "inspect", "fractions", "divides.geometry", "divides.corpus")

# The screening core: the package modules ``import divides`` loads.
CORE = ["divides.agdiagram", "divides.core", "divides.fileio"]

# The report stack, which a run that builds no lattice never loads.
REPORT_STACK = ("divides.lattice", "divides.intmat", "divides.adapted", "divides.report",
                "hashlib")

# Public names that load their module on first use.
LAZY = {
    "Depth1Cone": "adapted",
    "EulerQuiver": "adapted",
    "depth1_cone": "adapted",
    "euler_quiver": "adapted",
    "exceptional_certificate": "adapted",
    "pl_variation": "adapted",
    "quiver_dot": "adapted",
    "verify_adapted": "adapted",
    "MilnorLattice": "lattice",
    "identity_suite": "lattice",
    "milnor_lattice": "lattice",
    "monodromy": "lattice",
    "build_report": "report",
    "check_entry": "report",
    "run_pipeline": "report",
    "ingest_polyline": "geometry",
    "CorpusEntry": "corpus",
    "builtin_entries": "corpus",
    "gen_a": "corpus",
    "gen_e6": "corpus",
    "gen_depth1": "corpus",
}


def _fresh(tmp_path: Path, code: str, *args: str) -> dict:
    """Run ``code`` with ``args`` in a fresh interpreter in ``tmp_path``; the
    last line it prints is read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", textwrap.dedent(code), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_heavy_module(tmp_path):
    got = _fresh(tmp_path, """
        import json, sys
        import divides
        print(json.dumps([m for m in sys.argv[1:] if m in sys.modules]))
    """, *HEAVY)
    assert got == []


def test_import_loads_the_screening_core_alone(tmp_path):
    got = _fresh(tmp_path, """
        import json, sys
        import divides
        print(json.dumps({"package": sorted(m for m in sys.modules if m.startswith("divides.")),
                          "hashlib": "hashlib" in sys.modules}))
    """)
    assert got == {"package": CORE, "hashlib": False}


def test_depth_screening_loads_no_report_module(tmp_path):
    (tmp_path / "a12.json").write_text(divide_to_text(gen_a(12).divide))
    (tmp_path / "poly.json").write_text(json.dumps(TWO_CHORDS))
    got = _fresh(tmp_path, """
        import json, sys
        import divides
        depths = []
        for path in ("a12.json", "poly.json"):
            divide, diags = divides.parse_divide(open(path).read())
            signed = divides.assign_signs(divide, divides.trace_faces(divide))
            ag = divides.build_ag(signed)
            depths.append(divides.depth_labels(ag, divides.exposure_set(signed, ag)).diagram_depth)
        print(json.dumps({"depths": depths,
                          "loaded": [m for m in sys.argv[1:] if m in sys.modules]}))
    """, *REPORT_STACK)
    assert got == {"depths": [0, 0], "loaded": []}


def test_map_file_report_loads_no_heavy_module(tmp_path):
    (tmp_path / "a12.json").write_text(divide_to_text(gen_a(12).divide))
    got = _fresh(tmp_path, """
        import json, sys
        from divides import cli
        code = cli.main(["report", "a12.json", "--json", "a12.report.json"])
        print(json.dumps({"code": code, "loaded": [m for m in sys.argv[1:] if m in sys.modules]}))
    """, *HEAVY)
    assert got == {"code": 0, "loaded": []}
    assert (tmp_path / "a12.report.json").read_bytes() == (GOLDEN / "a12.report.json").read_bytes()


def test_polyline_parse_loads_geometry_and_lazy_names_resolve(tmp_path):
    (tmp_path / "poly.json").write_text(json.dumps(TWO_CHORDS))
    got = _fresh(tmp_path, """
        import json, sys
        import divides
        before = "divides.geometry" in sys.modules
        divide, diags = divides.parse_divide(open("poly.json").read())
        after = "divides.geometry" in sys.modules
        fractions = "fractions" in sys.modules
        same = {name: getattr(divides, name) is getattr(sys.modules["divides." + mod], name)
                for name, mod in json.loads(sys.argv[1]).items()}
        print(json.dumps({"before": before, "after": after, "fractions": fractions,
                          "diags": diags, "name": divide.name, "same": same}))
    """, json.dumps(LAZY))
    assert got == {
        "before": False,
        "after": True,
        "fractions": False,
        "diags": [],
        "name": "two-chords",
        "same": dict.fromkeys(LAZY, True),
    }


def test_star_import_binds_all(tmp_path):
    got = _fresh(tmp_path, """
        import json
        import divides
        ns = {}
        exec("from divides import *", ns)
        print(json.dumps({"all": divides.__all__,
                          "bound": [n for n in divides.__all__
                                    if n in ns and ns[n] is getattr(divides, n)]}))
    """)
    assert got["bound"] == got["all"]
    assert set(LAZY) <= set(got["all"])


def test_dir_lists_every_public_name_and_loads_nothing(tmp_path):
    got = _fresh(tmp_path, """
        import json, sys
        import divides
        before = sorted(sys.modules)
        names = dir(divides)
        print(json.dumps({"missing": sorted(set(divides.__all__) - set(names)),
                          "loaded": sorted(set(sys.modules) - set(before))}))
    """)
    assert got == {"missing": [], "loaded": []}
