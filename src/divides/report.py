"""Full pipeline over a divide and the consolidated machine-readable report.

The report is a deterministic JSON document: same divide and tool version,
same bytes.  All numbers are exact integers.  Its text is exactly what
``json.dumps(report, indent=2) + "\n"`` gives: ASCII only, with non-ASCII
text escaped; floats are refused, never written.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from . import adapted as adapted_mod
from . import agdiagram as ag_mod
from . import intmat
from . import lattice as lattice_mod
from .core import (
    Divide,
    DivideError,
    DivideInvariants,
    SignedDivide,
    assign_signs,
    invariants,
    trace_faces,
)
from .fileio import json_text
from .intmat import CharPoly, Mat

if TYPE_CHECKING:
    from .corpus import CorpusEntry

TOOL_NAME = "divides"

# The report's char_poly.max_power field bounds nothing: "order" is exact, and
# null only when the order is infinite.  It stays because the benchmark's
# oracle reads it; it goes when that oracle stops reading it.
REPORT_MAX_POWER = 64


class PipelineResult(NamedTuple):
    divide: Divide
    signed: SignedDivide
    inv: DivideInvariants
    ag: ag_mod.AGDiagram
    exposed: frozenset[int]
    depths: ag_mod.DepthLabels
    lattice: lattice_mod.MilnorLattice
    m_desc: Mat
    suite: lattice_mod.IdentitySuite
    char_poly: CharPoly
    order: int | None  # least k >= 1 with M^k = Id; None when the order is infinite
    adapted_verdict: adapted_mod.AdaptedVerdict
    quiver: adapted_mod.EulerQuiver
    certificate: adapted_mod.CertificateVerdict
    cones: tuple[adapted_mod.Depth1Cone, ...]

    @property
    def verdicts(self) -> dict[str, bool]:
        """The run's four checks, name -> passed, in summary order."""
        return {
            "identity": self.suite.passed,
            "adapted": self.adapted_verdict.passed,
            "certificate": self.certificate.passed,
            "cones": all(c.passed for c in self.cones),
        }

    @property
    def all_passed(self) -> bool:
        return all(self.verdicts.values())


def run_pipeline(
    divide: Divide, reorder: Optional[dict[str, tuple[int, ...]]] = None
) -> PipelineResult:
    """Run every analysis stage; raises DivideError on structural problems.

    ``reorder`` maps a vertex type to a 1-based permutation of its vertices,
    which ``build_ag`` applies before anything reads the order.
    """
    faces = trace_faces(divide)
    signed = assign_signs(divide, faces)
    inv = invariants(signed)

    ag = ag_mod.build_ag(signed, reorder)
    exposed = ag_mod.exposure_set(signed, ag)
    depths = ag_mod.depth_labels(ag, exposed)

    lat = lattice_mod.milnor_lattice(ag)
    m_desc = lattice_mod.monodromy(lat)
    suite = lattice_mod.identity_suite(lat, m_desc, inv.r)
    char_poly = intmat.charpoly(m_desc)
    order = intmat.matrix_order(m_desc, char_poly)

    verdict = adapted_mod.verify_adapted(lat)
    quiver = adapted_mod.euler_quiver(lat)
    cert = adapted_mod.exceptional_certificate(lat, ag)

    cones = []
    for pos in range(ag.mu):
        if depths.depth[pos] == 1:
            cones.append(adapted_mod.depth1_cone(ag, depths, lat, pos))
    return PipelineResult(
        divide=divide,
        signed=signed,
        inv=inv,
        ag=ag,
        exposed=exposed,
        depths=depths,
        lattice=lat,
        m_desc=m_desc,
        suite=suite,
        char_poly=char_poly,
        order=order,
        adapted_verdict=verdict,
        quiver=quiver,
        certificate=cert,
        cones=tuple(cones),
    )


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_report(result: PipelineResult, version: str, digest: str) -> dict:
    ag, depths = result.ag, result.depths
    labels = [v.label for v in ag.vertices]
    report = {
        "tool": {"name": TOOL_NAME, "version": version},
        "input": {"name": result.divide.name, "digest": digest},
        "invariants": result.inv._asdict(),
        "ag": {
            "vertices": [
                {
                    "label": v.label,
                    "type": v.vtype,
                    "depth": depths.depth[i],
                    "exposed": i in result.exposed,
                }
                for i, v in enumerate(ag.vertices)
            ],
            "edges": [
                [labels[e.u], labels[e.v], e.multiplicity] for e in ag.edges
            ],
            "census": ag.census(),
            "diagram_depth": depths.diagram_depth,
        },
        "matrices": {
            "I": result.lattice.i_mat,
            "S": result.lattice.s_mat,
            "M_desc": result.m_desc,
        },
        "identity_suite": {
            "passed": result.suite.passed,
            "checks": [
                {
                    "key": c.key,
                    "description": c.description,
                    "verdict": "pass" if c.passed else "fail",
                    "detail": c.detail,
                }
                for c in result.suite.checks
            ],
        },
        "char_poly": {
            "coefficients": result.char_poly,
            "order": result.order,
            "max_power": REPORT_MAX_POWER,
        },
        "adapted": {
            "verdicts": [
                "pass" if ok else "fail" for ok in result.adapted_verdict.passes
            ],
            "passed": result.adapted_verdict.passed,
            "first_failure": (
                None
                if result.adapted_verdict.first_failure is None
                else {
                    "index": result.adapted_verdict.first_failure[0],
                    "computed": result.adapted_verdict.first_failure[1],
                }
            ),
        },
        "euler": {
            "arrows": [
                [labels[i], labels[j], w] for (i, j, w) in result.quiver.arrows
            ],
            "sigma": result.quiver.sigma,
            "grading_note": result.quiver.grading_note,
        },
        "certificate": {
            "verdict": "pass" if result.certificate.passed else "fail",
            "violations": result.certificate.violations,
        },
        "depth1_cones": [
            {
                "vertex": labels[c.vertex],
                "partner": labels[c.partner],
                "a_prime": c.a_prime,
                "verdict": "pass" if c.passed else "fail",
            }
            for c in result.cones
        ],
        "calibration": {
            "dim_n": lattice_mod.DIM_N,
            "pl_sign": lattice_mod.PL_SIGN,
        },
    }
    if depths.diagram_depth >= 2:
        report["depth_note"] = (
            "diagram depth exceeds 1: cone towers for deeper vertices are "
            "not constructed"
        )
    return report


def report_json(report: dict) -> str:
    """The report's text: the bytes of ``json.dumps(report, indent=2) + "\\n"``,
    ASCII only; a float or a non-str key raises TypeError.

    ``fileio.json_text`` writes it along the report's shapes: the matrices
    I, S and M_desc one join per row from its table of int texts, the AG
    edge and Euler arrow triples one join per row, and scalar fields
    without a call of their own."""
    return json_text(report) + "\n"


def _ag_edges(result: PipelineResult) -> list[tuple[str, str, int]]:
    labels = [v.label for v in result.ag.vertices]
    return sorted((labels[e.u], labels[e.v], e.multiplicity) for e in result.ag.edges)


# Expected fact -> its value in a pipeline result.
_FACTS: dict[str, Callable[[PipelineResult], object]] = {
    "d": lambda res: res.inv.d,
    "r": lambda res: res.inv.r,
    "mu": lambda res: res.inv.mu,
    "n_regions": lambda res: res.inv.n_regions,
    "genus": lambda res: res.inv.genus,
    "boundary_components": lambda res: res.inv.boundary_components,
    "census": lambda res: res.ag.census(),
    "ag_edges": _ag_edges,
    "depths": lambda res: {
        v.label: res.depths.depth[i] for i, v in enumerate(res.ag.vertices)
    },
    "region_signs": lambda res: tuple(
        res.signed.sign[f] for f in res.signed.faces.region_indices
    ),
    "euler_arrow_count": lambda res: len(res.quiver.arrows),
    "diagram_depth": lambda res: res.depths.diagram_depth,
}

# Facts listed in any order, as lists or tuples; compared as sorted tuples.
_UNORDERED = {"ag_edges"}

# Verdict name -> the problem a failed verdict reports.
_FAILURES = {
    "identity": "identity suite failed",
    "adapted": "adapted-family variation check failed",
    "certificate": "exceptional certificate failed",
    "cones": "depth-1 cone check failed",
}


def check_entry(entry: CorpusEntry) -> list[str]:
    """Certify a corpus entry: pipeline verdicts plus expected-fact matches."""
    try:
        result = run_pipeline(entry.divide)
    except DivideError as exc:
        return [f"pipeline failed: {exc}"]
    problems = [_FAILURES[name] for name, passed in result.verdicts.items() if not passed]
    for key, want in entry.expected.items():
        if key not in _FACTS:
            problems.append(f"unknown expected fact '{key}'")
            continue
        have = _FACTS[key](result)
        if have != (sorted(map(tuple, want)) if key in _UNORDERED else want):
            shown = sorted(want) if key in _UNORDERED else want
            problems.append(f"{key}: expected {shown}, got {have}")
    return problems
