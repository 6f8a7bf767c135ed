"""Full pipeline over a divide and the consolidated machine-readable report.

The report is a deterministic JSON document: same divide and tool version,
same bytes.  All numbers are exact integers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Optional

from . import adapted as adapted_mod
from . import agdiagram as ag_mod
from . import lattice as lattice_mod
from .core import (
    Divide,
    DivideError,
    DivideInvariants,
    SignedDivide,
    assign_signs,
    invariants,
    region_shape_warnings,
    trace_faces,
)
from .corpus import CorpusEntry
from .intmat import Mat

TOOL_NAME = "divides"

# The report's char_poly.max_power field bounds nothing: "order" is exact, and
# null only when the order is infinite.  It stays because the benchmark's
# oracle reads it; it goes when that oracle stops reading it.
REPORT_MAX_POWER = 64


@dataclass
class PipelineResult:
    divide: Divide
    signed: SignedDivide
    inv: DivideInvariants
    ag: ag_mod.AGDiagram
    exposed: frozenset[int]
    depths: ag_mod.DepthLabels
    lattice: lattice_mod.MilnorLattice
    m_desc: Mat
    suite: lattice_mod.IdentitySuite
    cpo: lattice_mod.CharPolyOrder
    family: adapted_mod.AdaptedFamily
    adapted_verdict: adapted_mod.AdaptedVerdict
    quiver: adapted_mod.EulerQuiver
    certificate: adapted_mod.CertificateVerdict
    cones: tuple[adapted_mod.Depth1Cone, ...]
    warnings: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return (
            self.suite.passed
            and self.adapted_verdict.passed
            and self.certificate.passed
            and all(c.passed for c in self.cones)
        )


def run_pipeline(
    divide: Divide, reorder: Optional[dict[str, tuple[int, ...]]] = None
) -> PipelineResult:
    """Run every analysis stage; raises DivideError on structural problems."""
    faces = trace_faces(divide)
    signed = assign_signs(divide, faces)
    inv = invariants(signed)
    warnings = tuple(region_shape_warnings(divide, faces))

    ag = ag_mod.build_ag(signed)
    if reorder:
        ag = ag_mod.reorder_within_types(ag, reorder)
    if ag.mu != inv.mu:
        raise DivideError(f"AG vertex count {ag.mu} does not equal mu {inv.mu}")
    exposed = ag_mod.exposure_set(signed, ag)
    depths = ag_mod.depth_labels(ag, exposed)

    lat = lattice_mod.milnor_lattice(ag)
    m_desc = lattice_mod.monodromy(lat.i_mat)
    suite = lattice_mod.identity_suite(lat, m_desc, inv.r)
    cpo = lattice_mod.char_poly_and_order(m_desc)

    family = adapted_mod.adapted_vectors(lat.s_mat)
    verdict = adapted_mod.verify_adapted(family, lat.i_mat)
    quiver = adapted_mod.euler_matrix(lat)
    cert = adapted_mod.exceptional_certificate(quiver, ag)

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
        cpo=cpo,
        family=family,
        adapted_verdict=verdict,
        quiver=quiver,
        certificate=cert,
        cones=tuple(cones),
        warnings=warnings,
    )


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _mat(m) -> list:
    return [list(row) for row in m]


def build_report(result: PipelineResult, version: str, digest: str) -> dict:
    ag, depths = result.ag, result.depths
    labels = [v.label for v in ag.vertices]
    report = {
        "tool": {"name": TOOL_NAME, "version": version},
        "input": {"name": result.divide.name, "digest": digest},
        "invariants": {
            "d": result.inv.d,
            "r": result.inv.r,
            "mu": result.inv.mu,
            "n_regions": result.inv.n_regions,
            "genus": result.inv.genus,
            "boundary_components": result.inv.boundary_components,
            "euler_characteristic": result.inv.euler_characteristic,
        },
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
            "census": list(ag.census()),
            "diagram_depth": depths.diagram_depth,
        },
        "matrices": {
            "I": _mat(result.lattice.i_mat),
            "S": _mat(result.lattice.s_mat),
            "M_desc": _mat(result.m_desc),
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
            "coefficients": list(result.cpo.coefficients),
            "order": result.cpo.order,
            "max_power": REPORT_MAX_POWER,
        },
        "adapted": {
            "vectors": [list(v) for v in result.family.vectors],
            "verdicts": [
                "pass" if ok else "fail" for ok in result.adapted_verdict.passes
            ],
            "passed": result.adapted_verdict.passed,
            "first_failure": (
                None
                if result.adapted_verdict.first_failure is None
                else {
                    "index": result.adapted_verdict.first_failure[0],
                    "computed": list(result.adapted_verdict.first_failure[1]),
                }
            ),
        },
        "euler": {
            "matrix": _mat(result.quiver.e_mat),
            "arrows": [
                [labels[i], labels[j], w] for (i, j, w) in result.quiver.arrows
            ],
            "sigma": result.quiver.sigma,
            "grading_note": result.quiver.grading_note,
        },
        "certificate": {
            "verdict": "pass" if result.certificate.passed else "fail",
            "violations": [list(v) for v in result.certificate.violations],
        },
        "depth1_cones": [
            {
                "vertex": labels[c.vertex],
                "partner": labels[c.partner],
                "a_prime": list(c.a_prime),
                "components": [list(v) for v in c.components],
                "variation_a_prime": list(c.variation_a_prime),
                "total_variation": list(c.total_variation),
                "verdict": "pass" if c.passed else "fail",
            }
            for c in result.cones
        ],
        "warnings": list(result.warnings),
        "calibration": {
            "dim_n": lattice_mod.DIM_N,
            "pl_sign": lattice_mod.PL_SIGN,
            "euler_sign": result.quiver.grading_note,
        },
    }
    if depths.diagram_depth >= 2:
        report["depth_note"] = (
            "diagram depth exceeds 1: cone towers for deeper vertices are "
            "not constructed"
        )
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


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

_VERDICTS: tuple[tuple[Callable[[PipelineResult], bool], str], ...] = (
    (lambda res: res.suite.passed, "identity suite failed"),
    (lambda res: res.adapted_verdict.passed, "adapted-family variation check failed"),
    (lambda res: res.certificate.passed, "exceptional certificate failed"),
    (lambda res: all(c.passed for c in res.cones), "depth-1 cone check failed"),
)


def check_entry(entry: CorpusEntry) -> list[str]:
    """Certify a corpus entry: pipeline verdicts plus expected-fact matches."""
    try:
        result = run_pipeline(entry.divide)
    except DivideError as exc:
        return [f"pipeline failed: {exc}"]
    problems = [message for passed, message in _VERDICTS if not passed(result)]
    for key, want in entry.expected.items():
        if key not in _FACTS:
            problems.append(f"unknown expected fact '{key}'")
            continue
        have = _FACTS[key](result)
        if have != (sorted(map(tuple, want)) if key in _UNORDERED else want):
            shown = sorted(want) if key in _UNORDERED else want
            problems.append(f"{key}: expected {shown}, got {have}")
    return problems
