"""Divides of isolated plane curve singularities.

From a divide (a combinatorial map or exact integer polylines) this package
derives the AG diagram with depth labels, the Milnor lattice (intersection
form I, the upper unipotent Seifert matrix S with I = -S + S^T, and the
monodromy M = S^{-1} S^T as a product of transvections), the adapted family
of relative classes (the columns of S, whose variations are -e_j), and the
Euler-characteristic quiver certifying the exceptional collection pattern,
all in exact integer arithmetic.
"""

__version__ = "0.2.0"

from .adapted import (
    AdaptedFamily,
    Depth1Cone,
    EulerQuiver,
    adapted_vectors,
    depth1_cone,
    euler_matrix,
    exceptional_certificate,
    pl_variation,
    quiver_dot,
    verify_adapted,
)
from .agdiagram import (
    AGDiagram,
    DepthLabels,
    build_ag,
    depth_labels,
    exposure_set,
    reorder_within_types,
    to_dot,
)
from .core import (
    Divide,
    DivideError,
    DivideInvariants,
    EdgeDef,
    FaceSet,
    SignSeed,
    SignedDivide,
    assign_signs,
    invariants,
    region_shape_warnings,
    trace_faces,
    validate_divide,
)
from .corpus import CorpusEntry, builtin_entries, gen_a, gen_depth1, gen_e6
from .fileio import divide_to_text, parse_divide
from .geometry import ingest_polyline
from .lattice import (
    MilnorLattice,
    char_poly_and_order,
    identity_suite,
    intersection_matrix,
    milnor_lattice,
    monodromy,
    seifert_matrix,
    transvection,
)
from .report import build_report, check_entry, run_pipeline

__all__ = [
    "AGDiagram",
    "AdaptedFamily",
    "CorpusEntry",
    "Depth1Cone",
    "DepthLabels",
    "Divide",
    "DivideError",
    "DivideInvariants",
    "EdgeDef",
    "EulerQuiver",
    "FaceSet",
    "MilnorLattice",
    "SignSeed",
    "SignedDivide",
    "adapted_vectors",
    "assign_signs",
    "build_ag",
    "build_report",
    "char_poly_and_order",
    "check_entry",
    "depth1_cone",
    "depth_labels",
    "divide_to_text",
    "euler_matrix",
    "exceptional_certificate",
    "exposure_set",
    "gen_a",
    "gen_depth1",
    "gen_e6",
    "builtin_entries",
    "identity_suite",
    "ingest_polyline",
    "intersection_matrix",
    "invariants",
    "milnor_lattice",
    "monodromy",
    "parse_divide",
    "pl_variation",
    "quiver_dot",
    "region_shape_warnings",
    "reorder_within_types",
    "run_pipeline",
    "seifert_matrix",
    "to_dot",
    "trace_faces",
    "transvection",
    "validate_divide",
    "verify_adapted",
]
