"""Divides of isolated plane curve singularities.

From a divide (a combinatorial map or exact integer polylines) this package
derives the AG diagram with depth labels, the Milnor lattice (intersection
form I, the upper unipotent Seifert matrix S with I = -S + S^T, and the
monodromy M = S^{-1} S^T as a product of transvections), the verdict that
the columns of S are the adapted family of relative classes (their
variations are -e_j), the Euler-characteristic quiver read from S with the
certificate of the exceptional collection pattern, and the depth-1 cone
classes, all in exact integer arithmetic.

Records are ``typing.NamedTuple``s.  ``import divides`` loads ``core``,
``fileio`` and ``agdiagram``, the screening core (parse to depth labels) that
every use needs.  The other names load their modules on first use: the
report stack (``lattice``, ``intmat``, ``adapted``, ``report``), ``geometry``
for ``ingest_polyline`` and ``corpus`` for the built-in divides, so a run
that builds no lattice, reads no polyline and no built-in divide never
imports them.
"""

__version__ = "0.3.0"

from .agdiagram import (
    AGDiagram,
    DepthLabels,
    build_ag,
    depth_labels,
    exposure_set,
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
    trace_faces,
    validate_divide,
)
from .fileio import divide_to_text, parse_divide

# Public name -> the module that defines it, imported on first use (PEP 562).
_LAZY = {
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


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


# The eagerly imported names, then the lazy ones, which come from _LAZY.
__all__ = [
    "AGDiagram",
    "DepthLabels",
    "Divide",
    "DivideError",
    "DivideInvariants",
    "EdgeDef",
    "FaceSet",
    "SignSeed",
    "SignedDivide",
    "assign_signs",
    "build_ag",
    "depth_labels",
    "divide_to_text",
    "exposure_set",
    "invariants",
    "parse_divide",
    "to_dot",
    "trace_faces",
    "validate_divide",
    *_LAZY,
]
