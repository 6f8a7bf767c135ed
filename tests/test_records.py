"""Record semantics: every record is a NamedTuple whose fields cannot be set;
``_replace`` builds a new record, validated again where the type validates;
built indexes never enter equality or hashing."""

from __future__ import annotations

import inspect

import pytest

from divides import (
    AGDiagram,
    CorpusEntry,
    Divide,
    DivideError,
    SignSeed,
    adapted,
    agdiagram,
    assign_signs,
    build_ag,
    core,
    corpus,
    gen_a,
    geometry,
    lattice,
    report,
    trace_faces,
)

from conftest import entry, pipeline


def _records() -> dict[str, tuple]:
    """One instance of every record type, by type name."""
    res = pipeline("depth1")
    d = res.divide
    return {
        "EdgeDef": d.edges[0],
        "SignSeed": d.sign_seed,
        "Divide": d,
        "Face": res.signed.faces.faces[0],
        "DivideInvariants": res.inv,
        "AGVertex": res.ag.vertices[0],
        "AGEdge": res.ag.edges[0],
        "AGDiagram": res.ag,
        "DepthLabels": res.depths,
        "MilnorLattice": res.lattice,
        "IdentityCheck": res.suite.checks[0],
        "IdentitySuite": res.suite,
        "AdaptedVerdict": res.adapted_verdict,
        "EulerQuiver": res.quiver,
        "CertificateVerdict": res.certificate,
        "Depth1Cone": res.cones[0],
        "CorpusEntry": entry("depth1"),
        "PipelineResult": res,
        "_Seg": geometry._Seg(0, (-12, 0), (12, 0), (24, 0)),
    }


def _record_types() -> set[str]:
    """Names of the NamedTuple types that the package's modules define."""
    return {
        name
        for mod in (core, agdiagram, lattice, adapted, corpus, geometry, report)
        for name, cls in vars(mod).items()
        if inspect.isclass(cls) and cls.__module__ == mod.__name__
        and issubclass(cls, tuple) and not name.endswith("Fields")
    }


def test_every_record_type_is_covered():
    assert set(_records()) == _record_types()


@pytest.mark.parametrize("name", sorted(_records()))
def test_record_fields_cannot_be_set(name):
    rec = _records()[name]
    assert type(rec).__name__ == name
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))


def test_replace_revalidates_divide():
    d = gen_a(3).divide
    assert d.diagnostics == ()
    broken = d._replace(sign_seed=SignSeed(edge="nope", side="left", sign=-1))
    assert type(broken) is Divide and broken is not d
    assert broken.diagnostics == ("malformed sign seed: unknown edge 'nope'",)
    with pytest.raises(DivideError, match="unknown edge 'nope'"):
        trace_faces(broken)
    assert d.diagnostics == ()


def test_corpus_entry_needs_a_source_for_every_fact():
    e = gen_a(3)
    with pytest.raises(DivideError, match=r"without source notes: \['mu'\]"):
        CorpusEntry(e.name, e.divide, {"mu": 3}, {})
    with pytest.raises(DivideError, match=r"without source notes: \['extra'\]"):
        e._replace(expected={**e.expected, "extra": 1})
    renamed = e._replace(name="b3")
    assert type(renamed) is CorpusEntry and renamed.name == "b3"


def test_equality_and_hash_ignore_built_indexes():
    d1, d2 = gen_a(5).divide, gen_a(5).divide
    assert d1.diagnostics == () and d1.edge_index and d1.edge_darts
    assert "edge_index" in vars(d1) and not vars(d2)
    assert d1 == d2 and hash(d1) == hash(d2)

    signed = assign_signs(d1, trace_faces(d1))
    ag1, ag2 = build_ag(signed), build_ag(signed)
    assert type(ag1) is AGDiagram
    e = ag1.edges[0]
    assert e.v in ag1.neighbors(e.u)
    assert "_adjacent" in vars(ag1) and not vars(ag2)
    assert ag1 == ag2 and hash(ag1) == hash(ag2)
