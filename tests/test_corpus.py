from __future__ import annotations

import pytest

from divides import DivideError, builtin_entries, divide_to_text, gen_a, gen_depth1, gen_e6
from divides.report import check_entry
from conftest import entry, pipeline


def test_generators_deterministic():
    for maker in (lambda: gen_a(4), gen_e6, gen_depth1):
        a, b = maker(), maker()
        assert divide_to_text(a.divide) == divide_to_text(b.divide)
        assert a.expected == b.expected


def test_every_expected_fact_has_a_source():
    for e in builtin_entries():
        assert set(e.expected) <= set(e.sources)
        assert all(isinstance(s, str) and s for s in e.sources.values())


def test_gen_a_small_cases():
    e1 = gen_a(1)
    assert e1.expected["d"] == 1 and e1.expected["r"] == 2
    e2 = gen_a(2)
    assert e2.expected["census"] == (1, 1, 0)
    assert len(e2.expected["ag_edges"]) == 1
    e4 = gen_a(4)
    assert e4.expected["genus"] == 2
    assert e4.expected["boundary_components"] == 1
    assert e4.expected["ag_edges"] == [
        ("v-_1", "v0_1", 1),
        ("v-_2", "v0_1", 1),
        ("v-_2", "v0_2", 1),
    ]


def test_gen_a_rejects_n_below_1():
    with pytest.raises(DivideError, match="^n must be >= 1$"):
        gen_a(0)


def test_gen_e6_expected():
    e = gen_e6()
    assert e.expected["census"] == (2, 3, 1)
    assert len(e.expected["ag_edges"]) == 9
    assert e.expected["mu"] == 6 == 2 * 3 - 1 + 1


def test_gen_depth1_expected():
    e = gen_depth1()
    assert e.expected["mu"] == 10
    assert e.expected["depths"]["v0_6"] == 1
    assert sum(e.expected["depths"].values()) == 1
    assert (e.expected["genus"], e.expected["boundary_components"]) == (4, 3)


def test_all_entries_certify():
    for e in builtin_entries():
        assert check_entry(e) == [], e.name


def test_seed_flip_breaks_certification():
    e = gen_e6()
    flipped_divide = e.divide._replace(
        sign_seed=e.divide.sign_seed._replace(sign=-e.divide.sign_seed.sign),
    )
    flipped = e._replace(divide=flipped_divide)
    problems = check_entry(flipped)
    assert problems  # expected-facts certification must fail
    assert any("census" in p or "region_signs" in p for p in problems)
