"""Tests of the benchmark's generators and oracles.

    python3 -m pytest -q bench/check_oracles.py

Each oracle must pass the program's real output and reject that output with
one coefficient, one matrix entry, one verdict or one depth changed.
"""

from __future__ import annotations

import copy
import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402


def _item(tmp_path: Path, kind: str, arg: int, key: str = "") -> run.Item:
    rng = random.Random(7)
    if kind == "a":
        text = inputs.a_n_text(arg, rng)
        d, r = inputs.a_n_counts(arg)
        item = run.Item(f"a{arg}", tmp_path / f"a{arg}.json", arg + 1, 2, d, r, True)
    else:
        text = inputs.chords_text(inputs.chords(arg, key, rng), f"chords{arg}")
        item = run.Item(f"chords{arg}", tmp_path / f"c{arg}.json", arg, arg,
                        arg * (arg - 1) // 2, arg, False)
    item.path.write_text(text)
    return item


def _report(item: run.Item) -> dict:
    assert run.report_op(item) == 0
    return json.loads(item.report_path.read_text())


def _summary(item: run.Item) -> dict:
    result = run.screen_op(item)
    return dict(run.screen_summary(result), round_trip=run.round_trip_ok(item, result))


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    a = _item(tmp, "a", 6)
    c = _item(tmp, "k", 5, "5")
    return [(a, _report(a)), (c, _report(c))]


def _problems(item, rep):
    return oracles.check_report(rep, item.a, item.b, item.d, item.r)


def test_closed_forms():
    # x^3 + y^2 (A_2): Phi_6, order 6
    assert oracles.brieskorn_pham(3, 2) == ([1, -1, 1], 6)
    for a, b in [(2, 2), (5, 2), (8, 2), (3, 3), (4, 4), (6, 6), (3, 4)]:
        poly, _order = oracles.brieskorn_pham(a, b)
        g = math.gcd(a, b)
        n = a * b // g
        # (t^N - 1)^g (t - 1) = poly * (t^a - 1)(t^b - 1)
        lhs = [1]
        for _ in range(g):
            lhs = oracles._poly_mul(lhs, [1] + [0] * (n - 1) + [-1])
        lhs = oracles._poly_mul(lhs, [1, -1])
        rhs = oracles._poly_mul(poly, [1] + [0] * (a - 1) + [-1])
        rhs = oracles._poly_mul(rhs, [1] + [0] * (b - 1) + [-1])
        assert lhs == rhs, (a, b)


def test_transvection_product_matches_matrix_products():
    i_mat = [[0, -1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -2], [-1, 0, 2, 0]]
    mu = len(i_mat)
    m = [[int(i == j) for j in range(mu)] for i in range(mu)]
    for k in range(mu):
        t = [[int(i == j) for j in range(mu)] for i in range(mu)]
        for j in range(mu):
            t[k][j] += oracles.PL_SIGN * i_mat[j][k]
        m = [[sum(m[i][l] * t[l][j] for l in range(mu)) for j in range(mu)] for i in range(mu)]
    assert oracles.transvection_product(i_mat) == m


def test_reports_pass(reports):
    for item, rep in reports:
        assert _problems(item, rep) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rep: rep["char_poly"]["coefficients"].__setitem__(2, rep["char_poly"]["coefficients"][2] + 1),
        lambda rep: rep["matrices"]["M_desc"][1].__setitem__(0, rep["matrices"]["M_desc"][1][0] + 1),
        lambda rep: rep["matrices"]["I"][0].__setitem__(1, rep["matrices"]["I"][0][1] - 1),
        lambda rep: rep["char_poly"].__setitem__("order", rep["char_poly"]["order"] * 2),
        lambda rep: rep["char_poly"].__setitem__("order", None),
        lambda rep: rep["identity_suite"]["checks"][0].__setitem__("verdict", "fail"),
        lambda rep: rep["adapted"]["verdicts"].__setitem__(-1, "fail"),
        lambda rep: rep["certificate"].__setitem__("verdict", "fail"),
        lambda rep: rep["invariants"].__setitem__("mu", rep["invariants"]["mu"] + 1),
    ],
    ids=["coefficient", "M_desc entry", "I entry", "order", "order null below cap",
         "identity verdict", "adapted verdict", "certificate verdict", "mu"],
)
def test_report_oracle_rejects_one_change(reports, corrupt):
    for item, rep in reports:
        bad = copy.deepcopy(rep)
        corrupt(bad)
        assert _problems(item, bad), item.name


def test_cone_verdict_is_checked(reports):
    item, rep = reports[1]
    assert rep["depth1_cones"], "the 5-chord arrangement should have depth-1 cones"
    bad = copy.deepcopy(rep)
    bad["depth1_cones"][0]["verdict"] = "fail"
    assert _problems(item, bad)


def test_order_cap_is_a_fault_not_a_wrong_answer(reports):
    item, rep = reports[0]
    capped = copy.deepcopy(rep)
    capped["char_poly"]["order"] = None
    capped["char_poly"]["max_power"] = rep["char_poly"]["order"] - 1
    with pytest.raises(oracles.OrderCapFault):
        _problems(item, capped)
    capped["char_poly"]["coefficients"][1] += 1  # another fault makes it wrong
    assert _problems(item, capped)


@pytest.fixture(scope="module")
def screens(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("screens")
    a = _item(tmp, "a", 41)
    c = _item(tmp, "k", 10, "10")
    return [(a, _summary(a)), (c, _summary(c))]


def test_screens_pass(screens):
    for item, s in screens:
        assert oracles.check_screen(s, item.d, item.r, item.is_a_n) == []
    assert max(screens[1][1]["depth"]) >= 1, "10 chords should have depth >= 1"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s: s["depth"].__setitem__(-1, s["depth"][-1] + 1),
        lambda s: s["depth"].__setitem__(0, s["depth"][0] + 1),
        lambda s: s.__setitem__("F", s["F"] + 1),
        lambda s: s.__setitem__("regions", s["regions"] - 1),
        lambda s: s.__setitem__("round_trip", False),
    ],
    ids=["last depth", "first depth", "faces", "regions", "round trip"],
)
def test_screen_oracle_rejects_one_change(screens, corrupt):
    for item, s in screens:
        bad = copy.deepcopy(s)
        corrupt(bad)
        assert oracles.check_screen(bad, item.d, item.r, item.is_a_n), item.name


def test_a_n_census_is_checked(screens):
    item, s = screens[0]
    bad = copy.deepcopy(s)
    bad["census"] = [bad["census"][0] - 1, bad["census"][1], 1]
    assert oracles.check_screen(bad, item.d, item.r, True)


def test_check_chords_rejects_degenerate_arrangements():
    good = [((-9, -9), (9, 9)), ((-9, 9), (9, -9)), ((-9, 1), (9, 2))]
    assert inputs.check_chords(8, good) == []
    assert inputs.check_chords(8, good[:2] + [((-9, 0), (9, 0))])  # triple point
    assert inputs.check_chords(8, good[:2] + [((-9, 7), (9, 9))])  # misses a chord in the disc
    assert inputs.check_chords(8, good[:2] + [((-9, 1), (5, 2))])  # end point inside
    assert inputs.check_chords(8, good[:2] + [((-9, -8), (9, 10))])  # parallel


def test_inputs_follow_the_seed():
    texts = [inputs.chords_text(inputs.chords(6, "6a", random.Random(s)), "c") for s in (1, 1, 2)]
    assert texts[0] == texts[1] != texts[2]
    assert inputs.a_n_text(9, random.Random(3)) == inputs.a_n_text(9, random.Random(3))


def test_scaling_divides_by_the_reference_around_an_operation():
    ref = calibrate.REF_MS / 1000.0
    assert calibrate.scale(0.3, ref, ref) == pytest.approx(0.3)
    # The host ran at half speed: the reference took twice as long on average.
    assert calibrate.scale(0.6, 1.5 * ref, 2.5 * ref) == pytest.approx(0.3)
    assert calibrate.reference() > 0
