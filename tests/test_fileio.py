from __future__ import annotations

import json
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from divides import divide_to_text, gen_a, gen_e6, parse_divide
from divides.fileio import json_text
from divides.intmat import CharPoly
from divides.report import build_report, report_json, run_pipeline
from conftest import TWO_CHORDS, entry, generic_chords


def test_round_trip_all_corpus(corpus_names):
    for name in corpus_names:
        d = entry(name).divide
        text = divide_to_text(d)
        back, diags = parse_divide(text)
        assert diags == []
        assert back == d
        assert divide_to_text(back) == text


def test_parse_a1_counts():
    d, diags = parse_divide(divide_to_text(gen_a(1).divide))
    assert diags == []
    assert len(d.double_points) == 1
    assert len(d.branches) == 2


def test_parse_rejects_unknown_keys():
    obj = json.loads(divide_to_text(gen_e6().divide))
    obj["extra"] = 1
    d, diags = parse_divide(json.dumps(obj))
    assert d is None
    assert any("unknown key 'extra'" in m for m in diags)


def test_parse_names_unknown_keys_inside_edges():
    obj = json.loads(divide_to_text(gen_a(2).divide))
    ids = [e["id"] for e in obj["edges"]]
    obj["edges"][0]["x"] = 1
    obj["edges"][2].update(y=2, z=3)
    d, diags = parse_divide(json.dumps(obj))
    assert d is None
    assert diags == [f"unknown key 'x' in edge {ids[0]!r}", f"unknown key 'y' in edge {ids[2]!r}",
                     f"unknown key 'z' in edge {ids[2]!r}"]


def test_parse_rejects_bad_mode():
    d, diags = parse_divide('{"mode": "magic"}')
    assert d is None and any("mode" in m for m in diags)


def test_parse_rejects_bad_json():
    d, diags = parse_divide("{nope")
    assert d is None and any("not valid JSON" in m for m in diags)


def test_parse_reports_structural_diagnostics():
    obj = json.loads(divide_to_text(gen_a(1).divide))
    obj["edges"][0]["ends"][0] = obj["edges"][1]["ends"][0]
    d, diags = parse_divide(json.dumps(obj))
    assert d is None
    assert any("slot used twice" in m for m in diags)


def test_parse_polyline_mode():
    text = json.dumps(
        {
            "name": "a4-snake",
            "mode": "polyline",
            "branches": [
                {
                    "points": [[-10, 0], [4, 0], [4, 2], [2, 2], [2, -2], [0, -2], [0, 9]],
                    "closed": False,
                }
            ],
            "disc_radius": 8,
            "sign_seed": {"point": [3, 1], "sign": "-"},
        }
    )
    d, diags = parse_divide(text)
    assert diags == []
    assert len(d.double_points) == 2
    assert len(d.branches) == 1


def test_parse_polyline_error_is_diagnostic():
    text = json.dumps(
        {
            "name": "bad",
            "mode": "polyline",
            "branches": [
                {"points": [[-9, 0], [0, 0], [9, 9]], "closed": False},
                {"points": [[-9, 9], [0, 0], [9, -9]], "closed": False},
            ],
            "disc_radius": 8,
            "sign_seed": {"point": [1, 0], "sign": "-"},
        }
    )
    d, diags = parse_divide(text)
    assert d is None
    assert any("intersection at a polyline vertex" in m for m in diags)


# ---------------------------------------------------------------------------
# Totality: any JSON text gives a divide or diagnostics, never an exception

_KEYS = sorted(
    {"name", "mode", "double_points", "terminals", "edges", "branches", "sign_seed",
     "disc_radius", "id", "ends", "edge", "side", "sign", "points", "closed", "point"}
)
_LEAVES = (
    st.none() | st.booleans() | st.integers(-5, 5) | st.integers() | st.floats()
    | st.sampled_from(["map", "polyline", "+", "-", "left", "right", "x", "e1", "c1"])
    | st.text(max_size=3)
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), inner, max_size=6),
    max_leaves=25,
)


def _assert_total(text):
    divide, diags = parse_divide(text)
    assert (divide is None) == bool(diags)
    assert all(isinstance(d, str) for d in diags)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_parse_divide_total_on_arbitrary_json(value):
    _assert_total(json.dumps(value))


_POLYLINE_FILE = {
    "name": "two-diagonals",
    "mode": "polyline",
    "branches": [
        {"points": [[-9, -9], [9, 9]], "closed": False},
        {"points": [[-9, 9], [9, -9]], "closed": False},
    ],
    "disc_radius": 8,
    "sign_seed": {"point": [1, 0], "sign": "-"},
}


def _slots(value, path=()):
    """The path to every value nested in a JSON object, the root excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _slots(child, path + (key,))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["e6", "a3", "polyline"]), st.data())
def test_parse_divide_total_on_a_valid_file_with_one_value_replaced(base, data):
    text = json.dumps(_POLYLINE_FILE) if base == "polyline" else divide_to_text(entry(base).divide)
    obj = json.loads(text)
    path = data.draw(st.sampled_from(list(_slots(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(_JSON)
    _assert_total(json.dumps(obj))


_POINT = st.lists(st.integers(-12, 12), min_size=2, max_size=2)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries(
            {"points": st.lists(_POINT, min_size=1, max_size=4), "closed": st.booleans()}
        ),
        max_size=3,
    ),
    st.integers(-1, 10),
    _POINT,
    st.sampled_from(["+", "-"]),
)
def test_parse_divide_total_on_well_typed_polylines(branches, radius, point, sign):
    obj = {
        "name": "p",
        "mode": "polyline",
        "branches": branches,
        "disc_radius": radius,
        "sign_seed": {"point": point, "sign": sign},
    }
    _assert_total(json.dumps(obj))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("edges", [1], "edge must be an object, got int"),
        ("sign_seed", [], "malformed sign seed: sign_seed must be an object"),
        ("double_points", "ab", "double_points must be a list of strings"),
        ("terminals", [1, 2], "terminals must be a list of strings"),
        ("branches", ["e1"], "branches must be a list of lists of edge ids"),
        ("edges", [{"id": "e", "ends": [["c1", 1.0], ["c1", 2]]}],
         "edge 'e': ends must be [vertex, slot] pairs"),
        ("sign_seed", {"edge": "e", "side": "left", "sign": []},
         "malformed sign seed: sign must be '+' or '-'"),
        ("edges", [{"id": "e", "ends": [["c1", True], ["c1", 2]]}],
         "edge 'e': ends must be [vertex, slot] pairs"),
        ("edges", [{"id": "e", "ends": [[1, 0], ["c1", 2]]}],
         "edge 'e': ends must be [vertex, slot] pairs"),
        ("edges", [{"id": 1, "ends": [["c1", 0], ["c1", 2]]}], "edge 1: id must be a string"),
        ("edges", [{"id": "e", "ends": [["c1", 0, 1], ["c1", 2]]}],
         "edge 'e': ends must be [vertex, slot] pairs"),
        ("edges", [{"id": "e", "ends": [["c1", 0], ["c1", 1], ["c1", 2]]}],
         "edge 'e' must have exactly two ends"),
    ],
)
def test_parse_map_type_errors_are_diagnostics(key, value, message):
    obj = json.loads(divide_to_text(gen_e6().divide))
    obj[key] = value
    d, diags = parse_divide(json.dumps(obj))
    assert d is None
    assert message in diags


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100000, "not valid JSON: nested too deeply"),
        ("1" * 5000, "not valid JSON"),
        ('{"mode": "polyline", "name": "p", "branches": [], "disc_radius": 1e999,'
         ' "sign_seed": {"point": [0, 0], "sign": "+"}}', "disc_radius must be an integer"),
        ('{"mode": "polyline", "name": "p", "branches": [{"points": [[0, 0], [1, 1]],'
         ' "closed": "no"}], "disc_radius": 5, "sign_seed": {"point": [0, 0], "sign": "+"}}',
         "polyline branch 0: closed must be true or false"),
    ],
)
def test_parse_text_errors_are_diagnostics(text, message):
    d, diags = parse_divide(text)
    assert d is None
    assert any(m.startswith(message) for m in diags)


@pytest.mark.parametrize(
    "base, drop, replace, diags",
    [
        ("map", ("terminals",), {}, ["missing key 'terminals'"]),
        ("map", ("terminals", "branches"), {},
         ["missing key 'branches'", "missing key 'terminals'"]),
        ("map", (), {"edges": {}}, ["edges must be a list"]),
        ("polyline", ("disc_radius",), {}, ["missing key 'disc_radius'"]),
        ("polyline", (), {"sign_seed": 5}, ["malformed sign seed: sign_seed must be an object"]),
    ],
    ids=["no-terminals", "no-terminals-no-branches", "edges-object", "no-disc-radius",
         "sign-seed-int"],
)
def test_top_level_key_diagnostics_are_exact(base, drop, replace, diags):
    obj = json.loads(divide_to_text(gen_e6().divide)) if base == "map" else dict(TWO_CHORDS)
    assert parse_divide(json.dumps(obj))[0] is not None
    for key in drop:
        del obj[key]
    obj.update(replace)
    assert parse_divide(json.dumps(obj)) == (None, diags)


# Text with control characters, non-ASCII letters and lone surrogates.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_INT = st.integers(-(10**30), 10**30)
# Inside and just beyond json_text's table of int texts, and beyond 2**64.
_WIDE_INT = st.integers(-300, 300) | st.integers(-(2**70), 2**70)


class _Kind(IntEnum):
    SMALL = 1
    LARGE = 300


class _Name(str):
    pass


_CHARPOLY = st.builds(CharPoly, st.lists(_WIDE_INT, max_size=5), st.just(()))
_SCALAR = st.none() | st.booleans() | _INT | _TEXT | st.sampled_from(_Kind) | _CHARPOLY
_KEY = _TEXT | _TEXT.map(_Name)  # a str subclass is a str key


def _rows(entry):
    """Lists and tuples of list or tuple rows of ``entry``: empty and ragged
    rows included."""
    row = st.lists(entry, max_size=4)
    rows = st.lists(row | row.map(tuple), min_size=1, max_size=4)
    return rows | rows.map(tuple)


# Integer matrices, with bools, IntEnum members or CharPoly rows mixed in,
# and rows of any scalars, as the report's edge triples are.
_MATRIX = (
    _rows(_WIDE_INT)
    | _rows(_WIDE_INT | st.booleans() | st.sampled_from(_Kind))
    | _rows(_WIDE_INT | _TEXT | st.none() | st.booleans())
    | st.lists(_CHARPOLY | st.lists(_WIDE_INT, min_size=1, max_size=3), min_size=1, max_size=3)
)
_VALUE = st.recursive(
    _SCALAR | _MATRIX,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(_INT | st.booleans(), max_size=6)  # int lists with bools mixed in
    | st.dictionaries(_KEY, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_VALUE)
def test_json_text_matches_json_dumps_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


@settings(max_examples=300, deadline=None)
@given(_MATRIX, st.integers(0, 5))
def test_json_text_writes_matrices_as_json_dumps_at_any_depth(matrix, depth):
    value = matrix
    for _ in range(depth):
        value = {"m": [value]}
    assert json_text(value) == json.dumps(value, indent=2)


@settings(max_examples=200, deadline=None)
@given(_rows(_WIDE_INT), st.sampled_from([0.5, float("nan"), {1}, frozenset(), b"1"]), st.data())
def test_json_text_refuses_a_bad_entry_in_a_late_matrix_row(matrix, bad, data):
    row = list(data.draw(st.lists(_WIDE_INT, max_size=3)))
    row.insert(data.draw(st.integers(0, len(row))), bad)
    with pytest.raises(TypeError):
        json_text([*matrix, row])


@pytest.mark.parametrize(
    "value",
    [[], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}], [True, 1, False, 0], [1, -2],
     [[1, True], [0, False]], [[1], []], ((True,), (1,)), [[2**64, -257], (256, -256)],
     [_Kind.SMALL, _Kind.LARGE], [[_Kind.SMALL]], {_Name("k"): [1]},
     CharPoly((1, -2, 1), (0,)), [CharPoly((1, 0), ()), [1, 0]]],
)
def test_json_text_empty_nested_and_int_lists(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, [1, 2.0], {"a": float("nan")}, {1: "x"}, {"a": {None: 1}}, {1, 2}, [frozenset()], b"x", object(),
     [[1, 2], [3, 4], [5, 6.0]], ((1,), (2,), (3, 1.5)), [[1], {2}], [[1, 2], [3, {4}]], [["a", 1], [b"x"]]],
)
def test_json_text_refuses_what_it_would_not_write_alike(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_json_text_on_a_list_that_contains_itself_raises_recursion_error():
    # json.dumps finds the cycle; json_text keeps no record of the
    # containers it is inside, so it recurses until the interpreter stops it
    a = [1]
    a.append(a)
    with pytest.raises(ValueError, match="Circular reference detected"):
        json.dumps(a, indent=2)
    with pytest.raises(RecursionError):
        json_text(a)


@pytest.mark.parametrize(
    "size, seed",
    [pytest.param(n, None, id=f"a{n}") for n in range(4, 33, 4)]
    + [pytest.param(k, s, id=f"chords{k}-s{s}") for k in range(3, 7) for s in (0, 1)],
)
def test_report_json_is_json_dumps_at_benchmark_sizes(size, seed):
    """The report writer against ``json.dumps`` on the benchmark's report
    inputs: the digest goldens pin the bytes, this names the writer when
    they differ.  Lines are compared, so that a failure names the first
    line that differs without diffing the whole text."""
    divide = gen_a(size).divide if seed is None else generic_chords(size, seed)
    report = build_report(run_pipeline(divide), "0", "0" * 64)
    assert report_json(report).split("\n") == (json.dumps(report, indent=2) + "\n").split("\n")


def test_divide_to_text_is_json_dumps_indent_2(corpus_names):
    divides = [entry(name).divide for name in corpus_names]
    divides.append(gen_e6().divide._replace(name="e\u0336\u00e9 \t\"\\ \U0001d4d4"))
    for d in divides:
        text = divide_to_text(d)
        assert text.isascii()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
