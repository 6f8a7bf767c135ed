"""Divide file format: a single JSON object, map mode or polyline mode.

Map mode keys: name, mode="map", double_points, terminals, edges, branches,
sign_seed {edge, side, sign}.  Polyline mode keys: name, mode="polyline",
branches [{points, closed}], disc_radius, sign_seed {point, sign}.
Unknown keys are rejected and types are checked at every level: ids and
names are strings, slots and coordinates integers, ``closed`` a boolean.
Parsing is total: it returns either a valid Divide or a list of
diagnostics, never an exception.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from itertools import chain
from typing import Any, Callable, Iterable, Optional

from .core import Divide, DivideError, EdgeDef, SignSeed

_SIGNS = {"+": 1, "-": -1}
_SIGN_TEXT = {1: "+", -1: "-"}

_MAP_KEYS = {"name", "mode", "double_points", "terminals", "edges", "branches", "sign_seed"}
_POLY_KEYS = {"name", "mode", "branches", "disc_radius", "sign_seed"}
_EDGE_KEYS = {"id", "ends"}


def _reject_unknown(obj: dict, allowed: set[str], where: str, diags: list[str]) -> None:
    for key in obj:
        if key not in allowed:
            diags.append(f"unknown key '{key}' in {where}")


def _is_str_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_int_pair(value: Any) -> bool:
    # Decoded JSON has exact types, so ``type(x) is int`` excludes bools.
    return isinstance(value, list) and len(value) == 2 and all(type(x) is int for x in value)


def _header(obj: dict, keys: set[str], where: str, diags: list[str]) -> bool:
    """False when the keys of ``obj`` are not exactly ``keys``; else True,
    after checking that the name is a string."""
    _reject_unknown(obj, keys, where, diags)
    for key in sorted(keys):
        if key not in obj:
            diags.append(f"missing key '{key}'")
    if diags:
        return False
    if not isinstance(obj["name"], str):
        diags.append("name must be a string")
    return True


def _seed_sign(seed_obj: Any, keys: set[str], diags: list[str]) -> Optional[int]:
    """The sign of a sign seed, an object with keys among ``keys``; None
    when it is not an object or its sign is not '+' or '-'."""
    if not isinstance(seed_obj, dict):
        diags.append("malformed sign seed: sign_seed must be an object")
        return None
    _reject_unknown(seed_obj, keys, "sign_seed", diags)
    sign_text = seed_obj.get("sign")
    if not isinstance(sign_text, str) or sign_text not in _SIGNS:
        diags.append("malformed sign seed: sign must be '+' or '-'")
        return None
    return _SIGNS[sign_text]


def _parse_edge(e: Any, diags: list[str]) -> Optional[EdgeDef]:
    if not isinstance(e, dict):
        diags.append(f"edge must be an object, got {type(e).__name__}")
        return None
    if not _EDGE_KEYS.issuperset(e):  # the place name is built only when it is printed
        _reject_unknown(e, _EDGE_KEYS, f"edge {e.get('id')!r}", diags)
    eid, ends = e.get("id"), e.get("ends")
    if not isinstance(eid, str):
        diags.append(f"edge {eid!r}: id must be a string")
        return None
    # Each end is checked once; ``ends`` that is not a list is checked as one
    # end that is not a pair.
    for end in ends if type(ends) is list else (None,):
        if not (type(end) is list and len(end) == 2
                and type(end[0]) is str and type(end[1]) is int):
            diags.append(f"edge {eid!r}: ends must be [vertex, slot] pairs")
            return None
    if len(ends) != 2:
        diags.append(f"edge {eid!r} must have exactly two ends")
        return None
    (u, su), (v, sv) = ends
    return EdgeDef(eid, ((u, su), (v, sv)))


def _parse_map(obj: dict, diags: list[str]) -> Optional[Divide]:
    if not _header(obj, _MAP_KEYS, "map divide", diags):
        return None
    for key in ("double_points", "terminals"):
        if not _is_str_list(obj[key]):
            diags.append(f"{key} must be a list of strings")
    edges = []
    if isinstance(obj["edges"], list):
        for e in obj["edges"]:
            edge = _parse_edge(e, diags)
            if edge is not None:
                edges.append(edge)
    else:
        diags.append("edges must be a list")
    branches = obj["branches"]
    if not isinstance(branches, list) or not all(map(_is_str_list, branches)):
        diags.append("branches must be a list of lists of edge ids")
    seed_obj = obj["sign_seed"]
    sign = _seed_sign(seed_obj, {"edge", "side", "sign"}, diags)
    if sign is None:
        return None
    if not (isinstance(seed_obj.get("edge"), str) and isinstance(seed_obj.get("side"), str)):
        diags.append("malformed sign seed: edge and side must be strings")
    if diags:
        return None
    divide = Divide(
        name=obj["name"],
        double_points=tuple(obj["double_points"]),
        terminals=tuple(obj["terminals"]),
        edges=tuple(edges),
        branches=tuple(tuple(b) for b in branches),
        sign_seed=SignSeed(edge=seed_obj["edge"], side=seed_obj["side"], sign=sign),
    )
    diags.extend(divide.diagnostics)
    return None if diags else divide


def _parse_polyline(obj: dict, diags: list[str]) -> Optional[Divide]:
    from .geometry import ingest_polyline  # local import to keep core light

    if not _header(obj, _POLY_KEYS, "polyline divide", diags):
        return None
    branches = []
    if isinstance(obj["branches"], list):
        for i, b in enumerate(obj["branches"]):
            if not isinstance(b, dict):
                diags.append(f"polyline branch {i} must be an object")
                continue
            _reject_unknown(b, {"points", "closed"}, "polyline branch", diags)
            points, closed = b.get("points"), b.get("closed")
            if not (isinstance(points, list) and all(map(_is_int_pair, points))):
                diags.append(f"polyline branch {i}: points must be [x, y] integer pairs")
            elif not isinstance(closed, bool):
                diags.append(f"polyline branch {i}: closed must be true or false")
            else:
                branches.append(([(x, y) for x, y in points], closed))
    else:
        diags.append("branches must be a list")
    seed_obj = obj["sign_seed"]
    sign = _seed_sign(seed_obj, {"point", "sign"}, diags)
    if sign is None:
        return None
    if not _is_int_pair(seed_obj.get("point")):
        diags.append("malformed sign seed: point must be an [x, y] integer pair")
    if type(obj["disc_radius"]) is not int:
        diags.append("disc_radius must be an integer")
    if diags:
        return None
    x, y = seed_obj["point"]
    try:
        return ingest_polyline(
            branches,
            disc_radius=obj["disc_radius"],
            seed_point=(x, y),
            seed_sign=sign,
            name=obj["name"],
        )
    except DivideError as exc:
        diags.extend(exc.diagnostics)
        return None


def parse_divide(text: str) -> tuple[Optional[Divide], list[str]]:
    """Parse divide file text; returns (divide, []) or (None, diagnostics)."""
    diags: list[str] = []
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        return None, [f"not valid JSON: {exc}"]
    except RecursionError:
        return None, ["not valid JSON: nested too deeply"]
    if not isinstance(obj, dict):
        return None, ["divide file must contain a single JSON object"]
    mode = obj.get("mode")
    if mode == "map":
        divide = _parse_map(obj, diags)
    elif mode == "polyline":
        divide = _parse_polyline(obj, diags)
    else:
        return None, [f"mode must be 'map' or 'polyline', got {mode!r}"]
    return divide, diags


def divide_to_text(divide: Divide) -> str:
    """Canonical map-mode file text; byte-identical for equal divides."""
    obj: dict[str, Any] = {
        "name": divide.name,
        "mode": "map",
        "double_points": list(divide.double_points),
        "terminals": list(divide.terminals),
        "edges": [
            {"id": e.id, "ends": [[v, s] for v, s in e.ends]} for e in divide.edges
        ],
        "branches": [list(b) for b in divide.branches],
        "sign_seed": {
            "edge": divide.sign_seed.edge,
            "side": divide.sign_seed.side,
            "sign": _SIGN_TEXT[divide.sign_seed.sign],
        },
    }
    return json_text(obj) + "\n"


class _IntTexts(dict):
    """The texts of exact ints: small ones from the table, any other written
    on demand and not kept, so the table never grows."""

    __slots__ = ()

    def __missing__(self, value: int) -> str:
        return int.__repr__(value)


# Looked up for exact ints only: True == 1 with the same hash, so a bool
# looked up here would read "1".  Report matrices and characteristic
# polynomials have small entries (|x| <= 7 from A_4 to A_32 and 3 to 6
# generic chords), so nearly every int a report writes is in the table.
_INT_TEXT = _IntTexts((i, int.__repr__(i)) for i in range(-256, 257))
# The writer of each scalar type, by exact type.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: _INT_TEXT.__getitem__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_ROW_TYPES = {list, tuple}
_INT_ONLY = {int}


def _items_text(items: list | tuple, pad: str) -> Iterable[str]:
    """The texts of the items of a non-empty list or tuple, nested at
    ``pad``: scalars of one exact type in one pass; rows that are non-empty
    exact lists or tuples of scalars one join per row, by the int table when
    every entry is an exact int; anything else item by item."""
    kinds = set(map(type, items))
    if len(kinds) == 1 and kinds <= _SCALAR_TEXT.keys():
        return map(_SCALAR_TEXT[kinds.pop()], items)
    if kinds <= _ROW_TYPES and all(items):
        entry_kinds = set(map(type, chain.from_iterable(items)))
        if entry_kinds <= _SCALAR_TEXT.keys():
            row_pad = pad + "  "
            head, sep, tail = "[\n" + row_pad, ",\n" + row_pad, "\n" + pad + "]"
            if entry_kinds == _INT_ONLY:
                int_text = _INT_TEXT.__getitem__
                return [head + sep.join(map(int_text, row)) + tail for row in items]
            text = _SCALAR_TEXT
            return [head + sep.join([text[type(x)](x) for x in row]) + tail for row in items]
    text = _SCALAR_TEXT.get
    return [w(x) if (w := text(type(x))) else json_text(x, pad) for x in items]


def json_text(value: Any, pad: str = "") -> str:
    """The text of ``json.dumps(value, indent=2)``, nested at ``pad``, for str,
    int, bool, None, lists, tuples and dicts with str keys; anything else (a
    float, a non-str key, a set, bytes) raises TypeError rather than be
    written.  A value that contains itself raises RecursionError, where
    ``json.dumps`` raises ValueError: no record of the enclosing containers
    is kept, since reports and divide texts are trees.

    Scalars are written by exact type without a further call, exact ints
    from a table of texts.  Only type ``int`` reads the table: bools and int
    or str subclasses (an ``IntEnum``) take the general path, as
    ``json.dumps`` writes them.  A list of scalars of one type takes one
    pass, and a list of non-empty exact list or tuple rows of scalars (an
    integer matrix, the report's edge triples) one join per row; a tuple
    subclass such as ``CharPoly`` is never read as a row.
    """
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return f"[\n{inner}{sep.join(_items_text(value, inner))}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        text = _SCALAR_TEXT.get
        items = [
            f"{encode_basestring_ascii(k)}: {w(v) if (w := text(type(v))) else json_text(v, inner)}"
            for k, v in value.items()
        ]
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not written as JSON")
