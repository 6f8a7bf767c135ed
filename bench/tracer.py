"""Spans around the program's functions, installed from outside the program.

Each traced function is wrapped once and the wrapper is bound under every
name through which a ``divides`` module reaches it: the defining module, any
module that imported it with ``from ... import``, and the package namespace.
Calls made through a module attribute (``intmat.charpoly``) and calls made
through an imported name (``trace_faces`` in ``report``) are both seen.

Spans live in memory.  A span's self time is its duration minus the
durations of the spans it caused; calls into functions that are not traced
count in their caller's self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable

# module.function -> probe turning the function's result into counts.
Probe = Callable[[object], dict[str, int]]


def _max_bits(values) -> int:
    return max((abs(x).bit_length() for x in values), default=0)


TRACED: dict[str, Probe | None] = {
    "fileio.parse_divide": None,
    "core.validate_divide": None,
    "core.trace_faces": None,
    "core.assign_signs": None,
    "core.invariants": None,
    "geometry.ingest_polyline": lambda d: {"geometry.crossings": len(d.double_points)},
    "agdiagram.build_ag": lambda ag: {"agdiagram.edges": len(ag.edges)},
    "agdiagram.exposure_set": None,
    "agdiagram.depth_labels": None,
    "lattice.milnor_lattice": lambda lat: {
        "lattice.mu": len(lat.i_mat),
        "lattice.nnz_I": sum(1 for row in lat.i_mat for x in row if x),
    },
    "lattice.monodromy": lambda pair: {
        "intmat.max_entry_bits": _max_bits(x for row in pair.m_desc for x in row)
    },
    "lattice.identity_suite": None,
    "intmat.charpoly": lambda coeffs: {"intmat.max_entry_bits": _max_bits(coeffs)},
    "intmat.matrix_order": None,
    "adapted.verify_adapted": None,
    "adapted.exceptional_certificate": None,
    "adapted.depth1_cone": None,
    "report.build_report": None,
    "report.report_json": lambda text: {"report.json_bytes": len(text.encode())},
}

# Counts combine over a pass by summing, except these, which take the maximum.
MAX_COUNTS = {"intmat.max_entry_bits"}
COUNTS = ("lattice.mu", "lattice.nnz_I", "intmat.max_entry_bits", "agdiagram.edges",
          "geometry.crossings", "report.json_bytes")


PACKAGE = "divides"


class Tracer:
    """Wraps the functions of ``TRACED`` while installed; records spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.probe_errors: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, probe: Probe | None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if probe is not None:
                try:
                    got = probe(result)
                except (AttributeError, TypeError, ValueError) as exc:
                    self.probe_errors.append(f"{name}: {exc!r}")
                else:
                    for key, value in got.items():
                        if key in MAX_COUNTS:
                            counts[key] = max(counts.get(key, 0), value)
                        else:
                            counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Bind a wrapper under every name of every traced function."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, probe in TRACED.items():
            mod_name, fn_name = name.split(".")
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(mod, fn_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, probe)
            for m in modules + [mod]:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._bindings.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._bindings):
            setattr(m, attr, fn)
        self._bindings = []

    def take(self) -> tuple[list[list], dict[str, int]]:
        """The spans and counts recorded since the last take, then clear."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times_ms(spans: list[list]) -> dict[str, float]:
    """Summed self time in ms of each span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _parent), inner in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start - inner) * 1000.0
    return out
