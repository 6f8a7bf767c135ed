#!/usr/bin/env python3
"""Closed-loop benchmark of the ``divides`` package: one client, one process.

    python3 bench/run.py --workload sparse-report --seed 1 --seconds 35 --trace 0

Run from the repository root.  The inputs are generated from the seed into
``bench/out/`` and the program only ever reads those files.  Every run
covers whole passes over its workload's fixed input list; a new pass starts
only when one more pass as long as the last fits in ``--seconds`` (the first
pass always runs).  Every operation and every set-up is bracketed by
``calibrate.reference()``, and the timings reported are its wall time scaled
to a host of fixed speed (see ``calibrate``).  The outputs of every pass
are checked after the timed region against ``oracles``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, which are the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate
import inputs
import oracles
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_AT_START = 3
SETUP_SPREAD = 8  # then one more after a pass, at most every seconds / 8
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import divides\n"
    "for p in sys.argv[2:]:\n"
    "    open(p, 'rb').read().decode('utf-8')\n"
)

# Fixed input lists.  Chord arrangements are drawn from fixed keys and only
# presented differently per seed (see inputs.chords).
SPARSE_N = (4, 8, 12, 16, 20, 24, 32)
DENSE_K = ((3, "3"), (4, "4"), (5, "5"), (5, "5b"), (5, "5c"), (6, "6a"), (6, "6b"))
SURVEY_N = (200, 500, 1000)
SURVEY_K = ((10, "10"), (20, "20"), (30, "30"), (40, "40"))

WORKLOADS = ("sparse-report", "dense-report", "depth-survey")


@dataclass
class Item:
    name: str
    path: Path
    a: int  # the singularity is x^a + y^b
    b: int
    d: int  # crossings and branches, known apart from the program
    r: int
    is_a_n: bool

    @property
    def mu(self) -> int:
        return 2 * self.d - self.r + 1

    @property
    def report_path(self) -> Path:
        return self.path.with_suffix(".report.json")


class Failure(str):
    """An operation that raised or exited with a failure code."""


def make_inputs(workload: str, seed: int, where: Path) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sparse-report":
        specs = [("a", n) for n in SPARSE_N]
    elif workload == "dense-report":
        specs = [("k", i) for i in range(len(DENSE_K))]
    else:
        specs = [("a", n) for n in SURVEY_N] + [("k", i) for i in range(len(SURVEY_K))]
    chords_list = DENSE_K if workload == "dense-report" else SURVEY_K
    items = []
    for idx, (kind, arg) in enumerate(specs):
        if kind == "a":
            text = inputs.a_n_text(arg, rng)
            d, r = inputs.a_n_counts(arg)
            name, a, b = f"a{arg}", arg + 1, 2
        else:
            k, key = chords_list[arg]
            ch = inputs.chords(k, key, rng)
            name = f"chords{k}-{key}"
            text = inputs.chords_text(ch, f"{name}-{rng.randrange(16 ** 4):04x}")
            d, r, a, b = k * (k - 1) // 2, k, k, k
        path = where / f"{idx:02d}-{name}.json"
        path.write_text(text)
        items.append(Item(name, path, a, b, d, r, kind == "a"))
    return items


def measure_setup(items: list[Item]) -> tuple[float, float]:
    """(scaled, raw) wall time of a fresh interpreter importing divides and
    reading every input file."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)] + [str(i.path) for i in items]
    ref_before = calibrate.reference()
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode()[-500:]}")
    return calibrate.scale(elapsed, ref_before, calibrate.reference()), elapsed


# ---------------------------------------------------------------------------
# Operations


def report_op(item: Item):
    """The work of ``divides report FILE --json OUT``, through the CLI entry."""
    import divides.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = divides.cli.main(["report", str(item.path), "--json", str(item.report_path)])
    return code


def screen_op(item: Item):
    """Parse, trace faces, sign, count, build the AG diagram, expose, depth."""
    import divides

    text = item.path.read_text()
    divide, diags = divides.parse_divide(text)
    if divide is None:
        raise ValueError(f"parse_divide rejected the input: {diags}")
    faces = divides.trace_faces(divide)
    signed = divides.assign_signs(divide, faces)
    divides.invariants(signed)
    ag = divides.build_ag(signed)
    exposed = divides.exposure_set(signed, ag)
    depths = divides.depth_labels(ag, exposed)
    return text, divide, faces, ag, exposed, depths


def screen_summary(result) -> dict:
    """Plain numbers from a screening result, read off its data fields."""
    _text, divide, faces, ag, exposed, depths = result
    n_term = len(divide.terminals)
    return {
        "V": len(divide.double_points) + n_term,
        "E": len(divide.edges) + n_term,
        "F": len(faces.faces),
        "regions": len(faces.region_indices),
        "census": [sum(v.vtype == t for v in ag.vertices) for t in ("-", "0", "+")],
        "edges": [(e.u, e.v) for e in ag.edges],
        "exposed": sorted(exposed),
        "depth": list(depths.depth),
    }


def round_trip_ok(item: Item, result) -> bool:
    """divide_to_text reproduces a canonical map file byte for byte, and the
    text of an ingested divide parses back to the same text."""
    import divides

    text, divide = result[0], result[1]
    out = divides.divide_to_text(divide)
    if item.is_a_n:
        return out == text
    again, _diags = divides.parse_divide(out)
    return again is not None and divides.divide_to_text(again) == out


@dataclass
class Pass:
    latencies: list[float]  # scaled by calibrate.scale
    raw: list[float]  # wall seconds as measured
    outputs: list  # sha256 of each report or screening summary, or a Failure
    traced: bool
    wall: float  # of the whole pass, reference runs included


def run_pass(workload: str, items: list[Item], first: bool, traced: bool,
             firsts: dict[int, object]) -> Pass:
    """One pass over the items.  The first pass's outputs are kept whole in
    ``firsts`` for the oracles; every pass keeps only their digests."""
    gc.collect()
    started = time.perf_counter()
    lat, outs, refs = [], [], [calibrate.reference()]
    for idx, item in enumerate(items):
        if idx:
            refs.append(calibrate.reference())
        if workload != "depth-survey":
            item.report_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            if workload == "depth-survey":
                result = screen_op(item)
            else:
                result = report_op(item)
        except Exception as exc:  # the benchmark counts any failure and goes on
            lat.append(time.perf_counter() - t0)
            print(f"{item.name}: {exc!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            outs.append(Failure(repr(exc)))
            continue
        lat.append(time.perf_counter() - t0)
        if workload == "depth-survey":
            summary = screen_summary(result)
            data = json.dumps(summary, sort_keys=True).encode()
            if first:
                firsts[idx] = dict(summary, round_trip=round_trip_ok(item, result))
        elif result != 0:
            outs.append(Failure(f"exit code {result}"))
            continue
        else:
            data = item.report_path.read_bytes()
            if first:
                firsts[idx] = data
        outs.append(hashlib.sha256(data).hexdigest())
    refs.append(calibrate.reference())
    scaled = [calibrate.scale(x, refs[i], refs[i + 1]) for i, x in enumerate(lat)]
    return Pass(scaled, lat, outs, traced, time.perf_counter() - started)


def check(workload: str, items: list[Item], passes: list[Pass],
          firsts: dict[int, object]) -> tuple[bool, int]:
    """(correct, failed): pass 1 against the oracles, every pass against pass 1."""
    correct = True
    failed_items = set()
    for idx, item in enumerate(items):
        if idx not in firsts:
            print(f"{item.name}: failed: {passes[0].outputs[idx]}", file=sys.stderr)
            failed_items.add(idx)
            continue
        try:
            if workload == "depth-survey":
                problems = oracles.check_screen(firsts[idx], item.d, item.r, item.is_a_n)
            else:
                problems = oracles.check_report(json.loads(firsts[idx]), item.a, item.b,
                                                item.d, item.r)
        except oracles.OrderCapFault as exc:
            print(f"{item.name}: failed (order cap): {exc}", file=sys.stderr)
            failed_items.add(idx)
            continue
        for p in problems:
            print(f"{item.name}: wrong: {p}", file=sys.stderr)
        correct &= not problems
    failed = 0
    for n, p in enumerate(passes):
        for idx, out in enumerate(p.outputs):
            if out != passes[0].outputs[idx]:
                print(f"{items[idx].name}: pass {n + 1} output differs from pass 1",
                      file=sys.stderr)
                correct = False
            failed += idx in failed_items or isinstance(out, Failure)
    return correct, failed


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(items: list[Item], passes: list[Pass], setup_s: float) -> dict:
    lat = [x for p in passes for x in p.latencies]
    top = max(i.mu for i in items)
    largest = [p.latencies[i] for p in passes for i, it in enumerate(items) if it.mu == top]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(lat) * 1000.0, "unit": "ms"},
        "largest_op_ms": {"value": statistics.median(largest) * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def raw_figures(passes: list[Pass], raw_setups: list[float]) -> str:
    """The unscaled wall-clock figures, for standard error."""
    lat = [x for p in passes for x in p.raw]
    return (f"raw wall time: setup_s {statistics.median(raw_setups):.4f}, "
            f"ops_per_s {len(lat) / sum(lat):.4f}, "
            f"op_ms_p50 {statistics.median(lat) * 1000.0:.2f}")


def per_layer(passes: list[Pass], traced_runs: list[tuple[list, dict]],
              absent: list[str]) -> tuple[dict, bool]:
    """Median self time per pass of each traced function, the counts, and
    the tracing overhead.  Counts must repeat exactly on every traced pass.
    A pass's self times are scaled by the factor that scaled its latencies."""
    metrics = {}
    factors = [sum(p.latencies) / sum(p.raw) for p in passes if p.traced]
    selfs = [{name: ms * f for name, ms in tracer.self_times_ms(spans).items()}
             for (spans, _), f in zip(traced_runs, factors)]
    for name in tracer.TRACED:
        value = statistics.median(s.get(name, 0.0) for s in selfs)
        metrics[f"{name}_ms"] = {"value": value, "unit": "ms"}
    counts = [c for _, c in traced_runs]
    steady = all(c == counts[0] for c in counts)
    for name in tracer.COUNTS:
        metrics[name] = {"value": counts[0].get(name, 0), "unit": "count"}
    plain = [sum(p.latencies) for p in passes if not p.traced]
    traced = [sum(p.latencies) for p in passes if p.traced]
    overhead = (statistics.median(traced) - statistics.median(plain)) * 1000.0
    metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    for name in absent:
        print(f"absent: {name} (reported as 0)", file=sys.stderr)
    return metrics, steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "divides" / "__init__.py").is_file():
        print(f"error: no divides package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import divides.cli  # noqa: F401  (import before timing)

    where = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    items = make_inputs(args.workload, args.seed, where)
    for _ in range(3):  # warm the reference computation
        calibrate.reference()
    # Set-up is timed at the start and again between passes, so that its
    # samples are spread over the run like the operations' are.
    setups = [] if args.trace else [measure_setup(items) for _ in range(SETUP_AT_START)]
    last_setup = time.perf_counter()

    firsts: dict[int, object] = {}
    passes: list[Pass] = []
    traced_runs: list[tuple[list, dict]] = []
    tr = tracer.Tracer()
    start = time.perf_counter()

    def fits(until: float) -> bool:
        return time.perf_counter() + passes[-1].wall <= until

    # Traced runs spend the first half untraced, to measure the overhead.
    plain_until = start + (args.seconds / 2 if args.trace else args.seconds)
    while not passes or fits(plain_until):
        passes.append(run_pass(args.workload, items, not passes, False, firsts))
        if not args.trace and time.perf_counter() - last_setup >= args.seconds / SETUP_SPREAD:
            setups.append(measure_setup(items))
            last_setup = time.perf_counter()
    if args.trace:
        while not passes[-1].traced or fits(start + args.seconds):
            tr.install()
            try:
                passes.append(run_pass(args.workload, items, False, True, firsts))
            finally:
                tr.uninstall()
            traced_runs.append(tr.take())

    correct, failed = check(args.workload, items, passes, firsts)
    if args.trace:
        metrics, steady = per_layer(passes, traced_runs, tr.absent)
        for err in sorted(set(tr.probe_errors)):
            print(f"count probe failed: {err}", file=sys.stderr)
        if not steady:
            print("counts differ between traced passes", file=sys.stderr)
        correct &= steady
        with open(OUT / f"spans-{args.workload}-s{args.seed}.jsonl", "w") as fh:
            for n, (spans, _counts) in enumerate(traced_runs):
                for name, t0, t1, parent in spans:
                    fh.write(json.dumps([n, name, t0, t1, parent]) + "\n")
    else:
        metrics = end_to_end(items, passes, statistics.median(s for s, _ in setups))
        print(raw_figures(passes, [r for _, r in setups]), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": len(passes) * len(items),
        "failed": failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(line + "\n")
    print(f"passes: {len(passes)}", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
