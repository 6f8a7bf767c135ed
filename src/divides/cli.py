"""Command line front end.

Exit codes are a stable contract: 0 all checks pass, 1 a verification suite
failed, 2 invalid input, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path
from typing import NoReturn

from . import __version__
from .agdiagram import to_dot
from .adapted import quiver_dot
from .core import Divide, DivideError, assign_signs, trace_faces
from .fileio import divide_to_text, parse_divide
from .report import (
    build_report,
    check_entry,
    input_digest,
    report_json,
    run_pipeline,
)

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_INVALID = 2
EXIT_IO = 3

CORPUS_DIR_ENV = "DIVIDES_CORPUS_DIR"


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _write(path: str, text: str) -> None:
    try:
        if path == "-":
            sys.stdout.write(text)
        else:
            Path(path).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _parse_reorders(specs: list[str]) -> dict[str, tuple[int, ...]]:
    """TYPE:PERM specs as permutations by type; each index is a run of ASCII
    digits, which ``int`` alone would widen to signs, spaces, underscores
    and other scripts' digits."""
    perms: dict[str, tuple[int, ...]] = {}
    for spec in specs:
        try:
            vtype, perm = spec.split(":", 1)
            if vtype not in ("-", "0", "+"):
                raise ValueError(vtype)
            if vtype in perms:
                print(f"error: --reorder given twice for type {vtype!r}", file=sys.stderr)
                raise SystemExit(EXIT_INVALID)
            indices = perm.split(",")
            if not all(x.isascii() and x.isdigit() for x in indices):
                raise ValueError(perm)
            perms[vtype] = tuple(map(int, indices))
        except ValueError:
            print(f"error: bad --reorder spec {spec!r}", file=sys.stderr)
            raise SystemExit(EXIT_INVALID)
    return perms


VALUE_OPTIONS = ("--json", "--dot-ag", "--dot-quiver", "--reorder")


def _join_option_values(argv: list[str]) -> list[str]:
    """Rewrite ``--option VALUE`` as ``--option=VALUE`` for VALUE_OPTIONS.

    argparse takes a separate token such as ``-:2,1`` or ``-out.json`` for an
    unknown option and leaves the option without its value; the joined form
    is read as the value whatever it starts with.  Abbreviations such as
    ``--reo`` are joined too, and argparse resolves them.  A token starting
    with ``--`` is left to be read as the next option, as is everything after
    a bare ``--``.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            return out + argv[i:]
        takes_value = tok.startswith("--") and any(o.startswith(tok) for o in VALUE_OPTIONS)
        if takes_value and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _invalid(diagnostics) -> NoReturn:
    for d in diagnostics:
        print(f"invalid: {d}", file=sys.stderr)
    raise SystemExit(EXIT_INVALID)


def _load(path: str) -> tuple[bytes, Divide]:
    """The bytes of a divide file and the divide they hold; a file that does
    not parse prints its diagnostics and exits with EXIT_INVALID."""
    data = _read(path)
    divide, diags = parse_divide(data.decode("utf-8", errors="replace"))
    if divide is None:
        _invalid(diags)
    return data, divide


def cmd_validate(args) -> int:
    _data, divide = _load(args.path)
    try:
        assign_signs(divide, trace_faces(divide))
    except DivideError as exc:
        _invalid(exc.diagnostics)
    print(f"{divide.name}: valid divide")
    return EXIT_OK


def cmd_report(args) -> int:
    outputs = {"--json": args.json, "--dot-ag": args.dot_ag, "--dot-quiver": args.dot_quiver}
    for option, path in outputs.items():
        if path == "":
            print(f"error: {option} needs a file path or '-'", file=sys.stderr)
            return EXIT_INVALID
    to_stdout = list(outputs.values()).count("-")
    if to_stdout > 1:
        print("error: at most one of --json, --dot-ag and --dot-quiver may be '-'",
              file=sys.stderr)
        return EXIT_INVALID
    data, divide = _load(args.path)
    reorder = _parse_reorders(args.reorder or [])
    try:
        result = run_pipeline(divide, reorder=reorder or None)
    except DivideError as exc:
        _invalid(exc.diagnostics)
    report = build_report(result, __version__, input_digest(data))
    if args.json:
        _write(args.json, report_json(report))
    if args.dot_ag:
        _write(args.dot_ag, to_dot(result.ag, result.depths))
    if args.dot_quiver:
        labels = [v.label for v in result.ag.vertices]
        _write(args.dot_quiver, quiver_dot(result.quiver, labels))
    verdicts = {**result.verdicts, "overall": result.all_passed}
    # With a document on stdout, the summary goes to stderr so that stdout
    # holds exactly that document.
    print(
        f"{divide.name}: mu={result.inv.mu} depth={result.depths.diagram_depth} "
        + " ".join(f"{name}={'pass' if ok else 'fail'}" for name, ok in verdicts.items()),
        file=sys.stderr if to_stdout else sys.stdout,
    )
    return EXIT_OK if result.all_passed else EXIT_SUITE_FAIL


def cmd_generate(args) -> int:
    from .corpus import gen_a, gen_depth1, gen_e6

    if args.family == "a":
        if args.n is None or args.n < 1:
            print("error: family 'a' needs a positive n", file=sys.stderr)
            return EXIT_INVALID
        entry = gen_a(args.n)
    elif args.n is not None:
        print(f"error: family {args.family!r} takes no index", file=sys.stderr)
        return EXIT_INVALID
    else:
        entry = gen_e6() if args.family == "e6" else gen_depth1()
    sys.stdout.write(divide_to_text(entry.divide))
    return EXIT_OK


def _check_file(path: Path) -> list[str]:
    """The problems of a divide file: its parse diagnostics, or what
    ``check_entry`` finds in the divide with no expected facts."""
    from .corpus import CorpusEntry

    divide, diags = parse_divide(_read(str(path)).decode("utf-8", errors="replace"))
    if divide is None:
        return list(diags)
    return check_entry(CorpusEntry(path.name, divide, {}, {}))


def cmd_corpus_run(args) -> int:
    from .corpus import builtin_entries

    checks = [(e.name, functools.partial(check_entry, e)) for e in builtin_entries()]
    custom_dir = os.environ.get(CORPUS_DIR_ENV)  # an empty value means unset
    if custom_dir:
        if not Path(custom_dir).is_dir():
            print(f"error: {CORPUS_DIR_ENV}={custom_dir} is not a directory", file=sys.stderr)
            return EXIT_IO
        for path in sorted(Path(custom_dir).glob("*.json")):
            checks.append((path.name, functools.partial(_check_file, path)))

    all_ok = True
    rows: list[tuple[str, str, float]] = []
    for name, check in checks:
        t0 = time.perf_counter()
        problems = check()
        dt = (time.perf_counter() - t0) * 1000
        ok = not problems
        all_ok &= ok
        rows.append((name, "pass" if ok else "fail", dt))
        for p in problems:
            print(f"  {name}: {p}", file=sys.stderr)

    width = max(len(r[0]) for r in rows)
    for name, status, dt in rows:
        print(f"{name:<{width}}  {status}  {dt:8.1f} ms")
    print(f"{'total':<{width}}  {'pass' if all_ok else 'fail'}")
    return EXIT_OK if all_ok else EXIT_SUITE_FAIL


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Parsing leaves it as it
    was: each ``parse_args`` call fills a new namespace."""
    parser = argparse.ArgumentParser(
        prog="divides",
        description="Divides of plane curve singularities: diagrams, lattices, "
        "and exceptional collection data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a divide file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="run the full pipeline on a divide file")
    p.add_argument("path")
    p.add_argument("--json", help="write the JSON report here ('-' for stdout)")
    p.add_argument("--dot-ag", help="write the AG diagram DOT here")
    p.add_argument("--dot-quiver", help="write the Euler quiver DOT here")
    p.add_argument(
        "--reorder",
        action="append",
        metavar="TYPE:PERM",
        help="permute same-type vertices, e.g. '--reorder 0:2,1,3 "
        "--reorder -:2,1' (once per type)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("generate", help="emit a built-in divide file")
    p.add_argument("family", choices=["a", "e6", "depth1"])
    p.add_argument("n", nargs="?", type=int, help="index for the 'a' family")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("corpus-run", help="run the pipeline over all built-ins")
    p.set_defaults(func=cmd_corpus_run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_join_option_values(argv))
    except SystemExit as exc:
        if exc.code == 0:  # --help and --version have printed what was asked
            raise
        return EXIT_INVALID  # argparse has printed the usage error
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
