"""Command-line interface.

Subcommands: analyze, sweep, verify-tables, audit, list-gates.

Exit codes: 0 success, 1 parse error, 2 validation error (a count that
no memory can hold included), 3 numerical error (an extraction or G2
residue beyond its tolerance, as ``NumericalError``, or numpy's
``LinAlgError``), 4 output that cannot be written, stdout included, 5
table verification failure, 6 audit property violation. ``main`` alone maps
errors to codes, and it flushes stdout, so a failed write to it exits 4 too.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audit import run_audit
from .canonical import ClassData
from .edges import sweep, verify_tables, write_edge_svg
from .errors import NumericalError, ParseError, ValidationError
from .gates import catalog, catalog_names, gate_from_json_data, gate_to_json_data

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_TABLES = 5
EXIT_AUDIT = 6


def _round15(x: float) -> float:
    # -0.0 + 0.0 = 0.0, as in _disp
    return float(f"{x:.15g}") + 0.0


def report_json(data: ClassData, source: str) -> str:
    """The report as ``json.dumps(payload, indent=2)`` and a newline; every float
    rounded to 15 significant digits, and finite, so it is plain JSON."""
    payload = {
        "source": source,
        "canonical_point": [_round15(v) for v in data.points.tolist()],
        "g1": [_round15(data.g1.real), _round15(data.g1.imag)],
        "g2": _round15(data.g2),
        "schmidt_coefficients": [_round15(v) for v in data.s.tolist()],
        "schmidt_number": int(data.schmidt_number),
        "schmidt_strength": _round15(data.strength),
        "perfect_entangler": bool(data.is_pe),
        "controlled_unitary": bool(data.controlled_unitary),
    }
    return json.dumps(payload, indent=2) + "\n"


def _disp(x: float) -> float:
    # flush display noise below the printed precision; -0.0 + 0.0 = 0.0
    return round(float(x), 12) + 0.0


def report_text(data: ClassData, source: str, degrees: bool = False) -> str:
    point = ", ".join(f"{_disp(math.degrees(v) if degrees else v):.6f}" for v in data.points)
    coeffs = ", ".join(f"{_disp(v):.6f}" for v in data.s)
    lines = [
        f"gate: {source}",
        f"canonical point [{'deg' if degrees else 'rad'}]: [{point}]",
        f"G1: {_disp(data.g1.real):.6f} {_disp(data.g1.imag):+.6f}i",
        f"G2: {_disp(data.g2):.6f}",
        f"schmidt coefficients: [{coeffs}]",
        f"schmidt number: {int(data.schmidt_number)}",
        f"schmidt strength: {_disp(data.strength):.6f}",
        f"perfect entangler: {'yes' if data.is_pe else 'no'}",
        f"controlled unitary: {'yes' if data.controlled_unitary else 'no'}",
    ]
    return "\n".join(lines) + "\n"


def _load_gate(source: str) -> np.ndarray:
    """Resolve a gate source: a catalog name first, then a JSON file path."""
    if source in catalog_names():
        return catalog(source)
    try:
        data = json.loads(Path(source).read_text())
    except OSError as exc:
        raise ParseError(
            f"{source!r} is neither a catalog name ({', '.join(catalog_names())}) "
            f"nor a readable file: {exc}"
        ) from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"invalid JSON in {source}: {exc}") from None
    return gate_from_json_data(data)


def _cmd_analyze(args) -> int:
    data = ClassData.from_unitaries(_load_gate(args.source))
    if args.format == "json":
        sys.stdout.write(report_json(data, args.source))
    else:
        sys.stdout.write(report_text(data, args.source, degrees=args.degrees))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    out = Path(args.out)
    # lowercased: x.SVG and x.svg are one file on a case-insensitive filesystem
    if args.svg and out.suffix.lower() == ".svg":
        raise ValidationError(f"the CSV path {out} and the SVG path {out.with_suffix('.svg')} "
                              "can be one file; give --out a suffix other than .svg")
    params, strength = sweep(args.edge, args.n, out)
    if args.svg:
        write_edge_svg(args.edge, params, strength, out.with_suffix(".svg"))
    written = str(out) + (f" and {out.with_suffix('.svg')}" if args.svg else "")
    print(f"edge {args.edge}: {args.n} points, strength range "
          f"[{strength.min():.6f}, {strength.max():.6f}], wrote {written}")
    return EXIT_OK


def _cmd_verify_tables(args) -> int:
    report = verify_tables(args.n)
    for check in report.checks:
        print(f"edge {check.name:4s}: {check.detail}  {'ok' if check.passed else 'FAIL'}")
    if report.passed:
        print(f"PASS: {len(report.checks)} edges within {report.checks[0].tolerance:g} "
              f"on {args.n}-point grids")
        return EXIT_OK
    # the largest deviation, the first NaN if there is one, as in Check.worst_row
    worst = report.checks[int(np.argmax([c.value for c in report.checks]))]
    print(f"FAIL: edge {worst.name} deviates by {worst.value:.3e} at parameter {worst.where:.9f}",
          file=sys.stderr)
    return EXIT_TABLES


def _cmd_audit(args) -> int:
    report = run_audit(args.samples, args.seed)
    print(f"audit: samples={args.samples} seed={args.seed}")
    for check in report.checks:
        print(f"  {check.name}: {check.detail}  {'PASS' if check.passed else 'FAIL'}")
    if report.passed:
        print("audit: PASS")
        return EXIT_OK
    print("audit: FAIL")
    if report.counterexample is not None:
        path = Path(args.dump) if args.dump else Path("audit_counterexample.json")
        path.write_text(json.dumps(gate_to_json_data(report.counterexample)) + "\n",
                        newline="\n")
        print(f"counterexample gate written to {path}")
    return EXIT_AUDIT


def _cmd_list_gates(args) -> int:
    names = catalog_names()
    data = ClassData.from_unitaries([catalog(name) for name in names])
    for name, point, is_pe in zip(names, data.points, data.is_pe):
        pe = "PE" if is_pe else "--"
        print(f"{name:11s} [{point[0]:.6f}, {point[1]:.6f}, {point[2]:.6f}]  {pe}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoqubit",
        description="Nonlocal structure of two-qubit gates: canonical "
        "coordinates, local invariants, operator-Schmidt data and "
        "perfect-entangler classification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a catalog gate or JSON file")
    p.add_argument("source", help="catalog name or path to a gate JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--degrees", action="store_true", help="display angles in degrees (text only)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="sweep one edge and write CSV (and SVG)")
    p.add_argument("edge", help="edge name, e.g. OA1 or PN")
    p.add_argument("--n", type=int, default=101, help="grid points (default 101)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", action="store_true", help="also write an SVG plot")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-tables",
                       help="check closed-form edge coefficients against the engine")
    p.add_argument("--n", type=int, default=97, help="grid points per edge")
    p.set_defaults(func=_cmd_verify_tables)

    p = sub.add_parser("audit", help="seeded randomized property audit")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--dump", help="where to write a counterexample gate on failure")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("list-gates", help="list catalog gates with their coordinates")
    p.set_defaults(func=_cmd_list_gates)

    return parser


# parse_args leaves the parser unchanged, so one build serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, MemoryError) as exc:
        # MemoryError: a count below 2**63 that no memory can hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # any output, stdout included; _load_gate's read failure is a ParseError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # text a failed write left buffered goes to devnull, not to a second
            # failure and exit 120 at exit; a stdout with no descriptor is kept
            with contextlib.suppress(OSError), open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_IO
