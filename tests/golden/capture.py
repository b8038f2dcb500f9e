"""The CLI output corpus: each command line below with its exit code,
stdout, stderr and the files it writes, as ``manifest.json`` holds them.

``test_golden.py`` reruns every entry and requires the same bytes. After a
deliberate output change, rewrite the manifest and review its diff:

    PYTHONPATH=src python tests/golden/capture.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("manifest.json")

# the fifteen edges, in the order of twoqubit.edges.edge_names()
EDGES = ["OA1", "OA2", "A2A1", "A2A3", "OA3", "A1A3", "LQ", "LM", "A2M", "A2Q", "QP", "MN", "PN",
         "LN", "A2P"]

# the catalog gates, in the order of twoqubit.gates.catalog_names()
GATES = ["identity", "cnot", "cz", "swap", "dcnot", "iswap", "sqrt_swap", "sqrt_iswap"]

COMMANDS = [
    ["audit", "--samples", "1000", "--seed", "42"],
    ["audit", "--samples", "300", "--seed", "42"],
    ["audit", "--samples", "1", "--seed", "7"],
    ["audit", "--samples", "5", "--seed", "1"],
    ["verify-tables", "--n", "97"],
    ["verify-tables", "--n", "2"],
    ["verify-tables", "--n", "1001"],
    ["audit", "--samples", "0"],
    ["audit", "--seed", "-1"],
    ["verify-tables", "--n", "1"],
    # counts that numpy cannot index with, refused by linops.as_scalar
    ["audit", "--samples", str(10**30)],
    ["verify-tables", "--n", str(10**26)],
    ["sweep", "OA1", "--n", str(10**23), "--out", "one.csv"],
    # every edge's CSV and SVG, stored verbatim, and an unknown edge
    *(["sweep", name, "--n", "11", "--out", "e.csv", "--svg"] for name in EDGES),
    ["sweep", "XY", "--n", "5", "--out", "x.csv"],
    # every catalog gate analyzed as text and as JSON, and the catalog itself
    *(["analyze", name] for name in GATES),
    *(["analyze", name, "--format", "json"] for name in GATES),
    ["list-gates"],
    # errors a plain command line reaches: an unknown gate source, a one-point
    # grid, and an output directory that does not exist
    ["analyze", "no-such-gate"],
    ["sweep", "OA1", "--n", "1", "--out", "one.csv"],
    ["sweep", "OA1", "--n", "5", "--out", "missing/e.csv"],
]


def run(argv: list[str], cwd: Path) -> dict:
    """``cli.main(argv)`` run in the empty directory ``cwd``: its exit code,
    stdout, stderr and every file it leaves there, by name."""
    from twoqubit.cli import main

    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(home)
    files = {p.name: p.read_text() for p in sorted(Path(cwd).iterdir())}
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": files}


def main() -> int:
    entries = []
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as cwd:
            entries.append(run(argv, Path(cwd)))
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n", newline="\n")
    print(f"wrote {len(entries)} entries to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
