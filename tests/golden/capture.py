"""The CLI output corpus: each command line below with its exit code,
stdout, stderr and the files it writes, as ``manifest.json`` holds them.

An entry that reads a gate file holds it under ``inputs``, by the relative
name the command line gives, and it is written into the run directory first.
An entry whose files are too large to store verbatim (``digest``) holds each
file's SHA-256 and byte count instead.

``test_golden.py`` reruns every entry and requires the same bytes. After a
deliberate output change, rewrite the manifest and review its diff:

    PYTHONPATH=src python tests/golden/capture.py
"""
from __future__ import annotations

import contextlib
import hashlib
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


def _gate_files() -> dict[str, str]:
    """Gate files by name: four seeded Haar gates, and three that make_gate
    refuses (a NaN entry, an entry of 10**400, and the non-unitary
    diag(1, 1, 1, 2)). The Haar gates come from LAPACK's QR of the seeded
    Ginibre matrix with R's diagonal rephased, the arithmetic they were first
    written with, so their bytes do not follow the sampler's rounding."""
    import numpy as np

    def haar(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr((rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
                            / np.sqrt(2))
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    def dump(matrix) -> str:
        return json.dumps([[[v.real, v.imag] for v in row] for row in matrix.tolist()]) + "\n"

    files = {f"haar{seed}.json": dump(haar(seed)) for seed in range(4)}
    diag = [[[float(i == j) * (2 if i == 3 else 1), 0.0] for j in range(4)] for i in range(4)]
    files["nonunitary.json"] = json.dumps(diag) + "\n"
    files["nan.json"] = files["nonunitary.json"].replace("2.0", "NaN", 1)
    files["huge.json"] = files["nonunitary.json"].replace("2.0", str(10**400), 1)
    return files


# commands that read a gate file, and sweeps whose files are stored as digests
FILE_COMMANDS = [
    *(["analyze", f"haar{seed}.json", *fmt] for seed in range(4)
      for fmt in ([], ["--format", "json"])),
    ["analyze", "nan.json"],
    ["analyze", "huge.json"],
    ["analyze", "nonunitary.json"],
]
DIGEST_COMMANDS = [["sweep", name, "--n", "101", "--out", "e.csv", "--svg"] for name in EDGES]


def run(argv: list[str], cwd: Path, inputs: dict | None = None, digest: bool = False) -> dict:
    """``cli.main(argv)`` run in the empty directory ``cwd`` after writing
    ``inputs`` there: its exit code, stdout, stderr and every other file it
    leaves there, by name, as text or, if ``digest``, as SHA-256 and bytes."""
    from twoqubit.cli import main

    for name, text in (inputs or {}).items():
        (cwd / name).write_text(text, newline="\n")
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(home)
    paths = [p for p in sorted(Path(cwd).iterdir()) if p.name not in (inputs or {})]
    if digest:
        files = {p.name: {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                          "bytes": p.stat().st_size} for p in paths}
    else:
        files = {p.name: p.read_text() for p in paths}
    entry = {"argv": argv, "exit": code, "stdout": out.getvalue(),
             "stderr": err.getvalue(), "files": files}
    if inputs:
        entry["inputs"] = inputs
    if digest:
        entry["digest"] = True
    return entry


def _runs() -> list[tuple]:
    """The corpus as (argv, inputs, digest) triples, in manifest order."""
    gate_files = _gate_files()
    return [*((argv, None, False) for argv in COMMANDS),
            *((argv, {argv[1]: gate_files[argv[1]]}, False) for argv in FILE_COMMANDS),
            *((argv, None, True) for argv in DIGEST_COMMANDS)]


def main() -> int:
    entries = []
    for argv, inputs, digest in _runs():
        with tempfile.TemporaryDirectory() as cwd:
            entries.append(run(argv, Path(cwd), inputs, digest))
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n", newline="\n")
    print(f"wrote {len(entries)} entries to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
