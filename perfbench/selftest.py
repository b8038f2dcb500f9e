"""Planted-fault self-test of the benchmark's output checkers.

    python3 perfbench/selftest.py

Runs one real operation per checker from the root of the source tree,
confirms that the checker accepts the real output, then plants one fault
at a time and confirms that the checker reports it. Exits with status 1
if a real output is refused or a planted fault goes unnoticed.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_cli(argv: list[str]) -> tuple[int, str]:
    from twoqubit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def planted(text: str, old: str, new: str) -> str:
    """``text`` with the first ``old`` replaced; the fault must take."""
    if old not in text:
        raise AssertionError(f"cannot plant fault: {old!r} not in output")
    return text.replace(old, new, 1)


def main() -> int:
    sys.path.insert(0, str(SRC))
    results = []

    def expect(name: str, problems: list[str], fault_word: str | None) -> None:
        if fault_word is None:
            ok = not problems
        else:
            ok = any(fault_word in p for p in problems)
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {problems[:1] or 'accepted'}")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        workdir = Path(tmp)

        # analyze: a Haar gate, reported as JSON
        kind, u, point = workloads.analyze_gates(1)[0]
        gate = workdir / "gate.json"
        workloads.write_gate(gate, u)
        rc, out = run_cli(["analyze", str(gate), "--format", "json"])
        expect("analyze, real output", checks.check_analyze(rc, out, "json", str(gate), u)[0],
               None)
        report = json.loads(out)
        report["perfect_entangler"] = not report["perfect_entangler"]
        expect("analyze, flipped PE flag",
               checks.check_analyze(rc, json.dumps(report), "json", str(gate), u)[0],
               "hull criterion")
        report = json.loads(out)
        report["schmidt_coefficients"][1] *= 1.001
        expect("analyze, scaled coefficient",
               checks.check_analyze(rc, json.dumps(report), "json", str(gate), u)[0],
               "schmidt coefficients")

        # analyze: the near-line fault is told apart from other problems
        near = [g for g in workloads.analyze_gates(1) if g[0] == "near line"][0]
        workloads.write_gate(gate, near[1])
        rc, out = run_cli(["analyze", str(gate)])
        problems, fault = checks.check_analyze(rc, out, "text", str(gate), near[1], near[2])
        expect("analyze, near-line gate flagged as the known fault",
               problems + ([] if fault else ["near-line fault not flagged"]), None)

        # sweep
        csv = workdir / "sweep.csv"
        n = 101
        rc, out = run_cli(["sweep", "PN", "--n", str(n), "--out", str(csv), "--svg"])
        csv_text, svg_text = csv.read_text(), csv.with_suffix(".svg").read_text()
        expect("sweep, real output", checks.check_sweep(rc, out, "PN", n, csv_text, svg_text),
               None)
        rows = csv_text.split("\n")
        fields = rows[10].split(",")
        fields[3] = repr(float(fields[3]) + 1e-3)  # c3 of row 9
        rows[10] = ",".join(fields)
        expect("sweep, point moved off its edge",
               checks.check_sweep(rc, out, "PN", n, "\n".join(rows), svg_text),
               "off the segment")
        flag = "false" if csv_text.split("\n")[1].endswith("true") else "true"
        rows = csv_text.split("\n")
        rows[1] = rows[1].rsplit(",", 1)[0] + "," + flag
        expect("sweep, flipped is_pe",
               checks.check_sweep(rc, out, "PN", n, "\n".join(rows), svg_text),
               "hull criterion")

        # audit
        argv = ["audit", "--samples", "2000", "--seed", "7"]
        rc, out = run_cli(argv)
        expect("audit, real output", checks.check_audit(rc, out, 2000, 7), None)
        expect("audit, PASS changed to FAIL",
               checks.check_audit(rc, planted(out, "  PASS", "  FAIL"), 2000, 7),
               "check line")

    print(f"{sum(results)} of {len(results)} self-test cases behaved as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
