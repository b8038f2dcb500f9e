"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload analyze --seeds 1-10 [--seconds 30]

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
quartile distance as a share of the median, together with the share of
failed operations. Each run's result line is appended to
perfbench/out/spread-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()

    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        with log.open("a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"all correct: {all(r['correct'] for r in results)}; failed shares: {sorted(shares)}")
    print(f"{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
