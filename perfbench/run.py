"""Benchmark of the twoqubit command line, run in-process with one caller.

    python3 perfbench/run.py --workload {audit,analyze,sweep} --seed N
                             --seconds S --trace {0,1}

Builds the workload's inputs from the seed and runs one untimed warm-up
round of CLI operations, then repeats whole rounds in a closed loop (each
operation starts when the previous one has returned) until S seconds have
passed. Set-up is timed in fresh interpreters started between rounds.
Every output is checked against reference computations that do not use
twoqubit. The last line of stdout is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics from traced layer functions with
--trace 1.

Run it from the root of a source tree that holds src/twoqubit; elsewhere
it exits with status 2. See perfbench/README.md for the workloads and the
metrics.
"""
from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy is imported here and
# inherited by every interpreter the benchmark starts.
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(PINNED)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{layer}.self_us_per_item": "us" for layer in
       ("sampling", "gates", "linops", "invariants", "canonical", "schmidt",
        "edges", "svgplot", "audit", "cli")},
    "invariants.invariants_from_unitary_array.calls_per_item": "count",
    "canonical.canonical_points_array.us_per_item": "us",
    "schmidt.schmidt_coefficients_array.us_per_item": "us",
    "schmidt.schmidt_number_from_coefficients.calls_per_item": "count",
    "schmidt.z_from_point_array.us_per_item": "us",
    "edges.sweep.calls_per_command": "count",
    "cli.build_parser.us_per_item": "us",
    "audit.alloc_peak_bytes_per_item": "B",
    "import.numpy_ms": "ms",
    "import.twoqubit_ms": "ms",
    "unattributed.us_per_item": "us",
    "trace.items_per_s": "1/s",
    "trace.overhead_us_per_item": "us",
}
# Fresh interpreters timed for setup_s, spread evenly over the run, after
# one untimed start that fills the page cache and the bytecode cache.
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3
# A latency tail needs at least this many distinct operations in a round.
TAIL_MIN_OPS = 40
# The timed loop moves to the next allowed CPU every this many rounds. The
# machine's other tenants slow each CPU at different times, so best times
# found on either CPU are steadier than those of one. Only the first round
# on a CPU starts with cold caches.
ROUNDS_PER_CPU = 2


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED)
    env.pop("PYTHONSTARTUP", None)
    return env


def time_setup(argv: list[str], problems: list[str]) -> float:
    """Wall time of one fresh ``python -m twoqubit <argv>``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "twoqubit", *argv], env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        problems.append(f"set-up command exited {proc.returncode}: {proc.stderr[-300:]}")
    return elapsed


def import_times() -> dict:
    """Cumulative import times of numpy and of twoqubit without numpy."""
    numpy_us, own_us = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import twoqubit"],
                              env=child_env(), capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        numpy_us.append(cumulative["numpy"])
        own_us.append(cumulative["twoqubit"] - cumulative["numpy"])
    return {"import.numpy_ms": statistics.median(numpy_us) / 1e3,
            "import.twoqubit_ms": statistics.median(own_us) / 1e3}


def run_op(cli, op):
    """Run one CLI operation; return (nanoseconds, (status, stdout, file texts))."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is reported as a wrong output, not raised
            rc = "crash: " + traceback.format_exc(limit=3)
    dt = time.perf_counter_ns() - t0
    files = [p.read_text() if p.exists() else "" for p in op.files]
    return dt, (rc, out.getvalue(), files)


def best_times(ops, latencies: list[int]) -> list[float]:
    """Each operation of the round at its best time, in nanoseconds.

    Operations with the same ``timing_key`` do the same work per item, so
    their times per item are pooled. Taking the fastest of many repeats
    keeps what other tenants of the machine do out of the figures: on a
    shared core the same operation runs up to 1.6 times slower for seconds
    at a time.
    """
    best: dict[str, float] = {}
    for i, dt in enumerate(latencies):
        op = ops[i % len(ops)]
        best[op.timing_key] = min(dt / op.items, best.get(op.timing_key, float("inf")))
    return [best[op.timing_key] * op.items for op in ops]


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten values beyond it. With
    fewer than TAIL_MIN_OPS values no percentile is a tail, and the median
    stands in for it."""
    values = sorted(values)
    return values[-11] if len(values) >= TAIL_MIN_OPS else statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("audit", "analyze", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twoqubit" / "__init__.py").is_file():
        print(f"error: no twoqubit sources at {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import twoqubit
    from twoqubit import cli
    from twoqubit.audit import run_audit

    if Path(twoqubit.__file__).resolve().parent != SRC / "twoqubit":
        print(f"error: imported twoqubit from {twoqubit.__file__}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    problems: list[str] = []
    try:
        ops = workloads.ROUNDS[args.workload](args.seed, workdir)
        tracer = Tracer()
        if args.trace:
            tracer.install()
        else:
            time_setup(ops[0].argv, problems)
        expected = [run_op(cli, op)[1] for op in ops]  # the untimed warm-up round
        tracer.clear()
        gc.collect()

        latencies, setups, mismatched = [], [], set()
        setup_due = 0 if args.trace else SETUP_SAMPLES
        cpus = sorted(os.sched_getaffinity(0))
        start = time.perf_counter()
        while True:
            rounds = len(latencies) // len(ops)
            if rounds % ROUNDS_PER_CPU == 0:
                os.sched_setaffinity(0, {cpus[rounds // ROUNDS_PER_CPU % len(cpus)]})
            for j, op in enumerate(ops):
                tracer.op_id = len(latencies)
                dt, result = run_op(cli, op)
                latencies.append(dt)
                if result != expected[j]:
                    mismatched.add(j)
            elapsed = time.perf_counter() - start
            if len(setups) < setup_due and elapsed >= args.seconds * len(setups) / setup_due:
                setups.append(time_setup(ops[0].argv, problems))
            elif elapsed >= args.seconds:
                break
        os.sched_setaffinity(0, cpus)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds = len(latencies) // len(ops)
        best = best_times(ops, latencies)
        round_items = sum(op.items for op in ops)
        best_rate = round_items / sum(best) * 1e9
        (OUT / f"log-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"argv": [op.argv for op in ops], "latency_ns": latencies,
                        "setup_s": setups}))

        if args.trace:
            tracer.uninstall()
            fastest = [min(range(j, len(latencies), len(ops)), key=latencies.__getitem__)
                       for j in range(len(ops))]
            metrics = tracer.summary(fastest, round_items, len(ops),
                                     sum(latencies[i] for i in fastest))
            metrics["trace.items_per_s"] = best_rate
            metrics["trace.overhead_us_per_item"] = (
                metrics.pop("trace.spans_per_item") * Tracer.span_cost_us())
            metrics.update(import_times())
            metrics["audit.alloc_peak_bytes_per_item"] = 0.0
            if args.workload == "audit":
                import tracemalloc
                samples, seed = ops[0].items, int(ops[0].argv[-1])
                tracemalloc.start()
                run_audit(samples, seed)
                metrics["audit.alloc_peak_bytes_per_item"] = (
                    tracemalloc.get_traced_memory()[1] / samples)
                tracemalloc.stop()
            tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "items_per_s": best_rate,
                "latency_p50_ms": statistics.median(best) / 1e6,
                "latency_tail_ms": tail(best) / 1e6,
                "peak_rss_mb": peak_rss_mb,
            }

        failed_per_round = 0
        for j, op in enumerate(ops):
            found, fault = op.check(*expected[j])
            problems += [f"{' '.join(op.argv)}: {p}" for p in found]
            if fault and op.known_fault:
                failed_per_round += 1
            elif fault:
                problems.append(f"{' '.join(op.argv)}: schmidt number disagrees "
                                "with the controlled-unitary flag")
            if j in mismatched:
                problems.append(f"{' '.join(op.argv)}: output changed between rounds")
        problems += workloads.check_round(args.workload, ops, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * len(ops),
        "failed": rounds * failed_per_round,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
