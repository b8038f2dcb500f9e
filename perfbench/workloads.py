"""The three workloads: their inputs, made from the seed, and the checks
for each operation's output.

A workload is one round of CLI operations. A run repeats the round
whole, so every run attempts the same operations in the same shares.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference as ref

# audit: one command samples this many Haar gates, three times the
# command's default. A command takes about 0.12 s at best, short enough to
# catch the machine's quiet moments many times in a run. Each command's PE
# fraction is held to four binomial sigma at this size (0.026); pooled over
# the round's three seeds the band is 0.015, inside the audit's own 0.02
# floor.
AUDIT_SAMPLES = 3000
AUDIT_SEEDS = 3

# analyze: gates per round by kind.
ANALYZE_HAAR = 32
# Near the controlled-unitary line, [theta, c2, 0] with c2 between the two
# thresholds the program uses (1e-9 for the line test, 1e-8 for counting
# Schmidt coefficients). The report says K = 2 but "controlled unitary: no"
# for every one of them, so they are counted as failed operations. Their
# dressing comes from a fixed generator, so they are the same in every run
# whatever the seed.
NEAR_LINE_THETA = 1.0
NEAR_LINE_C2 = (3e-9, 1e-8, 3e-8)
NEAR_LINE_DRESSINGS = 2
NEAR_LINE_SEED = 20030613

# sweep: grid points per edge, plus a seeded offset below SWEEP_JITTER.
# Per-row work is nearly all of a command's time at this size, and a
# command is short enough (about 35 ms at best) that the round's 15
# commands run some 400 times in a run.
SWEEP_POINTS = 1000
SWEEP_JITTER = 64


@dataclass
class Op:
    """One CLI command and how to judge what it printed and wrote."""

    argv: list[str]
    items: int
    # (exit status, stdout, texts of the written files) -> (problems, known fault)
    check: Callable[[int, str, list[str]], tuple[list[str], bool]]
    files: tuple[Path, ...] = ()
    # True for operations that fail because of the near-line fault.
    known_fault: bool = False
    # Operations with equal keys do the same work per item; their times
    # per item are pooled.
    timing_key: str = ""

    def __post_init__(self):
        self.timing_key = self.timing_key or " ".join(self.argv)


def audit_round(seed: int, workdir: Path) -> list[Op]:
    seeds = np.random.default_rng(seed).integers(1, 2**31 - 1, AUDIT_SEEDS)
    ops = []
    # The first seed comes again at the end: its output must repeat byte for byte.
    for k in [*seeds.tolist(), int(seeds[0])]:
        ops.append(Op(
            argv=["audit", "--samples", str(AUDIT_SAMPLES), "--seed", str(k)],
            items=AUDIT_SAMPLES,
            check=lambda rc, out, files, k=k: (
                checks.check_audit(rc, out, AUDIT_SAMPLES, k), False),
            # the seed changes the gates drawn, not the work done
            timing_key=f"audit --samples {AUDIT_SAMPLES}",
        ))
    return ops


def _dressed(rng: np.random.Generator, points) -> np.ndarray:
    """Cores at ``points`` between random local pairs, globally rephased."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    phase = np.exp(2j * np.pi * rng.random(n))[:, None, None]
    return phase * (ref.local_pairs(rng, n) @ ref.core(points) @ ref.local_pairs(rng, n))


def analyze_gates(seed: int):
    """(kind, matrix, known point or None) for one analyze round."""
    rng = np.random.default_rng(seed)
    gates = [("haar", u, None) for u in ref.haar(rng, 4, ANALYZE_HAAR)]
    v = {name: np.array(c) for name, c in ref.VERTICES.items()}
    special = [("chamber vertex", v[name]) for name in ("O", "A1", "A2", "A3")]
    special += [("polyhedron vertex", v[name]) for name in ("L", "M", "N", "P", "Q")]
    for start, end, _ in ref.EDGES.values():
        f = rng.uniform(0.05, 0.95)
        special.append(("edge", v[start] + f * (v[end] - v[start])))
    for facet in ref.PE_FACETS:
        w = rng.dirichlet(np.ones(len(facet)))
        special.append(("PE facet", sum(wi * v[name] for wi, name in zip(w, facet))))
    for (kind, point), u in zip(special, _dressed(rng, [p for _, p in special])):
        gates.append((kind, u, point))
    fixed = np.random.default_rng(NEAR_LINE_SEED)
    near = [[NEAR_LINE_THETA, c2, 0.0] for c2 in NEAR_LINE_C2
            for _ in range(NEAR_LINE_DRESSINGS)]
    for point, u in zip(near, _dressed(fixed, near)):
        gates.append(("near line", u, np.array(point)))
    return gates


def write_gate(path: Path, u: np.ndarray) -> None:
    data = [[[float(z.real), float(z.imag)] for z in row] for row in u]
    path.write_text(json.dumps(data) + "\n")


def analyze_round(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for i, (kind, u, point) in enumerate(analyze_gates(seed)):
        path = workdir / f"gate{i:03d}.json"
        write_gate(path, u)
        fmt = ("text", "json")[i % 2]
        source = str(path)
        ops.append(Op(
            argv=["analyze", source, "--format", fmt],
            items=1,
            check=lambda rc, out, files, fmt=fmt, source=source, u=u, point=point: (
                checks.check_analyze(rc, out, fmt, source, u, point)),
            known_fault=kind == "near line",
        ))
    return ops


def sweep_round(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    names = list(ref.EDGES)
    ops = []
    for j in rng.permutation(len(names)):
        edge = names[j]
        n = SWEEP_POINTS + int(rng.integers(SWEEP_JITTER))
        csv = workdir / f"sweep_{edge}.csv"
        ops.append(Op(
            argv=["sweep", edge, "--n", str(n), "--out", str(csv), "--svg"],
            items=n,
            check=lambda rc, out, files, edge=edge, n=n: (
                checks.check_sweep(rc, out, edge, n, *files), False),
            files=(csv, csv.with_suffix(".svg")),
            # every edge runs the same code per row; only the points differ
            timing_key="sweep",
        ))
    return ops


def check_round(workload: str, ops: list[Op], outputs) -> list[str]:
    """Checks that need the whole round: the audit's PE fraction pooled
    over its distinct seeds."""
    if workload != "audit":
        return []
    distinct = {tuple(op.argv): out for op, (_, out, _) in zip(ops, outputs)}
    return checks.check_audit_pooled(list(distinct.values()), AUDIT_SAMPLES)


ROUNDS = {"audit": audit_round, "analyze": analyze_round, "sweep": sweep_round}
