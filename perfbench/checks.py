"""Output checkers for the three workloads.

Each checker takes what a command printed or wrote, together with the
input the benchmark gave it, and returns a list of problems (empty when
the output is right). Expected values come from ``reference``, never from
the package under test and never from a stored copy of earlier output.
"""
from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref

# The text report prints six decimals; JSON and CSV print 15 significant
# digits. Tolerances are set from those precisions, not from today's output.
TEXT_TOL = 2e-6
TEXT_INV_TOL = 2e-5
FINE_TOL = 1e-8
# Coefficients below this are zero and above SCHMIDT_ON are nonzero for
# every threshold a Schmidt-number count could reasonably use; between the
# two the count is left unchecked.
SCHMIDT_OFF = 1e-12
SCHMIDT_ON = 1e-6


def _close(name: str, got, want, tol: float) -> list[str]:
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    dev = float(np.max(np.abs(got - want)))
    if not dev <= tol:
        return [f"{name}: got {np.round(got, 9).tolist()}, expected "
                f"{np.round(want, 9).tolist()} (deviation {dev:.2e} > {tol:g})"]
    return []


# ---------------------------------------------------------------- analyze

_TEXT_PATTERNS = {
    "source": r"gate: (.*)",
    "point": r"canonical point \[rad\]: \[(.*)\]",
    "g1": r"G1: (\S+) (\S+)i",
    "g2": r"G2: (\S+)",
    "coefficients": r"schmidt coefficients: \[(.*)\]",
    "schmidt_number": r"schmidt number: (\d+)",
    "strength": r"schmidt strength: (\S+)",
    "pe": r"perfect entangler: (yes|no)",
    "controlled": r"controlled unitary: (yes|no)",
}


def parse_analyze(out: str, fmt: str) -> dict:
    """Fields of one analyze report; raises ValueError if one is missing."""
    if fmt == "json":
        d = json.loads(out)
        return {
            "source": d["source"],
            "point": [float(v) for v in d["canonical_point"]],
            "g1": complex(*d["g1"]),
            "g2": float(d["g2"]),
            "coefficients": [float(v) for v in d["schmidt_coefficients"]],
            "schmidt_number": int(d["schmidt_number"]),
            "strength": float(d["schmidt_strength"]),
            "pe": bool(d["perfect_entangler"]),
            "controlled": bool(d["controlled_unitary"]),
        }
    lines = out.splitlines()
    if len(lines) != len(_TEXT_PATTERNS):
        raise ValueError(f"expected {len(_TEXT_PATTERNS)} lines, got {len(lines)}")
    f = {}
    for line, (key, pattern) in zip(lines, _TEXT_PATTERNS.items()):
        m = re.fullmatch(pattern, line)
        if m is None:
            raise ValueError(f"line {line!r} does not match {pattern!r}")
        f[key] = m.groups()
    return {
        "source": f["source"][0],
        "point": [float(v) for v in f["point"][0].split(",")],
        "g1": complex(float(f["g1"][0]), float(f["g1"][1])),
        "g2": float(f["g2"][0]),
        "coefficients": [float(v) for v in f["coefficients"][0].split(",")],
        "schmidt_number": int(f["schmidt_number"][0]),
        "strength": float(f["strength"][0]),
        "pe": f["pe"][0] == "yes",
        "controlled": f["controlled"][0] == "yes",
    }


def check_analyze(rc: int, out: str, fmt: str, source: str, u: np.ndarray,
                  known_point=None) -> tuple[list[str], bool]:
    """Check one analyze report of gate ``u``.

    Returns (problems, schmidt_line_fault). The second item is True when
    the report's Schmidt number and controlled-unitary flag contradict each
    other: the classes with K <= 2 are exactly those on the line
    [theta, 0, 0] (K = 1 at theta = 0, K = 2 elsewhere on it). It is
    returned apart so that the caller can tell a known fault from a new one.
    """
    if rc != 0:
        return [f"exit status {rc}"], False
    try:
        r = parse_analyze(out, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable {fmt} report: {exc}"], False
    tol, inv_tol = (FINE_TOL, FINE_TOL) if fmt == "json" else (TEXT_TOL, TEXT_INV_TOL)
    problems = []
    if r["source"] != source:
        problems.append(f"source {r['source']!r} != {source!r}")
    point = np.array(r["point"])
    if not ref.in_chamber(point, tol):
        problems.append(f"point {point.tolist()} is outside the Weyl chamber")
    if known_point is not None:
        problems += _close("canonical point", point,
                           ref.chamber_representative(known_point), tol)
    g1, g2 = ref.makhlin(u)
    core_g1, core_g2 = ref.makhlin(ref.core(point))
    problems += _close("invariants of the core at the reported point",
                       [core_g1, core_g2], [g1, g2], inv_tol)
    problems += _close("reported G1, G2", [r["g1"], r["g2"]], [g1, g2], tol)
    s = ref.schmidt_coefficients(u)
    problems += _close("schmidt coefficients", r["coefficients"], s, tol)
    problems += _close("schmidt strength", r["strength"], ref.strength(s), tol)
    pe = bool(ref.is_perfect_entangler(u))
    if r["pe"] != pe:
        problems.append(f"perfect entangler {r['pe']}, hull criterion says {pe}")
    k = r["schmidt_number"]
    if k not in (1, 2, 4):
        problems.append(f"schmidt number {k} not in {{1, 2, 4}}")
    if np.all((s < SCHMIDT_OFF) | (s > SCHMIDT_ON)) and k != int(np.sum(s > SCHMIDT_ON)):
        problems.append(f"schmidt number {k}, coefficients {s.tolist()}")
    return problems, (k <= 2) != r["controlled"]


# ------------------------------------------------------------------ sweep

CSV_HEADER = "param,c1,c2,c3,s1,s2,s3,s4,strength,g1_re,g1_im,g2,is_pe"
_SUMMARY = re.compile(
    r"edge (\S+): (\d+) points, strength range \[(\S+), (\S+)\], wrote (.*)"
)
_SVG_NS = "{http://www.w3.org/2000/svg}"


def check_sweep(rc: int, out: str, edge: str, n: int, csv_text: str,
                svg_text: str) -> list[str]:
    """Check one ``sweep <edge> --n <n> --svg`` command's outputs."""
    if rc != 0:
        return [f"exit status {rc}"]
    problems = []
    lines = csv_text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return [f"CSV header {lines[0]!r} or final newline wrong"]
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != n or any(len(row) != 13 for row in rows):
        return [f"CSV has {len(rows)} rows (expected {n}) or a short row"]
    try:
        data = np.array([[float(v) for v in row[:12]] for row in rows])
    except ValueError as exc:
        return [f"CSV holds a non-number: {exc}"]
    flags = [row[12] for row in rows]
    if set(flags) - {"true", "false"}:
        return [f"is_pe column holds {sorted(set(flags))}"]
    is_pe = np.array([f == "true" for f in flags])

    start, end, hi = ref.EDGES[edge]
    params = data[:, 0]
    problems += _close("parameter grid", params, np.linspace(0.0, hi, n), 1e-12)
    a, b = np.array(ref.VERTICES[start]), np.array(ref.VERTICES[end])
    on_edge = a + np.outer(params / hi, b - a)
    points = data[:, 1:4]
    dev = np.max(np.abs(points - on_edge), axis=1)
    if np.max(dev) > 1e-12:
        i = int(np.argmax(dev))
        problems.append(f"row {i}: point {points[i].tolist()} lies {dev[i]:.2e} "
                        f"off the segment {start}{end}")

    cores = ref.core(points)
    s = ref.schmidt_coefficients(cores)
    problems += _close("schmidt coefficients", data[:, 4:8], s, FINE_TOL)
    strengths = data[:, 8]
    problems += _close("schmidt strength", strengths, ref.strength(s), FINE_TOL)
    g1, g2 = ref.makhlin(cores)
    problems += _close("G1", data[:, 9] + 1j * data[:, 10], g1, FINE_TOL)
    problems += _close("G2", data[:, 11], g2, FINE_TOL)
    wrong = np.flatnonzero(is_pe != ref.is_perfect_entangler(cores))
    if wrong.size:
        problems.append(f"is_pe disagrees with the hull criterion on {wrong.size} "
                        f"rows, first row {int(wrong[0])}")

    try:
        polylines = list(ET.fromstring(svg_text).iter(_SVG_NS + "polyline"))
    except ET.ParseError as exc:
        problems.append(f"SVG does not parse: {exc}")
    else:
        counts = [len(p.get("points", "").split()) for p in polylines]
        if counts != [n]:
            problems.append(f"SVG polylines hold {counts} points, expected [{n}]")

    m = _SUMMARY.fullmatch(out.rstrip("\n"))
    if m is None or m.group(1) != edge or int(m.group(2)) != n:
        problems.append(f"summary line {out!r}")
    elif (m.group(3), m.group(4)) != (f"{strengths.min():.6f}", f"{strengths.max():.6f}"):
        problems.append(f"summary range [{m.group(3)}, {m.group(4)}] differs from "
                        f"the CSV's [{strengths.min():.6f}, {strengths.max():.6f}]")
    return problems


# ------------------------------------------------------------------ audit

def pe_band(samples: int) -> float:
    """Four binomial standard deviations at ``samples``, plus the 5e-5
    that printing the fraction to four decimals can add."""
    p = ref.HAAR_PE_FRACTION
    return 4 * math.sqrt(p * (1 - p) / samples) + 5e-5


def check_audit(rc: int, out: str, samples: int, seed: int) -> list[str]:
    """Check one ``audit --samples <samples> --seed <seed>`` report."""
    problems = [] if rc == 0 else [f"exit status {rc}"]
    lines = out.splitlines()
    if not lines or lines[0] != f"audit: samples={samples} seed={seed}":
        return problems + [f"first line {lines[:1]}"]
    if lines[-1] != "audit: PASS":
        problems.append(f"last line {lines[-1]!r}")
    checks = lines[1:-1]
    if not checks or not all(line.startswith("  ") for line in checks):
        return problems + ["no check lines"]
    problems += [f"check line {line.strip()!r}" for line in checks
                 if not line.endswith("  PASS")]
    text = "\n".join(checks)
    hist = re.search(r"histogram \{([^}]*)\}", text)
    if hist is None:
        problems.append("no schmidt-number histogram")
    else:
        pairs = dict(
            tuple(int(v) for v in item.split(":")) for item in hist.group(1).split(",")
        )
        if pairs != {4: samples}:
            problems.append(f"schmidt-number histogram {pairs}, expected {{4: {samples}}}")
    frac = pe_fraction(out)
    if frac is None:
        problems.append("no perfect-entangler fraction")
    elif abs(frac - ref.HAAR_PE_FRACTION) > pe_band(samples):
        problems.append(f"PE fraction {frac} is more than {pe_band(samples):.4f} "
                        f"from {ref.HAAR_PE_FRACTION}")
    return problems


def pe_fraction(out: str) -> float | None:
    m = re.search(r"perfect-entangler fraction: fraction (\S+)", out)
    return None if m is None else float(m.group(1))


def check_audit_pooled(outs: list[str], samples: int) -> list[str]:
    """The mean PE fraction of audits of ``samples`` gates each, with
    distinct seeds, against four binomial sigma at the pooled count."""
    fractions = [pe_fraction(out) for out in outs]
    if None in fractions:
        return ["no perfect-entangler fraction"]
    mean, band = sum(fractions) / len(fractions), pe_band(samples * len(outs))
    if abs(mean - ref.HAAR_PE_FRACTION) > band:
        return [f"pooled PE fraction {mean:.5f} over {len(outs)} seeds is more than "
                f"{band:.4f} from {ref.HAAR_PE_FRACTION}"]
    return []
