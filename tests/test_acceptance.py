"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 6 checks the perfect-entangler share of the Weyl chamber under
both measures it is quoted in. The 0.50 +/- 0.02 target is the flat-volume
figure: the polyhedron L M N P Q A2 fills exactly half the chamber by
volume (Zhang et al., PRA 67, 042313 (2003)), so half of the points drawn
uniformly from the chamber are perfect entanglers. Under the Haar-induced
chamber density the same polyhedron weighs 0.848826 (Musz, Kus, Zyczkowski,
PRA 87, 022111 (2013); ``twoqubit.audit.HAAR_PE_FRACTION``), and the
Haar-random draw is held to that value within four binomial standard
deviations.
"""
import itertools
import time

import numpy as np

from twoqubit import (
    canonical_gate,
    catalog,
    invariants_from_point,
    invariants_from_unitary,
    is_perfect_entangler,
    schmidt_decompose,
    verify_tables,
    z_from_point,
)
from twoqubit.audit import HAAR_PE_FRACTION
from twoqubit.canonical import (
    TETRAHEDRON_VERTICES,
    canonical_points_array,
    is_perfect_entangler_array,
    weyl_reduce_array,
)
from twoqubit.cli import main
from twoqubit.edges import POLYHEDRON_EDGES, edge, emit_figure_data
from twoqubit.invariants import (
    invariants_from_point_array,
    invariants_from_unitary_array,
    invariants_from_z_array,
)
from twoqubit.sampling import haar_unitary, random_local_unitary
from twoqubit.schmidt import (
    schmidt_coefficients_array,
    schmidt_number_from_coefficients,
    schmidt_strength_array,
    z_from_point_array,
)

PI = np.pi
SQ2 = 1 / np.sqrt(2)


def _report(number: int, ok: bool, detail: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_table_oracle_equivalence():
    start = time.perf_counter()
    report = verify_tables(97)
    elapsed = time.perf_counter() - start
    worst = max(c.value for c in report.checks)
    ok = report.passed and worst <= 1e-10 and elapsed < 1.0
    assert _report(
        1,
        ok,
        f"15 edges, max deviation {worst:.3e} <= 1e-10, "
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_2_named_gate_golden_values():
    tol = 1e-9
    failures = []

    def check(label, value, expected):
        if np.max(np.abs(np.asarray(value) - np.asarray(expected))) > tol:
            failures.append(f"{label}: {value} != {expected}")

    cnot = catalog("cnot")
    point = canonical_points_array(cnot)
    check("cnot point", point, [PI / 2, 0, 0])
    g1, g2 = invariants_from_unitary(cnot)
    check("cnot G1", [g1.real, g1.imag], [0, 0])
    check("cnot G2", g2, 1.0)
    data = schmidt_decompose(cnot)
    check("cnot s", data.coefficients, [SQ2, SQ2, 0, 0])
    check("cnot K", data.strength, 1.0)
    if is_perfect_entangler(point) is not True:
        failures.append("cnot PE flag")

    swap = catalog("swap")
    point = canonical_points_array(swap)
    check("swap point", point, [PI / 2, PI / 2, PI / 2])
    data = schmidt_decompose(swap)
    check("swap s", data.coefficients, [0.5, 0.5, 0.5, 0.5])
    check("swap K", data.strength, 2.0)
    if is_perfect_entangler(point) is not False:
        failures.append("swap PE flag")

    dcnot = catalog("dcnot")
    point = canonical_points_array(dcnot)
    check("dcnot point", point, [PI / 2, PI / 2, 0])
    check("dcnot K", schmidt_decompose(dcnot).strength, 2.0)
    if is_perfect_entangler(point) is not True:
        failures.append("dcnot PE flag")

    ident = catalog("identity")
    data = schmidt_decompose(ident)
    check("identity K", data.strength, 0.0)
    if data.schmidt_number != 1:
        failures.append("identity schmidt number")

    assert _report(2, not failures, "CNOT/SWAP/DCNOT/identity golden values at 1e-9"), failures


def test_criterion_3_three_route_consistency():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    gates = haar_unitary(rng, 4, 1000)
    g1_u, g2_u = invariants_from_unitary_array(gates)
    points = canonical_points_array(gates)
    g1_c, g2_c = invariants_from_point_array(points)
    z = z_from_point_array(points)
    g1_z, g2_z = invariants_from_z_array(z)
    deviation = max(
        float(np.max(np.abs(a - b)))
        for a, b in itertools.combinations([g1_u, g1_c, g1_z], 2)
    )
    deviation = max(
        deviation,
        max(
            float(np.max(np.abs(a - b)))
            for a, b in itertools.combinations([g2_u.real, g2_c, g2_z.real], 2)
        ),
    )
    elapsed = time.perf_counter() - start
    ok = deviation <= 1e-8 and elapsed < 10.0
    assert _report(
        3,
        ok,
        f"1000 Haar gates, max pairwise route deviation {deviation:.3e} <= 1e-8, "
        f"{elapsed:.2f} s",
    )


def test_criterion_4_local_equivalence_invariance():
    rng = np.random.default_rng(4242)
    gates = haar_unitary(rng, 4, 500)
    dressed = random_local_unitary(rng, 500) @ gates @ random_local_unitary(rng, 500)
    coeff_dev = float(
        np.max(
            np.abs(
                schmidt_coefficients_array(gates) - schmidt_coefficients_array(dressed)
            )
        )
    )
    g1_a, g2_a = invariants_from_unitary_array(gates)
    g1_b, g2_b = invariants_from_unitary_array(dressed)
    inv_dev = float(
        max(np.max(np.abs(g1_a - g1_b)), np.max(np.abs(g2_a.real - g2_b.real)))
    )
    ok = coeff_dev <= 1e-9 and inv_dev <= 1e-9
    assert _report(
        4,
        ok,
        f"500 dressed gates: coefficient deviation {coeff_dev:.3e}, "
        f"invariant deviation {inv_dev:.3e}, both <= 1e-9",
    )


def test_criterion_5_schmidt_number_classification():
    rng = np.random.default_rng(5)
    start = time.perf_counter()

    gates = haar_unitary(rng, 4, 100_000)
    coeffs = schmidt_coefficients_array(gates)
    numbers = np.fromiter(
        (schmidt_number_from_coefficients(row) for row in coeffs),
        dtype=int,
        count=len(coeffs),
    )
    random_ok = bool(np.all(np.isin(numbers, (1, 2, 4))))

    # theta uniform in (0, pi/2]; include the right endpoint explicitly
    thetas = np.append(rng.uniform(0.0, PI / 2, 999), PI / 2)
    thetas = np.where(thetas > 0.0, thetas, PI / 4)
    line_gates = np.stack([canonical_gate((t, 0.0, 0.0)) for t in thetas])
    line_numbers = [
        schmidt_number_from_coefficients(row)
        for row in schmidt_coefficients_array(line_gates)
    ]
    line_ok = all(n == 2 for n in line_numbers)

    interior = []
    while len(interior) < 1000:
        c = weyl_reduce_array(rng.uniform(0.0, PI, (4000, 3)))
        keep = np.hypot(c[:, 1], c[:, 2]) >= 0.1
        interior.extend(c[keep].tolist())
    interior = np.asarray(interior[:1000])
    interior_gates = np.stack([canonical_gate(c) for c in interior])
    interior_numbers = [
        schmidt_number_from_coefficients(row)
        for row in schmidt_coefficients_array(interior_gates)
    ]
    interior_ok = all(n == 4 for n in interior_numbers)

    elapsed = time.perf_counter() - start
    ok = random_ok and line_ok and interior_ok and elapsed < 60.0
    hist = {int(v): int(np.sum(numbers == v)) for v in sorted(set(numbers))}
    assert _report(
        5,
        ok,
        f"1e5 random gates {hist}; controlled line all 2: {line_ok}; "
        f"interior all 4: {interior_ok}; {elapsed:.1f} s",
    )


def test_criterion_6_perfect_entangler_volume():
    samples = 100_000
    rng = np.random.default_rng(6)

    gates = haar_unitary(rng, 4, samples)
    points = canonical_points_array(gates)
    haar_fraction = float(np.mean(is_perfect_entangler_array(points)))
    haar_band = 4 * np.sqrt(HAAR_PE_FRACTION * (1 - HAAR_PE_FRACTION) / samples)
    haar_ok = abs(haar_fraction - HAAR_PE_FRACTION) <= haar_band

    # uniform Dirichlet weights on the vertices are flat-uniform in the chamber
    vertices = np.array([list(v) for v in TETRAHEDRON_VERTICES.values()])
    flat_points = rng.dirichlet(np.ones(4), samples) @ vertices
    flat_fraction = float(np.mean(is_perfect_entangler_array(flat_points)))
    flat_ok = abs(flat_fraction - 0.5) <= 0.02

    detail = (
        f"flat-volume PE fraction {flat_fraction:.4f} vs 0.50 +/- 0.02; "
        f"Haar PE fraction {haar_fraction:.4f} vs {HAAR_PE_FRACTION:.4f} "
        f"+/- {haar_band:.4f} (4 sigma)"
    )
    _report(6, flat_ok and haar_ok, detail)
    assert flat_ok, (
        f"flat-uniform chamber points: PE fraction {flat_fraction:.4f}, not "
        "0.50 +/- 0.02; the polyhedron fills half the chamber by volume"
    )
    assert haar_ok, (
        f"Haar-random gates: PE fraction {haar_fraction:.4f}, not "
        f"{HAAR_PE_FRACTION:.4f} +/- {haar_band:.4f}, the polyhedron's weight "
        "under the Haar-induced chamber density"
    )


def test_criterion_6_companion_true_statements():
    # what does hold: (a) flat chamber volume ratio is exactly 1/2;
    # (b) the Haar fraction matches the density integral value 0.848826
    tets = {
        "chamber": np.array([[0, 0, 0], [PI, 0, 0], [PI / 2, PI / 2, 0], [PI / 2, PI / 2, PI / 2]]),
    }
    chamber_vol = abs(np.linalg.det(tets["chamber"][1:] - tets["chamber"][0])) / 6
    pe_tets = [
        np.array([[PI / 2, 0, 0], [3 * PI / 4, PI / 4, 0], [3 * PI / 4, PI / 4, PI / 4], [PI / 2, PI / 2, 0]]),
        np.array([[PI / 2, 0, 0], [3 * PI / 4, PI / 4, PI / 4], [PI / 4, PI / 4, PI / 4], [PI / 2, PI / 2, 0]]),
        np.array([[PI / 2, 0, 0], [PI / 4, PI / 4, PI / 4], [PI / 4, PI / 4, 0], [PI / 2, PI / 2, 0]]),
    ]
    pe_vol = sum(abs(np.linalg.det(t[1:] - t[0])) / 6 for t in pe_tets)
    assert abs(pe_vol / chamber_vol - 0.5) < 1e-12

    rng = np.random.default_rng(66)
    gates = haar_unitary(rng, 4, 100_000)
    fraction = float(np.mean(is_perfect_entangler_array(canonical_points_array(gates))))
    assert abs(fraction - 0.848826) <= 0.004
    print(
        f"criterion 6 companion: flat volume ratio 1/2 exact; "
        f"Haar fraction {fraction:.4f} matches density integral 0.848826"
    )


def test_criterion_7_figure_reproduction():
    failures = []

    def strengths(figure, column):
        text = emit_figure_data(figure, 201)
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        return np.array([float(r[column]) for r in rows])

    oa2 = strengths("fig2", 2)
    if not (abs(oa2[0]) <= 1e-12 and abs(oa2[-1] - 2.0) <= 1e-12 and np.all(np.diff(oa2) > 0)):
        failures.append("fig2 OA2 not monotone 0 -> 2")

    for figure in ("fig3a", "fig3b"):
        vals = strengths(figure, 1)
        if not (np.all(np.diff(vals) > 0) or np.all(np.diff(vals) < 0)):
            failures.append(f"{figure} not monotonic")
    for figure in ("fig4a", "fig4b"):
        for column in (1, 2):
            vals = strengths(figure, column)
            if not (np.all(np.diff(vals) > 0) or np.all(np.diff(vals) < 0)):
                failures.append(f"{figure} column {column} not monotonic")

    pn = strengths("fig5b", 1)
    if np.max(np.abs(pn - pn[::-1])) > 1e-10:
        failures.append("fig5b PN not symmetric")
    if not (np.any(np.diff(pn) > 0) and np.any(np.diff(pn) < 0)):
        failures.append("fig5b PN unexpectedly monotonic")

    for name in POLYHEDRON_EDGES:
        spec = edge(name)
        t = np.linspace(*spec.param_range, 201)
        s = np.abs(z_from_point_array(spec.point_fn(t)))
        k = schmidt_strength_array(s)
        if np.min(k) < 1.0 - 1e-10 or np.max(k) > 2.0 + 1e-10:
            failures.append(f"{name} strength outside [1, 2]")

    assert _report(
        7,
        not failures,
        "figure curves: OA2 rises 0 -> 2, fig3/fig4 monotonic, PN symmetric "
        "non-monotonic, polyhedron strengths within [1, 2]",
    ), failures


def test_criterion_8_shared_coefficients_inequivalent_witness():
    alpha = 0.5
    p_oa3 = edge("OA3").point_fn(np.array(alpha))
    p_a1a3 = edge("A1A3").point_fn(np.array(alpha))
    s_a = np.sort(np.abs(z_from_point(p_oa3)))[::-1]
    s_b = np.sort(np.abs(z_from_point(p_a1a3)))[::-1]
    coeff_dev = float(np.max(np.abs(s_a - s_b)))
    g1_gap = abs(invariants_from_point(p_oa3)[0] - invariants_from_point(p_a1a3)[0])
    ok = coeff_dev <= 1e-12 and g1_gap > 1e-3
    assert _report(
        8,
        ok,
        f"alpha = 1/2: coefficient deviation {coeff_dev:.2e} <= 1e-12, "
        f"|dG1| = {g1_gap:.3f} > 1e-3",
    )


def test_criterion_9_audit_determinism(capsys):
    code1 = main(["audit", "--samples", "1000", "--seed", "42"])
    out1 = capsys.readouterr().out
    code2 = main(["audit", "--samples", "1000", "--seed", "42"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    with capsys.disabled():
        _report(9, ok, "two audit runs (samples=1000, seed=42) byte-identical, exit 0")
    assert ok
