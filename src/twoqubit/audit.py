"""Randomized self-audit: the library's key claims checked on seeded
random gates.

Checks, over ``samples`` Haar-random gates:
  * the three invariant routes (matrix, coordinates, expansion
    coefficients) agree pairwise within ``DEFAULT_TOL.invariant_tol``;
  * sorted Schmidt coefficients and invariants are unchanged by random
    single-qubit operations on both sides (``DEFAULT_TOL.local_invariance_tol``),
    the dressed gates' realigned coefficients (``schmidt_coefficients_array``,
    one Gram ``eigvalsh`` per chunk) checked against |z(c)| at the plain points;
  * Schmidt numbers are unchanged by those operations: the Schmidt number of
    the dressed gates' realigned coefficients equals that of the plain gates' |z(c)|;
  * the perfect-entangler fraction matches the Haar-measure weight of the
    polyhedron within 4 binomial standard deviations.

The samples are drawn and checked in chunks of ``linops.CHUNK`` (1024), in
turn from one generator seeded with ``seed``: each chunk's Haar gates, then
its left and then its right local dressing, so the chunk size fixes the
draws. Within a chunk every check is evaluated on whole arrays; the plain
gates are evaluated once, as one ``ClassData`` whose single det(U) and M(U)
pass feeds the coordinates and all three invariant routes, and the dressed
gates take one more. Each check is then a reduction over the chunks: the
worst value and its global row, summed histogram, mismatch and PE counts,
the first offending row. So memory does not grow with ``samples``, and a
(samples, seed) pair fixes the outcome bit for bit. A refusal inside a chunk keeps its
type and chunk-local rows, prefixed ``audit samples <first> to <last>: ``.
The PE fraction belongs to the whole draw, not to any one gate, so its check
names no row, and a counterexample comes only from a failing row check.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .canonical import ClassData
from .errors import NumericalError
from .linops import Check, Report, as_scalar, chunks
from .invariants import invariants_from_unitary_array, invariants_from_z_array
from .sampling import haar_unitary, random_local_unitary
from .schmidt import schmidt_coefficients_array, schmidt_numbers_array

__all__ = ["run_audit"]

# Haar-measure weight of the perfect-entangler polyhedron. It fills exactly
# half the chamber by flat volume, but the Haar-induced density on the
# chamber is not flat. Its closed form is 8/(3 pi) = 0.8488263631567751;
# Gauss-Legendre integration of the density
# |sin(c2-c3) sin(c1-c2) sin(c1+c3) sin(c1-c3) sin(c1+c2) sin(c2+c3)|
# over the polyhedron agrees to 3.3e-16 at n = 16 (see
# test_audit.py::test_haar_pe_fraction_is_the_density_integral), and
# direct sampling agrees (0.8491 +/- 0.0008 at 2e5 gates). See Musz, Kus,
# Zyczkowski, PRA 87, 022111 (2013) for the same figure.
HAAR_PE_FRACTION = 8 / (3 * np.pi)


def pe_fraction_tolerance(samples: int) -> float:
    """Acceptance band for the perfect-entangler fraction: 4 binomial
    standard deviations about ``HAAR_PE_FRACTION`` at ``samples`` draws."""
    p = HAAR_PE_FRACTION
    return 4.0 * float(np.sqrt(p * (1.0 - p) / samples))


def _chunk_rows(rng: np.random.Generator, n: int):
    """The next ``n`` samples: their gates (drawn before the left and then the
    right dressing), their Schmidt numbers, their count of perfect entanglers,
    and each row check's row values (the route and local deviations, and flags
    of a Schmidt number that the dressing changes), whose ``Check.worst_row``
    is the check's row."""
    gates = haar_unitary(rng, 4, n)
    # the left factor is drawn first: Python evaluates operands left to right
    dressed = random_local_unitary(rng, n) @ gates @ random_local_unitary(rng, n)

    # three-route invariant consistency; the point and z routes as extracted
    plain, (g1_c, g2_c), z = ClassData._from_unitaries(gates)
    g1_u, g2_u = plain.g1, plain.g2
    g1_z, g2_z = invariants_from_z_array(z)
    pairs = ((g1_u, g1_c), (g1_u, g1_z), (g1_c, g1_z), (g2_u, g2_c), (g2_u, g2_z), (g2_c, g2_z))
    route_dev = np.max([np.abs(a - b) for a, b in pairs], axis=0)

    # invariance of coefficients and invariants under local operations
    s_dressed = schmidt_coefficients_array(dressed)
    coeff_dev = np.max(np.abs(plain.s - s_dressed), axis=-1)
    g1_d, g2_d = invariants_from_unitary_array(dressed)
    inv_dev = np.maximum(np.abs(g1_u - g1_d), np.abs(g2_u - g2_d))

    numbers = plain.schmidt_number
    return gates, numbers, int(np.count_nonzero(plain.is_pe)), (
        route_dev, np.maximum(coeff_dev, inv_dev), numbers != schmidt_numbers_array(s_dressed))


def run_audit(samples: int, seed: int) -> Report:
    """Run the property suite, ``linops.CHUNK`` samples at a time, and return
    one check per property, each a reduction over the chunks. The gate at the
    row of the first failing row check is the report's counterexample."""
    as_scalar(samples, "samples", 1)
    as_scalar(seed, "seed", 0, None)
    rng = np.random.default_rng(seed)
    kept = [(-np.inf, 0, None)] * 3  # (value, global row, gate) of each row check
    counts = np.zeros(5, dtype=np.int64)  # rows by Schmidt number
    changed_rows, pe_rows = 0, 0
    for chunk in chunks(samples):
        start, n = chunk.start, chunk.stop - chunk.start
        try:
            gates, numbers, pe, rows = _chunk_rows(rng, n)
        except NumericalError as exc:
            raise type(exc)(f"audit samples {start} to {start + n - 1}: {exc}") from None
        for i, values in enumerate(rows):
            row = Check.worse_row(kept[i][0], values)
            if row is not None:
                kept[i] = (float(values[row]), start + row, gates[row].copy())
        counts += np.bincount(numbers, minlength=5)
        changed_rows += int(np.count_nonzero(rows[2]))
        pe_rows += pe

    def worst(name, i, field):
        value, row, _ = kept[i]
        return replace(Check.worst_row(name, value, field), where=row)

    histogram = {k: int(v) for k, v in enumerate(counts) if v}
    fraction = pe_rows / samples
    band = pe_fraction_tolerance(samples)
    checks = (
        worst("three-route invariant consistency", 0, "invariant_tol"),
        worst("local invariance of schmidt coefficients", 1, "local_invariance_tol"),
        Check("schmidt number unchanged by local operations", float(changed_rows), 0.0,
              kept[2][1] if changed_rows else None, f"histogram {histogram}"),
        Check("perfect-entangler fraction", abs(fraction - HAAR_PE_FRACTION), band, None,
              f"fraction {fraction:.4f} (expected {HAAR_PE_FRACTION:.4f} +/- {band:.4f})"),
    )
    failed = next((i for i, c in enumerate(checks[:3]) if not c.passed), None)
    return Report(checks, None if failed is None else kept[failed][2])
