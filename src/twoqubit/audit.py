"""Randomized self-audit: the library's key claims checked on seeded
random gates.

Checks, over ``samples`` Haar-random gates:
  * the three invariant routes (matrix, coordinates, expansion
    coefficients) agree pairwise within ``DEFAULT_TOL.invariant_tol``;
  * sorted Schmidt coefficients and invariants are unchanged by random
    single-qubit operations on both sides (``DEFAULT_TOL.local_invariance_tol``),
    the dressed gates' realignment SVD checked against |z(c)| at the plain points;
  * Schmidt numbers take only the values 1, 2 or 4;
  * the perfect-entangler fraction matches the Haar-measure weight of the
    polyhedron within 4 binomial standard deviations.

The samples are drawn and checked in chunks of ``linops.CHUNK`` (1024), in
turn from one generator seeded with ``seed``: each chunk's Haar gates, then
its left and then its right local dressing, so the chunk size fixes the
draws. Within a chunk every check is evaluated on whole arrays; the plain
gates are evaluated once, as one ``ClassData`` whose single det(U) and M(U)
pass feeds the coordinates and all three invariant routes, and the dressed
gates take one more. Each check is then a reduction over the chunks: the
worst value and its global row, summed histogram and PE counts, the first
offending row. So memory does not grow with ``samples``, and a (samples,
seed) pair fixes the outcome bit for bit. A refusal inside a chunk keeps its
type and chunk-local rows, prefixed ``audit samples <first> to <last>: ``.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .canonical import ClassData
from .errors import NumericalError
from .linops import Check, Report, as_scalar, chunks
from .invariants import invariants_from_unitary_array, invariants_from_z_array
from .sampling import haar_unitary, random_local_unitary
from .schmidt import schmidt_coefficients_array

__all__ = ["run_audit"]

# Haar-measure weight of the perfect-entangler polyhedron. It fills exactly
# half the chamber by flat volume, but the Haar-induced density on the
# chamber is not flat. Gauss-Legendre integration of the density
# |sin(c2-c3) sin(c1-c2) sin(c1+c3) sin(c1-c3) sin(c1+c2) sin(c2+c3)|
# over the polyhedron gives 0.848826363 (converged to 9 digits; see
# test_audit.py::test_haar_pe_fraction_is_the_density_integral), and
# direct sampling agrees (0.8491 +/- 0.0008 at 2e5 gates). See Musz, Kus,
# Zyczkowski, PRA 87, 022111 (2013) for the same figure.
HAAR_PE_FRACTION = 0.848826363


def pe_fraction_tolerance(samples: int) -> float:
    """Acceptance band for the perfect-entangler fraction: 4 binomial
    standard deviations about ``HAAR_PE_FRACTION`` at ``samples`` draws."""
    p = HAAR_PE_FRACTION
    return 4.0 * float(np.sqrt(p * (1.0 - p) / samples))


def _chunk_rows(rng: np.random.Generator, n: int):
    """The next ``n`` samples: their gates (drawn before the left and then the
    right dressing), their Schmidt numbers, and each check's row values (the
    route and local deviations, and flags of a Schmidt number outside {1, 2, 4}
    and of a non-PE gate), whose ``Check.worst_row`` is the check's row."""
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
    coeff_dev = np.max(np.abs(plain.s - schmidt_coefficients_array(dressed)), axis=-1)
    g1_d, g2_d = invariants_from_unitary_array(dressed)
    inv_dev = np.maximum(np.abs(g1_u - g1_d), np.abs(g2_u - g2_d))

    numbers = plain.schmidt_number
    return gates, numbers, (route_dev, np.maximum(coeff_dev, inv_dev),
                            ~np.isin(numbers, (1, 2, 4)), ~plain.is_pe)


def run_audit(samples: int, seed: int) -> Report:
    """Run the property suite, ``linops.CHUNK`` samples at a time, and return
    one check per property, each a reduction over the chunks. The worst row
    of the first failing check is the report's counterexample."""
    as_scalar(samples, "samples", 1, below="samples must be at least 1")
    as_scalar(seed, "seed", 0, None, below="seed must be non-negative")
    rng = np.random.default_rng(seed)
    kept = [(-np.inf, 0, None)] * 4  # (value, global row, gate) of each check
    counts, pe_rows = np.zeros(5, dtype=np.int64), 0  # rows by Schmidt number, PE rows
    for chunk in chunks(samples):
        start, n = chunk.start, chunk.stop - chunk.start
        try:
            gates, numbers, rows = _chunk_rows(rng, n)
        except NumericalError as exc:
            raise type(exc)(f"audit samples {start} to {start + n - 1}: {exc}") from None
        for i, values in enumerate(rows):
            row = Check.worse_row(kept[i][0], values)
            if row is not None:
                kept[i] = (float(values[row]), start + row, gates[row].copy())
        counts += np.bincount(numbers, minlength=5)
        pe_rows += n - int(np.count_nonzero(rows[3]))

    def worst(name, i, field):
        value, row, _ = kept[i]
        return replace(Check.worst_row(name, value, field), where=row)

    # the Schmidt-number check counts the rows outside {1, 2, 4}, which must be 0
    bad_rows = int(counts[0] + counts[3])
    histogram = {k: int(v) for k, v in enumerate(counts) if v}
    fraction = pe_rows / samples
    band = pe_fraction_tolerance(samples)
    checks = (
        worst("three-route invariant consistency", 0, "invariant_tol"),
        worst("local invariance of schmidt coefficients", 1, "local_invariance_tol"),
        Check("schmidt number in {1, 2, 4}", float(bad_rows), 0.0,
              kept[2][1] if bad_rows else None, f"histogram {histogram}"),
        Check("perfect-entangler fraction", abs(fraction - HAAR_PE_FRACTION), band, kept[3][1],
              f"fraction {fraction:.4f} (expected {HAAR_PE_FRACTION:.4f} +/- {band:.4f})"),
    )
    failed = next((i for i, c in enumerate(checks) if not c.passed), None)
    return Report(checks, None if failed is None else kept[failed][2])
