"""Randomized self-audit: the library's key claims checked on seeded
random gates.

Checks, over ``samples`` Haar-random gates:
  * the three invariant routes (matrix, coordinates, expansion
    coefficients) agree pairwise within ``DEFAULT_TOL.invariant_tol``;
  * sorted Schmidt coefficients and invariants are unchanged by random
    single-qubit operations on both sides (``DEFAULT_TOL.local_invariance_tol``);
  * Schmidt numbers take only the values 1, 2 or 4;
  * the perfect-entangler fraction matches the Haar-measure weight of the
    polyhedron within 4 binomial standard deviations.

Every check is evaluated on whole arrays. The plain gates are evaluated
once, as one ``ClassData`` whose single det(U) and M(U) pass feeds the
coordinates and the matrix-route invariants; the dressed gates take one more.

Everything is driven by one seeded generator, so a (samples, seed) pair
fixes the outcome bit for bit.
"""
from __future__ import annotations

import numpy as np

from .canonical import ClassData
from .gates import Gate
from .linops import DEFAULT_TOL, Check, Report, as_scalar
from .invariants import (
    invariants_from_unitary_array,
    invariants_from_point_array,
    invariants_from_z_array,
    real_g2,
)
from .sampling import haar_unitary, random_local_unitary
from .schmidt import schmidt_coefficients_array, z_from_point_array

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


def run_audit(samples: int, seed: int) -> Report:
    """Run the property suite and return one check per property.

    The worst row of the first failing check is the report's counterexample.
    """
    as_scalar(samples, "samples", 1, below="samples must be at least 1")
    as_scalar(seed, "seed", 0, None, below="seed must be non-negative")
    rng = np.random.default_rng(seed)
    gates = haar_unitary(rng, 4, samples)
    k_left = random_local_unitary(rng, samples)
    k_right = random_local_unitary(rng, samples)

    # three-route invariant consistency
    plain = ClassData.from_unitaries(gates)
    g1_u, g2_u = plain.g1, plain.g2
    g1_c, g2_c = invariants_from_point_array(plain.points)
    g1_z, g2_z = invariants_from_z_array(z_from_point_array(plain.points))
    g2_z = real_g2(g2_z)
    pairs = ((g1_u, g1_c), (g1_u, g1_z), (g1_c, g1_z), (g2_u, g2_c), (g2_u, g2_z), (g2_c, g2_z))
    route_dev = np.max([np.abs(a - b) for a, b in pairs], axis=0)

    # invariance of coefficients and invariants under local operations
    dressed = k_left @ gates @ k_right
    coeff_dev = np.max(np.abs(plain.s - schmidt_coefficients_array(dressed)), axis=-1)
    g1_d, g2_d = invariants_from_unitary_array(dressed)
    inv_dev = np.maximum(np.abs(g1_u - g1_d), np.abs(g2_u - real_g2(g2_d)))
    local_dev = np.maximum(coeff_dev, inv_dev)

    # Schmidt numbers in {1, 2, 4}: the count of other rows, which must be 0
    numbers = plain.schmidt_number
    bad = np.flatnonzero(~np.isin(numbers, (1, 2, 4)))
    histogram = dict(zip(*(a.tolist() for a in np.unique(numbers, return_counts=True))))

    # perfect-entangler fraction
    fraction = float(np.mean(plain.is_pe))
    band = pe_fraction_tolerance(samples)

    checks = (
        Check.worst_row("three-route invariant consistency", route_dev, "invariant_tol",
                        DEFAULT_TOL),
        Check.worst_row("local invariance of schmidt coefficients", local_dev,
                        "local_invariance_tol", DEFAULT_TOL),
        Check("schmidt number in {1, 2, 4}", float(bad.size), 0.0,
              int(bad[0]) if bad.size else None, f"histogram {histogram}"),
        Check("perfect-entangler fraction", abs(fraction - HAAR_PE_FRACTION), band,
              int(np.argmin(plain.is_pe)),
              f"fraction {fraction:.4f} (expected {HAAR_PE_FRACTION:.4f} +/- {band:.4f})"),
    )
    failed = next((c.where for c in checks if not c.passed), None)
    counterexample = None if failed is None else Gate(matrix=gates[failed].copy(),
                                                      name=f"sample_{failed}")
    return Report(checks, counterexample)
