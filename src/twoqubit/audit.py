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

from dataclasses import dataclass

import numpy as np

from .canonical import ClassData
from .errors import ValidationError
from .gates import Gate
from .linops import DEFAULT_TOL
from .invariants import (
    invariants_from_unitary_array,
    invariants_from_point_array,
    invariants_from_z_array,
)
from .sampling import haar_unitary, random_local_unitary
from .schmidt import schmidt_coefficients_array, z_from_point_array

__all__ = ["AuditCheck", "AuditResult", "run_audit"]

# Haar-measure weight of the perfect-entangler polyhedron. The polyhedron
# fills exactly half the chamber by flat volume, but the Haar-induced
# density on the chamber is not flat; Gauss-Legendre integration of the
# radial density
# |sin(c2-c3) sin(c1-c2) sin(c1+c3) sin(c1-c3) sin(c1+c2) sin(c2+c3)|
# over the polyhedron gives 0.848826363 (converged to 9 digits), and
# direct sampling agrees (0.8491 +/- 0.0008 at 2e5 gates). See Musz, Kus,
# Zyczkowski, PRA 87, 022111 (2013) for the same figure.
HAAR_PE_FRACTION = 0.848826363


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AuditResult:
    samples: int
    seed: int
    checks: tuple[AuditCheck, ...]
    counterexample: Gate | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def pe_fraction_tolerance(samples: int) -> float:
    """Acceptance band for the perfect-entangler fraction: 4 binomial
    standard deviations about ``HAAR_PE_FRACTION`` at ``samples`` draws."""
    p = HAAR_PE_FRACTION
    return 4.0 * float(np.sqrt(p * (1.0 - p) / samples))


def run_audit(samples: int, seed: int) -> AuditResult:
    """Run the property suite and return per-check results.

    The first failing check contributes the offending gate as a
    counterexample.
    """
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    gates = haar_unitary(rng, 4, samples)
    k_left = random_local_unitary(rng, samples)
    k_right = random_local_unitary(rng, samples)

    checks: list[AuditCheck] = []
    counterexample: Gate | None = None

    def record(name: str, passed: bool, detail: str, worst_index: int | None):
        nonlocal counterexample
        checks.append(AuditCheck(name=name, passed=bool(passed), detail=detail))
        if not passed and counterexample is None and worst_index is not None:
            counterexample = Gate(
                matrix=gates[worst_index].copy(), name=f"sample_{worst_index}"
            )

    def record_max(name: str, deviation: np.ndarray, tol: float):
        worst = int(np.argmax(deviation))
        dev = float(deviation[worst])
        record(name, dev <= tol, f"max deviation {dev:.3e} (tol {tol:g})", worst)

    # three-route invariant consistency
    plain = ClassData.from_unitaries(gates)
    g1_u, g2_u = plain.g1, plain.g2
    g1_c, g2_c = invariants_from_point_array(plain.points)
    g1_z, g2_z = invariants_from_z_array(z_from_point_array(plain.points))
    pairs = ((g1_u, g1_c), (g1_u, g1_z), (g1_c, g1_z),
             (g2_u, g2_c), (g2_u, g2_z.real), (g2_c, g2_z.real))
    route_dev = np.max([np.abs(a - b) for a, b in pairs], axis=0)
    record_max("three-route invariant consistency", route_dev, DEFAULT_TOL.invariant_tol)

    # invariance of coefficients and invariants under local operations
    dressed = k_left @ gates @ k_right
    coeff_dev = np.max(np.abs(plain.s - schmidt_coefficients_array(dressed)), axis=-1)
    g1_d, g2_d = invariants_from_unitary_array(dressed)
    inv_dev = np.maximum(np.abs(g1_u - g1_d), np.abs(g2_u - g2_d.real))
    local_dev = np.maximum(coeff_dev, inv_dev)
    record_max(
        "local invariance of schmidt coefficients", local_dev, DEFAULT_TOL.local_invariance_tol
    )

    # Schmidt numbers in {1, 2, 4}
    numbers = plain.schmidt_number
    bad = np.flatnonzero(~np.isin(numbers, (1, 2, 4)))
    first_bad = int(bad[0]) if bad.size else None
    histogram = dict(zip(*(a.tolist() for a in np.unique(numbers, return_counts=True))))
    record("schmidt number in {1, 2, 4}", first_bad is None, f"histogram {histogram}", first_bad)

    # perfect-entangler fraction
    fraction = float(np.mean(plain.is_pe))
    band = pe_fraction_tolerance(samples)
    record(
        "perfect-entangler fraction",
        abs(fraction - HAAR_PE_FRACTION) <= band,
        f"fraction {fraction:.4f} (expected {HAAR_PE_FRACTION:.4f} +/- {band:.4f})",
        int(np.argmin(plain.is_pe)),
    )

    return AuditResult(
        samples=samples,
        seed=seed,
        checks=tuple(checks),
        counterexample=counterexample,
    )
