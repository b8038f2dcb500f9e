"""Local invariants of two-qubit gates by three independent routes.

The pair (G1, G2) labels a local equivalence class uniquely (Makhlin,
Quant. Info. Proc. 1, 243 (2002); Zhang et al., PRA 67, 042313 (2003)).
It can be computed from the unitary itself through the Bell-basis matrix
M(U) = U_B^T U_B, from canonical coordinates, or from the coefficients of
the two-sided Pauli expansion of the nonlocal part. All three routes must
agree; the tests enforce this.

The array helpers (prefixed ``invariants_from_*_array``) accept stacked
inputs and are used by the extraction and audit machinery.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .gates import Gate, Q_MAGIC
from .linops import DEFAULT_TOL, as_triple

__all__ = [
    "LocalInvariants",
    "invariants_from_unitary",
    "invariants_from_point",
    "invariants_from_z",
    "locally_equivalent",
]

@dataclass(frozen=True)
class LocalInvariants:
    """The invariant pair: g1 complex, g2 real."""

    g1: complex
    g2: float


def checked_invariants(g1: complex, g2: complex) -> LocalInvariants:
    """The pair as LocalInvariants; G2 is real for unitary input, so an
    imaginary residue above ``DEFAULT_TOL.imag_residue_tol`` is an error."""
    tol = DEFAULT_TOL.imag_residue_tol
    if abs(g2.imag) > tol:
        raise NumericalError(f"G2 imaginary residue {abs(g2.imag):.3e} exceeds {tol:g}")
    return LocalInvariants(g1=complex(g1), g2=float(g2.real))


def bell_matrix_array(u: np.ndarray):
    """det(U) and M(U) = U_B^T U_B for a stack of unitaries, shape (..., 4, 4)."""
    ub = Q_MAGIC.T @ u @ Q_MAGIC
    return np.linalg.det(u), np.swapaxes(ub, -1, -2) @ ub


def invariants_from_bell_array(det: np.ndarray, m: np.ndarray):
    """(G1, G2) from ``bell_matrix_array``'s det(U) and M(U); G2 complex."""
    tr = np.trace(m, axis1=-2, axis2=-1)
    # tr(M^2) = sum_ij M_ij M_ji, cheaper than forming M @ M
    tr_m2 = np.sum(m * np.swapaxes(m, -1, -2), axis=(-2, -1))
    g1 = tr**2 / (16 * det)
    g2 = (tr**2 - tr_m2) / (4 * det)
    return g1, g2


def invariants_from_unitary_array(u: np.ndarray):
    """(G1, G2) for a stack of unitaries, shape (..., 4, 4).

    G2 is returned complex; callers check the imaginary residue.
    """
    return invariants_from_bell_array(*bell_matrix_array(u))


def invariants_from_unitary(g: Gate) -> LocalInvariants:
    """Invariants from the gate matrix via the Bell-basis construction.

    det(U) enters the formulas directly, so the result is insensitive to a
    global phase of the input; no prior normalization is required.
    """
    g1, g2 = invariants_from_unitary_array(g.matrix)
    return checked_invariants(g1, g2)


def invariants_from_point_array(c: np.ndarray):
    """(G1, G2) for canonical coordinates, shape (..., 3). G2 is real."""
    c = np.asarray(c, dtype=float)
    prod_cos2 = np.prod(np.cos(c) ** 2, axis=-1)
    prod_sin2 = np.prod(np.sin(c) ** 2, axis=-1)
    g1 = prod_cos2 - prod_sin2 + 0.25j * np.prod(np.sin(2 * c), axis=-1)
    g2 = 4 * prod_cos2 - 4 * prod_sin2 - np.prod(np.cos(2 * c), axis=-1)
    return g1, g2


def invariants_from_point(c) -> LocalInvariants:
    """Invariants from canonical coordinates [c1, c2, c3] (any real triple)."""
    g1, g2 = invariants_from_point_array(as_triple(c))
    return LocalInvariants(g1=complex(g1), g2=float(g2))


def invariants_from_z_array(z: np.ndarray):
    """(G1, G2) from two-sided Pauli coefficients, shape (..., 4).

    G2 is returned complex; callers check the imaginary residue.
    """
    z = np.asarray(z, dtype=complex)
    g1 = np.sum(z**2, axis=-1) ** 2
    g2 = g1 + 2 * np.sum(z**4, axis=-1) + 24 * np.prod(z, axis=-1)
    return g1, g2


def invariants_from_z(z) -> LocalInvariants:
    """Invariants from the coefficients of U = sum_l z_l (P_l x P_l).

    ``z`` holds the four complex coefficients in the basis order
    (I x I, sx x sx, sy x sy, sz x sz).

    Raises:
        ValidationError: if sum |z_l|^2 differs from 1 by more than
            ``DEFAULT_TOL.norm_tol``.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (4,):
        raise ValidationError("expected four complex coefficients")
    norm = float(np.sum(np.abs(z) ** 2))
    if not abs(norm - 1.0) <= DEFAULT_TOL.norm_tol:
        raise ValidationError(f"coefficients not normalized: sum |z|^2 = {norm!r}")
    g1, g2 = invariants_from_z_array(z)
    return checked_invariants(g1, g2)


def locally_equivalent(a: Gate, b: Gate) -> bool:
    """True iff a and b differ only by single-qubit operations.

    Decided by comparing (G1, G2) within ``DEFAULT_TOL.invariant_tol``.
    """
    tol = DEFAULT_TOL.invariant_tol
    inv_a = invariants_from_unitary(a)
    inv_b = invariants_from_unitary(b)
    return abs(inv_a.g1 - inv_b.g1) <= tol and abs(inv_a.g2 - inv_b.g2) <= tol
