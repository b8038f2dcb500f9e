"""Local invariants of two-qubit gates by three independent routes.

The pair (G1, G2) labels a local equivalence class uniquely (Makhlin,
Quant. Info. Proc. 1, 243 (2002); Zhang et al., PRA 67, 042313 (2003)).
It can be computed from the unitary itself through the Bell-basis matrix
M(U) = U_B^T U_B, from canonical coordinates, or from the coefficients of
the two-sided Pauli expansion of the nonlocal part. All three routes must
agree; the tests enforce this.

The array helpers (prefixed ``invariants_from_*_array``) accept stacked
inputs and are used by the extraction and audit machinery. Each returns
complex G1 and real G2: G2 is real for every unitary, so the routes that
compute it complex refuse its imaginary residue where they compute it.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError
from .gates import Q_MAGIC
from .linops import DEFAULT_TOL, as_finite, as_triple, refuse_rows

__all__ = [
    "invariants_from_unitary",
    "invariants_from_point",
    "invariants_from_z",
]


def _real_g2(g2: np.ndarray) -> np.ndarray:
    """The real part of complex G2 values (...,); G2 is real for unitary input,
    so rows whose imaginary residue exceeds ``imag_residue_tol`` raise NumericalError."""
    refuse_rows(NumericalError, "G2 imaginary residue", np.abs(g2.imag), "imag_residue_tol")
    return g2.real


def bell_matrix_array(u: np.ndarray):
    """det(U) and M(U) = U_B^T U_B for a stack of unitaries, shape (..., 4, 4),
    where U_B = Q^T U Q (the transpose of Q, not its adjoint) is U in the Bell basis.

    Each product with Q is one (4N, 4) @ (4, 4) product over the flattened
    stack, not one per gate: Q^T U is taken as (U^T Q)^T. Its entries are the
    same sums as those of ``Q_MAGIC.T @ u @ Q_MAGIC``; the tests hold them equal
    bit for bit."""
    shape = u.shape
    qu = (u.swapaxes(-1, -2).reshape(-1, 4) @ Q_MAGIC).reshape(shape).swapaxes(-1, -2)
    ub = (qu.reshape(-1, 4) @ Q_MAGIC).reshape(shape)
    return np.linalg.det(u), ub.swapaxes(-1, -2) @ ub


def invariants_from_bell_array(det: np.ndarray, m: np.ndarray):
    """(G1, G2) from ``bell_matrix_array``'s det(U) and M(U); G2 refused as ``_real_g2``."""
    tr = m.trace(axis1=-2, axis2=-1)
    # tr(M^2) = sum_ij M_ij M_ji, cheaper than forming M @ M
    tr_m2 = (m * m.swapaxes(-1, -2)).sum(axis=(-2, -1))
    g1 = tr**2 / (16 * det)
    return g1, _real_g2((tr**2 - tr_m2) / (4 * det))


def invariants_from_unitary_array(u: np.ndarray):
    """(G1, G2) for a stack of unitaries, shape (..., 4, 4), as
    ``invariants_from_bell_array``."""
    return invariants_from_bell_array(*bell_matrix_array(u))


def invariants_from_unitary(u) -> tuple[complex, float]:
    """(G1, G2), G1 complex and G2 real, from a gate matrix via the Bell basis.

    det(U) enters the formulas directly, so the result is insensitive to a
    global phase of the input; no prior normalization is required. A
    malformed matrix is refused as ``as_finite``, a G2 residue as ``_real_g2``.
    """
    g1, g2 = invariants_from_unitary_array(as_finite(u, (4, 4), "matrix", complex))
    return complex(g1), float(g2)


def invariants_from_point_array(c: np.ndarray):
    """(G1, G2) for canonical coordinates, shape (..., 3). G2 is real."""
    c = np.asarray(c, dtype=float)
    # each product of three runs left to right, as np.prod does, so the bits match
    cos2, sin2, sin2c, cos2c = np.cos(c) ** 2, np.sin(c) ** 2, np.sin(2 * c), np.cos(2 * c)
    prod_cos2 = cos2[..., 0] * cos2[..., 1] * cos2[..., 2]
    prod_sin2 = sin2[..., 0] * sin2[..., 1] * sin2[..., 2]
    g1 = prod_cos2 - prod_sin2 + 0.25j * (sin2c[..., 0] * sin2c[..., 1] * sin2c[..., 2])
    g2 = 4 * prod_cos2 - 4 * prod_sin2 - cos2c[..., 0] * cos2c[..., 1] * cos2c[..., 2]
    return g1, g2


def invariants_from_point(c) -> tuple[complex, float]:
    """(G1, G2) from canonical coordinates [c1, c2, c3] (any real triple)."""
    g1, g2 = invariants_from_point_array(as_triple(c))
    return complex(g1), float(g2)


def invariants_from_z_array(z: np.ndarray):
    """(G1, G2) from two-sided Pauli coefficients, shape (..., 4); G2 refused as ``_real_g2``."""
    z = np.asarray(z, dtype=complex)
    g1 = np.sum(z**2, axis=-1) ** 2
    return g1, _real_g2(g1 + 2 * np.sum(z**4, axis=-1) + 24 * np.prod(z, axis=-1))


def invariants_from_z(z) -> tuple[complex, float]:
    """(G1, G2) from the coefficients of U = sum_l z_l (P_l x P_l).

    ``z`` holds the four complex coefficients in the basis order
    (I x I, sx x sx, sy x sy, sz x sz).

    Raises:
        ValidationError: as ``as_finite``, for anything but four finite
            complex numbers; or if sum |z_l|^2 differs from 1 by more than
            ``DEFAULT_TOL.norm_tol``.
        NumericalError: as ``_real_g2``.
    """
    z = as_finite(z, (4,), "coefficient row [z1, z2, z3, z4]", complex)
    refuse_rows(ValidationError, "z not normalized", abs(np.sum(np.abs(z) ** 2) - 1), "norm_tol")
    g1, g2 = invariants_from_z_array(z)
    return complex(g1), float(g2)

