"""Local invariants of two-qubit gates by three independent routes.

The pair (G1, G2) labels a local equivalence class uniquely (Makhlin,
Quant. Info. Proc. 1, 243 (2002); Zhang et al., PRA 67, 042313 (2003)).
It can be computed from the unitary itself through the Bell-basis matrix
M(U) = U_B^T U_B, from canonical coordinates, or from the coefficients of
the two-sided Pauli expansion of the nonlocal part. All three routes must
agree; the tests enforce this.

The array helpers (prefixed ``invariants_from_*_array``) serve the extraction
and the audit. Each returns complex G1 and real G2: G2 is real for a unitary, so
a route that computes it complex refuses |Im G2| above ``invariant_tol``, a NaN
one (a singular or overflowing gate) included, where it computes it.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError
from .gates import Q_MAGIC
from .linops import DEFAULT_TOL, as_finite, as_triple, real_planes, real_table, refuse_rows

__all__ = [
    "invariants_from_unitary",
    "invariants_from_point",
    "invariants_from_z",
]


def _real_g2(g2: np.ndarray) -> np.ndarray:
    """The real part of complex G2 values (...,); G2 is real for unitary input,
    so rows whose imaginary residue exceeds ``invariant_tol`` raise NumericalError."""
    refuse_rows(NumericalError, "G2 imaginary residue", np.abs(g2.imag), "invariant_tol")
    return g2.real


# Entry [f, p, q] is factor f of product p of minor q in det(U)'s Laplace expansion
# along rows 0-1: minor q is u[r, a] u[s, b] - u[r, b] u[s, a] on rows (r, s) and
# columns (a, b). Bottom minor q + 6 takes top minor q's complementary columns, in
# the order that carries the term's sign, so det(U) is the sum of their six products.
_MINOR = np.array([[[4 * r + a, 4 * r + b], [4 * s + b, 4 * s + a]]
                   for (r, s), pairs in (((0, 1), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
                                         ((2, 3), ((2, 3), (3, 1), (1, 2), (0, 3), (2, 0), (0, 1))))
                   for a, b in pairs]).transpose(1, 2, 0)


def _det(u: np.ndarray) -> np.ndarray:
    """det(U) for a stack (..., 4, 4) by ``_MINOR``, the six terms added left to
    right. Each step overwrites the gathered entries, so the gather is the one
    temporary, and it is freed on return."""
    e = u.reshape(u.shape[:-2] + (16,))[..., _MINOR]
    products = e[..., 0, :, :]
    products *= e[..., 1, :, :]
    minors = products[..., 0, :]
    minors -= products[..., 1, :]
    t = minors[..., :6]
    t *= minors[..., 6:]
    return t[..., 0] + t[..., 1] + t[..., 2] + t[..., 3] + t[..., 4] + t[..., 5]


# U_B[j, k] = sum_ab Q_aj Q_bk U[a, b]; sqrt2 Q_MAGIC rounds to entries 0, +-1 and
# +-i, so every coefficient of the table is exactly 0, +-1/2 or +-i/2
_Q2 = np.round(np.sqrt(2) * Q_MAGIC)
_BELL = real_table(np.einsum("aj,bk->jkab", _Q2, _Q2).reshape(16, 16) / 2)
_SIGNS = np.array([1.0, -1.0])[:, None, None]


def bell_matrix_array(u: np.ndarray):
    """det(U) and M(U) = U_B^T U_B for a stack of unitaries, shape (..., 4, 4),
    where U_B = Q^T U Q (the transpose of Q, not its adjoint) is U in the Bell basis.

    det(U) is the closed form of ``_det``, with no LAPACK call. U_B's planes Br, Bi are
    one real product with the exact table ``_BELL``, rounded only in its additions; then
    Re M = [Br; Bi]^T [Br; -Bi] and Im M = R + R^T, R = Br^T Bi, so M is symmetric bit for
    bit. Each gate's det(U) and M(U) equal those of the gate alone bit for bit."""
    det, b = _det(u), real_planes(u, _BELL)
    m = np.empty(b.shape[:-3] + (4, 4), dtype=complex)
    y = np.multiply(b, _SIGNS, out=m.view(float).reshape(b.shape))  # [Br; -Bi], in m: no new stack
    m.real = b.reshape(m.shape[:-2] + (8, 4)).swapaxes(-1, -2) @ y.reshape(m.shape[:-2] + (8, 4))
    r = b[..., 0, :, :].swapaxes(-1, -2) @ b[..., 1, :, :]
    np.add(r, r.swapaxes(-1, -2), out=m.imag)
    return det, m


def invariants_from_bell_array(det: np.ndarray, m: np.ndarray):
    """(G1, G2) from ``bell_matrix_array``'s det(U) and M(U); G2 refused as ``_real_g2``."""
    tr = m.trace(axis1=-2, axis2=-1)
    # M is symmetric bit for bit, so tr(M^2) = sum_ij M_ij^2, cheaper than forming M @ M
    tr_m2 = (m * m).sum(axis=(-2, -1))
    return tr**2 / (16 * det), _real_g2((tr**2 - tr_m2) / (4 * det))


def invariants_from_unitary_array(u: np.ndarray):
    """(G1, G2) for unitaries (..., 4, 4), as ``ClassData.from_unitaries`` forms them."""
    with np.errstate(all="ignore"):  # a singular or overflowing row turns NaN, refused by G2
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
            ``DEFAULT_TOL.unitarity_tol``.
        NumericalError: as ``_real_g2``.
    """
    z = as_finite(z, (4,), "coefficient row [z1, z2, z3, z4]", complex)
    refuse_rows(ValidationError, "z not normalized", abs(np.sum(abs(z) ** 2) - 1), "unitarity_tol")
    g1, g2 = invariants_from_z_array(z)
    return complex(g1), float(g2)

