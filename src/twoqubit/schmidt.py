"""Operator-Schmidt decomposition of two-qubit gates.

A gate expands as U = sum_l s_l A_l (x) B_l with Hilbert-Schmidt orthonormal
single-qubit factors. Gates in one local class share their coefficients, the
|z_l| of the closed-form two-sided Pauli expansion at the canonical
coordinates, which ``ClassData`` takes. Realigning U into a 4x4 matrix R with
singular values 2 s_l gives them numerically: ``schmidt_decompose`` takes the
SVD of R for its factors. The audit's witness ``schmidt_coefficients_array`` writes
U as C in the quaternion basis {I, i sx, i sy, i sz} / sqrt2, where local unitaries act
by real rotations, so C = O1 diag(2 z) O2^T with O1, O2 real orthogonal; it takes the
eigenvalues 4 s_l^2 of the real C^dag C, with the SVD kept for rows whose smallest
coefficient is too small for them. Normalization is chosen so that sum s_l^2 = 1
for unitaries, making s_l^2 a probability distribution; its
Shannon entropy (base 2) is the Schmidt strength, an entanglement measure for
the operator itself ranging from 0 (local gates) to 2. This module reads
gates and builds none: the controlled-unitary normal form is
``canonical.controlled_unitary_gate``, a canonical core.

The number of nonvanishing coefficients, the Schmidt number K, is 1 for
local gates, 2 exactly on the controlled-unitary line, and 4 otherwise; 3
is impossible. It is read from the second and third largest coefficients:
s2 grows at first order with the distance to the local class, and s3 with
the distance to the line; on [theta, c2, 0], s3 = cos(theta/2) sin(c2/2)
and s4 = sin(theta/2) sin(c2/2) is first order too, but K does not read it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gates import IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .linops import DEFAULT_TOL, as_finite, as_triple, real_planes, real_table, refuse_rows

__all__ = [
    "SchmidtData",
    "z_from_point",
    "z_from_point_array",
    "schmidt_decompose",
    "schmidt_coefficients_array",
    "schmidt_strength",
    "schmidt_strength_array",
    "schmidt_number_from_coefficients",
    "schmidt_numbers_array",
]


@dataclass(frozen=True)
class SchmidtData:
    """Operator-Schmidt data of a gate.

    ``coefficients`` are the four s_l, descending, with sum s_l^2 = 1.
    ``factors_a[l]`` and ``factors_b[l]`` are Hilbert-Schmidt orthonormal
    2x2 factors; the gate reconstructs as sum_l 2 s_l A_l (x) B_l.
    """

    coefficients: np.ndarray
    factors_a: np.ndarray
    factors_b: np.ndarray
    schmidt_number: int
    strength: float


def z_from_point_array(c: np.ndarray) -> np.ndarray:
    """Closed-form expansion coefficients for coordinate triples (..., 3).

    Returns (..., 4) complex coefficients z_l of the canonical core in the
    basis order (I x I, sx x sx, sy x sy, sz x sz); |z_l| are the Schmidt
    coefficients and sum |z_l|^2 = 1 identically.
    """
    c = np.asarray(c, dtype=float)
    c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2]
    e_plus = np.exp(0.5j * c1)
    e_minus = np.exp(-0.5j * c1)
    cos_diff = np.cos((c3 - c2) / 2)
    cos_sum = np.cos((c3 + c2) / 2)
    sin_diff = np.sin((c3 - c2) / 2)
    sin_sum = np.sin((c3 + c2) / 2)
    z = np.empty(c.shape[:-1] + (4,), dtype=complex)
    z[..., 0] = 0.5 * (e_plus * cos_diff + e_minus * cos_sum)
    z[..., 1] = 0.5 * (e_plus * cos_diff - e_minus * cos_sum)
    z[..., 2] = -0.5j * (e_plus * sin_diff - e_minus * sin_sum)
    z[..., 3] = 0.5j * (e_plus * sin_diff + e_minus * sin_sum)
    return z


def z_from_point(c) -> np.ndarray:
    """Expansion coefficients (4 complex values) for one coordinate triple."""
    return z_from_point_array(as_triple(c))


def _realign(u: np.ndarray) -> np.ndarray:
    """Reshuffle U[(a b), (a' b')] into R[(a a'), (b b')].

    The operator-Schmidt coefficients of U are half the singular values
    of R; the reconstruction test in the suite pins this index convention.
    """
    v = u.reshape(u.shape[:-2] + (2, 2, 2, 2))
    v = np.swapaxes(v, -3, -2)
    return v.reshape(u.shape[:-2] + (4, 4))


# C[l, m] = tr((P_l x P_m)^dag U) in the quaternion basis P = {I, i sx, i sy, i sz} / sqrt2,
# the realignment folded in; every coefficient is exactly 0, +-1/2 or +-i/2
_QUATERNIONS = np.array([IDENTITY2, 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z]).conj()
_SCHMIDT = real_table(np.einsum("lac,mbd->lmabcd", _QUATERNIONS, _QUATERNIONS).reshape(16, 16) / 2)


def schmidt_coefficients_array(u: np.ndarray) -> np.ndarray:
    """Schmidt coefficients, descending, for a stack of 4x4 unitaries: half the square
    roots of the eigenvalues of the real Re(C^dag C) = [Cr; Ci]^T [Cr; Ci], C = Cr + i Ci
    from the exact table ``_SCHMIDT``. Their error grows like 1.5e-16 / s4, so rows with
    s4 below ``svd_fallback_tol``, or a discarded Im(C^dag C) = Cr^T Ci - Ci^T Cr above
    ``invariant_tol``, take half the singular values of the realigned U instead.

    Raises:
        numpy.linalg.LinAlgError: if ``eigvalsh`` or a fallback SVD does not converge.
    """
    u = np.asarray(u, dtype=complex)
    x = real_planes(u, _SCHMIDT).reshape(u.shape[:-2] + (8, 4))  # [Cr; Ci]
    w = np.linalg.eigvalsh(x.swapaxes(-1, -2) @ x.copy())  # a copy skips numpy's slower syrk
    p = x[..., :4, :].swapaxes(-1, -2) @ x[..., 4:, :]
    im = np.abs(p - p.swapaxes(-1, -2)).max(axis=(-2, -1))
    # rounding can leave the smallest eigenvalue below 0; its row falls back, as a NaN row does
    s = np.sqrt(np.maximum(w[..., ::-1], 0.0)) / 2.0
    fallback = ~((s[..., 3] >= DEFAULT_TOL.svd_fallback_tol) & (im <= DEFAULT_TOL.invariant_tol))
    if fallback.any():
        s[fallback] = np.linalg.svd(_realign(u[fallback]), compute_uv=False) / 2.0
    return s


_S_ROW = "Schmidt row [s1, s2, s3, s4]"


def schmidt_strength(s) -> float:
    """Shannon entropy (bits) of the distribution s_l^2.

    Uses the 0 log 0 = 0 convention; terms below 1e-300 contribute nothing.

    Raises:
        ValidationError: as ``as_finite``, for anything but four finite reals;
            if a coefficient is below -``DEFAULT_TOL.zero_tol``; or if
            sum s_l^2 differs from 1 by more than ``DEFAULT_TOL.unitarity_tol``.
    """
    s = as_finite(s, (4,), _S_ROW)
    refuse_rows(ValidationError, "negative Schmidt coefficient", np.max(-s), "zero_tol")
    refuse_rows(ValidationError, "s not normalized", abs(np.sum(s**2) - 1), "unitarity_tol")
    return float(schmidt_strength_array(s))


def schmidt_strength_array(s: np.ndarray) -> np.ndarray:
    """Vectorized strength for coefficient stacks (..., 4); no validation."""
    p = np.asarray(s, dtype=float) ** 2
    live = p > 1e-300
    terms = np.where(live, p * np.log2(np.where(live, p, 1.0)), 0.0)
    # + 0.0 turns a signed zero into plain 0.0
    return -terms.sum(axis=-1) + 0.0


def schmidt_numbers_array(s: np.ndarray) -> np.ndarray:
    """The Schmidt number of each row of s (..., 4), in any order: 1 where the
    second-largest coefficient s2 is at most ``zero_tol``, else 2 where the
    third-largest s3 is, else 4. One row gives a scalar."""
    s = np.sort(np.asarray(s, dtype=float), axis=-1)
    zero_tol = DEFAULT_TOL.zero_tol
    return np.where(s[..., 2] <= zero_tol, 1, np.where(s[..., 1] <= zero_tol, 2, 4))[()]


def schmidt_number_from_coefficients(s) -> int:
    """The Schmidt number of one row of four coefficients, in any order, as
    ``schmidt_numbers_array`` decides it: 1, 2 or 4.

    Raises:
        ValidationError: as ``as_finite``, for anything but four finite reals.
    """
    return int(schmidt_numbers_array(as_finite(s, (4,), _S_ROW)))


def schmidt_decompose(u) -> SchmidtData:
    """Operator-Schmidt decomposition via realignment and SVD.

    The left/right singular vectors of the realigned matrix, reshaped to
    2x2, are the factor operators; they come out Hilbert-Schmidt
    orthonormal, so the singular values carry a factor 2 relative to the
    normalized coefficients.

    Raises:
        ValidationError: as ``as_finite``, if the matrix is not a finite 4x4
            matrix, and as ``schmidt_strength``, if its coefficients are not
            normalized; an SVD that does not converge raises numpy's own error.
    """
    left, sigma, vh = np.linalg.svd(_realign(as_finite(u, (4, 4), "matrix", complex)))
    coefficients = sigma / 2.0
    factors_a = np.ascontiguousarray(left.T.reshape(4, 2, 2))
    factors_b = vh.reshape(4, 2, 2)
    return SchmidtData(
        coefficients=coefficients,
        factors_a=factors_a,
        factors_b=factors_b,
        schmidt_number=schmidt_number_from_coefficients(coefficients),
        strength=schmidt_strength(coefficients),
    )
