"""Operator-Schmidt decomposition of two-qubit gates.

A gate expands as U = sum_l s_l A_l (x) B_l with Hilbert-Schmidt orthonormal
single-qubit factors. Gates in one local class share their coefficients, the
|z_l| of the closed-form two-sided Pauli expansion at the canonical
coordinates, which ``ClassData`` takes. Realigning U into a 4x4 matrix with
singular values 2 s_l gives them numerically, for the factors of
``schmidt_decompose`` and as the audit's witness. Normalization is chosen so
that sum s_l^2 = 1 for unitaries, making s_l^2 a probability distribution; its
Shannon entropy (base 2) is the Schmidt strength, an entanglement measure for
the operator itself ranging from 0 (local gates) to 2.

The count of nonvanishing coefficients, the Schmidt number, is 1 for local
gates, 2 exactly on the controlled-unitary line, and 4 otherwise; 3 is
impossible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchmidtNumberError, ValidationError
from .gates import IDENTITY2, SIGMA_X, make_gate
from .linops import DEFAULT_TOL, as_finite, as_scalar, as_triple, kron, refuse_rows

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
    "controlled_unitary_gate",
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
    return np.stack(
        [
            0.5 * (e_plus * cos_diff + e_minus * cos_sum),
            0.5 * (e_plus * cos_diff - e_minus * cos_sum),
            -0.5j * (e_plus * sin_diff - e_minus * sin_sum),
            0.5j * (e_plus * sin_diff + e_minus * sin_sum),
        ],
        axis=-1,
    )


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


def schmidt_coefficients_array(u: np.ndarray) -> np.ndarray:
    """Schmidt coefficients, descending, for a stack of 4x4 unitaries."""
    r = _realign(np.asarray(u, dtype=complex))
    return np.linalg.svd(r, compute_uv=False) / 2.0


_S_ROW = "Schmidt row [s1, s2, s3, s4]"


def schmidt_strength(s) -> float:
    """Shannon entropy (bits) of the distribution s_l^2.

    Uses the 0 log 0 = 0 convention; terms below 1e-300 contribute nothing.

    Raises:
        ValidationError: as ``as_finite``, for anything but four finite reals;
            if a coefficient is below -``DEFAULT_TOL.negative_tol``; or if
            sum s_l^2 differs from 1 by more than ``DEFAULT_TOL.norm_tol``.
    """
    s = as_finite(s, (4,), _S_ROW)
    refuse_rows(ValidationError, "negative Schmidt coefficient", np.max(-s), "negative_tol")
    refuse_rows(ValidationError, "s not normalized", abs(np.sum(s**2) - 1), "norm_tol")
    return float(schmidt_strength_array(s))


def schmidt_strength_array(s: np.ndarray) -> np.ndarray:
    """Vectorized strength for coefficient stacks (..., 4); no validation."""
    p = np.asarray(s, dtype=float) ** 2
    live = p > 1e-300
    terms = np.where(live, p * np.log2(np.where(live, p, 1.0)), 0.0)
    # + 0.0 turns a signed zero into plain 0.0
    return -terms.sum(axis=-1) + 0.0


def schmidt_numbers_array(s: np.ndarray) -> np.ndarray:
    """Count the coefficients above ``zero_tol`` in each row of s (..., 4).

    A count of 3 is impossible for two-qubit gates, so rows that count 3
    are recounted at 10x and then 0.1x the tolerance, and the first count
    other than 3 wins; rows that count 3 at all three keep 3. One row gives a scalar.
    """
    s = np.asarray(s, dtype=float)
    zero_tol = DEFAULT_TOL.zero_tol
    n = np.count_nonzero(s > zero_tol, axis=-1)
    if (n == 3).any():
        n = np.array(n)
        for t in (10 * zero_tol, 0.1 * zero_tol):
            retry = n == 3
            n[retry] = np.count_nonzero(s[retry] > t, axis=-1)
        n = n[()]
    return n


def refuse_count_three(n, s) -> None:
    """Raise ``SchmidtNumberError``, through ``refuse_rows``, for the rows of
    s (..., 4) whose count n is 3; the residual is the row's third-largest
    coefficient, which such a count puts above ``zero_tol``."""
    three = n == 3
    if three.any():
        third = np.where(three, np.sort(s, axis=-1)[..., 1], 0.0)
        refuse_rows(SchmidtNumberError, "coefficient count is 3", third, "zero_tol")


def schmidt_number_from_coefficients(s) -> int:
    """Count the nonvanishing coefficients of one row of four, as
    ``schmidt_numbers_array`` does; the result is 1, 2 or 4.

    Raises:
        ValidationError: as ``as_finite``, for anything but four finite reals.
        SchmidtNumberError: as ``refuse_count_three``.
    """
    s = as_finite(s, (4,), _S_ROW)
    n = schmidt_numbers_array(s)
    refuse_count_three(n, s)
    return int(n)


def schmidt_decompose(u) -> SchmidtData:
    """Operator-Schmidt decomposition via realignment and SVD.

    The left/right singular vectors of the realigned matrix, reshaped to
    2x2, are the factor operators; they come out Hilbert-Schmidt
    orthonormal, so the singular values carry a factor 2 relative to the
    normalized coefficients.

    Raises:
        ValidationError: as ``as_finite``, if the matrix is not a finite 4x4
            matrix; an SVD that does not converge raises numpy's own error.
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


def controlled_unitary_gate(p: float) -> np.ndarray:
    """The Schmidt-number-2 normal form sqrt(1-p) I x I + i sqrt(p) sx x sx,
    a 4x4 complex matrix validated as ``make_gate``.

    Every controlled unitary is locally equivalent to this gate for some
    p in [0, 1]; p = sin^2(theta/2) places it at [theta, 0, 0].

    Raises:
        ValidationError: if p is not a real number in [0, 1], as
            ``as_scalar`` raises it.
    """
    as_scalar(p, "p", 0, 1, integer=False)
    matrix = np.sqrt(1.0 - p) * kron(IDENTITY2, IDENTITY2) + 1j * np.sqrt(p) * kron(
        SIGMA_X, SIGMA_X
    )
    return make_gate(matrix)
