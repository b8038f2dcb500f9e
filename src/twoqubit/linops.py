"""Dense complex linear algebra for the fixed 2x2 and 4x4 matrices used here.

Thin, validated wrappers around LAPACK (via numpy.linalg). Everything
operates on plain complex128 arrays, never mutates its input, and is safe
to call concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_cmat",
    "as_triple",
    "refuse_rows",
    "unitarity_defect",
    "kron",
]


@dataclass(frozen=True)
class Tolerance:
    """Every threshold of the package, one field per meaning, read by each
    function from ``DEFAULT_TOL`` when it is called."""

    unitarity_tol: float = 1e-10  # make_gate: largest accepted ||U^dag U - I||_F
    zero_tol: float = 1e-8  # Schmidt count: coefficients above this are nonzero
    norm_tol: float = 1e-10  # allowed |sum |z|^2 - 1| and |sum s^2 - 1|
    negative_tol: float = 1e-12  # Schmidt coefficients below -this are rejected
    imag_residue_tol: float = 1e-9  # largest |Im G2| taken as rounding noise
    invariant_tol: float = 1e-8  # two (G1, G2) evaluations of one class agree
    eigh_offdiag_tol: float = 1e-8  # extraction: larger off-diagonal -> eigvals
    local_invariance_tol: float = 1e-9  # audit: allowed change under local dressing
    chamber_tol: float = 1e-12  # in_weyl_chamber: slack on each inequality
    # base mirror c1 -> pi - c1 when c3 <= this; a c3 within extraction noise of
    # it may reduce to either mirror image, and both have the same invariants
    base_mirror_tol: float = 1e-13
    pe_boundary_tol: float = 1e-10  # PE test: slack on each polyhedron facet
    table_tol: float = 1e-10  # verify_tables: closed form vs engine deviation


DEFAULT_TOL = Tolerance()


def as_cmat(m, size: int) -> np.ndarray:
    """Validate ``m`` as a finite size x size complex matrix; return a copy."""
    a = np.array(m, dtype=complex)
    if a.shape != (size, size):
        raise ValidationError(f"expected a {size}x{size} matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    return a


def as_triple(c) -> np.ndarray:
    """Validate ``c`` as a real, finite triple [c1, c2, c3]; return a copy.

    ``c`` may be any iterable of three numbers, such as a sequence or a
    shape-(3,) array.

    Raises:
        ValidationError: for any other input.
    """
    try:
        a = np.array(c if isinstance(c, np.ndarray) else tuple(c), dtype=float)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or a.shape != (3,) or not np.isfinite(a).all():
        shown = repr(c)
        shown = shown if len(shown) <= 80 else shown[:77] + "..."
        raise ValidationError(f"expected a coordinate triple [c1, c2, c3], got {shown}")
    return a


def refuse_rows(error: type, what: str, residual: np.ndarray, field: str) -> None:
    """Raise ``error`` naming the rows whose residual is not within the
    ``DEFAULT_TOL`` field named ``field``; a NaN residual is refused."""
    tol = getattr(DEFAULT_TOL, field)
    within = residual <= tol
    if not within.all():
        rows = np.flatnonzero(~within)
        raise error(f"{what} at rows {rows[:10].tolist()}{' ...' if rows.size > 10 else ''} "
                    f"({rows.size} in all); worst residual {float(np.max(residual)):.3e} "
                    f"exceeds tol {tol:g} ({field})")


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius norm of m^dag m - I; inf or NaN, with no warning, on overflow."""
    m = np.asarray(m)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(np.swapaxes(m, -1, -2).conj() @ m - np.eye(m.shape[-1])))


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices.

    Row-major qubit ordering: the first factor owns the slow (most
    significant) index, so row/column 2*i + j of the product addresses
    row i of ``a`` and row j of ``b``.
    """
    return np.kron(as_cmat(a, 2), as_cmat(b, 2))

