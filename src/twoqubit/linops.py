"""The package's policies, each written once: the tolerance table
(``Tolerance``), the rows handled at a time (``CHUNK`` and ``chunks``), the
validation of outside input (``as_finite`` for arrays, ``as_scalar`` for
numbers, ``lookup`` for names), the refusal of rows that break a tolerance
(``refuse_rows``), the report records (``Check`` and ``Report``) whose one
pass rule is ``Check.passed``, and the small matrix helpers ``unitarity_defect``,
``kron``, ``real_table`` and ``real_planes``. Nothing here mutates its input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ValidationError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "CHUNK",
    "chunks",
    "as_finite",
    "as_triple",
    "as_scalar",
    "lookup",
    "Check",
    "Report",
    "refuse_rows",
    "unitarity_defect",
    "kron",
    "real_table",
    "real_planes",
]


@dataclass(frozen=True)
class Tolerance:
    """Every threshold of the package, one field per meaning, read by each
    function from ``DEFAULT_TOL`` when it is called. Margins "on the workloads"
    are those of perfbench's three workloads (README, Tolerances)."""

    # largest ||U^dag U - I||_F, |sum s^2 - 1|, |sum |z|^2 - 1|; on the workloads
    # at most 3.5e-15 (analyze gates; Haar draws 2.9e-14) and 1.6e-15
    unitarity_tol: float = 1e-10
    # Schmidt number: s2, then s3, above this are nonzero, and s below -this is refused;
    # on the workloads a zero s reads <= 6.1e-17 (none below 0), a nonzero s3 >= 4.4e-2
    # but for the planted near-line gates
    zero_tol: float = 1e-8
    # two evaluations of one class agree: the extraction, locally_equivalent, the audit's
    # lines, |Im G2| (G2 is real for a unitary) and the Schmidt kernel's discarded
    # Im(C^dag C), which sends a row to the SVD. At unitarity defect 0.99e-10, 14 classes
    # x 2e4 perturbations U (I + E) read an extraction residual <= 4.0e-11 and points
    # <= 5.0e-11 from their polar factor's; |Im G2| <= sqrt3 times the defect, 1.7e-10, so
    # this field stays above sqrt3 unitarity_tol. Audit lines: <= 3.3e-15 (1e5 samples,
    # seeds 3 and 42); Im(C^dag C): <= 6.1e-16 on 1e5 Haar draws
    invariant_tol: float = 1e-9
    # extraction: larger off-diagonal -> eigvals; at most 1.9e-11 on 1e5 Haar draws
    eigh_offdiag_tol: float = 1e-8
    # base mirror c1 -> pi - c1 when c3 <= this; a c3 within extraction noise of
    # it may reduce to either mirror image, and both have the same invariants. On
    # the workloads base-plane gates read |c3| <= 2.1e-16, Haar draws c3 >= 5.2e-6
    base_mirror_tol: float = 1e-13
    # in_weyl_chamber and the PE test: slack on each face; on the workloads points on
    # a facet read at most 8.9e-16 off it, and Haar draws come no closer than 5.2e-6
    facet_tol: float = 1e-10
    table_tol: float = 1e-10  # verify_tables: closed form vs engine; 4.4e-16 at n = 100001
    # Schmidt coefficients: rows with s4 below this take the SVD, not the Gram
    # eigenvalues, whose error grows like 1.5e-16 / s4: up to 1.1e-14 against the
    # SVD at 1.01 times this, 2.4e-14 at half of it; 8 in 1e5 Haar draws fall back
    svd_fallback_tol: float = 2e-2


DEFAULT_TOL = Tolerance()

# Rows evaluated, checked or formatted at a time, so memory does not grow with the
# row count; a constant, so each output depends only on its command's input. Audit
# time is flat from 256 to 4096 rows; 1024 cuts its benchmark peak RSS 48.4 -> 43.8 MB.
CHUNK = 1024


def chunks(n: int) -> Iterator[slice]:
    """Consecutive slices of up to ``CHUNK`` rows that cover rows 0 to n - 1."""
    return (slice(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK))


def as_finite(x, shape: tuple, what: str, dtype=float) -> np.ndarray:
    """``x`` converted to a new ``dtype`` array of ``shape`` with finite entries.

    Raises:
        ValidationError: ``expected <what>, got [shape (...): ]<repr>`` if ``x``
            does not convert or has another shape, the echoed ``repr`` cut to
            80 characters; ``<what> entries must be finite, but entry [<index>]
            is not`` for the first NaN or infinity.
    """
    try:
        a = np.array(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or a.shape != shape:
        shown = repr(x)
        shown = shown if len(shown) <= 80 else shown[:77] + "..."
        got = "" if a is None else f"shape {a.shape}: "
        raise ValidationError(f"expected {what}, got {got}{shown}")
    if not np.isfinite(a).all():
        index = np.argwhere(~np.isfinite(a))[0].tolist()
        raise ValidationError(f"{what} entries must be finite, but entry {index} is not")
    return a


def as_triple(c) -> np.ndarray:
    """``c`` as a real, finite coordinate triple, as ``as_finite`` checks it."""
    return as_finite(c, (3,), "coordinate triple [c1, c2, c3]")


# numpy indexes with int64, so no count can be larger than this
INDEX_MAX = 2**63 - 1


def as_scalar(x, what: str, low, high=INDEX_MAX, integer: bool = True):
    """``x`` if it is an integer (or, unless ``integer``, a float) from ``low``
    to ``high``, no bound when None; a bool is neither, and NaN is in no range.

    Raises:
        ValidationError: ``<what> must be at most <high>, got <repr>`` for an
            integer above ``high``; else ``<what> must be an integer of at least
            <low>, got <repr>`` or, unless ``integer``, ``<what> must lie in
            [<low>, <high>], got <repr>``.
    """
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(x, kinds) and not isinstance(x, bool):
        if low <= x and (high is None or x <= high):
            return x
        if integer and x >= low:
            raise ValidationError(f"{what} must be at most {high}, got {x!r}")
    rule = f"be an integer of at least {low}" if integer else f"lie in [{low}, {high}]"
    raise ValidationError(f"{what} must {rule}, got {x!r}")


def lookup(table: dict, key, kind: str):
    """``table[key]``; ValidationError listing the valid names for another key."""
    if isinstance(key, str) and key in table:
        return table[key]
    raise ValidationError(f"unknown {kind} {key!r}; valid names: {', '.join(table)}")


@dataclass(frozen=True)
class Check:
    """One checked claim of a report: ``value`` measured against
    ``tolerance``, found at ``where`` (a row, a parameter, or None), and
    ``detail``, the text that reports it."""

    name: str
    value: float
    tolerance: float
    where: int | float | None
    detail: str

    @property
    def passed(self) -> bool:
        """``value <= tolerance``, so a NaN value fails; the one pass rule of
        every report, and the rule ``refuse_rows`` applies to each row."""
        return self.value <= self.tolerance

    @classmethod
    def worst_row(cls, name: str, residual: np.ndarray, field: str) -> Check:
        """The check of the largest entry of ``residual`` (the first NaN, if there
        is one) against the ``DEFAULT_TOL`` field named ``field``; ``where`` is its row."""
        tol = getattr(DEFAULT_TOL, field)
        flat = np.ravel(residual)
        where = int(np.argmax(flat))
        value = float(flat[where])
        return cls(name, value, tol, where, f"max deviation {value:.3e} (tol {tol:g})")

    @staticmethod
    def worse_row(kept: float, values: np.ndarray) -> int | None:
        """``worst_row``'s rule across chunks: the row of ``values`` that replaces
        ``kept`` (-inf at first), the worst of earlier rows, or None; a tie keeps ``kept``."""
        row = int(np.argmax(values))
        return row if np.argmax((kept, values[row])) else None


@dataclass(frozen=True)
class Report:
    """The checks of one command and, if one fails, the input that fails it."""

    checks: tuple[Check, ...]
    counterexample: np.ndarray | None = None  # the gate matrix of the failing row

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def refuse_rows(error: type, what: str, residual: np.ndarray, field: str) -> None:
    """Raise ``error`` naming the rows whose residual is not within the
    ``DEFAULT_TOL`` field named ``field``; a NaN residual is refused."""
    within = residual <= getattr(DEFAULT_TOL, field)
    if not within.all():
        rows = np.flatnonzero(~within)
        worst = Check.worst_row(what, residual, field)
        raise error(f"{what} at rows {rows[:10].tolist()}{' ...' if rows.size > 10 else ''} "
                    f"({rows.size} in all); worst residual {worst.value:.3e} "
                    f"exceeds tol {worst.tolerance:g} ({field})")


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius norm of m^dag m - I, as numpy's float (a ``float`` that
    ``refuse_rows`` takes as one row); inf or NaN, with no warning, on overflow."""
    m = np.asarray(m)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(np.swapaxes(m, -1, -2).conj() @ m - np.eye(m.shape[-1]))


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices.

    Row-major qubit ordering: the first factor owns the slow (most
    significant) index, so row/column 2*i + j of the product addresses
    row i of ``a`` and row j of ``b``.
    """
    return np.kron(as_finite(a, (2, 2), "2x2 matrix", complex),
                   as_finite(b, (2, 2), "2x2 matrix", complex))


def real_table(t: np.ndarray) -> np.ndarray:
    """The real (32, 32) matrix that ``real_planes`` takes for the complex linear
    map ``t`` (16, 16) on the entries of a 4x4 matrix."""
    w = np.empty((16, 2, 2, 16))  # (input entry, its re/im, output plane re/im, output entry)
    w[:, 0, 0], w[:, 0, 1], w[:, 1, 0], w[:, 1, 1] = t.real.T, t.imag.T, -t.imag.T, t.real.T
    return w.reshape(32, 32)


def real_planes(u, w: np.ndarray) -> np.ndarray:
    """The real and the imaginary plane (..., 2, 4, 4) of a ``real_table`` map
    ``w`` on each matrix of u (..., 4, 4): one real product on ``u.view(float)``."""
    u = np.ascontiguousarray(u, dtype=complex)
    return (u.reshape(-1, 16).view(float) @ w).reshape(u.shape[:-2] + (2, 4, 4))
