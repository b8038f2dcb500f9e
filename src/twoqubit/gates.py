"""Pauli operators, the Bell (magic) basis, gate validation and a catalog
of named two-qubit gates.

A gate is its matrix: 4x4 complex in the computational basis |q_A q_B> with
qubit A as the most significant bit, so row/column index = 2*a + b.
"""
from __future__ import annotations

import numpy as np

from .errors import ParseError, ValidationError
from .linops import as_finite, lookup, refuse_rows, unitarity_defect

__all__ = [
    "IDENTITY2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI_BASIS",
    "Q_MAGIC",
    "make_gate",
    "catalog",
    "catalog_names",
    "gate_from_json_data",
    "gate_to_json_data",
]

IDENTITY2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Hilbert-Schmidt orthonormal single-qubit operator basis: tr(P_i^dag P_j) = delta_ij
PAULI_BASIS = tuple(p / np.sqrt(2) for p in (IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z))

# Bell ("magic") basis change: local gates become real orthogonal in this basis.
# Same fixed unitary as in Qiskit's local-invariance routines.
Q_MAGIC = (1 / np.sqrt(2)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)


def make_gate(matrix) -> np.ndarray:
    """``matrix`` validated as a two-qubit unitary, as a new complex 4x4 array.

    Raises:
        ValidationError: as ``as_finite``, for anything but a finite 4x4
            complex matrix; or, as ``refuse_rows``, if ||U^dag U - I||_F is
            not within ``unitarity_tol`` (a NaN from an overflow is refused).
    """
    a = as_finite(matrix, (4, 4), "matrix", complex)
    refuse_rows(ValidationError, "matrix is not unitary: ||U^dag U - I||_F", unitarity_defect(a),
                "unitarity_tol")
    return a


_SQRT2 = np.sqrt(2.0)

_CATALOG: dict[str, np.ndarray] = {
    "identity": np.eye(4, dtype=complex),
    "cnot": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    # CNOT(A->B) followed by CNOT(B->A)
    "dcnot": np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex
    ),
    "iswap": np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    # principal square root of SWAP (singlet eigenvalue +i)
    "sqrt_swap": np.array(
        [
            [1, 0, 0, 0],
            [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
            [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    ),
    "sqrt_iswap": np.array(
        [
            [1, 0, 0, 0],
            [0, 1 / _SQRT2, 1j / _SQRT2, 0],
            [0, 1j / _SQRT2, 1 / _SQRT2, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    ),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog(name: str) -> np.ndarray:
    """A fresh copy of the named gate's matrix, in the standard
    computational-basis convention.

    Raises:
        ValidationError: for an unknown name; the message lists valid names.
    """
    return lookup(_CATALOG, name, "gate").copy()


def gate_from_json_data(data) -> np.ndarray:
    """The gate matrix of the JSON wire format, validated as ``make_gate``.

    The format is a plain array of 4 rows of 4 entries, each entry a
    two-element array [re, im].

    Raises:
        ParseError: if the structure is not 4 x 4 x [re, im] of numbers.
        ValidationError: if an entry is not finite or the matrix is not
            unitary.
    """
    if not isinstance(data, list) or len(data) != 4:
        raise ParseError("gate JSON must be an array of 4 rows")
    entries = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != 4:
            raise ParseError(f"row {i} must be an array of 4 entries")
        for j, entry in enumerate(row):
            if not (isinstance(entry, list) and len(entry) == 2
                    and type(entry[0]) is not bool and type(entry[1]) is not bool
                    and isinstance(entry[0], (int, float)) and isinstance(entry[1], (int, float))):
                raise ParseError(f"entry [{i}][{j}] must be a [re, im] number pair")
            try:
                entries.append(complex(*entry))
            except OverflowError:  # a huge integer, refused by make_gate as an infinity
                entries.append(complex(np.inf))
    return make_gate(np.array(entries).reshape(4, 4))


def gate_to_json_data(u) -> list:
    """Serialize a gate matrix to the JSON wire format (4 x 4 x [re, im])."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(u)]
