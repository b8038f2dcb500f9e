"""Gate data model, Pauli operators, the Bell (magic) basis and a catalog
of named two-qubit gates.

Matrix convention: 4x4 complex in the computational basis |q_A q_B> with
qubit A as the most significant bit, so row/column index = 2*a + b.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .linops import DEFAULT_TOL, as_cmat, unitarity_defect

__all__ = [
    "IDENTITY2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI_BASIS",
    "Q_MAGIC",
    "Gate",
    "make_gate",
    "bell_transform",
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


@dataclass(frozen=True, eq=False)
class Gate:
    """A two-qubit gate: a 4x4 unitary with an optional name."""

    matrix: np.ndarray
    name: str | None = None

    def __post_init__(self):
        self.matrix.setflags(write=False)


def make_gate(matrix, name: str | None = None) -> Gate:
    """Validate ``matrix`` as a two-qubit unitary and wrap it in a Gate.

    Raises:
        ValidationError: if the matrix is not 4x4, not finite, or not
            unitary within ``DEFAULT_TOL.unitarity_tol`` (the message carries
            ||U^dag U - I||_F).
    """
    a = as_cmat(matrix, 4)
    defect = unitarity_defect(a)
    if defect > DEFAULT_TOL.unitarity_tol:
        raise ValidationError(
            f"matrix is not unitary: ||U^dag U - I||_F = {defect:.3e}"
        )
    return Gate(matrix=a, name=name)


def bell_transform(g: Gate) -> np.ndarray:
    """Return the gate matrix in the Bell basis: U_B = Q^T U Q.

    Note the transpose (not the adjoint) of Q on the left. The inverse is
    conj(Q) @ U_B @ Q.conj().T.
    """
    return Q_MAGIC.T @ g.matrix @ Q_MAGIC


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


def catalog(name: str) -> Gate:
    """Return a named gate in the standard computational-basis convention.

    Raises:
        ValidationError: for an unknown name; the message lists valid names.
    """
    try:
        matrix = _CATALOG[name]
    except KeyError:
        raise ValidationError(
            f"unknown gate {name!r}; valid names: {', '.join(_CATALOG)}"
        ) from None
    return Gate(matrix=matrix.copy(), name=name)


def gate_from_json_data(data, name: str | None = None) -> Gate:
    """Build a Gate from the JSON wire format.

    The format is a plain array of 4 rows of 4 entries, each entry a
    two-element array [re, im].

    Raises:
        ParseError: if the structure is not 4 x 4 x [re, im] of numbers.
        ValidationError: if an entry is not finite or the matrix is not
            unitary.
    """
    if not isinstance(data, list) or len(data) != 4:
        raise ParseError("gate JSON must be an array of 4 rows")
    matrix = np.empty((4, 4), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != 4:
            raise ParseError(f"row {i} must be an array of 4 entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in entry
                )
            ):
                raise ParseError(f"entry [{i}][{j}] must be a [re, im] number pair")
            try:
                matrix[i, j] = complex(entry[0], entry[1])
            except OverflowError:  # an integer beyond the float range
                raise ValidationError("matrix entries must be finite") from None
    return make_gate(matrix, name=name)


def gate_to_json_data(g: Gate) -> list:
    """Serialize a gate to the JSON wire format (4 x 4 x [re, im])."""
    return [
        [[float(v.real), float(v.imag)] for v in row]
        for row in np.asarray(g.matrix)
    ]
