"""Reference mathematics for checking twoqubit's outputs.

Everything here is written from the textbook definitions with numpy
alone; the package under test is never imported, so a fault in it cannot
hide in the reference.

* Makhlin invariants (Makhlin, QIP 1, 243 (2002)) in the spin-flip form
  m(U) = U^T (sy x sy) U (sy x sy), which has the spectrum of the
  Bell-basis matrix M(U) = U_B^T U_B up to a common sign:
  G1 = tr^2 m / (16 det U), G2 = (tr^2 m - tr m^2) / (4 det U).
* Perfect entanglers (Zhang et al., PRA 67, 042313 (2003)): a gate is a
  perfect entangler iff the convex hull of the eigenvalues of m(U)
  contains 0. For points on the unit circle that holds iff no angular
  gap between neighbouring eigenphases exceeds pi.
* Operator-Schmidt coefficients: half the singular values of the
  realigned matrix R[(a a'), (b b')] = U[(a b), (a' b')].
"""
from __future__ import annotations

import numpy as np

PI = np.pi

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
XX, YY, ZZ = np.kron(SX, SX), np.kron(SY, SY), np.kron(SZ, SZ)
I4 = np.eye(4, dtype=complex)

# A gate whose eigenvalue gap is within this many radians of pi lies on
# the boundary of the perfect-entangler polyhedron; the closed polyhedron
# counts it as a perfect entangler, as Zhang et al. define it.
HULL_BOUNDARY_TOL = 1e-9

# Haar-measure weight of the perfect-entangler polyhedron,
# Musz, Kus, Zyczkowski, PRA 87, 022111 (2013).
HAAR_PE_FRACTION = 0.848826

VERTICES = {
    "O": (0.0, 0.0, 0.0),
    "A1": (PI, 0.0, 0.0),
    "A2": (PI / 2, PI / 2, 0.0),
    "A3": (PI / 2, PI / 2, PI / 2),
    "L": (PI / 2, 0.0, 0.0),
    "M": (3 * PI / 4, PI / 4, 0.0),
    "N": (3 * PI / 4, PI / 4, PI / 4),
    "P": (PI / 4, PI / 4, PI / 4),
    "Q": (PI / 4, PI / 4, 0.0),
}

# The fifteen edges: start vertex, end vertex and the parameter range
# [0, hi] that the program sweeps linearly from start to end.
EDGES = {
    "OA1": ("O", "A1", PI),
    "OA2": ("O", "A2", PI / 2),
    "A2A1": ("A2", "A1", PI / 2),
    "A2A3": ("A2", "A3", PI / 2),
    "OA3": ("O", "A3", 1.0),
    "A1A3": ("A1", "A3", 1.0),
    "LQ": ("L", "Q", PI / 4),
    "LM": ("L", "M", PI / 4),
    "A2M": ("A2", "M", PI / 4),
    "A2Q": ("A2", "Q", PI / 4),
    "QP": ("Q", "P", PI / 4),
    "MN": ("M", "N", PI / 4),
    "PN": ("P", "N", PI / 2),
    "LN": ("L", "N", PI / 4),
    "A2P": ("A2", "P", PI / 4),
}

# The seven facets of the perfect-entangler polyhedron L M N P Q A2.
PE_FACETS = (
    ("L", "M", "A2", "Q"),
    ("L", "P", "N"),
    ("Q", "P", "A2"),
    ("L", "Q", "P"),
    ("L", "M", "N"),
    ("M", "N", "A2"),
    ("P", "N", "A2"),
)


def haar(rng: np.random.Generator, dim: int, size: int) -> np.ndarray:
    """Haar unitaries (size, dim, dim): QR of a complex Ginibre matrix,
    with R's diagonal rephased to unit modulus."""
    shape = (size, dim, dim)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def local_pairs(rng: np.random.Generator, size: int) -> np.ndarray:
    """Random single-qubit pairs u (x) v, shape (size, 4, 4)."""
    u, v = haar(rng, 2, size), haar(rng, 2, size)
    return np.einsum("nab,ncd->nacbd", u, v).reshape(size, 4, 4)


def core(c) -> np.ndarray:
    """exp(i/2 (c1 XX + c2 YY + c3 ZZ)) for triples (..., 3).

    The three terms commute and square to the identity, so each factor is
    cos(ci/2) I + i sin(ci/2) P.
    """
    c = np.asarray(c, dtype=float)
    out = np.broadcast_to(I4, c.shape[:-1] + (4, 4))
    for k, pauli in enumerate((XX, YY, ZZ)):
        half = c[..., k, None, None] / 2
        out = out @ (np.cos(half) * I4 + 1j * np.sin(half) * pauli)
    return out


def spin_flip_m(u: np.ndarray) -> np.ndarray:
    return np.swapaxes(u, -1, -2) @ YY @ u @ YY


def makhlin(u: np.ndarray):
    """(G1, G2) for unitaries (..., 4, 4); G2 is returned real."""
    m = spin_flip_m(u)
    tr = np.trace(m, axis1=-2, axis2=-1)
    tr2 = np.trace(m @ m, axis1=-2, axis2=-1)
    det = np.linalg.det(u)
    return tr**2 / (16 * det), ((tr**2 - tr2) / (4 * det)).real


def schmidt_coefficients(u: np.ndarray) -> np.ndarray:
    """Operator-Schmidt coefficients, descending, for unitaries (..., 4, 4)."""
    u = np.asarray(u, dtype=complex)
    r = u.reshape(u.shape[:-2] + (2, 2, 2, 2))  # indices a b a' b'
    r = np.einsum("...ijkl->...ikjl", r).reshape(u.shape[:-2] + (4, 4))
    return np.linalg.svd(r, compute_uv=False) / 2


def strength(s: np.ndarray) -> np.ndarray:
    """-sum s^2 log2 s^2 over the last axis, with 0 log 0 = 0."""
    p = np.asarray(s, dtype=float) ** 2
    safe = np.where(p > 0, p, 1.0)
    return -np.sum(p * np.log2(safe), axis=-1)


def max_eigen_gap(u: np.ndarray) -> np.ndarray:
    """Largest angular gap between neighbouring eigenphases of m(U)."""
    phases = np.sort(np.angle(np.linalg.eigvals(spin_flip_m(u))), axis=-1)
    gaps = np.diff(phases, axis=-1)
    wrap = phases[..., :1] + 2 * PI - phases[..., -1:]
    return np.max(np.concatenate([gaps, wrap], axis=-1), axis=-1)


def is_perfect_entangler(u: np.ndarray) -> np.ndarray:
    """Zhang's convex-hull criterion, boundary included."""
    return max_eigen_gap(u) <= PI + HULL_BOUNDARY_TOL


def chamber_representative(c) -> np.ndarray:
    """Canonical representative of a point given exactly in the closed chamber.

    Inside the chamber the only identification left is the base mirror:
    [c1, c2, 0] equals [pi - c1, c2, 0], and the representative has
    c1 <= pi/2.
    """
    c = np.array(c, dtype=float)
    if c[2] == 0.0 and c[0] > PI / 2:
        c[0] = PI - c[0]
    return np.sort(c)[::-1]


def in_chamber(c, tol: float) -> bool:
    c1, c2, c3 = c
    ordered = c1 >= c2 - tol and c2 >= c3 - tol and c3 >= -tol
    base = c3 > tol or c1 <= PI / 2 + tol
    return bool(ordered and c1 + c2 <= PI + tol and base)
