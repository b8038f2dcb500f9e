"""Canonical (Weyl-chamber) coordinates of two-qubit gates.

Every two-qubit gate factors into single-qubit operations sandwiching a
three-parameter core exp(i/2 (c1 XX + c2 YY + c3 ZZ)); the triple
[c1, c2, c3] labels the local equivalence class. The coordinates live on a
3-torus with period pi, and the residual symmetries (coordinate
permutations, and the pair flips [ci, cj, ck] -> [pi - ci, pi - cj, ck])
fold the torus onto a tetrahedral fundamental domain:

    c1 >= c2 >= c3 >= 0,  c1 + c2 <= pi,  and c1 <= pi/2 whenever c3 = 0,

with vertices O = [0,0,0], A1 = [pi,0,0], A2 = [pi/2,pi/2,0] and
A3 = [pi/2,pi/2,pi/2] (Zhang et al., PRA 67, 042313 (2003)). Perfect
entanglers form the polyhedron with vertices L, M, N, P, Q, A2, the
midpoints of the tetrahedron edges plus A2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExtractionError
from .gates import Q_MAGIC
from .invariants import (
    bell_matrix_array, invariants_from_bell_array, invariants_from_point_array,
)
from .linops import DEFAULT_TOL, as_finite, as_scalar, as_triple, refuse_rows
from .schmidt import schmidt_numbers_array, schmidt_strength_array, z_from_point_array

__all__ = [
    "O",
    "A1",
    "A2",
    "A3",
    "L",
    "M",
    "N",
    "P",
    "Q",
    "TETRAHEDRON_VERTICES",
    "POLYHEDRON_VERTICES",
    "PE_HALFSPACES",
    "weyl_reduce",
    "weyl_reduce_array",
    "in_weyl_chamber",
    "canonical_point",
    "canonical_points_array",
    "ClassData",
    "locally_equivalent",
    "is_perfect_entangler",
    "canonical_gate",
    "canonical_gates_array",
    "controlled_unitary_gate",
]


def _vertex(c1: float, c2: float, c3: float) -> np.ndarray:
    v = np.array([c1, c2, c3], dtype=float)
    v.flags.writeable = False
    return v


O = _vertex(0.0, 0.0, 0.0)
A1 = _vertex(np.pi, 0.0, 0.0)
A2 = _vertex(np.pi / 2, np.pi / 2, 0.0)
A3 = _vertex(np.pi / 2, np.pi / 2, np.pi / 2)
# midpoints of tetrahedron edges OA1, A2A1, A1A3, OA3, OA2
L = _vertex(np.pi / 2, 0.0, 0.0)
M = _vertex(3 * np.pi / 4, np.pi / 4, 0.0)
N = _vertex(3 * np.pi / 4, np.pi / 4, np.pi / 4)
P = _vertex(np.pi / 4, np.pi / 4, np.pi / 4)
Q = _vertex(np.pi / 4, np.pi / 4, 0.0)

TETRAHEDRON_VERTICES = {"O": O, "A1": A1, "A2": A2, "A3": A3}
POLYHEDRON_VERTICES = {"L": L, "M": M, "N": N, "P": P, "Q": Q, "A2": A2}

# Supporting half-spaces of the perfect-entangler polyhedron, derived once
# from its six vertices: rows (a, b) encode a . c <= b. Facets in order:
# base c3 = 0 (quad L M A2 Q), c3 <= c2 (tri L P N), c2 <= c1 (tri Q P A2),
# c1 + c2 >= pi/2 (tri L Q P), c1 - c2 <= pi/2 (tri L M N),
# c1 + c2 <= pi (tri M N A2), c2 + c3 <= pi/2 (tri P N A2).
PE_HALFSPACES = (
    np.array(
        [
            [0.0, 0.0, -1.0],
            [0.0, -1.0, 1.0],
            [-1.0, 1.0, 0.0],
            [-1.0, -1.0, 0.0],
            [1.0, -1.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 1.0],
        ]
    ),
    np.array([0.0, 0.0, 0.0, -np.pi / 2, np.pi / 2, np.pi, np.pi / 2]),
)
_CHAMBER_FACES = [0, 1, 2, 5]  # the facets that lie in faces of the chamber


_SWAP_01 = np.array([1, 0, 2])


def weyl_reduce_array(c: np.ndarray) -> np.ndarray:
    """Fold coordinate triples (..., 3) into the fundamental chamber.

    Applies the period-pi reduction, a descending sort (coordinate
    permutation), at most one pair flip (one suffices after sorting), and
    the base mirror c1 -> pi - c1 when c3 vanishes and c1 > pi/2.
    """
    c = np.mod(np.asarray(c, dtype=float), np.pi)
    c.sort(axis=-1)
    c = c[..., ::-1]
    over = c[..., 0] + c[..., 1] > np.pi
    if over.any():  # [c1, c2, c3] -> [pi - c2, pi - c1, c3] on those rows
        flip = over[..., None] & np.array([True, True, False])
        c = np.sort(np.where(flip, np.pi - c.take(_SWAP_01, axis=-1), c), axis=-1)[..., ::-1]
    mirror = (c[..., 2] <= DEFAULT_TOL.base_mirror_tol) & (c[..., 0] > np.pi / 2)
    if mirror.any():  # c1 -> pi - c1 on those rows
        base = mirror[..., None] & np.array([True, False, False])
        c = np.sort(np.where(base, np.pi - c, c), axis=-1)[..., ::-1]
    return c


def weyl_reduce(c) -> np.ndarray:
    """Reduce an arbitrary coordinate triple into the fundamental chamber.

    Returns the reduced [c1, c2, c3] as a float array of shape (3,).
    Idempotent, and preserves the local invariants to better than 1e-12.
    """
    return weyl_reduce_array(as_triple(c))


def in_weyl_chamber(c) -> bool:
    """True iff the triple meets the chamber faces, rows ``_CHAMBER_FACES`` of
    ``PE_HALFSPACES``, and the base condition, each within ``facet_tol``."""
    c, (a, b), tol = as_triple(c), PE_HALFSPACES, DEFAULT_TOL.facet_tol
    base = c[2] > DEFAULT_TOL.base_mirror_tol or c[0] <= np.pi / 2 + tol
    return bool((a[_CHAMBER_FACES] @ c <= b[_CHAMBER_FACES] + tol).all() and base)


# Mix x for the eigenbasis of Re M + x Im M. Distinct phases a, b of M collide
# there when a + b = 2 atan(x) mod 2pi, which for this x is no rational multiple
# of pi (x = sqrt2 - 1 would collide whenever a coordinate is pi/8).
_MIX = (np.sqrt(5.0) - 1.0) / 2.0
_OFF_ROWS, _OFF_COLS = np.nonzero(~np.eye(4, dtype=bool))
# lam[_PAIR_A] + lam[_PAIR_B] = [l0 + l1, l0 + l2, l1 + l2]
_PAIR_A, _PAIR_B = np.array([0, 0, 1]), np.array([1, 2, 2])


def _eigenphases(m: np.ndarray) -> np.ndarray:
    """Eigenphases of stacked symmetric unitaries m (..., 4, 4): the commuting
    Re m and Im m share the real eigenbasis P of Re m + x Im m, so each phase
    is the arctan2 of the diagonals of P^T (Im m) P and P^T (Re m) P. Rows where
    an off-diagonal entry of P^T m P exceeds ``eigh_offdiag_tol`` in modulus
    use ``eigvals``."""
    # P is real, so the products stay in real arithmetic, half the flops of complex ones
    re, im = m.real, m.imag
    p = np.linalg.eigh(re + _MIX * im)[1]
    pt = p.swapaxes(-1, -2)
    d_re, d_im = pt @ re @ p, pt @ im @ p
    phases = np.arctan2(d_im.diagonal(axis1=-2, axis2=-1), d_re.diagonal(axis1=-2, axis2=-1))
    off = np.hypot(d_re[..., _OFF_ROWS, _OFF_COLS], d_im[..., _OFF_ROWS, _OFF_COLS])
    fallback = off.max(axis=-1) > DEFAULT_TOL.eigh_offdiag_tol
    if fallback.any():
        phases[fallback] = np.angle(np.linalg.eigvals(m[fallback]))
    return phases


def points_from_bell_array(det, m, g1_ref, g2_ref):
    """Chamber-reduced canonical coordinates (..., 3) from the det(U) and M(U)
    of ``bell_matrix_array`` and their (G1, G2) from ``invariants_from_bell_array``.

    The eigenphases of M(U) = U_B^T U_B for the determinant-normalized gate
    are {c1+c2-c3, c1-c2+c3, -c1+c2+c3, -(c1+c2+c3)} modulo 2pi. Any three
    of them, l0 <= l1 <= l2 here, give [l0+l1, l0+l2, l1+l2] / 2, which is
    [c1, c2, c3] up to sign flips of coordinate pairs, permutations and
    multiples of pi (a 2pi shift of one phase moves two coordinates by pi).
    One Weyl reduction removes all of these. The point's own (G1, G2) are
    then checked against the given pair, and returned second.

    Raises:
        ExtractionError: if a point misses (G1, G2) by more than ``invariant_tol``.
    """
    lam = _eigenphases(m * np.exp(-0.5j * np.arctan2(det.imag, det.real))[..., None, None])
    lam.sort(axis=-1)
    points = weyl_reduce_array(0.5 * (lam.take(_PAIR_A, axis=-1) + lam.take(_PAIR_B, axis=-1)))
    g1, g2 = invariants_from_point_array(points)
    residual = np.maximum(np.abs(g1 - g1_ref), np.abs(g2 - g2_ref))
    refuse_rows(ExtractionError, "canonical point misses the local invariants", residual,
                "invariant_tol")
    return points, (g1, g2)


def canonical_points_array(u: np.ndarray) -> np.ndarray:
    """Chamber-reduced canonical coordinates (..., 3) for a stack of unitaries
    (..., 4, 4): the points of ``ClassData.from_unitaries``, so it refuses what
    that refuses, in the same order: a G2 residue, as
    ``invariants_from_bell_array``, then a missed point."""
    return ClassData.from_unitaries(u).points


@dataclass(frozen=True, eq=False)
class ClassData:
    """The local class of each input row, as columns.

    The canonical decomposition gives the chamber ``points`` (..., 3),
    complex ``g1``, real ``g2`` and the perfect-entangler flag ``is_pe``.
    A local class fixes its operator-Schmidt coefficients, so ``s`` (..., 4) is
    the points' sorted |z(c)|, with its ``strength`` and ``schmidt_number``.
    """

    points: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    s: np.ndarray
    strength: np.ndarray
    schmidt_number: np.ndarray
    is_pe: np.ndarray

    @property
    def controlled_unitary(self) -> np.ndarray:
        """True where the class is a controlled unitary, on the line [theta, 0, 0]:
        exactly the classes with Schmidt number at most 2."""
        return self.schmidt_number <= 2

    @classmethod
    def from_unitaries(cls, u) -> ClassData:
        """Class data of unitaries (..., 4, 4): the points and (G1, G2) of
        one det(U) and M(U) pass, then ``points_from_bell_array``, and ``s``
        as the sorted |z(c)| there, which the audit checks against the dressed
        gates' realigned coefficients (``schmidt_coefficients_array``).

        Raises:
            NumericalError: a G2 residue, a NaN one for a singular or overflowing
                row, then a missed point (``ExtractionError``); ``eigh`` raises its own.
        """
        return cls._from_unitaries(u)[0]

    @classmethod
    def _from_unitaries(cls, u):
        """``from_unitaries`` and the points' own (G1, G2) and z(c), which the audit reads."""
        with np.errstate(all="ignore"):  # a singular or overflowing row turns NaN, refused by G2
            det, m = bell_matrix_array(np.asarray(u, dtype=complex))
            g1, g2 = invariants_from_bell_array(det, m)
        points, point_invariants = points_from_bell_array(det, m, g1, g2)
        z = z_from_point_array(points)
        return _class_data(points, g1, g2, points, z), point_invariants, z

    @classmethod
    def from_points(cls, c) -> ClassData:
        """Class data of coordinate triples (..., 3), kept as given: ``s`` is
        the sorted |z(c)| and the flag is taken on the reduced points."""
        c = np.asarray(c, dtype=float)
        return _class_data(c, *invariants_from_point_array(c), weyl_reduce_array(c),
                           z_from_point_array(c))


def _class_data(points, g1, g2, reduced, z) -> ClassData:
    s = np.sort(np.abs(z), axis=-1)[..., ::-1]
    return ClassData(points, g1, g2, s, schmidt_strength_array(s), schmidt_numbers_array(s),
                     is_perfect_entangler_array(reduced))


def locally_equivalent(a, b) -> bool:
    """True iff gates a and b (4x4 matrices) differ only by single-qubit
    operations and a global phase.

    Decided at first order in the point: both chamber points, from one
    ``ClassData.from_unitaries`` pass, agree within ``invariant_tol`` in each
    coordinate, or, where c3 is within it of 0, one is within it of the other's
    base-mirror image [pi - c1, c2, c3].

    Raises:
        ValidationError: as ``as_finite``, for anything but a finite 4x4 matrix.
        NumericalError: as ``ClassData.from_unitaries``, an ``ExtractionError`` included.
    """
    u = np.stack([as_finite(g, (4, 4), "matrix", complex) for g in (a, b)])
    ca, cb = ClassData.from_unitaries(u).points
    tol = DEFAULT_TOL.invariant_tol
    mirror = min(ca[2], cb[2]) <= tol and (np.abs(ca - [np.pi - cb[0], cb[1], cb[2]]) <= tol).all()
    return bool((np.abs(ca - cb) <= tol).all() or mirror)


def canonical_point(u) -> np.ndarray:
    """The chamber-reduced canonical coordinates [c1, c2, c3] of one gate matrix,
    as ``canonical_points_array``; a malformed matrix is refused as ``as_finite``."""
    return canonical_points_array(as_finite(u, (4, 4), "matrix", complex))


def is_perfect_entangler(c) -> bool:
    """True iff the class can map some product state to a maximally
    entangled state.

    Geometrically: membership in the closed polyhedron L M N P Q A2,
    tested against its supporting half-spaces after chamber reduction.
    Boundary points (CNOT, DCNOT, ...) count as inside.
    """
    return bool(is_perfect_entangler_array(weyl_reduce_array(as_triple(c))))


def is_perfect_entangler_array(c: np.ndarray) -> np.ndarray:
    """Vectorized perfect-entangler test for chamber-reduced triples (..., 3)."""
    a, b = PE_HALFSPACES
    return (np.asarray(c) @ a.T <= b + DEFAULT_TOL.facet_tol).all(axis=-1)


# Phases of the canonical core on the magic basis: column j of c @ _MAGIC_PHASES is
# twice the phase of the core on column j of Q_MAGIC, for coordinate rows c.
_MAGIC_PHASES = np.array([[1.0, 1.0, -1.0, -1.0], [-1.0, 1.0, -1.0, 1.0], [1.0, -1.0, -1.0, 1.0]])


def canonical_gates_array(c: np.ndarray) -> np.ndarray:
    """The canonical cores exp(i/2 (c1 XX + c2 YY + c3 ZZ)) of coordinate
    triples (..., 3), as (..., 4, 4) complex matrices; no validation.

    XX, YY and ZZ are diagonal on the magic basis, so each core is
    Q_MAGIC diag(exp(i/2 c @ _MAGIC_PHASES)) Q_MAGIC^dag.
    """
    phases = np.exp(0.5j * (np.asarray(c, dtype=float) @ _MAGIC_PHASES))
    return (Q_MAGIC * phases[..., None, :]) @ Q_MAGIC.conj().T


def canonical_gate(c) -> np.ndarray:
    """The canonical core of one coordinate triple, a 4x4 complex matrix, as
    ``canonical_gates_array``; the triple is checked as ``as_triple``."""
    return canonical_gates_array(as_triple(c))


def controlled_unitary_gate(p: float) -> np.ndarray:
    """The Schmidt-number-2 normal form sqrt(1-p) I x I + i sqrt(p) sx x sx: the
    canonical core at [theta, 0, 0], p = sin^2(theta/2), to which every
    controlled unitary is locally equivalent for some p in [0, 1]. A p that is
    not a real number in [0, 1] raises ValidationError, as ``as_scalar`` does."""
    as_scalar(p, "p", 0, 1, integer=False)
    return canonical_gates_array([2 * np.arcsin(np.sqrt(p)), 0.0, 0.0])
