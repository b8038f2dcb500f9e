"""Seeded random gate generation for property tests and audits."""
from __future__ import annotations

import numpy as np

__all__ = ["haar_unitary", "random_local_unitary"]


def haar_unitary(rng: np.random.Generator, dim: int = 4, size: int | None = None) -> np.ndarray:
    """Haar-distributed unitaries via QR of a complex Ginibre matrix.

    The diagonal of R is rephased to unit modulus, which removes the QR
    sign ambiguity and makes the distribution exactly Haar.

    Returns shape (dim, dim), or (size, dim, dim) when ``size`` is given.
    """
    shape = (dim, dim) if size is None else (size, dim, dim)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_local_unitary(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Random single-qubit pair u (x) v with u, v Haar on U(2)."""
    u = haar_unitary(rng, 2, size)
    v = haar_unitary(rng, 2, size)
    prod = np.einsum("...ab,...cd->...acbd", u, v)
    return prod.reshape(prod.shape[:-4] + (4, 4))
