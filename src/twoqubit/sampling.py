"""Seeded random gate generation for property tests and audits."""
from __future__ import annotations

import numpy as np

__all__ = ["haar_unitary", "random_local_unitary"]


def haar_unitary(rng: np.random.Generator, dim: int = 4, size: int | None = None) -> np.ndarray:
    """Haar-distributed unitaries by Gram-Schmidt on a complex Ginibre matrix.

    Each column loses its projection on the columns before it twice (the
    second pass keeps Q^H Q = I to rounding), then is scaled to unit norm:
    the QR decomposition whose R has a positive real diagonal, so Q is exactly
    Haar (Mezzadri, Notices AMS 54, 592 (2007)). Each step runs on the whole
    stack at once, with no per-matrix LAPACK call.

    Returns shape (dim, dim), or (size, dim, dim) when ``size`` is given.
    """
    shape = (dim, dim) if size is None else (size, dim, dim)
    q = np.empty(shape, dtype=complex)  # filled in place: no complex temporaries
    q.real = rng.standard_normal(shape)
    q.imag = rng.standard_normal(shape)
    q /= np.sqrt(2)
    for j in range(dim):
        v, p = q[..., :, j], q[..., :, :j]
        for _ in range(2 if j else 0):
            v -= np.einsum("...ik,...k->...i", p, np.einsum("...ik,...i->...k", p, v.conj()).conj())
        v /= np.sqrt(np.einsum("...i,...i->...", v, v.conj()).real)[..., None]
    return q


def random_local_unitary(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Random single-qubit pair u (x) v with u, v Haar on U(2).

    Each factor is drawn in SU(2) from a unit quaternion (a, b, c, d), a
    normalised real 4-Gaussian, as [[a+ib, c+id], [-c+id, a-ib]]; that is
    Haar on SU(2) (Mezzadri, Notices AMS 54, 592 (2007)). One uniform global
    phase, multiplied in, makes the pair Haar on U(2) (x) U(2), whose two
    phases only enter as their sum. No QR runs: the draw is one (..., 2, 4)
    Gaussian block, then one phase per pair.

    Returns shape (4, 4), or (size, 4, 4) when ``size`` is given.
    """
    shape = () if size is None else (size,)
    q = rng.standard_normal(shape + (2, 4))
    q /= np.sqrt(np.einsum("...i,...i->...", q, q))[..., None]
    z = q[..., 0::2] + 1j * q[..., 1::2]  # (a + ib, c + id) of each factor
    f = np.stack((z, np.stack((-z[..., 1].conj(), z[..., 0].conj()), axis=-1)), axis=-2)
    f[..., 0, :, :] *= np.exp(2j * np.pi * rng.random(shape))[..., None, None]
    # rows (a, c) and columns (b, d) of u[a, b] v[c, d], in one broadcast product
    k = f[..., 0, :, None, :, None] * f[..., 1, None, :, None, :]
    return k.reshape(shape + (4, 4))
