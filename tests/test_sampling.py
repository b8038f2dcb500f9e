import numpy as np
import pytest

from twoqubit.sampling import haar_unitary, random_local_unitary
from twoqubit.schmidt import schmidt_coefficients_array, schmidt_numbers_array


def _within_four_standard_errors(x, expected) -> bool:
    return abs(x.mean() - expected) <= 4 * x.std(ddof=1) / np.sqrt(x.size)


def _qr_reference(rng, dim, size):
    # LAPACK's QR of the same Ginibre draws, R's diagonal rephased to be positive real
    shape = (size, dim, dim)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _unitarity_defect(q):
    # the Frobenius norm of Q^H Q - I per matrix
    return np.linalg.norm(np.swapaxes(q, -1, -2).conj() @ q - np.eye(q.shape[-1]), axis=(-2, -1))


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("size", [None, 0, 1, 7])
def test_haar_shape(dim, size):
    q = haar_unitary(np.random.default_rng(2), dim, size)
    assert q.shape == ((dim, dim) if size is None else (size, dim, dim))
    assert q.dtype == np.complex128
    assert np.all(_unitarity_defect(q) <= 1e-14)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_haar_unitary_to_rounding(dim):
    q = haar_unitary(np.random.default_rng(dim), dim, 100000)
    assert np.max(_unitarity_defect(q)) <= 1e-14


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("size", [None, 0, 7])
def test_haar_reads_two_gaussian_draws(dim, size):
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    haar_unitary(rng, dim, size)
    shape = (dim, dim) if size is None else (size, dim, dim)
    twin.standard_normal(shape)
    twin.standard_normal(shape)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_haar_matches_rephased_lapack_qr(dim):
    # the QR with a positive real R diagonal is unique, so Gram-Schmidt and
    # LAPACK differ by rounding only
    q = haar_unitary(np.random.default_rng(40 + dim), dim, 100000)
    assert np.max(np.abs(q - _qr_reference(np.random.default_rng(40 + dim), dim, 100000))) <= 1e-10


def test_haar_moments():
    # for Haar U(4), |U00|^2 is Beta(1, 3): E|U00|^2 = 1/4 and E|U00|^4 = 1/10
    a = np.abs(haar_unitary(np.random.default_rng(12), 4, 100000)[:, 0, 0]) ** 2
    assert _within_four_standard_errors(a, 1 / 4)
    assert _within_four_standard_errors(a**2, 1 / 10)


@pytest.mark.parametrize("size, shape", [(None, (4, 4)), (1, (1, 4, 4)), (7, (7, 4, 4))])
def test_local_pair_shape_unitarity_and_product_form(size, shape):
    k = random_local_unitary(np.random.default_rng(3), size)
    assert k.shape == shape
    defect = np.swapaxes(k, -1, -2).conj() @ k - np.eye(4)
    assert np.max(np.abs(defect)) <= 1e-14
    # u (x) v realigns to a rank-one matrix: Schmidt number 1
    assert np.all(schmidt_numbers_array(schmidt_coefficients_array(k)) == 1)


def test_local_pair_moments_are_haar():
    # for Haar U(2), |u00|^2 is uniform on [0, 1], so E|u00|^2 = 1/2 and
    # E|u00|^4 = 1/3, and k00 = u00 v00 gives 1/4 and 1/9; the global phase
    # makes det k = det(u)^2 det(v)^2 average to 0, where without it det k = 1
    n = 100000
    k = random_local_unitary(np.random.default_rng(11), n)
    a = np.abs(k[:, 0, 0]) ** 2
    assert _within_four_standard_errors(a, 1 / 4)
    assert _within_four_standard_errors(a**2, 1 / 9)
    det = np.linalg.det(k)
    assert _within_four_standard_errors(det.real, 0.0)
    assert _within_four_standard_errors(det.imag, 0.0)
    # |u00|^2 = |k00|^2 + |k01|^2, since v's first row has unit norm: each
    # tenth of [0, 1] holds n/10 draws within 4 binomial sigma
    u00 = a + np.abs(k[:, 0, 1]) ** 2
    counts = np.histogram(u00, bins=10, range=(0.0, 1.0))[0]
    assert counts.sum() == n
    assert np.all(np.abs(counts - n / 10) <= 4 * np.sqrt(n * 0.1 * 0.9))
