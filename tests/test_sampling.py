import numpy as np
import pytest

from twoqubit.sampling import random_local_unitary
from twoqubit.schmidt import schmidt_coefficients_array, schmidt_numbers_array


@pytest.mark.parametrize("size, shape", [(None, (4, 4)), (1, (1, 4, 4)), (7, (7, 4, 4))])
def test_local_pair_shape_unitarity_and_product_form(size, shape):
    k = random_local_unitary(np.random.default_rng(3), size)
    assert k.shape == shape
    defect = np.swapaxes(k, -1, -2).conj() @ k - np.eye(4)
    assert np.max(np.abs(defect)) <= 1e-14
    # u (x) v realigns to a rank-one matrix: Schmidt number 1
    assert np.all(schmidt_numbers_array(schmidt_coefficients_array(k)) == 1)


def _within_four_standard_errors(x, expected) -> bool:
    return abs(x.mean() - expected) <= 4 * x.std(ddof=1) / np.sqrt(x.size)


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
