import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoqubit import (
    ValidationError,
    canonical_gate,
    catalog,
    controlled_unitary_gate,
    invariants_from_point,
    invariants_from_unitary,
    locally_equivalent,
    schmidt_decompose,
    schmidt_strength,
    z_from_point,
)
from twoqubit.linops import DEFAULT_TOL, kron, real_planes
from twoqubit.sampling import haar_unitary, random_local_unitary
from twoqubit.canonical import ClassData, canonical_gates_array
from twoqubit.schmidt import (
    _SCHMIDT,
    _realign,
    schmidt_coefficients_array,
    schmidt_number_from_coefficients,
    schmidt_numbers_array,
    z_from_point_array,
)

PI = np.pi
SQ2 = 1 / np.sqrt(2)


def test_z_from_point_identity():
    assert np.allclose(z_from_point((0, 0, 0)), [1, 0, 0, 0], atol=1e-15)


def test_z_from_point_cnot():
    z = z_from_point((PI / 2, 0, 0))
    assert np.allclose(z, [SQ2, 1j * SQ2, 0, 0], atol=1e-15)


def test_z_from_point_swap():
    assert np.allclose(np.abs(z_from_point((PI / 2, PI / 2, PI / 2))), 0.5, atol=1e-15)


def test_z_from_point_q_vertex():
    z = np.abs(z_from_point((PI / 4, PI / 4, 0)))
    c8sq = np.cos(PI / 8) ** 2
    s8c8 = np.sin(PI / 8) * np.cos(PI / 8)
    expected = [c8sq, s8c8, s8c8, np.sin(PI / 8) ** 2]
    assert np.allclose(z, expected, atol=1e-15)


def test_z_normalization_random(rng):
    c = rng.uniform(-PI, PI, (500, 3))
    z = z_from_point_array(c)
    assert np.max(np.abs(np.sum(np.abs(z) ** 2, axis=-1) - 1.0)) <= 1e-12


@pytest.mark.parametrize(
    "name,coeffs,number",
    [
        ("identity", (1, 0, 0, 0), 1),
        ("cnot", (SQ2, SQ2, 0, 0), 2),
        ("swap", (0.5, 0.5, 0.5, 0.5), 4),
    ],
)
def test_schmidt_decompose_named(name, coeffs, number):
    data = schmidt_decompose(catalog(name))
    assert np.allclose(data.coefficients, coeffs, atol=1e-12)
    assert data.schmidt_number == number


def test_schmidt_decompose_reconstruction(rng):
    for _ in range(25):
        g = haar_unitary(rng)
        data = schmidt_decompose(g)
        rebuilt = sum(
            2 * data.coefficients[l] * kron(data.factors_a[l], data.factors_b[l])
            for l in range(4)
        )
        assert np.linalg.norm(rebuilt - g) <= 1e-10
        assert abs(np.sum(data.coefficients**2) - 1.0) <= 1e-10
        assert np.all(np.diff(data.coefficients) <= 1e-15)


def test_schmidt_decompose_rejects_nonfinite():
    m = np.eye(4, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        schmidt_decompose(m)


def test_schmidt_factors_orthonormal(rng):
    g = haar_unitary(rng)
    data = schmidt_decompose(g)
    for side in (data.factors_a, data.factors_b):
        gram = np.einsum("lij,kij->lk", side.conj(), side)
        assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_schmidt_coefficients_local_invariance(rng):
    for _ in range(50):
        g = haar_unitary(rng)
        dressed = random_local_unitary(rng) @ g @ random_local_unitary(rng)
        s1 = schmidt_coefficients_array(g)
        s2 = schmidt_coefficients_array(dressed)
        assert np.max(np.abs(s1 - s2)) <= 1e-9


def test_analytic_numeric_agreement(rng):
    # sorted |z| from the closed forms equals the realignment singular
    # values over random coordinate triples
    c = rng.uniform(-PI, PI, (1000, 3))
    analytic = np.flip(np.sort(np.abs(z_from_point_array(c)), axis=-1), axis=-1)
    gates = np.stack([canonical_gate(row) for row in c])
    numeric = schmidt_coefficients_array(gates)
    assert np.max(np.abs(analytic - numeric)) <= 1e-9


def test_same_coefficients_different_class():
    # half-exponent points on the two diagonal edges share coefficients but
    # are not locally equivalent
    p = (PI / 4, PI / 4, PI / 4)
    n = (3 * PI / 4, PI / 4, PI / 4)
    s_p = np.sort(np.abs(z_from_point(p)))
    s_n = np.sort(np.abs(z_from_point(n)))
    assert np.max(np.abs(s_p - s_n)) <= 1e-12
    assert abs(invariants_from_point(p)[0] - invariants_from_point(n)[0]) > 1e-3


@pytest.mark.parametrize(
    "s,expected",
    [
        ((1, 0, 0, 0), 0.0),
        ((SQ2, SQ2, 0, 0), 1.0),
        ((0.5, 0.5, 0.5, 0.5), 2.0),
    ],
)
def test_schmidt_strength_values(s, expected):
    assert abs(schmidt_strength(s) - expected) <= 1e-12


def test_schmidt_strength_rejects_unnormalized():
    with pytest.raises(ValidationError):
        schmidt_strength((1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        schmidt_strength((-0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValidationError):
        schmidt_strength((np.nan, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("shape", [(5,), (1,), (1, 4), (2, 2)], ids=str)
@pytest.mark.parametrize("scalar", [schmidt_strength, schmidt_number_from_coefficients])
def test_schmidt_scalars_refuse_a_row_not_of_four(scalar, shape):
    # (5,) is [.5, .5, .5, .5, 0], which sums to 1 and once gave strength 2
    s = np.zeros(shape)
    s.flat[: min(s.size, 4)] = 0.5 if s.size >= 4 else 1.0
    with pytest.raises(ValidationError, match=re.escape(f"got shape {shape}")):
        scalar(s)


def test_schmidt_strength_bounds(rng):
    for _ in range(200):
        s = schmidt_coefficients_array(haar_unitary(rng))
        k = schmidt_strength(s)
        assert 0.0 <= k <= 2.0


def test_controlled_unitary_gate_endpoints():
    assert np.allclose(controlled_unitary_gate(0.0), np.eye(4), atol=1e-15)
    g = controlled_unitary_gate(1.0)
    assert np.allclose(g, 1j * kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]), atol=1e-15)
    g1, g2 = invariants_from_unitary(g)
    assert abs(g1 - 1.0) < 1e-12 and abs(g2 - 3.0) < 1e-12


def test_controlled_unitary_gate_half_is_cnot_class():
    g = controlled_unitary_gate(0.5)
    assert locally_equivalent(g, catalog("cnot"))


def test_controlled_unitary_invariant_curve():
    for p in np.linspace(0, 1, 21):
        theta = 2 * np.arcsin(np.sqrt(p))
        g1, g2 = invariants_from_unitary(controlled_unitary_gate(p))
        assert abs(g1 - np.cos(theta) ** 2) < 1e-12
        assert abs(g2 - (2 * np.cos(theta) ** 2 + 1)) < 1e-12


def test_controlled_unitary_gate_is_the_closed_form():
    # the canonical core at [2 arcsin(sqrt p), 0, 0] is sqrt(1-p) I + i sqrt(p) sx x sx
    xx = kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    for p in np.linspace(0, 1, 1001):
        closed = np.sqrt(1 - p) * np.eye(4) + 1j * np.sqrt(p) * xx
        assert np.max(np.abs(controlled_unitary_gate(p) - closed)) <= 1e-14


def test_controlled_unitary_gate_domain():
    with pytest.raises(ValidationError):
        controlled_unitary_gate(-0.1)
    with pytest.raises(ValidationError):
        controlled_unitary_gate(1.1)


def _schmidt_number(g: np.ndarray) -> int:
    return int(ClassData.from_unitaries(g).schmidt_number)


def test_schmidt_number_of_gates(rng):
    assert _schmidt_number(catalog("identity")) == 1
    for theta in rng.uniform(0.05, PI / 2, 20):
        assert _schmidt_number(canonical_gate((theta, 0, 0))) == 2
    for _ in range(20):
        c = rng.uniform(0.3, 1.2, 3)
        assert _schmidt_number(canonical_gate(np.sort(c)[::-1])) == 4


def test_schmidt_number_never_three(rng):
    s = schmidt_coefficients_array(
        np.stack([haar_unitary(rng) for _ in range(500)])
    )
    for row in s:
        assert schmidt_number_from_coefficients(row) in (1, 2, 4)


def test_schmidt_number_is_decided_by_s2_and_s3_at_zero_tol():
    # a third-largest coefficient above zero_tol gives 4 whatever the fourth, so
    # the rows that a count above zero_tol calls 3 give 4; at or below it, the
    # second-largest decides between 2 and 1; the row may be in any order
    tol = DEFAULT_TOL.zero_tol
    rows = {
        4: [[1.0, 1e-4, 2 * tol, 0.0], [0.8, 0.4, 0.4, 1e-20], [1.0, 5e-4, 5e-7, 2.5e-10],
            [0.4, 0.8, 1e-20, 0.4]],
        2: [[1.0, 1e-4, tol, tol], [1.0, 2 * tol, tol, 0.0], [1e-20, 0.8, 1e-9, 0.6]],
        1: [[1.0, tol, tol, tol], [1e-9, 1.0, 0.0, 5e-9]],
    }
    for number, group in rows.items():
        assert [schmidt_number_from_coefficients(row) for row in group] == [number] * len(group)
        assert schmidt_numbers_array(group).tolist() == [number] * len(group)


def test_schmidt_number_tri_tolerance_escape():
    # a third coefficient at twice zero_tol is judged once, at zero_tol, and
    # is nonzero: there is no coarser tolerance to re-judge it at
    s = np.array([np.sqrt(1 - 2e-8), 1e-4, 2e-8, 0.0])
    s = s / np.linalg.norm(s)
    assert schmidt_number_from_coefficients(s) == 4
    tol = DEFAULT_TOL.zero_tol
    assert schmidt_number_from_coefficients([1.0, 1e-4, tol, 0.0]) == 2
    assert schmidt_number_from_coefficients([1.0, 1e-4, np.nextafter(tol, 1.0), 0.0]) == 4


def test_schmidt_number_error_is_raisable():
    # the multiset that a count above zero_tol calls 3 has a Schmidt number,
    # 4; the error the rule still raises is ValidationError, for a bad row
    s = np.array([0.8, 0.4, 0.4, 1e-20])
    s = s / np.linalg.norm(s)
    assert schmidt_number_from_coefficients(s) == 4
    with pytest.raises(ValidationError, match="finite"):
        schmidt_number_from_coefficients([0.8, 0.4, 0.4, np.nan])


def test_identity_class_near_a1_has_schmidt_number_1():
    # [pi - 1e-12, 1e-12, 1e-12] is 1e-12 from A1, the identity class, and the
    # base mirror does not fold it onto O, since c3 is above base_mirror_tol
    u = canonical_gate([PI - 1e-12, 1e-12, 1e-12])
    assert int(ClassData.from_unitaries(u).schmidt_number) == 1
    assert schmidt_decompose(u).schmidt_number == 1


def test_schmidt_number_rejects_nonfinite():
    with pytest.raises(ValidationError, match="finite"):
        schmidt_number_from_coefficients([np.nan] * 4)


def _number_one_row(s, zero_tol):
    # the rule row by row: s2 and s3 of the row sorted descending against zero_tol
    s2, s3 = sorted(s, reverse=True)[1:3]
    return 1 if s2 <= zero_tol else 2 if s3 <= zero_tol else 4


_near_tolerance = st.floats(0.3 * DEFAULT_TOL.zero_tol, 3 * DEFAULT_TOL.zero_tol) | st.just(
    DEFAULT_TOL.zero_tol
)
# rows of four in any order, each entry generic or near zero_tol
_rows = st.lists(
    st.lists(st.floats(0.0, 1.0) | _near_tolerance, min_size=4, max_size=4),
    min_size=1,
    max_size=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rows)
def test_schmidt_numbers_array_matches_row_rule(rows):
    s = np.array(rows)
    numbers = schmidt_numbers_array(s)
    expected = [_number_one_row(row, DEFAULT_TOL.zero_tol) for row in s]
    assert numbers.tolist() == expected
    for row, n in zip(s, expected):
        assert schmidt_number_from_coefficients(row) == n


def test_schmidt_numbers_array_shapes():
    assert schmidt_numbers_array([0.5, 0.5, 0.5, 0.5]).shape == ()
    s = np.array([[1.0, 0.0, 0.0, 0.0], [0.8, 0.4, 0.4, 1e-20], [0.9, 0.4, 5e-9, 0.0]])
    assert schmidt_numbers_array(s).tolist() == [1, 4, 2]
    assert schmidt_numbers_array(s.reshape(3, 1, 4)).shape == (3, 1)


def test_schmidt_data_consistency(rng):
    g = haar_unitary(rng)
    data = schmidt_decompose(g)
    assert abs(data.strength - schmidt_strength(data.coefficients)) <= 1e-12
    assert data.schmidt_number == _schmidt_number(g)


def _dressed_line_gates(rng, c2) -> np.ndarray:
    """Gates at [1, c2, 0] for each c2, locally dressed with a global phase;
    the smallest Schmidt coefficient of each is sin(1/2) sin(c2/2)."""
    n = len(c2)
    points = np.column_stack([np.ones(n), c2, np.zeros(n)])
    return (np.exp(2j * PI * rng.random(n))[:, None, None] * random_local_unitary(rng, n)
            @ canonical_gates_array(points) @ random_local_unitary(rng, n))


def _svd_coefficients(u) -> np.ndarray:
    return np.array([schmidt_decompose(g).coefficients for g in u])


def _count_svd_rows(monkeypatch) -> list:
    """The row counts that ``np.linalg.svd`` is called with, from now on."""
    rows, true_svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        rows.append(len(a))
        return true_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return rows


@pytest.mark.parametrize("scale", [0.5, 0.99, 1.01, 2.0])
def test_coefficients_match_the_svd_about_the_fallback_tol(rng, monkeypatch, scale):
    # s4 at scale * svd_fallback_tol: rows below it take the SVD, rows above it
    # the Gram eigenvalues, and either way the SVD agrees within 1e-14
    s4 = scale * DEFAULT_TOL.svd_fallback_tol
    u = _dressed_line_gates(rng, np.full(50, 2 * np.arcsin(s4 / np.sin(0.5))))
    expected = _svd_coefficients(u)
    rows = _count_svd_rows(monkeypatch)
    s = schmidt_coefficients_array(u)
    assert rows == ([50] if scale < 1 else [])
    assert np.max(np.abs(s - expected)) <= 1e-14
    assert np.max(np.abs(s[:, 3] - s4)) <= 1e-14


def test_near_line_gates_keep_the_svd_schmidt_number(rng, monkeypatch):
    # s3 and s4 are about c2 / 2: K = 2 at c2 = 1e-9, else 4; the Gram
    # eigenvalues alone would put them near sqrt(1e-16)
    c2 = np.repeat([1e-9, 3e-8, 1e-5, 1e-3], 10)
    u = _dressed_line_gates(rng, c2)
    expected = _svd_coefficients(u)
    rows = _count_svd_rows(monkeypatch)
    s = schmidt_coefficients_array(u)
    assert rows == [40]
    assert np.max(np.abs(s - expected)) <= 1e-15
    numbers = schmidt_numbers_array(s)
    assert np.array_equal(numbers, schmidt_numbers_array(expected))
    assert numbers.tolist() == [2] * 10 + [4] * 30


def test_svd_failure_on_a_fallback_row_raises(rng, monkeypatch):
    haar = haar_unitary(rng, 4, 5)
    u = np.concatenate([haar, _dressed_line_gates(rng, [1e-5])])

    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fails)
    assert schmidt_coefficients_array(haar).shape == (5, 4)  # no fallback row, no SVD
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        schmidt_coefficients_array(u)


@pytest.mark.parametrize("n", [1, 7, 1024, 4097])
def test_stack_coefficients_equal_the_per_gate_ones_bit_for_bit(n):
    # the first five rows are near-line gates, which take the SVD
    rng = np.random.default_rng(n)
    near = _dressed_line_gates(rng, [1e-9, 3e-8, 1e-5, 1e-3, 1e-2])
    u = np.concatenate([near, haar_unitary(rng, 4, n)])[:n]
    assert np.array_equal(schmidt_coefficients_array(u),
                          np.array([schmidt_coefficients_array(g) for g in u]))


def _quaternion_matrix(u) -> np.ndarray:
    """C = Cr + i Ci, u (..., 4, 4) in the quaternion basis, as the kernel forms it."""
    c = real_planes(u, _SCHMIDT)
    return c[..., 0, :, :] + 1j * c[..., 1, :, :]


def test_quaternion_matrix_of_a_canonical_core_is_diagonal(rng):
    # sigma_l x sigma_l = -(i sigma_l) x (i sigma_l) for l >= 1, so the core
    # sum_l z_l sigma_l x sigma_l is C = diag(2 z0, -2 z1, -2 z2, -2 z3)
    points = rng.uniform(-PI, PI, (500, 3))
    c = _quaternion_matrix(canonical_gates_array(points))
    z = z_from_point_array(points)
    assert np.max(np.abs(c - np.eye(4) * c)) <= 1e-15
    assert np.max(np.abs(np.abs(np.diagonal(c, axis1=-2, axis2=-1)) / 2 - np.abs(z))) <= 1e-15
    assert np.max(np.abs(np.diagonal(c, axis1=-2, axis2=-1) - 2 * z * [1, -1, -1, -1])) <= 1e-15


def test_discarded_imaginary_gram_is_rounding_on_dressed_haar_gates(rng):
    # local unitaries act on C by real rotations, so C^dag C is real: the
    # kernel drops Im(C^dag C) = Cr^T Ci - Ci^T Cr, which stays at rounding
    n = 2000
    u = (np.exp(2j * PI * rng.random(n))[:, None, None] * random_local_unitary(rng, n)
         @ haar_unitary(rng, 4, n) @ random_local_unitary(rng, n))
    c = _quaternion_matrix(u)
    assert np.max(np.abs((np.swapaxes(c, -1, -2).conj() @ c).imag)) <= 1e-15


def test_a_non_unitary_stack_gets_the_svd_coefficients(rng, monkeypatch):
    # a kron of non-unitary factors has s4 = 0; a Ginibre matrix has s4 above
    # svd_fallback_tol, but a complex C^dag C. Both rows take the realigned SVD
    a, b = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
    ginibre = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 4
    u = np.stack([kron(a, b), ginibre, haar_unitary(rng)])
    expected = np.linalg.svd(_realign(u), compute_uv=False) / 2
    assert expected[1, 3] > DEFAULT_TOL.svd_fallback_tol
    c = _quaternion_matrix(u)
    assert np.max(np.abs((np.swapaxes(c, -1, -2).conj() @ c).imag[1])) > 1e-2
    rows = _count_svd_rows(monkeypatch)
    s = schmidt_coefficients_array(u)
    assert rows == [2]
    assert np.array_equal(s[:2], expected[:2])
    assert np.max(np.abs(s[2] - expected[2])) <= 1e-14
