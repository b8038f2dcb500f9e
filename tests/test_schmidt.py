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
from twoqubit.errors import SchmidtNumberError
from twoqubit.linops import kron
from twoqubit.sampling import haar_unitary, random_local_unitary
from twoqubit.canonical import ClassData
from twoqubit.schmidt import (
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


def test_schmidt_number_tri_tolerance_escape():
    # a coefficient parked exactly at the base tolerance is re-judged at
    # the coarser tolerance, where the count is an admissible 2
    s = np.array([np.sqrt(1 - 2e-8), 1e-4, 2e-8, 0.0])
    s = s / np.linalg.norm(s)
    assert schmidt_number_from_coefficients(s) == 2


def test_schmidt_number_error_is_raisable():
    # engineered multiset that counts 3 at all three tolerances
    s = np.array([0.8, 0.4, 0.4, 1e-20])
    s = s / np.linalg.norm(s)
    with pytest.raises(SchmidtNumberError):
        schmidt_number_from_coefficients(s)


def test_schmidt_number_rejects_nonfinite():
    with pytest.raises(ValidationError, match="finite"):
        schmidt_number_from_coefficients([np.nan] * 4)


def _count_one_row(s, zero_tol):
    # the rule row by row: count, then recount a 3 at 10x and 0.1x
    for t in (zero_tol, 10 * zero_tol, 0.1 * zero_tol):
        n = int(np.sum(np.asarray(s) > t))
        if n != 3:
            return n
    return 3


_near_tolerance = st.sampled_from([1e-9, 1e-8, 1e-7]).flatmap(
    lambda t: st.floats(0.3 * t, 3 * t) | st.just(t)
)
_rows = st.lists(
    st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 1.0), _near_tolerance, _near_tolerance),
    min_size=1,
    max_size=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rows)
def test_schmidt_numbers_array_matches_row_rule(rows):
    s = np.array(rows)
    numbers = schmidt_numbers_array(s)
    expected = [_count_one_row(row, 1e-8) for row in s]
    assert numbers.tolist() == expected
    for row, n in zip(s, expected):
        if n == 3:
            with pytest.raises(SchmidtNumberError):
                schmidt_number_from_coefficients(row)
        else:
            assert schmidt_number_from_coefficients(row) == n


def test_schmidt_numbers_array_shapes():
    assert schmidt_numbers_array([0.5, 0.5, 0.5, 0.5]).shape == ()
    s = np.array([[1.0, 0.0, 0.0, 0.0], [0.8, 0.4, 0.4, 1e-20], [0.9, 0.4, 2e-8, 0.0]])
    assert schmidt_numbers_array(s).tolist() == [1, 3, 2]
    assert schmidt_numbers_array(s.reshape(3, 1, 4)).shape == (3, 1)


def test_schmidt_data_consistency(rng):
    g = haar_unitary(rng)
    data = schmidt_decompose(g)
    assert abs(data.strength - schmidt_strength(data.coefficients)) <= 1e-12
    assert data.schmidt_number == _schmidt_number(g)
