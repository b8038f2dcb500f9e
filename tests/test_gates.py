import itertools
import re

import numpy as np
import pytest

from twoqubit import (
    ParseError,
    ValidationError,
    canonical_point,
    catalog,
    catalog_names,
    gate_from_json_data,
    gate_to_json_data,
    locally_equivalent,
    make_gate,
)
from twoqubit.gates import PAULI_BASIS, Q_MAGIC
from twoqubit.invariants import bell_matrix_array, invariants_from_unitary
from twoqubit.sampling import haar_unitary

EPS = np.finfo(float).eps


def test_pauli_basis_orthonormal():
    for i, p in enumerate(PAULI_BASIS):
        for j, q in enumerate(PAULI_BASIS):
            inner = np.trace(p.conj().T @ q)
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-15


def test_magic_basis_unitary():
    assert np.allclose(Q_MAGIC.conj().T @ Q_MAGIC, np.eye(4), atol=1e-15)


def test_make_gate_accepts_identity_and_cnot():
    assert np.array_equal(make_gate(np.eye(4)), np.eye(4))
    assert np.array_equal(make_gate(catalog("cnot")), catalog("cnot"))


def test_make_gate_rejects_nonunitary():
    with pytest.raises(ValidationError, match="U\\^dag U"):
        make_gate(np.diag([1, 1, 1, 2]))


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_make_gate_rejects_overflowing_matrix(scale):
    # U^dag U overflows to inf and NaN; NaN must not pass the unitarity test
    for matrix in (scale * np.eye(4), scale * catalog("cnot"), np.full((4, 4), scale)):
        with pytest.raises(ValidationError, match="not unitary"):
            make_gate(matrix)


def test_make_gate_rejects_wrong_shape():
    with pytest.raises(ValidationError):
        make_gate(np.eye(3))


def test_gate_arrays_do_not_alias():
    # a gate is a plain writable array, so every constructor hands out its own copy
    g = catalog("swap")
    g[0, 0] = 5.0
    assert catalog("swap")[0, 0] == 1.0
    m = np.eye(4, dtype=complex)
    u = make_gate(m)
    u[0, 0] = 5.0
    assert m[0, 0] == 1.0
    m[1, 1] = 7.0
    assert u[1, 1] == 1.0


# The Bell transform U_B = Q^T U Q is formed only inside bell_matrix_array,
# which returns det(U) and M(U) = U_B^T U_B; these tests hold it there.


def test_bell_transform_of_identity_is_qtq():
    det, m = bell_matrix_array(np.eye(4, dtype=complex))
    qtq = Q_MAGIC.T @ Q_MAGIC  # U_B of the identity: the transpose, not the adjoint
    assert not np.allclose(qtq, np.eye(4))
    assert np.allclose(m, qtq.T @ qtq, atol=1e-15)
    assert abs(det - 1.0) <= 1e-15


def test_bell_transform_round_trip(rng):
    # M(U) is symmetric, which extraction's eigh relies on, and a stack
    # gives each of its gates the det(U) and M(U) of that gate alone
    u = haar_unitary(rng, 4, 25)
    det, m = bell_matrix_array(u)
    assert np.max(np.abs(m - np.swapaxes(m, -1, -2))) <= 1e-14
    for i in range(25):
        det_i, m_i = bell_matrix_array(u[i])
        assert abs(det[i] - det_i) <= 1e-14 and np.allclose(m[i], m_i, atol=1e-14)


def _bits_equal(a, b) -> bool:
    return np.array_equal(a.real, b.real) and np.array_equal(a.imag, b.imag)


@pytest.mark.parametrize("n", [1, 7, 1024, 4097])
def test_bell_transform_of_a_stack_is_the_per_gate_product_bit_for_bit(n):
    # the stack is one real product with the exact table; each gate still gets
    # the det(U) and M(U) it gets alone, M is symmetric bit for bit, and it
    # agrees with the complex product (Q^T U Q)^T (Q^T U Q) to rounding
    u = haar_unitary(np.random.default_rng(n), 4, n)
    det, m = bell_matrix_array(u)
    singles = [bell_matrix_array(g) for g in u]
    assert _bits_equal(m, np.stack([m_i for _, m_i in singles]))
    assert _bits_equal(det, np.stack([det_i for det_i, _ in singles]))
    assert _bits_equal(m, np.swapaxes(m, -1, -2))
    ub = [Q_MAGIC.T @ g @ Q_MAGIC for g in u]
    assert np.max(np.abs(m - np.stack([b.T @ b for b in ub]))) <= 2e-15


def test_catalog_invariants_are_exact():
    # entries 0, +-1, +-i and (1 +- i)/2 pass through the exact table unrounded
    expected = {"identity": (1, 3), "cnot": (0, 1), "cz": (0, 1), "swap": (-1, -3),
                "dcnot": (0, -1), "iswap": (0, -1), "sqrt_swap": (-0.25j, 0)}
    for name, (g1, g2) in expected.items():
        assert invariants_from_unitary(catalog(name)) == (g1, g2), name


def test_bell_transform_determinant_of_signed_permutations_is_exact():
    # one nonzero term of the expansion, a product of +-1 and +-i entries
    for perm in itertools.permutations(range(4)):
        parity = np.linalg.det(np.eye(4)[list(perm)]).round()
        for signs in itertools.product((1, -1, 1j, -1j), repeat=4):
            u = np.zeros((4, 4), dtype=complex)
            u[range(4), perm] = signs
            assert bell_matrix_array(u)[0] == parity * np.prod(signs)


def test_bell_transform_determinant_of_diagonal_phases_is_their_product(rng):
    # the one nonzero term is (d0 d1)(d2 d3); the zero terms add nothing
    d = np.exp(1j * rng.uniform(-np.pi, np.pi, (1000, 4)))
    u = np.zeros((1000, 4, 4), dtype=complex)
    u[:, range(4), range(4)] = d
    assert _bits_equal(bell_matrix_array(u)[0], (d[:, 0] * d[:, 1]) * (d[:, 2] * d[:, 3]))


def test_bell_transform_determinant_of_the_catalog():
    # exact wherever the entries are: all but sqrt_iswap, whose 1/sqrt2 is rounded
    expected = {"identity": 1, "cnot": -1, "cz": -1, "swap": -1, "dcnot": 1, "iswap": 1,
                "sqrt_swap": 1j, "sqrt_iswap": 1}
    for name in catalog_names():
        det = bell_matrix_array(catalog(name))[0]
        assert abs(det - expected[name]) <= (2 * EPS if name == "sqrt_iswap" else 0.0), name


def test_bell_transform_determinant_agrees_with_lapack_on_any_matrix():
    # not only unitaries: within a few ulps of the Hadamard bound prod_i |row i|,
    # the scale both expansions round at
    rng = np.random.default_rng(30)
    u = rng.standard_normal((10000, 4, 4)) + 1j * rng.standard_normal((10000, 4, 4))
    scale = np.prod(np.linalg.norm(u, axis=-1), axis=-1)
    assert np.max(np.abs(bell_matrix_array(u)[0] - np.linalg.det(u)) / scale) <= 8 * EPS


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_bell_transform_determinant_takes_any_stack_shape(shape):
    u = haar_unitary(np.random.default_rng(31), 4, int(np.prod(shape))).reshape(shape + (4, 4))
    det, m = bell_matrix_array(u)
    assert det.shape == shape and m.shape == shape + (4, 4)
    flat = bell_matrix_array(u.reshape(-1, 4, 4))[0]
    assert _bits_equal(det.reshape(-1), flat)
    assert np.max(np.abs(det - np.linalg.det(u)), initial=0.0) <= 1e-15


def test_bell_transform_preserves_unitarity_and_norm(rng):
    for _ in range(25):
        g = haar_unitary(rng)
        m = bell_matrix_array(g)[1]
        assert np.linalg.norm(m.conj().T @ m - np.eye(4)) < 1e-12
        assert abs(np.linalg.norm(m) - np.linalg.norm(g)) < 1e-12


def test_bell_transform_determinant_constant(rng):
    # det(U_B) = det(U) det(Q)^2 with det(Q) = -1, so det M(U) = det(U)^2;
    # extraction normalises the phase of M by the det(U) returned beside it
    assert abs(np.linalg.det(Q_MAGIC) + 1.0) <= 1e-15
    for _ in range(10):
        g = haar_unitary(rng)
        det, m = bell_matrix_array(g)
        assert abs(det - np.linalg.det(g)) <= 1e-14
        assert abs(np.linalg.det(m) - det**2) <= 1e-12


def test_catalog_names_and_validation():
    assert set(catalog_names()) == {
        "identity", "cnot", "cz", "swap", "dcnot", "iswap", "sqrt_swap", "sqrt_iswap",
    }
    for name in catalog_names():
        g = catalog(name)
        assert np.linalg.norm(g.conj().T @ g - np.eye(4)) < 1e-14
    with pytest.raises(ValidationError, match="valid names"):
        catalog("toffoli")


def test_catalog_swap_permutation():
    swap = catalog("swap")
    assert swap[1, 2] == 1 and swap[2, 1] == 1
    assert swap[0, 0] == 1 and swap[3, 3] == 1


@pytest.mark.parametrize(
    "name,expected",
    [
        ("identity", (0.0, 0.0, 0.0)),
        ("cnot", (np.pi / 2, 0.0, 0.0)),
        ("cz", (np.pi / 2, 0.0, 0.0)),
        ("swap", (np.pi / 2, np.pi / 2, np.pi / 2)),
        ("dcnot", (np.pi / 2, np.pi / 2, 0.0)),
        ("iswap", (np.pi / 2, np.pi / 2, 0.0)),
        # standard principal sqrt(SWAP); the adjoint sits at [pi/4]*3
        ("sqrt_swap", (3 * np.pi / 4, np.pi / 4, np.pi / 4)),
        ("sqrt_iswap", (np.pi / 4, np.pi / 4, 0.0)),
    ],
)
def test_catalog_canonical_points(name, expected):
    point = canonical_point(catalog(name))
    assert np.allclose(tuple(point), expected, atol=1e-9)


def test_sqrt_swap_squares_to_swap_and_adjoint_class():
    from twoqubit.canonical import canonical_gate

    g = catalog("sqrt_swap")
    assert np.allclose(g @ g, catalog("swap"), atol=1e-14)
    adjoint = make_gate(g.conj().T)
    half_swap = canonical_gate([np.pi / 4, np.pi / 4, np.pi / 4])
    assert locally_equivalent(adjoint, half_swap)


def test_gate_json_round_trip(rng):
    g = haar_unitary(rng)
    data = gate_to_json_data(g)
    g2 = gate_from_json_data(data)
    assert np.allclose(g, g2, atol=1e-15)


def test_gate_json_rejects_bad_shapes():
    with pytest.raises(ParseError):
        gate_from_json_data([[1, 2], [3, 4]])
    with pytest.raises(ParseError):
        gate_from_json_data([[[1, 0]] * 4] * 3)
    with pytest.raises(ParseError):
        gate_from_json_data([[["x", 0]] * 4] * 4)
    # JSON true/false are not numbers, though the identity written with them
    # would otherwise parse
    with pytest.raises(ParseError):
        gate_from_json_data([[[i == j, False] for j in range(4)] for i in range(4)])


def test_gate_json_rejects_nonunitary():
    data = [[[2.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    with pytest.raises(ValidationError):
        gate_from_json_data(data)


class _Int(int):
    pass


class _Float(float):
    pass


@pytest.mark.parametrize("kind", [int, float, _Int, _Float, np.float64])
def test_gate_json_takes_ints_floats_and_their_subclasses(kind):
    data = [[[kind(i == j), kind(0)] for j in range(4)] for i in range(4)]
    assert gate_from_json_data(data).tobytes() == np.eye(4, dtype=complex).tobytes()


# numpy's integers and float32 are no subclass of int or float
@pytest.mark.parametrize("value", [True, False, np.int64(0), np.float32(0), "0", None, [0]])
@pytest.mark.parametrize("part", [0, 1])
def test_gate_json_refuses_a_part_that_is_no_int_or_float(value, part):
    data = gate_to_json_data(np.eye(4))
    data[1][2][part] = value
    with pytest.raises(ParseError, match=re.escape("entry [1][2] must be a [re, im] number pair")):
        gate_from_json_data(data)


@pytest.mark.parametrize("part", [0, 1])
@pytest.mark.parametrize("i, j", list(itertools.product(range(4), range(4))))
def test_gate_json_refuses_a_huge_integer_naming_the_first(i, j, part):
    # every entry from [i][j] on holds one, of either sign; the first is named
    data = gate_to_json_data(np.eye(4))
    for k in range(4 * i + j, 16):
        data[k // 4][k % 4][part] = (-1) ** k * 10**400
    with pytest.raises(ValidationError, match=re.escape(
            f"matrix entries must be finite, but entry [{i}, {j}] is not")):
        gate_from_json_data(data)


@pytest.mark.parametrize("first, named", [
    (float("nan"), [0, 3]),  # a NaN before the huge integer is named first
    (2**1024 - 2**970 - 1, [2, 1]),  # rounds to the largest float, which is finite
    (2**1024 - 2**970, [0, 3]),  # the least integer that float() refuses
], ids=["nan", "largest-float", "least-refused"])
def test_gate_json_names_the_first_entry_that_is_not_finite(first, named):
    data = gate_to_json_data(np.eye(4))
    data[0][3][1], data[2][1][0] = first, 10**400
    with pytest.raises(ValidationError, match=re.escape(
            f"matrix entries must be finite, but entry {named} is not")):
        gate_from_json_data(data)


@pytest.mark.parametrize("seed", range(6))
def test_gate_json_loads_each_entry_as_complex_does(seed):
    # a Haar gate, and a controlled Haar gate whose JSON holds the ints 0 and 1
    rng = np.random.default_rng(seed)
    controlled = np.eye(4, dtype=complex)
    controlled[2:, 2:] = haar_unitary(rng, 2)
    for u in (haar_unitary(rng), controlled):
        data = [[[int(x) if x.is_integer() else x for x in entry] for entry in row]
                for row in gate_to_json_data(u)]
        assert {type(x) for row in data for entry in row for x in entry} <= {int, float}
        expected = np.array([[complex(*entry) for entry in row] for row in data])
        assert gate_from_json_data(data).tobytes() == expected.tobytes()
