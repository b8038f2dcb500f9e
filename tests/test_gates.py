import numpy as np
import pytest

from twoqubit import (
    Gate,
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
from twoqubit.invariants import bell_matrix_array
from twoqubit.sampling import haar_unitary


def test_pauli_basis_orthonormal():
    for i, p in enumerate(PAULI_BASIS):
        for j, q in enumerate(PAULI_BASIS):
            inner = np.trace(p.conj().T @ q)
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-15


def test_magic_basis_unitary():
    assert np.allclose(Q_MAGIC.conj().T @ Q_MAGIC, np.eye(4), atol=1e-15)


def test_make_gate_accepts_identity_and_cnot():
    assert make_gate(np.eye(4)).name is None
    assert np.array_equal(make_gate(catalog("cnot").matrix).matrix, catalog("cnot").matrix)


def test_make_gate_rejects_nonunitary():
    with pytest.raises(ValidationError, match="U\\^dag U"):
        make_gate(np.diag([1, 1, 1, 2]))


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_make_gate_rejects_overflowing_matrix(scale):
    # U^dag U overflows to inf and NaN; NaN must not pass the unitarity test
    for matrix in (scale * np.eye(4), scale * catalog("cnot").matrix, np.full((4, 4), scale)):
        with pytest.raises(ValidationError, match="not unitary"):
            make_gate(matrix)


def test_make_gate_rejects_wrong_shape():
    with pytest.raises(ValidationError):
        make_gate(np.eye(3))


def test_gate_matrix_is_readonly():
    g = catalog("swap")
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 5.0


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


@pytest.mark.parametrize("n", [1, 7, 4097])
def test_bell_transform_of_a_stack_is_the_per_gate_product_bit_for_bit(n):
    # the stack is flattened into one product with Q per side; each gate
    # still gets exactly the entries of its own Q^T U Q and det(U)
    u = haar_unitary(np.random.default_rng(n), 4, n)
    det, m = bell_matrix_array(u)
    ub = [Q_MAGIC.T @ g @ Q_MAGIC for g in u]
    assert _bits_equal(m, np.stack([b.T @ b for b in ub]))
    assert _bits_equal(det, np.stack([np.linalg.det(g) for g in u]))


def test_bell_transform_preserves_unitarity_and_norm(rng):
    for _ in range(25):
        g = Gate(haar_unitary(rng))
        m = bell_matrix_array(g.matrix)[1]
        assert np.linalg.norm(m.conj().T @ m - np.eye(4)) < 1e-12
        assert abs(np.linalg.norm(m) - np.linalg.norm(g.matrix)) < 1e-12


def test_bell_transform_determinant_constant(rng):
    # det(U_B) = det(U) det(Q)^2 with det(Q) = -1, so det M(U) = det(U)^2;
    # extraction normalises the phase of M by the det(U) returned beside it
    assert abs(np.linalg.det(Q_MAGIC) + 1.0) <= 1e-15
    for _ in range(10):
        g = Gate(haar_unitary(rng))
        det, m = bell_matrix_array(g.matrix)
        assert abs(det - np.linalg.det(g.matrix)) <= 1e-14
        assert abs(np.linalg.det(m) - det**2) <= 1e-12


def test_catalog_names_and_validation():
    assert set(catalog_names()) == {
        "identity", "cnot", "cz", "swap", "dcnot", "iswap", "sqrt_swap", "sqrt_iswap",
    }
    for name in catalog_names():
        g = catalog(name)
        assert np.linalg.norm(g.matrix.conj().T @ g.matrix - np.eye(4)) < 1e-14
        assert g.name == name
    with pytest.raises(ValidationError, match="valid names"):
        catalog("toffoli")


def test_catalog_swap_permutation():
    swap = catalog("swap").matrix
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
    assert np.allclose(g.matrix @ g.matrix, catalog("swap").matrix, atol=1e-14)
    adjoint = make_gate(g.matrix.conj().T)
    half_swap = canonical_gate([np.pi / 4, np.pi / 4, np.pi / 4])
    assert locally_equivalent(adjoint, half_swap)


def test_gate_json_round_trip(rng):
    g = Gate(haar_unitary(rng))
    data = gate_to_json_data(g)
    g2 = gate_from_json_data(data)
    assert np.allclose(g.matrix, g2.matrix, atol=1e-15)


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
