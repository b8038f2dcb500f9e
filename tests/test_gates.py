import numpy as np
import pytest

from twoqubit import (
    ParseError,
    ValidationError,
    bell_transform,
    canonical_point,
    catalog,
    catalog_names,
    gate_from_json_data,
    gate_to_json_data,
    locally_equivalent,
    make_gate,
)
from twoqubit.gates import PAULI_BASIS, Q_MAGIC
from twoqubit.sampling import haar_gate


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


def test_make_gate_rejects_wrong_shape():
    with pytest.raises(ValidationError):
        make_gate(np.eye(3))


def test_gate_matrix_is_readonly():
    g = catalog("swap")
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 5.0


def test_bell_transform_of_identity_is_qtq():
    ub = bell_transform(make_gate(np.eye(4)))
    assert np.allclose(ub, Q_MAGIC.T @ Q_MAGIC, atol=1e-15)
    assert not np.allclose(ub, np.eye(4))


def test_bell_transform_round_trip(rng):
    g = haar_gate(rng)
    ub = bell_transform(g)
    assert np.allclose(Q_MAGIC.conj() @ ub @ Q_MAGIC.conj().T, g.matrix, atol=1e-12)


def test_bell_transform_preserves_unitarity_and_norm(rng):
    for _ in range(25):
        g = haar_gate(rng)
        ub = bell_transform(g)
        assert np.linalg.norm(ub.conj().T @ ub - np.eye(4)) < 1e-12
        assert abs(np.linalg.norm(ub) - np.linalg.norm(g.matrix)) < 1e-12


def test_bell_transform_determinant_constant(rng):
    # det(U_B) = det(U) det(Q)^2 with det(Q) = -1, so the constant is 1
    assert np.isclose(np.linalg.det(Q_MAGIC) ** 2, 1.0)
    for _ in range(10):
        g = haar_gate(rng)
        assert abs(np.linalg.det(bell_transform(g)) - np.linalg.det(g.matrix)) <= 1e-12


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
    g = haar_gate(rng)
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
