import dataclasses

import numpy as np
import pytest

from twoqubit import (
    DEFAULT_TOL,
    Tolerance,
    ValidationError,
    canonical_gate,
    in_weyl_chamber,
    invariants_from_point,
    is_perfect_entangler,
    kron,
    weyl_reduce,
    z_from_point,
)
from twoqubit.gates import IDENTITY2, SIGMA_X, SIGMA_Z
from twoqubit.sampling import haar_unitary


def test_tolerance_defaults():
    assert dataclasses.asdict(DEFAULT_TOL) == {
        "unitarity_tol": 1e-10,
        "zero_tol": 1e-8,
        "norm_tol": 1e-10,
        "negative_tol": 1e-12,
        "imag_residue_tol": 1e-9,
        "invariant_tol": 1e-8,
        "eigh_offdiag_tol": 1e-8,
        "local_invariance_tol": 1e-9,
        "chamber_tol": 1e-12,
        "base_mirror_tol": 1e-13,
        "pe_boundary_tol": 1e-10,
        "table_tol": 1e-10,
    }


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Tolerance)])
def test_tolerance_must_be_positive(field):
    assert getattr(DEFAULT_TOL, field) > 0


def test_kron_identity():
    assert np.array_equal(kron(IDENTITY2, IDENTITY2), np.eye(4))


def test_kron_pauli_products():
    xx = kron(SIGMA_X, SIGMA_X)
    assert np.array_equal(xx, np.fliplr(np.eye(4)))
    zz = kron(SIGMA_Z, SIGMA_Z)
    assert np.array_equal(zz, np.diag([1, -1, -1, 1]))


def test_kron_mixed_product_rule(rng):
    a, b = haar_unitary(rng, 2), haar_unitary(rng, 2)
    c, d = haar_unitary(rng, 2), haar_unitary(rng, 2)
    assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-14)


def test_kron_bilinear(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(kron(a, 2 * b + c), 2 * kron(a, b) + kron(a, c), atol=1e-14)


@pytest.mark.parametrize(
    "entry",
    [
        invariants_from_point,
        z_from_point,
        weyl_reduce,
        is_perfect_entangler,
        canonical_gate,
        in_weyl_chamber,
    ],
)
@pytest.mark.parametrize(
    "bad",
    [
        5.0,
        [1, 2],
        "abc",
        [[1, 2, 3]],
        [np.nan, 0, 0],
        [np.inf, 0, 0],
        # an integer beyond the float range
        pytest.param([10**400, 0, 0], id="[10**400, 0, 0]"),
        pytest.param(list(range(100)), id="range(100)"),
    ],
    ids=repr,
)
def test_malformed_triple_raises_validation_error(entry, bad):
    with pytest.raises(ValidationError, match="coordinate triple") as info:
        entry(bad)
    # the echoed input is cut to 80 characters
    assert len(str(info.value)) < 200
    assert str(info.value).endswith("...") == (len(repr(bad)) > 80)
