import dataclasses
import re

import numpy as np
import pytest

from twoqubit import (
    DEFAULT_TOL,
    Tolerance,
    ValidationError,
    canonical_gate,
    catalog,
    edge,
    emit_figure_data,
    in_weyl_chamber,
    invariants_from_point,
    invariants_from_z,
    is_perfect_entangler,
    kron,
    make_gate,
    schmidt_strength,
    weyl_reduce,
    z_from_point,
)
from twoqubit.gates import IDENTITY2, SIGMA_X, SIGMA_Z
from twoqubit.sampling import haar_unitary
from twoqubit.schmidt import schmidt_number_from_coefficients


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


def _malformed(good):
    """Five malformed forms of an accepted array: a huge integer, a ragged
    list, a string, one row too many and a NaN."""
    good = np.asarray(good).tolist()
    huge = np.array(good, dtype=object)
    huge.flat[0] = 10**400
    nan = np.array(good)
    nan.flat[0] = np.nan
    return {"huge": huge.tolist(), "ragged": [*good[:-1], [good[-1]]], "string": "abcd",
            "shape": [*good, good[0]], "nan": nan.tolist()}


def _outside_cases():
    one = [1.0, 0.0, 0.0, 0.0]
    arrays = [  # (name, entry point, an input it accepts, what its refusal names)
        ("make_gate", make_gate, np.eye(4), "matrix"),
        ("kron", lambda m: kron(IDENTITY2, m), IDENTITY2, "2x2 matrix"),
        ("schmidt_strength", schmidt_strength, one, "Schmidt row [s1, s2, s3, s4]"),
        ("schmidt_number_from_coefficients", schmidt_number_from_coefficients, one,
         "Schmidt row [s1, s2, s3, s4]"),
        ("invariants_from_z", invariants_from_z, one, "coefficient row [z1, z2, z3, z4]"),
    ]
    for name, entry, good, what in arrays:
        for form, bad in _malformed(good).items():
            if form == "nan":
                message = re.escape(f"{what} entries must be finite") + "$"
            elif form == "shape":
                message = re.escape(f"expected {what}, got shape {np.shape(bad)}: [")
            else:
                message = re.escape(f"expected {what}, got ") + "(?!shape)"
            yield pytest.param(entry, bad, "^" + message, id=f"{name}-{form}")
    names = [(catalog, "gate"), (edge, "edge"), (lambda f: emit_figure_data(f, 10), "figure")]
    for entry, kind in names:
        for bad in ("nope", ["nope"]):
            message = "^" + re.escape(f"unknown {kind} {bad!r}; valid names: ")
            yield pytest.param(entry, bad, message, id=f"{kind}-{bad!r}")


@pytest.mark.parametrize("entry, bad, message", list(_outside_cases()))
def test_outside_input_raises_validation_error(entry, bad, message):
    with pytest.raises(ValidationError, match=message) as info:
        entry(bad)
    assert len(str(info.value)) < 200
