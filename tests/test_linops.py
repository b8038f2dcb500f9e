import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoqubit import (
    DEFAULT_TOL,
    Check,
    Report,
    Tolerance,
    ValidationError,
    canonical_gate,
    canonical_point,
    catalog,
    controlled_unitary_gate,
    edge,
    emit_figure_data,
    in_weyl_chamber,
    invariants_from_point,
    invariants_from_unitary,
    invariants_from_z,
    is_perfect_entangler,
    kron,
    locally_equivalent,
    make_gate,
    run_audit,
    schmidt_decompose,
    schmidt_strength,
    sweep,
    verify_tables,
    weyl_reduce,
    z_from_point,
)
from twoqubit.gates import IDENTITY2, SIGMA_X, SIGMA_Z
from twoqubit.linops import refuse_rows
from twoqubit.sampling import haar_unitary
from twoqubit.schmidt import schmidt_number_from_coefficients


def test_tolerance_defaults():
    assert dataclasses.asdict(DEFAULT_TOL) == {
        "unitarity_tol": 1e-10,
        "zero_tol": 1e-8,
        "invariant_tol": 1e-9,
        "eigh_offdiag_tol": 1e-8,
        "base_mirror_tol": 1e-13,
        "facet_tol": 1e-10,
        "table_tol": 1e-10,
        "svd_fallback_tol": 2e-2,
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
        ("canonical_point", canonical_point, np.eye(4), "matrix"),
        ("invariants_from_unitary", invariants_from_unitary, np.eye(4), "matrix"),
        ("schmidt_decompose", schmidt_decompose, np.eye(4), "matrix"),
        ("locally_equivalent-first", lambda m: locally_equivalent(m, np.eye(4)), np.eye(4),
         "matrix"),
        ("locally_equivalent-second", lambda m: locally_equivalent(np.eye(4), m), np.eye(4),
         "matrix"),
        ("kron", lambda m: kron(IDENTITY2, m), IDENTITY2, "2x2 matrix"),
        ("schmidt_strength", schmidt_strength, one, "Schmidt row [s1, s2, s3, s4]"),
        ("schmidt_number_from_coefficients", schmidt_number_from_coefficients, one,
         "Schmidt row [s1, s2, s3, s4]"),
        ("invariants_from_z", invariants_from_z, one, "coefficient row [z1, z2, z3, z4]"),
    ]
    for name, entry, good, what in arrays:
        for form, bad in _malformed(good).items():
            if form == "nan":
                first = [0] * np.ndim(good)  # _malformed puts the NaN first
                message = re.escape(f"{what} entries must be finite, but entry {first} is not")
                message += "$"
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


COUNT_MAX = 2**63 - 1


@pytest.mark.parametrize(
    "entry, bad, message",
    [
        (lambda x: run_audit(x, 1), 2.5, "samples must be an integer of at least 1, got 2.5"),
        (lambda x: run_audit(x, 1), "10", "samples must be an integer of at least 1, got '10'"),
        (lambda x: run_audit(x, 1), True, "samples must be an integer of at least 1, got True"),
        (lambda x: run_audit(x, 1), 2**63, f"samples must be at most {COUNT_MAX}, got {2**63}"),
        (lambda x: run_audit(10, x), 1.5, "seed must be an integer of at least 0, got 1.5"),
        (controlled_unitary_gate, "0.5", "p must lie in [0, 1], got '0.5'"),
        (controlled_unitary_gate, True, "p must lie in [0, 1], got True"),
        (lambda x: sweep("OA1", x, "oa1.csv"), 2**63, f"n_points must be at most {COUNT_MAX}, got {2**63}"),
        (verify_tables, 10**26, f"n_points must be at most {COUNT_MAX}, got {10**26}"),
        # a number of the right kind but out of range gets the same rule
        (lambda x: run_audit(x, 1), 0, "samples must be an integer of at least 1, got 0"),
        (lambda x: run_audit(1, x), -1, "seed must be an integer of at least 0, got -1"),
        (controlled_unitary_gate, 1.1, "p must lie in [0, 1], got 1.1"),
        (controlled_unitary_gate, np.nan, "p must lie in [0, 1], got nan"),
    ],
    ids=["samples-float", "samples-str", "samples-bool", "samples-huge", "seed-float",
         "p-str", "p-bool", "sweep-huge", "verify_tables-huge", "samples-zero",
         "seed-negative", "p-above", "p-nan"],
)
def test_scalar_input_raises_validation_error(entry, bad, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        entry(bad)
    assert list(tmp_path.iterdir()) == []  # a refused sweep opens no CSV


def test_scalar_check_accepts_numpy_numbers_and_any_seed(tmp_path):
    assert run_audit(np.int64(3), 2**70).passed
    assert np.array_equal(controlled_unitary_gate(np.float64(0.5)), controlled_unitary_gate(0.5))
    assert sweep("OA1", np.int32(3), tmp_path / "oa1.csv")[0].size == 3


# every Tolerance field that a report reads: the audit's two row checks and
# verify_tables' edge checks
REPORT_FIELDS = ["invariant_tol", "table_tol"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field=st.sampled_from(REPORT_FIELDS), probe=st.sampled_from(["at", "above", "nan"]),
       others=st.lists(st.floats(0.0, 1.0), max_size=8), index=st.integers(0, 8))
def test_check_and_refuse_rows_agree_at_the_tolerance(field, probe, others, index):
    # rows at most the tolerance, and one row exactly at it, one ULP above
    # it, or NaN: only the first passes, for the report and the refusal alike
    tol = getattr(DEFAULT_TOL, field)
    value = {"at": tol, "above": np.nextafter(tol, np.inf), "nan": np.nan}[probe]
    index = min(index, len(others))
    residual = np.insert(np.array(others) * tol, index, value)
    check = Check.worst_row("probe", residual, field)
    try:
        refuse_rows(ValidationError, "probe", residual, field)
        refused = False
    except ValidationError:
        refused = True
    assert check.passed == Report((check,)).passed == (not refused) == (probe == "at")
    assert check.tolerance == tol
    if probe == "at":
        assert check.value == tol and residual[check.where] == tol
    else:
        assert check.where == index and np.array_equal(check.value, value, equal_nan=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(values=st.lists(st.sampled_from([0.0, 0.5, 2.0, np.nan]), min_size=1, max_size=12),
       cuts=st.lists(st.integers(1, 11), max_size=4))
def test_worse_row_merges_chunks_to_the_worst_row(values, cuts):
    # ties and NaNs anywhere, cut into chunks anywhere: merging each chunk into
    # the kept value gives the row that worst_row finds in the whole array
    values = np.array(values)
    bounds = [0, *sorted({c for c in cuts if c < len(values)}), len(values)]
    kept, where = -np.inf, None
    for lo, hi in zip(bounds, bounds[1:]):
        row = Check.worse_row(kept, values[lo:hi])
        if row is not None:
            kept, where = values[lo + row], lo + row
    assert where == Check.worst_row("probe", values, "table_tol").where
