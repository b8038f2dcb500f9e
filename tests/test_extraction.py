"""Property tests for coordinate extraction from the eigenphases of M(U).

The extraction takes the phases from a real symmetric eigensolver, fixes
the branch in closed form and checks the result against (G1, G2). These
tests aim at the cases that stress each step: degenerate spectra, phases
at +/-pi, the ``eigvals`` fallback and the failure report.
"""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoqubit.canonical as canonical_mod
from twoqubit import (ExtractionError, NumericalError, ValidationError, canonical_gate, catalog,
                      make_gate)
from twoqubit.canonical import (
    ClassData,
    POLYHEDRON_VERTICES,
    TETRAHEDRON_VERTICES,
    canonical_point,
    canonical_points_array,
    locally_equivalent,
    weyl_reduce_array,
)
from twoqubit.edges import edge_names
from twoqubit.invariants import invariants_from_unitary, invariants_from_unitary_array
from twoqubit.sampling import haar_unitary, random_local_unitary
from twoqubit.schmidt import schmidt_decompose

from helpers import edge_columns

PI = np.pi
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

# vertices, edge midpoints and quarter points: every one has a repeated
# eigenphase or a phase at 0 or pi
SPECIAL_POINTS = [*TETRAHEDRON_VERTICES.values(), *POLYHEDRON_VERTICES.values()] + [
    row for name in edge_names() for row in edge_columns(name, 5)[1].points
]

seeds = st.integers(0, 2**32 - 1)
angles = st.floats(-2 * PI, 2 * PI, allow_nan=False)


def _dressed(point, seed: int) -> np.ndarray:
    """canonical_gate(point) under random local unitaries and a global phase."""
    rng = np.random.default_rng(seed)
    k_left, k_right = random_local_unitary(rng), random_local_unitary(rng)
    phase = np.exp(1j * rng.uniform(0, 2 * PI))
    return phase * k_left @ canonical_gate(point) @ k_right


def _snapped(c: np.ndarray) -> np.ndarray:
    # Within float noise of the base c3 = 0 the mirror rule, which engages
    # at c3 <= 1e-13, may go either way; snapping c3 to 0 fixes one side.
    c = np.array(c, dtype=float)
    if c[2] < 1e-11:
        c[2] = 0.0
    return weyl_reduce_array(c)


def _assert_same_class(u: np.ndarray, point) -> None:
    got, want = canonical_points_array(u), weyl_reduce_array(point)
    assert np.allclose(_snapped(got), _snapped(want), atol=1e-10), (got, want)


@SETTINGS
@given(st.sampled_from(SPECIAL_POINTS), seeds)
def test_degenerate_spectra_vertices_and_edges(point, seed):
    _assert_same_class(_dressed(point, seed), point)


@SETTINGS
@given(angles, angles, st.sampled_from(range(4)), seeds)
def test_eigenphases_at_plus_minus_pi(a, b, which, seed):
    # one phase combination equals pi exactly: c1 + c2 - c3, c1 - c2 + c3,
    # -c1 + c2 + c3 or c1 + c2 + c3; the determinant normalization may move
    # it to 0, which puts the partner phases at +/-pi instead
    point = [
        np.array([a, b, a + b - PI]),
        np.array([a, b, PI - a + b]),
        np.array([a + b - PI, a, b]),
        np.array([a, b, PI - a - b]),
    ][which]
    _assert_same_class(_dressed(point, seed), point)


@pytest.mark.parametrize("mix", [canonical_mod._MIX, np.sqrt(2.0) - 1.0])
@SETTINGS
@given(st.floats(0.0, PI, allow_nan=False), st.floats(0.1, PI - 0.1), seeds)
def test_eigvals_fallback_matches(mix, c2, delta, seed):
    # The distinct phases c1+c2-c3 and c1-c2+c3 (c3 - c2 = delta is not a
    # multiple of pi) sum to 2 c1 and so collide in Re M + x Im M when
    # c1 = atan(x): P^T M P is not diagonal and the row goes to eigvals.
    # For x = sqrt(2) - 1 that is c1 = pi/8.
    point = np.array([np.arctan(mix), c2, c2 + delta])
    u = _dressed(point, seed)
    calls = []
    eigvals = np.linalg.eigvals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canonical_mod, "_MIX", mix)
        mp.setattr(np.linalg, "eigvals", lambda m: calls.append(m.shape) or eigvals(m))
        got = canonical_points_array(u)
    assert calls, "the eigvals fallback was not taken"
    assert np.allclose(_snapped(got), _snapped(weyl_reduce_array(point)), atol=1e-10)


def _failing(m):
    raise AssertionError(f"eigvals fallback taken for {m.shape[0]} rows")


def test_no_fallback_on_special_points(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", _failing)
    rng = np.random.default_rng(11)
    u = np.array(
        [_dressed(p, int(s)) for p in SPECIAL_POINTS for s in rng.integers(0, 2**32, 5)]
    )
    points = canonical_points_array(u)
    expected = weyl_reduce_array(np.repeat(np.array(SPECIAL_POINTS), 5, axis=0))
    assert np.allclose(points, expected, atol=1e-10)


def test_returned_invariants_are_the_matrix_route():
    u = haar_unitary(np.random.default_rng(5), 4, 50)
    data = ClassData.from_unitaries(u)
    g1_ref, g2_ref = invariants_from_unitary_array(u)
    assert np.array_equal(data.points, canonical_points_array(u))
    assert np.array_equal(data.g1, g1_ref) and np.array_equal(data.g2, g2_ref)


def test_extraction_error_names_rows_and_tolerance(monkeypatch):
    true = canonical_mod.invariants_from_bell_array

    def planted(det, m):
        # a G1 that row 3 of the six-gate stack misses
        g1, g2 = true(det, m)
        return g1 + 0.1 * (np.arange(g1.size) == 3) * (g1.size == 6), g2

    monkeypatch.setattr(canonical_mod, "invariants_from_bell_array", planted)
    u = haar_unitary(np.random.default_rng(9), 4, 6)
    with pytest.raises(ExtractionError, match=r"rows \[3\] \(1 in all\).*tol 1e-09"):
        canonical_points_array(u)
    canonical_points_array(np.delete(u, 3, axis=0))


def test_non_unitary_row_is_refused_by_its_g2_residue():
    rng = np.random.default_rng(9)
    u = haar_unitary(rng, 4, 6)
    u[3] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(NumericalError) as info:
        canonical_points_array(u)
    assert type(info.value) is NumericalError
    assert re.match(r"G2 imaginary residue at rows \[3\] \(1 in all\).*\(invariant_tol\)$",
                    str(info.value)), str(info.value)


_NOT_UNITARY = re.compile(r"matrix is not unitary: \|\|U\^dag U - I\|\|_F at rows \[0\] "
                          r"\(1 in all\); worst residual \S+ exceeds tol 1e-10 \(unitarity_tol\)")


def test_every_route_refuses_a_near_unitary_gate_alike():
    # 1e-9 off unitary: the G2 residue is about 3e-9, above invariant_tol,
    # while the extracted point still matches (G1, Re G2); the scalar entry
    # admits its matrix as make_gate does, so the defect, above unitarity_tol,
    # is refused first
    rng = np.random.default_rng(3)
    u = haar_unitary(rng) + 1e-9 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    messages = []
    for route in (canonical_points_array, ClassData.from_unitaries):
        with pytest.raises(NumericalError) as info:
            route(u)
        messages.append((type(info.value), str(info.value)))
    assert messages[0][1].startswith("G2 imaginary residue at rows [0] (1 in all)")
    assert messages == [messages[0]] * 2
    with pytest.raises(ValidationError) as info:
        invariants_from_unitary(u)
    assert _NOT_UNITARY.fullmatch(str(info.value)), str(info.value)


_SCALAR_ENTRIES = {"canonical_point": canonical_point,
                   "invariants_from_unitary": invariants_from_unitary,
                   "locally_equivalent": lambda u: locally_equivalent(u, np.eye(4)),
                   "schmidt_decompose": schmidt_decompose}


@pytest.mark.parametrize("route", ["canonical_point", "invariants_from_unitary", "from_unitaries",
                                   "locally_equivalent"])
@pytest.mark.parametrize("matrix", [np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, 0.0]),
                                    1e200 * np.eye(4), 1e-200 * np.eye(4)],
                         ids=["zero", "singular", "overflowing", "underflowing"])
def test_singular_or_overflowing_gate_is_refused_by_its_g2_without_a_warning(route, matrix):
    # the stack entry trusts its rows: det(U) and the invariants' products turn
    # NaN in silence, and the NaN G2 residue is refused; a scalar entry refuses
    # the matrix first, as make_gate does, by its defect (inf or NaN on
    # overflow); a numpy warning would raise in place of either refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValidationError, NumericalError)) as info:
            _SCALAR_ENTRIES.get(route, ClassData.from_unitaries)(matrix)
    if route == "from_unitaries":
        assert type(info.value) is NumericalError
        assert str(info.value) == ("G2 imaginary residue at rows [0] (1 in all); worst residual "
                                   "nan exceeds tol 1e-09 (invariant_tol)")
    else:
        assert type(info.value) is ValidationError
        assert _NOT_UNITARY.fullmatch(str(info.value)), str(info.value)


@pytest.mark.parametrize("entry", _SCALAR_ENTRIES.values(), ids=_SCALAR_ENTRIES)
@pytest.mark.parametrize("matrix", [np.diag([1.0, 1.0, 1.0, 2.0]), 1.01 * catalog("cnot"),
                                    np.zeros((4, 4)), 1e200 * np.eye(4)],
                         ids=["diag-1112", "scaled-cnot", "zero", "overflowing"])
def test_scalar_entries_admit_a_matrix_as_make_gate_does(entry, matrix):
    # one admission rule: each entry that takes one matrix refuses a non-unitary
    # one with make_gate's ValidationError at unitarity_tol, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            entry(matrix)
    assert _NOT_UNITARY.fullmatch(str(info.value)), str(info.value)
    with pytest.raises(ValidationError) as admitted:
        make_gate(matrix)
    assert str(info.value) == str(admitted.value)
