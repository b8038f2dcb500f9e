"""The tolerance policy: every threshold lives in ``DEFAULT_TOL``, and the
report fields those thresholds decide are probed on both sides of them.

The threshold cases use derandomized Hypothesis and local dressing with a
global phase, so each example checks that the decision does not depend on
which representative of the class the extraction sees.
"""
import ast
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twoqubit
import twoqubit.canonical as canonical_mod
import twoqubit.invariants as invariants_mod
from twoqubit import DEFAULT_TOL, ValidationError, canonical_gate, make_gate
from twoqubit.canonical import (
    PE_HALFSPACES,
    POLYHEDRON_VERTICES,
    TETRAHEDRON_VERTICES,
    ClassData,
    is_perfect_entangler,
    weyl_reduce_array,
)
from twoqubit.cli import analyze_gate, report_text
from twoqubit.invariants import invariants_from_point
from twoqubit.sampling import haar_unitary, random_local_unitary
from twoqubit.schmidt import schmidt_number_from_coefficients, schmidt_numbers_array, z_from_point

PI = np.pi
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)

# Extraction noise on a dressed gate stays near 1e-14; cases are kept at
# least this far from every threshold they probe, so that noise cannot
# decide them.
BAND = 1e-13

MODULES = [
    importlib.import_module(f"twoqubit.{m.name}")
    for m in pkgutil.iter_modules(twoqubit.__path__)
    if m.name != "__main__"
]


def test_no_public_function_takes_a_tolerance():
    offenders = [
        f"{module.__name__}.{name}({param})"
        for module in MODULES
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        for param in inspect.signature(obj).parameters
        if "tol" in param.lower()
    ]
    assert offenders == []


def test_only_linops_assigns_tolerance_names():
    # read assignments from the source, so the imported DEFAULT_TOL is no hit
    offenders = []
    for module in MODULES:
        if module.__name__ == "twoqubit.linops":
            continue
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            offenders += [
                f"{module.__name__}:{n.lineno} {n.id}"
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name) and n.id.endswith("_TOL")
            ]
    assert offenders == []


def _dressed_reports(point, seed: int, count: int):
    """analyze reports for canonical_gate(point), undressed and under
    ``count`` random local dressings, each with a global phase."""
    rng = np.random.default_rng(seed)
    core = canonical_gate(point)
    matrices = [core] + [
        np.exp(1j * rng.uniform(0, 2 * PI))
        * random_local_unitary(rng) @ core @ random_local_unitary(rng)
        for _ in range(count)
    ]
    return [analyze_gate(make_gate(u)) for u in matrices]


def _clear_of_count_thresholds(point) -> bool:
    """True iff no Schmidt coefficient of the point lies within BAND of a
    threshold of the count (zero_tol and its 10x and 0.1x retries)."""
    s = np.abs(z_from_point(point))
    t = DEFAULT_TOL.zero_tol
    return bool(np.all(np.abs(s[:, None] - np.array([t, 10 * t, 0.1 * t])) >= BAND))


def test_base_mirror_threshold_gives_one_of_two_images():
    # c3 sits at base_mirror_tol, so extraction noise decides whether the
    # base mirror c1 -> pi - c1 applies; either image is the same class
    images = np.array([[1.0, 1.0, 0.0], [PI - 1.0, 1.0, 0.0]])
    ref_g1, ref_g2 = invariants_from_point(images[0])
    reports = _dressed_reports([PI - 1.0, 1.0, 1e-13], seed=7, count=40)[1:]
    assert len(reports) == 40
    for report in reports:
        point = np.array(report.points)
        point[2] = round(point[2], 12)
        assert np.any(np.all(np.abs(images - point) <= 1e-9, axis=1)), point
        for g1, g2 in ((report.g1, report.g2), invariants_from_point(point)):
            assert abs(g1 - ref_g1) <= DEFAULT_TOL.invariant_tol
            assert abs(g2 - ref_g2) <= DEFAULT_TOL.invariant_tol
    assert len({(r.is_pe, r.schmidt_number) for r in reports}) == 1


# c2 a small multiple of a count threshold: the two small coefficients,
# sin(c2/2) |cos(theta/2)| and sin(c2/2) |sin(theta/2)|, straddle it
near_line_c2 = st.builds(
    lambda t, m: t * m,
    st.sampled_from([0.1, 1.0, 10.0]).map(lambda k: k * DEFAULT_TOL.zero_tol),
    st.floats(0.3, 6.0),
)


@SETTINGS
@given(st.floats(0.05, PI - 0.05), near_line_c2, seeds)
def test_near_line_schmidt_number_matches_line_test(theta, c2, seed):
    point = [theta, c2, 0.0]
    assume(_clear_of_count_thresholds(point))
    on_line = ClassData.from_points(point).controlled_unitary
    for report in _dressed_reports(point, seed, count=3):
        assert report.controlled_unitary == on_line
        assert ("controlled unitary: yes" in report_text(report, "dressed")) == on_line
        assert ClassData.from_points(report.points).controlled_unitary == on_line


def _surfaces():
    """(a, b, vertices) for the seven PE facets a . c <= b, then for the
    chamber face c1 + c2 = pi (triangle A1 A2 A3)."""
    a_rows, b_vals = PE_HALFSPACES
    pe_vertices = np.array(list(POLYHEDRON_VERTICES.values()))
    out = [
        (a, b, pe_vertices[np.abs(pe_vertices @ a - b) < 1e-12])
        for a, b in zip(a_rows, b_vals)
    ]
    face = np.array([TETRAHEDRON_VERTICES[n] for n in ("A1", "A2", "A3")])
    out.append((np.array([1.0, 1.0, 0.0]), PI, face))
    return out


SURFACES = _surfaces()

# signed offsets a . c - b: generic sizes on both sides, and offsets that
# straddle the facet tolerance by BAND to 100 BAND
offsets = st.one_of(
    st.builds(lambda s, x: s * 10.0**x, st.sampled_from([-1.0, 1.0]), st.floats(-14, -6)),
    st.builds(
        lambda s, x: DEFAULT_TOL.pe_boundary_tol + s * 10.0**x,
        st.sampled_from([-1.0, 1.0]),
        st.floats(-13, -11),
    ),
)


@SETTINGS
@given(
    st.sampled_from(range(len(SURFACES))),
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    offsets,
    seeds,
)
def test_pe_flag_and_schmidt_number_stable_at_facets(surface, weights, offset, seed):
    a, b, vertices = SURFACES[surface]
    w = np.array(weights[: len(vertices)])
    assume(w.sum() > 0.1)
    point = (w / w.sum()) @ vertices + offset * a / (a @ a)
    facet_values = PE_HALFSPACES[0] @ weyl_reduce_array(point) - PE_HALFSPACES[1]
    assume(np.all(np.abs(facet_values - DEFAULT_TOL.pe_boundary_tol) >= BAND))
    assume(_clear_of_count_thresholds(point))
    pe = is_perfect_entangler(point)
    count = int(schmidt_numbers_array(np.abs(z_from_point(point))))
    for report in _dressed_reports(point, seed, count=3):
        assert report.is_pe == pe
        assert report.schmidt_number == count


@pytest.mark.parametrize("facet", [3, 4, 6])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_pe_facet_decided_at_boundary_tol(facet, side):
    # the facets inside the chamber, at their centroids: BAND inside the
    # tolerance is PE, BAND outside is not, for every dressing
    a, b, vertices = SURFACES[facet]
    offset = DEFAULT_TOL.pe_boundary_tol + side * BAND
    point = vertices.mean(axis=0) + offset * a / (a @ a)
    assert is_perfect_entangler(point) is (side < 0)
    reports = _dressed_reports(point, seed=facet, count=10)
    assert {r.is_pe for r in reports} == {side < 0}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seeds, st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_make_gate_unitarity_threshold(seed, weights):
    # U V diag(sqrt(1 + d w)) V^dag has ||U'^dag U' - I||_F = d for a unit w >= 0
    w = np.array(weights)
    assume(np.linalg.norm(w) > 0.1)
    w = w / np.linalg.norm(w)
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(rng, 4, 2)
    tol = DEFAULT_TOL.unitarity_tol
    accepted = make_gate(u @ v @ np.diag(np.sqrt(1 + 0.5 * tol * w)) @ v.conj().T)
    analyze_gate(accepted)  # the later thresholds hold too
    with pytest.raises(ValidationError, match="not unitary"):
        make_gate(u @ v @ np.diag(np.sqrt(1 + 2 * tol * w)) @ v.conj().T)


def _plant_imag(monkeypatch, row, call=1):
    """Patch the G2 residue refusal of the invariant kernels to add 1e-6j to G2
    at ``row`` on its ``call``-th call; an audit chunk calls it for its plain
    gates first, then for the z route, then for the dressed gates. The z route
    has its own planting, ``_audit_z_route_g2``, which call order cannot give."""
    true, calls = invariants_mod._real_g2, []

    def planted(g2):
        calls.append(None)
        if len(calls) == call:
            g2 = g2 + 1e-6j * (np.arange(g2.size).reshape(g2.shape) == row)
        return true(g2)

    monkeypatch.setattr(invariants_mod, "_real_g2", planted)


def _extraction(monkeypatch):
    u = haar_unitary(np.random.default_rng(9), 4, 6)
    u[3] = np.random.default_rng(10).standard_normal((4, 4))
    canonical_mod.canonical_points_array(u)


def _class_data_g2(monkeypatch):
    _plant_imag(monkeypatch, 2)
    twoqubit.ClassData.from_unitaries(haar_unitary(np.random.default_rng(34), 4, 5))


def _matrix_route_g2(monkeypatch):
    u = np.random.default_rng(11).standard_normal((4, 4)) + 1j
    twoqubit.invariants_from_unitary(u)


def _z_route_g2(monkeypatch):
    z = np.array([0.9, 0.3j, 0.3, 0.1 + 0.1j])
    twoqubit.invariants_from_z(z / np.linalg.norm(z))


def _audit_z_route_g2(monkeypatch):
    # a common phase e^{i phi} on row 4 of the z(c) that the extraction hands
    # the audit turns G2 into e^{4i phi} G2; only the z route reads that z
    true = twoqubit.ClassData._from_unitaries

    def planted(u):
        data, point_invariants, z = true(u)
        return data, point_invariants, z * np.exp(1e-6j * (np.arange(len(z)) == 4))[:, None]

    monkeypatch.setattr(twoqubit.ClassData, "_from_unitaries", planted)
    twoqubit.run_audit(10, 1)


def _audit_dressed_g2(monkeypatch):
    _plant_imag(monkeypatch, 1, call=3)
    twoqubit.run_audit(10, 1)


@pytest.mark.parametrize(
    "site,error,field,rows",
    [
        (_extraction, twoqubit.ExtractionError, "invariant_tol", "[3]"),
        (_class_data_g2, twoqubit.NumericalError, "imag_residue_tol", "[2]"),
        (_matrix_route_g2, twoqubit.NumericalError, "imag_residue_tol", "[0]"),
        (_z_route_g2, twoqubit.NumericalError, "imag_residue_tol", "[0]"),
        (_audit_z_route_g2, twoqubit.NumericalError, "imag_residue_tol", "[4]"),
        (_audit_dressed_g2, twoqubit.NumericalError, "imag_residue_tol", "[1]"),
        (lambda mp: twoqubit.invariants_from_z([1, 1, 0, 0]), ValidationError, "norm_tol", "[0]"),
        (lambda mp: make_gate(np.diag([1, 1, 1, 2])), ValidationError, "unitarity_tol", "[0]"),
        # ||U^dag U - I||_F overflows to NaN, which is refused too
        (lambda mp: make_gate(np.full((4, 4), 1e200)), ValidationError, "unitarity_tol", "[0]"),
        (lambda mp: twoqubit.schmidt_strength([1, 1, 0, 0]), ValidationError, "norm_tol", "[0]"),
        (lambda mp: twoqubit.schmidt_strength([-0.5, 0.5, 0.5, 0.5]), ValidationError,
         "negative_tol", "[0]"),
        # unsorted, so the residual must be the third-largest coefficient, not s[2]
        (lambda mp: schmidt_number_from_coefficients([0.4, 0.8, 1e-20, 0.4]),
         twoqubit.SchmidtNumberError, "zero_tol", "[0]"),
    ],
    ids=["extraction", "class-data-g2", "matrix-route-g2", "z-route-g2", "audit-z-route-g2",
         "audit-dressed-g2", "z-norm", "unitarity", "unitarity-overflow", "s-norm", "s-negative",
         "schmidt-count-3"],
)
def test_refusal_names_rows_residual_tolerance_and_field(monkeypatch, site, error, field, rows):
    tol = getattr(DEFAULT_TOL, field)
    with pytest.raises(error) as info:
        site(monkeypatch)
    match = re.fullmatch(
        rf".+ at rows {re.escape(rows)} \(1 in all\); worst residual (\S+) "
        rf"exceeds tol {re.escape(f'{tol:g}')} \({field}\)",
        str(info.value),
    )
    assert match, str(info.value)
    worst = float(match.group(1))
    assert np.isnan(worst) or worst > tol
