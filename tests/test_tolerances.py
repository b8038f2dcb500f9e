"""The tolerance policy: every threshold lives in ``DEFAULT_TOL``, and the
report fields those thresholds decide are probed on both sides of them.

The threshold cases use derandomized Hypothesis and local dressing with a
global phase, so each example checks that the decision does not depend on
which representative of the class the extraction sees.
"""
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import twoqubit
import twoqubit.audit as audit_mod
import twoqubit.canonical as canonical_mod
import twoqubit.edges as edges_mod
import twoqubit.invariants as invariants_mod
from twoqubit import DEFAULT_TOL, ValidationError, canonical_gate, make_gate
from twoqubit.canonical import (
    PE_HALFSPACES,
    POLYHEDRON_VERTICES,
    TETRAHEDRON_VERTICES,
    ClassData,
    canonical_gates_array,
    in_weyl_chamber,
    is_perfect_entangler,
    is_perfect_entangler_array,
    weyl_reduce_array,
)
from twoqubit.cli import report_text
from twoqubit.gates import SIGMA_X, SIGMA_Y, SIGMA_Z
from twoqubit.invariants import invariants_from_point
from twoqubit.sampling import haar_unitary, random_local_unitary
from twoqubit.schmidt import (
    schmidt_coefficients_array,
    schmidt_number_from_coefficients,
    schmidt_numbers_array,
    z_from_point,
)

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


def _names(source: str) -> set:
    """The attribute names and the whole string constants of Python source."""
    return {n.attr if isinstance(n, ast.Attribute) else n.value
            for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_tolerance_field_is_read_and_probed():
    # a field that no module reads decides nothing; one that this file never names
    # (as DEFAULT_TOL.<field> or as the field string a refusal names) is unprobed
    fields = {f.name for f in dataclasses.fields(twoqubit.Tolerance)}
    read = set().union(*(_names(inspect.getsource(m)) for m in MODULES
                         if m.__name__ != "twoqubit.linops"))
    with open(__file__) as f:
        probed = _names(f.read())
    assert {"unread": sorted(fields - read), "unprobed": sorted(fields - probed)} == {
        "unread": [], "unprobed": []}


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
    return [ClassData.from_unitaries(make_gate(u)) for u in matrices]


def _clear_of_zero_tol(point) -> bool:
    """True iff no Schmidt coefficient of the point lies within BAND of
    zero_tol, the one threshold of the Schmidt number."""
    s = np.abs(z_from_point(point))
    return bool(np.all(np.abs(s - DEFAULT_TOL.zero_tol) >= BAND))


def test_base_mirror_threshold_gives_one_of_two_images():
    # c3 sits at base_mirror_tol, so extraction noise decides whether the
    # base mirror c1 -> pi - c1 applies; either image is the same class
    images = np.array([[1.0, 1.0, 0.0], [PI - 1.0, 1.0, 0.0]])
    ref_g1, ref_g2 = invariants_from_point(images[0])
    reports = _dressed_reports([PI - 1.0, 1.0, DEFAULT_TOL.base_mirror_tol], seed=7, count=40)[1:]
    assert len(reports) == 40
    for report in reports:
        point = np.array(report.points)
        point[2] = round(point[2], 12)
        assert np.any(np.all(np.abs(images - point) <= 1e-9, axis=1)), point
        for g1, g2 in ((report.g1, report.g2), invariants_from_point(point)):
            assert abs(g1 - ref_g1) <= DEFAULT_TOL.invariant_tol
            assert abs(g2 - ref_g2) <= DEFAULT_TOL.invariant_tol
    assert len({(r.is_pe, r.schmidt_number) for r in reports}) == 1


@SETTINGS
@given(st.floats(PI / 2 + 0.01, PI - 0.02), st.floats(0.01, 1.0), st.permutations(range(3)))
def test_base_mirror_decided_at_its_tol_property(c1, f, order):
    # [c1, c2, c3] with c1 > pi/2, c1 + c2 < pi and c3 at the tol times (1 -+ EPS),
    # given in a drawn coordinate order: the reduction keeps c3's bits, so the first
    # plant is mirrored to [pi - c1, c2, c3] and the second keeps c1 > pi/2
    c2 = f * (PI - c1 - 0.005)
    for side in (-1.0, 1.0):
        point = np.array([c1, c2, DEFAULT_TOL.base_mirror_tol * (1 + side * EPS)])
        reduced = weyl_reduce_array(point[list(order)])
        assert bool(reduced[0] <= PI / 2) is (side < 0), reduced
        assert reduced[2] == point[2]


# c2 a small multiple of zero_tol: the two small coefficients,
# sin(c2/2) |cos(theta/2)| and sin(c2/2) |sin(theta/2)|, straddle it
near_line_c2 = st.floats(0.3, 6.0).map(lambda m: m * DEFAULT_TOL.zero_tol)


@SETTINGS
@given(st.floats(0.05, PI - 0.05), near_line_c2, seeds)
def test_near_line_schmidt_number_matches_line_test(theta, c2, seed):
    point = [theta, c2, 0.0]
    assume(_clear_of_zero_tol(point))
    on_line = ClassData.from_points(point).controlled_unitary
    for report in _dressed_reports(point, seed, count=3):
        assert report.controlled_unitary == on_line
        assert ("controlled unitary: yes" in report_text(report, "dressed")) == on_line
        assert ClassData.from_points(report.points).controlled_unitary == on_line


# On [theta, delta, 0] with delta <= theta <= pi/2, s3 = sin(delta/2) cos(theta/2)
# and cos(theta/2) lies in [cos(pi/4), 1]. So delta alone decides K below
# 2 asin(zero_tol) (K = 2) and above 2 asin(sqrt2 zero_tol) (K = 4); within this
# band, widened by BAND on s3, theta decides.
DELTA_BAND = (2 * np.arcsin(DEFAULT_TOL.zero_tol - BAND),
              2 * np.arcsin(np.sqrt(2) * (DEFAULT_TOL.zero_tol + BAND)))


@SETTINGS
@given(
    st.lists(st.floats(0.0, PI / 2, exclude_min=True), min_size=1, max_size=16),
    st.floats(-10.0, -4.0).map(lambda x: 10.0**x),
    seeds,
)
@example(np.linspace(PI / 4000, PI / 2, 2000).tolist(), 1e-7, 0)
def test_near_line_schmidt_number_follows_delta(thetas, delta, seed):
    # dressed gates at [theta, delta, 0]: K of |z(c)| at the extracted points
    # equals K of the SVD where both s2 and s3 are BAND clear of zero_tol, and
    # away from O (theta >= 1e-3) and outside DELTA_BAND it does not depend on theta
    theta = np.array(thetas)
    n = len(theta)
    points = np.column_stack([theta, np.full(n, delta), np.zeros(n)])
    rng = np.random.default_rng(seed)
    u = (np.exp(2j * PI * rng.random(n))[:, None, None] * random_local_unitary(rng, n)
         @ canonical_gates_array(points) @ random_local_unitary(rng, n))
    from_z = ClassData.from_unitaries(u).schmidt_number
    s = schmidt_coefficients_array(u)
    clear = np.all(np.abs(s[:, 1:3] - DEFAULT_TOL.zero_tol) >= BAND, axis=-1)
    assert np.array_equal(from_z[clear], schmidt_numbers_array(s)[clear])
    low, high = DELTA_BAND
    if not low <= delta <= high:
        assert (from_z[theta >= 1e-3] == (2 if delta < low else 4)).all()


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
        lambda s, x: DEFAULT_TOL.facet_tol + s * 10.0**x,
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
    assume(np.all(np.abs(facet_values - DEFAULT_TOL.facet_tol) >= BAND))
    assume(_clear_of_zero_tol(point))
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
    offset = DEFAULT_TOL.facet_tol + side * BAND
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
    ClassData.from_unitaries(accepted)  # the later thresholds hold too
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
    # the stack kernel: the scalar entry refuses this matrix at unitarity_tol first
    u = np.random.default_rng(11).standard_normal((4, 4)) + 1j
    invariants_mod.invariants_from_unitary_array(u)


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


def _count_three_row(monkeypatch):
    # an unsorted row that a count above zero_tol calls 3: the Schmidt number
    # reads s2 and s3 of the sorted row and answers 4 without a refusal, while
    # the row's norm, 0.96, is what schmidt_strength refuses
    row = [0.4, 0.8, 1e-20, 0.4]
    assert schmidt_number_from_coefficients(row) == 4
    twoqubit.schmidt_strength(row)


@pytest.mark.parametrize(
    "site,error,field,rows",
    [
        (_extraction, twoqubit.ExtractionError, "invariant_tol", "[3]"),
        (_class_data_g2, twoqubit.NumericalError, "invariant_tol", "[2]"),
        (_matrix_route_g2, twoqubit.NumericalError, "invariant_tol", "[0]"),
        (_z_route_g2, twoqubit.NumericalError, "invariant_tol", "[0]"),
        (_audit_z_route_g2, twoqubit.NumericalError, "invariant_tol", "[4]"),
        (_audit_dressed_g2, twoqubit.NumericalError, "invariant_tol", "[1]"),
        (lambda mp: twoqubit.invariants_from_z([1, 1, 0, 0]), ValidationError, "unitarity_tol",
         "[0]"),
        (lambda mp: make_gate(np.diag([1, 1, 1, 2])), ValidationError, "unitarity_tol", "[0]"),
        # ||U^dag U - I||_F overflows to NaN, which is refused too
        (lambda mp: make_gate(np.full((4, 4), 1e200)), ValidationError, "unitarity_tol", "[0]"),
        (lambda mp: twoqubit.schmidt_strength([1, 1, 0, 0]), ValidationError, "unitarity_tol",
         "[0]"),
        (lambda mp: twoqubit.schmidt_strength([-0.5, 0.5, 0.5, 0.5]), ValidationError,
         "zero_tol", "[0]"),
        (_count_three_row, ValidationError, "unitarity_tol", "[0]"),
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


def _counting_svd(mp, rows: list) -> None:
    """Record in ``rows`` the row count of every ``np.linalg.svd`` call under ``mp``."""
    true_svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        rows.append(len(a))
        return true_svd(a, *args, **kwargs)

    mp.setattr(np.linalg, "svd", counted)


# svd_fallback_tol (2e-2) decides a route, not a refusal. The smallest s4 of the
# 1e5 dressed Haar draws of the audits at seeds 3 and 42 is 1.35e-2 and 1.29e-2,
# with 9 and 7 rows below the tol; the Gram error at the tol is up to 7.3e-15,
# so an s4 10 BAND from it takes the route of its side
@SETTINGS
@given(st.floats(0.2, PI / 2), st.sampled_from([-1.0, 1.0]), seeds)
def test_svd_fallback_decided_at_its_tol(theta, side, seed):
    # on [theta, delta, 0] with theta, delta <= pi/2, s4 = sin(theta/2) sin(delta/2)
    s4 = DEFAULT_TOL.svd_fallback_tol + side * 10 * BAND
    point = [theta, 2 * np.arcsin(s4 / np.sin(theta / 2)), 0.0]
    rng = np.random.default_rng(seed)
    u = (np.exp(2j * PI * rng.random(3))[:, None, None] * random_local_unitary(rng, 3)
         @ canonical_gate(point) @ random_local_unitary(rng, 3))
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        _counting_svd(mp, rows)
        s = schmidt_coefficients_array(u)
    assert rows == ([3] if side < 0 else [])
    assert np.max(np.abs(s - np.sort(np.abs(z_from_point(point)))[::-1])) <= 1e-14


# the local line reads invariant_tol (1e-9), against the audit's own deviation:
# 1.3e-15 at 1000 samples (seed 42), 3.3e-15 and 4.0e-15 at 1e5 (seeds 3 and 42);
# so a deviation planted 10 BAND from the tol decides the check alone
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 29), st.sampled_from([-1.0, 1.0]), seeds)
def test_local_invariance_decided_at_its_tol(row, side, seed):
    shift = DEFAULT_TOL.invariant_tol + side * 10 * BAND
    true = audit_mod.schmidt_coefficients_array

    def planted(u):
        s = true(u)
        s[row, 0] += shift
        return s

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audit_mod, "schmidt_coefficients_array", planted)
        report = twoqubit.run_audit(30, seed)
    check = report.checks[1]
    assert check.passed is (side < 0) and check.where == row, check.detail
    assert check.detail.endswith("(tol 1e-09)")
    assert (report.counterexample is None) is (side < 0)


# Probes that plant a value at tol * (1 -+ EPS): EPS * tol is at least 1e-13, far
# above the rounding of each planted quantity, so the tol alone decides the two sides
EPS = 1e-3


@SETTINGS
@given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3), st.integers(0, 3),
       st.sampled_from([-1.0, 1.0]))
def test_negative_coefficient_decided_at_zero_tol(rest, index, side):
    # zero_tol (1e-8) also bounds a coefficient below 0: -zero_tol (1 -+ EPS)
    # planted at any place of a row normalized around it
    planted = -DEFAULT_TOL.zero_tol * (1 + side * EPS)
    rest = np.array(rest) * np.sqrt((1 - planted**2) / np.sum(np.square(rest)))
    row = np.insert(rest, index, planted)
    if side < 0:
        twoqubit.schmidt_strength(row)
    else:
        with pytest.raises(ValidationError, match=rf"at rows \[0\] .+ \(zero_tol\)$"):
            twoqubit.schmidt_strength(row)


def _eigh_plant(phi, plane, side):
    """eigvals' row counts and the largest phase error of ``_eigenphases`` on
    diag(exp(i phi)) when eigh's basis is turned by alpha in ``plane`` (i, j): the
    turn leaves the off-diagonal entry sin(alpha) cos(alpha) |exp(i phi_j) -
    exp(i phi_i)| in P^T m P, planted at eigh_offdiag_tol (1 + side EPS), and its
    own phases on the diagonal."""
    i, j = plane
    gap = abs(np.exp(1j * phi[j]) - np.exp(1j * phi[i]))
    alpha = 0.5 * np.arcsin(2 * DEFAULT_TOL.eigh_offdiag_tol * (1 + side * EPS) / gap)
    p = np.eye(4)
    p[[i, j, i, j], [i, j, j, i]] = np.cos(alpha), np.cos(alpha), -np.sin(alpha), np.sin(alpha)
    rows, true_eigvals = [], np.linalg.eigvals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lambda a: (None, np.broadcast_to(p, a.shape)))
        mp.setattr(np.linalg, "eigvals", lambda a: rows.append(len(a)) or true_eigvals(a))
        phases = canonical_mod._eigenphases(np.diag(np.exp(1j * phi))[None])
    return rows, np.max(np.abs(np.sort(phases[0]) - np.sort(phi)))


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_eigh_fallback_decided_at_its_tol(side):
    rows, error = _eigh_plant(np.array([0.3, 1.1, -0.5, -0.9]), (1, 3), side)
    assert rows == ([] if side < 0 else [1])
    assert error <= 1e-16


@SETTINGS
@given(st.lists(st.floats(-3.1, 3.1), min_size=4, max_size=4),
       st.sampled_from([(i, j) for i in range(4) for j in range(i + 1, 4)]))
def test_eigh_fallback_decided_at_its_tol_property(phi, plane):
    # drawn phases and plane: the first plant keeps eigh's phases, the second takes eigvals
    phi = np.array(phi)
    assume(abs(np.exp(1j * phi[plane[1]]) - np.exp(1j * phi[plane[0]])) >= 0.5)
    for side in (-1.0, 1.0):
        rows, error = _eigh_plant(phi, plane, side)
        assert rows == ([] if side < 0 else [1])
        assert error <= 1e-14


def _table_plant(name, n, at, side):
    """``verify_tables(n)`` with row ``at`` of edge ``name``'s closed form shifted in
    every coefficient, which keeps its order, by table_tol (1 + side EPS); the engine
    agrees to about 1e-16. Returns the row's parameter, the edge's check and the
    names of the failed checks."""
    spec = edges_mod.edge(name)
    t_star = np.linspace(*spec.param_range, n)[at]

    shift = DEFAULT_TOL.table_tol * (1 + side * EPS)

    def planted(t):
        return spec.closed_form_s(t) + shift * (t == t_star)[..., None]

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(edges_mod._EDGES, name, dataclasses.replace(spec, closed_form_s=planted))
        report = twoqubit.verify_tables(n)
    check = next(c for c in report.checks if c.name == name)
    return t_star, check, [c.name for c in report.checks if not c.passed]


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_table_check_decided_at_its_tol(side):
    t_star, check, failed = _table_plant("QP", 11, 4, side)
    assert check.where == t_star, check.detail
    assert failed == ([] if side < 0 else ["QP"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(list(edges_mod.edge_names())), st.integers(2, 40), st.data())
def test_table_check_decided_at_its_tol_property(name, n, data):
    # a drawn row of a drawn edge: that edge alone fails, at that row, on the second plant
    at = data.draw(st.integers(0, n - 1))
    for side in (-1.0, 1.0):
        t_star, check, failed = _table_plant(name, n, at, side)
        assert check.where == t_star, check.detail
        assert failed == ([] if side < 0 else [name])


# facet_tol (1e-10) through in_weyl_chamber: a point of each chamber face that is
# also a PE facet, moved off it along the face normal, and a point of the base
# line c1 = pi/2 (c3 = 0) moved along c1, which no PE facet bounds
CHAMBER_FACE_POINTS = {
    0: [1.4, 0.6, 0.0],
    1: [PI / 2, PI / 6, PI / 6],
    2: [PI / 3, PI / 3, PI / 12],
    5: [2 * PI / 3, PI / 3, PI / 12],
}


@pytest.mark.parametrize("face", [*CHAMBER_FACE_POINTS, "base"])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_chamber_face_decided_at_facet_tol(face, side):
    offset = DEFAULT_TOL.facet_tol * (1 + side * EPS)
    if face == "base":
        assert in_weyl_chamber([PI / 2 + offset, 0.5, 0.0]) is (side < 0)
        return
    a = PE_HALFSPACES[0][face]
    point = np.array(CHAMBER_FACE_POINTS[face]) + offset * a / (a @ a)
    assert in_weyl_chamber(point) is (side < 0)
    assert bool(is_perfect_entangler_array(point)) is (side < 0)


# the PE facets in chamber faces as triangles; on the base c3 = 0 the half
# L Q A2 of the quad, where c1 <= pi/2 and so the base condition holds
CHAMBER_FACETS = {0: np.array([POLYHEDRON_VERTICES[v] for v in ("L", "Q", "A2")]),
                  **{face: SURFACES[face][2] for face in (1, 2, 5)}}


@SETTINGS
@given(st.sampled_from(sorted(CHAMBER_FACETS)),
       st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
def test_chamber_facet_decided_at_facet_tol_property(face, weights):
    # an interior point of the facet, moved along its normal by facet_tol times
    # (1 -+ EPS): the first plant is inside for both readers, the second outside
    a = PE_HALFSPACES[0][face]
    w = np.array(weights)
    point = (w / w.sum()) @ CHAMBER_FACETS[face]
    for side in (-1.0, 1.0):
        planted = point + DEFAULT_TOL.facet_tol * (1 + side * EPS) * a / (a @ a)
        assert in_weyl_chamber(planted) is (side < 0)
        assert bool(is_perfect_entangler_array(planted)) is (side < 0)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_row_norm_decided_at_unitarity_tol(sign, side):
    # unitarity_tol (1e-10) on a coefficient row: sum |z|^2 - 1 and sum s^2 - 1
    # planted at sign times the tol, times (1 -+ EPS)
    z = z_from_point([1.0, 0.6, 0.2]) * np.sqrt(1 + sign * DEFAULT_TOL.unitarity_tol
                                                * (1 + side * EPS))
    for site, row in ((twoqubit.invariants_from_z, z), (twoqubit.schmidt_strength, np.abs(z))):
        if side < 0:
            site(row)
        else:
            with pytest.raises(ValidationError, match=r"not normalized .+ \(unitarity_tol\)$"):
                site(row)


def _gram_plant(s, entry, o, side):
    """The SVD row counts and the coefficients of ``schmidt_coefficients_array`` on the
    gate whose quaternion-basis matrix is C = o (diag(2 s) + i eps E_lm), ``entry``
    (l, m), with o real orthogonal, which cancels in C^dag C: its discarded
    Im(C^dag C) = 2 s_l eps (E_lm - E_ml) is planted at invariant_tol (1 + side EPS)."""
    l, m = entry
    c = np.diag(2 * s).astype(complex)
    c[l, m] = 1j * DEFAULT_TOL.invariant_tol * (1 + side * EPS) / (2 * s[l])
    q = np.array([np.eye(2), 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z])  # sqrt2 times the basis
    u = np.einsum("lm,lac,mbd->abcd", o @ c, q, q).reshape(4, 4) / 2  # sum_lm C_lm P_l x P_m
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        _counting_svd(mp, rows)
        coefficients = schmidt_coefficients_array(u[None])
    return rows, coefficients[0]


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_gram_imaginary_residue_decided_at_invariant_tol(side):
    # s4 = 0.3 keeps svd_fallback_tol out of the decision
    s = np.array([0.7, 0.5, 0.4, 0.3])
    rows, coefficients = _gram_plant(s, (0, 1), np.eye(4), side)
    assert rows == ([] if side < 0 else [1])
    assert np.max(np.abs(coefficients - s)) <= 1e-14


@SETTINGS
@given(st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
       st.sampled_from([(l, m) for l in range(4) for m in range(4) if l != m]), seeds)
def test_gram_imaginary_residue_decided_at_invariant_tol_property(s, entry, seed):
    # a drawn Schmidt row, s4 >= 0.05 clear of svd_fallback_tol, a drawn entry and a
    # drawn rotation: the Gram route keeps the first plant, the SVD takes the second.
    # Coefficients 0.01 apart keep eps's shift of them second order, below 1e-14
    s = np.sort(s)[::-1]
    assume(np.min(-np.diff(s)) >= 0.01)
    o = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))[0]
    for side in (-1.0, 1.0):
        rows, coefficients = _gram_plant(s, entry, o, side)
        assert rows == ([] if side < 0 else [1])
        assert np.max(np.abs(coefficients - s)) <= 1e-14


@SETTINGS
@given(st.floats(0.1, PI / 2), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from([-1, 1]))
def test_g2_imaginary_residue_decided_at_invariant_tol_property(c1, f2, f3, sign):
    # a common phase e^{i phi} on the z of a drawn point turns G2 into e^{4i phi} G2;
    # phi puts Im G2 at sign times the tol times (1 -+ EPS), and the z route's
    # _real_g2 accepts the first plant and refuses the second
    point = [c1, f2 * c1, f3 * f2 * c1]
    g2 = invariants_from_point(point)[1]
    assume(abs(g2) >= 0.1)
    z = z_from_point(point)
    for side in (-1.0, 1.0):
        phi = np.arcsin(sign * DEFAULT_TOL.invariant_tol * (1 + side * EPS) / g2) / 4
        if side < 0:
            assert twoqubit.invariants_from_z(z * np.exp(1j * phi))[1] == pytest.approx(g2)
        else:
            with pytest.raises(twoqubit.NumericalError,
                               match=r"^G2 imaginary residue at rows \[0\] .+ \(invariant_tol\)$"):
                twoqubit.invariants_from_z(z * np.exp(1j * phi))
