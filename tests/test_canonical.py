import numpy as np
import pytest

import twoqubit.canonical as canonical_mod
import twoqubit.invariants as invariants_mod
import twoqubit.linops as linops
from twoqubit import (
    ExtractionError,
    NumericalError,
    canonical_gate,
    canonical_point,
    catalog,
    catalog_names,
    in_weyl_chamber,
    invariants_from_point,
    invariants_from_unitary,
    is_perfect_entangler,
    locally_equivalent,
    make_gate,
    weyl_reduce,
)
from twoqubit.canonical import (
    A1,
    A2,
    A3,
    L,
    M,
    N,
    O,
    P,
    PE_HALFSPACES,
    POLYHEDRON_VERTICES,
    Q,
    TETRAHEDRON_VERTICES,
    ClassData,
    canonical_points_array,
    is_perfect_entangler_array,
    weyl_reduce_array,
)
from twoqubit.edges import edge_names
from twoqubit.invariants import invariants_from_point_array
from twoqubit.schmidt import schmidt_coefficients_array, schmidt_numbers_array
from twoqubit.sampling import haar_unitary, random_local_unitary

from helpers import edge_columns

PI = np.pi


def _reduced_into_chamber(c) -> bool:
    """in_weyl_chamber, and every chamber face met within 1e-12, the bound a
    Weyl reduction keeps, tighter than the facet_tol slack of in_weyl_chamber."""
    a, b = PE_HALFSPACES
    faces = canonical_mod._CHAMBER_FACES
    return in_weyl_chamber(c) and bool(np.all(a[faces] @ c - b[faces] <= 1e-12))


def test_vertices_are_edge_midpoints():
    pairs = {
        "L": (O, A1),
        "M": (A2, A1),
        "N": (A1, A3),
        "P": (O, A3),
        "Q": (O, A2),
    }
    for name, (a, b) in pairs.items():
        mid = (a + b) / 2
        assert np.allclose(POLYHEDRON_VERTICES[name], mid, atol=1e-15)


def test_halfspace_derivation():
    # every vertex satisfies every half-space; incidence counts match the
    # 7-facet hull (base quad has 4 vertices, the six triangles 3 each)
    a, b = PE_HALFSPACES
    vertices = np.array(list(POLYHEDRON_VERTICES.values()))
    values = vertices @ a.T - b
    assert np.all(values <= 1e-12)
    on_facet = np.abs(values) <= 1e-12
    assert sorted(on_facet.sum(axis=0).tolist()) == [3, 3, 3, 3, 3, 3, 4]
    assert sorted(on_facet.sum(axis=1).tolist()) == [3, 3, 4, 4, 4, 4]


def _in_hull_by_tetrahedra(point):
    # independent membership oracle: the polyhedron splits into the
    # tetrahedra (L,M,N,A2), (L,N,P,A2), (L,P,Q,A2); solve barycentric
    # coordinates in each
    tets = [(L, M, N, A2), (L, N, P, A2), (L, P, Q, A2)]
    for tet in tets:
        vs = np.array(tet)
        mat = np.vstack([vs.T, np.ones(4)])
        rhs = np.append(np.asarray(point, dtype=float), 1.0)
        coords = np.linalg.solve(mat, rhs)
        if np.all(coords >= -1e-9):
            return True
    return False


def test_halfspaces_agree_with_tetrahedron_oracle(rng):
    pts = rng.uniform(0, PI, (2000, 3))
    reduced = weyl_reduce_array(pts)
    a, b = PE_HALFSPACES
    for c in reduced[:500]:
        mine = bool(np.all(c @ a.T <= b + 1e-10))
        assert mine == _in_hull_by_tetrahedra(c)


def test_weyl_reduce_mirror_identity():
    # [theta, pi, 0] is the class of [pi - theta, 0, 0]; for theta > pi/2
    # the reduced representative is literally [pi - theta, 0, 0]
    theta = 2 * PI / 3
    reduced = weyl_reduce((theta, PI, 0.0))
    assert np.allclose(tuple(reduced), (PI - theta, 0.0, 0.0), atol=1e-12)
    # for theta < pi/2 the representative keeps theta; same class either way
    theta = 0.3
    reduced = weyl_reduce((theta, PI, 0.0))
    assert np.allclose(tuple(reduced), (theta, 0.0, 0.0), atol=1e-12)
    a1, a2 = invariants_from_point((theta, 0.0, 0.0))
    b1, b2 = invariants_from_point((PI - theta, 0.0, 0.0))
    assert abs(a1 - b1) < 1e-12 and abs(a2 - b2) < 1e-12


def test_weyl_reduce_permutation():
    assert np.allclose(tuple(weyl_reduce((0.0, PI / 2, 0.0))), (PI / 2, 0, 0), atol=1e-15)


def test_weyl_reduce_fixed_point():
    assert np.allclose(
        tuple(weyl_reduce((PI / 2, PI / 2, PI / 2))), (PI / 2, PI / 2, PI / 2), atol=1e-15
    )


def test_weyl_reduce_lattice_points():
    # exact multiples of pi, signed zeros and values straddling the period
    # boundary must reduce into the chamber with invariants intact
    import itertools

    vals = [0.0, -0.0, PI, -PI, 2 * PI, PI / 2, -PI / 2, 1e-20, -1e-20, 3 * PI / 2]
    for c in itertools.product(vals, repeat=3):
        triple = np.array(c)
        reduced = weyl_reduce_array(triple)
        assert _reduced_into_chamber(reduced), c
        g1a, g2a = invariants_from_point_array(triple)
        g1b, g2b = invariants_from_point_array(reduced)
        assert max(abs(g1a - g1b), abs(g2a - g2b)) <= 1e-12, c


def test_weyl_reduce_idempotent_and_invariant_preserving(rng):
    c = rng.uniform(-2 * PI, 2 * PI, (500, 3))
    reduced = weyl_reduce_array(c)
    again = weyl_reduce_array(reduced)
    assert np.max(np.abs(reduced - again)) == 0.0
    g1a, g2a = invariants_from_point_array(c)
    g1b, g2b = invariants_from_point_array(reduced)
    assert np.max(np.abs(g1a - g1b)) <= 1e-12
    assert np.max(np.abs(g2a - g2b)) <= 1e-12
    for row in reduced[:100]:
        assert _reduced_into_chamber(row)


def test_chamber_membership_rules():
    assert in_weyl_chamber((PI / 2, PI / 4, PI / 8))
    assert not in_weyl_chamber((PI / 4, PI / 2, 0.0))  # unordered
    assert not in_weyl_chamber((3 * PI / 4, PI / 2, 0.1))  # c1 + c2 > pi
    assert not in_weyl_chamber((3 * PI / 4, PI / 8, 0.0))  # base needs c1 <= pi/2
    assert in_weyl_chamber((3 * PI / 4, PI / 8, 0.1))


@pytest.mark.parametrize(
    "name,expected",
    [
        ("identity", (0, 0, 0)),
        ("cnot", (PI / 2, 0, 0)),
        ("swap", (PI / 2, PI / 2, PI / 2)),
    ],
)
def test_canonical_point_named(name, expected):
    assert np.allclose(tuple(canonical_point(catalog(name))), expected, atol=1e-9)


def test_canonical_point_dressed_dcnot(rng):
    g = make_gate(
        random_local_unitary(rng) @ catalog("dcnot") @ random_local_unitary(rng)
    )
    assert np.allclose(tuple(canonical_point(g)), (PI / 2, PI / 2, 0.0), atol=1e-7)


def test_canonical_point_round_trip(rng):
    u = haar_unitary(rng, 4, 300)
    points = canonical_points_array(u)
    g1u, g2u = invariants_from_point_array(points)
    for i in range(300):
        g1, g2 = invariants_from_unitary(make_gate(u[i]))
        assert abs(g1 - g1u[i]) <= 1e-8
        assert abs(g2 - g2u[i]) <= 1e-8
        assert _reduced_into_chamber(points[i])


def test_canonical_point_local_invariance(rng):
    for _ in range(60):
        g = haar_unitary(rng)
        c = canonical_point(g)
        dressed = make_gate(
            random_local_unitary(rng) @ g @ random_local_unitary(rng)
        )
        c2 = canonical_point(dressed)
        assert np.max(np.abs(c - c2)) <= 1e-7


def test_canonical_gate_round_trip(rng):
    for _ in range(50):
        c = weyl_reduce(rng.uniform(0, PI, 3))
        g = canonical_gate(c)
        back = canonical_point(g)
        assert np.max(np.abs(back - c)) <= 1e-7


def test_canonical_gate_matches_pauli_expansion(rng):
    from twoqubit.gates import IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z
    from twoqubit.linops import kron
    from twoqubit.schmidt import z_from_point

    c = rng.uniform(0, PI, 3)
    z = z_from_point(c)
    rebuilt = (
        z[0] * kron(IDENTITY2, IDENTITY2)
        + z[1] * kron(SIGMA_X, SIGMA_X)
        + z[2] * kron(SIGMA_Y, SIGMA_Y)
        + z[3] * kron(SIGMA_Z, SIGMA_Z)
    )
    assert np.allclose(canonical_gate(c), rebuilt, atol=1e-13)


def test_extraction_failure_reports_residual(monkeypatch):
    # a G1 twice the tolerance off the gate's own forces the failure path
    true = canonical_mod.invariants_from_bell_array

    def planted(det, m):
        g1, g2 = true(det, m)
        return g1 + 2 * linops.DEFAULT_TOL.invariant_tol, g2

    monkeypatch.setattr(canonical_mod, "invariants_from_bell_array", planted)
    with pytest.raises(ExtractionError, match=r"at rows \[0\] .+ residual"):
        canonical_points_array(haar_unitary(np.random.default_rng(3), 4))


@pytest.mark.parametrize(
    "point,expected",
    [
        ((PI / 2, 0.0, 0.0), True),  # CNOT: boundary counts as inside
        ((PI / 2, PI / 2, PI / 2), False),  # SWAP
        ((0.0, 0.0, 0.0), False),  # identity
        ((PI / 2, PI / 2, 0.0), True),  # DCNOT is a vertex
        ((PI / 2, PI / 4, PI / 8), True),  # interior
    ],
)
def test_is_perfect_entangler(point, expected):
    assert is_perfect_entangler(point) is expected


def test_is_perfect_entangler_reduces_first():
    # same class as CNOT, presented unreduced
    assert is_perfect_entangler((0.0, PI / 2, 0.0)) is True


def test_schmidt_number_line():
    # the mirror representative [3pi/4, 0, 0] of the controlled line counts too
    points = [(PI / 3, 0.0, 0.0), (PI / 2, PI / 2, 0.0), (0.0, 0.0, 0.0), (3 * PI / 4, 0.0, 0.0)]
    assert ClassData.from_points(points).controlled_unitary.tolist() == [True, False, True, True]
    assert ClassData.from_points(points[0]).controlled_unitary == np.True_


@pytest.mark.parametrize("c2", [3e-9, 1e-8, 3e-8])
def test_schmidt_number_line_agrees_with_schmidt_number(c2):
    # s3 = sin(c2/2) cos(1/2) is at most zero_tol = 1e-8 for c2 up to 2.28e-8:
    # K = 2 and a controlled unitary below that, K = 4 and none above
    point = (1.0, c2, 0.0)
    on_line = c2 < 2e-8
    for data in (ClassData.from_unitaries(canonical_gate(point)), ClassData.from_points(point)):
        assert data.schmidt_number == (2 if on_line else 4)
        assert data.controlled_unitary == on_line


def test_mirror_line_equivalence():
    theta = 0.7
    a = canonical_gate((theta, 0.0, 0.0))
    b = canonical_gate((PI - theta, 0.0, 0.0))
    assert locally_equivalent(a, b)


# Each vertex gate with a direction into the chamber. At the vertices and along
# the controlled-unitary line (G1, G2) move only quadratically with the point, so
# a rule that compares them within invariant_tol calls these displacements equivalent.
_VERTEX_GATES = [("identity", O, (1, 0, 0)), ("cnot", L, (0, 1, 0)), ("iswap", A2, (0, 0, 1)),
                 ("swap", A3, (0, 0, -1))]


def _dressed(rng, u):
    return np.exp(2j * PI * rng.random()) * random_local_unitary(rng) @ u @ random_local_unitary(rng)


@pytest.mark.parametrize("delta", [1e-7, 1e-6, 1e-5, 5e-5])
@pytest.mark.parametrize("name, point, direction",
                         _VERTEX_GATES + [(None, (1.1, 0.7, 0.3), (1, 1, 1))],
                         ids=["O", "L", "A2", "A3", "generic"])
def test_locally_equivalent_decides_at_first_order(name, point, direction, delta):
    rng = np.random.default_rng(int(delta * 1e8))
    u = canonical_gate(point) if name is None else catalog(name)
    assert np.allclose(canonical_point(u), point, atol=1e-14)
    moved = canonical_gate(np.add(point, delta * np.array(direction)))
    for _ in range(5):
        assert not locally_equivalent(_dressed(rng, u), _dressed(rng, moved))
        assert locally_equivalent(_dressed(rng, u), _dressed(rng, u))


def test_canonical_points_are_float_arrays():
    for c in (canonical_point(catalog("cnot")), weyl_reduce((0.1, 0.05, 0.0))):
        assert isinstance(c, np.ndarray)
        assert c.dtype == float and c.shape == (3,)
    assert np.array_equal(weyl_reduce((0.1, 0.05, 0.0)), [0.1, 0.05, 0.0])
    for vertex in (O, A1, A2, A3, L, M, N, P, Q):
        with pytest.raises(ValueError):
            vertex[0] = 1.0


def test_class_data_of_a_stack_equals_the_per_gate_records(monkeypatch):
    # catalog and Haar gates; dressed chamber and polyhedron vertices (degenerate
    # spectra); dressed near-line gates (the count retry); and a point whose c1 =
    # atan(_MIX) makes two phases collide in Re M + _MIX Im M (the eigvals fallback)
    rng = np.random.default_rng(31)
    haar = haar_unitary(rng, 4, 20)
    points = [*TETRAHEDRON_VERTICES.values(), *POLYHEDRON_VERTICES.values()]
    points += [[1.0, c2, 0.0] for c2 in (3e-9, 1e-8, 3e-8)]
    points += [[np.arctan(canonical_mod._MIX), 0.3, 0.1]]
    dressed = [random_local_unitary(rng) @ canonical_gate(c) @ random_local_unitary(rng)
               for c in points]
    u = np.concatenate([haar, [catalog(n) for n in catalog_names()], dressed])
    fallback_rows = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: fallback_rows.append(len(m)) or eigvals(m))
    stack = ClassData.from_unitaries(u)
    assert fallback_rows and fallback_rows[0] < len(u)
    assert (np.count_nonzero(stack.s > linops.DEFAULT_TOL.zero_tol, axis=-1) == 3).any()
    for i, row in enumerate(u):
        single = ClassData.from_unitaries(row)
        for column in ("points", "s", "strength", "schmidt_number", "is_pe"):
            assert np.array_equal(getattr(stack, column)[i], getattr(single, column)), (i, column)
        # a batched det(U) and M(U) may differ from a single one in the last ulp
        assert abs(stack.g1[i] - single.g1) <= 1e-14 and abs(stack.g2[i] - single.g2) <= 1e-14


def test_class_data_from_unitaries_columns():
    # Haar gates, dressed vertices and edge quarter points, and dressed points
    # displaced off the controlled-unitary line and off the vertices by delta
    rng = np.random.default_rng(32)
    vertices = [*TETRAHEDRON_VERTICES.values(), *POLYHEDRON_VERTICES.values()]
    special = vertices + [row for name in edge_names() for row in edge_columns(name, 5)[1].points]
    displaced = [
        point
        for delta in (1e-9, 1e-7, 1e-5, 1e-3)
        for point in [[theta, delta, 0.0] for theta in (0.3, 1.0, PI / 2, 2.5)]
        + [[theta, delta, delta / 2] for theta in (0.3, 1.0, PI / 2, 2.5)]
        + [v + delta * np.array([0.6, 0.3, 0.1]) for v in vertices]
    ]
    dressed = [np.exp(2j * PI * rng.uniform()) * random_local_unitary(rng)
               @ canonical_gate(c) @ random_local_unitary(rng) for c in special + displaced]
    u = np.concatenate([haar_unitary(rng, 4, 30), dressed])
    data = ClassData.from_unitaries(u)
    assert np.array_equal(data.points, canonical_points_array(u))
    # one s kernel, |z(c)| at the extracted points, and the realignment SVD agrees
    assert np.array_equal(data.s, ClassData.from_points(data.points).s)
    s_svd = schmidt_coefficients_array(u)
    assert np.max(np.abs(data.s - s_svd)) <= 1e-14
    assert np.array_equal(data.schmidt_number, schmidt_numbers_array(s_svd))
    assert set(data.schmidt_number.tolist()) == {1, 2, 4}
    assert np.array_equal(data.is_pe, is_perfect_entangler_array(data.points))
    assert data.g2.dtype == float and data.schmidt_number.shape == data.is_pe.shape == (len(u),)


def test_class_data_from_points_agrees_with_from_unitaries():
    rng = np.random.default_rng(33)
    points = weyl_reduce_array(rng.uniform(0, PI, (25, 3)))
    from_points = ClassData.from_points(points)
    from_gates = ClassData.from_unitaries([canonical_gate(c) for c in points])
    assert np.allclose(from_points.points, from_gates.points, atol=1e-9)
    assert np.allclose(from_points.s, from_gates.s, atol=1e-12)
    assert np.allclose(from_points.g1, from_gates.g1, atol=1e-12)
    assert np.allclose(from_points.g2, from_gates.g2, atol=1e-12)
    assert np.array_equal(from_points.schmidt_number, from_gates.schmidt_number)
    assert np.allclose(from_points.strength, from_gates.strength, atol=1e-9)


@pytest.mark.parametrize("n", [1, 7, 1024, 4097])
def test_class_data_of_a_point_stack_is_the_per_point_data_bit_for_bit(n):
    # the chamber's vertices and the base plane first, then any real triples
    rng = np.random.default_rng(n)
    special = list(TETRAHEDRON_VERTICES.values()) + list(POLYHEDRON_VERTICES.values())
    base = np.column_stack([rng.uniform(0, PI, 8), rng.uniform(0, PI / 2, 8), np.zeros(8)])
    points = np.concatenate([special, base, rng.uniform(-2 * PI, 2 * PI, (n, 3))])[:n]
    stack = ClassData.from_points(points)
    for k, point in enumerate(points):
        alone = ClassData.from_points(point)
        for field in ("points", "g1", "g2", "s", "strength"):
            row, own = getattr(stack, field)[k], np.asarray(getattr(alone, field))
            assert row.tobytes() == own.tobytes(), (field, k)


def test_class_data_refuses_imaginary_g2_residue(monkeypatch):
    true_real_g2 = invariants_mod._real_g2

    def residue(g2):
        return true_real_g2(g2 + 1e-6j * (np.arange(g2.size).reshape(g2.shape) == 2))

    monkeypatch.setattr(invariants_mod, "_real_g2", residue)
    u = haar_unitary(np.random.default_rng(34), 4, 5)
    with pytest.raises(NumericalError, match=r"imaginary residue at rows \[2\].*tol 1e-09"):
        ClassData.from_unitaries(u)
