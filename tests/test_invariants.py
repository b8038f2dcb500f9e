import itertools
import re

import numpy as np
import pytest

from twoqubit import (
    Gate,
    ValidationError,
    canonical_point,
    catalog,
    invariants_from_point,
    invariants_from_unitary,
    invariants_from_z,
    locally_equivalent,
    make_gate,
    z_from_point,
)
from twoqubit.canonical import canonical_points_array
from twoqubit.invariants import (
    invariants_from_point_array,
    invariants_from_unitary_array,
    invariants_from_z_array,
)
from twoqubit.sampling import haar_unitary, random_local_unitary
from twoqubit.schmidt import z_from_point_array

SQ2 = 1 / np.sqrt(2)


def _close(inv, g1, g2, tol=1e-12):
    return abs(inv[0] - g1) <= tol and abs(inv[1] - g2) <= tol


@pytest.mark.parametrize(
    "name,g1,g2",
    [
        ("identity", 1.0, 3.0),
        ("cnot", 0.0, 1.0),
        ("swap", -1.0, -3.0),
        ("dcnot", 0.0, -1.0),
    ],
)
def test_invariants_from_unitary_named(name, g1, g2):
    assert _close(invariants_from_unitary(catalog(name)), g1, g2)


def test_invariants_insensitive_to_global_phase(rng):
    g = Gate(haar_unitary(rng))
    phased = make_gate(np.exp(0.37j) * g.matrix)
    (a1, a2), (b1, b2) = invariants_from_unitary(g), invariants_from_unitary(phased)
    assert abs(a1 - b1) < 1e-12 and abs(a2 - b2) < 1e-12


@pytest.mark.parametrize(
    "c,g1,g2",
    [
        ((0.0, 0.0, 0.0), 1.0, 3.0),
        ((np.pi / 2, 0.0, 0.0), 0.0, 1.0),
        ((np.pi / 2, np.pi / 2, 0.0), 0.0, -1.0),
        ((np.pi / 2, np.pi / 2, np.pi / 2), -1.0, -3.0),
        ((np.pi / 4, np.pi / 4, np.pi / 4), 0.25j, 0.0),
    ],
)
def test_invariants_from_point_values(c, g1, g2):
    assert _close(invariants_from_point(c), g1, g2)


def test_controlled_unitary_invariant_relation():
    # on the [theta, 0, 0] line: G1 = cos^2(theta), G2 = 2 G1 + 1
    for theta in np.linspace(0, np.pi, 17):
        g1, g2 = invariants_from_point((theta, 0.0, 0.0))
        assert abs(g1 - np.cos(theta) ** 2) < 1e-12
        assert abs(g2 - (2 * np.cos(theta) ** 2 + 1)) < 1e-12


@pytest.mark.parametrize(
    "z,g1,g2",
    [
        ((1, 0, 0, 0), 1.0, 3.0),
        ((SQ2, 1j * SQ2, 0, 0), 0.0, 1.0),
    ],
)
def test_invariants_from_z_values(z, g1, g2):
    assert _close(invariants_from_z(np.array(z, dtype=complex)), g1, g2)


def test_invariants_from_z_swap_class():
    z = z_from_point((np.pi / 2, np.pi / 2, np.pi / 2))
    assert np.allclose(np.abs(z), 0.5, atol=1e-15)
    assert _close(invariants_from_z(z), -1.0, -3.0)


def test_invariants_from_z_rejects_unnormalized():
    with pytest.raises(ValidationError):
        invariants_from_z(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        invariants_from_z(np.array([np.nan, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("shape", [(5,), (2, 2), (1, 4)])
def test_invariants_from_z_names_the_shape_it_refuses(shape):
    message = f"coefficient row [z1, z2, z3, z4], got shape {shape}: array("
    with pytest.raises(ValidationError, match=re.escape(message)):
        invariants_from_z(np.full(shape, 0.5))


def test_invariants_from_z_flags_imaginary_g2():
    from twoqubit import NumericalError

    # normalized but unphysical coefficients leave G2 with a large
    # imaginary part, which must be refused rather than silently dropped
    z = np.array([0.9, 0.3j, 0.3, 0.1 + 0.1j])
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    with pytest.raises(NumericalError, match="G2 imaginary"):
        invariants_from_z(z)


def test_z_permutation_invariance(rng):
    c = rng.uniform(0, np.pi, 3)
    z = z_from_point(c)
    base = invariants_from_z(z)
    for perm in itertools.permutations(range(4)):
        inv = invariants_from_z(z[list(perm)])
        assert _close(inv, *base)


def test_z_phase_orbit(rng):
    # invariance holds for even numbers of sign flips and for all-four
    # +/- i phases with an even count of -i (the product of phases is 1)
    c = rng.uniform(0.2, 1.2, 3)
    z = z_from_point(c)
    base = invariants_from_z(z)

    flips = np.array([-1, -1, 1, 1], dtype=complex)
    inv = invariants_from_z(z * flips)
    assert _close(inv, *base)

    inv = invariants_from_z(-z)
    assert _close(inv, *base)

    phases = np.array([1j, 1j, -1j, -1j])
    inv = invariants_from_z(z * phases)
    assert _close(inv, *base)

    phases = np.array([1j, -1j, 1j, -1j])
    inv = invariants_from_z(z * phases)
    assert _close(inv, *base)


def test_z_single_negation_changes_g2():
    # negative control: one sign flip alone flips the 24 prod(z) term, so
    # it is NOT an invariance when no coefficient vanishes
    z = z_from_point((np.pi / 2, np.pi / 2, np.pi / 2))
    base = invariants_from_z(z)
    flipped = z.copy()
    flipped[0] = -flipped[0]
    inv = invariants_from_z(flipped)
    assert abs(inv[0] - base[0]) < 1e-12
    assert abs(inv[1] - base[1]) > 1.0


def test_three_route_consistency(rng):
    u = haar_unitary(rng, 4, 200)
    for i in range(200):
        g = make_gate(u[i])
        inv_u = invariants_from_unitary(g)
        c = canonical_point(g)
        inv_c = invariants_from_point(c)
        inv_z = invariants_from_z(z_from_point(c))
        for a, b in itertools.combinations([inv_u, inv_c, inv_z], 2):
            assert _close(a, *b, tol=1e-8)


def test_every_array_kernel_returns_complex_g1_and_real_g2(rng):
    u = haar_unitary(rng, 4, 20)
    points = canonical_points_array(u)
    for g1, g2 in (invariants_from_unitary_array(u), invariants_from_point_array(points),
                   invariants_from_z_array(z_from_point_array(points))):
        assert g1.dtype == complex and g2.dtype == float and g2.shape == (20,)


def test_local_invariance(rng):
    for _ in range(100):
        g = Gate(haar_unitary(rng))
        dressed = make_gate(
            random_local_unitary(rng) @ g.matrix @ random_local_unitary(rng)
        )
        a, b = invariants_from_unitary(g), invariants_from_unitary(dressed)
        assert _close(a, *b, tol=1e-9)


def test_invariant_bounds(rng):
    # |G1| <= 1.25 and G2 real on unitary input
    for _ in range(200):
        g1, g2 = invariants_from_unitary(Gate(haar_unitary(rng)))
        assert abs(g1) <= 1.25
        assert isinstance(g1, complex) and isinstance(g2, float)


def test_locally_equivalent_pairs(rng):
    cnot = catalog("cnot")
    dressed = make_gate(
        random_local_unitary(rng) @ cnot.matrix @ random_local_unitary(rng)
    )
    assert locally_equivalent(cnot, dressed)
    assert locally_equivalent(cnot, catalog("cz"))
    assert not locally_equivalent(cnot, catalog("swap"))
    g = Gate(haar_unitary(rng))
    assert locally_equivalent(g, g)
