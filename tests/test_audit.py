import numpy as np

import twoqubit.audit as audit_mod
import twoqubit.canonical as canonical_mod
import twoqubit.invariants as invariants_mod
from twoqubit.audit import HAAR_PE_FRACTION, pe_fraction_tolerance, run_audit
from twoqubit.canonical import ClassData
from twoqubit.sampling import haar_unitary


def test_pe_band_is_four_binomial_sigma():
    p = HAAR_PE_FRACTION
    for n in (1, 300, 1000, 100000):
        assert np.isclose(pe_fraction_tolerance(n), 4 * np.sqrt(p * (1 - p) / n))
    assert round(pe_fraction_tolerance(1000), 4) == 0.0453
    assert round(pe_fraction_tolerance(100000), 4) == 0.0045


def test_pe_band_passes_the_tested_seeds():
    for samples, seed in ((300, 42), (1000, 42), (5, 1), (1, 7)):
        check = run_audit(samples, seed).checks[-1]
        assert check.name == "perfect-entangler fraction" and check.passed, check.detail


def test_bell_matrix_formed_once_per_gate_set(monkeypatch):
    # once for the plain gates (extraction and matrix-route invariants share
    # it) and once for the dressed gates
    calls = []
    original = invariants_mod.bell_matrix_array

    def counted(u):
        calls.append(u.shape)
        return original(u)

    monkeypatch.setattr(invariants_mod, "bell_matrix_array", counted)
    monkeypatch.setattr(canonical_mod, "bell_matrix_array", counted)
    assert run_audit(50, 3).passed
    assert calls == [(50, 4, 4), (50, 4, 4)]


def test_schmidt_count_of_three_fails_with_first_row(monkeypatch):
    original = audit_mod.schmidt_coefficients_array
    bad = np.array([0.8, 0.4, 0.4, 1e-20]) / np.linalg.norm([0.8, 0.4, 0.4])

    def planted(u):
        # planted in the plain and the dressed set alike, so only the
        # Schmidt-number check sees it
        s = original(u)
        s[[7, 12]] = bad
        return s

    monkeypatch.setattr(audit_mod, "schmidt_coefficients_array", planted)
    monkeypatch.setattr(canonical_mod, "schmidt_coefficients_array", planted)
    result = run_audit(20, 5)
    check = result.checks[2]
    assert not check.passed
    assert check.detail == "histogram {3: 2, 4: 18}"
    assert result.checks[1].passed
    assert result.counterexample.name == "sample_7"


def _density_integral(tets, n: int, integrand=None) -> float:
    """Integral of the Haar chamber density, times ``integrand`` of the
    points (..., 3) if given, over tetrahedra (4, 3), by an n^3
    Gauss-Legendre rule on the unit cube, Duffy-mapped to each one."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = (x + 1) / 2, w / 2
    u, v, t = np.meshgrid(x, x, x, indexing="ij")
    weight = (w[:, None, None] * w[None, :, None] * w[None, None, :]) * u**2 * v
    bary = np.stack([u * (1 - v), u * v * (1 - t), u * v * t], axis=-1)
    total = 0.0
    for tet in tets:
        edges = tet[1:] - tet[0]
        points = tet[0] + bary @ edges
        c1, c2, c3 = np.moveaxis(points, -1, 0)
        density = np.abs(np.sin(c2 - c3) * np.sin(c1 - c2) * np.sin(c1 + c3)
                         * np.sin(c1 - c3) * np.sin(c1 + c2) * np.sin(c2 + c3))
        if integrand is not None:
            density = density * integrand(points)
        total += abs(np.linalg.det(edges)) * np.sum(weight * density)
    return total


def test_haar_pe_fraction_is_the_density_integral():
    from twoqubit.canonical import A1, A2, A3, L, M, N, O, P, Q

    chamber = [np.array([O, A1, A2, A3])]
    pe_tets = [np.array(t) for t in ((L, M, N, A2), (L, N, P, A2), (L, P, Q, A2))]

    def volume(tets):
        return sum(abs(np.linalg.det(t[1:] - t[0])) / 6 for t in tets)

    assert abs(volume(pe_tets) / volume(chamber) - 0.5) <= 1e-12
    ratio = _density_integral(pe_tets, 16) / _density_integral(chamber, 16)
    assert abs(ratio - HAAR_PE_FRACTION) <= 1e-9


# Haar mean of the Schmidt strength: its integral against the chamber density,
# over the density's integral; the n = 16, 24, 32 and 48 rules agree to 4e-13
HAAR_MEAN_STRENGTH = 1.555169029059


def _strength(points):
    return ClassData.from_points(points).strength


def test_haar_mean_strength_is_the_density_integral():
    from twoqubit.canonical import A1, A2, A3, O

    chamber = [np.array([O, A1, A2, A3])]
    mean = _density_integral(chamber, 16, _strength) / _density_integral(chamber, 16)
    assert abs(mean - HAAR_MEAN_STRENGTH) <= 1e-9


def test_haar_sample_mean_strength_within_four_standard_errors():
    # a sampler that skips the rephasing of R's diagonal in haar_unitary is
    # not Haar, and lands about 8 standard errors low here
    strength = ClassData.from_unitaries(haar_unitary(np.random.default_rng(5), 4, 50000)).strength
    error = strength.std(ddof=1) / np.sqrt(strength.size)
    assert abs(strength.mean() - HAAR_MEAN_STRENGTH) <= 4 * error
