import re
import tracemalloc

import numpy as np
import pytest

import twoqubit.audit as audit_mod
import twoqubit.canonical as canonical_mod
import twoqubit.invariants as invariants_mod
from twoqubit.audit import HAAR_PE_FRACTION, pe_fraction_tolerance, run_audit
from twoqubit.canonical import ClassData
from twoqubit.edges import sweep, verify_tables, write_edge_svg
from twoqubit.errors import ExtractionError, NumericalError
from twoqubit.invariants import (
    invariants_from_point_array,
    invariants_from_unitary_array,
    invariants_from_z_array,
)
from twoqubit.linops import CHUNK, DEFAULT_TOL, Check
from twoqubit.sampling import haar_unitary, random_local_unitary
from twoqubit.schmidt import schmidt_coefficients_array, schmidt_numbers_array, z_from_point_array

from helpers import edge_columns


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
        assert check.where is None


def test_fraction_failure_names_no_row_and_no_counterexample(monkeypatch):
    # the fraction belongs to the whole draw: no one gate breaks it
    monkeypatch.setattr(audit_mod, "HAAR_PE_FRACTION", 0.5)
    report = run_audit(3000, 1)
    check = report.checks[3]
    assert not check.passed and check.where is None
    assert check.detail == "fraction 0.8547 (expected 0.5000 +/- 0.0365)"
    assert all(c.passed for c in report.checks[:3])
    assert not report.passed and report.counterexample is None


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


def test_one_gram_eigvalsh_per_chunk_and_no_svd_for_haar_draws(monkeypatch):
    # the dressed gates' Gram eigenvalues are the only ones: the plain gates' s
    # is |z(c)|, and no Haar draw here has a coefficient below svd_fallback_tol
    calls = {"eigvalsh": [], "svd": []}
    for name in calls:
        def counted(a, *args, _true=getattr(np.linalg, name), _calls=calls[name], **kwargs):
            _calls.append(a.shape)
            return _true(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert run_audit(CHUNK + 20, 3).passed
    assert calls == {"eigvalsh": [(CHUNK, 4, 4), (20, 4, 4)], "svd": []}


def test_each_kernel_runs_once_per_chunk(monkeypatch):
    # the point and z routes read the (G1, G2) and z(c) that the extraction
    # computed; every module's name for a kernel is counted
    import twoqubit.schmidt as schmidt_mod

    calls = {}
    for name in ("invariants_from_point_array", "z_from_point_array", "invariants_from_z_array",
                 "invariants_from_unitary_array", "schmidt_coefficients_array"):
        calls[name] = []
        for mod in (audit_mod, canonical_mod, invariants_mod, schmidt_mod):
            if hasattr(mod, name):
                def counted(x, _true=getattr(mod, name), _calls=calls[name]):
                    _calls.append(len(x))
                    return _true(x)
                monkeypatch.setattr(mod, name, counted)
    assert run_audit(CHUNK + 20, 3).passed
    assert calls == dict.fromkeys(calls, [CHUNK, 20])


def _plant_count_three(monkeypatch, rows, size=None):
    """Give the dressed gates' SVD coefficients a Schmidt number of 3 at ``rows``
    of every set of ``size`` rows (any size if None), where the plain gates' is
    4; other inputs, the coefficients themselves, which the route and local
    checks read, and the plain gates' histogram stay as they are, so only the
    Schmidt-number check sees it, and only if it reads the dressed SVD."""
    true_svd, true_numbers, dressed = (audit_mod.schmidt_coefficients_array,
                                       audit_mod.schmidt_numbers_array, [])

    def svd(u):
        dressed.append(true_svd(u))
        return dressed[-1]

    def planted(s):
        n = true_numbers(s)
        if any(s is d for d in dressed) and (size is None or len(s) == size):
            n[rows] = 3
        return n

    monkeypatch.setattr(audit_mod, "schmidt_coefficients_array", svd)
    monkeypatch.setattr(audit_mod, "schmidt_numbers_array", planted)


def test_schmidt_count_of_three_fails_with_first_row(monkeypatch):
    _plant_count_three(monkeypatch, [7, 12])
    result = run_audit(20, 5)
    check = result.checks[2]
    assert not check.passed and check.value == 2
    assert check.detail == "histogram {4: 20}"
    assert result.checks[1].passed
    assert check.where == 7
    gates, _ = _one_shot_checks(20, 5)
    assert np.array_equal(result.counterexample, gates[7])


def _one_shot_checks(samples: int, seed: int):
    """The audit's checks as one ClassData of all the draws: each chunk's
    gates, left and right dressing, in run_audit's order, concatenated."""
    rng = np.random.default_rng(seed)
    sizes = [min(CHUNK, samples - start) for start in range(0, samples, CHUNK)]
    draws = [(haar_unitary(rng, 4, n), random_local_unitary(rng, n), random_local_unitary(rng, n))
             for n in sizes]
    gates, k_left, k_right = (np.concatenate(part) for part in zip(*draws))
    plain = ClassData.from_unitaries(gates)
    g1_c, g2_c = invariants_from_point_array(plain.points)
    g1_z, g2_z = invariants_from_z_array(z_from_point_array(plain.points))
    pairs = ((plain.g1, g1_c), (plain.g1, g1_z), (g1_c, g1_z),
             (plain.g2, g2_c), (plain.g2, g2_z), (g2_c, g2_z))
    route_dev = np.max([np.abs(a - b) for a, b in pairs], axis=0)
    dressed = k_left @ gates @ k_right
    s_dressed = schmidt_coefficients_array(dressed)
    g1_d, g2_d = invariants_from_unitary_array(dressed)
    local_dev = np.maximum(
        np.max(np.abs(plain.s - s_dressed), axis=-1),
        np.maximum(np.abs(plain.g1 - g1_d), np.abs(plain.g2 - g2_d)))
    numbers = plain.schmidt_number
    bad = np.flatnonzero(numbers != schmidt_numbers_array(s_dressed))
    histogram = dict(zip(*(a.tolist() for a in np.unique(numbers, return_counts=True))))
    fraction = float(np.mean(plain.is_pe))
    band = pe_fraction_tolerance(samples)
    return gates, (
        Check.worst_row("three-route invariant consistency", route_dev, "invariant_tol"),
        Check.worst_row("local invariance of schmidt coefficients", local_dev, "invariant_tol"),
        Check("schmidt number unchanged by local operations", float(bad.size), 0.0,
              int(bad[0]) if bad.size else None, f"histogram {histogram}"),
        Check("perfect-entangler fraction", abs(fraction - HAAR_PE_FRACTION), band, None,
              f"fraction {fraction:.4f} (expected {HAAR_PE_FRACTION:.4f} +/- {band:.4f})"),
    )


def test_chunked_audit_equals_the_one_shot_checks():
    samples = 2 * CHUNK + 17
    _, expected = _one_shot_checks(samples, 29)
    report = run_audit(samples, 29)
    assert report.checks == expected
    assert report.passed and report.counterexample is None


def test_fault_in_the_second_chunk_names_its_global_row(monkeypatch):
    # the second chunk holds the last 20 samples
    _plant_count_three(monkeypatch, [7, 12], size=20)
    result = run_audit(CHUNK + 20, 5)
    check = result.checks[2]
    assert not check.passed and check.where == CHUNK + 7 and check.value == 2
    assert check.detail == f"histogram {{4: {CHUNK + 20}}}"
    gates, _ = _one_shot_checks(CHUNK + 20, 5)
    assert np.array_equal(result.counterexample, gates[CHUNK + 7])


def test_first_nan_over_the_chunks_is_the_worst_row(monkeypatch):
    original = audit_mod.schmidt_coefficients_array
    calls = []

    def planted(u):
        # the dressed coefficients only, in the second and third chunks
        s = original(u)
        calls.append(len(u))
        if len(calls) in (2, 3):
            s[len(calls)] = np.nan
        return s

    monkeypatch.setattr(audit_mod, "schmidt_coefficients_array", planted)
    result = run_audit(3 * CHUNK, 8)
    check = result.checks[1]
    assert np.isnan(check.value) and check.where == CHUNK + 2
    gates, _ = _one_shot_checks(3 * CHUNK, 8)
    assert np.array_equal(result.counterexample, gates[CHUNK + 2])


def _shift_g1(monkeypatch, row, shift):
    """Shift G1 at ``row`` of the second chunk, which holds the last 20 samples;
    its plain gates alone pass through canonical's (G1, G2) kernel."""
    true = canonical_mod.invariants_from_bell_array

    def planted(det, m):
        g1, g2 = true(det, m)
        return g1 + shift * (np.arange(len(det)) == row) * (len(det) == 20), g2

    monkeypatch.setattr(canonical_mod, "invariants_from_bell_array", planted)


def _shift_g2(monkeypatch, row, shift):
    """Add ``shift`` to G2 at ``row`` on the first G2 residue refusal of 20
    rows, that of the second chunk's plain gates."""
    true, calls = invariants_mod._real_g2, []

    def planted(g2):
        if len(g2) == 20 and not calls:
            calls.append(g2)
            g2 = g2 + shift * (np.arange(20) == row)
        return true(g2)

    monkeypatch.setattr(invariants_mod, "_real_g2", planted)


@pytest.mark.parametrize(
    "plant, row, shift, error, what, field",
    [(_shift_g1, 7, 0.1, ExtractionError, "canonical point misses the local invariants",
      "invariant_tol"),
     (_shift_g2, 12, 1e-6j, NumericalError, "G2 imaginary residue", "invariant_tol")],
    ids=["extraction", "g2-imaginary-residue"],
)
def test_refusal_in_the_second_chunk_names_its_samples(monkeypatch, plant, row, shift,
                                                        error, what, field):
    plant(monkeypatch, row, shift)
    with pytest.raises(error) as info:
        run_audit(CHUNK + 20, 5)
    assert type(info.value) is error
    tol = getattr(DEFAULT_TOL, field)
    # the rows stay the chunk's own; the prefix names its global samples
    match = re.fullmatch(
        rf"audit samples {CHUNK} to {CHUNK + 19}: {re.escape(what)} at rows "
        rf"\[{row}\] \(1 in all\); worst residual (\S+) exceeds tol {re.escape(f'{tol:g}')} "
        rf"\({field}\)",
        str(info.value),
    )
    assert match, str(info.value)
    assert float(match.group(1)) == pytest.approx(abs(shift), rel=1e-3)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_audit_memory_does_not_grow_with_samples():
    small, large = _traced_peak(run_audit, 2 * CHUNK, 13), _traced_peak(run_audit, 8 * CHUNK, 13)
    assert large <= 1.1 * small, (small, large)


def test_sweep_memory_does_not_grow_with_rows(tmp_path):
    # the command keeps the grid and its strengths, 16 B per row; every other
    # column lives for one chunk
    out = tmp_path / "pn.csv"
    small, large = (_traced_peak(sweep, "PN", n, out) for n in (2 * CHUNK, 16 * CHUNK))
    assert (large - small) / (14 * CHUNK) <= 24, (small, large)


def test_verify_tables_memory_grows_only_with_the_grid():
    # one edge's grid, 8 B per row, is held whole; the rest lives for one chunk
    small, large = (_traced_peak(verify_tables, n) for n in (2 * CHUNK + 1, 16 * CHUNK + 1))
    assert (large - small) / (14 * CHUNK) <= 16, (small, large)


def test_edge_svg_memory_does_not_grow_with_rows(tmp_path):
    # each chunk's points are written as they are formatted, so neither the
    # polyline text nor the document is held; the caller holds the columns
    out = tmp_path / "pn.svg"
    small, large = (_traced_peak(write_edge_svg, "PN", grid, data.strength, out)
                    for grid, data in (edge_columns("PN", n) for n in (2 * CHUNK, 16 * CHUNK)))
    assert (large - small) / (14 * CHUNK) <= 2, (small, large)


def test_benchmark_audit_memory():
    # the 3000-sample audit of the benchmark's audit workload: three chunks
    assert _traced_peak(run_audit, 3000, 1) <= 4e6


def test_sweep_chunk_memory(tmp_path):
    # one chunk and a short tail of CSV rows: the digit renderer's temporaries,
    # template list and the template text as str and as bytes read 1.29 MB
    # (1.41 MB with the template table built in the same call), where %.15g
    # alone read 0.93 MB
    assert _traced_peak(sweep, "PN", 1030, tmp_path / "pn.csv") <= 1.6e6


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
    assert abs(ratio - HAAR_PE_FRACTION) <= 1e-14


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
    # a sampler whose QR leaves R's diagonal complex (LAPACK's, unrephased) is
    # not Haar, and lands about 8 standard errors low here
    strength = ClassData.from_unitaries(haar_unitary(np.random.default_rng(5), 4, 50000)).strength
    error = strength.std(ddof=1) / np.sqrt(strength.size)
    assert abs(strength.mean() - HAAR_MEAN_STRENGTH) <= 4 * error
