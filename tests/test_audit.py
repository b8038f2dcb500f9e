import numpy as np

import twoqubit.audit as audit_mod
import twoqubit.canonical as canonical_mod
import twoqubit.invariants as invariants_mod
from twoqubit.audit import HAAR_PE_FRACTION, pe_fraction_tolerance, run_audit


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
