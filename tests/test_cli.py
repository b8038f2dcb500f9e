import dataclasses
import json
import math
import re

import numpy as np
import pytest

from twoqubit import canonical_gate, catalog, catalog_names, gate_to_json_data, make_gate
from twoqubit.cli import analyze_gate, main, report_text
from twoqubit.sampling import haar_gate, random_local_unitary


def _fail_route_check(monkeypatch, audit_mod):
    # a zero invariant tolerance fails the three-route check on any sample
    zero = dataclasses.replace(audit_mod.DEFAULT_TOL, invariant_tol=0.0)
    monkeypatch.setattr(audit_mod, "DEFAULT_TOL", zero)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_cnot_text(capsys):
    code, out, err = run(capsys, "analyze", "cnot")
    assert code == 0
    assert "canonical point [rad]: [1.570796, 0.000000, 0.000000]" in out
    assert "schmidt coefficients: [0.707107, 0.707107, 0.000000, 0.000000]" in out
    assert "schmidt number: 2" in out
    assert "schmidt strength: 1.000000" in out
    assert "perfect entangler: yes" in out
    assert "controlled unitary: yes" in out


def test_analyze_swap_json(capsys):
    code, out, err = run(capsys, "analyze", "swap", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert np.allclose(payload["canonical_point"], [np.pi / 2] * 3, atol=1e-9)
    assert payload["schmidt_number"] == 4
    assert abs(payload["schmidt_strength"] - 2.0) <= 1e-12
    assert payload["perfect_entangler"] is False
    assert np.allclose(payload["schmidt_coefficients"], 0.5, atol=1e-9)


def test_analyze_identity(capsys):
    code, out, _ = run(capsys, "analyze", "identity")
    assert code == 0
    assert "schmidt number: 1" in out
    assert "schmidt strength: 0.000000" in out
    assert "perfect entangler: no" in out


def test_analyze_degrees(capsys):
    code, out, _ = run(capsys, "analyze", "cnot", "--degrees")
    assert code == 0
    assert "canonical point [deg]: [90.000000, 0.000000, 0.000000]" in out


def test_analyze_json_file(tmp_path, capsys, rng):
    g = haar_gate(rng)
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(gate_to_json_data(g)))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["source"] == str(path)


def test_analyze_unknown_source_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "not_a_gate")
    assert code == 1
    assert "catalog name" in err


def test_analyze_bad_json_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1


def test_analyze_non_utf8_file_exit_1(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"[\xff]")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: invalid JSON in") and err.count("\n") == 1


def test_analyze_integer_beyond_float_range_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    data = [[[10**400 if i == j else 0, 0] for j in range(4)] for i in range(4)]
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err == "error: matrix entries must be finite\n"


def test_analyze_json_has_no_signed_zero(capsys):
    code, out, _ = run(capsys, "analyze", "cnot", "--format", "json")
    payload = json.loads(out)
    values = [*payload["canonical_point"], *payload["g1"], payload["g2"]]
    assert code == 0 and 0.0 in values
    assert all(math.copysign(1.0, v) > 0 for v in values if v == 0.0)


def test_analyze_wrong_structure_exit_1(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text("[[1, 2], [3, 4]]")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1


def test_analyze_nonunitary_exit_2(tmp_path, capsys):
    data = [[[2.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    path = tmp_path / "stretch.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "unitary" in err


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_analyze_overflowing_matrix_exit_2(tmp_path, capsys, scale):
    # U^dag U overflows to NaN, which must fail the unitarity test
    path = tmp_path / "big.json"
    data = [[[scale if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: matrix is not unitary") and err.count("\n") == 1


@pytest.mark.parametrize("solver", ["svd", "eigh"])
def test_analyze_maps_linalg_error_to_exit_3(capsys, monkeypatch, solver):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, solver, no_convergence)
    code, out, err = run(capsys, "analyze", "cnot")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "did not converge" in err


def test_analyze_coefficients_are_the_realignment_singular_values(rng, capsys):
    from twoqubit.cli import _round15, report_json
    from twoqubit.schmidt import schmidt_coefficients_array

    gates = [catalog(name) for name in catalog_names()] + [haar_gate(rng) for _ in range(10)]
    for g in gates:
        s = schmidt_coefficients_array(g.matrix)
        data = analyze_gate(g)
        assert np.array_equal(data.s, s)
        payload = json.loads(report_json(data, "g"))
        assert payload["schmidt_coefficients"] == [_round15(v) for v in s]


def test_analyze_numerical_failure_exit_3(capsys, monkeypatch):
    import twoqubit.canonical as canonical_mod
    from twoqubit.errors import NumericalError

    def boom(matrices):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(canonical_mod, "bell_matrix_array", boom)
    code, _, err = run(capsys, "analyze", "cnot")
    assert code == 3
    assert "synthetic failure" in err


@pytest.mark.parametrize("c2", [1e-9, 3e-9, 1e-8, 3e-8])
def test_near_line_controlled_unitary_agrees_with_schmidt_number(c2):
    # near [theta, 0, 0] the report must not claim K = 2 and "not controlled"
    rng = np.random.default_rng(11)
    core = canonical_gate([1.0, c2, 0.0]).matrix
    gates = [core] + [
        random_local_unitary(rng) @ core @ random_local_unitary(rng) for _ in range(20)
    ]
    for matrix in gates:
        text = report_text(analyze_gate(make_gate(matrix)), "near-line")
        number = int(re.search(r"schmidt number: (\d)", text)[1])
        assert (number <= 2) == ("controlled unitary: yes" in text)


def test_controlled_unitary_flag_on_and_off_the_line():
    on = report_text(analyze_gate(canonical_gate([1.0, 0.0, 0.0])), "on")
    off = report_text(analyze_gate(canonical_gate([1.0, 0.1, 0.0])), "off")
    assert "controlled unitary: yes" in on and "controlled unitary: no" in off


def test_sweep_writes_csv_and_svg(tmp_path, capsys):
    out_path = tmp_path / "a2a3.csv"
    code, out, _ = run(
        capsys, "sweep", "A2A3", "--n", "11", "--out", str(out_path), "--svg"
    )
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().split("\n")
    assert len(lines) == 12
    for line in lines[1:]:
        assert line.split(",")[8] == "2"
    svg = (tmp_path / "a2a3.svg").read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert "strength range [2.000000, 2.000000]" in out


def test_sweep_pn_symmetric_summary(tmp_path, capsys):
    out_path = tmp_path / "pn.csv"
    code, out, _ = run(capsys, "sweep", "PN", "--n", "101", "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text().strip().split("\n")[1:]
    strengths = np.array([float(r.split(",")[8]) for r in rows])
    assert np.max(np.abs(strengths - strengths[::-1])) <= 1e-10
    assert strengths[0] == strengths.min()


def test_sweep_unknown_edge_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "XY", "--n", "5", "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_sweep_output_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "sweep", "LN", "--n", "33", "--out", str(a))[0] == 0
    assert run(capsys, "sweep", "LN", "--n", "33", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_unwritable_path_exit_4(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "x.csv"
    code, _, err = run(capsys, "sweep", "OA1", "--n", "5", "--out", str(target))
    assert code == 4


def test_sweep_evaluates_edge_once(tmp_path, capsys, monkeypatch):
    import twoqubit.cli as cli_mod
    import twoqubit.edges as edges_mod

    true_sweep = edges_mod.sweep
    results = []

    def counted(name, n_points):
        results.append(true_sweep(name, n_points))
        return results[-1]

    # bind the counter wherever the package holds the sweep function
    monkeypatch.setattr(edges_mod, "sweep", counted)
    monkeypatch.setattr(cli_mod, "sweep", counted)
    out_path = tmp_path / "pn.csv"
    code, _, _ = run(capsys, "sweep", "PN", "--n", "50", "--out", str(out_path), "--svg")
    assert code == 0
    assert len(results) == 1
    assert isinstance(results[0].strength, np.ndarray)


def test_verify_tables_pass(capsys):
    code, out, _ = run(capsys, "verify-tables", "--n", "97")
    assert code == 0
    assert "PASS: 15 edges" in out
    assert out.count("edge ") == 15


def test_verify_tables_endpoints(capsys):
    code, out, _ = run(capsys, "verify-tables", "--n", "2")
    assert code == 0


def test_verify_tables_fault_exit_5(capsys, monkeypatch):
    import twoqubit.canonical as canonical_mod

    true_fn = canonical_mod.z_from_point_array

    def faulted(c):
        z = true_fn(c).copy()
        z[..., 3] = -z[..., 3] * 1.01
        return z

    monkeypatch.setattr(canonical_mod, "z_from_point_array", faulted)
    code, out, err = run(capsys, "verify-tables", "--n", "9")
    assert code == 5
    assert "FAIL" in err


def test_audit_pass_and_determinism(capsys):
    code1, out1, _ = run(capsys, "audit", "--samples", "300", "--seed", "42")
    assert code1 == 0
    assert "audit: PASS" in out1
    code2, out2, _ = run(capsys, "audit", "--samples", "300", "--seed", "42")
    assert out1 == out2


def test_audit_single_sample(capsys):
    code, out, _ = run(capsys, "audit", "--samples", "1", "--seed", "7")
    assert code == 0


def test_audit_negative_seed_exit_2(capsys):
    code, out, err = run(capsys, "audit", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: seed must be non-negative\n"


def test_audit_counterexample_round_trip(tmp_path, capsys, rng, monkeypatch):
    # force a failure so the counterexample path runs, then re-analyze it
    import twoqubit.audit as audit_mod

    _fail_route_check(monkeypatch, audit_mod)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "audit", "--samples", "5", "--seed", "1")
    assert code == 6
    assert "audit: FAIL" in out
    dump = tmp_path / "audit_counterexample.json"
    assert dump.exists()
    code2, out2, _ = run(capsys, "analyze", str(dump), "--format", "json")
    assert code2 == 0
    assert json.loads(out2)["schmidt_number"] in (1, 2, 4)


def test_audit_counterexample_unwritable_exit_4(tmp_path, capsys, monkeypatch):
    import twoqubit.audit as audit_mod

    _fail_route_check(monkeypatch, audit_mod)
    target = tmp_path / "no_such_dir" / "counterexample.json"
    code, out, err = run(
        capsys, "audit", "--samples", "5", "--seed", "1", "--dump", str(target)
    )
    assert code == 4
    assert "audit: FAIL" in out
    assert "error: cannot write" in err


def test_parser_built_once(capsys, monkeypatch):
    import twoqubit.cli as cli_mod

    calls = []
    build = cli_mod.build_parser
    monkeypatch.setattr(cli_mod, "build_parser", lambda: calls.append(1) or build())
    run(capsys, "list-gates")
    run(capsys, "analyze", "cnot")
    assert calls == []
    assert cli_mod._parser() is cli_mod._parser()
    assert cli_mod._parser.cache_info().misses == 1


def test_list_gates_extracts_catalog_once(capsys, monkeypatch):
    import twoqubit.canonical as canonical_mod

    true_bell = canonical_mod.bell_matrix_array
    calls = []

    def counted(u):
        calls.append(np.shape(u))
        return true_bell(u)

    monkeypatch.setattr(canonical_mod, "bell_matrix_array", counted)
    code, _, _ = run(capsys, "list-gates")
    assert code == 0
    assert calls == [(8, 4, 4)]


def test_list_gates(capsys):
    code, out, _ = run(capsys, "list-gates")
    assert code == 0
    lines = [line for line in out.strip().split("\n")]
    assert len(lines) == 8
    assert any(line.startswith("cnot") and line.rstrip().endswith("PE") for line in lines)
    assert any(line.startswith("swap") and line.rstrip().endswith("--") for line in lines)


def test_audit_maps_dressed_svd_failure_to_exit_3(capsys, monkeypatch):
    # the first SVD is the plain set's, the second the dressed set's
    true_svd = np.linalg.svd
    calls = []

    def second_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return true_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", second_fails)
    code, out, err = run(capsys, "audit", "--samples", "20", "--seed", "1")
    assert code == 3 and out == "" and len(calls) == 2
    assert err == "error: SVD did not converge\n"


def test_analyze_schmidt_count_of_three_exit_3(capsys, monkeypatch):
    import twoqubit.canonical as canonical_mod

    monkeypatch.setattr(canonical_mod, "schmidt_coefficients_array",
                        lambda u: np.array([3**-0.5] * 3 + [0.0]))
    code, out, err = run(capsys, "analyze", "cnot")
    assert code == 3 and out == ""
    assert err.startswith("error: coefficient count is 3") and err.count("\n") == 1
