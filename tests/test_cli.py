import argparse
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twoqubit
from twoqubit import canonical_gate, catalog, catalog_names, gate_to_json_data, make_gate
from twoqubit.canonical import ClassData
from twoqubit.cli import main, report_json, report_text
from twoqubit.sampling import haar_unitary, random_local_unitary


# the full output of the planted faults below: a corrupted z at --n 9 (exit
# 5), and a zero invariant tolerance on audit --samples 5 --seed 1 (exit 6,
# or 4 when the counterexample cannot be written)
TABLES_FAULT_OUT = (
    "edge OA1 : max deviation 0.000e+00 at parameter 0.000000000  ok\n"
    "edge OA2 : max deviation 5.000e-03 at parameter 1.570796327  FAIL\n"
    "edge A2A1: max deviation 5.000e-03 at parameter 0.000000000  FAIL\n"
    "edge A2A3: max deviation 5.000e-03 at parameter 0.589048623  FAIL\n"
    "edge OA3 : max deviation 5.000e-03 at parameter 1.000000000  FAIL\n"
    "edge A1A3: max deviation 5.000e-03 at parameter 1.000000000  FAIL\n"
    "edge LQ  : max deviation 1.464e-03 at parameter 0.785398163  FAIL\n"
    "edge LM  : max deviation 3.536e-03 at parameter 0.785398163  FAIL\n"
    "edge A2M : max deviation 5.000e-03 at parameter 0.000000000  FAIL\n"
    "edge A2Q : max deviation 5.000e-03 at parameter 0.000000000  FAIL\n"
    "edge QP  : max deviation 3.536e-03 at parameter 0.785398163  FAIL\n"
    "edge MN  : max deviation 3.536e-03 at parameter 0.000000000  FAIL\n"
    "edge PN  : max deviation 3.536e-03 at parameter 0.392699082  FAIL\n"
    "edge LN  : max deviation 3.536e-03 at parameter 0.785398163  FAIL\n"
    "edge A2P : max deviation 5.000e-03 at parameter 0.000000000  FAIL\n"
)
TABLES_FAULT_ERR = "FAIL: edge A2A3 deviates by 5.000e-03 at parameter 0.589048623\n"
AUDIT_FAULT_OUT = (
    "audit: samples=5 seed=1\n"
    "  three-route invariant consistency: max deviation 4.441e-07 (tol 1e-09)  FAIL\n"
    "  local invariance of schmidt coefficients: max deviation 5.551e-16 (tol 1e-09)  PASS\n"
    "  schmidt number unchanged by local operations: histogram {4: 5}  PASS\n"
    "  perfect-entangler fraction: fraction 0.6000 (expected 0.8488 +/- 0.6408)  PASS\n"
    "audit: FAIL\n"
)
COUNTEREXAMPLE = (
    "[[[0.19306338383049249, 0.4331408787958501], [0.7293470359337516, -0.3139574711706128]"
    ", [-0.0005154758119464219, -0.2837864455956123], [-0.2301322913755378, 0.1053718769777"
    "9625]], [[0.5057843246427561, 0.4937358418403561], [-0.15899682214329852, 0.2419144950"
    "7032808], [-0.29494217122126953, -0.0033340808867478836], [0.3004272112227036, -0.4892"
    "3002089808365]], [[0.20367129653222005, 0.24892324363401921], [0.07407185696239986, 0."
    "27406265710263394], [-0.09729521126104261, 0.613854259196737], [0.04297204986416829, 0"
    ".6540858009449181]], [[-0.41142598920057977, -0.05297661300679826], [0.346586638528667"
    "83, -0.2914819326740334], [-0.41023770922163777, 0.5271476068285782], [0.2460545551028"
    "6792, -0.3407575344189424]]]\n"
)


def _fail_route_check(monkeypatch, audit_mod):
    # route deviations scaled by 1e9 fail the three-route check on any sample
    # and keep its worst row; a zero invariant_tol would refuse the extraction too
    chunk_rows = audit_mod._chunk_rows

    def scaled(rng, n):
        gates, numbers, pe, (route_dev, *rest) = chunk_rows(rng, n)
        return gates, numbers, pe, (route_dev * 1e9, *rest)

    monkeypatch.setattr(audit_mod, "_chunk_rows", scaled)


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
    g = haar_unitary(rng)
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


@pytest.mark.parametrize("source", ["", "gate.json/"])
def test_analyze_opens_the_source_path_as_given(tmp_path, monkeypatch, capsys, source):
    # no readable file: "" is not read as ".", nor "gate.json/" as "gate.json"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gate.json").write_text(json.dumps(gate_to_json_data(np.eye(4))))
    code, out, err = run(capsys, "analyze", source)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {source!r} is neither a catalog name")
    assert err.endswith(f": {source!r}\n")


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
    assert err == "error: matrix entries must be finite, but entry [0, 0] is not\n"


@pytest.mark.parametrize("value", [float("nan"), 10**400])
def test_gate_file_structure_is_checked_before_its_entries_are_finite(tmp_path, capsys, value):
    # a NaN and an integer beyond the float range are refused alike, after
    # the parse of every entry
    data = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    data[0][0][0], data[3][3] = value, [True, 0]
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1 and out == ""
    assert err == "error: entry [3][3] must be a [re, im] number pair\n"


def test_analyze_json_has_no_signed_zero(capsys):
    code, out, _ = run(capsys, "analyze", "cnot", "--format", "json")
    payload = json.loads(out)
    values = [*payload["canonical_point"], *payload["g1"], payload["g2"]]
    assert code == 0 and 0.0 in values
    assert all(math.copysign(1.0, v) > 0 for v in values if v == 0.0)


@pytest.mark.parametrize("source", ["gate.json", 'say "hi" to \u00e9\u4e16.json'])
def test_json_report_is_what_json_dumps_writes(source):
    gates = [catalog(n) for n in catalog_names()]
    gates += [make_gate(u) for u in haar_unitary(np.random.default_rng(35), 4, 10)]
    for g in gates:
        out = report_json(ClassData.from_unitaries(g), source)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert json.loads(out)["source"] == source


def test_analyze_wrong_structure_exit_1(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text("[[1, 2], [3, 4]]")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1


def test_analyze_short_row_exit_1(tmp_path, capsys):
    data = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    data[1].pop()
    path = tmp_path / "short_row.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out, err) == (1, "", "error: row 1 must be an array of 4 entries\n")


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


@pytest.mark.parametrize("solver", ["eigh"])
def test_analyze_maps_linalg_error_to_exit_3(capsys, monkeypatch, solver):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    monkeypatch.setattr(np.linalg, solver, no_convergence)
    code, out, err = run(capsys, "analyze", "cnot")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "did not converge" in err


@pytest.mark.parametrize("argv", [["analyze", "cnot"], ["audit", "--samples", "1030"]])
def test_no_command_calls_the_lapack_determinant(capsys, monkeypatch, argv):
    # det(U) is taken in closed form, in chunks of one gate and of a full stack
    def no_det(*args, **kwargs):
        raise np.linalg.LinAlgError("det called")

    monkeypatch.setattr(np.linalg, "det", no_det)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def test_analyze_coefficients_are_the_realignment_singular_values(rng, capsys):
    from twoqubit.cli import _round15, report_json
    from twoqubit.schmidt import schmidt_coefficients_array

    gates = [catalog(name) for name in catalog_names()] + [haar_unitary(rng) for _ in range(10)]
    for g in gates:
        data = ClassData.from_unitaries(g)
        s = ClassData.from_points(data.points).s
        assert np.array_equal(data.s, s)
        assert np.max(np.abs(s - schmidt_coefficients_array(g))) <= 1e-14
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
    core = canonical_gate([1.0, c2, 0.0])
    gates = [core] + [
        random_local_unitary(rng) @ core @ random_local_unitary(rng) for _ in range(20)
    ]
    for matrix in gates:
        text = report_text(ClassData.from_unitaries(make_gate(matrix)), "near-line")
        number = int(re.search(r"schmidt number: (\d)", text)[1])
        assert (number <= 2) == ("controlled unitary: yes" in text)


def test_controlled_unitary_flag_on_and_off_the_line():
    on = report_text(ClassData.from_unitaries(canonical_gate([1.0, 0.0, 0.0])), "on")
    off = report_text(ClassData.from_unitaries(canonical_gate([1.0, 0.1, 0.0])), "off")
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "OA1", "--n", "1"], "n_points must be an integer of at least 2, got 1"),
        (["verify-tables", "--n", "1"], "n_points must be an integer of at least 2, got 1"),
        # the edge is looked up before the grid is built
        (["sweep", "XX", "--n", "1"], "unknown edge 'XX'; valid names: OA1, OA2,"),
        # past numpy's int64 indexing
        (["sweep", "OA1", "--n", str(10**23)], f"n_points must be at most {2**63 - 1}, got "),
        (["verify-tables", "--n", str(10**26)], f"n_points must be at most {2**63 - 1}, got "),
    ],
    ids=["sweep", "verify-tables", "sweep-unknown-edge", "sweep-huge", "verify-tables-huge"],
)
def test_grid_of_one_point_exit_2(capsys, tmp_path, argv, message):
    out_path = tmp_path / "one.csv"
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not out_path.exists()


def test_audit_sample_count_numpy_cannot_index_exit_2(capsys):
    code, out, err = run(capsys, "audit", "--samples", str(10**30))
    assert (code, out) == (2, "")
    assert err == f"error: samples must be at most {2**63 - 1}, got {10**30}\n"


@pytest.mark.parametrize("argv", [["verify-tables", "--n", str(10**17)],
                                  ["sweep", "OA1", "--n", str(10**17)]],
                         ids=["verify-tables", "sweep"])
def test_count_no_memory_can_hold_exit_2(capsys, tmp_path, argv):
    # below 2**63, so as_scalar passes it, but the grid alone would be 711 PiB
    out_path = tmp_path / "x.csv"
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.strip() != "error:", err
    assert not out_path.exists()


def test_bare_memory_error_exit_2_names_it(capsys, monkeypatch):
    import twoqubit.cli as cli_mod

    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "verify_tables", exhausted)
    assert run(capsys, "verify-tables") == (2, "", "error: out of memory\n")


def test_sweep_output_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "sweep", "LN", "--n", "33", "--out", str(a))[0] == 0
    assert run(capsys, "sweep", "LN", "--n", "33", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_unwritable_path_exit_4(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "x.csv"
    code, _, err = run(capsys, "sweep", "OA1", "--n", "5", "--out", str(target))
    assert code == 4


def test_sweep_svg_out_path_refused_exit_2(capsys, tmp_path):
    # the SVG would overwrite the CSV written to the same name, or to one that
    # differs only in letter case, which a case-insensitive filesystem merges
    for name in ("x.svg", "x.SVG"):
        target = tmp_path / name
        code, out, err = run(capsys, "sweep", "OA1", "--n", "5", "--out", str(target), "--svg")
        assert (code, out) == (2, "")
        assert err == (f"error: the CSV path {target} and the SVG path {tmp_path / 'x.svg'} "
                       "can be one file; give --out a suffix other than .svg\n")
        assert list(tmp_path.iterdir()) == []


def test_sweep_evaluates_edge_once(tmp_path, capsys, monkeypatch):
    from twoqubit.linops import CHUNK

    true_from_points = ClassData.from_points.__func__
    rows = []

    def counted(cls, c):
        rows.append(len(c))
        return true_from_points(cls, c)

    # the sweep command evaluates each grid row once, a chunk at a time
    monkeypatch.setattr(ClassData, "from_points", classmethod(counted))
    out_path = tmp_path / "pn.csv"
    argv = ["sweep", "PN", "--n", str(CHUNK + 50), "--out", str(out_path), "--svg"]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert rows == [CHUNK, 50]


def test_verify_tables_pass(capsys):
    code, out, _ = run(capsys, "verify-tables", "--n", "97")
    assert code == 0
    assert "PASS: 15 edges" in out
    assert out.count("edge ") == 15


def test_verify_tables_endpoints(capsys):
    code, out, _ = run(capsys, "verify-tables", "--n", "2")
    assert code == 0


def test_verify_tables_fault_exit_5(capsys, monkeypatch):
    import twoqubit.edges as edges_mod

    true_fn = edges_mod.z_from_point_array

    def faulted(c):
        z = true_fn(c).copy()
        z[..., 3] = -z[..., 3] * 1.01
        return z

    monkeypatch.setattr(edges_mod, "z_from_point_array", faulted)
    code, out, err = run(capsys, "verify-tables", "--n", "9")
    assert code == 5
    assert "FAIL" in err
    assert (out, err) == (TABLES_FAULT_OUT, TABLES_FAULT_ERR)


def test_verify_tables_nan_deviation_exit_5(capsys, monkeypatch):
    # a NaN in one row of edge LQ's z fails that edge alone, and the closing
    # line names it, not the largest finite deviation
    import twoqubit.edges as edges_mod
    from twoqubit.canonical import L, Q

    true_fn = edges_mod.z_from_point_array

    def planted(c):
        z = true_fn(c)
        if np.allclose(c[0], L) and np.allclose(c[-1], Q):
            z = z.copy()
            z[3] = np.nan
        return z

    monkeypatch.setattr(edges_mod, "z_from_point_array", planted)
    code, out, err = run(capsys, "verify-tables", "--n", "9")
    assert code == 5
    failed = [line for line in out.splitlines() if line.endswith("FAIL")]
    assert failed == ["edge LQ  : max deviation nan at parameter 0.294524311  FAIL"]
    assert out.count("  ok\n") == 14
    assert err == "FAIL: edge LQ deviates by nan at parameter 0.294524311\n"


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
    assert err == "error: seed must be an integer of at least 0, got -1\n"


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
    assert out == AUDIT_FAULT_OUT + f"counterexample gate written to {dump.name}\n"
    assert dump.read_text() == COUNTEREXAMPLE
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
    assert out == AUDIT_FAULT_OUT
    assert err == ("error: cannot write output: [Errno 2] No such file or directory: "
                   f"{str(target)!r}\n")


def test_audit_fraction_failure_writes_no_counterexample(tmp_path, capsys, monkeypatch):
    # a failing PE fraction alone exits 6 with no gate to write
    import twoqubit.audit as audit_mod

    monkeypatch.setattr(audit_mod, "HAAR_PE_FRACTION", 0.5)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "audit", "--samples", "3000", "--seed", "1")
    assert code == 6 and err == ""
    assert out.endswith("perfect-entangler fraction: fraction 0.8547 (expected 0.5000 +/- "
                        "0.0365)  FAIL\naudit: FAIL\n")
    assert "counterexample" not in out
    assert list(tmp_path.iterdir()) == []


class _FullStdout(io.StringIO):
    """A stdout on a full device: every write and flush fails, and it has no
    file descriptor to redirect."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        self.write("")


@pytest.mark.parametrize("argv", [["analyze", "cnot"], ["analyze", "cnot", "--format", "json"],
                                  ["list-gates"], ["verify-tables", "--n", "5"],
                                  ["audit", "--samples", "5"]])
def test_failed_stdout_write_exit_4(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("stdio", ["buffered", "unbuffered"])
def test_stdout_on_full_device_exit_4_without_traceback(stdio):
    # buffered, the text stays in stdout's buffer after the failed flush, and the
    # flush at exit must neither print a second error nor make the exit code 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(twoqubit.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    if stdio == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "twoqubit", "analyze", "cnot"],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 4
    assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


def test_parser_built_once(capsys, monkeypatch):
    import twoqubit.cli as cli_mod

    cli_mod._parsers()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    for _ in range(2):
        run(capsys, "list-gates")
        run(capsys, "analyze", "cnot", "--format", "json")
        with pytest.raises(SystemExit):  # the full pass, on the same parser
            main(["analyze", "cnot", "--bogus"])
    assert built == []
    assert cli_mod._parsers() is cli_mod._parsers()
    assert cli_mod._parsers.cache_info().misses == 1


def _outcome(capsys, call):
    # (return value, SystemExit code, stdout, stderr) of call()
    try:
        result, code = call(), None
    except SystemExit as exc:
        result, code = None, exc.code
    out, err = capsys.readouterr()
    return result, code, out, err


# no command, help, version, a command in the wrong case, usage errors inside and
# after a command's arguments, option abbreviations, '--', and commands that parse
PARSE_CASES = [
    [], ["-h"], ["--version"], ["bogus"], ["Analyze", "cnot"], ["-h", "analyze"],
    ["analyze"], ["analyze", "-h"], ["analyze", "cnot", "-h"], ["analyze", "--", "cnot"],
    ["analyze", "cnot", "--format", "xml"], ["analyze", "cnot", "--format=json"],
    ["analyze", "cnot", "--form", "json"], ["analyze", "cnot", "--bogus"],
    ["analyze", "--bogus", "cnot"], ["analyze", "cnot", "extra"],
    ["analyze", "cnot", "--bogus", "-h"], ["analyze", "cnot", "--degrees"],
    ["--version", "analyze"], ["analyze", "cnot", "--version"],
    ["sweep", "PN", "--n", "abc", "--out", "x.csv"], ["sweep", "PN", "--out", "x.csv", "--svg"],
    ["sweep", "PN"], ["verify-tables", "--n", "5"], ["audit", "--sam", "3"],
    ["audit", "--samples"], ["audit", "--seed", "-1"], ["list-gates"], ["list-gates", "x"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "no arguments")
def test_main_parses_as_the_full_parser(capsys, monkeypatch, argv):
    # each command records its arguments, so a parse that succeeds runs nothing
    import twoqubit.cli as cli_mod

    parser, commands = cli_mod._build_parsers()
    seen = []
    for sub in commands.values():
        sub.set_defaults(func=lambda args: seen.append(args) or 0)
    monkeypatch.setattr(cli_mod, "_parsers", lambda: (parser, commands))
    _, code, out, err = _outcome(capsys, lambda: main(argv))
    full, full_code, full_out, full_err = _outcome(capsys, lambda: parser.parse_args(argv))
    assert (code, out, err) == (full_code, full_out, full_err)
    assert [vars(args) for args in seen] == ([] if full is None else [vars(full)])


@pytest.mark.parametrize("argv, message", [
    (["analyze"], "the following arguments are required: source"),
    (["analyze", "cnot", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_usage_error_exits_2_with_argparse_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: twoqubit") and err.endswith(f": error: {message}\n")


@pytest.mark.parametrize("argv", [["analyze", "cnot", "--format", "json"],
                                  ["analyze", "cnot", "--bogus"], []])
def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["twoqubit", *argv])
    assert _outcome(capsys, main) == _outcome(capsys, lambda: main(argv))


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


def test_audit_maps_dressed_eigvalsh_failure_to_exit_3(capsys, monkeypatch):
    # the dressed set's Gram eigenvalues are the audit's only ones; the plain
    # set's s is |z(c)|
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(1)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", first_fails)
    code, out, err = run(capsys, "audit", "--samples", "20", "--seed", "1")
    assert code == 3 and out == "" and len(calls) == 1
    assert err == "error: Eigenvalues did not converge\n"


def test_analyze_near_line_gate_has_schmidt_number_4(tmp_path, capsys):
    # |z(c)| about [1, 5e-4, 5e-7, 2.5e-10]: three above zero_tol, and s3 is
    # above it, so K = 4
    path = tmp_path / "near_line.json"
    path.write_text(json.dumps(gate_to_json_data(canonical_gate([1e-3, 1e-6, 0.0]))))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    assert "schmidt number: 4\n" in out and "controlled unitary: no\n" in out
