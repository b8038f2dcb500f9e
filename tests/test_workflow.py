"""The CI workflow runs the tier-1 command that ROADMAP.md names, and its
failing-path steps expect the exit codes the CLI documents."""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _steps() -> dict:
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    return {step["name"]: step for step in workflow["jobs"]["tier1"]["steps"] if "name" in step}


def test_tier1_step_runs_the_roadmap_command():
    tier1 = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(),
                      re.MULTILINE)
    assert tier1, "ROADMAP.md names no tier-1 command"
    assert _steps()["Tier-1 tests"]["run"] == tier1.group(1)


@pytest.mark.parametrize("command, code", [
    ("twoqubit analyze no-such-file", 1),
    ("twoqubit analyze nonunitary.json", 2),
    ("twoqubit analyze nan.json", 2),
    ("twoqubit sweep OA1 --n 1 --out one.csv", 2),
    ("twoqubit sweep PN --n 11 --out upper.SVG --svg", 2),
    ("twoqubit audit --samples 0", 2),
    ("twoqubit verify-tables --n 1", 2),
    (f"twoqubit audit --samples {10**30}", 2),
    (f"twoqubit verify-tables --n {10**17}", 2),
    ("twoqubit analyze cnot > /dev/full", 4),
])
def test_failing_path_step_expects_its_exit_code(command, code):
    runs = [step["run"] for name, step in _steps().items() if name.startswith("Failing path")]
    assert [f"python -m {command} || code=$?" in run and f'test "$code" -eq {code}' in run
            for run in runs].count(True) == 1


def test_svg_suffix_step_checks_names_no_other_step_writes():
    # every step runs in one workspace, so a file an earlier step wrote would fail it
    name = "Failing path, a sweep whose --out ends in .SVG exits 2 and writes nothing"
    run = _steps()[name]["run"]
    assert "test ! -e upper.SVG && test ! -e upper.svg" in run
    assert not any("upper." in step.get("run", "") for other, step in _steps().items()
                   if other != name)


def test_full_device_step_requires_the_write_error():
    run = _steps()["Failing path, output to a full device exits 4"]["run"]
    assert "|| code=$?; } 2> err.txt" in run and 'grep -qF "cannot write output" err.txt' in run


def test_zero_sample_step_requires_the_count_rule():
    run = _steps()["Failing path, an audit of zero samples exits 2"]["run"]
    assert "|| code=$?; } 2> err.txt" in run
    assert 'grep -qF "samples must be an integer of at least 1, got 0" err.txt' in run


def test_chunk_smoke_step_spans_several_chunks():
    from twoqubit.linops import CHUNK

    run = _steps()["Smoke, an audit that spans several chunks"]["run"]
    samples = int(re.search(r"audit --samples (\d+) --seed \d+ ", run).group(1))
    assert samples > 2 * CHUNK
    assert 'grep -qx "audit: PASS"' in run


def test_large_audit_step_requires_a_pass():
    # the audit runs once; a failing command substitution fails the step
    run = _steps()["Smoke, a 100000-sample audit passes"]["run"]
    assert "out=$(PYTHONPATH=src python -m twoqubit audit --samples 100000 --seed 3)\n" in run
    assert 'tail -n 1 <<< "$out" | grep -qx "audit: PASS"' in run


@pytest.mark.parametrize("line, bound", [("local invariance of schmidt coefficients", "1e-13"),
                                         ("three-route invariant consistency", "1e-13")])
def test_large_audit_step_bounds_a_deviation(line, bound):
    run = _steps()["Smoke, a 100000-sample audit passes"]["run"]
    assert f"re.search(r'{line}: max deviation (\\S+)', sys.stdin.read())" in run
    assert f'assert d < {bound}, d" <<< "$out"' in run


def test_million_row_sweep_step_checks_one_polyline_of_every_point():
    run = _steps()["Smoke, a million-row sweep"]["run"]
    assert "sweep PN --n 1000001 --out pn.csv --svg" in run
    assert "len(p) == 1 and len(p[0].split()) == 1000001" in run


def test_million_row_sweep_step_bounds_the_svg_peak():
    # the same sweep measured with and without --svg, each in its own child
    run = _steps()["Smoke, a million-row sweep"]["run"]
    assert "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss" in run
    sweep = "python -m twoqubit sweep PN --n 1000001 --out pn.csv"
    assert f"svg=$(peak {sweep} --svg)" in run and f"plain=$(peak {sweep})" in run
    assert "test $((svg * 100)) -le $((plain * 115))" in run


def test_million_row_sweep_csv_step_compares_a_per_value_rendering():
    from twoqubit.edges import _SWEEP_HEADER

    run = _steps()["Smoke, a million-row sweep CSV equals its values formatted one at a time"]["run"]
    assert "python -m twoqubit sweep PN --n 1000001 --out pn.csv\n" in run
    # the oracle's columns are ClassData.from_points of PN's grid, evaluated whole
    assert "p = np.linspace(*e.param_range, 1000001)" in run and "e = twoqubit.edge('PN')" in run
    assert "d = twoqubit.ClassData.from_points(e.point_fn(p))" in run
    assert "f'{x:.15g}' for x in row.tolist()" in run
    assert f"sys.stdout.write({_SWEEP_HEADER!r})" in run
    assert run.endswith("> oracle.csv\ncmp pn.csv oracle.csv\n")


def test_verify_tables_smoke_step_spans_many_chunks():
    from twoqubit.linops import CHUNK

    run = _steps()["Smoke, verify-tables over many chunks"]["run"]
    n = int(re.search(r"verify-tables --n (\d+) ", run).group(1))
    assert n > 2 * CHUNK
    assert 'grep -q "^PASS:"' in run and "set -o pipefail" in run


def test_near_line_smoke_step_requires_schmidt_number_4():
    run = _steps()["Smoke, a gate near the controlled-unitary line has Schmidt number 4"]["run"]
    assert "gate_to_json_data(twoqubit.canonical_gate([1e-3, 1e-6, 0]))" in run
    assert "> near_line.json" in run
    assert "out=$(PYTHONPATH=src python -m twoqubit analyze near_line.json)" in run
    assert 'grep -qx "schmidt number: 4" <<< "$out"' in run
