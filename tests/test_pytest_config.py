"""The pytest configuration reports a failing Hypothesis test as a failure.

``filterwarnings`` turns warnings into errors, and Hypothesis's plugin
warns while it reports a falsified ``@given`` test; unless that one warning
is ignored, pytest stops with an INTERNALERROR and loses the failure.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(PYPROJECT.parent), "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "2 failed" in out.splitlines()[-1]
