"""Every command line of the output corpus gives the bytes it was captured
with; ``capture.py`` explains how to rewrite the corpus. Each rerun that
exits 0 is also judged by perfbench's checkers, which compare it with an
independent reference implementation and never with stored output."""
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from capture import MANIFEST, _runs, run
from twoqubit import catalog

ENTRIES = json.loads(MANIFEST.read_text())
PERFBENCH = str(Path(__file__).resolve().parents[2] / "perfbench")


def _perfbench_checks():
    """perfbench's ``checks`` module, with its ``reference``; imported without
    bytecode, so nothing is written under perfbench/."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("checks")
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved


checks = _perfbench_checks()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_matches_the_corpus(entry, tmp_path):
    assert run(entry["argv"], tmp_path, entry.get("inputs"), entry.get("digest", False)) == entry


def test_corpus_holds_every_run_of_capture_in_order():
    # a rewritten manifest can neither drop nor reorder an entry unseen
    assert [(e["argv"], e.get("inputs"), e.get("digest", False)) for e in ENTRIES] == _runs()


def _option(argv: list, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _problems(argv: list, inputs: dict | None, rerun: dict) -> list:
    """perfbench's verdict on one rerun of ``argv``: its problems, and for analyze
    the controlled-unitary fault that ``check_analyze`` returns apart."""
    rc, out, files = rerun["exit"], rerun["stdout"], rerun["files"]
    if argv[0] == "analyze":
        if inputs:
            entries = np.array(json.loads(inputs[argv[1]]), dtype=float)
            u = entries[..., 0] + 1j * entries[..., 1]
        else:
            u = catalog(argv[1])
        problems, fault = checks.check_analyze(rc, out, _option(argv, "--format", "text"),
                                               argv[1], u)
        return problems + (["controlled-unitary fault"] if fault else [])
    if argv[0] == "sweep":
        csv = _option(argv, "--out")
        return checks.check_sweep(rc, out, argv[1], int(_option(argv, "--n")), files[csv],
                                  files[str(Path(csv).with_suffix(".svg"))])
    return checks.check_audit(rc, out, int(_option(argv, "--samples")),
                              int(_option(argv, "--seed")))


JUDGED = [e for e in ENTRIES if e["exit"] == 0 and e["argv"][0] in ("analyze", "sweep", "audit")]


@pytest.mark.parametrize("entry", JUDGED, ids=[" ".join(e["argv"]) for e in JUDGED])
def test_cli_output_passes_the_reference_checks(entry, tmp_path):
    # a digest entry is rerun with its files kept as text
    rerun = run(entry["argv"], tmp_path, entry.get("inputs"))
    assert _problems(entry["argv"], entry.get("inputs"), rerun) == []


@pytest.mark.parametrize("argv, where, old, new", [
    (["analyze", "swap"], "stdout", "G2: -3.000000", "G2: -3.000900"),
    (["analyze", "cnot", "--format", "json"], "stdout", '"perfect_entangler": true',
     '"perfect_entangler": false'),
    (["sweep", "PN", "--n", "11", "--out", "e.csv", "--svg"], "e.csv", ",true\n", ",false\n"),
    (["audit", "--samples", "1000", "--seed", "42"], "stdout", "fraction 0.8", "fraction 0.9"),
], ids=["digit", "flag", "csv-flag", "audit-digit"])
def test_reference_checks_refuse_one_wrong_digit_or_flag(argv, where, old, new, tmp_path):
    rerun = run(argv, tmp_path)
    assert _problems(argv, None, rerun) == []
    texts = rerun["files"] if where != "stdout" else rerun
    assert old in texts[where]
    texts[where] = texts[where].replace(old, new, 1)
    assert _problems(argv, None, rerun) != []
