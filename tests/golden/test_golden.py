"""Every command line of the output corpus gives the bytes it was captured
with; ``capture.py`` explains how to rewrite the corpus."""
import json

import pytest

from capture import MANIFEST, _runs, run

ENTRIES = json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_matches_the_corpus(entry, tmp_path):
    assert run(entry["argv"], tmp_path, entry.get("inputs"), entry.get("digest", False)) == entry


def test_corpus_holds_every_run_of_capture_in_order():
    # a rewritten manifest can neither drop nor reorder an entry unseen
    assert [(e["argv"], e.get("inputs"), e.get("digest", False)) for e in ENTRIES] == _runs()
