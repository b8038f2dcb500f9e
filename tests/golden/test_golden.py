"""Every command line of the output corpus gives the bytes it was captured
with; ``capture.py`` explains how to rewrite the corpus."""
import json

import pytest

from capture import MANIFEST, run

ENTRIES = json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_matches_the_corpus(entry, tmp_path):
    assert run(entry["argv"], tmp_path, entry.get("inputs"), entry.get("digest", False)) == entry
