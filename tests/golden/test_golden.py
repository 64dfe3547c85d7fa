"""Every golden corpus entry reproduces its committed digest.

See ``generate.py`` for the corpus and how to regenerate it.
"""

import pytest

from repro.scenario import run_scenario
from repro.scenario.io import config_from_dict, config_to_dict

from .generate import digest, entries, load

CORPUS = load()


def test_corpus_matches_the_entry_list():
    """The committed configs are the ones ``generate.py`` writes."""
    assert [(e["name"], e["config"]) for e in CORPUS] == [
        (name, config_to_dict(cfg)) for name, cfg in entries()
    ]


@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_golden_digest(entry):
    summary = run_scenario(config_from_dict(entry["config"]))
    assert (summary.data_sent, summary.data_received) == (
        entry["data_sent"], entry["data_received"])
    assert digest(summary) == entry["digest"]
