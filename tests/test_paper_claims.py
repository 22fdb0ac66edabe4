"""The paper's claims hold on the committed results.

``benchmarks/paper.py`` is the table of the paper's figures; this module
loads it by path and re-checks every claim against the committed files in
``benchmarks/results/`` without running a single cell, so a results file
regenerated by a model change is gated in milliseconds.
"""

import importlib.util
import json
import os

import pytest

from repro.obs.atomic import canonical_json

_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "paper.py")
_spec = importlib.util.spec_from_file_location("paper", _PATH)
paper = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paper)


def _committed_text(fig) -> str:
    with open(os.path.join(paper.RESULTS_DIR, f"{fig.name}.json")) as f:
        return f.read()


def _committed(fig):
    return json.loads(_committed_text(fig))


def test_every_results_file_belongs_to_one_figure_with_claims():
    files = sorted(f[: -len(".json")] for f in os.listdir(paper.RESULTS_DIR)
                   if f.endswith(".json"))
    names = [fig.name for fig in paper.FIGURES]
    assert len(set(names)) == len(names)
    assert sorted(names) == files
    assert all(fig.claims for fig in paper.FIGURES)


def test_claim_names_are_unique():
    names = [name for _fig, (name, _holds) in paper.PAPER_CLAIMS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("fig", paper.FIGURES, ids=lambda fig: fig.name)
def test_committed_file_is_canonical(fig):
    text = _committed_text(fig)
    assert text == canonical_json(json.loads(text))


@pytest.mark.parametrize("fig", paper.FIGURES, ids=lambda fig: fig.name)
def test_claims_hold_on_committed_results(fig):
    assert paper.failed_claims(fig, _committed(fig)) == []


def test_doctored_payload_fails_exactly_its_claim():
    fig = paper.TABLE2
    doc = _committed(fig)
    doc["stampede1/sssp/lci"] = 1.5 * doc["stampede1/sssp/mpi-probe"]
    assert paper.failed_claims(fig, doc) == ["LCI < MPI-Probe on every cell"]
