"""Regenerate every figure of :mod:`paper` into ``results/`` and check
its claims; ``-s`` shows the tables and one PASS/FAIL line per claim."""

import pytest
from paper import FIGURES, run_figure


@pytest.mark.parametrize("fig", FIGURES, ids=lambda fig: fig.name)
def test_paper(fig):
    run_figure(fig)
