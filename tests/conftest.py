import gc
import json
import os
from pathlib import Path

import numpy as np
import pytest

from treemover import AttributedGraph, graph_from_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name):
    return FIXTURES / f"{name}.json"


def load_fixture(name):
    with open(fixture_path(name)) as fh:
        return graph_from_json(json.load(fh))


def molecule18():
    """An 18-node molecule-like graph of degree <= 4 (the first graph of the
    seed-7 edit-certify benchmark inputs): at node 1 its tree widths pass
    int64 at depth 46."""
    edges = [(0, 1), (0, 4), (0, 6), (1, 2), (1, 7), (2, 3), (2, 5), (2, 11), (3, 4),
             (3, 8), (4, 9), (5, 10), (5, 12), (8, 14), (10, 11), (10, 13), (13, 15),
             (14, 16), (16, 17)]
    return AttributedGraph(np.ones((18, 1)), edges)


@pytest.fixture(autouse=True)
def collector_left_unfrozen():
    """Fail a test after which the collector's frozen generation changed.

    Only the `tmd` entry points freeze, right before their process exits
    (`launcher.exit_frozen`); `cli.main` and every library path run in this
    process and must leave the collector as they found it.
    """
    before = gc.get_freeze_count()
    yield
    assert gc.get_freeze_count() == before, "the test froze the collector"


@pytest.fixture
def fixtures_dir():
    return FIXTURES
