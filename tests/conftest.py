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


@pytest.fixture
def fixtures_dir():
    return FIXTURES
