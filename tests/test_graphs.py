"""Graph construction, edits, serialization."""

import re

import numpy as np
import pytest

from treemover import (AttributedGraph, GraphDataset, TmdConfig, constant_weights,
                       dataset_from_json, dataset_to_json, drop_edge, drop_node,
                       edit_sequence_bound, graph_from_json, graph_to_json,
                       load_dataset_json, load_graph_json, permute_nodes, perturb_feature,
                       random_graph, save_dataset_json, save_graph_json,
                       standardize_datasets)
from treemover.graphs import DatasetFormatError, group_indices, number_array

from conftest import load_fixture


def test_construction_normalises_edges():
    g = AttributedGraph(np.ones((3, 1)), [(2, 0), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))
    assert g.neighbors == ((1, 2), (0,), (0,))
    assert g.node_count == 3 and g.feature_dim == 1
    assert g.degree(0) == 2


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        AttributedGraph(np.ones((2, 1)), [(0, 0)])  # self loop
    with pytest.raises(ValueError):
        AttributedGraph(np.ones((2, 1)), [(0, 2)])  # out of range
    with pytest.raises(ValueError):
        AttributedGraph(np.array([[np.nan]]), [])


@pytest.mark.parametrize("edge", [[0], [0, 1, 2], [0.5, 1.9], [True, 0]])
def test_construction_rejects_edges_that_are_not_integer_pairs(edge):
    with pytest.raises(ValueError, match=rf"^edge {re.escape(repr(edge))} is not a pair "
                                         r"of integer node ids$"):
        AttributedGraph(np.ones((3, 1)), [edge])


def test_construction_accepts_integral_ids_of_any_type():
    g = AttributedGraph(np.ones((3, 1)), [(np.int64(0), 1.0), np.array([2, 1])])
    assert g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("labels", [["a"], [0.5], [None], [True], [np.True_]])
def test_dataset_rejects_labels_that_are_not_integers(labels):
    g = AttributedGraph(np.ones((1, 1)), [])
    with pytest.raises(ValueError, match=r"^labels must be integers, got "):
        GraphDataset((g,), labels)


def test_features_are_immutable():
    g = AttributedGraph(np.ones((2, 2)), [(0, 1)])
    with pytest.raises(ValueError):
        g.features[0, 0] = 5.0


def test_scalar_feature_column_accepted():
    g = AttributedGraph(np.array([1.0, 2.0]), [(0, 1)])
    assert g.features.shape == (2, 1)


def test_equal_graphs_and_datasets_hash_equal():
    a = AttributedGraph(np.array([[0.0], [1.0]]), [(0, 1)])
    b = AttributedGraph(np.array([[-0.0], [1.0]]), [(0, 1)])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    da, db = GraphDataset((a,), labels=(1,)), GraphDataset((b,), labels=(1,))
    assert da == db and hash(da) == hash(db) and len({da, db}) == 1


def test_drop_node_reindexes():
    g = load_fixture("path3")
    h = drop_node(g, 1)
    assert h.node_count == 2
    assert h.edges == ()
    h = drop_node(g, 0)
    assert h.edges == ((0, 1),)
    with pytest.raises(IndexError):
        drop_node(g, 3)
    for v in (1.5, 1.0, "1", None, True):
        with pytest.raises(IndexError, match=f"node {v} out of range for 3 nodes"):
            drop_node(g, v)
    assert drop_node(g, np.int64(1)) == drop_node(g, 1)


def test_drop_edge():
    g = load_fixture("triangle")
    h = drop_edge(g, 2, 1)  # order-insensitive
    assert h.edges == ((0, 1), (0, 2))
    with pytest.raises(ValueError):
        drop_edge(h, 1, 2)
    for u, v, bad in ((0.0, 1, 0.0), (0, 1.0, 1.0), (3, 1, 3), (0, "1", 1), (True, 0, True)):
        with pytest.raises(IndexError, match=f"node {bad} out of range for 3 nodes"):
            drop_edge(g, u, v)
    assert drop_edge(g, np.int64(0), np.int64(1)) == drop_edge(g, 0, 1)


def test_perturb_feature_identity_keeps_graph_equal():
    g = load_fixture("edge_pair")
    h = perturb_feature(g, 0, g.features[0])
    assert h == g
    h2 = perturb_feature(g, 0, [4.0])
    assert h2 != g
    assert h2.features[0, 0] == 4.0
    with pytest.raises(ValueError):
        perturb_feature(g, 0, [1.0, 2.0])


@pytest.mark.parametrize("x", [{}, [{}], "x", [1.0, [2.0]], [10**400], "1.5", ["1.5"], [True],
                               1.5, [[1.0]]],
                         ids=["dict", "list-of-dict", "word", "ragged", "huge-int", "numeric-word",
                              "list-of-numeric-word", "bool", "scalar", "nested"])
def test_perturb_feature_not_a_vector_of_numbers(x):
    # numpy raises TypeError or OverflowError for some of these, and would
    # read the last five as the vector [1.5] or [1.0]
    g = load_fixture("edge_pair")
    message = re.escape(f"feature {x!r} is not a vector of numbers of dimension 1")
    with pytest.raises(ValueError, match=message):
        perturb_feature(g, 0, x)
    with pytest.raises(ValueError, match=message):
        edit_sequence_bound(g, [("perturb", 0, x)], TmdConfig(2, constant_weights(1.0)))


def test_graph_json_numbers_follow_the_feature_rule():
    # the rule moved as it was: a list mixing bools with numbers reads as numbers
    g = graph_from_json({"features": [[True, 2.0]], "edges": []})
    assert g.features.tolist() == [[1.0, 2.0]]
    assert perturb_feature(g, 0, [True, 2.0]) == g
    # a numeric string beside an integer beyond int64, which makes numpy
    # build an object array, is not a number either
    for x in (True, "1.5", 10**400, [[True]], [["1.5"]], [[10**400]], [[1.0], 2.0],
              [[10**30, "1.5"]], [[10**30, b"1.5"]]):
        with pytest.raises(ValueError, match="^x must be numbers$"):
            number_array(x, "x")
        with pytest.raises(DatasetFormatError):
            graph_from_json({"features": x, "edges": []})
    with pytest.raises(ValueError, match="^x must be a number$"):
        number_array([1.0], "x", ndim=0)


def test_permute_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        g = random_graph(n, 0.5, 3, int(rng.integers(1 << 30)))
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=int)
        inv[perm] = np.arange(n)
        h = permute_nodes(g, perm)
        assert permute_nodes(h, inv) == g
        # degree and feature multisets survive
        assert sorted(len(nb) for nb in h.neighbors) == sorted(
            len(nb) for nb in g.neighbors)
        assert sorted(map(tuple, h.features.tolist())) == sorted(
            map(tuple, g.features.tolist()))


def test_permute_rejects_non_permutation():
    g = load_fixture("edge_pair")
    with pytest.raises(ValueError):
        permute_nodes(g, [0, 0])
    # not truncated to the permutation [0, 1, 2]
    with pytest.raises(ValueError, match=r"^perm \[0.5, 1.2, 2.9\] is not a permutation"):
        permute_nodes(load_fixture("path3"), [0.5, 1.2, 2.9])


def test_random_graph_reproducible_and_extremes():
    a = random_graph(6, 0.5, 2, seed=42)
    b = random_graph(6, 0.5, 2, seed=42)
    assert a == b
    full = random_graph(4, 1.0, 1, seed=0)
    assert len(full.edges) == 6  # complete on 4 nodes
    empty = random_graph(4, 0.0, 1, seed=0)
    assert empty.edges == ()


def test_graph_json_roundtrip(tmp_path):
    g = random_graph(5, 0.4, 3, seed=7)
    path = tmp_path / "g.json"
    save_graph_json(path, g)
    assert load_graph_json(path) == g
    assert graph_from_json(graph_to_json(g)) == g


def test_empty_graph_json():
    g = graph_from_json({"features": [], "edges": []}, feature_dim=2)
    assert g.node_count == 0 and g.feature_dim == 2


def test_dataset_validation_and_json_roundtrip():
    g1 = random_graph(3, 0.5, 2, seed=1)
    g2 = random_graph(4, 0.5, 2, seed=2)
    ds = GraphDataset((g1, g2), (0, 1), "toy")
    assert len(ds) == 2 and ds[1] == g2 and ds.feature_dim == 2
    again = dataset_from_json(dataset_to_json(ds))
    assert again == ds

    with pytest.raises(ValueError):
        GraphDataset((g1, random_graph(3, 0.5, 5, seed=3)))
    with pytest.raises(ValueError):
        GraphDataset((g1, g2), (0,))


def test_dataset_json_roundtrip_keeps_empty_graphs(tmp_path):
    # an empty graph's JSON has no feature rows, so it takes the dimension
    # of the first non-empty graph, wherever that sits
    empty = AttributedGraph(np.zeros((0, 2)), [])
    full = AttributedGraph(np.ones((2, 2)), [(0, 1)])
    for graphs in ((full, empty), (empty, full, empty)):
        ds = GraphDataset(graphs)
        path = tmp_path / "ds.json"
        save_dataset_json(path, ds)
        assert load_dataset_json(path) == ds
    only = dataset_from_json(dataset_to_json(GraphDataset((empty,))))
    assert only.graphs[0].node_count == 0


def test_standardize_joint_stats():
    g1 = AttributedGraph(np.array([[0.0], [2.0]]), [(0, 1)])
    g2 = AttributedGraph(np.array([[4.0], [6.0]]), [(0, 1)])
    ds = GraphDataset((g1, g2))
    (out,) = standardize_datasets([ds])
    stacked = np.vstack([g.features for g in out.graphs])
    assert stacked.mean() == pytest.approx(0.0, abs=1e-12)
    assert stacked.std() == pytest.approx(1.0, rel=1e-12)
    # constant dimensions survive untouched
    gconst = AttributedGraph(np.ones((3, 1)), [])
    (out2,) = standardize_datasets([GraphDataset((gconst,))])
    np.testing.assert_array_equal(out2.graphs[0].features, np.ones((3, 1)))


@pytest.mark.parametrize("keys", [[], [5], [3, 3, 3, 3], [2, -1, 0, 2, -7, 0, 0, 9, -1, 2],
                                  [0, -3, 4, 1, -3, 4]])
def test_group_indices_edge_cases(keys):
    keys = np.array(keys, dtype=np.intp)
    got = group_indices(keys)
    # reference: a stable sort, then np.unique's first position of each value
    order = np.argsort(keys, kind="stable")
    values, starts = np.unique(keys[order], return_index=True)
    ends = [*starts[1:], len(keys)]
    assert [x for x, _ in got] == values.tolist()
    assert all(type(x) is int for x, _ in got)
    for (_, positions), lo, hi in zip(got, starts, ends):
        assert positions.dtype == order.dtype
        assert positions.tobytes() == order[lo:hi].tobytes()
