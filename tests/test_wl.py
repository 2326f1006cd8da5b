"""Color refinement and its agreement with the distance's separation power."""

import numpy as np
import pytest

from treemover import (AttributedGraph, TmdConfig, constant_weights,
                       pascal_weights, permute_nodes, random_graph, tmd,
                       wl_distinguishable, wl_first_difference)

from conftest import load_fixture


def test_feature_multiset_difference_is_iteration_zero():
    a = AttributedGraph(np.array([[1.0], [2.0]]), [(0, 1)])
    b = AttributedGraph(np.array([[1.0], [3.0]]), [(0, 1)])
    assert wl_first_difference(a, b, 3) == 0


@pytest.mark.filterwarnings("ignore:.*all-zero feature vectors:RuntimeWarning")
def test_signed_zero_features_are_one_class():
    a = AttributedGraph(np.array([[0.0], [1.0]]), [(0, 1)])
    b = AttributedGraph(np.array([[-0.0], [1.0]]), [(0, 1)])
    assert wl_first_difference(a, b, 3) is None
    assert tmd(a, b, TmdConfig(4, constant_weights(1.0))) == 0.0


def test_node_count_difference_is_iteration_zero():
    a = AttributedGraph(np.ones((2, 1)), [(0, 1)])
    b = AttributedGraph(np.ones((3, 1)), [(0, 1), (1, 2)])
    assert wl_first_difference(a, b, 3) == 0


def test_triangle_vs_path_detected_at_iteration_one():
    tri = load_fixture("triangle")
    p3 = load_fixture("path3")
    assert wl_first_difference(tri, p3, 3) == 1
    assert wl_distinguishable(tri, p3, 1)
    assert not wl_distinguishable(tri, p3, 0)


def test_cycle_pair_never_distinguished():
    c3c3 = load_fixture("c3c3")
    c6 = load_fixture("c6")
    for iters in (0, 1, 3, 10):
        assert wl_first_difference(c3c3, c6, iters) is None


def test_isomorphic_graphs_never_distinguished():
    rng = np.random.default_rng(11)
    for _ in range(15):
        g = random_graph(int(rng.integers(1, 9)), 0.5, 2, int(rng.integers(1 << 30)))
        h = permute_nodes(g, rng.permutation(g.node_count))
        assert wl_first_difference(g, h, 5) is None


def test_refinement_iteration_validation():
    g = load_fixture("path3")
    with pytest.raises(ValueError):
        wl_first_difference(g, g, -1)
    a = AttributedGraph(np.ones((1, 1)), [])
    b = AttributedGraph(np.ones((1, 2)), [])
    with pytest.raises(ValueError):
        wl_first_difference(a, b, 2)


@pytest.mark.parametrize("iterations", [True, float("inf"), None, 1.5, "2"])
def test_iterations_must_be_an_integer(iterations):
    with pytest.raises(ValueError, match="iterations must be an integer >= 0"):
        wl_first_difference(load_fixture("path3"), load_fixture("star4"), iterations)


def _uniform_feature_pair(rng, n):
    ga = random_graph(n, float(rng.uniform(0.2, 0.8)), 1, int(rng.integers(1 << 30)))
    gb = random_graph(n, float(rng.uniform(0.2, 0.8)), 1, int(rng.integers(1 << 30)))
    ones = np.ones((n, 1))
    return (AttributedGraph(ones, ga.edges), AttributedGraph(ones, gb.edges))


def _signed_one_hot_pair(rng, n):
    """One-hot features, the second graph's a permutation of the first's;
    each zero entry's sign is random. Half the pairs are isomorphic."""
    dim = int(rng.integers(2, 4))
    labels = rng.integers(dim, size=n)
    ga = random_graph(n, float(rng.uniform(0.2, 0.8)), 1, int(rng.integers(1 << 30)))
    if rng.random() < 0.5:
        perm = rng.permutation(n)
        gb = permute_nodes(ga, perm)
        labels_b = np.empty_like(labels)
        labels_b[perm] = labels
    else:
        gb = random_graph(n, float(rng.uniform(0.2, 0.8)), 1, int(rng.integers(1 << 30)))
        labels_b = rng.permutation(labels)

    def signed(lab):
        return np.where(np.eye(dim)[lab] == 1.0, 1.0, rng.choice([-0.0, 0.0], size=(n, dim)))

    return (AttributedGraph(signed(labels), ga.edges),
            AttributedGraph(signed(labels_b), gb.edges))


def test_separation_agrees_with_distance_fuzz():
    # refinement separates within L iterations <=> positive distance at L+1
    rng = np.random.default_rng(99)
    checked_pos = checked_zero = 0
    for make_pair in [_uniform_feature_pair] * 60 + [_signed_one_hot_pair] * 60:
        n = int(rng.integers(2, 8))
        ga, gb = make_pair(rng, n)
        L = int(rng.integers(1, 4))
        sched = constant_weights(0.7) if rng.random() < 0.5 else pascal_weights(L + 1)
        value = tmd(ga, gb, TmdConfig(L + 1, sched))
        scale = max(1.0, float(n))
        if wl_distinguishable(ga, gb, L):
            assert value > 1e-9 * scale
            checked_pos += 1
        else:
            assert value <= 1e-9 * scale
            checked_zero += 1
    assert checked_pos >= 20 and checked_zero >= 20
