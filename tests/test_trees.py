"""Materialised computation trees: structure, widths, the literal evaluator."""

import numpy as np
import pytest

from treemover import (AttributedGraph, ConfigError, TmdConfig, blank_tree, computation_tree,
                       constant_weights, naive_tree_distance, random_graph,
                       tree_norm, tree_width, tree_widths)
from treemover.trees import _bitmask_assignment

from conftest import load_fixture, molecule18
from references import reference_tree_widths

CFG = lambda L, mode="sum": TmdConfig(L, constant_weights(1.0), mode)


def test_tree_structure_depth_and_sharing():
    p3 = load_fixture("path3")
    t = computation_tree(p3, 1, 3)
    assert t.depth == 3
    assert len(t.children) == 2
    # each leaf child sees the centre again one level down
    for child in t.children:
        assert len(child.children) == 1
    # (node, depth) subtrees are shared objects
    assert t.children[0].children[0] is t.children[1].children[0]


def test_isolated_node_tree_is_leaf():
    g = load_fixture("single_node")
    t = computation_tree(g, 0, 4)
    assert t.depth == 1 and t.children == ()


def test_tree_widths_star():
    star = load_fixture("star4")
    assert list(tree_widths(star, 0, 3)) == [1, 3, 3]
    assert list(tree_widths(star, 1, 3)) == [1, 1, 3]
    assert tree_width(star, 0, 3, 2) == 3
    with pytest.raises(ValueError):
        tree_width(star, 0, 3, 4)
    with pytest.raises(IndexError):
        tree_widths(star, 4, 3)
    with pytest.raises(IndexError, match="node 1.5 out of range for 4 nodes"):
        tree_widths(star, 1.5, 3)
    with pytest.raises(IndexError, match="node True out of range for 4 nodes"):
        tree_widths(star, True, 3)
    with pytest.raises(ValueError, match=r"^level must lie in 1..3, got 1.5$"):
        tree_width(star, 0, 3, 1.5)


def test_tree_widths_path_and_isolated():
    p3 = load_fixture("path3")
    assert list(tree_widths(p3, 1, 3)) == [1, 2, 2]
    assert list(tree_widths(p3, 0, 4)) == [1, 1, 2, 2]
    iso = load_fixture("single_node")
    assert list(tree_widths(iso, 0, 3)) == [1, 0, 0]


def test_tree_widths_bitwise_equal_per_node_loop():
    one = AttributedGraph(np.ones((1, 1)), [])
    isolated = AttributedGraph(np.ones((5, 1)), [(0, 1), (1, 2)])
    dense = random_graph(14, 0.85, 1, seed=1)
    wide = random_graph(16, 0.5, 1, seed=0)
    for g in (one, isolated, dense, wide, random_graph(9, 0.3, 1, seed=4)):
        for v in range(g.node_count):
            for depth in (1, 2, 3, 5):
                got = tree_widths(g, v, depth)
                want = reference_tree_widths(g, v, depth)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_widths_exact_up_to_int64_then_an_error_names_the_depth():
    g = molecule18()
    for v in range(g.node_count):
        want = reference_tree_widths(g, v, 45)
        got = tree_widths(g, v, 45)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with pytest.raises(OverflowError):
        reference_tree_widths(g, 1, 46)
    with pytest.raises(ConfigError, match=r"^tree widths overflow int64 at depth 46; "):
        tree_widths(g, 1, 46)
    with pytest.raises(ConfigError, match=r"^tree widths overflow int64 at depth 46; "):
        tree_widths(g, 1, 60)


def test_widths_match_materialised_tree():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_graph(int(rng.integers(1, 7)), 0.5, 1, int(rng.integers(1 << 30)))
        v = int(rng.integers(g.node_count))
        depth = int(rng.integers(1, 5))
        widths = tree_widths(g, v, depth)

        def level_count(tree, level):
            if level == 1:
                return 1
            return sum(level_count(c, level - 1) for c in tree.children)

        t = computation_tree(g, v, depth)
        for level in range(1, depth + 1):
            assert widths[level - 1] == level_count(t, level)


def test_bitmask_assignment_matches_known_and_limits():
    assert _bitmask_assignment([]) == 0.0
    assert _bitmask_assignment([[3.0]]) == 3.0
    assert _bitmask_assignment([[0.0, 1.0], [1.0, 0.0]]) == 0.0
    c = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]
    assert _bitmask_assignment(c) == 5.0  # 1 + 2 + 2
    with pytest.raises(ValueError):
        _bitmask_assignment([[0.0] * 13] * 13)


def test_blank_distance_equals_tree_norm():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_graph(int(rng.integers(1, 7)), 0.5, 2, int(rng.integers(1 << 30)))
        v = int(rng.integers(g.node_count))
        depth = int(rng.integers(1, 4))
        for mode in ("sum", "mean"):
            t = computation_tree(g, v, depth)
            d = naive_tree_distance(t, blank_tree(2), CFG(depth, mode))
            assert d == pytest.approx(tree_norm(g, v, depth, CFG(depth, mode)),
                               rel=1e-12, abs=1e-12)


def test_mixed_depth_comparison_uses_max_depth():
    # depth-1 tree against depth-3 tree: recursion must pad with blanks,
    # charging the deeper side's subtrees at their norms
    p3 = load_fixture("path3")
    deep = computation_tree(p3, 1, 3)
    shallow = computation_tree(p3, 1, 1)
    d = naive_tree_distance(deep, shallow, CFG(3))
    # base 0 + w * (norm of both depth-2 leaf subtrees)
    want = 2.0 * tree_norm(p3, 0, 2, CFG(2))
    assert d == pytest.approx(want, rel=1e-12)


def test_computation_tree_validation():
    g = load_fixture("path3")
    with pytest.raises(IndexError):
        computation_tree(g, 5, 2)
    with pytest.raises(IndexError, match="node 0.5 out of range for 3 nodes"):
        computation_tree(g, 0.5, 2)
    with pytest.raises(ValueError):
        computation_tree(g, 0, 0)
