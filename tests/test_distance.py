"""The dynamic-programming distance: frozen examples, metric laws, naive
parity, byte-for-byte parity with the per-cell reference and native-call
counts."""

import ast
import cProfile
import itertools
import pstats
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import treemover.distance as distance_module
from treemover import (AttributedGraph, ConfigError, GraphDataset, TmdConfig,
                       constant_weights, dataset_w1, drop_node,
                       edge_drop_bound, edit_sequence_bound, lipschitz_check, naive_tmd,
                       node_drop_bound, node_perturbation_bound, pairwise_tmd,
                       pascal_weights, permute_nodes, random_gin, random_graph,
                       shift_report, tmd, tree_distance, tree_norm, tree_norm_levels)

from conftest import load_fixture
from references import canonical, reference_tables, reference_tmd

W1 = constant_weights(1.0)


def cfg(depth, mode="sum", schedule=W1):
    return TmdConfig(depth, schedule, mode)


# ------------------------------------------------------------ frozen values


def test_identical_graphs_zero_at_any_depth():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_graph(int(rng.integers(1, 9)), 0.5, 2,
                         int(rng.integers(1 << 30)))
        for L in (1, 2, 4):
            assert tmd(g, g, cfg(L)) == 0.0
            assert tmd(g, g, cfg(L, "mean")) == 0.0


def test_single_nodes_give_feature_distance_any_depth():
    a = AttributedGraph(np.array([[1.0, 0.0]]), [])
    b = AttributedGraph(np.array([[0.0, 1.0]]), [])
    for L in (1, 2, 3, 5):
        assert tmd(a, b, cfg(L)) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert tmd(a, b, cfg(L, "mean")) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_edge_pair_vs_single_node_depth2():
    edge = load_fixture("edge_pair")
    single = load_fixture("single_node")
    # trees: matched roots cost |1-1| + w(1)*OT over children {T_b} vs {};
    # padded blank costs norm 1; unmatched root costs its depth-2 norm 2
    assert tmd(edge, single, cfg(2)) == 3.0


def test_cycle_pair_indistinguishable_all_depths():
    c3c3 = load_fixture("c3c3")
    c6 = load_fixture("c6")
    for L in range(1, 6):
        assert tmd(c3c3, c6, cfg(L)) == 0.0
        assert tmd(c3c3, c6, cfg(L, "mean", pascal_weights(5))) == 0.0


def test_empty_graph_against_graph_sums_tree_norms():
    g = load_fixture("path3")
    empty = AttributedGraph(np.zeros((0, 1)), [])
    for L in (1, 2, 3):
        want = sum(tree_norm(g, v, L, cfg(L)) for v in range(3))
        assert tmd(empty, g, cfg(L)) == pytest.approx(want, rel=1e-12)
        want_mean = sum(tree_norm(g, v, L, cfg(L, "mean")) for v in range(3)) / 3
        assert tmd(empty, g, cfg(L, "mean")) == pytest.approx(want_mean, rel=1e-12)
    assert tmd(empty, empty, cfg(3)) == 0.0


def test_depth1_is_feature_transport_and_mean_scaling():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ga = random_graph(int(rng.integers(1, 8)), 0.4, 2, int(rng.integers(1 << 30)))
        gb = random_graph(int(rng.integers(1, 8)), 0.4, 2, int(rng.integers(1 << 30)))
        s = max(ga.node_count, gb.node_count)
        d_sum = tmd(ga, gb, cfg(1))
        d_mean = tmd(ga, gb, cfg(1, "mean"))
        assert d_mean == pytest.approx(d_sum / s, rel=1e-12, abs=1e-15)


# -------------------------------------------------------------- the tables


def _pair_tables(ga, gb, c):
    """The engine's depth tables 1..c.depth of one pair, as (n_a + 1, n_b + 1)
    arrays."""
    pair = (distance_module.prepare_graph(ga), distance_module.prepare_graph(gb))
    shape = (ga.node_count + 1, gb.node_count + 1)
    return [t.reshape(shape) for t in distance_module._batch_tables([pair], c)[0]]


def test_level1_table_is_feature_distance_plus_norms():
    ga = random_graph(4, 0.5, 3, seed=2)
    gb = random_graph(3, 0.5, 3, seed=3)
    [t1] = _pair_tables(ga, gb, cfg(1))
    # the table's rows and columns are in stable-class order
    xa, xb = canonical(ga).features, canonical(gb).features
    for u in range(4):
        for v in range(3):
            want = np.linalg.norm(xa[u] - xb[v])
            assert t1[u, v] == pytest.approx(want, rel=1e-15)
    np.testing.assert_allclose(t1[:-1, -1], np.linalg.norm(xa, axis=1))
    np.testing.assert_allclose(t1[-1, :-1], np.linalg.norm(xb, axis=1))
    assert t1[4, 3] == 0.0
    assert t1.tobytes() == reference_tables(ga, gb, cfg(1))[0].tobytes()


def test_table_norm_columns_match_tree_norm():
    # tree_norm builds a graph's tables per call: one node a side and depth
    for mode in ("sum", "mean"):
        c = TmdConfig(4, pascal_weights(4), mode)
        for ga, gb in _differential_pairs():
            for depth, ref in enumerate(reference_tables(ga, gb, c), start=1):
                for g, norms in ((ga, ref[:-1, -1]), (gb, ref[-1, :-1])):
                    if g.node_count:
                        v = depth % g.node_count
                        pos = distance_module.prepare_graph(g).pos
                        assert np.float64(tree_norm(g, v, depth, c)).tobytes() == \
                            norms[pos[v]].tobytes()


def test_edge_pair_tree_norms_depth2():
    edge = load_fixture("edge_pair")
    assert tree_norm(edge, 0, 2, cfg(2)) == 2.0
    assert tree_norm(edge, 1, 2, cfg(2)) == 2.0
    levels = tree_norm_levels(edge, 2, cfg(2))
    np.testing.assert_allclose(levels[0], [1.0, 1.0])
    np.testing.assert_allclose(levels[1], [2.0, 2.0])


def test_path3_center_vs_leaf_tree_distance():
    p3 = load_fixture("path3")
    assert tree_distance(p3, 1, p3, 0, 2, cfg(2)) == 1.0
    assert tree_distance(p3, 0, p3, 2, 2, cfg(2)) == 0.0  # the two leaves agree
    with pytest.raises(IndexError):
        tree_distance(p3, 3, p3, 0, 2, cfg(2))
    with pytest.raises(IndexError, match="node 1.5 out of range for 3 nodes"):
        tree_distance(p3, 0, p3, 1.5, 2, cfg(2))
    with pytest.raises(IndexError, match="node 0.5 out of range for 3 nodes"):
        tree_norm(p3, 0.5, 2, cfg(2))


@pytest.mark.filterwarnings("ignore:.*all-zero feature vectors:RuntimeWarning")
def test_tree_distance_bitwise_symmetric_in_mean_mode():
    # read in the caller's order, the two orders of this pair differed in the
    # last bit (0x1.b425ed097b425p-1 against 0x1.b425ed097b426p-1)
    ga = AttributedGraph(np.array([[0.5], [0.0], [0.0]]), [(0, 2), (1, 2)])
    gb = AttributedGraph(np.array([[0.5], [0.0], [-0.5], [0.0], [0.5], [0.5]]),
                         [(0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)])
    c = TmdConfig(3, pascal_weights(4), "mean")
    assert tree_distance(ga, 0, gb, 3, 3, c).hex() == tree_distance(gb, 3, ga, 0, 3, c).hex()


def test_isolated_node_norm_is_feature_norm_any_depth():
    g = AttributedGraph(np.array([[3.0, 4.0]]), [])
    for L in (1, 2, 5):
        assert tree_norm(g, 0, L, cfg(L)) == 5.0


def test_feature_dim_mismatch_rejected():
    a = AttributedGraph(np.ones((2, 2)), [(0, 1)])
    b = AttributedGraph(np.ones((2, 3)), [(0, 1)])
    with pytest.raises(ValueError):
        tmd(a, b, cfg(2))


def test_zero_feature_rows_warn():
    g = AttributedGraph(np.array([[0.0], [1.0]]), [(0, 1)])
    h = load_fixture("edge_pair")
    with pytest.warns(RuntimeWarning):
        tmd(g, h, cfg(2))


def test_empty_graphs_of_different_feature_dims_rejected():
    a, b = AttributedGraph(np.zeros((0, 3)), []), AttributedGraph(np.zeros((0, 5)), [])
    for fn in (tmd, naive_tmd):
        with pytest.raises(ValueError, match="feature dimensions differ: 3 vs 5"):
            fn(a, b, cfg(2))


def test_norms_at_depth_zero_raise_config_error():
    g = load_fixture("edge_pair")
    with pytest.raises(ConfigError, match="depth must be an integer >= 1, got 0"):
        tree_norm_levels(g, 0, cfg(2))
    with pytest.raises(ConfigError, match="depth must be an integer >= 1, got 0"):
        tree_norm(g, 1, 0, cfg(2))


def _zero_row_calls():
    """One call of every entry that can warn about all-zero feature vectors."""
    g = AttributedGraph(np.array([[0.0], [1.0], [2.0]]), [(0, 1), (1, 2)])
    h = load_fixture("edge_pair")
    c = cfg(2)
    model = random_gin(1, 2, 1, seed=0)
    return {
        "tmd": lambda: tmd(g, h, c),
        "tree_distance": lambda: tree_distance(g, 0, h, 0, 2, c),
        "tree_norm": lambda: tree_norm(g, 1, 2, c),
        "tree_norm_levels": lambda: tree_norm_levels(g, 2, c),
        "pairwise_tmd": lambda: pairwise_tmd(GraphDataset([g, h]), None, c),
        "dataset_w1": lambda: dataset_w1(GraphDataset([g]), GraphDataset([h]), c),
        "shift_report": lambda: shift_report(GraphDataset([h]), [GraphDataset([g])], c),
        "node_drop_bound": lambda: node_drop_bound(g, 2, c),
        "edge_drop_bound": lambda: edge_drop_bound(g, 1, 2, c),
        "node_perturbation_bound": lambda: node_perturbation_bound(g, 2, [3.0], c),
        "edit_sequence_bound": lambda: edit_sequence_bound(g, [("drop_node", 2)], c),
        "lipschitz_check": lambda: lipschitz_check(model, g, h),
    }


@pytest.mark.parametrize("entry", sorted(_zero_row_calls()))
def test_zero_feature_warning_names_the_callers_line(entry):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _zero_row_calls()[entry]()
    found = [w for w in caught if "all-zero feature vectors" in str(w.message)]
    assert found
    assert all(w.filename == __file__ for w in found), [w.filename for w in found]


# ------------------------------------------------------------- metric laws


def _random_pair_config(rng):
    L = int(rng.integers(1, 5))
    schedule = constant_weights(float(rng.uniform(0.3, 1.5))) \
        if rng.random() < 0.5 else pascal_weights(4, float(rng.uniform(0.5, 2.0)))
    mode = "sum" if rng.random() < 0.5 else "mean"
    return TmdConfig(L, schedule, mode)


def test_pseudometric_laws_fuzz():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        c = _random_pair_config(rng)
        graphs = [
            random_graph(int(rng.integers(1, 10)), float(rng.uniform(0.2, 0.9)),
                         2, int(rng.integers(1 << 30)))
            for _ in range(3)
        ]
        ga, gb, gc = graphs
        dab = tmd(ga, gb, c)
        dba = tmd(gb, ga, c)
        assert dab == dba  # bitwise, via canonical argument ordering
        assert dab >= 0.0
        assert tmd(ga, ga, c) == 0.0
        if c.mode == "sum":
            # Mean mode fails the triangle inequality on size-mismatched
            # triples; see test_mean_mode_triangle_counterexample.
            dac = tmd(ga, gc, c)
            dcb = tmd(gc, gb, c)
            assert dab <= dac + dcb + 1e-9 * max(1.0, dab, dac, dcb)


def test_mean_mode_triangle_counterexample():
    # Dividing the final transport by max(m, n) normalizes each pair by a
    # different denominator. A small near-blank graph between two singletons
    # deflates both legs by 1/5 while the direct distance keeps its full
    # size, so mean mode is not a pseudometric across differing node counts.
    a = AttributedGraph(np.array([[1.0]]), [])
    mid = AttributedGraph(np.full((5, 1), 0.01), [])
    b = AttributedGraph(np.array([[-1.0]]), [])
    c = cfg(1, "mean")
    d_am = tmd(a, mid, c)
    d_mb = tmd(mid, b, c)
    d_ab = tmd(a, b, c)
    assert d_am == pytest.approx(1.03 / 5, rel=1e-12)
    assert d_mb == pytest.approx(1.05 / 5, rel=1e-12)
    assert d_ab == pytest.approx(2.0, rel=1e-15)
    assert d_ab > d_am + d_mb  # the violation
    # Sum mode keeps the full transport cost per pair and stays metric here.
    cs = cfg(1, "sum")
    assert tmd(a, b, cs) <= tmd(a, mid, cs) + tmd(mid, b, cs)


def test_isomorphism_invariance():
    rng = np.random.default_rng(77)
    for _ in range(20):
        g = random_graph(int(rng.integers(2, 9)), 0.5, 3, int(rng.integers(1 << 30)))
        h = permute_nodes(g, rng.permutation(g.node_count))
        c = _random_pair_config(rng)
        assert tmd(g, h, c) == 0.0


def test_homogeneity_under_feature_scaling():
    rng = np.random.default_rng(88)
    for _ in range(15):
        ga = random_graph(int(rng.integers(1, 8)), 0.5, 2, int(rng.integers(1 << 30)))
        gb = random_graph(int(rng.integers(1, 8)), 0.5, 2, int(rng.integers(1 << 30)))
        c = _random_pair_config(rng)
        s = float(rng.uniform(0.1, 4.0))
        scaled_a = AttributedGraph(s * ga.features, ga.edges)
        scaled_b = AttributedGraph(s * gb.features, gb.edges)
        assert tmd(scaled_a, scaled_b, c) == pytest.approx(
            s * tmd(ga, gb, c), rel=1e-9)


def test_determinism_bitwise():
    ga = random_graph(7, 0.5, 3, seed=101)
    gb = random_graph(6, 0.5, 3, seed=202)
    c = cfg(3, "sum", pascal_weights(3))
    first = tmd(ga, gb, c)
    for _ in range(3):
        assert tmd(ga, gb, c) == first


def test_signed_zeros_do_not_change_the_canonical_order():
    feats = np.array([[0.0, -0.2], [0.3, 0.0], [0.1, 0.0], [-0.8, 0.2]])
    edges = [(0, 1), (0, 2), (0, 3), (2, 3)]
    a = AttributedGraph(feats, edges)
    a_neg = AttributedGraph(np.where(feats == 0.0, -0.0, feats), edges)
    b = AttributedGraph(np.array([[0.0, 0.4], [-0.7, -0.4], [0.0, -0.9], [-0.8, -1.0]]))
    c = cfg(3, "sum", constant_weights(0.5))
    assert a == a_neg and hash(a) == hash(a_neg)
    assert distance_module.prepare_graph(a).key == distance_module.prepare_graph(a_neg).key
    assert tmd(a_neg, b, c).hex() == tmd(a, b, c).hex()


def test_relabelling_keeps_the_orientation_of_equal_feature_graphs():
    # equal sorted features, different edges: the pair's two orientations
    # differ in the last bit, so its key orders it by the edges as well
    x = np.array([[-0.3], [0.3], [0.4], [0.1]])
    a = AttributedGraph(x, [(0, 1), (1, 2), (1, 3)])
    b = AttributedGraph(x, [(0, 3), (2, 3)])
    c = TmdConfig(3, pascal_weights(4), "sum")
    pa, pb = distance_module.prepare_graph(a), distance_module.prepare_graph(b)
    assert pa.features.tobytes() == pb.features.tobytes()
    both = set()
    for pair in ((pa, pb), (pb, pa)):
        tables, starts = distance_module._batch_tables([pair], c)
        buckets = distance_module._root_buckets([pair], starts)
        both |= {float(distance_module._child_costs(tables[-1], *buckets, 1, False)[0])}
    assert len(both) == 2
    want = tmd(a, b, c)
    assert want in both and tmd(b, a, c) == want
    for perm in itertools.permutations(range(4)):
        assert tmd(permute_nodes(a, perm), permute_nodes(b, perm[::-1]), c) == want


def test_relabelling_keeps_the_orientation_of_graphs_with_classes_of_several_nodes():
    # b's stable classes hold several nodes each, so a key of neighbour
    # positions flips the pair with the order inside a class; the record key
    # holds neighbour classes, so no relabelling of b moves a bit
    ones = np.ones((6, 1))
    a = AttributedGraph(ones, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5),
                               (3, 5), (4, 5)])
    b = AttributedGraph(ones, [(0, 1), (0, 3), (0, 5), (1, 2), (2, 5), (3, 4), (4, 5)])
    c = TmdConfig(3, pascal_weights(4), "sum")
    want = tmd(a, b, c).hex()
    relabelled = [permute_nodes(b, perm) for perm in itertools.permutations(range(6))]
    assert {tmd(a, h, c).hex() for h in relabelled} == {want}
    cells = pairwise_tmd(GraphDataset([a]), GraphDataset(relabelled), c).values[0]
    assert {v.hex() for v in cells.tolist()} == {want}


# ------------------------------------------------------------ naive parity


def test_naive_matches_dp_on_frozen_examples():
    edge = load_fixture("edge_pair")
    single = load_fixture("single_node")
    c3c3 = load_fixture("c3c3")
    c6 = load_fixture("c6")
    assert naive_tmd(edge, single, cfg(2)) == 3.0
    assert naive_tmd(c3c3, c6, cfg(4)) == 0.0
    p3 = load_fixture("path3")
    tri = load_fixture("triangle")
    for L in (1, 2, 3):
        for mode in ("sum", "mean"):
            c = cfg(L, mode)
            assert naive_tmd(p3, tri, c) == pytest.approx(
                tmd(p3, tri, c), rel=1e-12, abs=1e-12)


def test_naive_matches_dp_fuzz():
    rng = np.random.default_rng(31337)
    for _ in range(30):
        c = TmdConfig(
            int(rng.integers(1, 5)),
            constant_weights(float(rng.uniform(0.3, 1.2)))
            if rng.random() < 0.5 else pascal_weights(4),
            "sum" if rng.random() < 0.5 else "mean",
        )
        ga = random_graph(int(rng.integers(1, 8)), 0.5, 2, int(rng.integers(1 << 30)))
        gb = random_graph(int(rng.integers(1, 8)), 0.5, 2, int(rng.integers(1 << 30)))
        assert naive_tmd(ga, gb, c) == pytest.approx(
            tmd(ga, gb, c), rel=1e-9, abs=1e-12)


def test_naive_size_guard():
    big = random_graph(11, 0.3, 1, seed=0)
    small = random_graph(3, 0.3, 1, seed=1)
    with pytest.raises(ValueError):
        naive_tmd(big, small, cfg(2))
    with pytest.raises(ValueError):
        naive_tmd(small, small, cfg(5, schedule=constant_weights(1.0)))
    # explicit limits override
    assert naive_tmd(big, big, cfg(2), max_nodes=12) == 0.0


# --------------------------------------------- against tests/references.py
#
# The engine's tables, norms and graph-level transports, byte for byte
# against the per-cell loops of `references.reference_tables` and
# `reference_tmd`, and its native assignment calls counted by cProfile.


def test_reference_reads_nothing_of_the_engine():
    tree = ast.parse(Path(__file__).with_name("references.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {(node.module, alias.name) for alias in node.names}
    assert {(m, a) for m, a in names if m.split(".")[0] == "treemover"} == {
        ("treemover.distance", "prepare_graph"), ("treemover.graphs", "AttributedGraph"),
        ("treemover.graphs", "permute_nodes"), ("treemover.ot", "_padded_matrix"),
        ("treemover.ot", "_peel_flows")}


def _differential_pairs():
    empty = AttributedGraph(np.zeros((0, 3)), [])
    one = AttributedGraph(np.array([[1.0, 0.5, 0.0]]), [])
    other = AttributedGraph(np.array([[0.0, 2.0, 1.0]]), [])
    # nodes 3 and 4 are isolated; 0-1-2 is a path
    isolated = AttributedGraph(np.arange(15.0).reshape(5, 3) / 7.0 + 0.1,
                               [(0, 1), (1, 2)])
    sparse = random_graph(9, 0.3, 3, seed=4)
    dense = [random_graph(14, 0.85, 3, seed=s) for s in (1, 2)]
    assert min(min(len(a) for a in g.neighbors) for g in dense) >= 8
    # degrees 4..11: neighbour sums on both sides of numpy's 8-way unrolling
    wide = random_graph(16, 0.5, 3, seed=0)
    rng = np.random.default_rng(606)
    mixed = [random_graph(int(rng.integers(1, 12)), float(rng.uniform(0.1, 0.9)),
                          3, int(rng.integers(1 << 30))) for _ in range(6)]
    return [(empty, isolated), (empty, dense[0]), (one, other), (one, isolated),
            (isolated, sparse), (isolated, dense[1]), (sparse, dense[0]),
            (dense[0], dense[1]), (dense[1], isolated), (wide, sparse),
            (wide, dense[0])] + list(zip(mixed, mixed[1:]))


@pytest.mark.parametrize("mode", ["sum", "mean"])
def test_tables_bitwise_equal_per_cell_reference(mode):
    for schedule in (constant_weights(0.7), pascal_weights(4)):
        c = TmdConfig(4, schedule, mode)
        for ga, gb in _differential_pairs():
            pairs = ((ga, gb), (gb, ga))
            wants = [reference_tables(a, b, c) for a, b in pairs]
            for (a, b), want, back in zip(pairs, wants, wants[::-1]):
                assert [t.tobytes() for t in _pair_tables(a, b, c)] == \
                    [t.tobytes() for t in want]
                # tree_distance builds a pair's tables per call: every cell of
                # a small pair, one cell a depth of a larger one, each read in
                # the pair's (record key, node position) order
                ra, rb = (distance_module.prepare_graph(g) for g in (a, b))
                for depth in range(1, len(want) + 1):
                    cells = [(u, v) for u in range(a.node_count) for v in range(b.node_count)]
                    if len(cells) > 64:
                        cells = [(depth % a.node_count, 3 * depth % b.node_count)]
                    for u, v in cells:
                        i, j = ra.pos[u], rb.pos[v]
                        ref = (back[depth - 1][j, i] if (rb.key, j) < (ra.key, i)
                               else want[depth - 1][i, j])
                        got_cell = tree_distance(a, u, b, v, depth, c)
                        assert np.float64(got_cell).tobytes() == ref.tobytes()
            for depth in (1, 2, 3, 4):
                cd = TmdConfig(depth, schedule, mode)
                want = reference_tmd(ga, gb, cd)
                assert np.float64(tmd(ga, gb, cd)).tobytes() == np.float64(want).tobytes()
                assert tmd(gb, ga, cd) == tmd(ga, gb, cd)


@pytest.mark.parametrize("mode", ["sum", "mean"])
def test_norm_levels_bitwise_equal_per_node_loop(mode):
    c = TmdConfig(4, pascal_weights(4), mode)
    for g in {g for pair in _differential_pairs() for g in pair}:
        got = tree_norm_levels(g, 4, c)
        want = reference_tables(g, AttributedGraph(np.zeros((0, 3)), []), c)
        pos = distance_module.prepare_graph(g).pos
        assert [lv.tobytes() for lv in got] == [t[:-1, -1][pos].tobytes() for t in want]


def _profiled_assignments(fn, *args):
    """The native assignment calls that cProfile sees while fn(*args) runs."""
    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    return sum(stat[1] for (path, _, func), stat in pstats.Stats(profile).stats.items()
               if path == "~" and func.endswith("linear_sum_assignment>"))


def _expected_assignments(ga, gb, depth):
    """One native call per child transport of two trees with children at
    depths 2..depth, and one for the final transport of two non-empty graphs."""
    with_children = [sum(len(a) > 0 for a in g.neighbors) for g in (ga, gb)]
    final = int(ga.node_count > 0 and gb.node_count > 0)
    return (depth - 1) * with_children[0] * with_children[1] + final


def test_profiler_sees_one_assignment_per_child_transport_and_final():
    # the native function is a builtin: a profiler counts its calls only when
    # Python code makes them, not when map() or another C function does
    for ga, gb in _differential_pairs():
        for depth in (1, 2, 3, 4):
            seen = _profiled_assignments(tmd, ga, gb, cfg(depth))
            assert seen == _expected_assignments(ga, gb, depth)


def test_profiler_sees_one_assignment_per_child_transport_across_a_matrix():
    graphs = _differential_graphs()
    rows, cols = graphs[:len(graphs) // 2], graphs[len(graphs) // 2:]
    for depth in (1, 2, 3, 4):
        seen = _profiled_assignments(pairwise_tmd, GraphDataset(graphs), None, cfg(depth))
        assert seen == sum(_expected_assignments(ga, gb, depth)
                           for i, ga in enumerate(graphs) for gb in graphs[i + 1:])
        seen = _profiled_assignments(pairwise_tmd, GraphDataset(rows),
                                     GraphDataset(cols), cfg(depth), 1)
        assert seen == sum(_expected_assignments(ga, gb, depth) for ga in rows for gb in cols)


def _counting_assignments(monkeypatch):
    """The shapes of every call through `distance.linear_sum_assignment`,
    made from Python or from C, once the module's name is patched."""
    calls = []

    def counting(c):
        calls.append(c.shape)
        return linear_sum_assignment(c)

    monkeypatch.setattr(distance_module, "linear_sum_assignment", counting)
    return calls


def test_one_assignment_per_child_transport_and_final(monkeypatch):
    calls = _counting_assignments(monkeypatch)
    for ga, gb in _differential_pairs():
        for depth in (1, 2, 3, 4):
            calls.clear()
            tmd(ga, gb, cfg(depth))
            assert len(calls) == _expected_assignments(ga, gb, depth)


def test_one_assignment_per_child_transport_across_a_matrix(monkeypatch):
    calls = _counting_assignments(monkeypatch)
    graphs = _differential_graphs()
    rows, cols = graphs[:len(graphs) // 2], graphs[len(graphs) // 2:]
    for depth in (1, 2, 3, 4):
        calls.clear()
        pairwise_tmd(GraphDataset(graphs), None, cfg(depth))
        assert len(calls) == sum(_expected_assignments(ga, gb, depth)
                                 for i, ga in enumerate(graphs) for gb in graphs[i + 1:])
        calls.clear()
        pairwise_tmd(GraphDataset(rows), GraphDataset(cols), cfg(depth))
        assert len(calls) == sum(_expected_assignments(ga, gb, depth)
                                 for ga in rows for gb in cols)


def test_profiler_sees_one_assignment_per_child_transport_of_a_certificate():
    # the bound's norms are tables against the empty graph, all leaf cells,
    # so its one exact distance makes every native call
    for g in _differential_graphs():
        for v in range(min(g.node_count, 3)):
            edited = drop_node(g, v)
            for depth in (1, 3):
                seen = _profiled_assignments(node_drop_bound, g, v, cfg(depth))
                assert seen == _expected_assignments(g, edited, depth)


@pytest.mark.parametrize("mode", ["sum", "mean"])
def test_assignment_columns_read_with_the_solvers_dtype(monkeypatch, mode):
    c = cfg(4, mode, pascal_weights(4))
    pairs = _differential_pairs()
    want = np.array([tmd(ga, gb, c) for ga, gb in pairs])
    calls = []

    def narrow(m):
        rows, cols = linear_sum_assignment(m)
        calls.append(m.shape)
        return rows.astype(np.int32), cols.astype(np.int32)

    monkeypatch.setattr(distance_module, "linear_sum_assignment", narrow)
    got = np.array([tmd(ga, gb, c) for ga, gb in pairs])
    assert calls
    assert got.tobytes() == want.tobytes()


def _differential_batch():
    """Every differential pair in both orders, as one batch and as the
    `canonical` graphs whose node ids are the batch's positions."""
    graphs = [(a, b) for ga, gb in _differential_pairs() for a, b in ((ga, gb), (gb, ga))]
    prepared = {g: distance_module.prepare_graph(g) for pair in graphs for g in pair}
    return ([(canonical(a), canonical(b)) for a, b in graphs],
            [(prepared[a], prepared[b]) for a, b in graphs])


def test_child_buckets_hold_every_eligible_pair_once():
    graphs, batch = _differential_batch()
    starts, ia, ib, core = distance_module._batch_layout(batch)
    # the cells are the entries of the pairs' tables, blanks included
    where = [(p, u, v) for p, (a, b) in enumerate(graphs)
             for u in range(a.node_count + 1) for v in range(b.node_count + 1)]
    first_a = np.cumsum([0] + [a.node_count + 1 for a, _ in graphs])
    first_b = np.cumsum([0] + [b.node_count + 1 for _, b in graphs])
    assert starts == [where.index((p, 0, 0)) for p in range(len(graphs))]
    assert ia.tolist() == [first_a[p] + u for p, u, _ in where]
    assert ib.tolist() == [first_b[p] + v for p, _, v in where]
    assert core.tolist() == [i for i, (p, u, v) in enumerate(where)
                             if u < graphs[p][0].node_count and v < graphs[p][1].node_count]
    deg_a = np.concatenate([a.deg for a, _ in batch])[ia]
    deg_b = np.concatenate([b.deg for _, b in batch])[ib]
    seen = {}
    transports, leaves = distance_module._child_buckets(
        *distance_module._child_index(batch, starts), ia, ib, deg_a, deg_b)
    for cells, gather, offs, s in transports:
        assert gather.shape == (len(cells), s, s)
        assert offs.shape == (len(cells), s)
        for q, cell in enumerate(cells.tolist()):
            p, u, v = where[cell]
            a, b = graphs[p]
            na, nb = a.node_count, b.node_count
            assert (p, u, v) not in seen
            seen[p, u, v] = s
            row_a = list(a.neighbors[u]) + [na] * (s - len(a.neighbors[u]))
            row_b = list(b.neighbors[v]) + [nb] * (s - len(b.neighbors[v]))
            assert gather[q].tolist() == [[starts[p] + x * (nb + 1) + y for y in row_b]
                                          for x in row_a]
            assert offs[q].tolist() == [q * s * s + i * s for i in range(s)]
    want = {(p, u, v): max(len(a.neighbors[u]), len(b.neighbors[v]))
            for p, (a, b) in enumerate(graphs)
            for u in range(a.node_count) for v in range(b.node_count)
            if a.neighbors[u] and b.neighbors[v]}
    assert seen == want
    # a tree against a leaf (the blank included) sums its children's entries
    # in the blank column (a-side tree) or the blank row (b-side tree)
    seen = {}
    for cells, gather, d in leaves:
        assert gather.shape == (len(cells), d)
        assert cells.tolist() == sorted(cells.tolist())
        for q, cell in enumerate(cells.tolist()):
            p, u, v = where[cell]
            a, b = graphs[p]
            na, nb = a.node_count, b.node_count
            assert (p, u, v) not in seen
            seen[p, u, v] = d
            if u < na and a.neighbors[u]:
                want_row = [starts[p] + x * (nb + 1) + nb for x in a.neighbors[u]]
            else:
                want_row = [starts[p] + na * (nb + 1) + y for y in b.neighbors[v]]
            assert gather[q].tolist() == want_row
    nbrs = [([list(a.neighbors[u]) for u in range(a.node_count)] + [[]],
             [list(b.neighbors[v]) for v in range(b.node_count)] + [[]]) for a, b in graphs]
    want = {(p, u, v): len(side_a[u]) + len(side_b[v])
            for p, (side_a, side_b) in enumerate(nbrs)
            for u in range(len(side_a)) for v in range(len(side_b))
            if bool(side_a[u]) != bool(side_b[v])}
    assert seen == want
    # graphs narrower than the batch's widest neighbour list take the widen path
    assert len({g.pad.shape[1] for pair in batch for g in pair}) > 1


def _with_two_empty_graphs(graphs, batch):
    """The differential batch plus a pair of two empty graphs."""
    empty = AttributedGraph(np.zeros((0, 3)), [])
    blank = distance_module.prepare_graph(empty)
    return graphs + [(empty, empty)], batch + [(blank, blank)]


def test_root_buckets_hold_one_cell_per_pair():
    graphs, batch = _with_two_empty_graphs(*_differential_batch())
    c = TmdConfig(2, pascal_weights(4), "sum")
    tables, starts = distance_module._batch_tables(batch, c)
    transports, leaves = distance_module._root_buckets(batch, starts)
    lasts = [tables[-1][lo:lo + (a.node_count + 1) * (b.node_count + 1)]
             .reshape(a.node_count + 1, b.node_count + 1) for (a, b), lo in zip(graphs, starts)]
    seen = {}
    # two non-empty graphs: a transport of size max(n_a, n_b) over the root
    # trees, padded with the blank row or column of the last table
    for cells, gather, offs, s in transports:
        assert gather.shape == (len(cells), s, s)
        for q, p in enumerate(cells.tolist()):
            assert p not in seen
            seen[p] = s
            na, nb = lasts[p].shape[0] - 1, lasts[p].shape[1] - 1
            pick = np.arange(s)
            want = lasts[p][np.minimum(pick, na)[:, None], np.minimum(pick, nb)]
            assert tables[-1].take(gather[q]).tobytes() == want.tobytes()
            assert offs[q].tolist() == [q * s * s + i * s for i in range(s)]
    # one empty graph: the leaf rule, the other graph's blank column or row
    for cells, gather, d in leaves:
        assert cells.tolist() == sorted(cells.tolist())
        for q, p in enumerate(cells.tolist()):
            assert p not in seen
            seen[p] = -d
            na, nb = lasts[p].shape[0] - 1, lasts[p].shape[1] - 1
            want = lasts[p][:na, nb] if na else lasts[p][na, :nb]
            assert tables[-1].take(gather[q]).tobytes() == want.tobytes()
    # two empty graphs: no cell, so the value is 0
    want = {p: max(a.node_count, b.node_count) if a.node_count and b.node_count
            else -(a.node_count + b.node_count)
            for p, (a, b) in enumerate(graphs) if a.node_count or b.node_count}
    assert seen == want
    assert len(want) == len(graphs) - 1 and min(want.values()) < 0


@pytest.mark.parametrize("mode", ["sum", "mean"])
def test_pair_distances_bitwise_equal_final_cost_reference(mode):
    graphs, batch = _with_two_empty_graphs(*_differential_batch())
    for schedule in (constant_weights(0.7), pascal_weights(4)):
        for depth in (1, 2, 4):
            c = TmdConfig(depth, schedule, mode)
            got = np.array(distance_module.pair_distances(batch, c))
            want = np.array([reference_tmd(a, b, c) for a, b in graphs])
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["sum", "mean"])
def test_batch_tables_bitwise_equal_per_cell_reference(mode):
    for schedule in (constant_weights(0.7), pascal_weights(4)):
        c = TmdConfig(4, schedule, mode)
        graphs, batch = _differential_batch()
        tables, starts = distance_module._batch_tables(batch, c)
        ends = [lo + (a.node_count + 1) * (b.node_count + 1)
                for (a, b), lo in zip(graphs, starts)]
        assert ends[-1] == len(tables[-1])
        for (a, b), lo, hi in zip(graphs, starts, ends):
            want = reference_tables(a, b, c)
            assert [t[lo:hi].tobytes() for t in tables] == [t.tobytes() for t in want]


@pytest.mark.parametrize("mode", ["sum", "mean"])
def test_one_record_per_graph_serves_every_config(mode):
    graphs = _differential_graphs()
    records = {g: distance_module.prepare_graph(g) for g in graphs}
    for schedule in (constant_weights(0.7), pascal_weights(4)):
        for depth in (1, 2, 3, 4):
            c = TmdConfig(depth, schedule, mode)
            for ga, gb in _differential_pairs():
                got = distance_module.prepared_tmd(records[ga], records[gb], c)
                assert np.float64(got).tobytes() == np.float64(tmd(ga, gb, c)).tobytes()
                assert [lv.tobytes() for lv in
                        distance_module.prepared_norm_levels(records[ga], c)] == \
                    [lv.tobytes() for lv in tree_norm_levels(ga, depth, c)]


def test_pair_distances_split_at_the_entry_bound(monkeypatch):
    c = TmdConfig(3, pascal_weights(4), "sum")
    _, batch = _differential_batch()
    assert len(list(distance_module._batches(batch))) == 1
    whole = np.array(distance_module.pair_distances(batch, c))
    entries = {(id(a), id(b)): a.node_count * b.node_count
               * max(a.pad.shape[1], b.pad.shape[1]) ** 2 for a, b in batch}
    bound = 5000
    assert max(entries.values()) > bound  # such a pair runs alone
    runs = []
    real = distance_module._batch_tables

    def recording(pairs, cfg):
        runs.append((len(pairs), sum(entries[id(a), id(b)] for a, b in pairs)))
        return real(pairs, cfg)

    monkeypatch.setattr(distance_module, "_BATCH_ENTRIES", bound)
    monkeypatch.setattr(distance_module, "_batch_tables", recording)
    split = np.array(distance_module.pair_distances(batch, c))
    assert split.tobytes() == whole.tobytes()
    assert sum(n for n, _ in runs) == len(batch)
    assert any(n > 1 for n, _ in runs)
    assert all(n == 1 or e <= bound for n, e in runs)


def _differential_graphs():
    """The distinct graphs of the differential pairs, in a fixed order."""
    return list(dict.fromkeys(g for pair in _differential_pairs() for g in pair))


@pytest.mark.parametrize("mode", ["sum", "mean"])
def test_pairwise_cells_bitwise_equal_tmd(mode):
    graphs = _differential_graphs()
    assert {g.node_count for g in graphs} >= {0, 1}
    half = len(graphs) // 2
    ds = GraphDataset(graphs)
    rows, cols = GraphDataset(graphs[:half]), GraphDataset(graphs[half:])
    for depth in (1, 2, 3, 4):
        c = TmdConfig(depth, pascal_weights(4), mode)
        self_matrix = pairwise_tmd(ds, None, c).values
        cross = pairwise_tmd(rows, cols, c).values
        for i, ga in enumerate(graphs):
            for j, gb in enumerate(graphs):
                want = np.float64(tmd(ga, gb, c)).tobytes()
                assert self_matrix[i, j].tobytes() == want
                if i < half <= j:
                    assert cross[i, j - half].tobytes() == want


# ----------------------------------------------------------------- overflow


def test_sum_mode_norm_overflow_raises_config_error():
    ga = random_graph(12, 0.9, 3, seed=0)
    gb = random_graph(12, 0.8, 3, seed=1)
    c = cfg(400, schedule=constant_weights(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        with pytest.raises(ConfigError) as info:
            tmd(ga, gb, c)
    msg = str(info.value)
    match = re.fullmatch(r"tree distances overflow at depth (\d+) under schedule "
                         r"constant:1\.0 \(sum mode\); .*", msg)
    assert match, msg
    depth = int(match.group(1))
    # the named depth is the first whose norms are not finite in either graph
    for g in (ga, gb):
        assert np.all(np.isfinite(tree_norm_levels(g, depth - 1, c)[-1]))
    with pytest.raises(ConfigError, match=f"at depth {depth} "):
        for g in (ga, gb):
            tree_norm_levels(g, depth, c)
    # mean mode stays bounded at the same depth
    assert np.isfinite(tmd(ga, gb, cfg(400, "mean", constant_weights(1.0))))


def _overflow_depth(fn):
    with pytest.raises(ConfigError) as info:
        fn()
    return int(re.search(r"overflow at depth (\d+) ", str(info.value)).group(1))


def test_batch_overflow_names_first_depth_of_any_pair():
    c = cfg(500, schedule=constant_weights(1.0))
    p, s2, s3, d1 = (random_graph(8, 0.5, 3, seed=4), random_graph(12, 0.5, 3, seed=2),
                     random_graph(12, 0.4, 3, seed=3), random_graph(12, 0.8, 3, seed=1))
    prep = {g: distance_module.prepare_graph(g) for g in (p, s2, s3, d1)}
    late, early = (prep[s2], prep[s3]), (prep[d1], prep[p])
    depth_late = _overflow_depth(lambda: distance_module.pair_distances([late], c))
    depth_early = _overflow_depth(lambda: distance_module.pair_distances([early], c))
    assert depth_early < depth_late
    for batch in ([late, early], [early, late]):
        assert _overflow_depth(lambda: distance_module.pair_distances(batch, c)) == depth_early
    # a matrix raises the error of its first row that overflows, at any thread count
    ds = GraphDataset([p, s2, s3, d1])
    row0 = min(_overflow_depth(lambda: tmd(p, g, c)) for g in (s2, s3, d1))
    for threads in (1, 2):
        assert _overflow_depth(lambda: pairwise_tmd(ds, None, c, threads=threads)) == row0
