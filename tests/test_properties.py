"""Property tests on generated graphs (hypothesis, derandomized).

Graphs have at most 12 nodes, so degrees reach 11, and features drawn from
{-1, 0, 0.5, 1}, so neighbour rows tie often. The vectorized GIN forward
pass and tree widths must equal their per-node reference loops bitwise, the
forward pass must be bitwise invariant to node relabelling, and a pair's
distance must not depend on the other pairs of its batch. Every edit bound
covers its exact distance, which is bitwise `tmd`'s; a Lipschitz check's
two sides are bitwise `tmd` and the GIN displacement; and `tmd` agrees with
the naive recursive evaluator on graphs of at most 10 nodes, at depth at
most 3 (its bitmask assignments make depth 4 on dense graphs slow). In sum
mode `tmd` is a pseudometric: bitwise symmetric, 0 on a graph and itself,
and within rounding of the triangle inequality. A matrix's bytes do not
depend on its worker count (few examples: each one forks a pool).

Features of 0 make all-zero rows common, so the distance's warning about
them is silenced where a test computes one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemover import (AttributedGraph, GraphDataset, TmdConfig, constant_weights, drop_edge,
                       drop_node, edge_drop_bound, gin_forward, lipschitz_check,
                       matching_config, naive_tmd, node_drop_bound, node_perturbation_bound,
                       pairwise_tmd, pascal_weights, permute_nodes, perturb_feature,
                       random_gin, tmd, tree_widths)
from treemover.distance import pair_distances, prepare_graph

from references import reference_gin_forward, reference_tree_widths

VALUES = (-1.0, 0.0, 0.5, 1.0)
SCHEDULES = (constant_weights(0.7), pascal_weights(4))
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
ZERO_ROWS = pytest.mark.filterwarnings("ignore:.*all-zero feature vectors:RuntimeWarning")


@st.composite
def graphs(draw, min_nodes=0, dim=None, max_nodes=12):
    n = draw(st.integers(min_nodes, max_nodes))
    dim = draw(st.integers(1, 3)) if dim is None else dim
    feats = draw(st.lists(st.sampled_from(VALUES), min_size=n * dim, max_size=n * dim))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    return AttributedGraph(np.array(feats, dtype=np.float64).reshape(n, dim), edges)


@st.composite
def models(draw, dim):
    return random_gin(dim, draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                      seed=draw(st.integers(0, 2**31 - 1)),
                      aggregation=draw(st.sampled_from(["sum", "mean"])),
                      neighbor_maps=draw(st.booleans()))


@PROPERTY
@given(graphs(), st.data())
def test_gin_forward_equals_per_node_reference(g, data):
    m = data.draw(models(g.feature_dim))
    assert gin_forward(m, g).tobytes() == reference_gin_forward(m, g).tobytes()


@PROPERTY
@given(graphs(), st.data())
def test_gin_forward_bitwise_relabel_invariant(g, data):
    m = data.draw(models(g.feature_dim))
    perm = data.draw(st.permutations(range(g.node_count)))
    assert gin_forward(m, permute_nodes(g, perm)).tobytes() == gin_forward(m, g).tobytes()


@PROPERTY
@given(graphs(min_nodes=1), st.data())
def test_tree_widths_equal_per_node_reference(g, data):
    v = data.draw(st.integers(0, g.node_count - 1))
    depth = data.draw(st.integers(1, 6))
    got = tree_widths(g, v, depth)
    want = reference_tree_widths(g, v, depth)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@PROPERTY
@given(st.data())
def test_pair_distance_independent_of_its_batch(data):
    dim = data.draw(st.integers(1, 3))
    pairs = data.draw(st.lists(st.tuples(graphs(dim=dim), graphs(dim=dim)),
                               min_size=1, max_size=4))
    schedule = data.draw(st.sampled_from([constant_weights(0.7), pascal_weights(3)]))
    c = TmdConfig(data.draw(st.integers(1, 4)), schedule,
                  data.draw(st.sampled_from(["sum", "mean"])))
    batch = [(prepare_graph(a), prepare_graph(b)) for a, b in pairs]
    alone = np.array([pair_distances([p], c)[0] for p in batch])
    order = data.draw(st.permutations(range(len(batch))))
    assert np.array(pair_distances(batch, c)).tobytes() == alone.tobytes()
    shuffled = np.array(pair_distances([batch[i] for i in order], c))
    assert shuffled.tobytes() == alone[list(order)].tobytes()


@st.composite
def configs(draw, max_depth=4):
    """Depth at most 4, so the pascal:4 schedule has every w(L) a bound needs."""
    return TmdConfig(draw(st.integers(1, max_depth)), draw(st.sampled_from(SCHEDULES)),
                     draw(st.sampled_from(["sum", "mean"])))


@ZERO_ROWS
@settings(PROPERTY, max_examples=300)
@given(graphs(min_nodes=1), configs(), st.data())
def test_edit_bounds_cover_their_exact_distance(g, c, data):
    v = data.draw(st.integers(0, g.node_count - 1))
    x = data.draw(st.lists(st.sampled_from(VALUES), min_size=g.feature_dim,
                           max_size=g.feature_dim))
    reports = [(node_drop_bound(g, v, c), drop_node(g, v)),
               (node_perturbation_bound(g, v, x, c), perturb_feature(g, v, x))]
    if g.edges:
        u, w = data.draw(st.sampled_from(g.edges))
        reports.append((edge_drop_bound(g, u, w, c), drop_edge(g, u, w)))
    for rep, edited in reports:
        assert rep.exact_tmd <= rep.bound + 1e-9 * max(1.0, rep.bound), rep.kind
        assert rep.exact_tmd.hex() == tmd(g, edited, c).hex(), rep.kind


@ZERO_ROWS
@PROPERTY
@given(graphs(), st.data())
def test_lipschitz_check_sides_are_tmd_and_the_displacement(ga, data):
    gb = data.draw(graphs(dim=ga.feature_dim))
    m = data.draw(models(ga.feature_dim))
    chk = lipschitz_check(m, ga, gb)
    assert chk.tmd_value.hex() == tmd(ga, gb, matching_config(m)).hex()
    lhs = float(np.linalg.norm(gin_forward(m, ga) - gin_forward(m, gb)))
    assert chk.lhs.hex() == lhs.hex()


@ZERO_ROWS
@settings(PROPERTY, max_examples=150)
@given(st.data())
def test_tmd_matches_naive_evaluator(data):
    dim = data.draw(st.integers(1, 3))
    ga = data.draw(graphs(dim=dim, max_nodes=10))
    gb = data.draw(graphs(dim=dim, max_nodes=10))
    c = data.draw(configs(max_depth=3))
    want = naive_tmd(ga, gb, c)
    assert abs(tmd(ga, gb, c) - want) <= 1e-9 * max(1.0, want)


@ZERO_ROWS
@PROPERTY
@given(st.data())
def test_sum_mode_metric_axioms(data):
    dim = data.draw(st.integers(1, 3))
    a, b, c = (data.draw(graphs(dim=dim)) for _ in range(3))
    cfg = TmdConfig(data.draw(st.integers(1, 4)), data.draw(st.sampled_from(SCHEDULES)), "sum")
    ab = tmd(a, b, cfg)
    assert ab.hex() == tmd(b, a, cfg).hex()
    assert tmd(a, a, cfg) == 0.0
    ac = tmd(a, c, cfg)
    assert ac <= ab + tmd(b, c, cfg) + 1e-9 * max(1.0, ac)


@ZERO_ROWS
@settings(PROPERTY, max_examples=6)
@given(st.data())
def test_pairwise_tmd_bytes_independent_of_threads(data):
    dim = data.draw(st.integers(1, 3))
    gs = data.draw(st.lists(graphs(dim=dim), min_size=3, max_size=6))
    k = data.draw(st.integers(1, len(gs) - 1))
    cfg = data.draw(configs())
    for ds_a, ds_b in ((GraphDataset(gs), None), (GraphDataset(gs[:k]), GraphDataset(gs[k:]))):
        one = pairwise_tmd(ds_a, ds_b, cfg, threads=1).values
        assert pairwise_tmd(ds_a, ds_b, cfg, threads=2).values.tobytes() == one.tobytes()
