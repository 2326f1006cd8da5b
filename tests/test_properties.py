"""Property tests on generated graphs (hypothesis, derandomized).

Graphs have at most 12 nodes, so degrees reach 11, and features drawn from
{-1, 0, 0.5, 1}, so neighbour rows tie often. The vectorized GIN forward
pass and tree widths must equal their per-node reference loops bitwise, the
forward pass must be bitwise invariant to node relabelling, and a pair's
distance must not depend on the other pairs of its batch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treemover import (AttributedGraph, TmdConfig, constant_weights, gin_forward,
                       pascal_weights, permute_nodes, random_gin, tree_widths)
from treemover.distance import pair_distances, prepare_graph

from references import reference_gin_forward, reference_tree_widths

VALUES = (-1.0, 0.0, 0.5, 1.0)
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def graphs(draw, min_nodes=0, dim=None):
    n = draw(st.integers(min_nodes, 12))
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
    batch = [(prepare_graph(a, c), prepare_graph(b, c)) for a, b in pairs]
    alone = np.array([pair_distances([p], c)[0] for p in batch])
    order = data.draw(st.permutations(range(len(batch))))
    assert np.array(pair_distances(batch, c)).tobytes() == alone.tobytes()
    shuffled = np.array(pair_distances([batch[i] for i in order], c))
    assert shuffled.tobytes() == alone[list(order)].tobytes()
