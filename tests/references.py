"""Per-node reference loops that vectorized code is compared against.

Each function is the plain loop, or the separate code path, the package used
before its hot path was vectorized or merged into a shared one; tests
require byte-equal results, because the new code adds the same values in
the same order. The references are built from per-cell loops and SciPy's
public functions, never from the engine: of the package they read only the
node order of `distance.prepare_graph` (through `canonical`), a pair's
`prepare_graph` key, `graphs.permute_nodes`, `ot._padded_matrix` and
`ot._peel_flows`.

`reference_tables` and `reference_tmd` are the one reference of the
distance. Every transport in them, the graph-level one included, goes
through `_reference_cost`, their only assignment call. The bitwise
references compute on `canonical` graphs, so they add in the engine's node
order.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from treemover.distance import prepare_graph
from treemover.graphs import AttributedGraph, permute_nodes
from treemover.ot import _padded_matrix, _peel_flows


def canonical(g):
    """g relabelled into the stable-class order of its `prepare_graph`
    record, with -0.0 features folded into 0.0 as the record folds them."""
    c = permute_nodes(g, prepare_graph(g).pos.tolist())
    return AttributedGraph(c.features + 0.0, c.edges)


def reference_gin_forward(model, g):
    """`gin_forward` with one neighbour sum per node, in canonical order."""
    g = canonical(g)
    mean = model.aggregation == "mean"
    z = g.features
    for layer in model.layers:
        agg = np.zeros_like(z)
        for v in range(g.node_count):
            nb = g.neighbors[v]
            if nb:
                agg[v] = z[list(nb)].sum(axis=0)
                if mean:
                    agg[v] /= len(nb)
        if layer.neighbor_weight is not None:
            pre = z + agg @ layer.neighbor_weight.T
        else:
            pre = z + model.epsilon * agg
        z = np.maximum(pre @ layer.weight.T + layer.bias, 0.0)
    if g.node_count:
        pooled = z.sum(axis=0)
        if mean:
            pooled = pooled / g.node_count
    else:
        pooled = np.zeros(model.readout.weight.shape[1])
    return pooled @ model.readout.weight.T + model.readout.bias


def reference_tree_widths(g, v, depth):
    """`tree_widths` by exact Python-int adds over every node's neighbour
    list; converting to int64 raises OverflowError for a width past int64."""
    counts = [0] * g.node_count
    counts[v] = 1
    widths = [1]
    for _ in range(int(depth) - 1):
        counts = [sum(counts[x] for x in g.neighbors[u]) for u in range(g.node_count)]
        widths.append(sum(counts))
    return np.asarray(widths, dtype=np.int64)


def _reference_cost(core, row_norms, col_norms, mean):
    """Augmented transport of one child (or root) cost matrix core, padded
    with the blank's row_norms and col_norms: one assignment over the padded
    matrix, the norms summed when a side is empty, and 0 for two empty
    sides."""
    m, n = core.shape
    s = max(m, n)
    if s == 0:
        return 0.0
    if m == 0:
        total = float(col_norms.sum())
    elif n == 0:
        total = float(row_norms.sum())
    else:
        c = core if m == n else _padded_matrix(core, row_norms, col_norms)
        rows, cols = linear_sum_assignment(c)
        total = float(c[rows, cols].sum())
    return total / s if mean else total


def reference_tables(ga, gb, cfg):
    """The depth-1..cfg.depth tables of one pair as (n_a + 1, n_b + 1)
    arrays, the blank last, by one np.ix_ gather and one transport per node
    pair. Rows and columns are in `canonical` order: input node u of ga is
    row `prepare_graph(ga).pos[u]`."""
    ga, gb = canonical(ga), canonical(gb)
    na, nb = ga.node_count, gb.node_count
    mean = cfg.mode == "mean"
    base = cdist(ga.features, gb.features) if na and nb else np.zeros((na, nb))
    norm_a = np.linalg.norm(ga.features, axis=1)
    norm_b = np.linalg.norm(gb.features, axis=1)
    first = np.zeros((na + 1, nb + 1))
    first[:na, :nb] = base
    first[:na, nb] = norm_a
    first[na, :nb] = norm_b
    tables = [first]
    nbrs_a = [np.asarray(a, dtype=np.intp) for a in ga.neighbors]
    nbrs_b = [np.asarray(b, dtype=np.intp) for b in gb.neighbors]
    for k in range(2, cfg.depth + 1):
        w = cfg.schedule.weight(k - 1)
        prev = tables[-1]
        cur = np.zeros((na + 1, nb + 1))
        for u in range(na):
            agg = float(prev[nbrs_a[u], nb].sum())
            if mean and len(nbrs_a[u]):
                agg /= len(nbrs_a[u])
            cur[u, nb] = norm_a[u] + w * agg
        for v in range(nb):
            agg = float(prev[na, nbrs_b[v]].sum())
            if mean and len(nbrs_b[v]):
                agg /= len(nbrs_b[v])
            cur[na, v] = norm_b[v] + w * agg
        for u in range(na):
            au = nbrs_a[u]
            for v in range(nb):
                bv = nbrs_b[v]
                child = _reference_cost(prev[np.ix_(au, bv)], prev[au, nb],
                                        prev[na, bv], mean)
                cur[u, v] = base[u, v] + w * child
        tables.append(cur)
    return tables


def reference_tmd(ga, gb, cfg):
    """`tmd`: the pair in `prepare_graph` key order, and the graph-level
    transport of its root trees over the last `reference_tables` table."""
    if prepare_graph(gb).key < prepare_graph(ga).key:
        ga, gb = gb, ga
    na, nb = ga.node_count, gb.node_count
    last = reference_tables(ga, gb, cfg)[-1]
    return _reference_cost(last[:na, :nb], last[:na, nb], last[na, :nb], cfg.mode == "mean")


def reference_solve_transport(c, a, b):
    """`solve_transport` on valid non-empty inputs, as (flow, cost): public
    `linprog(method="highs")` on the dense constraint matrix, the same leaf
    peeling, and m x n loops for the support and the objective."""
    m, n = c.shape
    row_eq = np.zeros((m, m * n))
    for i in range(m):
        row_eq[i, i * n : (i + 1) * n] = 1.0
    col_eq = np.tile(np.eye(n), m)
    res = linprog(c.ravel(), A_eq=np.vstack([row_eq, col_eq]),
                  b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    assert res.success, res.message
    x = np.maximum(res.x.reshape(m, n), 0.0)
    thresh = 1e-10 * max(1.0, float(a.sum()))
    support = [(i, j) for i in range(m) for j in range(n) if x[i, j] > thresh]
    flow = _peel_flows(support, a, b)
    if flow is None:
        flow = x
    cost = 0.0
    for i in range(m):
        for j in range(n):
            if flow[i, j] > 0.0:
                cost += c[i, j] * flow[i, j]
    return flow, cost
