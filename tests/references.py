"""Per-node reference loops that vectorized code is compared against.

Each function is the plain loop, or the separate code path, the package used
before its hot path was vectorized or merged into a shared one; tests
require byte-equal results, because the new code adds the same values in
the same order.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from treemover import build_distance_tables
from treemover.graphs import graph_key
from treemover.ot import _peel_flows


def _lex_sorted(rows):
    return rows[np.lexsort(rows.T[::-1])] if rows.shape[0] > 1 else rows


def reference_gin_forward(model, g):
    """`gin_forward` with one sorted neighbour sum per node."""
    mean = model.aggregation == "mean"
    z = g.features
    for layer in model.layers:
        agg = np.zeros_like(z)
        for v in range(g.node_count):
            nb = g.neighbors[v]
            if nb:
                agg[v] = _lex_sorted(z[list(nb)]).sum(axis=0)
                if mean:
                    agg[v] /= len(nb)
        if layer.neighbor_weight is not None:
            pre = z + agg @ layer.neighbor_weight.T
        else:
            pre = z + model.epsilon * agg
        z = np.maximum(pre @ layer.weight.T + layer.bias, 0.0)
    if g.node_count:
        pooled = _lex_sorted(z).sum(axis=0)
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


def reference_final_cost(last, na, nb, mean):
    """The graph-level transport over the last (na + 1, nb + 1) table, solved
    apart from the child transports: one assignment over the padded matrix
    of the root trees, the blank row or column summed when a graph is empty,
    and 0 for two empty graphs."""
    if not (na or nb):
        return 0.0
    s = max(na, nb)
    if na == 0:
        total = float(last[na, :nb].sum())
    elif nb == 0:
        total = float(last[:na, nb].sum())
    else:
        # indices past the smaller side stop at its blank row or column
        pick = np.arange(s)
        c = last[np.minimum(pick, na)[:, None], np.minimum(pick, nb)]
        rows, cols = linear_sum_assignment(c)
        total = float(c[rows, cols].sum())
    return total / s if mean else total


def reference_tmd(ga, gb, cfg):
    """`tmd` with its graph-level transport by `reference_final_cost` over
    the last table of the pair in canonical order."""
    if graph_key(gb) < graph_key(ga):
        ga, gb = gb, ga
    last = build_distance_tables(ga, gb, cfg)[-1].dist
    return reference_final_cost(last, ga.node_count, gb.node_count, cfg.mode == "mean")


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
