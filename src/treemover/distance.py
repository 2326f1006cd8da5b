"""Tree mover's distance between attributed graphs.

The distance unrolls each graph into depth-L computation trees (one per
node), measures tree pairs with a recursive transport distance, and couples
the two tree multisets with one final transport step. Everything here works
on a dynamic-programming table indexed by node pairs, so the trees are never
materialised; `trees.naive_tmd` is the literal recursive evaluator kept as a
cross-check.

For depth-k trees the pair distance is

    dist_k(u, v) = ||x_u - x_v|| + w(k-1) * OT(children(u), children(v))

where the children OT uses dist_{k-1} entries, pads the smaller neighbour
multiset with blank trees (all-zero features, no children), and prices a
real tree against a blank at that tree's norm. Mode "mean" divides every
transport value by the padded multiset size.

The blank row and column of a table double as the padding index: a
neighbour list padded with the blank index (n_a on the a-side, n_b on the
b-side) gathers exactly the padded child cost matrix, with norms against
blanks and 0 for blank against blank. Node pairs are grouped by padded size
once per graph pair, with one stable sort of the flattened size matrix
(`graphs.group_indices`). Each depth then makes, per size, one `take` that
gathers the (P, s, s) child costs, one assignment per pair whose nodes both
have neighbours, and one `take` of the assigned entries at precomputed row
offsets. Tree norms come from the recursion behind `tree_norm_levels`, which
sums neighbour norms per exact degree (never over zero-padded rows), so
every sum runs over the same values in the same order as a per-node loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .graphs import degree_buckets, graph_key, group_indices, neighbor_index
from .schedule import ConfigError, TmdConfig


@dataclass(frozen=True)
class DistanceTable:
    """Pairwise tree distances at one depth.

    dist has shape (n_a + 1, n_b + 1): entry [u, v] is the distance between
    the depth-`depth` trees rooted at u and v, the last column holds the
    a-side tree norms (distance to the blank tree), the last row the b-side
    norms, and the corner is 0.
    """

    depth: int
    dist: np.ndarray

    @property
    def norms_a(self):
        return self.dist[:-1, -1]

    @property
    def norms_b(self):
        return self.dist[-1, :-1]


def _warn_zero_features(g):
    if g.node_count and not np.all(np.any(g.features != 0.0, axis=1)):
        warnings.warn(
            "graph contains all-zero feature vectors; they are indistinguishable "
            "from padding blanks at depth 1",
            RuntimeWarning,
            stacklevel=3,
        )


def _norm_recursion(g, deg, pad, depth, cfg):
    """Tree norms of every node at depths 1..depth, and their child terms.

    Returns (levels, aggs): levels[k-1][v] is the norm of v's depth-k tree,
    aggs[k-2][v] the (mode-scaled) sum of its children's depth-(k-1) norms,
    which is also the child transport of v's tree against a leaf's. Norms
    that overflow come back as inf, without a warning.
    """
    mean = cfg.mode == "mean"
    buckets = degree_buckets(deg, pad)
    with np.errstate(over="ignore"):
        base = np.linalg.norm(g.features, axis=1)
        levels, aggs = [base], []
        for k in range(2, depth + 1):
            w = cfg.schedule.weight(k - 1)
            prev = levels[-1]
            agg = np.zeros_like(base)
            for nodes, nbrs, d in buckets:
                total = prev[nbrs].sum(axis=1)
                agg[nodes] = total / d if mean else total
            levels.append(base + w * agg)
            aggs.append(agg)
    return levels, aggs


def _check_finite(values, depth, cfg):
    if not np.all(np.isfinite(values)):
        raise ConfigError(
            f"tree distances overflow at depth {depth} under schedule "
            f"{cfg.schedule.label()} ({cfg.mode} mode); use a smaller depth "
            f"or smaller weights"
        )


def _widen(pad, width, blank):
    """pad with blank columns appended up to `width` columns."""
    if pad.shape[1] >= width:
        return pad
    out = np.full((len(pad), width), blank, dtype=np.intp)
    out[:, :pad.shape[1]] = pad
    return out


def _child_buckets(deg_a, pad_a, deg_b, pad_b):
    """Node pairs whose neighbour lists are both non-empty, by padded size.

    Returns (cells, gather, offs, s) per size s = max(deg u, deg v): cells
    holds the flat indices u * nb + v of the pairs in the (na, nb) child
    block in ascending order, gather the (P, s, s) flat indices into an
    (na + 1, nb + 1) table that pick each pair's blank-padded child cost
    matrix, and offs the (P, s) flat offsets p*s*s + i*s of each row of
    those P matrices.
    """
    na, nb = len(deg_a), len(deg_b)
    size = np.maximum.outer(deg_a, deg_b)
    size[deg_a == 0] = 0
    size[:, deg_b == 0] = 0
    width = max(pad_a.shape[1], pad_b.shape[1])
    pad_a = _widen(pad_a, width, na)
    pad_b = _widen(pad_b, width, nb)
    out = []
    for s, cells in group_indices(size.reshape(-1)):
        if s:
            u, v = np.divmod(cells, nb)
            gather = (pad_a[u, :s] * (nb + 1))[:, :, None] + pad_b[v, None, :s]
            offs = np.arange(len(cells))[:, None] * (s * s) + np.arange(s) * s
            out.append((cells, gather, offs, s))
    return out


def _child_transports(prev, buckets, mean):
    """Yield (cells, costs): the child transport values of each bucket."""
    flat = prev.reshape(-1)
    for cells, gather, offs, s in buckets:
        c = flat.take(gather)
        perms = np.concatenate([linear_sum_assignment(m)[1] for m in c]).reshape(-1, s)
        costs = c.reshape(-1).take(offs + perms).sum(axis=1)
        yield cells, costs / s if mean else costs


def build_distance_tables(ga, gb, cfg):
    """All DistanceTables for depths 1..cfg.depth between two graphs."""
    if ga.feature_dim != gb.feature_dim:
        raise ValueError(
            f"feature dimensions differ: {ga.feature_dim} vs {gb.feature_dim}"
        )
    _warn_zero_features(ga)
    _warn_zero_features(gb)
    na, nb = ga.node_count, gb.node_count
    deg_a, pad_a = neighbor_index(ga)
    deg_b, pad_b = neighbor_index(gb)
    levels_a, aggs_a = _norm_recursion(ga, deg_a, pad_a, cfg.depth, cfg)
    levels_b, aggs_b = _norm_recursion(gb, deg_b, pad_b, cfg.depth, cfg)
    base = cdist(ga.features, gb.features) if na and nb else np.zeros((na, nb))
    buckets = _child_buckets(deg_a, pad_a, deg_b, pad_b) if cfg.depth > 1 else []

    tables = []
    # overflow shows as inf and is reported by _check_finite
    with np.errstate(over="ignore"):
        for k in range(1, cfg.depth + 1):
            cur = np.zeros((na + 1, nb + 1))
            cur[:na, nb] = levels_a[k - 1]
            cur[na, :nb] = levels_b[k - 1]
            if k == 1:
                cur[:na, :nb] = base
            else:
                # a leaf against a tree costs the tree's children's norms
                child = np.zeros((na, nb))
                child[deg_a == 0] = aggs_b[k - 2]
                child[:, deg_b == 0] = aggs_a[k - 2][:, None]
                flat = child.reshape(-1)
                for cells, costs in _child_transports(tables[-1].dist, buckets,
                                                      cfg.mode == "mean"):
                    flat[cells] = costs
                cur[:na, :nb] = base + cfg.schedule.weight(k - 1) * child
            _check_finite(cur, k, cfg)
            tables.append(DistanceTable(k, cur))
    return tables


def tree_distance(ga, u, gb, v, depth, cfg):
    """Distance between the depth-`depth` trees rooted at u in ga and v in gb."""
    if not (0 <= u < ga.node_count):
        raise IndexError(f"node {u} out of range for {ga.node_count} nodes")
    if not (0 <= v < gb.node_count):
        raise IndexError(f"node {v} out of range for {gb.node_count} nodes")
    local = TmdConfig(depth, cfg.schedule, cfg.mode)
    tables = build_distance_tables(ga, gb, local)
    return float(tables[-1].dist[u, v])


def tree_norm_levels(g, depth, cfg):
    """Per-node tree norms for every depth 1..depth; list of length `depth`.

    The norm of a tree is its distance to the blank tree: the root feature
    norm plus the weighted (mode-scaled) sum of child tree norms. Raises
    ConfigError naming the first depth whose norms overflow.
    """
    levels = _norm_recursion(g, *neighbor_index(g), depth, cfg)[0]
    for k, norms in enumerate(levels, start=1):
        _check_finite(norms, k, cfg)
    return levels


def tree_norm(g, v, depth, cfg):
    """Distance between the depth-`depth` tree rooted at v and the blank tree."""
    if not (0 <= v < g.node_count):
        raise IndexError(f"node {v} out of range for {g.node_count} nodes")
    _warn_zero_features(g)
    return float(tree_norm_levels(g, depth, cfg)[-1][v])


def _final_cost(last, na, nb, mean):
    """Transport between the two root-tree multisets of the last table."""
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


def tmd(ga, gb, cfg):
    """Tree mover's distance at cfg.depth between two attributed graphs.

    Arguments are ordered canonically before computing, so the result is
    bitwise symmetric.
    """
    if graph_key(gb) < graph_key(ga):
        ga, gb = gb, ga
    na, nb = ga.node_count, gb.node_count
    if na == 0 and nb == 0:
        return 0.0
    tables = build_distance_tables(ga, gb, cfg)
    return _final_cost(tables[-1].dist, na, nb, cfg.mode == "mean")
