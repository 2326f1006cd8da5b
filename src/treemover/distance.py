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
blanks and 0 for blank against blank.

The engine runs on batches of graph pairs. Each graph is prepared once
(`prepare_graph`: its neighbour index, tree norms and their child terms,
and its zero-feature check), with one more node for the blank: a leaf of
norm 0, so a table's norm row and column follow the rule of any leaf
against a tree. A batch concatenates the tables of its pairs into one flat
array per depth, with per-pair offsets, and groups its cells (node pairs)
by padded size once, with one stable sort (`graphs.group_indices`). Each
depth then makes, per size, one `take` that gathers the (P, s, s) child
costs of every pair, one assignment per cell whose nodes both have
neighbours, and one `take` of the assigned entries at precomputed row
offsets. A cell's value does not depend on the other pairs of its batch.
`tmd` and `build_distance_tables` run a batch of one, and
`analysis.pairwise_tmd` runs each matrix row through `pair_distances`,
whose batches are as large as a bound on their memory allows (a whole row
of molecule-sized graphs). Tree norms come from the recursion behind
`tree_norm_levels`, which sums neighbour norms per exact degree (never over
zero-padded rows), so every sum runs over the same values in the same
order as a per-node loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

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


def _has_zero_rows(g):
    return g.node_count > 0 and not np.all(np.any(g.features != 0.0, axis=1))


def warn_zero_features(count, total):
    """Warn, for the caller's caller, that `count` of `total` graphs hold
    all-zero feature vectors."""
    if count:
        subject = "graph contains" if total == 1 else f"{count} of {total} graphs contain"
        warnings.warn(
            f"{subject} all-zero feature vectors; they are indistinguishable "
            "from padding blanks at depth 1",
            RuntimeWarning,
            stacklevel=3,
        )


def check_feature_dims(a, b):
    if a.feature_dim != b.feature_dim:
        raise ValueError(
            f"feature dimensions differ: {a.feature_dim} vs {b.feature_dim}"
        )


def _norm_recursion(g, deg, pad, depth, cfg):
    """Tree norms of every node at depths 1..depth, and their child terms.

    Returns (levels, terms): levels[k-1][v] is the norm of v's depth-k
    tree. terms has shape (depth, n + 1): terms[0] holds the depth-1 norms
    and terms[k-1] (k >= 2) the (mode-scaled) sum of each node's children's
    depth-(k-1) norms, which is also the child transport of its tree against
    a leaf's; the last column, for the blank tree, is 0. Norms that overflow
    come back as inf, without a warning.
    """
    mean = cfg.mode == "mean"
    n = g.node_count
    buckets = degree_buckets(deg, pad)
    terms = np.zeros((depth, n + 1))
    with np.errstate(over="ignore"):
        base = np.linalg.norm(g.features, axis=1)
        terms[0, :n] = base
        levels = [base]
        for k in range(2, depth + 1):
            w = cfg.schedule.weight(k - 1)
            prev = levels[-1]
            agg = terms[k - 1, :n]
            for nodes, nbrs, d in buckets:
                total = prev[nbrs].sum(axis=1)
                agg[nodes] = total / d if mean else total
            levels.append(base + w * agg)
    return levels, terms


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


class PreparedGraph(NamedTuple):
    """The per-graph part of the distance under one config, computed once.

    Every per-node array has one more entry, for the blank tree, at index n:
    a leaf with norm 0. key is `graph_key`, which orders a pair canonically;
    deg and pad are `graphs.neighbor_index` (the blank's row all blank);
    norms are the depth-1 tree norms and aggs[k-2] the depth-k child terms
    of `_norm_recursion`; zero_features tells whether some node has an
    all-zero feature vector.
    """

    features: np.ndarray
    key: tuple
    deg: np.ndarray
    pad: np.ndarray
    norms: np.ndarray
    aggs: np.ndarray
    zero_features: bool

    @property
    def node_count(self):
        return len(self.deg) - 1


def prepare_graph(g, cfg):
    """The PreparedGraph of g under cfg."""
    n = g.node_count
    deg, pad = neighbor_index(g)
    terms = _norm_recursion(g, deg, pad, cfg.depth, cfg)[1]
    blank_pad = np.full((n + 1, pad.shape[1]), n, dtype=np.intp)
    blank_pad[:n] = pad
    return PreparedGraph(g.features, graph_key(g), np.concatenate((deg, [0])), blank_pad,
                         terms[0], terms[1:], _has_zero_rows(g))


def _batch_layout(pairs):
    """Where each pair's values sit in a batch's flat arrays.

    The tables of all pairs are concatenated, pair p's (n_a + 1, n_b + 1)
    table from offset starts[p] (a list); its entries are the batch's cells.
    ia and ib give each cell's two nodes in the concatenated per-node arrays
    of the a-sides and of the b-sides, blanks included, and core lists the
    cells of two real nodes, in order.
    """
    starts, ia, ib, core = [], [], [], []
    start = first_a = first_b = 0
    for a, b in pairs:
        rows, cols = len(a.deg), len(b.deg)
        grid = np.arange(rows * cols).reshape(rows, cols)
        u, v = np.divmod(grid.reshape(-1), cols)
        starts.append(start)
        ia.append(first_a + u)
        ib.append(first_b + v)
        core.append(start + grid[:-1, :-1].reshape(-1))
        start, first_a, first_b = start + rows * cols, first_a + rows, first_b + cols
    return starts, np.concatenate(ia), np.concatenate(ib), np.concatenate(core)


def _child_buckets(pairs, starts, ia, ib, deg_a, deg_b):
    """A batch's cells whose neighbour lists are both non-empty, by padded size.

    deg_a and deg_b are the degrees of each cell's two nodes. Returns
    (cells, gather, offs, s) per size s = max(deg u, deg v): cells holds
    the cells in ascending order, gather the (P, s, s) flat indices into
    the batch's flat tables that pick each cell's blank-padded child cost
    matrix, and offs the (P, s) flat offsets p*s*s + i*s of each row of
    those P matrices.
    """
    size = np.maximum(deg_a, deg_b)
    size[(deg_a == 0) | (deg_b == 0)] = 0
    width = max(max(a.pad.shape[1], b.pad.shape[1]) for a, b in pairs)
    # each a-side node's neighbours as rows of its pair's table, and each
    # b-side node's as columns, blank-padded to the batch's width
    rows = np.concatenate([start + _widen(a.pad, width, a.node_count) * len(b.deg)
                           for (a, b), start in zip(pairs, starts)])
    cols = np.concatenate([_widen(b.pad, width, b.node_count) for _, b in pairs])
    out = []
    for s, cells in group_indices(size):
        if s:
            gather = (rows[:, :s].take(ia[cells], axis=0)[:, :, None]
                      + cols[:, :s].take(ib[cells], axis=0)[:, None, :])
            offs = np.arange(len(cells))[:, None] * (s * s) + np.arange(s) * s
            out.append((cells, gather, offs, s))
    return out


def _child_transports(prev, buckets, mean):
    """Yield (cells, costs): the child transport values of each bucket."""
    flat = prev.reshape(-1)
    for cells, gather, offs, s in buckets:
        c = flat.take(gather)
        # a comprehension, not map(): cProfile misses builtins called from C
        perms = np.concatenate([linear_sum_assignment(m)[1] for m in c]).reshape(-1, s)
        costs = c.reshape(-1).take(offs + perms).sum(axis=1)
        yield cells, costs / s if mean else costs


def _batch_tables(pairs, cfg):
    """Depth tables 1..cfg.depth of a non-empty batch of (a, b) PreparedGraphs.

    Returns (tables, starts): tables[k-1] is every pair's depth-k table,
    flattened and concatenated, with pair p's (n_a + 1, n_b + 1) table from
    starts[p]. Each cell's value is the one a batch of that pair alone gives.
    Raises ConfigError naming the first depth at which the table of any pair
    in the batch overflows.

    The blank is a leaf, so its row and column follow the leaf rule below:
    a tree's norm at depth k is its feature norm plus w(k-1) times its
    child term, the same sum `_norm_recursion` makes.
    """
    starts, ia, ib, core = _batch_layout(pairs)
    side_a = [a for a, _ in pairs]
    side_b = [b for _, b in pairs]
    # depth 1: feature distances; a node against a blank costs its norm
    base = (np.concatenate([a.norms for a in side_a])[ia]
            + np.concatenate([b.norms for b in side_b])[ib])
    base[core] = np.concatenate([cdist(a.features, b.features).reshape(-1)
                                 for a, b in pairs])
    if cfg.depth > 1:
        deg_a = np.concatenate([a.deg for a in side_a])[ia]
        deg_b = np.concatenate([b.deg for b in side_b])[ib]
        buckets = _child_buckets(pairs, starts, ia, ib, deg_a, deg_b)
        # child terms at depths 2..L; a leaf against a tree costs the tree's
        # own child term
        children = np.zeros((cfg.depth - 1, len(base)))
        leaf = deg_a == 0
        children[:, leaf] = np.concatenate([b.aggs for b in side_b], axis=1)[:, ib[leaf]]
        leaf = deg_b == 0
        children[:, leaf] = np.concatenate([a.aggs for a in side_a], axis=1)[:, ia[leaf]]

    tables = [base]
    # overflow shows as inf and is reported by _check_finite
    with np.errstate(over="ignore"):
        _check_finite(base, 1, cfg)
        for k in range(2, cfg.depth + 1):
            child = children[k - 2]
            for cells, costs in _child_transports(tables[-1], buckets,
                                                  cfg.mode == "mean"):
                child[cells] = costs
            cur = base + cfg.schedule.weight(k - 1) * child
            _check_finite(cur, k, cfg)
            tables.append(cur)
    return tables, starts


def _prepared_pair(ga, gb, cfg):
    """Both graphs prepared, after the checks and warnings of a single pair."""
    check_feature_dims(ga, gb)
    pair = (prepare_graph(ga, cfg), prepare_graph(gb, cfg))
    for p in pair:
        warn_zero_features(int(p.zero_features), 1)
    return pair


def build_distance_tables(ga, gb, cfg):
    """All DistanceTables for depths 1..cfg.depth between two graphs."""
    shape = (ga.node_count + 1, gb.node_count + 1)
    tables = _batch_tables([_prepared_pair(ga, gb, cfg)], cfg)[0]
    return [DistanceTable(k, t.reshape(shape)) for k, t in enumerate(tables, start=1)]


def tree_distance(ga, u, gb, v, depth, cfg):
    """Distance between the depth-`depth` trees rooted at u in ga and v in gb."""
    if not (0 <= u < ga.node_count):
        raise IndexError(f"node {u} out of range for {ga.node_count} nodes")
    if not (0 <= v < gb.node_count):
        raise IndexError(f"node {v} out of range for {gb.node_count} nodes")
    local = TmdConfig(depth, cfg.schedule, cfg.mode)
    tables = build_distance_tables(ga, gb, local)
    return float(tables[-1].dist[u, v])


def prepared_norm_levels(p, cfg):
    """`tree_norm_levels` at cfg.depth, bitwise, from g's PreparedGraph p
    under cfg: the depth-k norms are p.norms + w(k-1) * p.aggs[k-2], the
    sum `_norm_recursion` makes. Raises ConfigError as it does.
    """
    n = p.node_count
    levels = [p.norms[:n]]
    with np.errstate(over="ignore"):
        for k in range(2, cfg.depth + 1):
            levels.append(p.norms[:n] + cfg.schedule.weight(k - 1) * p.aggs[k - 2, :n])
    for k, norms in enumerate(levels, start=1):
        _check_finite(norms, k, cfg)
    return levels


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
    warn_zero_features(int(_has_zero_rows(g)), 1)
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
    return prepared_tmd(ga, prepare_graph(ga, cfg), gb, prepare_graph(gb, cfg), cfg)


def prepared_tmd(ga, a, gb, b, cfg):
    """`tmd(ga, gb, cfg)`, bitwise, with its checks and warnings, from the
    PreparedGraphs a of ga and b of gb under cfg."""
    if b.key < a.key:
        ga, a, gb, b = gb, b, ga, a
    if ga.node_count == 0 and gb.node_count == 0:
        return 0.0
    check_feature_dims(ga, gb)
    for p in (a, b):
        warn_zero_features(int(p.zero_features), 1)
    return pair_distances([(a, b)], cfg)[0]


# Child-cost entries one batch may gather, counted as cells times squared
# neighbour-list width. A batch's temporaries grow with its gathers: a row
# of 59 pairs of 40-node graphs of degree up to 16 raised peak memory by
# 110 MB as one batch, and by 9 MB under this bound.
_BATCH_ENTRIES = 1 << 20


def _batches(pairs):
    """pairs in consecutive batches within _BATCH_ENTRIES, one pair at least."""
    batch, entries = [], 0
    for a, b in pairs:
        n = a.node_count * b.node_count * max(a.pad.shape[1], b.pad.shape[1]) ** 2
        if batch and entries + n > _BATCH_ENTRIES:
            yield batch
            batch, entries = [], 0
        batch.append((a, b))
        entries += n
    if batch:
        yield batch


def pair_distances(pairs, cfg):
    """The tree mover's distance of each (a, b) pair of PreparedGraphs.

    Pairs run in consecutive batches, as many per batch as _BATCH_ENTRIES
    allows. Each pair is taken in the order given; in canonical key order
    its value is bitwise `tmd`'s. Raises ConfigError naming the first depth
    at which any pair of the first overflowing batch overflows.
    """
    mean = cfg.mode == "mean"
    out = []
    for batch in _batches(pairs):
        tables, starts = _batch_tables(batch, cfg)
        for (a, b), start in zip(batch, starts):
            na, nb = a.node_count, b.node_count
            last = tables[-1][start:start + (na + 1) * (nb + 1)].reshape(na + 1, nb + 1)
            out.append(_final_cost(last, na, nb, mean) if na or nb else 0.0)
    return out
