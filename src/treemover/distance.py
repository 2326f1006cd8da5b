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

Each graph is prepared once (`prepare_graph`: its neighbour index, feature
norms and zero-feature check), with one more node for the blank: a leaf of
norm 0. The record does not depend on the config. A tree against a leaf
(the blank included) moves each child to a blank, so its child transport is
the (mode-scaled) sum of its children's entries in the previous table's
blank column or row; the sum runs over exactly the tree's children, one
bucket per degree, never over padding. So a table's blank row and column
are the tree norms at every depth, and tree norms come only from there:
`prepared_norm_levels` is the blank column of a graph's tables against the
empty graph, read by `tree_norm_levels`, `tree_norm` and the bounds.

The engine runs on batches of graph pairs. A batch concatenates the tables
of its pairs into one flat array per depth, with per-pair offsets, and
groups its cells (node pairs) once, with one stable sort
(`graphs.group_indices`): cells of two trees by padded size, cells of a
tree against a leaf by the tree's degree. Each depth then makes, per size,
one `take` that gathers the (P, s, s) child costs of every pair, one
assignment per cell whose nodes both have neighbours, and one `take` of the
assigned entries at precomputed row offsets; per degree, one `take` and
one sum for the leaf cells, which make no assignment. A cell's value does
not depend on the other pairs of its batch. `pair_distances` is the one entry to the distance: it puts
each pair in canonical key order, so every value is bitwise symmetric, and
runs batches as large as a bound on their memory allows (a whole matrix
row of molecule-sized graphs). `tmd` and the bounds reach it through
`prepared_tmd`, and `analysis.pairwise_tmd` directly. A pair's checks and
warnings have one home too, `_check_pair`, and every zero-feature warning
names the caller's line outside the package (or in its command line).
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .graphs import AttributedGraph, check_feature_dims, graph_key, group_indices, neighbor_index
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


_PACKAGE = os.path.dirname(__file__) + os.sep
_CLI = _PACKAGE + "cli.py"


def _in_library(frame):
    path = frame.f_code.co_filename
    return path.startswith(_PACKAGE) and path != _CLI


def warn_zero_features(count, total):
    """Warn that `count` of `total` graphs hold all-zero feature vectors.

    The warning names the first line on the stack outside the package or in
    its command line: the caller's line in whichever entry point led here.
    """
    if count:
        frame, level = sys._getframe(), 1
        while frame.f_back is not None and _in_library(frame):
            frame, level = frame.f_back, level + 1
        subject = "graph contains" if total == 1 else f"{count} of {total} graphs contain"
        warnings.warn(
            f"{subject} all-zero feature vectors; they are indistinguishable "
            "from padding blanks at depth 1",
            RuntimeWarning,
            stacklevel=level,
        )


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
    """The per-graph part of the distance, computed once and valid under
    every config.

    Every per-node array has one more entry, for the blank tree, at index n:
    a leaf with norm 0. key is `graph_key`, which orders a pair canonically;
    deg and pad are `graphs.neighbor_index` (the blank's row all blank);
    norms are the depth-1 tree norms (the feature norms); zero_features
    tells whether some node has an all-zero feature vector.
    """

    features: np.ndarray
    key: tuple
    deg: np.ndarray
    pad: np.ndarray
    norms: np.ndarray
    zero_features: bool

    @property
    def node_count(self):
        return len(self.deg) - 1

    @property
    def feature_dim(self):
        return self.features.shape[1]


def prepare_graph(g):
    """The PreparedGraph of g."""
    n = g.node_count
    deg, pad = neighbor_index(g)
    blank_pad = np.full((n + 1, pad.shape[1]), n, dtype=np.intp)
    blank_pad[:n] = pad
    norms = np.zeros(n + 1)
    # a norm that overflows is inf, reported by the tables' overflow check
    with np.errstate(over="ignore"):
        norms[:n] = np.linalg.norm(g.features, axis=1)
    zero_features = n > 0 and not np.all(np.any(g.features != 0.0, axis=1))
    return PreparedGraph(g.features, graph_key(g), np.concatenate((deg, [0])), blank_pad,
                         norms, zero_features)


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
    """A batch's cells with neighbours on at least one side, grouped once.

    deg_a and deg_b are the degrees of each cell's two nodes. Returns
    (transports, leaves), each bucket's cells in ascending order.
    transports holds (cells, gather, offs, s) per size s = max(deg u, deg v)
    of the cells whose nodes both have neighbours: gather the (P, s, s) flat
    indices into the batch's flat tables that pick each cell's blank-padded
    child cost matrix, and offs the (P, s) flat offsets p*s*s + i*s of each
    row of those P matrices. leaves holds (cells, gather, d) per degree d of
    the tree in the cells of a tree against a leaf (the blank included):
    gather the (P, d) flat indices of the tree's children's entries in the
    blank column (a-side tree) or blank row (b-side tree).
    """
    size = np.maximum(deg_a, deg_b)
    # a tree against a leaf is keyed by minus its degree, two leaves by 0
    size[(deg_a == 0) | (deg_b == 0)] *= -1
    width = max(max(a.pad.shape[1], b.pad.shape[1]) for a, b in pairs)
    # each a-side node's neighbours as rows of its pair's table, and each
    # b-side node's as columns, blank-padded to the batch's width
    rows = np.concatenate([start + _widen(a.pad, width, a.node_count) * len(b.deg)
                           for (a, b), start in zip(pairs, starts)])
    cols = np.concatenate([_widen(b.pad, width, b.node_count) for _, b in pairs])
    transports, leaves = [], []
    for key, cells in group_indices(size):
        s = abs(key)
        if not s:
            continue
        row = rows[:, :s].take(ia[cells], axis=0)
        col = cols[:, :s].take(ib[cells], axis=0)
        if key > 0:
            offs = np.arange(len(cells))[:, None] * (s * s) + np.arange(s) * s
            transports.append((cells, row[:, :, None] + col[:, None, :], offs, s))
        else:
            # the leaf's neighbour row is all blank, so row + col runs along
            # the tree's children against the blank
            leaves.append((cells, row + col, s))
    return transports, leaves


def _child_costs(prev, transports, leaves, mean):
    """Yield (cells, costs): the child transport values of each bucket.

    A tree against a leaf moves each child to a blank, at the child's norm,
    so its cost is a sum over exactly its children, with no padding.
    """
    for cells, gather, d in leaves:
        costs = prev.take(gather).sum(axis=1)
        yield cells, costs / d if mean else costs
    for cells, gather, offs, s in transports:
        c = prev.take(gather)
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

    The blank is a leaf, so the norm row and column follow the leaf rule of
    `_child_costs`: a tree's norm at depth k is its feature norm plus w(k-1)
    times the (mode-scaled) sum of its children's depth-(k-1) norms.
    """
    starts, ia, ib, core = _batch_layout(pairs)
    # depth 1: feature distances; a node against a blank costs its norm
    base = (np.concatenate([a.norms for a, _ in pairs])[ia]
            + np.concatenate([b.norms for _, b in pairs])[ib])
    base[core] = np.concatenate([cdist(a.features, b.features).reshape(-1)
                                 for a, b in pairs])
    if cfg.depth > 1:
        deg_a = np.concatenate([a.deg for a, _ in pairs])[ia]
        deg_b = np.concatenate([b.deg for _, b in pairs])[ib]
        transports, leaves = _child_buckets(pairs, starts, ia, ib, deg_a, deg_b)

    tables = [base]
    # overflow shows as inf and is reported by _check_finite
    with np.errstate(over="ignore"):
        _check_finite(base, 1, cfg)
        for k in range(2, cfg.depth + 1):
            # two leaves cost 0
            child = np.zeros(len(base))
            for cells, costs in _child_costs(tables[-1], transports, leaves,
                                             cfg.mode == "mean"):
                child[cells] = costs
            cur = base + cfg.schedule.weight(k - 1) * child
            _check_finite(cur, k, cfg)
            tables.append(cur)
    return tables, starts


def _check_pair(a, b):
    """The checks and warnings of one pair of PreparedGraphs: their feature
    dimensions must agree, and each graph with an all-zero feature vector
    warns."""
    check_feature_dims(a, b)
    for p in (a, b):
        warn_zero_features(int(p.zero_features), 1)


def build_distance_tables(ga, gb, cfg):
    """All DistanceTables for depths 1..cfg.depth between two graphs."""
    a, b = prepare_graph(ga), prepare_graph(gb)
    _check_pair(a, b)
    shape = (ga.node_count + 1, gb.node_count + 1)
    tables = _batch_tables([(a, b)], cfg)[0]
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
    """Per-node tree norms at depths 1..cfg.depth of the graph whose
    PreparedGraph is p: the blank column of its tables against the empty
    graph. Raises ConfigError naming the first depth whose norms overflow.
    """
    n = p.node_count
    empty = prepare_graph(AttributedGraph(np.zeros((0, p.feature_dim))))
    return [t[:n] for t in _batch_tables([(p, empty)], cfg)[0]]


def tree_norm_levels(g, depth, cfg):
    """Per-node tree norms for every depth 1..depth; list of length `depth`.

    The norm of a tree is its distance to the blank tree: the root feature
    norm plus the weighted (mode-scaled) sum of child tree norms. Raises
    ConfigError for a depth below 1, and naming the first depth whose norms
    overflow.
    """
    return prepared_norm_levels(prepare_graph(g), TmdConfig(depth, cfg.schedule, cfg.mode))


def tree_norm(g, v, depth, cfg):
    """Distance between the depth-`depth` tree rooted at v and the blank tree."""
    if not (0 <= v < g.node_count):
        raise IndexError(f"node {v} out of range for {g.node_count} nodes")
    local = TmdConfig(depth, cfg.schedule, cfg.mode)
    p = prepare_graph(g)
    warn_zero_features(int(p.zero_features), 1)
    return float(prepared_norm_levels(p, local)[-1][v])


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

    The pair is taken in canonical order (see `pair_distances`), so the
    result is bitwise symmetric.
    """
    return prepared_tmd(prepare_graph(ga), prepare_graph(gb), cfg)


def prepared_tmd(a, b, cfg):
    """`tmd`, bitwise, with its checks and warnings, of the graphs whose
    PreparedGraphs are a and b."""
    _check_pair(a, b)
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

    Each pair is put in canonical key order, so its value does not depend
    on the order of its two graphs and is bitwise `tmd`'s. Pairs run in
    consecutive batches, as many per batch as _BATCH_ENTRIES allows. Raises
    ConfigError naming the first depth at which any pair of the first
    overflowing batch overflows.
    """
    mean = cfg.mode == "mean"
    out = []
    for batch in _batches([(b, a) if b.key < a.key else (a, b) for a, b in pairs]):
        tables, starts = _batch_tables(batch, cfg)
        for (a, b), start in zip(batch, starts):
            na, nb = a.node_count, b.node_count
            last = tables[-1][start:start + (na + 1) * (nb + 1)].reshape(na + 1, nb + 1)
            out.append(_final_cost(last, na, nb, mean) if na or nb else 0.0)
    return out
