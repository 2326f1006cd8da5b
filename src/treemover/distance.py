"""Tree mover's distance between attributed graphs.

The distance unrolls each graph into depth-L computation trees (one per
node), measures tree pairs with a recursive transport distance, and couples
the two tree multisets with one more such transport, at a root level.
Everything here works on a dynamic-programming table indexed by node pairs,
so the trees are never materialised; `trees.naive_tmd` is the literal
recursive evaluator kept as a cross-check.

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
norm 0. The record does not depend on the config. Its nodes are in
stable-class order: a stable sort of `wl.refine_classes` run until the
classes stop splitting, which refines every depth's classes. Sorted
neighbour rows then run in class order, so by induction nodes of one class
have bitwise-identical rows in every table: values, and the `gnn` forward
pass on the same record, are bitwise invariant to node relabelling, and
per-node results map back to input node v at position pos[v]. A tree
against a leaf (the blank included) moves each child to a blank, so its
child transport is the (mode-scaled) sum of its children's entries in the
previous table's blank column or row; the sum runs over exactly the tree's
children, one bucket per degree, never over padding. So a table's blank row
and column are the tree norms at every depth, and tree norms come only
from there: `prepared_norm_levels` is the blank column of a graph's tables
against the empty graph, read by `tree_norm_levels`, `tree_norm` and the
bounds.

The engine runs on batches of graph pairs. A batch concatenates the tables of
its pairs into one flat array per depth, with per-pair offsets. Each level
groups its cells once, with one stable sort (`graphs.group_indices`): cells of
two trees by padded size, of a tree against a leaf by its degree. A node
level's cells are node pairs. At the root level each pair is one cell, whose
children are its graphs' trees in the last table: the final transport is a
child transport, with the same padding, leaf rule and mean scaling, and two
empty graphs, two leaves, cost 0. `_child_costs` makes per size one `take` of
the (P, s, s) child costs, one assignment per cell and one `take` of the
assigned entries; per degree, one `take` and one sum. A cell's value does not
depend on the other pairs of its batch. `pair_distances` is the one entry to
the distance: it puts each pair in canonical key order, so every value is
bitwise symmetric, and runs batches as large as a bound on their memory allows
(a whole matrix row of molecule-sized graphs). `tmd` and the bounds reach it
through `prepared_tmd`, and `analysis.pairwise_tmd` directly. A pair's checks
and warnings have one home too, `_check_pair`, and every zero-feature warning
names the caller's line outside the package (or in its command line).

The engine calls two compiled SciPy functions: `linear_sum_assignment` and
the Euclidean kernel that `scipy.spatial.distance.cdist(a, b)` runs.
`_load_extension` loads their two extension modules without the __init__
files of `scipy.optimize` and `scipy.spatial`, which import much more of
SciPy than the engine calls, and the public functions stand in when a
module's file is not found. Values and native calls are the same either way.
`ot` takes its `linear_sum_assignment` from here and loads SciPy's compiled
HiGHS module with `_load_extension` too, so no module of the package loads
a SciPy package.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
import warnings
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import NamedTuple

import numpy as np

from .graphs import AttributedGraph, check_feature_dims, check_node, group_indices, neighbor_index
from .schedule import ConfigError, TmdConfig
from .wl import refine_classes


def _load_extension(name):
    """The compiled module `name` of an installed package, loaded without
    running the __init__ files of its packages; None when its file is not
    found.

    The module is registered in sys.modules under `name`, so a later import
    of its package reuses it; a module already there is returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    top, *middle, _ = name.split(".")
    root = importlib.util.find_spec(top)
    bases = root.submodule_search_locations if root else None
    for base in bases or ():
        finder = FileFinder(os.path.join(base, *middle),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    return None


def _scipy_kernels():
    """(linear_sum_assignment, cdist_euclidean) from their compiled modules,
    or SciPy's public functions where a module's file is not found."""
    lsap = _load_extension("scipy.optimize._lsap")
    pybind = _load_extension("scipy.spatial._distance_pybind")
    if lsap is None:
        from scipy.optimize import linear_sum_assignment
    else:
        linear_sum_assignment = lsap.linear_sum_assignment
    if pybind is None:
        from scipy.spatial.distance import cdist as cdist_euclidean
    else:
        cdist_euclidean = pybind.cdist_euclidean
    return linear_sum_assignment, cdist_euclidean


linear_sum_assignment, cdist_euclidean = _scipy_kernels()


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
    if not np.isfinite(values).all():
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

    Nodes are in stable-class order, input node v at pos[v], and every
    per-node array has one more entry, for the blank tree, at index n: a
    leaf with norm 0. deg and pad are `graphs.neighbor_index` in that order,
    pad rows sorted; norms are the feature norms; zero_features tells
    whether some node has an all-zero feature vector. key, the bytes of
    features and pad, orders a pair; equal keys mean equal records.
    """

    features: np.ndarray
    key: tuple
    deg: np.ndarray
    pad: np.ndarray
    norms: np.ndarray
    zero_features: bool
    pos: np.ndarray

    @property
    def node_count(self):
        return len(self.deg) - 1

    @property
    def feature_dim(self):
        return self.features.shape[1]


def prepare_graph(g):
    """The PreparedGraph of g; refinement stops at a stable or discrete partition."""
    n, count = g.node_count, 0
    for (classes,) in refine_classes([g]):
        if (grown := max(classes, default=-1) + 1) in (count, n):
            break
        count = grown
    order = np.append(np.argsort(classes, kind="stable"), n)
    pos = np.argsort(order)
    deg, pad = neighbor_index(g)
    deg, pad = deg[order], np.sort(pos[pad[order]], axis=1)
    # + 0.0 folds -0.0 into 0.0, which refinement does not tell apart
    x = g.features[order[:-1]] + 0.0
    norms = np.zeros(n + 1)
    # np.linalg.norm(x, axis=1) of real x, bitwise; a norm that overflows is
    # inf, reported by the tables' overflow check
    with np.errstate(over="ignore"):
        np.sqrt((x * x).sum(axis=1), out=norms[:-1])
    zero_features = not (x != 0.0).any(axis=1).all()
    return PreparedGraph(x, (x.shape, x.tobytes(), pad.tobytes()), deg, pad, norms,
                         zero_features, pos[:-1])


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


def _child_index(pairs, starts):
    """(rows, cols): each a-side node's children as flat offsets of rows of
    its pair's table, each b-side node's as columns, blank-padded to the
    batch's widest neighbour list."""
    width = max(max(a.pad.shape[1], b.pad.shape[1]) for a, b in pairs)
    rows = np.concatenate([start + _widen(a.pad, width, a.node_count) * len(b.deg)
                           for (a, b), start in zip(pairs, starts)])
    cols = np.concatenate([_widen(b.pad, width, b.node_count) for _, b in pairs])
    return rows, cols


def _root_buckets(pairs, starts):
    """`_child_buckets` of a batch's root level: cell p's children are the
    trees of pair p's graphs, rows min(i, n_a) and columns min(j, n_b) of
    its last table."""
    na, nb = (np.array([g.node_count for g in side]) for side in zip(*pairs))
    pick = np.arange(max(na.max(), nb.max()))
    rows = np.array(starts)[:, None] + np.minimum(pick, na[:, None]) * (nb[:, None] + 1)
    cells = np.arange(len(pairs))
    return _child_buckets(rows, np.minimum(pick, nb[:, None]), cells, cells, na, nb)


def _child_buckets(rows, cols, ia, ib, deg_a, deg_b):
    """A level's cells with children on at least one side, grouped once.

    Cell c is a tree with deg_a[c] children, at the blank-padded rows[ia[c]]
    of the flat tables, against one with deg_b[c] at columns cols[ib[c]].
    Returns (transports, leaves), each bucket's cells in ascending order.
    transports holds (cells, gather, offs, s) per size s = max(deg_a, deg_b)
    of the cells whose trees both have children: gather the (P, s, s) flat
    indices that pick each cell's blank-padded child cost matrix, and offs
    the (P, s) flat offsets p*s*s + i*s of each row of those P matrices.
    leaves holds (cells, gather, d) per degree d of the tree in the cells of
    a tree against a leaf (the blank included): gather the (P, d) flat
    indices of the tree's children's entries in the blank column (a-side
    tree) or blank row (b-side tree).
    """
    size = np.maximum(deg_a, deg_b)
    # a tree against a leaf is keyed by minus its degree, two leaves by 0
    size[(deg_a == 0) | (deg_b == 0)] *= -1
    transports, leaves = [], []
    for key, cells in group_indices(size):
        s = abs(key)
        if not s:
            continue
        row = rows[:, :s].take(ia[cells], axis=0)
        col = cols[:, :s].take(ib[cells], axis=0)
        if key > 0:
            offs = np.arange(0, len(cells) * s * s, s).reshape(-1, s)
            transports.append((cells, row[:, :, None] + col[:, None, :], offs, s))
        else:
            # the leaf's children are all blank, so row + col runs along
            # the tree's children against the blank
            leaves.append((cells, row + col, s))
    return transports, leaves


def _child_costs(prev, transports, leaves, count, mean):
    """The child transports of a level's `count` cells, grouped by
    `_child_buckets`, over the previous table prev; two leaves cost 0.

    A tree against a leaf moves each child to a blank, at the child's norm,
    so its cost is a sum over exactly its children, with no padding.
    """
    out = np.zeros(count)
    for cells, gather, d in leaves:
        costs = prev.take(gather).sum(axis=1)
        out[cells] = costs / d if mean else costs
    for cells, gather, offs, s in transports:
        c = prev.take(gather)
        # a comprehension, not map(): cProfile misses builtins called from C;
        # joining the P column arrays as bytes costs less than concatenating
        # P tiny arrays, and the dtype the solver returned reads them back
        joined = b"".join([(col := linear_sum_assignment(m)[1]).tobytes() for m in c])
        perms = np.frombuffer(joined, col.dtype).reshape(-1, s)
        costs = c.reshape(-1).take(offs + perms).sum(axis=1)
        out[cells] = costs / s if mean else costs
    return out


def _batch_tables(pairs, cfg):
    """Depth tables 1..cfg.depth of a non-empty batch of (a, b) PreparedGraphs.

    Returns (tables, starts): tables[k-1] is every pair's depth-k table,
    flattened and concatenated, with pair p's (n_a + 1, n_b + 1) table from
    starts[p]. Each cell's value is the one a batch of that pair alone gives.
    Raises ConfigError naming the first depth at which the table of any pair
    in the batch overflows. The blank is a leaf, so the blank row and column
    are the tree norms (see the leaf rule of `_child_costs`).
    """
    starts, ia, ib, core = _batch_layout(pairs)
    # depth 1: feature distances; a node against a blank costs its norm
    base = (np.concatenate([a.norms for a, _ in pairs])[ia]
            + np.concatenate([b.norms for _, b in pairs])[ib])
    base[core] = np.concatenate([cdist_euclidean(a.features, b.features).reshape(-1)
                                 for a, b in pairs])
    if cfg.depth > 1:
        deg_a = np.concatenate([a.deg for a, _ in pairs])[ia]
        deg_b = np.concatenate([b.deg for _, b in pairs])[ib]
        buckets = _child_buckets(*_child_index(pairs, starts), ia, ib, deg_a, deg_b)

    tables = [base]
    # overflow shows as inf and is reported by _check_finite
    with np.errstate(over="ignore"):
        _check_finite(base, 1, cfg)
        for k in range(2, cfg.depth + 1):
            child = _child_costs(tables[-1], *buckets, len(base), cfg.mode == "mean")
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


def tree_distance(ga, u, gb, v, depth, cfg):
    """Distance between the depth-`depth` trees rooted at input node u of ga
    and input node v of gb: their cell of the pair's last table."""
    check_node(ga, u)
    check_node(gb, v)
    local = TmdConfig(depth, cfg.schedule, cfg.mode)
    a, b = prepare_graph(ga), prepare_graph(gb)
    _check_pair(a, b)
    return float(_batch_tables([(a, b)], local)[0][-1][a.pos[u] * (b.node_count + 1) + b.pos[v]])


@functools.lru_cache(maxsize=None)
def _empty_graph(dim):
    """The PreparedGraph of the empty graph with `dim` features."""
    return prepare_graph(AttributedGraph(np.zeros((0, dim))))


def prepared_norm_levels(p, cfg):
    """Per-input-node tree norms at depths 1..cfg.depth of the graph whose
    PreparedGraph is p: the blank column of its tables against the empty
    graph. Raises ConfigError naming the first depth whose norms overflow.
    """
    return [t[p.pos] for t in _batch_tables([(p, _empty_graph(p.feature_dim))], cfg)[0]]


def tree_norm_levels(g, depth, cfg):
    """Per-input-node tree norms for every depth 1..depth; list of length `depth`.

    The norm of a tree is its distance to the blank tree: the root feature
    norm plus the weighted (mode-scaled) sum of child tree norms. Raises
    ConfigError for a depth below 1, and naming the first depth whose norms
    overflow.
    """
    return prepared_norm_levels(prepare_graph(g), TmdConfig(depth, cfg.schedule, cfg.mode))


def tree_norm(g, v, depth, cfg):
    """Distance between the depth-`depth` tree at input node v and the blank tree."""
    check_node(g, v)
    local = TmdConfig(depth, cfg.schedule, cfg.mode)
    p = prepare_graph(g)
    warn_zero_features(int(p.zero_features), 1)
    return float(prepared_norm_levels(p, local)[-1][v])


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


def gathered_entries(a, b):
    """The child-cost entries the pair of PreparedGraphs a, b gathers."""
    return a.node_count * b.node_count * max(a.pad.shape[1], b.pad.shape[1]) ** 2


def _batches(pairs):
    """pairs in consecutive batches within _BATCH_ENTRIES, one pair at least."""
    batch, entries = [], 0
    for a, b in pairs:
        n = gathered_entries(a, b)
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
    out = []
    for batch in _batches([(b, a) if b.key < a.key else (a, b) for a, b in pairs]):
        tables, starts = _batch_tables(batch, cfg)
        out += _child_costs(tables[-1], *_root_buckets(batch, starts), len(batch),
                            cfg.mode == "mean").tolist()
    return out
