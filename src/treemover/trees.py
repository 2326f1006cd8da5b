"""Materialised computation trees: widths, and the literal recursive distance.

The dynamic-programming route in `distance` never builds trees. This module
does, both for the per-level width counts the perturbation bounds need and
for `naive_tmd`, an intentionally direct evaluator (own tree objects, own
bitmask assignment solver) used to cross-check the DP on small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import check_feature_dims, neighbor_index


@dataclass(frozen=True)
class ComputationTree:
    """A rooted unrolling: root feature plus child subtrees."""

    feature: np.ndarray
    children: tuple = ()
    depth: int = 1


def blank_tree(feature_dim):
    """The padding tree: a single node with an all-zero feature."""
    return ComputationTree(np.zeros(feature_dim), (), 1)


def computation_tree(g, v, depth):
    """Depth-`depth` computation tree rooted at node v.

    Repeated (node, depth) subtrees are shared objects, so the result is a
    DAG of at most node_count * depth distinct trees.
    """
    if not (0 <= v < g.node_count):
        raise IndexError(f"node {v} out of range for {g.node_count} nodes")
    if int(depth) != depth or depth < 1:
        raise ValueError(f"depth must be an integer >= 1, got {depth}")
    memo = {}

    def build(u, d):
        key = (u, d)
        if key not in memo:
            if d == 1 or not g.neighbors[u]:
                kids = ()
            else:
                kids = tuple(build(x, d - 1) for x in g.neighbors[u])
            dep = 1 + max((k.depth for k in kids), default=0)
            memo[key] = ComputationTree(g.features[u], kids, dep)
        return memo[key]

    return build(v, int(depth))


def tree_widths(g, v, depth):
    """Number of tree nodes at each level 1..depth (with multiplicity).

    counts[u] is how often u occurs at the current level; one level down,
    each node occurs once per occurrence of each of its neighbours, summed
    over the blank-padded neighbour rows (the blank counts 0). Integer sums,
    so exact.
    """
    if not (0 <= v < g.node_count):
        raise IndexError(f"node {v} out of range for {g.node_count} nodes")
    if int(depth) != depth or depth < 1:
        raise ValueError(f"depth must be an integer >= 1, got {depth}")
    return padded_tree_widths(neighbor_index(g)[1], v, int(depth))


def padded_tree_widths(pad, v, depth):
    """`tree_widths` from the n blank-padded neighbour rows of
    `graphs.neighbor_index`, without argument checks."""
    counts = np.zeros(len(pad) + 1, dtype=np.int64)
    counts[v] = 1
    widths = [1]
    for _ in range(depth - 1):
        counts[:-1] = counts[pad].sum(axis=1)
        widths.append(int(counts.sum()))
    return np.asarray(widths, dtype=np.int64)


def tree_width(g, v, depth, level):
    """Width of the depth-`depth` tree at v for one level (1-based)."""
    if not (1 <= level <= depth):
        raise ValueError(f"level must lie in 1..{depth}, got {level}")
    return int(tree_widths(g, v, depth)[level - 1])


def _bitmask_assignment(c):
    """Exact square assignment by subset DP; independent of any LP library."""
    s = len(c)
    if s == 0:
        return 0.0
    if s > 12:
        raise ValueError(f"bitmask assignment limited to 12 elements, got {s}")
    full = 1 << s
    dp = np.full(full, np.inf)
    dp[0] = 0.0
    for mask in range(full - 1):
        i = bin(mask).count("1")
        base = dp[mask]
        if not np.isfinite(base):
            continue
        for j in range(s):
            bit = 1 << j
            if not mask & bit:
                cand = base + c[i][j]
                if cand < dp[mask | bit]:
                    dp[mask | bit] = cand
    return float(dp[full - 1])


def naive_tree_distance(ta, tb, cfg, _memo=None):
    """Literal recursive tree distance (blank padding, max-depth rule)."""
    memo = {} if _memo is None else _memo

    def dist(a, b):
        key = (id(a), id(b))
        if key in memo:
            return memo[key]
        base = float(np.linalg.norm(a.feature - b.feature))
        level = max(a.depth, b.depth)
        if level == 1:
            memo[key] = base
            return base
        w = cfg.schedule.weight(level - 1)
        ca = list(a.children)
        cb = list(b.children)
        s = max(len(ca), len(cb))
        blank = blank_tree(len(a.feature))
        ca += [blank] * (s - len(ca))
        cb += [blank] * (s - len(cb))
        cost = _bitmask_assignment([[dist(x, y) for y in cb] for x in ca])
        if cfg.mode == "mean":
            cost /= s
        out = base + w * cost
        memo[key] = out
        return out

    return dist(ta, tb)


def naive_tmd(ga, gb, cfg, max_nodes=10, max_depth=4):
    """Tree mover's distance evaluated on materialised trees.

    Exponential bookkeeping keeps this honest but slow; the size guard
    rejects inputs beyond `max_nodes` nodes or depth `max_depth` unless the
    caller raises the limits explicitly.
    """
    for g in (ga, gb):
        if g.node_count > max_nodes:
            raise ValueError(
                f"size guard: {g.node_count} nodes exceeds max_nodes={max_nodes}"
            )
    if cfg.depth > max_depth:
        raise ValueError(f"size guard: depth {cfg.depth} exceeds max_depth={max_depth}")
    check_feature_dims(ga, gb)
    na, nb = ga.node_count, gb.node_count
    s = max(na, nb)
    if s == 0:
        return 0.0
    roots_a = [computation_tree(ga, v, cfg.depth) for v in range(na)]
    roots_b = [computation_tree(gb, v, cfg.depth) for v in range(nb)]
    blank = blank_tree(ga.feature_dim)
    roots_a += [blank] * (s - na)
    roots_b += [blank] * (s - nb)
    memo = {}
    c = [[naive_tree_distance(x, y, cfg, memo) for y in roots_b] for x in roots_a]
    cost = _bitmask_assignment(c)
    if cfg.mode == "mean":
        cost /= s
    return float(cost)
