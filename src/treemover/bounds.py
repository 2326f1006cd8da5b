"""Closed-form stability bounds for single graph edits.

Each bound prices an edit (node drop, edge drop, feature change) against the
tree mover's distance between the original and edited graph, using only
quantities of the original graph: per-level tree widths, tree norms at
decreasing depths, and cumulative weight products

    lambda_1 = 1,   lambda_l = prod_{j=1}^{l-1} w(L + 1 - j).

The bounds hold with the built-in schedules (constant, pascal), whose levels
are non-decreasing; a custom schedule that decreases in the level can make
the lambda products undercut the per-level coupling factors.

Tree norms are always taken in "sum" mode: the mean-mode distance never
exceeds the sum-mode one, so the bound stays valid for either mode of the
exact distance being reported.

Each bound prepares the original graph once (`distance.prepare_graph`) and
takes its tree widths, its norms (in sum mode) and the exact distance from
that record; in mean mode the norms come from a second, sum-mode record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import prepare_graph, prepared_norm_levels, prepared_tmd, tmd
from .graphs import drop_edge, drop_node, perturb_feature
from .schedule import TmdConfig
from .trees import padded_tree_widths


@dataclass(frozen=True)
class PerturbationReport:
    """Bound vs exact distance for one edit.

    widths holds one per-level width vector per node involved (one for node
    edits, two for an edge drop); lambdas are the cumulative weight products,
    lambdas[l-1] for level l.
    """

    kind: str
    bound: float
    exact_tmd: float
    widths: tuple
    lambdas: tuple

    @property
    def gap(self):
        return self.bound - self.exact_tmd

    def to_json(self):
        return {
            "kind": self.kind,
            "bound": self.bound,
            "exact_tmd": self.exact_tmd,
            "gap": self.gap,
            "widths": [[int(w) for w in ws] for ws in self.widths],
            "lambdas": list(self.lambdas),
        }


def lambda_coefficients(schedule, depth):
    """Cumulative products lambda_1..lambda_depth for a depth-L computation."""
    lams = [1.0]
    for l in range(2, depth + 1):
        lams.append(lams[-1] * schedule.weight(depth + 1 - (l - 1)))
    return np.asarray(lams)


def _widths(p, v, depth):
    return padded_tree_widths(p.pad[:-1], v, depth)


def _sum_norm_levels(g, p, cfg):
    """Sum-mode tree norms of g at depths 1..cfg.depth; p is g's
    PreparedGraph under cfg, which serves in sum mode."""
    sum_cfg = TmdConfig(cfg.depth, cfg.schedule, "sum")
    if cfg.mode != "sum":
        p = prepare_graph(g, sum_cfg)
    return prepared_norm_levels(p, sum_cfg)


def _exact(g, p, edited, cfg):
    return prepared_tmd(g, p, edited, prepare_graph(edited, cfg), cfg)


def node_drop_bound(g, v, cfg):
    """Bound on the distance to the graph with node v removed.

    Level l accounts for the occurrences of v at depth l across all trees:
    width_l of v's own tree counts them, and each drags a depth-(L - l + 1)
    subtree of v to a blank.
    """
    if not (0 <= v < g.node_count):
        raise IndexError(f"node {v} out of range for {g.node_count} nodes")
    depth = cfg.depth
    p = prepare_graph(g, cfg)
    widths = _widths(p, v, depth)
    lams = lambda_coefficients(cfg.schedule, depth)
    norms = _sum_norm_levels(g, p, cfg)
    bound = 0.0
    for l in range(1, depth + 1):
        bound += lams[l - 1] * widths[l - 1] * norms[depth - l][v]
    exact = _exact(g, p, drop_node(g, v), cfg)
    return PerturbationReport(
        kind="node_drop",
        bound=float(bound),
        exact_tmd=exact,
        widths=(tuple(int(w) for w in widths),),
        lambdas=tuple(float(x) for x in lams),
    )


def edge_drop_bound(g, u, v, cfg):
    """Bound on the distance to the graph with edge {u, v} removed.

    Severing the edge removes u's subtrees under occurrences of v and vice
    versa, one level deeper than the occurrence itself; depth-1 distances
    cannot see edges, so the bound is 0 when depth == 1.
    """
    key = (u, v) if u < v else (v, u)
    if key not in g.edges:
        raise ValueError(f"edge ({u}, {v}) not present")
    depth = cfg.depth
    p = prepare_graph(g, cfg)
    lams = lambda_coefficients(cfg.schedule, depth)
    widths_u = _widths(p, u, depth)
    widths_v = _widths(p, v, depth)
    norms = _sum_norm_levels(g, p, cfg)
    bound = 0.0
    for l in range(1, depth):
        bound += lams[l] * (
            widths_v[l - 1] * norms[depth - l - 1][u]
            + widths_u[l - 1] * norms[depth - l - 1][v]
        )
    exact = _exact(g, p, drop_edge(g, u, v), cfg)
    return PerturbationReport(
        kind="edge_drop",
        bound=float(bound),
        exact_tmd=exact,
        widths=(
            tuple(int(w) for w in widths_u),
            tuple(int(w) for w in widths_v),
        ),
        lambdas=tuple(float(x) for x in lams),
    )


def node_perturbation_bound(g, v, x_new, cfg):
    """Bound on the distance after replacing node v's feature vector.

    Every occurrence of v contributes the feature displacement once, so the
    bound is linear in ||x_v - x_new||.
    """
    if not (0 <= v < g.node_count):
        raise IndexError(f"node {v} out of range for {g.node_count} nodes")
    x_new = np.asarray(x_new, dtype=np.float64).reshape(-1)
    if x_new.shape[0] != g.feature_dim:
        raise ValueError(
            f"feature has dimension {x_new.shape[0]}, graph has {g.feature_dim}"
        )
    depth = cfg.depth
    p = prepare_graph(g, cfg)
    widths = _widths(p, v, depth)
    lams = lambda_coefficients(cfg.schedule, depth)
    delta = float(np.linalg.norm(g.features[v] - x_new))
    bound = float(np.dot(lams, widths.astype(np.float64)) * delta)
    exact = _exact(g, p, perturb_feature(g, v, x_new), cfg)
    return PerturbationReport(
        kind="node_perturbation",
        bound=bound,
        exact_tmd=exact,
        widths=(tuple(int(w) for w in widths),),
        lambdas=tuple(float(x) for x in lams),
    )


def edit_sequence_bound(g, edits, cfg):
    """Chain single-edit bounds along a sequence of edits.

    edits are ("drop_node", v) / ("drop_edge", u, v) / ("perturb", v, x).
    The per-step bounds telescope through the triangle inequality, so the
    summed bound covers the distance from the original to the final graph.
    Returns (total_bound, exact_tmd, final_graph).
    """
    cur = g
    total = 0.0
    for edit in edits:
        op = edit[0]
        if op == "drop_node":
            rep = node_drop_bound(cur, edit[1], cfg)
            cur = drop_node(cur, edit[1])
        elif op == "drop_edge":
            rep = edge_drop_bound(cur, edit[1], edit[2], cfg)
            cur = drop_edge(cur, edit[1], edit[2])
        elif op == "perturb":
            rep = node_perturbation_bound(cur, edit[1], edit[2], cfg)
            cur = perturb_feature(cur, edit[1], edit[2])
        else:
            raise ValueError(f"unknown edit {op!r}")
        total += rep.bound
    return float(total), tmd(g, cur, cfg), cur
