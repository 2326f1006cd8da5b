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

Each bound is a private step and its report. The step makes the edit
first, so the edit operations of `graphs` are the only checks of its
arguments, then prepares the original graph once (`distance.prepare_graph`,
a record valid under every config) and takes its tree widths and its
sum-mode norms from that record. The report adds the exact distance from
the same record. `edit_sequence_bound` sums the steps and computes one
exact distance, from the original to the final graph.
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


def _sum_norm_levels(p, cfg):
    """Sum-mode tree norms at depths 1..cfg.depth of the graph whose
    PreparedGraph is p."""
    return prepared_norm_levels(p, TmdConfig(cfg.depth, cfg.schedule, "sum"))


def _node_drop(g, v, cfg):
    """The step of `node_drop_bound`: (edited, record of g, bound, widths, lambdas)."""
    edited = drop_node(g, v)
    depth = cfg.depth
    p = prepare_graph(g)
    widths = padded_tree_widths(p.pad, p.pos[v], depth)
    lams = lambda_coefficients(cfg.schedule, depth)
    norms = _sum_norm_levels(p, cfg)
    bound = 0.0
    for l in range(1, depth + 1):
        bound += lams[l - 1] * widths[l - 1] * norms[depth - l][v]
    return edited, p, bound, (widths,), lams


def _edge_drop(g, u, v, cfg):
    """The step of `edge_drop_bound`: (edited, record of g, bound, widths, lambdas)."""
    edited = drop_edge(g, u, v)
    depth = cfg.depth
    p = prepare_graph(g)
    lams = lambda_coefficients(cfg.schedule, depth)
    widths_u = padded_tree_widths(p.pad, p.pos[u], depth)
    widths_v = padded_tree_widths(p.pad, p.pos[v], depth)
    norms = _sum_norm_levels(p, cfg)
    bound = 0.0
    for l in range(1, depth):
        bound += lams[l] * (
            widths_v[l - 1] * norms[depth - l - 1][u]
            + widths_u[l - 1] * norms[depth - l - 1][v]
        )
    return edited, p, bound, (widths_u, widths_v), lams


def _node_perturbation(g, v, x_new, cfg):
    """The step of `node_perturbation_bound`: (edited, record of g, bound, widths, lambdas)."""
    edited = perturb_feature(g, v, x_new)
    depth = cfg.depth
    p = prepare_graph(g)
    widths = padded_tree_widths(p.pad, p.pos[v], depth)
    lams = lambda_coefficients(cfg.schedule, depth)
    delta = float(np.linalg.norm(g.features[v] - edited.features[v]))
    bound = np.dot(lams, widths.astype(np.float64)) * delta
    return edited, p, bound, (widths,), lams


def _report(kind, step, cfg):
    """The report of an edit step: its bound against the exact distance
    between the original and the edited graph."""
    edited, p, bound, widths, lams = step
    return PerturbationReport(
        kind=kind,
        bound=float(bound),
        exact_tmd=prepared_tmd(p, prepare_graph(edited), cfg),
        widths=tuple(tuple(int(w) for w in ws) for ws in widths),
        lambdas=tuple(float(x) for x in lams),
    )


def node_drop_bound(g, v, cfg):
    """Bound on the distance to the graph with node v removed.

    Level l accounts for the occurrences of v at depth l across all trees:
    width_l of v's own tree counts them, and each drags a depth-(L - l + 1)
    subtree of v to a blank.
    """
    return _report("node_drop", _node_drop(g, v, cfg), cfg)


def edge_drop_bound(g, u, v, cfg):
    """Bound on the distance to the graph with edge {u, v} removed.

    Severing the edge removes u's subtrees under occurrences of v and vice
    versa, one level deeper than the occurrence itself; depth-1 distances
    cannot see edges, so the bound is 0 when depth == 1.
    """
    return _report("edge_drop", _edge_drop(g, u, v, cfg), cfg)


def node_perturbation_bound(g, v, x_new, cfg):
    """Bound on the distance after replacing node v's feature vector.

    Every occurrence of v contributes the feature displacement once, so the
    bound is linear in ||x_v - x_new||.
    """
    return _report("node_perturbation", _node_perturbation(g, v, x_new, cfg), cfg)


_STEPS = {"drop_node": _node_drop, "drop_edge": _edge_drop, "perturb": _node_perturbation}


def edit_sequence_bound(g, edits, cfg):
    """Chain single-edit bounds along a sequence of edits.

    edits are ("drop_node", v) / ("drop_edge", u, v) / ("perturb", v, x).
    The per-step bounds telescope through the triangle inequality, so the
    summed bound covers the distance from the original to the final graph,
    the one exact distance computed. Returns (total_bound, exact_tmd,
    final_graph).
    """
    cur = g
    total = 0.0
    for op, *args in edits:
        if op not in _STEPS:
            raise ValueError(f"unknown edit {op!r}")
        cur, _, bound, _, _ = _STEPS[op](cur, *args, cfg)
        total += float(bound)
    return float(total), tmd(g, cur, cfg), cur
