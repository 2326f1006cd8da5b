"""The edit-certify workload: edit bounds and GIN certificates by library call.

Every graph gets a node-drop, an edge-drop and a node-perturbation bound
(depth 4, `pascal:4`, sum mode; the bounds at depth L need w(L), so not the
model-matching schedule) and one `lipschitz_check` of the 3-layer sum GIN
against the graph with the perturbed node. Each call computes exactly one
exact distance, so one certificate is one graph pair.

Usage: python3 perfbench/certify.py INPUTS SECONDS OUT.json
runs whole sweeps over all certificates until SECONDS have passed (at least
one), timing each call, and writes latencies, per-sweep start (perf_counter),
wall and CPU time and the outcome of every call for checking afterwards.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import treemover as tm

BOUND_CFG = tm.TmdConfig(4, tm.pascal_weights(4), "sum")


def load(directory):
    """The workload's inputs through the public loaders."""
    ds = tm.load_dataset_json(os.path.join(directory, "primary.json"))
    model = tm.load_model_json(os.path.join(directory, "model.json"))
    with open(os.path.join(directory, "edits.json")) as fh:
        edits = json.load(fh)
    return {"primary": ds, "model": model, "edits": edits}


def one_hot(dim, label):
    x = np.zeros(dim)
    x[label] = 1.0
    return x


class Task(NamedTuple):
    """One certificate: its kind, graph index, the call, and the graph pair
    whose exact distance the call computes."""

    kind: str
    index: int
    call: Callable
    pair: tuple


def tasks(inputs):
    """Every certificate of one sweep, in call order."""
    model = inputs["model"]
    out = []
    for i, (g, e) in enumerate(zip(inputs["primary"].graphs, inputs["edits"])):
        x = one_hot(g.feature_dim, e["label"])
        near = tm.perturb_feature(g, e["perturb_node"], x)
        out += [
            Task("node_drop", i, partial(tm.node_drop_bound, g, e["drop_node"], BOUND_CFG),
                 (g, tm.drop_node(g, e["drop_node"]))),
            Task("edge_drop", i, partial(tm.edge_drop_bound, g, *e["drop_edge"], BOUND_CFG),
                 (g, tm.drop_edge(g, *e["drop_edge"]))),
            Task("perturb", i, partial(tm.node_perturbation_bound, g,
                                       e["perturb_node"], x, BOUND_CFG), (g, near)),
            Task("lipschitz", i, partial(tm.lipschitz_check, model, g, near), (g, near)),
        ]
    return out


def kinds(calls):
    """[kind, graph index] of every certificate, as the report records them."""
    return [[t.kind, t.index] for t in calls]


def outcome(result):
    """The values a certificate is checked on: (bound, exact) or (lhs, rhs, holds)."""
    if isinstance(result, tm.LipschitzCheck):
        return [result.lhs, result.rhs, bool(result.holds())]
    return [result.bound, result.exact_tmd]


def sweep(calls, latencies=None):
    """Run every certificate once; returns the outcomes in call order."""
    out = []
    for task in calls:
        t0 = time.perf_counter()
        result = task.call()
        if latencies is not None:
            latencies.append(time.perf_counter() - t0)
        out.append(outcome(result))
    return out


def run(directory, seconds):
    calls = tasks(load(directory))
    latencies, starts, walls, cpus, outcomes = [], [], [], [], []
    start = time.perf_counter()
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        outcomes.append(sweep(calls, latencies))
        starts.append(w0)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return {"kinds": kinds(calls), "latencies": latencies, "starts": starts,
            "walls": walls, "cpus": cpus, "outcomes": outcomes}


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: certify.py INPUTS SECONDS OUT.json")
    report = run(sys.argv[1], float(sys.argv[2]))
    with open(sys.argv[3], "w") as fh:
        json.dump(report, fh)
