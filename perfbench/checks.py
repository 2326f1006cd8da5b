"""Output checks, run outside the timed window.

Every check counts as one attempted operation; a failed check makes the run
incorrect. The distance oracle materialises computation trees and compares
them with `naive_tree_distance`, then couples the node trees with
`augmented_ot`; `naive_tmd` itself refuses graphs above 10 nodes.
"""

from __future__ import annotations

import json
import math

import numpy as np
import treemover as tm

ORACLE_CELLS = 6
ORACLE_RTOL = 1e-9
BOUND_RTOL = 1e-9


class Checks:
    """Tally of named pass/fail checks; keeps the names of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    @property
    def failed(self):
        return len(self.failures)


def oracle_tmd(ga, gb, cfg):
    """Exact distance from materialised trees, independent of the DP tables."""
    roots_a = [tm.computation_tree(ga, v, cfg.depth) for v in range(ga.node_count)]
    roots_b = [tm.computation_tree(gb, v, cfg.depth) for v in range(gb.node_count)]
    blank = tm.blank_tree(ga.feature_dim)
    memo = {}
    core = [[tm.naive_tree_distance(x, y, cfg, memo) for y in roots_b] for x in roots_a]
    rn = [tm.naive_tree_distance(x, blank, cfg, memo) for x in roots_a]
    cn = [tm.naive_tree_distance(blank, y, cfg, memo) for y in roots_b]
    return tm.augmented_ot(np.asarray(core), rn, cn,
                           normalized=cfg.mode == "mean").cost


def read_matrix(text):
    """Rows of a distance CSV, parsed here rather than by the program."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return np.array([[float(x) for x in ln.split(",")] for ln in rows])


def check_self_matrix(checks, csv_text, graphs, cfg, rng):
    m = read_matrix(csv_text)
    n = len(graphs)
    if not checks.add("csv.shape", m.shape == (n, n)):
        return
    checks.add("csv.finite", bool(np.all(np.isfinite(m))))
    checks.add("csv.zero_diagonal", bool(np.all(np.diag(m) == 0.0)))
    checks.add("csv.symmetric", bool(np.array_equal(m, m.T)))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k in rng.choice(len(upper), size=min(ORACLE_CELLS, len(upper)), replace=False):
        i, j = upper[int(k)]
        want = oracle_tmd(graphs[i], graphs[j], cfg)
        checks.add(f"csv.oracle[{i},{j}]",
                   math.isclose(m[i, j], want, rel_tol=ORACLE_RTOL, abs_tol=1e-12))


def check_learn_reports(checks, knn_text, cluster_text, n):
    knn = json.loads(knn_text)
    checks.add("knn.accuracy", 0.0 <= knn["loo_accuracy"] <= 1.0 and knn["count"] == n)
    cluster = json.loads(cluster_text)
    checks.add("cluster.medoids", len(set(cluster["medoids"])) == 2)


def check_shift_report(checks, text, tests):
    rep = json.loads(text)
    names = [e["test"] for e in rep["entries"]]
    checks.add("shift.entries", sorted(names) == sorted(tests))
    checks.add("shift.control_first", bool(names) and names[0] == "control")
    checks.add("shift.w1_positive",
               all(math.isfinite(e["w1"]) and e["w1"] > 0 for e in rep["entries"]))


def check_certificates(checks, kinds, outcomes):
    """Bounds cover their exact distance and every check holds, each sweep alike."""
    first = outcomes[0]
    for (kind, i), out in zip(kinds, first):
        if kind == "lipschitz":
            checks.add(f"{kind}[{i}].holds", out[2] is True)
        else:
            bound, exact = out
            checks.add(f"{kind}[{i}].bound",
                       exact <= bound + BOUND_RTOL * max(1.0, bound))
    for s, later in enumerate(outcomes[1:], start=1):
        checks.add(f"sweep[{s}].repeats", later == first)


def check_repeats(checks, name, versions):
    """Every pass wrote byte-identical output."""
    checks.add(f"{name}.identical", all(v == versions[0] for v in versions))
