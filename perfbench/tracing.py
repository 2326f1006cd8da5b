"""The traced run: spans, a profile aggregated by module file, exact counts.

Spans are perf_counter intervals recorded by the benchmark around calls into
public functions; they stay in memory and are written once at the end.
cProfile self time is summed per module file (treemover modules by name,
numpy, scipy, builtins, other) so the figures survive refactors inside a
module. Worker processes forked during the profiled pass profile themselves
and leave a stats file that is merged in.
"""

from __future__ import annotations

import cProfile
import glob
import multiprocessing.util
import os
import pstats
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np
import treemover as tm

import certify

LSA = "linear_sum_assignment"
PAIR_SAMPLES = 40  # direct tmd calls per probe round
PROBE_GRAPHS = 12  # graphs in the probe matrix and the bound/GNN probes


class Spans:
    """In-memory spans: name, start, end and the enclosing span's index."""

    def __init__(self):
        self.items = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.items)
        self.items.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.items[idx][2] = time.perf_counter()

    def durations(self, name):
        return [end - start for n, start, end, _ in self.items if n == name]

    def to_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.items]


class ChildProfiler:
    """Profiles multiprocessing children forked while active.

    Each child drops the profiler it inherited, starts its own and dumps it
    to `outdir` when the child exits normally.
    """

    def __init__(self, outdir):
        self.outdir = outdir
        self.active = True
        multiprocessing.util.register_after_fork(self, ChildProfiler._start)

    def _start(self):
        if not self.active:
            return
        sys.setprofile(None)
        prof = cProfile.Profile()
        path = os.path.join(self.outdir, f"child-{os.getpid()}.prof")

        def dump():
            prof.disable()
            prof.dump_stats(path)

        multiprocessing.util.Finalize(None, dump, exitpriority=100)
        prof.enable()

    def stats_files(self):
        return sorted(glob.glob(os.path.join(self.outdir, "child-*.prof")))


class WorkerCounter:
    """Counts multiprocessing children forked until stop(): each child leaves
    a marker file in `outdir` as it starts."""

    def __init__(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        self.outdir = outdir
        self.active = True
        multiprocessing.util.register_after_fork(self, WorkerCounter._mark)

    def _mark(self):
        if self.active:
            open(os.path.join(self.outdir, f"worker-{os.getpid()}"), "w").close()

    def stop(self):
        """Stop counting; returns the number of children seen and clears them."""
        self.active = False
        marks = glob.glob(os.path.join(self.outdir, "worker-*"))
        for path in marks:
            os.remove(path)
        return len(marks)


def profile_pass(fn, outdir):
    """Run fn() under cProfile, forked children included.

    Returns fn's result, the wall time, this process's stats and the stats
    merged with every child's.
    """
    os.makedirs(outdir, exist_ok=True)
    children = ChildProfiler(outdir)
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
        wall = time.perf_counter() - t0
        children.active = False
    main = pstats.Stats(prof)
    merged = pstats.Stats(prof)
    for f in children.stats_files():
        merged.add(f)
    return result, wall, main, merged


def bucket(key):
    """Module bucket of a profile entry (file, line, function)."""
    path, _, func = key
    if path == "~":
        for pkg in ("numpy", "scipy"):
            if pkg in func:
                return pkg
        return "builtins"
    parts = path.replace("\\", "/").split("/")
    if "treemover" in parts[:-1]:
        return os.path.splitext(parts[-1])[0]
    for pkg in ("numpy", "scipy"):
        if pkg in parts:
            return pkg
    return "other"


def self_times(stats):
    out = {}
    for key, (_, _, tt, _, _) in stats.stats.items():
        b = bucket(key)
        out[b] = out.get(b, 0.0) + tt
    return out


def lsa_entry(stats):
    """(calls, self seconds) of the native linear_sum_assignment."""
    calls, tt = 0, 0.0
    for (path, _, func), (_, nc, t, _, _) in stats.stats.items():
        if path == "~" and func.endswith(LSA + ">"):
            calls += nc
            tt += t
    return calls, tt


def child_solves(pairs, depth):
    """Child transports that run an assignment, by padded size max(deg u, deg v)
    (sizes 1, 2, 3 and >= 4; the generator caps degree at 4).

    Every depth 2..L table computes one child transport per node pair; it is
    an assignment when both nodes have neighbours. Also returns the number of
    final graph-level assignments (both graphs non-empty).
    """
    by_size = np.zeros(5, dtype=np.int64)  # index 4 holds sizes >= 4
    final = 0
    for ga, gb in pairs:
        da = np.bincount([len(nb) for nb in ga.neighbors], minlength=1)
        db = np.bincount([len(nb) for nb in gb.neighbors], minlength=1)
        for x in range(1, len(da)):
            for y in range(1, len(db)):
                by_size[min(max(x, y), 4)] += int(da[x]) * int(db[y])
        final += int(ga.node_count > 0 and gb.node_count > 0)
    by_size *= max(depth - 1, 0)
    return [int(c) for c in by_size[1:]], final


def percentile(values, q):
    """Percentile q (0-100) by linear interpolation between order statistics."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def probe_layers(spans, ctx):
    """One round of timed calls into every layer on the workload's inputs.

    ctx holds: text (dir, name), json path, labels, model, edits, cfg,
    graphs, rng (numpy Generator), tmp (scratch dir), threads, and lp_costs:
    the cost matrices of the workload's own dataset LPs, or None when it
    solves none, in which case the LP probe couples two halves of the probe
    matrix.
    """
    cfg, graphs = ctx["cfg"], ctx["graphs"]
    with spans.span("tudataset.parse"):
        tm.parse_tudataset(*ctx["text"])
    with spans.span("graphs.load_json"):
        tm.load_dataset_json(ctx["json"])
    with spans.span("distance.norms"):
        for g in graphs:
            tm.tree_norm_levels(g, cfg.depth, cfg)
    with spans.span("trees.widths"):
        for g in graphs:
            for v in range(g.node_count):
                tm.tree_widths(g, v, cfg.depth)
    n = len(graphs)
    for _ in range(PAIR_SAMPLES):
        i, j = (int(x) for x in ctx["rng"].choice(n, size=2, replace=False))
        with spans.span("distance.pair"):
            tm.tmd(graphs[i], graphs[j], cfg)
    sub = tm.GraphDataset(graphs[:PROBE_GRAPHS])
    with spans.span("analysis.pairwise"):
        dm = tm.pairwise_tmd(sub, None, cfg, threads=1)
    workers = WorkerCounter(os.path.join(ctx["tmp"], "workers"))
    with spans.span("analysis.pairwise_parallel"):
        tm.pairwise_tmd(sub, None, cfg, threads=ctx["threads"])
    n_workers = workers.stop()
    csv = os.path.join(ctx["tmp"], "probe.csv")
    with spans.span("analysis.csv_write"):
        tm.save_distance_csv(csv, dm)
    half = PROBE_GRAPHS // 2
    costs = ctx["lp_costs"] or [dm.values[:half, half:]]
    with spans.span("ot.lp"):
        plans = [tm.solve_transport(c, np.full(c.shape[0], 1 / c.shape[0]),
                                    np.full(c.shape[1], 1 / c.shape[1]))
                 for c in costs]
    labels = ctx["labels"][:PROBE_GRAPHS]
    with spans.span("learn.knn"):
        tm.loo_knn_accuracy(dm.values, labels, 1)
    with spans.span("learn.kmedoids"):
        km = tm.kmedoids(dm.values, 2, 0)
    for g, e in zip(graphs[:PROBE_GRAPHS], ctx["edits"]):
        x = certify.one_hot(g.feature_dim, e["label"])
        with spans.span("bounds.node_drop"):
            tm.node_drop_bound(g, e["drop_node"], cfg)
        with spans.span("bounds.edge_drop"):
            tm.edge_drop_bound(g, *e["drop_edge"], cfg)
        with spans.span("bounds.perturb"):
            tm.node_perturbation_bound(g, e["perturb_node"], x, cfg)
        with spans.span("gnn.forward"):
            tm.gin_forward(ctx["model"], g)
        near = tm.perturb_feature(g, e["perturb_node"], x)
        with spans.span("gnn.check"):
            tm.lipschitz_check(ctx["model"], g, near)
    return {"analysis.csv_bytes": os.path.getsize(csv),
            "ot.lp_vars": sum(int(p.flow.size) for p in plans),
            "analysis.workers": n_workers,
            "learn.kmedoids_iters": int(km.n_iter)}


def probe_metrics(spans, threads):
    """Per-layer figures from the probe spans (medians over rounds)."""
    def med(name):
        return statistics.median(spans.durations(name))

    def ms(name, q):
        return 1000 * percentile(spans.durations(name), q)

    serial = med("analysis.pairwise")
    return {
        "tudataset.parse_s": med("tudataset.parse"),
        "graphs.load_json_s": med("graphs.load_json"),
        "distance.norms_s": med("distance.norms"),
        "distance.pair_ms_p50": ms("distance.pair", 50),
        "distance.pair_ms_p90": ms("distance.pair", 90),
        "trees.widths_s": med("trees.widths"),
        "analysis.pairwise_s": serial,
        "analysis.parallel_eff": serial / (threads * med("analysis.pairwise_parallel")),
        "analysis.csv_write_s": med("analysis.csv_write"),
        "ot.lp_s": med("ot.lp"),
        "learn.knn_s": med("learn.knn"),
        "learn.kmedoids_s": med("learn.kmedoids"),
        "bounds.node_drop_ms_p50": ms("bounds.node_drop", 50),
        "bounds.edge_drop_ms_p50": ms("bounds.edge_drop", 50),
        "bounds.perturb_ms_p50": ms("bounds.perturb", 50),
        "gnn.forward_ms_p50": ms("gnn.forward", 50),
        "gnn.check_ms_p50": ms("gnn.check", 50),
    }
