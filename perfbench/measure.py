"""The two measuring modes of a benchmark run and the metrics they report.

`end_to_end` repeats whole passes of the user pipeline in child processes
(the CLI calls, or the certificate loop in its own interpreter) and reports
medians over passes. Its times are scaled to a reference core speed: the
children run the probe in speedprobe/, and each timed window is multiplied
by the mean speed the probe measured inside it (see `speed_factor`).
`traced` runs one plain and one profiled pass in this process, then rounds
of timed calls into every layer. Outputs are checked after the timed window
in both modes.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import treemover as tm

import certify
import checks
import gen
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
# time of the probe kernel at the reference speed (about the median on a
# 2-CPU Xeon VM); a constant, so it scales both commits alike
PROBE_REF_S = 0.0015
CALL_TIMEOUT = 170
COVERAGE_MIN = 0.9

END_TO_END = {
    "setup_s": "s", "pairs_per_s": "1/s", "cpu_ms_per_pair": "ms",
    "peak_rss_mb": "MB", "op_ms_p50": "ms", "op_ms_p90": "ms",
}
COUNT_METRICS = (
    "input.graphs", "input.nodes", "input.edges",
    *(f"input.degree.{d}" for d in range(1, 5)),
    *(f"input.classes.d{k}" for k in range(1, 5)),
    "ot.lsa_calls", "ot.child_solves",
    *(f"ot.child_solves.s{s}" for s in range(1, 4)), "ot.child_solves.s4p",
    "ot.final_solves", "ot.lp_vars", "analysis.workers", "analysis.csv_bytes",
    "learn.kmedoids_iters",
)
PER_LAYER = {
    **{name: "count" for name in COUNT_METRICS},
    "ot.self_s": "s", "ot.lsa_s": "s", "distance.self_s": "s",
    "numpy.self_s": "s", "scipy.self_s": "s",
    "tudataset.parse_s": "s", "graphs.load_json_s": "s",
    "distance.norms_s": "s", "distance.pair_ms_p50": "ms",
    "distance.pair_ms_p90": "ms", "trees.widths_s": "s",
    "analysis.pairwise_s": "s", "analysis.parallel_eff": "ratio",
    "analysis.csv_write_s": "s", "ot.lp_s": "s", "learn.knn_s": "s",
    "learn.kmedoids_s": "s", "bounds.node_drop_ms_p50": "ms",
    "bounds.edge_drop_ms_p50": "ms", "bounds.perturb_ms_p50": "ms",
    "gnn.forward_ms_p50": "ms", "gnn.check_ms_p50": "ms",
    "trace.overhead": "ratio", "trace.coverage": "ratio",
}


def run_child(argv, env):
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=CALL_TIMEOUT)


def probe_env(env, log):
    """`env` for a child that runs the speed probe, logging under `log`."""
    os.makedirs(log, exist_ok=True)
    path = os.path.join(HERE, "speedprobe") + os.pathsep + env["PYTHONPATH"]
    return dict(env, PYTHONPATH=path, PERFBENCH_SPEED_LOG=log)


def speed_factor(log, t0, t1):
    """Mean core speed over [t0, t1] relative to the reference speed.

    Probe samples come every 50 ms of CPU time, so the mean of their speeds
    weighs each part of the window by the CPU time spent in it; a time
    measured in the window times this factor is the time at the reference
    speed.
    """
    speeds = []
    for name in os.listdir(log):
        with open(os.path.join(log, name)) as fh:
            for line in fh:
                t, dt = map(float, line.split())
                if t0 <= t <= t1:
                    speeds.append(PROBE_REF_S / dt)
    if not speeds:
        raise RuntimeError(f"no speed-probe samples in [{t0}, {t1}]")
    return statistics.fmean(speeds)


def time_setup(workload, inputs, env):
    t0 = time.perf_counter()
    run_child([os.path.join(HERE, "workloads.py"), workload, inputs], env)
    t1 = time.perf_counter()
    return (t1 - t0) * speed_factor(env["PERFBENCH_SPEED_LOG"], t0, t1)


def children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def peak_rss_mb():
    """Largest resident set of any finished child (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def read_outputs(workload, out):
    result = {}
    for name in workloads.outputs(workload):
        with open(os.path.join(out, name)) as fh:
            result[name] = fh.read()
    return result


def timed_cli(workload, inputs, work, seconds, env):
    """Repeat the CLI pass until `seconds` are used.

    Returns walls and CPU times at the reference speed, and the outputs.
    """
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    seq = workloads.cli_sequence(workload, inputs, out)
    walls, cpus, versions = [], [], []
    start = time.perf_counter()
    while True:
        c0, t0 = children_cpu(), time.perf_counter()
        for argv in seq:
            run_child(["-m", "treemover.cli", *argv], env)
        t1 = time.perf_counter()
        f = speed_factor(env["PERFBENCH_SPEED_LOG"], t0, t1)
        walls.append((t1 - t0) * f)
        cpus.append((children_cpu() - c0) * f)
        versions.append(read_outputs(workload, out))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, cpus, versions


def check_pass_outputs(tally, workload, versions, loaded, seed):
    """Checks shared by both modes for the CLI workloads."""
    for name in workloads.outputs(workload):
        checks.check_repeats(tally, name, [v[name] for v in versions])
    first = versions[0]
    if workload == "mutag-dist":
        graphs = loaded["primary"].graphs
        rng = np.random.default_rng([seed, 17])
        checks.check_self_matrix(tally, first["dist.csv"], graphs,
                                 workloads.config(workload), rng)
        checks.check_learn_reports(tally, first["knn.json"],
                                   first["cluster.json"], len(graphs))
    else:
        checks.check_shift_report(tally, first["shift.json"], workloads.SHIFT_TESTS)


def scaled_sweeps(rep, log):
    """Sweep walls, CPU times and call latencies of certify.py at the reference speed."""
    per_pass = len(rep["kinds"])
    walls, cpus, ops = [], [], []
    for i, (t0, wall, cpu) in enumerate(zip(rep["starts"], rep["walls"], rep["cpus"])):
        f = speed_factor(log, t0, t0 + wall)
        walls.append(wall * f)
        cpus.append(cpu * f)
        ops += [lat * f for lat in rep["latencies"][i * per_pass:(i + 1) * per_pass]]
    return walls, cpus, ops


def end_to_end(workload, inputs, work, seconds, seed, env):
    env = probe_env(env, os.path.join(work, "speed"))
    setup = [time_setup(workload, inputs, env) for _ in range(SETUP_REPEATS)]
    tally = checks.Checks()
    if workload == "edit-certify":
        report_path = os.path.join(work, "certify.json")
        run_child([os.path.join(HERE, "certify.py"), inputs, str(seconds),
                   report_path], env)
        with open(report_path) as fh:
            rep = json.load(fh)
        walls, cpus, ops = scaled_sweeps(rep, env["PERFBENCH_SPEED_LOG"])
        per_pass = len(rep["kinds"])
        checks.check_certificates(tally, rep["kinds"], rep["outcomes"])
    else:
        walls, cpus, versions = timed_cli(workload, inputs, work, seconds, env)
        ops = walls
        loaded = workloads.load(workload, inputs)
        per_pass = len(workloads.pairs(workload, loaded))
        check_pass_outputs(tally, workload, versions, loaded, seed)
    metrics = {
        "setup_s": statistics.median(setup),
        "pairs_per_s": per_pass / statistics.median(walls),
        "cpu_ms_per_pair": 1000 * statistics.median(cpus) / per_pass,
        "peak_rss_mb": peak_rss_mb(),
        "op_ms_p50": 1000 * tracing.percentile(ops, 50),
        "op_ms_p90": 1000 * tracing.percentile(ops, 90),
    }
    return metrics, tally


def traced(workload, inputs, work, seconds, seed, manifest, trace_path):
    tally = checks.Checks()
    cfg = workloads.config(workload)
    loaded = workloads.load(workload, inputs)
    spans = tracing.Spans()
    start = time.perf_counter()
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    with spans.span("pass.plain"):
        plain = workloads.run_pass(workload, inputs, out, loaded)
    versions = [read_outputs(workload, out)]
    profiled, wall, main_stats, stats = tracing.profile_pass(
        lambda: workloads.run_pass(workload, inputs, out, loaded),
        os.path.join(work, "prof"))
    versions.append(read_outputs(workload, out))
    if workload == "edit-certify":
        kinds = certify.kinds(certify.tasks(loaded))
        checks.check_certificates(tally, kinds, [plain, profiled])
    else:
        check_pass_outputs(tally, workload, versions, loaded, seed)

    by_size, final = tracing.child_solves(workloads.pairs(workload, loaded), cfg.depth)
    lsa_calls, lsa_s = tracing.lsa_entry(stats)
    tally.add("ot.lsa_calls_match_degrees", lsa_calls == sum(by_size) + final)
    selfs = tracing.self_times(stats)
    coverage = sum(tracing.self_times(main_stats).values()) / wall
    tally.add("trace.coverage", coverage >= COVERAGE_MIN)

    with open(os.path.join(inputs, "edits.json")) as fh:
        edits = json.load(fh)
    ctx = {"cfg": cfg, "graphs": loaded["primary"].graphs,
           "text": (os.path.join(inputs, "text"), gen.TEXT_NAME),
           "json": os.path.join(inputs, "primary.json"),
           "labels": list(loaded["primary"].labels), "edits": edits,
           "model": tm.load_model_json(os.path.join(inputs, "model.json")),
           "rng": np.random.default_rng([seed, 23]), "tmp": work,
           "threads": workloads.SHIFT_THREADS,
           "lp_costs": workloads.transport_costs(workload, loaded)}
    rounds = []
    while True:
        r0 = time.perf_counter()
        with spans.span("probe.round"):
            extra = tracing.probe_layers(spans, ctx)
        rounds.append(time.perf_counter() - r0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break

    metrics = {
        "input.graphs": manifest["graphs"], "input.nodes": manifest["nodes"],
        "input.edges": manifest["edges"],
        **{f"input.degree.{d}": c
           for d, c in enumerate(manifest["degree_histogram"]) if 1 <= d <= 4},
        **{f"input.classes.d{k}": c
           for k, c in enumerate(manifest["classes_per_depth"], start=1)},
        "ot.lsa_calls": lsa_calls, "ot.child_solves": sum(by_size),
        **{f"ot.child_solves.s{s}": by_size[s - 1] for s in range(1, 4)},
        "ot.child_solves.s4p": by_size[3], "ot.final_solves": final,
        "ot.self_s": selfs.get("ot", 0.0), "ot.lsa_s": lsa_s,
        "distance.self_s": selfs.get("distance", 0.0),
        "numpy.self_s": selfs.get("numpy", 0.0),
        "scipy.self_s": selfs.get("scipy", 0.0),
        **tracing.probe_metrics(spans, ctx["threads"]), **extra,
        "trace.overhead": wall / spans.durations("pass.plain")[0],
        "trace.coverage": coverage,
    }
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"spans": spans.to_json(), "self_s": selfs,
                   "metrics": metrics}, fh, indent=1)
    return metrics, tally
