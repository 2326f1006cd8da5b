"""The three benchmark workloads: configuration, inputs and the user pipeline.

Each workload is a closed loop with one caller:

- mutag-dist: `cli dist` self matrix of MUTAG-like graphs in the text layout
  (depth 3, constant:0.5, sum, 1 thread), then `cli knn` and `cli cluster`
  on the CSV;
- shift-mean: `cli shift` of one train set against the control, larger and
  relabel test sets (depth 2, constant:0.5, mean, 2 worker processes);
- edit-certify: edit bounds and GIN certificates by library call (see
  certify.py).

Usage: python3 perfbench/workloads.py WORKLOAD INPUTS
loads the workload's inputs through the public loaders and exits; the
benchmark times it in a fresh interpreter as the set-up time.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import certify
import gen
import treemover as tm
from treemover import cli

SPEC = {
    "mutag-dist": {"depth": 3, "weights": "constant:0.5", "mode": "sum"},
    "shift-mean": {"depth": 2, "weights": "constant:0.5", "mode": "mean"},
    "edit-certify": {"depth": 4, "weights": "pascal:4", "mode": "sum"},
}
SHIFT_THREADS = 2
SHIFT_TESTS = ("control", "larger", "relabel")


def config(workload):
    s = SPEC[workload]
    return tm.TmdConfig(s["depth"], cli.parse_weights(s["weights"]), s["mode"])


def _flags(workload):
    s = SPEC[workload]
    return ["--depth", str(s["depth"]), "--weights", s["weights"], "--mode", s["mode"]]


def outputs(workload):
    """Output files of one pass, relative to the pass's output directory."""
    return {"mutag-dist": ("dist.csv", "knn.json", "cluster.json"),
            "shift-mean": ("shift.json",)}.get(workload, ())


def cli_sequence(workload, inputs, out):
    """argv lists of the CLI calls one pass makes (empty for edit-certify)."""
    if workload == "mutag-dist":
        csv = os.path.join(out, "dist.csv")
        labels = os.path.join(inputs, "labels.txt")
        return [
            ["dist", "--data", os.path.join(inputs, "text"), "--name", gen.TEXT_NAME,
             *_flags(workload), "--threads", "1", "--out", csv],
            ["knn", "--matrix", csv, "--labels", labels, "--k", "1",
             "--out", os.path.join(out, "knn.json")],
            ["cluster", "--matrix", csv, "--k", "2", "--seed", "0", "--labels", labels,
             "--out", os.path.join(out, "cluster.json")],
        ]
    if workload == "shift-mean":
        tests = [a for t in SHIFT_TESTS
                 for a in ("--test", os.path.join(inputs, f"{t}.json"))]
        return [["shift", "--train", os.path.join(inputs, "primary.json"), *tests,
                 *_flags(workload), "--threads", str(SHIFT_THREADS),
                 "--out", os.path.join(out, "shift.json")]]
    return []


def load(workload, inputs):
    """The workload's inputs through the public loaders."""
    if workload == "mutag-dist":
        return {"primary": tm.parse_tudataset(os.path.join(inputs, "text"),
                                              gen.TEXT_NAME)}
    if workload == "shift-mean":
        return {name: tm.load_dataset_json(os.path.join(inputs, f"{name}.json"))
                for name in ("primary",) + SHIFT_TESTS}
    return certify.load(inputs)


def pairs(workload, loaded):
    """Graph pairs whose exact distance one pass computes."""
    if workload == "mutag-dist":
        g = loaded["primary"].graphs
        return [(g[i], g[j]) for i in range(len(g)) for j in range(i + 1, len(g))]
    if workload == "shift-mean":
        return [(a, b) for t in SHIFT_TESTS
                for a in loaded["primary"].graphs for b in loaded[t].graphs]
    return [t.pair for t in certify.tasks(loaded)]


def transport_costs(workload, loaded):
    """Cost matrices of the dataset LPs one pass solves, or None if it solves none.

    shift-mean solves one train x test transport per test set; the costs are
    the same pairwise distances `dataset_w1` computes.
    """
    if workload != "shift-mean":
        return None
    cfg = config(workload)
    return [tm.pairwise_tmd(loaded["primary"], loaded[t], cfg,
                            threads=SHIFT_THREADS).values for t in SHIFT_TESTS]


def run_pass(workload, inputs, out, loaded):
    """One pass in this process; returns the certificate outcomes or None.

    The CLI calls go through `cli.main` with their console output discarded,
    so a profiler in this process sees the same code path as the CLI.
    """
    if workload == "edit-certify":
        return certify.sweep(certify.tasks(loaded))
    for argv in cli_sequence(workload, inputs, out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli {argv[0]} exited with {code}")
    return None


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in gen.WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(gen.WORKLOADS)}}} INPUTS")
    load(sys.argv[1], sys.argv[2])
