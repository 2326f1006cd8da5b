"""Benchmark entry point for treemover.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src. The
seed drives the generator (gen.py); the program only sees the files it
writes under .bench_work/, which is removed at the end.

--trace 0 measures the end-to-end metrics: set-up time is the median of
several fresh interpreters loading the inputs through the public loaders,
then whole passes of the user pipeline (CLI subprocesses, or the certificate
loop in its own process) repeat until S seconds have passed, and medians
over passes are reported, every time scaled to a reference core speed
(see measure.py and speedprobe/).

--trace 1 measures the per-layer metrics in this process: one plain pass, one
pass under cProfile (pool workers included) for module self times and exact
counts, then rounds of timed calls into every layer until S seconds have
passed. Spans and the profile summary go to .bench_out/.

Outputs are checked after timing; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import gen


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "treemover", "__init__.py")):
        print(f"error: {src}/treemover not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import measure

    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    work = os.path.join(root, ".bench_work",
                        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    inputs = os.path.join(work, "in")
    try:
        manifest = gen.generate(args.workload, args.seed, inputs)
        if args.trace:
            trace_path = os.path.join(root, ".bench_out",
                                      f"trace-{args.workload}-s{args.seed}.json")
            metrics, tally = measure.traced(args.workload, inputs, work, args.seconds,
                                            args.seed, manifest, trace_path)
            units = measure.PER_LAYER
        else:
            metrics, tally = measure.end_to_end(args.workload, inputs, work,
                                                args.seconds, args.seed, env)
            units = measure.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name in tally.failures:
        print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
