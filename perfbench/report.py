"""Print every benchmark metric with its workload, name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs perfbench/run.py for each workload twice, once plain (end-to-end
metrics) and once traced (per-layer metrics), from the repository root, and
prints one row per metric plus the Python, numpy and scipy versions and the
CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy
import scipy

from gen import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args(argv)
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "machine": platform.machine(), "seed": args.seed,
           "seconds": args.seconds}
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    correct = True
    for w in WORKLOADS:
        for trace in (0, 1):
            r = run(w, args.seed, args.seconds, trace)
            correct = correct and r["correct"]
            verdict = "ok" if r["correct"] else "FAILED"
            print(f"# {w} trace={trace}: checks {verdict} "
                  f"({r['attempted'] - r['failed']}/{r['attempted']})")
            for name, m in r["metrics"].items():
                print(f"{w:13s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
