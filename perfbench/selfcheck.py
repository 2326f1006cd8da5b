"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

From the repository root, checks that:
- the generator writes byte-identical files for a seed and different ones
  for another seed;
- the metric names and units in measure.py are the ones BENCHMARK.json lists;
- two traced runs of each workload report the same exact counts
  (`ot.lsa_calls`, `ot.child_solves.*`, `ot.final_solves`, `input.*`), and
  module self times cover at least 90% of the traced wall time;
- run.py fails without printing a result when the sources are absent.
Exits 1 if any check fails.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

from gen import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
EXACT = ("ot.lsa_calls", "ot.child_solves", "ot.final_solves")

failures = []


def report(name, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    if not ok:
        failures.append(name)


def same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        same_tree(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)


def check_generator(scratch):
    import gen
    for w in WORKLOADS:
        dirs = [os.path.join(scratch, f"{w}-{k}") for k in ("a", "b", "c")]
        gen.generate(w, 5, dirs[0])
        gen.generate(w, 5, dirs[1])
        gen.generate(w, 6, dirs[2])
        report(f"generator.{w}.deterministic", same_tree(dirs[0], dirs[1]))
        report(f"generator.{w}.seed_matters", not same_tree(dirs[0], dirs[2]))


def check_names():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import measure
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for key, table in (("end_to_end", measure.END_TO_END),
                       ("per_layer", measure.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        report(f"names.{key}", listed == table,
               "" if listed == table else f"{sorted(set(listed) ^ set(table))}")


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, {k: m["value"] for k, m in result["metrics"].items()}


def check_counts():
    for w in WORKLOADS:
        r1, a = traced(w, 3)
        r2, b = traced(w, 3)
        report(f"traced.{w}.correct", r1["correct"] and r2["correct"])
        keys = [k for k in a if k.startswith(EXACT) or k.startswith("input.")]
        diff = [k for k in keys if a[k] != b[k]]
        report(f"traced.{w}.counts_repeat", not diff, f"{len(keys)} counts {diff}")
        report(f"traced.{w}.coverage", a["trace.coverage"] >= 0.9,
               f"{a['trace.coverage']:.4f}")


def check_bare_directory(scratch):
    bare = os.path.join(scratch, "bare")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        command + ["--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                   "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=180)
    report("bare_directory.fails", proc.returncode != 0 and not proc.stdout.strip(),
           f"exit {proc.returncode}")


def main():
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as scratch:
        check_generator(scratch)
        check_names()
        check_bare_directory(scratch)
    check_counts()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
