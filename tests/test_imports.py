"""Import boundaries: which modules a fresh interpreter loads, and the lazy
package exports. Commands that never solve a transport run without SciPy;
the first use of the package's public API loads it. Only the `tmd` entry
point touches the environment: it runs BLAS single-threaded.

Each check runs in a new `sys.executable` process, because this test
process has long since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treemover
from treemover import DistanceMatrix, save_distance_csv

from conftest import fixture_path

SRC = str(Path(treemover.__file__).resolve().parent.parent)


def run_fresh(code, **overrides):
    """Run `code` in a new interpreter that imports treemover from this
    checkout; returns the JSON object it prints last. Each keyword sets an
    environment variable, or removes it when None."""
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + old if old else ""))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_after(code):
    return run_fresh(code + "\nimport json, sys\n"
                     "print(json.dumps(sorted(m for m in sys.modules "
                     "if m == 'scipy' or m.startswith('scipy.'))))")


@pytest.mark.parametrize("code", ["import treemover", "import treemover.cli"])
def test_package_and_cli_import_without_scipy(code):
    assert scipy_modules_after(code) == []


def test_commands_that_read_a_matrix_run_without_scipy(tmp_path):
    mat = tmp_path / "m.csv"
    save_distance_csv(mat, DistanceMatrix(
        np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 3.5], [4.0, 3.5, 0.0]]), "abc", "abc"))
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n0\n1\n")
    runs = [
        ["gram", "--matrix", str(mat), "--gamma", "0.5", "--out", str(tmp_path / "k.csv")],
        ["knn", "--matrix", str(mat), "--labels", str(labels),
         "--out", str(tmp_path / "knn.json")],
        ["cluster", "--matrix", str(mat), "--k", "2", "--labels", str(labels),
         "--out", str(tmp_path / "cluster.json")],
        ["wl", "--graph-a", str(fixture_path("triangle")),
         "--graph-b", str(fixture_path("path3")), "--out", str(tmp_path / "wl.json")],
    ]
    code = ("import contextlib, io\n"
            "from treemover.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n")
    assert scipy_modules_after(code) == []
    for name in ("k.csv", "knn.json", "cluster.json", "wl.json"):
        assert (tmp_path / name).exists()


@pytest.mark.parametrize("code", [
    "import treemover.analysis",
    "import treemover\ntreemover.TmdConfig",
])
def test_solver_loads_before_any_fork(code):
    # pairwise_tmd, or a program that uses the package, forks workers after
    # this; they inherit SciPy instead of each importing it again
    assert "scipy.optimize" in scipy_modules_after(code)


def dist_argv(tmp_path):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    for name in ("path3", "triangle", "star4"):
        (graphs / f"{name}.json").write_text(fixture_path(name).read_text())
    return ["dist", "--data", str(graphs), "--depth", "2", "--weights", "constant:0.5",
            "--out", str(tmp_path / "m.csv")]


@pytest.mark.parametrize("user", [None, "2"])
def test_library_use_leaves_the_environment_alone(tmp_path, user):
    code = ("import contextlib, io, json, os\n"
            "before = dict(os.environ)\n"
            "import treemover, treemover.cli\n"
            "imported = dict(os.environ) == before\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = treemover.cli.main({dist_argv(tmp_path)!r})\n"
            "print(json.dumps([imported, code, dict(os.environ) == before]))\n")
    assert run_fresh(code, OPENBLAS_NUM_THREADS=user) == [True, 0, True]


@pytest.mark.parametrize("user, seen", [(None, "1"), ("2", "2")])
def test_tmd_runs_blas_single_threaded_unless_set(tmp_path, user, seen):
    # what the command handler sees when the entry point runs it: SciPy's
    # OpenBLAS, which the handler loads, reads the variable when it loads
    code = ("import json, os, sys\n"
            "from treemover import cli\n"
            "real, seen = cli.cmd_dist, []\n"
            "def spy(args):\n"
            "    seen.append([os.environ.get('OPENBLAS_NUM_THREADS'), 'scipy' in sys.modules])\n"
            "    return real(args)\n"
            "cli.cmd_dist = spy\n"
            f"sys.argv = ['tmd', *{dist_argv(tmp_path)!r}]\n"
            "try:\n"
            "    cli.entrypoint()\n"
            "except SystemExit as exc:\n"
            "    seen.append(exc.code)\n"
            "print(json.dumps(seen))\n")
    assert run_fresh(code, OPENBLAS_NUM_THREADS=user) == [[seen, False], 0]
    assert (tmp_path / "m.csv").exists()


def test_every_export_resolves_to_its_submodule_object():
    mismatched = run_fresh(
        "import importlib, json, treemover\n"
        "bad = []\n"
        "for name in treemover.__all__:\n"
        "    obj = getattr(treemover, name)\n"
        "    home = importlib.import_module(obj.__module__)\n"
        "    if not obj.__module__.startswith('treemover.') "
        "or getattr(home, name, None) is not obj:\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))\n")
    assert mismatched == []


def test_star_import_binds_every_export():
    bound = run_fresh(
        "import json\n"
        "from treemover import *\n"
        "import treemover\n"
        "print(json.dumps([n for n in treemover.__all__ if n not in globals()]))\n")
    assert bound == []


def test_dir_lists_every_export():
    assert len(treemover.__all__) == len(set(treemover.__all__))
    assert set(treemover.__all__) <= set(dir(treemover))
    listed = run_fresh("import json, treemover\nprint(json.dumps(dir(treemover)))")
    assert set(treemover.__all__) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'treemover' has no attribute 'no_such_name'"):
        treemover.no_such_name
    with pytest.raises(ImportError):
        exec("from treemover import no_such_name", {})
