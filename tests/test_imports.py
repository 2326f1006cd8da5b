"""Import boundaries: which modules a fresh interpreter loads, and the lazy
package exports. Commands that never solve a transport run without SciPy;
the distance engine and the first use of the package's public API load only
the two compiled SciPy modules the engine calls, and the dataset LP only
SciPy's compiled HiGHS module: no SciPy package is ever loaded.
Multiprocessing loads only when a matrix forks, concurrent.futures never,
and each command loads only the treemover modules its work runs. Only the
`tmd` entry points touch the environment: they run BLAS single-threaded,
and end their process with the collector frozen.

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
from treemover import (DistanceMatrix, GraphDataset, TmdConfig, constant_weights,
                       pairwise_tmd, random_graph, save_distance_csv)
from treemover import distance

from conftest import fixture_path
from test_cli import console_script_command

SRC = str(Path(treemover.__file__).resolve().parent.parent)


def spawn_fresh(code, **overrides):
    """Run `code` in a new interpreter that imports treemover from this
    checkout; returns the finished process. Each keyword sets an
    environment variable, or removes it when None."""
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + old if old else ""))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def run_fresh(code, **overrides):
    """`spawn_fresh`, which must exit 0; returns the JSON object the code
    prints last."""
    proc = spawn_fresh(code, **overrides)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_after(code):
    return run_fresh(code + "\nimport json, sys\n"
                     "print(json.dumps(sorted(m for m in sys.modules "
                     "if m == 'scipy' or m.startswith('scipy.'))))")


def loaded_after(code, names):
    """Which of the modules `names` a fresh interpreter holds after `code`."""
    return run_fresh(code + "\nimport json, sys\n"
                     f"print(json.dumps([m for m in {names!r} if m in sys.modules]))")


# a forking matrix loads multiprocessing, and nothing loads concurrent.futures
POOL = ["concurrent.futures", "multiprocessing"]


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


# the compiled modules of the two SciPy functions the engine calls
KERNELS = ["scipy.optimize._lsap", "scipy.spatial._distance_pybind"]
# SciPy's compiled HiGHS module, which registers submodules of its own
HIGHS = "scipy.optimize._highspy._core"


def only_kernels_and_highs(loaded):
    """True when `loaded` is the engine's kernels plus the HiGHS module and
    its own submodules, and nothing else of SciPy."""
    rest = set(loaded) - set(KERNELS)
    return (set(KERNELS) <= set(loaded) and HIGHS in rest
            and all(m == HIGHS or m.startswith(HIGHS + ".") for m in rest))


@pytest.mark.parametrize("code", [
    pytest.param("import treemover.analysis", id="import treemover.analysis"),
    pytest.param("import treemover\ntreemover.TmdConfig",
                 id="import treemover\ntreemover.TmdConfig"),
])
def test_solver_loads_before_any_fork(code):
    # pairwise_tmd, or a program that uses the package, forks workers after
    # this; they inherit the solver instead of each loading it again. Both
    # the engine and the package API load only the compiled modules the
    # engine calls, and no SciPy package.
    assert scipy_modules_after(code) == KERNELS


@pytest.mark.parametrize("code", [
    pytest.param("import treemover\ntreemover.TmdConfig",
                 id="import treemover\ntreemover.TmdConfig"),
    pytest.param("import treemover.analysis", id="import treemover.analysis"),
])
def test_no_process_pool_before_a_matrix_forks(code):
    assert loaded_after(code, POOL) == []


def test_a_forking_matrix_loads_multiprocessing_and_matches_one_thread():
    code = ("import json, sys\n"
            "import treemover as tm\n"
            "ds = tm.GraphDataset([tm.random_graph(n, 0.4, 3, n) for n in (4, 6, 7)])\n"
            "cfg = tm.TmdConfig(2, tm.constant_weights(0.5), 'sum')\n"
            "one = tm.pairwise_tmd(ds, None, cfg, threads=1).values\n"
            f"before = [m for m in {POOL!r} if m in sys.modules]\n"
            "two = tm.pairwise_tmd(ds, None, cfg, threads=2).values\n"
            f"after = [m for m in {POOL!r} if m in sys.modules]\n"
            "print(json.dumps([before, after, one.tobytes() == two.tobytes()]))\n")
    assert run_fresh(code) == [[], ["multiprocessing"], True]


def test_matrix_commands_load_only_their_own_modules(tmp_path):
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
    ]
    optional = ["treemover.learn", "treemover.tudataset", "treemover.wl"]
    code = ("import contextlib, io, json, sys\n"
            "from treemover.cli import main\n"
            "seen = []\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            f"    seen.append([m for m in {optional!r} if m in sys.modules])\n"
            "print(json.dumps(seen))\n")
    # gram needs none of them; knn and cluster load `learn` alone
    assert run_fresh(code) == [[], ["treemover.learn"], ["treemover.learn"]]


def test_dataset_lp_loads_only_the_highs_module():
    loaded = scipy_modules_after(
        "import numpy as np, treemover\n"
        "treemover.solve_transport(np.array([[0.0, 1.0], [2.0, 0.5]]),\n"
        "                          [0.5, 0.5], [0.25, 0.75])\n")
    assert only_kernels_and_highs(loaded), loaded


def test_engine_kernels_are_scipys_own():
    same = run_fresh(
        "import json\n"
        "from treemover import distance\n"
        "import scipy.optimize, scipy.spatial.distance\n"
        "print(json.dumps([\n"
        "    scipy.optimize.linear_sum_assignment is distance.linear_sum_assignment,\n"
        "    scipy.spatial.distance._distance_pybind.cdist_euclidean\n"
        "    is distance.cdist_euclidean]))\n")
    assert same == [True, True]


def test_transport_lp_module_is_scipys_own():
    # a later `import scipy.optimize` reuses the HiGHS module the LP loaded,
    # and linprog still runs on it, with the LP's own solution
    same = run_fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from treemover import ot\n"
        "c = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])\n"
        "a, b = np.array([0.5, 0.5]), np.array([0.25, 0.25, 0.5])\n"
        "x = ot._transport_lp(c, a, b)\n"
        f"core = sys.modules[{HIGHS!r}]\n"
        "import scipy.optimize, scipy.optimize._highspy._highs_wrapper as wrapper\n"
        "a_eq = np.vstack([np.kron(np.eye(2), np.ones(3)), np.tile(np.eye(3), 2)])\n"
        "res = scipy.optimize.linprog(c.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),\n"
        "                             bounds=(0, None), method='highs')\n"
        "print(json.dumps([wrapper._h is core,\n"
        "                  ot.linear_sum_assignment is scipy.optimize.linear_sum_assignment,\n"
        "                  bool(res.success), res.x.tobytes() == x.tobytes()]))\n")
    assert same == [True, True, True, True]


def test_public_scipy_functions_are_the_fallback(monkeypatch):
    graphs = [random_graph(n, 0.3, 3, seed) for seed, n in enumerate([0, 1, 5, 8, 9, 12])]
    ds = GraphDataset(graphs)
    cfg = TmdConfig(3, constant_weights(0.5), "sum")
    fast = pairwise_tmd(ds, None, cfg).values
    monkeypatch.setattr(distance, "_load_extension", lambda name: None)
    lsa, cdist_euclidean = distance._scipy_kernels()
    import scipy.optimize
    import scipy.spatial.distance

    assert lsa is scipy.optimize.linear_sum_assignment
    assert cdist_euclidean is scipy.spatial.distance.cdist
    monkeypatch.setattr(distance, "linear_sum_assignment", lsa)
    monkeypatch.setattr(distance, "cdist_euclidean", cdist_euclidean)
    assert pairwise_tmd(ds, None, cfg).values.tobytes() == fast.tobytes()


def dist_argv(tmp_path):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    for name in ("path3", "triangle", "star4"):
        (graphs / f"{name}.json").write_text(fixture_path(name).read_text())
    return ["dist", "--data", str(graphs), "--depth", "2", "--weights", "constant:0.5",
            "--out", str(tmp_path / "m.csv")]


def test_one_thread_dist_loads_no_process_pool(tmp_path):
    code = ("import contextlib, io\n"
            "from treemover.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({[*dist_argv(tmp_path), '--threads', '1']!r}) == 0\n")
    assert loaded_after(code, POOL) == []
    assert (tmp_path / "m.csv").exists()


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


def shift_argv(tmp_path):
    graphs = str(tmp_path / "graphs")
    return ["shift", "--train", graphs, "--test", graphs, "--depth", "2",
            "--weights", "constant:0.5", "--out", str(tmp_path / "shift.json")]


def test_dist_and_shift_load_no_scipy_package(tmp_path):
    runs = [dist_argv(tmp_path), shift_argv(tmp_path)]
    code = ("import contextlib, io, json, sys\n"
            "from treemover.cli import main\n"
            "seen = []\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    seen.append([code, sorted(m for m in sys.modules\n"
            "                              if m == 'scipy' or m.startswith('scipy.'))])\n"
            "print(json.dumps(seen))\n")
    (dist_code, after_dist), (shift_code, after_shift) = run_fresh(code)
    assert [dist_code, shift_code] == [0, 0]
    assert after_dist == KERNELS
    assert only_kernels_and_highs(after_shift), after_shift
    assert "scipy.optimize" not in after_shift


# records OPENBLAS_NUM_THREADS when numpy is first imported, which is when
# numpy's OpenBLAS pool reads it, and leaves the import to the next finder;
# an atexit hook prints it at the process's exit, with whether the collector
# was frozen by then
NUMPY_SPY = (
    "import atexit, gc, json, os, sys\n"
    "seen = []\n"
    "class NumpySpy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy' and not seen:\n"
    "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    "sys.meta_path.insert(0, NumpySpy())\n"
    "atexit.register(lambda: print(json.dumps([*seen, gc.get_freeze_count() > 0])))\n"
)


@pytest.mark.parametrize("user, seen", [(None, "1"), ("2", "2")])
def test_tmd_runs_blas_single_threaded_unless_set(tmp_path, user, seen):
    # both ways of running `tmd`: python -m and the console script. Each ends
    # its process through the frozen exit, which still runs atexit hooks
    # after flushing what the run printed, and keeps the exit code and the
    # error message of a failing run
    entry_points = [
        "import runpy\nrunpy.run_module('treemover.cli', run_name='__main__', alter_sys=True)\n",
        console_script_command("tmd")[2],
    ]
    argv = dist_argv(tmp_path)
    out = tmp_path / "m.csv"
    too_deep = [*argv, "--weights", "pascal:99999999999"]
    hook = json.dumps([seen, True])
    for run in entry_points:
        out.unlink(missing_ok=True)
        for args in (argv, too_deep):
            proc = spawn_fresh(NUMPY_SPY + f"sys.argv = ['tmd', *{args!r}]\n" + run,
                               OPENBLAS_NUM_THREADS=user)
            if args is argv:
                assert (proc.returncode, proc.stderr) == (0, ""), run
                assert proc.stdout.splitlines() == [f"wrote {out}", hook], run
                assert out.exists()
            else:
                assert proc.returncode == 3, run
                assert proc.stderr == ("error: bad weights 'pascal:99999999999': pascal "
                                       "schedule depth must be at most 10000, got "
                                       "99999999999\n"), run
                assert proc.stdout.splitlines() == [hook], run


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
    # names the API no longer exports
    for name in ("DistanceTable", "build_distance_tables"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(treemover, name)
    with pytest.raises(ImportError):
        exec("from treemover import no_such_name", {})
