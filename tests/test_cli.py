"""End-to-end command-line tests: outputs, determinism, exit codes."""

import json
import math
import multiprocessing
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from treemover import (
    AttributedGraph,
    GraphDataset,
    load_distance_csv,
    loo_knn_accuracy,
    pascal_weights,
    random_gin,
    random_graph,
    save_dataset_json,
    save_graph_json,
    save_model_json,
)
import treemover.analysis as analysis_module
import treemover.cli as cli_module
from treemover.cli import main, parse_weights

from conftest import FIXTURES, fixture_path, molecule18
from test_analysis import _exit_without_rows
from test_tudataset import write_dataset


@pytest.fixture()
def two_cluster_dir(tmp_path):
    """Six JSON graphs in two feature clusters, plus a matching label file."""
    d = tmp_path / "graphs"
    d.mkdir()
    rng = np.random.default_rng(0)
    for i in range(6):
        base = 0.0 if i < 3 else 10.0
        feats = base + rng.uniform(0, 0.5, (3, 1))
        g = AttributedGraph(feats, [(0, 1), (1, 2)])
        save_graph_json(d / f"g{i}.json", g)
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n0\n0\n1\n1\n1\n")
    return d, labels


def run_dist(data_dir, out, extra=()):
    return main(["dist", "--data", str(data_dir), "--depth", "2",
                 "--weights", "constant:1.0", "--out", str(out), *extra])


# --- weights parsing ---


def test_parse_weights_forms():
    assert parse_weights("constant:0.5").weight(9) == 0.5
    sched = parse_weights("pascal:4")
    assert sched.weight(1) == pytest.approx(0.25)
    assert parse_weights("pascal:4,2.0").weight(1) == pytest.approx(0.5)


def test_parse_weights_rejects_garbage():
    from treemover import ConfigError
    for bad in ("constant", "constant:x", "pascal:", "pascal:4,1,2", "exp:2"):
        with pytest.raises(ConfigError):
            parse_weights(bad)


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.3, 3.0, 1e-300, 1e300])
def test_pascal_weights_are_the_binomial_ratio(eps):
    # w(l) = eps * C(d, l-1) / C(d, l), to the last bit when eps is a power of two
    for d in (*range(1, 61), 1100):
        got = pascal_weights(d, eps).table
        want = [float(Fraction(eps) * math.comb(d, l - 1) / math.comb(d, l))
                for l in range(1, d + 1)]
        if math.frexp(eps)[0] == 0.5:
            assert got == tuple(want)
        else:
            assert got == pytest.approx(want, rel=3e-16)


def test_dist_pascal_schedule_past_the_float_binomials(two_cluster_dir, tmp_path):
    # C(1100, 550) is past the float range
    d, _ = two_cluster_dir
    out = tmp_path / "m.csv"
    assert main(["dist", "--data", str(d), "--depth", "3", "--weights", "pascal:1100",
                 "--threads", "1", "--out", str(out)]) == 0
    assert np.all(np.isfinite(load_distance_csv(out).values))


def test_pascal_weight_that_overflows_is_named(two_cluster_dir, tmp_path, capsys):
    # w(2) = 1e308 * 4 / 6 and w(3) = 1e308 * 6 / 4 are finite, w(4) = 4e308 is not
    d, _ = two_cluster_dir
    out = tmp_path / "m.csv"
    assert main(["dist", "--data", str(d), "--depth", "3", "--weights", "pascal:4,1e308",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: bad weights 'pascal:4,1e308': w(4) must be "
                                       "positive and finite, got inf\n")
    assert not out.exists()


# --- dist ---


def test_dist_self_matrix(two_cluster_dir, tmp_path):
    d, _ = two_cluster_dir
    out = tmp_path / "m.csv"
    assert run_dist(d, out) == 0
    dm = load_distance_csv(out)
    assert dm.values.shape == (6, 6)
    assert np.all(np.diag(dm.values) == 0.0)
    assert np.array_equal(dm.values, dm.values.T)
    assert dm.config.depth == 2
    assert out.read_text().startswith("# config:")


def test_dist_benchmark_layout_and_cross(tmp_path):
    tu = tmp_path / "tu"
    tu.mkdir()
    write_dataset(tu, "toy", indicator=[1, 1, 2, 2, 2],
                  edges=[(1, 2), (3, 4), (4, 5)])
    out = tmp_path / "cross.csv"
    code = main(["dist", "--data", str(tu), "--name", "toy",
                 "--data-b", str(tu), "--name-b", "toy",
                 "--depth", "2", "--weights", "pascal:2", "--out", str(out)])
    assert code == 0
    dm = load_distance_csv(out)
    assert dm.values.shape == (2, 2)
    assert dm.values[0, 0] == 0.0


def test_dist_threads_byte_identical(two_cluster_dir, tmp_path):
    d, _ = two_cluster_dir
    one, eight = tmp_path / "t1.csv", tmp_path / "t8.csv"
    assert run_dist(d, one, ("--threads", "1")) == 0
    assert run_dist(d, eight, ("--threads", "8")) == 0
    assert one.read_bytes() == eight.read_bytes()


def test_dist_rerun_idempotent(two_cluster_dir, tmp_path):
    d, _ = two_cluster_dir
    out = tmp_path / "m.csv"
    assert run_dist(d, out) == 0
    first = out.read_bytes()
    assert run_dist(d, out) == 0
    assert out.read_bytes() == first


def test_dist_mean_is_scaled_sum_at_depth_one(tmp_path):
    d = tmp_path / "g"
    d.mkdir()
    save_graph_json(d / "a.json", AttributedGraph(
        np.array([[1.0], [2.0], [3.0]]), [(0, 1), (1, 2)]))
    save_graph_json(d / "b.json", AttributedGraph(
        np.array([[4.0], [5.0], [6.0]]), [(0, 1), (1, 2), (0, 2)]))
    outs, outm = tmp_path / "sum.csv", tmp_path / "mean.csv"
    base = ["dist", "--data", str(d), "--depth", "1",
            "--weights", "constant:1.0"]
    assert main(base + ["--mode", "sum", "--out", str(outs)]) == 0
    assert main(base + ["--mode", "mean", "--out", str(outm)]) == 0
    vs = load_distance_csv(outs).values
    vm = load_distance_csv(outm).values
    assert np.array_equal(vm, vs / 3.0)
    assert vs[0, 1] > 0


def test_dist_dataset_json_file(tmp_path):
    ds = GraphDataset(
        (AttributedGraph(np.array([[1.0]]), []),
         AttributedGraph(np.array([[2.0], [3.0]]), [(0, 1)])),
        labels=(0, 1), name="pairset",
    )
    path = tmp_path / "ds.json"
    save_dataset_json(path, ds)
    out = tmp_path / "m.csv"
    assert run_dist(path, out) == 0
    assert load_distance_csv(out).values.shape == (2, 2)


def test_dist_dataset_json_file_with_an_empty_graph(tmp_path):
    ds = GraphDataset((AttributedGraph(np.ones((2, 2)), [(0, 1)]),
                       AttributedGraph(np.zeros((0, 2)), [])))
    path = tmp_path / "ds.json"
    save_dataset_json(path, ds)
    out = tmp_path / "m.csv"
    assert run_dist(path, out) == 0
    # the empty graph's distance is the other graph's tree norms
    assert load_distance_csv(out).values[0, 1] > 0.0


def test_dist_directory_with_an_empty_graph(tmp_path):
    graphs = (AttributedGraph(np.ones((2, 3)), [(0, 1)]), AttributedGraph(np.zeros((0, 3)), []),
              AttributedGraph(np.arange(9.0).reshape(3, 3), [(0, 2)]))
    d = tmp_path / "graphs"
    d.mkdir()
    for name, g in zip("abc", graphs):
        save_graph_json(d / f"{name}.json", g)
    save_dataset_json(tmp_path / "ds.json", GraphDataset(graphs))
    assert run_dist(d, tmp_path / "dir.csv") == 0
    assert run_dist(tmp_path / "ds.json", tmp_path / "ds.csv") == 0
    assert ((tmp_path / "dir.csv").read_text().splitlines()[1:]
            == (tmp_path / "ds.csv").read_text().splitlines()[1:])


# --- gram ---


def test_gram_command(two_cluster_dir, tmp_path):
    d, _ = two_cluster_dir
    mat = tmp_path / "m.csv"
    run_dist(d, mat)
    out = tmp_path / "k.csv"
    assert main(["gram", "--matrix", str(mat), "--gamma", "0.5",
                 "--out", str(out)]) == 0
    km = load_distance_csv(out)
    dm = load_distance_csv(mat)
    assert np.allclose(km.values, np.exp(-0.5 * dm.values), rtol=1e-12)
    assert np.all(np.diag(km.values) == 1.0)
    assert '"gamma":0.5' in out.read_text().splitlines()[0]


@pytest.mark.parametrize("gamma", ["1e300", "1e308"])
def test_gram_gamma_large_but_finite(two_cluster_dir, tmp_path, gamma):
    d, _ = two_cluster_dir
    mat = tmp_path / "m.csv"
    run_dist(d, mat)
    out = tmp_path / "k.csv"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["gram", "--matrix", str(mat), "--gamma", gamma, "--out", str(out)]) == 0
    assert [str(w.message) for w in seen] == []
    km = load_distance_csv(out).values
    # exp(-gamma * D) underflows to 0 off the diagonal: the exact limit
    assert np.array_equal(km, np.eye(len(km)))


def test_gram_requires_square(tmp_path):
    mat = tmp_path / "rect.csv"
    mat.write_text("0.0,1.0,2.0\n1.0,0.0,3.0\n")
    assert main(["gram", "--matrix", str(mat), "--gamma", "1.0",
                 "--out", str(tmp_path / "k.csv")]) == 3


# --- knn ---


def test_knn_command(two_cluster_dir, tmp_path):
    d, labels = two_cluster_dir
    mat = tmp_path / "m.csv"
    run_dist(d, mat)
    out = tmp_path / "knn.json"
    assert main(["knn", "--matrix", str(mat), "--labels", str(labels),
                 "--k", "1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["loo_accuracy"] == 1.0
    assert rep["majority_rate"] == 0.5
    assert rep["k"] == 1
    assert rep["count"] == 6
    want = loo_knn_accuracy(load_distance_csv(mat).values,
                            [0, 0, 0, 1, 1, 1], 1)
    assert rep["loo_accuracy"] == want


def test_knn_label_count_mismatch(two_cluster_dir, tmp_path):
    d, _ = two_cluster_dir
    mat = tmp_path / "m.csv"
    run_dist(d, mat)
    short = tmp_path / "short.txt"
    short.write_text("0\n1\n")
    assert main(["knn", "--matrix", str(mat), "--labels", str(short),
                 "--out", str(tmp_path / "r.json")]) == 3


def test_cluster_label_count_mismatch(two_cluster_dir, tmp_path, capsys):
    d, _ = two_cluster_dir
    mat = tmp_path / "m.csv"
    run_dist(d, mat)
    short = tmp_path / "short.txt"
    short.write_text("0\n1\n")
    assert main(["cluster", "--matrix", str(mat), "--k", "2", "--labels", str(short),
                 "--out", str(tmp_path / "c.json")]) == 3
    assert capsys.readouterr().err == "error: 2 labels for a 6-row matrix\n"


def test_knn_non_integer_labels(two_cluster_dir, tmp_path):
    d, _ = two_cluster_dir
    mat = tmp_path / "m.csv"
    run_dist(d, mat)
    bad = tmp_path / "bad.txt"
    bad.write_text("a\nb\nc\nd\ne\nf\n")
    assert main(["knn", "--matrix", str(mat), "--labels", str(bad),
                 "--out", str(tmp_path / "r.json")]) == 2


# --- cluster ---


def test_cluster_command(two_cluster_dir, tmp_path):
    d, labels = two_cluster_dir
    mat = tmp_path / "m.csv"
    run_dist(d, mat)
    out = tmp_path / "c.json"
    asg = tmp_path / "assignments.csv"
    assert main(["cluster", "--matrix", str(mat), "--k", "2", "--seed", "0",
                 "--labels", str(labels), "--assignments", str(asg),
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["k"] == 2
    assert len(rep["medoids"]) == 2
    assert rep["medoids"] == sorted(rep["medoids"])
    assert rep["nmi"] == pytest.approx(1.0)
    assert rep["completeness"] == pytest.approx(1.0)
    lines = asg.read_text().splitlines()
    assert lines[0] == "graph_id,cluster_id"
    clusters = [tuple(int(x) for x in ln.split(",")) for ln in lines[1:]]
    assert [c[0] for c in clusters] == list(range(6))
    assert {clusters[0][1], clusters[3][1]} == {0, 1}
    assert clusters[0][1] == clusters[1][1] == clusters[2][1]
    assert clusters[3][1] == clusters[4][1] == clusters[5][1]


def test_cluster_deterministic_output(two_cluster_dir, tmp_path):
    d, _ = two_cluster_dir
    mat = tmp_path / "m.csv"
    run_dist(d, mat)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["cluster", "--matrix", str(mat), "--k", "3", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cluster_k_out_of_range(two_cluster_dir, tmp_path):
    d, _ = two_cluster_dir
    mat = tmp_path / "m.csv"
    run_dist(d, mat)
    assert main(["cluster", "--matrix", str(mat), "--k", "9",
                 "--out", str(tmp_path / "c.json")]) == 3


# --- shift ---


def test_shift_self_reports_zero(two_cluster_dir, tmp_path):
    d, _ = two_cluster_dir
    out = tmp_path / "s.json"
    code = main(["shift", "--train", str(d), "--test", str(d),
                 "--depth", "2", "--weights", "constant:1.0",
                 "--lipschitz-product", "2.0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    (entry,) = rep["entries"]
    assert entry["w1"] == 0.0
    assert entry["risk_gap"] == 0.0
    assert rep["lipschitz_product"] == 2.0


@pytest.mark.parametrize("product", ["0", "3.0"])
def test_shift_lipschitz_product_scales_the_gap(tmp_path, product):
    train = GraphDataset([random_graph(4, 0.5, 1, s) for s in range(3)], name="train")
    test = GraphDataset([random_graph(5, 0.5, 1, s) for s in range(3, 5)], name="test")
    save_dataset_json(tmp_path / "train.json", train)
    save_dataset_json(tmp_path / "test.json", test)
    out = tmp_path / "s.json"
    assert main(["shift", "--train", str(tmp_path / "train.json"),
                 "--test", str(tmp_path / "test.json"), "--depth", "2",
                 "--weights", "constant:1.0", "--threads", "1",
                 "--lipschitz-product", product, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    (entry,) = rep["entries"]
    assert entry["w1"] > 0.0
    assert entry["risk_gap"] == 2.0 * float(product) * entry["w1"]
    assert rep["lipschitz_product"] == float(product)


def test_shift_multiple_tests_sorted(tmp_path):
    def make_dir(name, offset):
        d = tmp_path / name
        d.mkdir()
        for i in range(2):
            save_graph_json(d / f"g{i}.json", AttributedGraph(
                np.full((2, 1), offset + 0.1 * i), [(0, 1)]))
        return d

    train = make_dir("train", 0.5)
    near = make_dir("near", 1.5)
    far = make_dir("far", 5.5)
    out = tmp_path / "s.json"
    code = main(["shift", "--train", str(train),
                 "--test", str(far), "--test", str(near),
                 "--depth", "2", "--weights", "constant:1.0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert [e["test"] for e in rep["entries"]] == ["near", "far"]
    w1s = [e["w1"] for e in rep["entries"]]
    assert w1s == sorted(w1s)
    assert "risk_gap" not in rep["entries"][0]


GOLDEN = Path(__file__).resolve().parent / "golden"
# the fixture graphs of each dataset directory of the golden shift report
SHIFT_SETS = {
    "train": ("path3", "triangle", "star4", "c6", "c3c3"),
    "mixed": ("single_node", "edge_pair", "star4", "c3c3"),
    "small": ("path3", "triangle", "edge_pair"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_shift_report_matches_golden(tmp_path, threads):
    # golden/shift_report.json pins W1 to the bit, so a change to the
    # transport solver cannot move it silently
    for name, graphs in SHIFT_SETS.items():
        (tmp_path / name).mkdir()
        for g in graphs:
            (tmp_path / name / f"{g}.json").write_text(fixture_path(g).read_text())
    out = tmp_path / "shift.json"
    code = main(["shift", "--train", str(tmp_path / "train"),
                 "--test", str(tmp_path / "mixed"), "--test", str(tmp_path / "small"),
                 "--depth", "3", "--weights", "constant:0.7", "--mode", "mean",
                 "--lipschitz-product", "1.5", "--threads", threads, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "shift_report.json").read_bytes()


def test_shift_of_huge_distances(tmp_path):
    # the largest matrix cell is about 1e20, a cost HiGHS fails on unscaled
    test = tmp_path / "test.json"
    save_dataset_json(test, GraphDataset([random_graph(4, 0.5, 1, s) for s in range(2)]))
    out = tmp_path / "r.json"
    assert main(["shift", "--train", str(FIXTURES), "--test", str(test), "--depth", "524",
                 "--weights", "constant:0.5", "--threads", "1", "--out", str(out)]) == 0
    w1 = json.loads(out.read_text())["entries"][0]["w1"]
    assert 1e19 < w1 < math.inf


def test_shift_test_name_count_mismatch(tmp_path):
    tu = tmp_path / "tu"
    tu.mkdir()
    write_dataset(tu, "toy", indicator=[1, 1], edges=[(1, 2)])
    code = main(["shift", "--train", str(tu), "--train-name", "toy",
                 "--test", str(tu), "--test", str(tu), "--test-name", "toy",
                 "--depth", "2", "--weights", "constant:1.0",
                 "--out", str(tmp_path / "s.json")])
    assert code == 3


# --- lipschitz ---


def test_lipschitz_identical_pair(tmp_path):
    model = tmp_path / "model.json"
    save_model_json(model, random_gin(1, 3, 2, seed=1))
    out = tmp_path / "l.json"
    code = main(["lipschitz", "--model", str(model),
                 "--graph-a", str(fixture_path("path3")),
                 "--graph-b", str(fixture_path("path3")), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["holds"] is True
    (entry,) = rep["entries"]
    assert entry["lhs"] == 0.0 and entry["rhs"] == 0.0
    assert rep["empirical_lipschitz"] is None
    assert rep["pearson_r"] is None


def test_lipschitz_sampled_pairs(two_cluster_dir, tmp_path):
    d, _ = two_cluster_dir
    model = tmp_path / "model.json"
    save_model_json(model, random_gin(1, 3, 2, seed=2))
    out = tmp_path / "l.json"
    code = main(["lipschitz", "--model", str(model), "--data", str(d),
                 "--pairs", "5", "--seed", "3", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["pairs"] == 5
    assert rep["holds"] is True
    assert rep["empirical_lipschitz"] is not None
    assert rep["empirical_lipschitz"] <= rep["lipschitz_product"] * (1 + 1e-9)
    assert rep["config"]["depth"] == 3


@pytest.mark.parametrize("n", [2, 3, 10, 59])
def test_lipschitz_pair_sample_equals_the_enumerated_list(n):
    every = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for seed in range(5):
        for count in (1, 5, 50, len(every) + 1):
            take = min(count, len(every))
            chosen = np.random.default_rng(seed).choice(len(every), size=take, replace=False)
            assert cli_module._sample_pairs(n, count, seed) == [every[c] for c in sorted(chosen)]


def test_lipschitz_pair_sample_does_not_list_every_pair():
    # the list of all 1,999,000 pairs alone would trace about 200 MB; a
    # first draw loads numpy.random (about 1 MB) before tracing starts
    cli_module._sample_pairs(3, 1, 0)
    tracemalloc.start()
    try:
        pairs = cli_module._sample_pairs(2000, 50, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(pairs)) == 50
    assert all(0 <= i < j < 2000 for i, j in pairs)
    assert peak < 1 << 20


def test_lipschitz_needs_pair_or_data(tmp_path):
    model = tmp_path / "model.json"
    save_model_json(model, random_gin(1, 2, 1, seed=0))
    assert main(["lipschitz", "--model", str(model),
                 "--out", str(tmp_path / "l.json")]) == 3
    assert main(["lipschitz", "--model", str(model),
                 "--graph-a", str(fixture_path("path3")),
                 "--out", str(tmp_path / "l.json")]) == 3


def test_lipschitz_model_without_bias_is_malformed_input(tmp_path, capsys):
    model = tmp_path / "model.json"
    save_model_json(model, random_gin(1, 2, 1, seed=0))
    obj = json.loads(model.read_text())
    del obj["layers"][0]["bias"]
    model.write_text(json.dumps(obj))
    out = tmp_path / "l.json"
    assert main(["lipschitz", "--model", str(model),
                 "--graph-a", str(fixture_path("path3")),
                 "--graph-b", str(fixture_path("path3")), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {model}: bad model JSON: 'bias'\n"
    assert not out.exists()


def test_lipschitz_model_with_mismatched_shapes_is_malformed_input(tmp_path, capsys):
    model = tmp_path / "model.json"
    save_model_json(model, random_gin(1, 2, 1, seed=0))
    obj = json.loads(model.read_text())
    del obj["layers"][0]["weight"][-1]
    model.write_text(json.dumps(obj))
    out = tmp_path / "l.json"
    assert main(["lipschitz", "--model", str(model),
                 "--graph-a", str(fixture_path("path3")),
                 "--graph-b", str(fixture_path("path3")), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {model}: bad model JSON: bias length 2 does not match weight rows 1\n")
    assert not out.exists()


def test_lipschitz_model_not_json_names_its_path(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text("{ not json")
    out = tmp_path / "l.json"
    assert main(["lipschitz", "--model", str(model),
                 "--graph-a", str(fixture_path("path3")),
                 "--graph-b", str(fixture_path("path3")), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {model}: invalid JSON: ")
    assert not out.exists()


@pytest.mark.parametrize("epsilon, message", [
    (float("inf"), "epsilon must be positive and finite, got inf"),
    # finite, but the schedule's distances overflow before the forward passes run
    (1e300, "tree distances overflow at depth 3 under schedule pascal:2,1e+300 (sum mode); "
            "use a smaller depth or smaller weights"),
])
def test_lipschitz_epsilon_that_overflows_exits_3(tmp_path, capsys, epsilon, message):
    model = tmp_path / "model.json"
    save_model_json(model, random_gin(1, 3, 2, seed=1))
    obj = json.loads(model.read_text())
    obj["epsilon"] = epsilon
    model.write_text(json.dumps(obj))
    out = tmp_path / "l.json"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(["lipschitz", "--model", str(model),
                     "--graph-a", str(fixture_path("path3")),
                     "--graph-b", str(fixture_path("star4")), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [str(w.message) for w in seen] == []
    assert not out.exists()


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_lipschitz_pairs_below_one(two_cluster_dir, tmp_path, capsys, pairs):
    d, _ = two_cluster_dir
    model = tmp_path / "model.json"
    save_model_json(model, random_gin(1, 2, 1, seed=0))
    out = tmp_path / "l.json"
    assert main(["lipschitz", "--model", str(model), "--data", str(d),
                 "--pairs", pairs, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: --pairs must be >= 1, got {pairs}\n"
    assert not out.exists()


# --- perturb ---


def test_perturb_drop_edge_frozen(tmp_path):
    out = tmp_path / "p.json"
    code = main(["perturb", "--graph", str(fixture_path("edge_pair")),
                 "--drop-edge", "0", "1", "--depth", "2",
                 "--weights", "constant:1.0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["kind"] == "edge_drop"
    assert rep["bound"] == pytest.approx(2.0)
    assert rep["exact_tmd"] == pytest.approx(2.0)
    assert rep["edge"] == [0, 1]


def test_perturb_zero_feature_warning_names_the_handler(tmp_path):
    g = tmp_path / "g.json"
    save_graph_json(g, AttributedGraph(np.array([[0.0], [1.0]]), [(0, 1)]))
    with pytest.warns(RuntimeWarning, match="all-zero feature vectors") as caught:
        assert main(["perturb", "--graph", str(g), "--drop-node", "1", "--depth", "2",
                     "--weights", "constant:1.0", "--out", str(tmp_path / "p.json")]) == 0
    assert {w.filename for w in caught} == {cli_module.__file__}


def test_perturb_drop_node_and_feature(tmp_path):
    out = tmp_path / "p.json"
    assert main(["perturb", "--graph", str(fixture_path("edge_pair")),
                 "--drop-node", "0", "--depth", "2",
                 "--weights", "constant:1.0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["bound"] == pytest.approx(3.0)

    assert main(["perturb", "--graph", str(fixture_path("edge_pair")),
                 "--perturb-node", "0", "--feature", "[3.0]", "--depth", "2",
                 "--weights", "constant:1.0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["kind"] == "node_perturbation"
    assert rep["bound"] == pytest.approx(4.0)
    assert rep["exact_tmd"] <= rep["bound"] + 1e-9


@pytest.mark.parametrize("edit", [
    ["--drop-node", "99"],
    ["--drop-node", "-1"],
    ["--perturb-node", "99", "--feature", "[3.0]"],
    ["--perturb-node", "-1", "--feature", "[3.0]"],
    ["--drop-edge", "99", "0"],
    ["--drop-edge", "-1", "0"],
    ["--drop-edge", "0", "99"],
])
def test_perturb_node_out_of_range(tmp_path, capsys, edit):
    out = tmp_path / "p.json"
    assert main(["perturb", "--graph", str(fixture_path("edge_pair")), *edit,
                 "--depth", "2", "--weights", "constant:1.0", "--out", str(out)]) == 3
    node = "99" if "99" in edit else "-1"
    assert capsys.readouterr().err == f"error: node {node} out of range for 2 nodes\n"
    assert not out.exists()


@pytest.mark.parametrize("feature", ["{}", "[{}]", "[[1.0], 2.0]", f"[{10**400}]", '"1.5"',
                                     "[true]", "1.5", "[[1.0]]"],
                         ids=["dict", "list-of-dict", "ragged", "huge-int", "numeric-string",
                              "bool", "scalar", "nested"])
def test_perturb_feature_not_a_vector_of_numbers(tmp_path, capsys, feature):
    out = tmp_path / "p.json"
    assert main(["perturb", "--graph", str(fixture_path("edge_pair")), "--perturb-node",
                 "0", "--feature", feature, "--depth", "2", "--weights", "constant:1.0",
                 "--out", str(out)]) == 3
    x = json.loads(feature)
    assert capsys.readouterr().err == (f"error: feature {x!r} is not a vector of numbers "
                                       "of dimension 1\n")
    assert not out.exists()


def test_perturb_feature_numeric_string_beside_a_huge_int(tmp_path, capsys):
    # numpy reads the vector, an object array, as [1e30, 1.5]
    graph = tmp_path / "g.json"
    graph.write_text('{"features": [[1.0, 0.0], [0.0, 1.0]], "edges": [[0, 1]]}')
    out = tmp_path / "p.json"
    feature = f'[{10**30}, "1.5"]'
    assert main(["perturb", "--graph", str(graph), "--perturb-node", "0", "--feature", feature,
                 "--depth", "2", "--weights", "constant:1.0", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"error: feature {json.loads(feature)!r} is not a "
                                       "vector of numbers of dimension 2\n")
    assert not out.exists()


def _model_text(**numbers):
    """A one-layer model JSON on feature dimension 1, with `numbers`
    (epsilon, weight, bias, neighbor) written in as JSON tokens."""
    n = {"epsilon": "1.0", "weight": "0.5", "bias": "0.0", "neighbor": "0.5", **numbers}
    return (f'{{"epsilon": {n["epsilon"]}, "layers": [{{"weight": [[{n["weight"]}]], '
            f'"bias": [{n["bias"]}], "neighbor_weight": [[{n["neighbor"]}]]}}], '
            f'"readout": {{"weight": [[1.0]], "bias": [0.0]}}}}')


@pytest.mark.parametrize("number", ["true", '"1.5"', str(10**400), f'[{10**30}, "1.5"]'],
                         ids=["bool", "numeric-string", "huge-int",
                              "huge-int-with-numeric-string"])
@pytest.mark.parametrize("command, text, message", [
    ("wl", '{"features": [[@], [@]], "edges": [[0, 1]]}',
     "bad graph JSON: features must be numbers"),
    ("dist", '{"graphs": [{"features": [[1.0]], "edges": []}, {"features": [[@]], "edges": []}]}',
     "bad graph JSON: features must be numbers"),
    ("lipschitz", _model_text(weight="@"), "bad model JSON: layer weight must be numbers"),
    ("lipschitz", _model_text(bias="@"), "bad model JSON: bias must be numbers"),
    ("lipschitz", _model_text(neighbor="@"), "bad model JSON: neighbor weight must be numbers"),
    ("lipschitz", _model_text(epsilon="@"), "bad model JSON: epsilon must be a number"),
], ids=["graph", "dataset", "model-weight", "model-bias", "model-neighbor-weight",
        "model-epsilon"])
def test_json_number_not_a_number(tmp_path, capsys, command, text, message, number):
    # the --feature rule: numpy would read the first two as 1.0 and 1.5 and
    # raise OverflowError on the third (a list mixing bools with other
    # numbers reads as numbers, so each array here holds only the one token)
    path = tmp_path / "in.json"
    path.write_text(text.replace("@", number))
    edge_pair = fixture_path("edge_pair")
    args = {"wl": ["--graph-a", path, "--graph-b", edge_pair],
            "dist": ["--data", path, "--depth", "1", "--weights", "constant:1.0"],
            "lipschitz": ["--model", path, "--graph-a", edge_pair, "--graph-b", edge_pair]}
    out = tmp_path / "out"
    assert main([command, *map(str, args[command]), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_perturb_requires_exactly_one_edit(tmp_path):
    common = ["perturb", "--graph", str(fixture_path("edge_pair")), "--depth", "2",
              "--weights", "constant:1.0", "--out", str(tmp_path / "p.json")]
    assert main(common) == 3
    assert main(common + ["--drop-node", "0", "--drop-edge", "0", "1"]) == 3
    assert main(common + ["--perturb-node", "0"]) == 3
    assert main(common + ["--perturb-node", "0", "--feature", "not json"]) == 3


# --- wl ---


def test_wl_distinguishable_fixture(tmp_path):
    out = tmp_path / "w.json"
    code = main(["wl", "--graph-a", str(fixture_path("triangle")),
                 "--graph-b", str(fixture_path("path3")), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["distinguishable"] is True
    assert rep["iteration"] == 1


def test_wl_equivalent_fixture(tmp_path):
    out = tmp_path / "w.json"
    code = main(["wl", "--graph-a", str(fixture_path("c3c3")),
                 "--graph-b", str(fixture_path("c6")), "--iterations", "5",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["distinguishable"] is False
    assert rep["iteration"] is None


def test_wl_negative_iterations(tmp_path, capsys):
    assert main(["wl", "--graph-a", str(fixture_path("c3c3")),
                 "--graph-b", str(fixture_path("c6")), "--iterations", "-1",
                 "--out", str(tmp_path / "w.json")]) == 3
    assert capsys.readouterr().err == "error: iterations must be an integer >= 0, got -1\n"
    assert not (tmp_path / "w.json").exists()


# --- exit codes ---


def test_exit_parse_errors():
    assert main(["frobnicate"]) == 1
    assert main(["dist", "--data", "x"]) == 1  # missing required flags
    assert main([]) == 1


def test_exit_missing_files(tmp_path):
    assert main(["dist", "--data", str(tmp_path / "nope"), "--depth", "2",
                 "--weights", "constant:1.0",
                 "--out", str(tmp_path / "m.csv")]) == 2
    assert main(["gram", "--matrix", str(tmp_path / "nope.csv"),
                 "--gamma", "1.0", "--out", str(tmp_path / "k.csv")]) == 2


def test_exit_malformed_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["wl", "--graph-a", str(bad), "--graph-b", str(bad),
                 "--out", str(tmp_path / "w.json")]) == 2
    tu = tmp_path / "tu"
    tu.mkdir()
    write_dataset(tu, "toy", indicator=[1, 1], edges=[(1, 1)])
    assert main(["dist", "--data", str(tu), "--name", "toy", "--depth", "2",
                 "--weights", "constant:1.0",
                 "--out", str(tmp_path / "m.csv")]) == 2


def _header(depth=2, **weights):
    """A `# config:` line of a 2x2 matrix at `depth` whose weights object is
    constant:1.0 updated with `weights`, each value a JSON token."""
    w = {"kind": '"constant"', "epsilon": "1.0", "constant": "1.0", **weights}
    w = ",".join(f'"{k}":{v}' for k, v in w.items())
    return (f'# config:{{"config":{{"depth":{depth},"weights":{{{w}}},"mode":"sum"}},'
            '"row_ids":["0","1"],"col_ids":["0","1"]}\n')


def test_exit_malformed_distance_csv(two_cluster_dir, tmp_path, capsys):
    _, labels = two_cluster_dir
    body = "0.0,1.0\n1.0,0.0\n"
    pascal = {"kind": '"pascal"', "constant": "null"}
    scaled = {"kind": '"pascal_scaled"', "constant": "null"}
    for name, text, line in (("ragged.csv", "0.0,1.0\n1.0\n", 2),
                             ("words.csv", "0.0,one\n1.0,0.0\n", 1),
                             ("no_ids.csv", '# config:{"config":null}\n' + body, 1),
                             ("short_ids.csv", '# config:{"config":null,"row_ids":["0"],'
                              '"col_ids":["0","1"]}\n' + body, 1),
                             ("not_json.csv", '# config:{"config":\n' + body, 1),
                             # headers no schedule constructor would build
                             ("huge_depth.csv", _header(depth="1e400") + body, 1),
                             ("negative.csv", _header(constant="-5") + body, 1),
                             ("bool.csv", _header(constant="true") + body, 1),
                             ("word_in_table.csv", _header(**pascal, table='[1,"x"]') + body, 1),
                             ("foreign_table.csv", _header(**pascal, table="[5.0,5.0]") + body, 1),
                             ("bool_scaled.csv", _header(**scaled, table="[true,2.0]") + body, 1),
                             ("text_scaled.csv", _header(**scaled, table='["1.5",2.0]') + body, 1),
                             ("minus_scaled.csv", _header(**scaled, table="[-1,2.0]") + body, 1),
                             ("bogus_kind.csv", _header(kind='"bogus"') + body, 1)):
        mat = tmp_path / name
        mat.write_text(text)
        assert main(["knn", "--matrix", str(mat), "--labels", str(labels),
                     "--out", str(tmp_path / "knn.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mat}:{line}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("edge", [[0], [0, 1, 2], [0.5, 1.9], [True, 0]])
def test_exit_graph_json_edge_not_an_integer_pair(tmp_path, capsys, edge):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"features": [[1.0], [2.0], [3.0]], "edges": [edge]}))
    out = tmp_path / "w.json"
    assert main(["wl", "--graph-a", str(bad), "--graph-b", str(fixture_path("path3")),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: bad graph JSON: edge {edge} is not a pair of integer node ids\n")
    assert not out.exists()


def test_exit_graph_json_nan_feature_names_its_file(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "a.json").write_text(fixture_path("path3").read_text())
    (d / "b.json").write_text('{"features": [[NaN], [1.0]], "edges": [[0, 1]]}')
    out = tmp_path / "m.csv"
    assert run_dist(d, out) == 2
    assert capsys.readouterr().err == (
        f"error: {d / 'b.json'}: bad graph JSON: features must be finite\n")
    assert not out.exists()


def test_exit_graph_directory_of_mixed_dimensions_names_the_file(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "a.json").write_text(fixture_path("path3").read_text())
    (d / "b.json").write_text('{"features": [[1.0, 2.0]], "edges": []}')
    assert run_dist(d, tmp_path / "m.csv") == 2
    assert capsys.readouterr().err == (
        f"error: {d / 'b.json'}: feature dimension 2, {d / 'a.json'} has 1\n")


ONE = {"features": [[1.0]], "edges": []}


@pytest.mark.parametrize("obj, message", [
    ({"graphs": 5}, "dataset JSON must have a 'graphs' list"),
    ({"graphs": [ONE, ONE], "labels": ["a", "b"]},
     "bad dataset JSON: labels must be integers, got 'a'"),
    ({"graphs": [ONE, ONE], "labels": [0.5, 1]},
     "bad dataset JSON: labels must be integers, got 0.5"),
    ({"graphs": [ONE, ONE], "labels": [0]}, "bad dataset JSON: 1 labels for 2 graphs"),
    ({"graphs": [ONE, {"features": [[1.0, 2.0]], "edges": []}]},
     "bad dataset JSON: graph 1 has feature dimension 2, expected 1"),
])
def test_exit_malformed_dataset_json_names_its_file(tmp_path, capsys, obj, message):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "m.csv"
    assert run_dist(path, out) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("part, text, line, message", [
    ("node_attributes", "1.0\n\nnan\n", 3, "expected a finite number, got 'nan'"),
    ("node_attributes", "1.0\ninf\n", 2, "expected a finite number, got 'inf'"),
    ("A", "1, 2\n\n\nx, 2\n", 4, "expected an integer, got 'x'"),
    ("A", "1, 2\n\n1, 5\n", 3, "node id out of range 1..2"),
])
def test_exit_malformed_text_layout_names_path_and_line(tmp_path, capsys, part, text,
                                                        line, message):
    write_dataset(tmp_path, "toy", indicator=[1, 1], edges=[(1, 2)],
                  node_attrs=[[1.0], [2.0]])
    path = tmp_path / f"toy_{part}.txt"
    path.write_text(text)
    out = tmp_path / "m.csv"
    assert main(["dist", "--data", str(tmp_path), "--name", "toy", "--depth", "2",
                 "--weights", "constant:1.0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["knn", "--labels", "LABELS"],
    ["cluster", "--k", "2"],
    ["gram", "--gamma", "1.0"],
])
def test_exit_non_finite_distance_csv(two_cluster_dir, tmp_path, capsys, command):
    _, labels = two_cluster_dir
    mat = tmp_path / "nan.csv"
    mat.write_text("0.0,1.0\nnan,0.0\n")
    out = tmp_path / "out"
    argv = [command[0], "--matrix", str(mat),
            *[str(labels) if a == "LABELS" else a for a in command[1:]], "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {mat}:2: expected a finite number, got 'nan'\n"
    assert not out.exists()


def test_exit_norm_overflow(tmp_path, capsys):
    d = tmp_path / "dense"
    d.mkdir()
    save_graph_json(d / "a.json", random_graph(12, 0.9, 3, 0))
    save_graph_json(d / "b.json", random_graph(12, 0.8, 3, 1))
    out = tmp_path / "m.csv"
    assert main(["dist", "--data", str(d), "--depth", "400",
                 "--weights", "constant:1.0", "--threads", "1",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "tree distances overflow at depth " in err
    assert "constant:1.0 (sum mode)" in err
    assert not out.exists()


def test_exit_2_when_a_matrix_worker_dies(two_cluster_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis_module, "_send_rows", _exit_without_rows)
    out = tmp_path / "m.csv"
    assert run_dist(two_cluster_dir[0], out, ["--threads", "2"]) == 2
    assert capsys.readouterr().err == ("error: a matrix worker process exited with code 7 "
                                       "before sending its rows\n")
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_exit_norm_overflow_in_a_batch(tmp_path, capsys):
    # pairs of the first row overflow at different depths
    d = tmp_path / "graphs"
    d.mkdir()
    for name, g in zip("abc", (random_graph(8, 0.5, 3, 4), random_graph(12, 0.5, 3, 2),
                                random_graph(12, 0.4, 3, 3))):
        save_graph_json(d / f"{name}.json", g)
    errors = []
    for threads in ("1", "2"):
        out = tmp_path / f"m{threads}.csv"
        assert main(["dist", "--data", str(d), "--depth", "500",
                     "--weights", "constant:1.0", "--threads", threads,
                     "--out", str(out)]) == 3
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert "tree distances overflow at depth " in errors[0]
    assert errors[0] == errors[1]


@pytest.mark.parametrize("argv, message", [
    (["dist", "--data", "GRAPHS", "--depth", "2", "--weights", "constant:inf"],
     "bad weights 'constant:inf': constant weight must be positive and finite, got inf"),
    (["dist", "--data", "GRAPHS", "--depth", "2", "--weights", "pascal:4,inf"],
     "bad weights 'pascal:4,inf': epsilon must be positive and finite, got inf"),
    (["gram", "--matrix", "MATRIX", "--gamma", "inf"],
     "gamma must be positive and finite, got inf"),
    *[(["shift", "--train", "GRAPHS", "--test", "GRAPHS", "--depth", "2",
        "--weights", "constant:1.0", "--lipschitz-product", k],
       f"Lipschitz product must be finite and >= 0, got {float(k)}")
      for k in ("inf", "nan", "-1")],
    (["perturb", "--graph", "MOLECULE", "--drop-node", "1", "--depth", "60",
      "--weights", "constant:0.5"],
     "tree widths overflow int64 at depth 46; use a smaller depth"),
], ids=["constant", "pascal", "gamma", "product-inf", "product-nan", "product-neg",
        "widths"])
def test_exit_parameter_out_of_range(two_cluster_dir, tmp_path, capsys, argv, message):
    d, _ = two_cluster_dir
    mat = tmp_path / "m.csv"
    run_dist(d, mat)
    molecule = tmp_path / "molecule.json"
    save_graph_json(molecule, molecule18())
    paths = {"GRAPHS": str(d), "MATRIX": str(mat), "MOLECULE": str(molecule)}
    capsys.readouterr()
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main([paths.get(a, a) for a in argv] + ["--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [str(w.message) for w in seen] == []
    assert not out.exists()


def test_exit_config_errors(two_cluster_dir, tmp_path):
    d, _ = two_cluster_dir
    out = tmp_path / "m.csv"
    assert main(["dist", "--data", str(d), "--depth", "2",
                 "--weights", "sqrt:2", "--out", str(out)]) == 3
    # schedule table too short for the requested depth
    assert main(["dist", "--data", str(d), "--depth", "6",
                 "--weights", "pascal:4", "--out", str(out)]) == 3


def test_installed_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "treemover.cli"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1


def console_script_command(name):
    """Command that runs the console script `name` declared in pyproject.toml.

    It does what the wrapper generated by `pip install` does: set argv[0] to
    the script name, import the declared target and exit with its return
    value. So the declaration is checked from a checkout, without installing.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    launcher = (
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        f"sys.argv[0] = {name!r}\n"
        f"sys.exit({attr}())\n"
    )
    return [sys.executable, "-c", launcher]


def test_console_script_smoke(tmp_path):
    out = tmp_path / "w.json"
    proc = subprocess.run(
        console_script_command("tmd")
        + ["wl", "--graph-a", str(fixture_path("triangle")),
           "--graph-b", str(fixture_path("path3")), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["distinguishable"] is True
