"""Dataset-level tooling: pairwise matrices, kernels, W1, shift reports, CSV."""

import gc
import multiprocessing
import os
import re
import time
import warnings
import weakref

import numpy as np
import pytest

import treemover.analysis as analysis_module
from treemover import (
    AttributedGraph,
    ConfigError,
    DatasetFormatError,
    DistanceMatrix,
    GraphDataset,
    TmdConfig,
    constant_weights,
    dataset_w1,
    gram_matrix,
    load_distance_csv,
    pairwise_tmd,
    pascal_weights,
    random_graph,
    save_distance_csv,
    shift_report,
    tmd,
)

from test_ot import enumerate_transport


def make_dataset(count, seed, n_lo=2, n_hi=6, dim=2, name=""):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        feats = rng.uniform(-1, 1, (n, dim))
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        graphs.append(AttributedGraph(feats, edges))
    return GraphDataset(graphs, name=name)


CFG = TmdConfig(depth=2, schedule=constant_weights(1.0))


# --- pairwise matrices ---


def test_pairwise_self_matrix_shape_and_diagonal():
    ds = make_dataset(5, seed=1)
    dm = pairwise_tmd(ds, None, CFG)
    assert dm.square
    assert dm.values.shape == (5, 5)
    assert dm.row_ids == ("0", "1", "2", "3", "4")
    assert np.array_equal(dm.values, dm.values.T)
    assert np.all(np.diag(dm.values) == 0.0)
    assert np.all(dm.values >= 0.0)
    assert dm.config is CFG


def test_pairwise_matches_single_distances():
    ds_a = make_dataset(2, seed=2)
    ds_b = make_dataset(3, seed=3)
    dm = pairwise_tmd(ds_a, ds_b, CFG)
    assert dm.values.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert dm.values[i, j] == tmd(ds_a[i], ds_b[j], CFG)


def test_pairwise_singletons():
    ds_a = make_dataset(1, seed=4)
    ds_b = make_dataset(1, seed=5)
    dm = pairwise_tmd(ds_a, ds_b, CFG)
    assert dm.values.shape == (1, 1)
    assert dm.values[0, 0] == tmd(ds_a[0], ds_b[0], CFG)


def test_pairwise_thread_count_is_invisible(tmp_path):
    ds = make_dataset(6, seed=6)
    one = pairwise_tmd(ds, None, CFG, threads=1)
    four = pairwise_tmd(ds, None, CFG, threads=4)
    assert np.array_equal(one.values, four.values)
    p1, p4 = tmp_path / "one.csv", tmp_path / "four.csv"
    save_distance_csv(p1, one)
    save_distance_csv(p4, four)
    assert p1.read_bytes() == p4.read_bytes()


def test_pairwise_cross_parallel_matches_serial():
    ds_a = make_dataset(3, seed=7)
    ds_b = make_dataset(4, seed=8)
    one = pairwise_tmd(ds_a, ds_b, CFG, threads=1)
    three = pairwise_tmd(ds_a, ds_b, CFG, threads=3)
    assert np.array_equal(one.values, three.values)


def test_pairwise_dimension_mismatch():
    ds_a = make_dataset(2, seed=9, dim=2)
    ds_b = make_dataset(2, seed=10, dim=3)
    with pytest.raises(ValueError):
        pairwise_tmd(ds_a, ds_b, CFG)


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(np.zeros((2, 2)), ("a",), ("b", "c"))
    with pytest.raises(ValueError):
        DistanceMatrix(np.zeros(3), ("a", "b", "c"), ("a", "b", "c"))
    dm = DistanceMatrix(np.zeros((1, 2)), [7], [8, 9])
    assert dm.row_ids == ("7",)
    assert not dm.square


class RecordingProcess(multiprocessing.Process):
    """multiprocessing.Process that records every child process it starts."""

    started = []

    def start(self):
        super().start()
        RecordingProcess.started.append(self.pid)


@pytest.fixture()
def children(monkeypatch):
    """The pids of the child processes the test starts; none may be left
    running after it."""
    RecordingProcess.started = []
    monkeypatch.setattr("multiprocessing.Process", RecordingProcess)
    yield RecordingProcess.started
    assert multiprocessing.active_children() == []


def test_pairwise_forks_no_idle_workers(children):
    # min(threads, rows) processes compute, this one included
    ds = make_dataset(4, seed=40)
    eight = pairwise_tmd(ds, None, CFG, threads=8)
    assert len(children) == 2  # three rows hold the upper triangle
    assert np.array_equal(eight.values, pairwise_tmd(ds, None, CFG, threads=1).values)
    children.clear()
    pairwise_tmd(make_dataset(2, seed=41), make_dataset(5, seed=42), CFG, threads=8)
    assert len(children) == 1
    children.clear()
    pairwise_tmd(make_dataset(2, seed=43), None, CFG, threads=8)
    assert children == []  # one row runs in this process


def test_rows_split_greedy_largest_first():
    tasks = [(i, [i]) for i in range(5)]
    # 5 -> share 1, 4 and 3 -> share 0, 3 -> share 1, 1 -> share 0: loads 8 and 8
    assert analysis_module._shares(tasks, [5, 1, 4, 3, 3], 2) == [
        [(1, [1]), (2, [2]), (3, [3])], [(0, [0]), (4, [4])]]
    # rows that gather nothing still get one share each
    assert analysis_module._shares(tasks[:3], [0, 0, 0], 3) == [
        [(2, [2])], [(1, [1])], [(0, [0])]]


# Rows 1 and 3 overflow, at depths 334 and 322; rows 0 and 2 do not.
OVERFLOW_CFG = TmdConfig(depth=400, schedule=constant_weights(1.0))


def overflow_sets():
    rows = GraphDataset([random_graph(3, 0.0, 3, seed=3), random_graph(12, 0.8, 3, seed=1),
                         random_graph(4, 0.0, 3, seed=4), random_graph(12, 0.9, 3, seed=0)])
    return rows, GraphDataset([random_graph(5, 0.0, 3, seed=5)])


def overflow_message(threads):
    with pytest.raises(ConfigError) as info:
        pairwise_tmd(*overflow_sets(), OVERFLOW_CFG, threads=threads)
    return str(info.value)


def split_rows(monkeypatch, parent_rows):
    """Make a two-process matrix give this process the rows `parent_rows`
    and its child the others."""
    def split(tasks, weights, count):
        return [[t for t in tasks if t[0] in parent_rows],
                [t for t in tasks if t[0] not in parent_rows]]

    monkeypatch.setattr(analysis_module, "_shares", split)


@pytest.mark.parametrize("parent_rows", [{0, 1}, {2, 3}, {1}, {3}],
                         ids=["row1-in-parent", "row1-in-child", "only-parent-row1",
                              "only-parent-row3"])
def test_overflow_in_either_process_raises_the_serial_error(children, monkeypatch,
                                                              parent_rows):
    serial = overflow_message(1)
    assert "overflow at depth 334 " in serial
    split_rows(monkeypatch, parent_rows)
    assert overflow_message(2) == serial
    assert len(children) == 1


def test_overflow_at_any_thread_count_raises_the_serial_error(children):
    serial = overflow_message(1)
    for threads in (2, 3, 4):
        assert overflow_message(threads) == serial
    assert len(children) == 1 + 2 + 3


def _exit_without_rows(conn, *args):
    os._exit(7)


def test_a_child_that_dies_raises_instead_of_hanging(children, monkeypatch):
    monkeypatch.setattr(analysis_module, "_send_rows", _exit_without_rows)
    with pytest.raises(ChildProcessError, match=r"^a matrix worker process exited with code 7 "
                                           r"before sending its rows$"):
        pairwise_tmd(make_dataset(4, seed=40), None, CFG, threads=3)
    assert len(children) == 2


class Interrupted(BaseException):
    pass


def test_children_are_terminated_when_this_process_is_interrupted(children, monkeypatch):
    parent, real = os.getpid(), analysis_module._rows

    def rows(*args):
        if os.getpid() == parent:
            raise Interrupted
        time.sleep(60)
        return real(*args)

    monkeypatch.setattr(analysis_module, "_rows", rows)
    start = time.monotonic()
    with pytest.raises(Interrupted):
        pairwise_tmd(make_dataset(4, seed=40), None, CFG, threads=2)
    assert time.monotonic() - start < 30
    assert len(children) == 1


def test_serial_matrix_keeps_no_prepared_graph(monkeypatch):
    pads = []
    real = analysis_module.prepare_graph

    def capturing(g):
        p = real(g)
        pads.append(weakref.ref(p.pad))
        return p

    monkeypatch.setattr(analysis_module, "prepare_graph", capturing)
    for ds_b in (None, make_dataset(2, seed=49)):
        pads.clear()
        pairwise_tmd(make_dataset(3, seed=48), ds_b, CFG, threads=1)
        gc.collect()
        assert len(pads) == (3 if ds_b is None else 5)
        assert all(ref() is None for ref in pads)


def zero_row_dataset(count, zeros, seed):
    ds = make_dataset(count, seed)
    graphs = list(ds.graphs)
    for i in range(zeros):
        feats = graphs[i].features.copy()
        feats[0] = 0.0
        graphs[i] = AttributedGraph(feats, graphs[i].edges)
    return GraphDataset(graphs)


@pytest.mark.parametrize("threads", [1, 2])
def test_pairwise_warns_once_about_zero_feature_graphs(threads):
    cases = [((zero_row_dataset(4, 2, seed=44), None), "2 of 4 graphs"),
             ((zero_row_dataset(3, 1, seed=45), zero_row_dataset(2, 1, seed=46)),
              "2 of 5 graphs")]
    for (ds_a, ds_b), count in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pairwise_tmd(ds_a, ds_b, CFG, threads=threads)
        assert [str(w.message).split(" contain ")[0] for w in caught] == [count]
        assert caught[0].category is RuntimeWarning
        assert "all-zero feature vectors" in str(caught[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairwise_tmd(make_dataset(3, seed=47), None, CFG, threads=threads)


# --- gram matrices ---


def test_gram_zero_distances_all_ones():
    dm = DistanceMatrix(np.zeros((3, 3)), "abc", "abc")
    assert np.array_equal(gram_matrix(dm, 0.7), np.ones((3, 3)))


def test_gram_frozen_value():
    dm = DistanceMatrix(np.array([[0.0, 10.0], [10.0, 0.0]]), "ab", "ab")
    k = gram_matrix(dm, 0.1)
    assert k[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert k[0, 0] == 1.0 and k[1, 1] == 1.0


def test_gram_doubling_gamma_squares_entries():
    ds = make_dataset(4, seed=11)
    dm = pairwise_tmd(ds, None, CFG)
    k1 = gram_matrix(dm, 0.3)
    k2 = gram_matrix(dm, 0.6)
    assert np.allclose(k2, k1 ** 2, rtol=1e-12)
    assert np.all(np.diag(k1) == 1.0)
    assert np.array_equal(k1, k1.T)
    assert np.all((k1 > 0) & (k1 <= 1))


def test_gram_accepts_plain_array():
    k = gram_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
    assert k[0, 1] == pytest.approx(np.exp(-1.0))


def test_gram_validation():
    dm = DistanceMatrix(np.zeros((2, 3)), "ab", "abc")
    with pytest.raises(ValueError):
        gram_matrix(dm, 1.0)
    square = DistanceMatrix(np.zeros((2, 2)), "ab", "ab")
    for gamma in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="^gamma must be positive and finite, got "):
            gram_matrix(square, gamma)


# --- CSV persistence ---


def test_csv_roundtrip(tmp_path):
    ds = make_dataset(4, seed=12)
    cfg = TmdConfig(depth=3, schedule=pascal_weights(3, 0.5), mode="mean")
    dm = pairwise_tmd(ds, None, cfg)
    path = tmp_path / "m.csv"
    save_distance_csv(path, dm)
    back = load_distance_csv(path)
    assert np.array_equal(back.values, dm.values)
    assert back.row_ids == dm.row_ids
    assert back.col_ids == dm.col_ids
    assert back.config == cfg


def test_csv_extra_header_keys(tmp_path):
    dm = DistanceMatrix(np.array([[0.0, 1.5]]), ["r"], ["x", "y"], CFG)
    path = tmp_path / "m.csv"
    save_distance_csv(path, dm, extra={"gamma": 0.25})
    text = path.read_text()
    assert text.startswith("# config:")
    assert '"gamma":0.25' in text.splitlines()[0]
    back = load_distance_csv(path)
    assert np.array_equal(back.values, dm.values)


def test_csv_without_header(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("0.0,1.25\n3.5,0.0\n")
    dm = load_distance_csv(path)
    assert np.array_equal(dm.values, np.array([[0.0, 1.25], [3.5, 0.0]]))
    assert dm.row_ids == ("0", "1")
    assert dm.config is None


def test_csv_ragged_row_names_path_and_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0.0,1.25\n\n3.5\n")
    with pytest.raises(DatasetFormatError, match=rf"^{re.escape(str(path))}:3: 1 values"):
        load_distance_csv(path)
    # the header counts as line 1
    path.write_text('# config:{"config":null,"row_ids":["a"],"col_ids":["a"]}\n'
                    "0.0,1.0\n1.0,0.0,2.0\n")
    with pytest.raises(DatasetFormatError, match=rf"^{re.escape(str(path))}:3: 3 values"):
        load_distance_csv(path)


def test_csv_non_numeric_token_names_path_and_line(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text("0.0,1.25\n3.5,zero\n")
    with pytest.raises(DatasetFormatError, match=rf"^{re.escape(str(path))}:2: .*'zero'"):
        load_distance_csv(path)
    path.write_text("0.0,,1.0\n")
    with pytest.raises(DatasetFormatError, match=rf"^{re.escape(str(path))}:1: "):
        load_distance_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_non_finite_cell_names_path_and_line(tmp_path, cell):
    path = tmp_path / "inf.csv"
    path.write_text('# config:{"config":null,"row_ids":["a","b"],"col_ids":["a","b"]}\n'
                    f"0.0,1.0\n\n1.0,{cell}\n")
    with pytest.raises(DatasetFormatError, match=rf"^{re.escape(str(path))}:4: "
                                                 rf"expected a finite number, got '{cell}'$"):
        load_distance_csv(path)


@pytest.mark.parametrize("header, message", [
    ('{"config":null}', "header needs 'row_ids' and 'col_ids'"),
    ('[["a","b"],["a","b"]]', "header needs 'row_ids' and 'col_ids'"),
    ('{"config":null,"row_ids":["a"],"col_ids":["a","b"]}',
     "header ids do not fit the matrix: shape (2, 2) does not match ids (1, 2)"),
    ('{"config":{"depth":2},"row_ids":["a","b"],"col_ids":["a","b"]}',
     "invalid config in header: KeyError('weights')"),
    ('{"config":{"depth":0,"weights":{"kind":"constant","constant":1.0}},'
     '"row_ids":["a","b"],"col_ids":["a","b"]}', "invalid config in header: "),
    ('{"config":', "header is not valid JSON: "),
])
def test_csv_malformed_header_names_path_and_line_1(tmp_path, header, message):
    path = tmp_path / "header.csv"
    path.write_text(f"# config:{header}\n0.0,1.0\n1.0,0.0\n")
    with pytest.raises(DatasetFormatError,
                       match=rf"^{re.escape(str(path))}:1: {re.escape(message)}"):
        load_distance_csv(path)


def test_csv_floats_roundtrip_exactly(tmp_path):
    rng = np.random.default_rng(13)
    vals = rng.uniform(0, 10, (3, 3))
    vals = (vals + vals.T) / 2
    np.fill_diagonal(vals, 0.0)
    dm = DistanceMatrix(vals, "abc", "abc")
    path = tmp_path / "m.csv"
    save_distance_csv(path, dm)
    assert np.array_equal(load_distance_csv(path).values, vals)


# --- dataset W1 ---


def test_w1_self_is_zero():
    ds = make_dataset(4, seed=14)
    assert dataset_w1(ds, ds, CFG) == 0.0


def test_w1_singletons_equal_tmd():
    ds_a = make_dataset(1, seed=15)
    ds_b = make_dataset(1, seed=16)
    want = tmd(ds_a[0], ds_b[0], CFG)
    assert dataset_w1(ds_a, ds_b, CFG) == pytest.approx(want, rel=1e-12)


def test_w1_matches_vertex_enumeration():
    ds_a = make_dataset(2, seed=17)
    ds_b = make_dataset(3, seed=18)
    got = dataset_w1(ds_a, ds_b, CFG)
    dm = pairwise_tmd(ds_a, ds_b, CFG)
    want = enumerate_transport(dm.values, [0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])
    assert got == pytest.approx(want, rel=1e-12)


def test_w1_symmetric_bitwise():
    ds_a = make_dataset(3, seed=19)
    ds_b = make_dataset(2, seed=20)
    assert dataset_w1(ds_a, ds_b, CFG) == dataset_w1(ds_b, ds_a, CFG)


def test_w1_triangle_inequality_fuzz():
    rng = np.random.default_rng(21)
    for _ in range(8):
        a = make_dataset(int(rng.integers(1, 4)), seed=int(rng.integers(2**31)))
        b = make_dataset(int(rng.integers(1, 4)), seed=int(rng.integers(2**31)))
        c = make_dataset(int(rng.integers(1, 4)), seed=int(rng.integers(2**31)))
        ab = dataset_w1(a, b, CFG)
        bc = dataset_w1(b, c, CFG)
        ac = dataset_w1(a, c, CFG)
        assert ac <= ab + bc + 1e-9 * max(1.0, ac)


def test_w1_rejects_empty():
    ds = make_dataset(2, seed=22)
    empty = GraphDataset([], name="none")
    with pytest.raises(ValueError):
        dataset_w1(ds, empty, CFG)


# --- shift reports ---


def test_shift_report_self_is_zero():
    train = make_dataset(3, seed=23, name="train")
    rep = shift_report(train, [train], CFG, lipschitz_product=2.5)
    assert rep["train"] == "train"
    (entry,) = rep["entries"]
    assert entry["w1"] == 0.0
    assert entry["risk_gap"] == 0.0
    assert rep["lipschitz_product"] == 2.5


def test_shift_report_sorted_and_gap_scaled():
    train = make_dataset(3, seed=24, name="train")
    tests = [make_dataset(3, seed=s, name=f"t{s}") for s in (30, 31, 32)]
    rep = shift_report(train, tests, CFG, lipschitz_product=3.0)
    w1s = [e["w1"] for e in rep["entries"]]
    assert w1s == sorted(w1s)
    for e in rep["entries"]:
        assert e["risk_gap"] == pytest.approx(6.0 * e["w1"], rel=1e-12)
    assert rep["config"] == CFG.to_json()


@pytest.mark.parametrize("product", [float("inf"), float("nan"), -1.0])
def test_shift_report_rejects_a_product_that_is_not_finite_and_non_negative(product):
    train = make_dataset(2, seed=25, name="train")
    with pytest.raises(ConfigError, match="^Lipschitz product must be finite and >= 0, got "):
        shift_report(train, [make_dataset(2, seed=26, name="t")], CFG,
                     lipschitz_product=product)


def test_shift_report_zero_product_and_overflowing_gap():
    train = make_dataset(2, seed=25, name="train")
    tests = [make_dataset(2, seed=26, name="t")]
    rep = shift_report(train, tests, CFG, lipschitz_product=0)
    assert rep["lipschitz_product"] == 0.0 and rep["entries"][0]["risk_gap"] == 0.0
    assert rep["entries"][0]["w1"] > 0.5
    with pytest.raises(ConfigError, match=r"^risk gap 2 \* K \* W1 overflows for test set 't'$"):
        shift_report(train, tests, CFG, lipschitz_product=1e308)


def test_shift_report_without_lipschitz():
    train = make_dataset(2, seed=25, name="train")
    rep = shift_report(train, [make_dataset(2, seed=26, name="t")], CFG)
    assert "risk_gap" not in rep["entries"][0]
    assert "lipschitz_product" not in rep


def shift_sets():
    """A training set and test sets on both sides of it in canonical order."""
    train = make_dataset(3, seed=50, n_lo=3, n_hi=4, name="train")
    tests = [make_dataset(2, seed=51, n_lo=2, n_hi=2, name="small"),
             make_dataset(4, seed=52, n_lo=6, n_hi=6, name="large"),
             make_dataset(3, seed=53, n_lo=3, n_hi=5, name="mixed")]
    return train, tests


def test_shift_report_w1_bitwise_equal_dataset_w1():
    train, tests = shift_sets()
    key = analysis_module._dataset_key
    assert {key(t) < key(train) for t in tests} == {True, False}
    for mode in ("sum", "mean"):
        cfg = TmdConfig(depth=3, schedule=pascal_weights(3), mode=mode)
        rep = shift_report(train, tests + [train], cfg, threads=2)
        got = {e["test"]: e["w1"] for e in rep["entries"]}
        assert got.pop("train") == 0.0
        want = {t.name: dataset_w1(train, t, cfg) for t in tests}
        assert {k: np.float64(v).tobytes() for k, v in got.items()} == \
            {k: np.float64(v).tobytes() for k, v in want.items()}


def test_shift_report_without_tests():
    train, _ = shift_sets()
    assert shift_report(train, [], CFG)["entries"] == []


def test_shift_report_rejects_bad_test_sets():
    train, tests = shift_sets()
    empty = GraphDataset([], name="none")
    with pytest.raises(ValueError, match=r"^datasets must be non-empty$"):
        shift_report(train, tests + [empty], CFG)
    wide = make_dataset(2, seed=54, dim=3, name="wide")
    with pytest.raises(ValueError, match=r"^feature dimensions differ: ") as info:
        shift_report(train, [tests[0], wide], CFG)
    with pytest.raises(ValueError) as direct:
        dataset_w1(train, wide, CFG)
    assert str(info.value) == str(direct.value)


def test_shift_report_forks_once(children):
    # one matrix of 3 train rows: at 2 threads one child, at 8 one per row
    # beside this process
    train, tests = shift_sets()
    shift_report(train, tests, CFG, threads=2)
    assert len(children) == 1
    children.clear()
    shift_report(train, tests, CFG, threads=8)
    assert len(children) == 2


def path_bin(sizes, name):
    graphs = [
        AttributedGraph(np.ones((n, 1)), [(i, i + 1) for i in range(n - 1)])
        for n in sizes
    ]
    return GraphDataset(graphs, name=name)


def test_shift_report_size_bins_monotone():
    # Bins of path graphs with strictly growing sizes: distance from the
    # smallest bin weakly increases with bin index.
    bins = [path_bin((n, n + 1), name=f"bin{n}") for n in (2, 4, 6, 8, 10)]
    rep = shift_report(bins[0], bins[1:], CFG)
    names = [e["test"] for e in rep["entries"]]
    assert names == ["bin4", "bin6", "bin8", "bin10"]
    w1s = [e["w1"] for e in rep["entries"]]
    assert all(a <= b + 1e-12 for a, b in zip(w1s, w1s[1:]))
