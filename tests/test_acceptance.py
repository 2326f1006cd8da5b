"""End-to-end acceptance checks for the toolkit.

Each test exercises one contract at full sample size and emits a single
[PASS]/[FAIL]/[SKIP] line on the real stdout (bypassing capture) so a plain
pytest run shows the verdicts inline. Tolerances and trial counts are part of
the contract; do not shrink them to speed the suite up.
"""

import functools
import itertools
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from treemover import (
    AttributedGraph,
    GraphDataset,
    TmdConfig,
    augmented_ot,
    constant_weights,
    dataset_w1,
    download_tudataset,
    edge_drop_bound,
    lipschitz_check,
    loo_knn_accuracy,
    majority_rate,
    naive_tmd,
    node_drop_bound,
    node_perturbation_bound,
    pairwise_tmd,
    parse_tudataset,
    pascal_weights,
    random_gin,
    random_graph,
    save_distance_csv,
    solve_assignment,
    tmd,
    wl_distinguishable,
)

from conftest import load_fixture
from test_ot import enumerate_transport


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    # emit() needs the active capture fixture to punch through pytest's
    # fd-level capture; plain sys.__stdout__ writes would be swallowed.
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def emit(line):
    # Bypass pytest's capture so the verdict lines always reach the terminal.
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def check(name, ok, detail):
    emit(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rel_le(lhs, rhs, rtol):
    return lhs <= rhs + rtol * max(1.0, rhs)


# --- 1. metric properties ---


@functools.lru_cache(maxsize=1)
def _metric_trials():
    rng = np.random.default_rng(0x7314D1)
    combos = list(itertools.product((1, 2, 3, 4), ("constant", "pascal"),
                                    ("sum", "mean")))
    tally = {"self": 0, "symmetry": 0, "triangle_sum": 0, "triangle_mean": 0,
             "mean_triples": 0, "worst_mean_ratio": 0.0}
    t0 = time.perf_counter()
    for trial in range(200):
        depth, kind, mode = combos[trial % len(combos)]
        if kind == "constant":
            schedule = constant_weights(float(rng.uniform(0.4, 1.5)))
        else:
            schedule = pascal_weights(depth, float(rng.choice([0.5, 1.0, 2.0])))
        cfg = TmdConfig(depth=depth, schedule=schedule, mode=mode)
        dim = int(rng.integers(1, 5))
        graphs = [
            random_graph(int(rng.integers(2, 13)), float(rng.uniform(0.2, 0.8)),
                         dim, int(rng.integers(2**31)))
            for _ in range(3)
        ]
        if mode == "mean":
            tally["mean_triples"] += 1
        for g in graphs:
            if tmd(g, g, cfg) != 0.0:
                tally["self"] += 1
        d = {}
        for i, j in ((0, 1), (1, 2), (0, 2)):
            d[i, j] = tmd(graphs[i], graphs[j], cfg)
            if d[i, j] != tmd(graphs[j], graphs[i], cfg):
                tally["symmetry"] += 1
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            lhs = d[tuple(sorted((i, k)))]
            rhs = d[tuple(sorted((i, j)))] + d[tuple(sorted((j, k)))]
            if not _rel_le(lhs, rhs, 1e-9):
                tally[f"triangle_{mode}"] += 1
                if mode == "mean" and rhs > 0:
                    tally["worst_mean_ratio"] = max(tally["worst_mean_ratio"],
                                                    lhs / rhs)
    tally["elapsed"] = time.perf_counter() - t0
    return tally


def test_metric_properties_on_random_triples():
    t = _metric_trials()
    ok = (t["self"] == 0 and t["symmetry"] == 0 and t["triangle_sum"] == 0
          and t["elapsed"] < 120.0)
    check("metric properties", ok,
          f"200/200 triples: self-distance 0 and exact symmetry in both "
          f"modes, sum-mode triangle within 1e-9 rel, {t['elapsed']:.1f}s")


def test_mean_mode_triangle_inequality():
    t = _metric_trials()
    if t["triangle_mean"]:
        emit(f"[FAIL] metric properties (mean-mode triangle): "
             f"{t['triangle_mean']} violations over {t['mean_triples']} "
             f"triples (worst lhs/rhs {t['worst_mean_ratio']:.3f}); dividing "
             f"the final transport by max(m, n) uses a different denominator "
             f"per pair, so a small intermediate graph can sit 'between' two "
             f"large ones at deflated cost")
        pytest.xfail(
            "normalized distance is not a pseudometric across differing "
            "graph sizes; see "
            "test_distance.py::test_mean_mode_triangle_counterexample"
        )
    check("metric properties (mean-mode triangle)", True,
          f"{t['mean_triples']} mean-mode triples within 1e-9 rel")


# --- 2. oracle agreement ---


def test_dynamic_program_and_assignment_match_oracles():
    rng = np.random.default_rng(0x0AC1E5)
    tmd_bad = 0
    for trial in range(100):
        depth = 1 + trial % 4
        if trial % 2:
            schedule = pascal_weights(depth, float(rng.choice([0.5, 1.0])))
        else:
            schedule = constant_weights(float(rng.uniform(0.4, 1.4)))
        mode = "mean" if trial % 3 == 0 else "sum"
        cfg = TmdConfig(depth=depth, schedule=schedule, mode=mode)
        dim = int(rng.integers(1, 4))
        ga = random_graph(int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.9)),
                          dim, int(rng.integers(2**31)))
        gb = random_graph(int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.9)),
                          dim, int(rng.integers(2**31)))
        fast = tmd(ga, gb, cfg)
        slow = naive_tmd(ga, gb, cfg)
        if abs(fast - slow) > 1e-9 * max(1.0, abs(slow)):
            tmd_bad += 1
    assign_bad = 0
    for trial in range(200):
        m = int(rng.integers(1, 8))
        c = rng.uniform(0.0, 5.0, size=(m, m))
        plan = solve_assignment(c)
        best = min(float(c[np.arange(m), np.asarray(p)].sum())
                   for p in itertools.permutations(range(m)))
        if plan.cost != best or sorted(plan.permutation) != list(range(m)):
            assign_bad += 1
    check("oracle agreement", tmd_bad == 0 and assign_bad == 0,
          f"100/100 recursive-vs-naive within 1e-9 rel, "
          f"200/200 assignments exactly optimal "
          f"({tmd_bad} + {assign_bad} failures)")


# --- 3. color-refinement separation ---


def test_refinement_distinguishable_pairs_have_positive_distance():
    rng = np.random.default_rng(0x0531AB)
    collected = 0
    failures = 0
    attempts = 0
    while collected < 100 and attempts < 1000:
        attempts += 1
        n_a, n_b = (int(rng.integers(2, 9)) for _ in range(2))
        if attempts % 2:
            ga = random_graph(n_a, float(rng.uniform(0.2, 0.9)), 1,
                              int(rng.integers(2**31)))
            gb = random_graph(n_b, float(rng.uniform(0.2, 0.9)), 1,
                              int(rng.integers(2**31)))
        else:
            # Few-valued integer features force the refinement to work
            # through structure rather than raw feature mismatch.
            base_a = random_graph(n_a, 0.5, 1, int(rng.integers(2**31)))
            base_b = random_graph(n_b, 0.5, 1, int(rng.integers(2**31)))
            ga = AttributedGraph(
                np.asarray(rng.integers(1, 4, (n_a, 1)), dtype=np.float64),
                base_a.edges)
            gb = AttributedGraph(
                np.asarray(rng.integers(1, 4, (n_b, 1)), dtype=np.float64),
                base_b.edges)
        level = int(rng.integers(1, 4))
        if not wl_distinguishable(ga, gb, level):
            continue
        collected += 1
        cfg = TmdConfig(depth=level + 1, schedule=constant_weights(1.0))
        scale = 1.0 + float(np.abs(ga.features).sum() + np.abs(gb.features).sum())
        if tmd(ga, gb, cfg) <= 1e-9 * scale:
            failures += 1
    c3c3 = load_fixture("c3c3")
    c6 = load_fixture("c6")
    indistinct_ok = not wl_distinguishable(c3c3, c6, 5)
    for depth in range(1, 6):
        for mode in ("sum", "mean"):
            cfg = TmdConfig(depth=depth, schedule=pascal_weights(5), mode=mode)
            if tmd(c3c3, c6, cfg) != 0.0:
                indistinct_ok = False
    check("refinement separation",
          collected == 100 and failures == 0 and indistinct_ok,
          f"{collected}/100 distinguishable pairs positive at depth L+1, "
          f"two-triangles vs hexagon distance 0 at depths 1-5 "
          f"({failures} failures)")


# --- 4. embedding displacement bound ---


def _bound_trials(aggregation):
    rng = np.random.default_rng(0xACCE97)
    violations = []
    total = 0
    for depth in (1, 2, 3):
        for _ in range(500):
            dim = int(rng.integers(1, 4))
            hidden = int(rng.integers(1, 5))
            eps = float(rng.choice([0.5, 1.0, 2.0]))
            model = random_gin(dim, hidden, depth, seed=int(rng.integers(2**31)),
                               aggregation=aggregation, epsilon=eps)
            ga = random_graph(int(rng.integers(2, 9)),
                              float(rng.uniform(0.15, 0.9)), dim,
                              int(rng.integers(2**31)))
            gb = random_graph(int(rng.integers(2, 9)),
                              float(rng.uniform(0.15, 0.9)), dim,
                              int(rng.integers(2**31)))
            chk = lipschitz_check(model, ga, gb)
            total += 1
            if not chk.holds(rtol=1e-7):
                violations.append(chk.lhs / chk.rhs if chk.rhs else np.inf)
    return total, violations


def test_embedding_gap_bounded_sum_aggregation():
    t0 = time.perf_counter()
    total, violations = _bound_trials("sum")
    elapsed = time.perf_counter() - t0
    check("embedding displacement bound (sum)",
          not violations and elapsed < 600.0,
          f"{total - len(violations)}/{total} trials within bound "
          f"(rtol 1e-7), L in {{1,2,3}}, {elapsed:.1f}s")


def test_embedding_gap_bounded_mean_aggregation():
    t0 = time.perf_counter()
    total, violations = _bound_trials("mean")
    elapsed = time.perf_counter() - t0
    if violations:
        emit(f"[FAIL] embedding displacement bound (mean): "
             f"{len(violations)}/{total} violations "
             f"(worst lhs/rhs {max(violations):.3f}, {elapsed:.1f}s); "
             f"the normalized transport prices padding blanks against the "
             f"padded mean, so pairs with differing node counts can exceed "
             f"the bound")
        pytest.xfail(
            "known gap in the normalized displacement bound for graphs of "
            "differing size; see "
            "test_gnn.py::test_bound_fails_mean_mode_on_degree_mismatch"
        )
    check("embedding displacement bound (mean)", elapsed < 600.0,
          f"{total}/{total} trials within bound (rtol 1e-7), {elapsed:.1f}s")


# --- 5. single-edit bounds ---


def test_single_edit_bounds_hold():
    rng = np.random.default_rng(0x0B0DD5)
    failures = 0
    kinds = {"node_drop": 0, "edge_drop": 0, "node_perturbation": 0}
    for trial in range(500):
        depth = (1, 2, 3)[trial % 3]
        if trial % 2:
            schedule = pascal_weights(depth, float(rng.choice([0.5, 1.0, 2.0])))
        else:
            schedule = constant_weights(float(rng.uniform(0.4, 1.4)))
        mode = "mean" if trial % 5 == 0 else "sum"
        cfg = TmdConfig(depth=depth, schedule=schedule, mode=mode)
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        g = random_graph(n, float(rng.uniform(0.2, 0.9)), dim,
                         int(rng.integers(2**31)))
        kind = str(rng.choice(["node_drop", "edge_drop", "node_perturbation"]))
        if kind == "edge_drop" and not g.edges:
            kind = "node_drop"
        if kind == "node_drop":
            rep = node_drop_bound(g, int(rng.integers(n)), cfg)
        elif kind == "edge_drop":
            u, v = g.edges[int(rng.integers(len(g.edges)))]
            rep = edge_drop_bound(g, u, v, cfg)
        else:
            v = int(rng.integers(n))
            x_new = g.features[v] + rng.normal(0.0, 1.0, dim)
            rep = node_perturbation_bound(g, v, x_new, cfg)
        kinds[kind] += 1
        if not _rel_le(rep.exact_tmd, rep.bound, 1e-9):
            failures += 1
    edge_pair = load_fixture("edge_pair")
    cfg2 = TmdConfig(depth=2, schedule=constant_weights(1.0))
    drop_node_rep = node_drop_bound(edge_pair, 0, cfg2)
    drop_edge_rep = edge_drop_bound(edge_pair, 0, 1, cfg2)
    tight_ok = (
        drop_node_rep.bound == pytest.approx(3.0, rel=1e-12)
        and drop_node_rep.exact_tmd == pytest.approx(3.0, rel=1e-12)
        and drop_edge_rep.bound == pytest.approx(2.0, rel=1e-12)
        and drop_edge_rep.exact_tmd == pytest.approx(2.0, rel=1e-12)
    )
    check("single-edit bounds", failures == 0 and tight_ok,
          f"500/500 exact <= bound "
          f"({kinds['node_drop']} drops / {kinds['edge_drop']} edge drops / "
          f"{kinds['node_perturbation']} perturbations), tight fixtures "
          f"bound=exact at 3 and 2 ({failures} failures)")


# --- 6. blank padding invariance ---


def test_blank_padding_invariance():
    # Invariance only holds for costs induced by a metric with the blank as
    # origin (so core[i, j] <= rn[i] + cn[j]); arbitrary matrices break it
    # through real-blank-real shortcuts.
    rng = np.random.default_rng(0xB1A2C5)
    worst = 0.0
    for _ in range(100):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        dim = int(rng.integers(1, 4))
        pts_a = rng.uniform(-2.0, 2.0, (m, dim))
        pts_b = rng.uniform(-2.0, 2.0, (n, dim))
        core = np.linalg.norm(pts_a[:, None, :] - pts_b[None, :, :], axis=2)
        rn = np.linalg.norm(pts_a, axis=1)
        cn = np.linalg.norm(pts_b, axis=1)
        k = int(rng.integers(1, 4))
        top = np.hstack([core, np.repeat(rn[:, None], k, axis=1)])
        bottom = np.hstack([np.repeat(cn[None, :], k, axis=0),
                            np.zeros((k, k))])
        padded = augmented_ot(np.vstack([top, bottom]),
                              np.concatenate([rn, np.zeros(k)]),
                              np.concatenate([cn, np.zeros(k)])).cost
        base = augmented_ot(core, rn, cn).cost
        worst = max(worst, abs(padded - base))
    check("blank padding invariance", worst <= 1e-12,
          f"100/100 instances, equal blank counts on both sides shift the "
          f"cost by at most {worst:.2e} (<= 1e-12)")


# --- 7. dataset transport distance ---


def _random_dataset(rng, count, dim=2):
    return GraphDataset(tuple(
        random_graph(int(rng.integers(2, 6)), float(rng.uniform(0.3, 0.8)),
                     dim, int(rng.integers(2**31)))
        for _ in range(count)
    ))


def test_dataset_transport_distance_properties():
    rng = np.random.default_rng(0x0DA7A5)
    cfg = TmdConfig(depth=2, schedule=constant_weights(1.0))
    ok = True
    detail = []
    for _ in range(5):
        ds = _random_dataset(rng, int(rng.integers(2, 5)))
        ok &= dataset_w1(ds, ds, cfg) == 0.0
    detail.append("self 0")
    for _ in range(5):
        a = _random_dataset(rng, int(rng.integers(2, 5)))
        b = _random_dataset(rng, int(rng.integers(2, 5)))
        ok &= dataset_w1(a, b, cfg) == dataset_w1(b, a, cfg)
    detail.append("exact symmetry")
    for _ in range(6):
        a, b, c = (_random_dataset(rng, int(rng.integers(2, 5)))
                   for _ in range(3))
        wab, wbc, wac = (dataset_w1(x, y, cfg)
                         for x, y in ((a, b), (b, c), (a, c)))
        ok &= _rel_le(wac, wab + wbc, 1e-9)
    detail.append("triangle within 1e-9 rel")
    for _ in range(5):
        a = _random_dataset(rng, 2)
        b = _random_dataset(rng, 3)
        cost = np.array([[tmd(x, y, cfg) for y in b.graphs] for x in a.graphs])
        ref = enumerate_transport(cost, np.full(2, 1 / 2), np.full(3, 1 / 3))
        ok &= dataset_w1(a, b, cfg) == ref
    detail.append("2x3 equals vertex enumeration exactly")
    check("dataset transport distance", ok, ", ".join(detail))


# --- 8. nearest-neighbor baseline on MUTAG ---


def _locate_mutag():
    candidates = []
    env = os.environ.get("TMD_DATA_DIR")
    if env:
        candidates.append(Path(env) / "MUTAG")
    data_dir = Path(__file__).resolve().parent.parent / "data"
    candidates.append(data_dir / "MUTAG")
    for cand in candidates:
        if (cand / "MUTAG_A.txt").exists():
            return cand
    try:
        return Path(download_tudataset("MUTAG", str(data_dir), timeout=10))
    except OSError:
        return None


def test_mutag_nearest_neighbor_beats_majority():
    directory = _locate_mutag()
    if directory is None:
        emit("[SKIP] MUTAG nearest-neighbor baseline: dataset not found and "
             "download failed (offline environment); place the files under "
             "data/MUTAG or $TMD_DATA_DIR/MUTAG to run this check")
        pytest.skip("MUTAG unavailable: no local copy and no network access")
    ds = parse_tudataset(str(directory), "MUTAG")
    assert ds.labels is not None
    cfg = TmdConfig(depth=2, schedule=constant_weights(0.5), mode="sum")
    t0 = time.perf_counter()
    dm = pairwise_tmd(ds, None, cfg, threads=min(4, os.cpu_count() or 1))
    elapsed = time.perf_counter() - t0
    accuracy = loo_knn_accuracy(dm, ds.labels, k=1)
    floor = majority_rate(ds.labels)
    check("MUTAG nearest-neighbor baseline",
          accuracy >= floor + 0.10 and elapsed < 600.0,
          f"leave-one-out 1-NN accuracy {accuracy:.3f} vs majority "
          f"{floor:.3f} (needs +0.10), {len(ds)} graphs, {elapsed:.0f}s")


# --- 9. runtime ---


def test_per_pair_runtime_and_scaling():
    cfg = TmdConfig(depth=4, schedule=constant_weights(1.0))
    sparse = [random_graph(30, 0.07, 2, 1000 + i) for i in range(6)]
    t0 = time.perf_counter()
    pairs = 0
    for i in range(len(sparse)):
        for j in range(i + 1, len(sparse)):
            tmd(sparse[i], sparse[j], cfg)
            pairs += 1
    per_pair = (time.perf_counter() - t0) / pairs

    # Core speed drifts over seconds, so the two sizes' pair timings are
    # interleaved and each pair keeps the best of a few repeats: drift then
    # hits both sizes alike instead of the one timed later.
    dense = {n: [random_graph(n, 0.5, 2, 2000 + n + i) for i in range(4)]
             for n in (16, 32)}
    best = {n: [] for n in dense}
    for i, j in itertools.combinations(range(4), 2):
        pair_best = {n: float("inf") for n in dense}
        for _ in range(3):
            for n, graphs in dense.items():
                start = time.perf_counter()
                tmd(graphs[i], graphs[j], cfg)
                pair_best[n] = min(pair_best[n], time.perf_counter() - start)
        for n in dense:
            best[n].append(pair_best[n])
    ratio = float(np.median(best[32]) / np.median(best[16]))
    check("runtime", per_pair < 3.4 and ratio <= 12.0,
          f"30-node depth-4 pairs at {per_pair * 1000:.0f} ms each "
          f"(< 3400 ms), doubling n on dense graphs scales x{ratio:.1f} "
          f"(<= 12)")


# --- 10. thread determinism ---


def test_threaded_pairwise_determinism(tmp_path):
    rng = np.random.default_rng(0xDE7E12)
    ds = GraphDataset(tuple(
        random_graph(int(rng.integers(3, 9)), float(rng.uniform(0.3, 0.8)),
                     2, int(rng.integers(2**31)))
        for _ in range(20)
    ))
    cfg = TmdConfig(depth=3, schedule=pascal_weights(2, 1.0))
    dm1 = pairwise_tmd(ds, None, cfg, threads=1)
    dm8 = pairwise_tmd(ds, None, cfg, threads=8)
    p1, p8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
    save_distance_csv(p1, dm1)
    save_distance_csv(p8, dm8)
    identical = (np.array_equal(dm1.values, dm8.values)
                 and p1.read_bytes() == p8.read_bytes())
    check("thread determinism", identical,
          "20-graph matrix byte-identical with 1 vs 8 threads")
