"""Property tests on generated graphs (hypothesis, derandomized).

Graphs have at most 12 nodes, so degrees reach 11, and features drawn from
{-1, 0, 0.5, 1}, so neighbour rows tie often. The vectorized GIN forward
pass and tree widths must equal their per-node reference loops bitwise, the
forward pass must be bitwise invariant to node relabelling, and so must
`tmd`, a `pairwise_tmd` cell, `tree_distance`, `tree_norm` and both sides of
a Lipschitz check when both graphs are relabelled (features drawn from
quarters, zeros of both signs), and `tmd` and a matrix cell of same-size
graphs with one or two feature values, whose stable classes often hold
several nodes. A pair's
distance must not depend on the other pairs of its batch and must equal the
per-cell reference, `references.reference_tmd`. Every edit bound
covers its exact distance, which is bitwise `tmd`'s; a Lipschitz check's
two sides are bitwise `tmd` and the GIN displacement; and `tmd` agrees with
the naive recursive evaluator on graphs of at most 10 nodes, at depth at
most 3 (its bitmask assignments make depth 4 on dense graphs slow). In sum
mode `tmd` is a pseudometric: bitwise symmetric, 0 on a graph and itself,
and within rounding of the triangle inequality. A matrix's bytes do not
depend on its worker count (few examples: each one forks). Two
nodes share a refinement class at depth k exactly when the naive distance
between their depth-k computation trees is 0 (features hold zeros of both
signs but no all-zero row), and the order between two graphs' classes does
not depend on the other graphs refined with them.

Mutated input files (graph, dataset and model JSON, the text layout and a
distance CSV's header) never make `cli.main` raise: it exits 0, 2 or 3, and
an exit of 2 names the file at fault. Out-of-range option values (0, -1,
the smallest and largest floats, inf, NaN; integers up to 10**30; malformed
schedules and features) end in a one-line error or an output its reader
loads back, with no numpy warning.

Features of 0 make all-zero rows common, so the distance's warning about
them is silenced where a test computes one.
"""

import contextlib
import copy
import io
import json
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treemover import (AttributedGraph, DistanceMatrix, GraphDataset, TmdConfig,
                       computation_tree, constant_weights, drop_edge, drop_node,
                       edge_drop_bound, gin_forward, lipschitz_check, load_distance_csv,
                       matching_config, model_to_json, naive_tmd, naive_tree_distance,
                       node_drop_bound, node_perturbation_bound, pairwise_tmd,
                       pascal_weights, pascal_weights_scaled, permute_nodes, perturb_feature,
                       random_gin, random_graph, save_dataset_json, save_distance_csv, tmd,
                       tree_distance, tree_norm, tree_widths)
from treemover import cli
from treemover.distance import pair_distances, prepare_graph
from treemover.wl import refine_classes

from conftest import FIXTURES
from references import reference_gin_forward, reference_tmd, reference_tree_widths
from test_tudataset import write_dataset

VALUES = (-1.0, 0.0, 0.5, 1.0)
SIGNED = (-1.0, -0.0, 0.0, 1.0)
HALVES = (-1.0, -0.5, 0.0, 0.5, 1.0)
QUARTERS = tuple(i / 4 for i in range(-4, 5)) + (-0.0,)
SCHEDULES = (constant_weights(0.7), pascal_weights(4))
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
ZERO_ROWS = pytest.mark.filterwarnings("ignore:.*all-zero feature vectors:RuntimeWarning")
# mutated files hold values such as 1e300, on which numpy warns of overflow
ODD_NUMBERS = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@st.composite
def graphs(draw, min_nodes=0, dim=None, max_nodes=12, values=VALUES):
    n = draw(st.integers(min_nodes, max_nodes))
    dim = draw(st.integers(1, 3)) if dim is None else dim
    feats = draw(st.lists(st.sampled_from(values), min_size=n * dim, max_size=n * dim))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    return AttributedGraph(np.array(feats, dtype=np.float64).reshape(n, dim), edges)


@st.composite
def models(draw, dim):
    return random_gin(dim, draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                      seed=draw(st.integers(0, 2**31 - 1)),
                      aggregation=draw(st.sampled_from(["sum", "mean"])),
                      neighbor_maps=draw(st.booleans()))


@PROPERTY
@given(graphs(), st.data())
def test_gin_forward_equals_per_node_reference(g, data):
    m = data.draw(models(g.feature_dim))
    assert gin_forward(m, g).tobytes() == reference_gin_forward(m, g).tobytes()


@PROPERTY
@given(graphs(), st.data())
def test_gin_forward_bitwise_relabel_invariant(g, data):
    m = data.draw(models(g.feature_dim))
    perm = data.draw(st.permutations(range(g.node_count)))
    assert gin_forward(m, permute_nodes(g, perm)).tobytes() == gin_forward(m, g).tobytes()


@ZERO_ROWS
@PROPERTY
@given(st.data())
def test_distances_bitwise_relabel_invariant(data):
    dim = data.draw(st.integers(1, 3))
    ga, gb = (data.draw(graphs(dim=dim, values=QUARTERS)) for _ in range(2))
    pa, pb = (data.draw(st.permutations(range(g.node_count))) for g in (ga, gb))
    ha, hb = permute_nodes(ga, pa), permute_nodes(gb, pb)
    c = data.draw(configs())
    assert tmd(ha, hb, c).hex() == tmd(ga, gb, c).hex()
    cells = [pairwise_tmd(GraphDataset(pair), None, c).values[0, 1]
             for pair in ((ga, gb), (ha, hb))]
    assert cells[1].tobytes() == cells[0].tobytes()
    if ga.node_count and gb.node_count:
        u = data.draw(st.integers(0, ga.node_count - 1))
        v = data.draw(st.integers(0, gb.node_count - 1))
        assert tree_distance(ha, pa[u], hb, pb[v], c.depth, c).hex() == \
            tree_distance(ga, u, gb, v, c.depth, c).hex()
        assert tree_norm(ha, pa[u], c.depth, c).hex() == tree_norm(ga, u, c.depth, c).hex()
    m = data.draw(models(dim))
    checks = [lipschitz_check(m, *pair) for pair in ((ga, gb), (ha, hb))]
    assert [(k.lhs.hex(), k.tmd_value.hex()) for k in checks][1] == \
        (checks[0].lhs.hex(), checks[0].tmd_value.hex())


@PROPERTY
@given(st.data())
def test_orientation_bitwise_relabel_invariant_on_few_feature_values(data):
    n = data.draw(st.integers(3, 8))
    values = data.draw(st.sampled_from([(1.0,), (0.5, 1.0)]))
    ga, gb = (data.draw(graphs(min_nodes=n, dim=1, max_nodes=n, values=values))
              for _ in range(2))
    c = data.draw(configs())
    want = tmd(ga, gb, c).hex()
    for _ in range(3):
        ha, hb = (permute_nodes(g, data.draw(st.permutations(range(n)))) for g in (ga, gb))
        assert tmd(ha, hb, c).hex() == want
        assert pairwise_tmd(GraphDataset([ha, hb]), None, c).values[0, 1].hex() == want


@PROPERTY
@given(graphs(min_nodes=1), st.data())
def test_tree_widths_equal_per_node_reference(g, data):
    v = data.draw(st.integers(0, g.node_count - 1))
    depth = data.draw(st.integers(1, 6))
    got = tree_widths(g, v, depth)
    want = reference_tree_widths(g, v, depth)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@PROPERTY
@given(st.data())
def test_pair_distance_independent_of_its_batch(data):
    dim = data.draw(st.integers(1, 3))
    pairs = data.draw(st.lists(st.tuples(graphs(dim=dim), graphs(dim=dim)),
                               min_size=1, max_size=4))
    schedule = data.draw(st.sampled_from([constant_weights(0.7), pascal_weights(3)]))
    c = TmdConfig(data.draw(st.integers(1, 4)), schedule,
                  data.draw(st.sampled_from(["sum", "mean"])))
    batch = [(prepare_graph(a), prepare_graph(b)) for a, b in pairs]
    alone = np.array([pair_distances([p], c)[0] for p in batch])
    order = data.draw(st.permutations(range(len(batch))))
    assert np.array(pair_distances(batch, c)).tobytes() == alone.tobytes()
    shuffled = np.array(pair_distances([batch[i] for i in order], c))
    assert shuffled.tobytes() == alone[list(order)].tobytes()


@st.composite
def configs(draw, max_depth=4):
    """Depth at most 4, so the pascal:4 schedule has every w(L) a bound needs."""
    return TmdConfig(draw(st.integers(1, max_depth)), draw(st.sampled_from(SCHEDULES)),
                     draw(st.sampled_from(["sum", "mean"])))


@ZERO_ROWS
@PROPERTY
@given(st.data())
def test_pair_distances_equal_the_final_cost_reference(data):
    dim = data.draw(st.integers(1, 3))
    pairs = data.draw(st.lists(st.tuples(graphs(dim=dim), graphs(dim=dim)),
                               min_size=1, max_size=4))
    pairs += [(b, a) for a, b in pairs]
    c = data.draw(configs())
    got = pair_distances([(prepare_graph(a), prepare_graph(b)) for a, b in pairs], c)
    want = [reference_tmd(a, b, c) for a, b in pairs]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@ZERO_ROWS
@settings(PROPERTY, max_examples=300)
@given(graphs(min_nodes=1), configs(), st.data())
def test_edit_bounds_cover_their_exact_distance(g, c, data):
    v = data.draw(st.integers(0, g.node_count - 1))
    x = data.draw(st.lists(st.sampled_from(VALUES), min_size=g.feature_dim,
                           max_size=g.feature_dim))
    reports = [(node_drop_bound(g, v, c), drop_node(g, v), (v,)),
               (node_perturbation_bound(g, v, x, c), perturb_feature(g, v, x), (v,))]
    if g.edges:
        u, w = data.draw(st.sampled_from(g.edges))
        reports.append((edge_drop_bound(g, u, w, c), drop_edge(g, u, w), (u, w)))
    for rep, edited, nodes in reports:
        assert rep.exact_tmd <= rep.bound + 1e-9 * max(1.0, rep.bound), rep.kind
        assert rep.exact_tmd.hex() == tmd(g, edited, c).hex(), rep.kind
        assert rep.widths == tuple(tuple(reference_tree_widths(g, n, c.depth).tolist())
                                   for n in nodes), rep.kind


@ZERO_ROWS
@PROPERTY
@given(graphs(), st.data())
def test_lipschitz_check_sides_are_tmd_and_the_displacement(ga, data):
    gb = data.draw(graphs(dim=ga.feature_dim))
    m = data.draw(models(ga.feature_dim))
    chk = lipschitz_check(m, ga, gb)
    assert chk.tmd_value.hex() == tmd(ga, gb, matching_config(m)).hex()
    lhs = float(np.linalg.norm(gin_forward(m, ga) - gin_forward(m, gb)))
    assert chk.lhs.hex() == lhs.hex()


@ZERO_ROWS
@settings(PROPERTY, max_examples=150)
@given(st.data())
def test_tmd_matches_naive_evaluator(data):
    dim = data.draw(st.integers(1, 3))
    ga = data.draw(graphs(dim=dim, max_nodes=10))
    gb = data.draw(graphs(dim=dim, max_nodes=10))
    c = data.draw(configs(max_depth=3))
    want = naive_tmd(ga, gb, c)
    assert abs(tmd(ga, gb, c) - want) <= 1e-9 * max(1.0, want)


@ZERO_ROWS
@PROPERTY
@given(st.data())
def test_sum_mode_metric_axioms(data):
    dim = data.draw(st.integers(1, 3))
    a, b, c = (data.draw(graphs(dim=dim)) for _ in range(3))
    cfg = TmdConfig(data.draw(st.integers(1, 4)), data.draw(st.sampled_from(SCHEDULES)), "sum")
    ab = tmd(a, b, cfg)
    assert ab.hex() == tmd(b, a, cfg).hex()
    assert tmd(a, a, cfg) == 0.0
    ac = tmd(a, c, cfg)
    assert ac <= ab + tmd(b, c, cfg) + 1e-9 * max(1.0, ac)


@ZERO_ROWS
@PROPERTY
@given(st.data())
def test_tree_distance_bitwise_symmetric(data):
    ga = data.draw(graphs(min_nodes=1, dim=1, max_nodes=8, values=HALVES))
    gb = data.draw(st.one_of(st.just(ga), graphs(min_nodes=1, dim=1, max_nodes=8,
                                                  values=HALVES)))
    c = data.draw(configs())
    for u in range(ga.node_count):
        for v in range(gb.node_count):
            assert tree_distance(ga, u, gb, v, c.depth, c).hex() == \
                tree_distance(gb, v, ga, u, c.depth, c).hex()


@ZERO_ROWS
@settings(PROPERTY, max_examples=6)
@given(st.data())
def test_pairwise_tmd_bytes_independent_of_threads(data):
    dim = data.draw(st.integers(1, 3))
    gs = data.draw(st.lists(graphs(dim=dim), min_size=3, max_size=6))
    k = data.draw(st.integers(1, len(gs) - 1))
    cfg = data.draw(configs())
    for ds_a, ds_b in ((GraphDataset(gs), None), (GraphDataset(gs[:k]), GraphDataset(gs[k:]))):
        one = pairwise_tmd(ds_a, ds_b, cfg, threads=1).values
        assert pairwise_tmd(ds_a, ds_b, cfg, threads=2).values.tobytes() == one.tobytes()


def _without_zero_rows(g):
    """g with 1.0 in the first column of each all-zero feature row."""
    feats = g.features.copy()
    feats[~feats.any(axis=1), 0] = 1.0
    return AttributedGraph(feats, g.edges)


@settings(PROPERTY, max_examples=100)
@given(st.data())
def test_refinement_classes_are_equal_computation_trees(data):
    dim = data.draw(st.integers(1, 3))
    g, h = (_without_zero_rows(data.draw(graphs(dim=dim, max_nodes=8, values=SIGNED)))
            for _ in range(2))
    depth = data.draw(st.integers(1, 4))
    classes = next(islice(refine_classes([g, h]), depth - 1, None))
    cfg = TmdConfig(depth, constant_weights(1.0))
    trees_g = [computation_tree(g, v, depth) for v in range(g.node_count)]
    trees_h = [computation_tree(h, v, depth) for v in range(h.node_count)]
    memo = {}
    for u, tu in enumerate(trees_g):
        for v, tv in enumerate(trees_h):
            same = naive_tree_distance(tu, tv, cfg, memo) == 0.0
            assert (classes[0][u] == classes[1][v]) == same


@PROPERTY
@given(st.data())
def test_refinement_class_order_independent_of_other_graphs(data):
    dim = data.draw(st.integers(1, 3))
    g, h, x, y = (data.draw(graphs(dim=dim, max_nodes=8, values=SIGNED)) for _ in range(4))
    for alone, joint in islice(zip(refine_classes([g, h]), refine_classes([x, g, y, h])), 4):
        a = np.array(alone[0] + alone[1])
        b = np.array(joint[1] + joint[3])
        assert np.array_equal(np.sign(a[:, None] - a), np.sign(b[:, None] - b))


# --- malformed input files ---

# the files are rewritten in place for each example
FUZZ = settings(PROPERTY, max_examples=150,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
ODD_VALUES = (None, True, "x", "1.5", -1, 0.5, 1e300, 10**400, [], {}, [[]], float("nan"),
              float("inf"))
ODD_TOKENS = ("nan", "inf", "x", "", "1.5", "-1", "0", "2", "9")


@st.composite
def mutated_json(draw, value):
    """value with one node changed: a key or item dropped, a list shortened
    or lengthened by one item (a row truncated, an edge's arity changed), or
    the node replaced by a value of another type or NaN."""
    value = copy.deepcopy(value)
    parent, key, node = None, None, value
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        parent, node = node, node[key]
    ops = ["replace"]
    if parent is not None:
        ops.append("drop")
    if isinstance(node, list) and node:
        ops += ["shorten", "lengthen"]
    op = draw(st.sampled_from(ops))
    if op == "drop":
        del parent[key]
    elif op == "shorten":
        node.pop()
    elif op == "lengthen":
        node.append(copy.deepcopy(node[-1]))
    elif parent is None:
        value = draw(st.sampled_from(ODD_VALUES))
    else:
        parent[key] = draw(st.sampled_from(ODD_VALUES))
    return value


def run_cli(argv):
    """(exit code, stderr) of cli.main(argv)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def check_exit(code, err, named):
    """The exit code is 0, 2 or 3, and an exit of 2 prints `error: {named}...`."""
    assert code in (0, 2, 3), err
    if code == 2:
        assert err.startswith(f"error: {named}"), err


GRAPH = {"features": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]], "edges": [[0, 1], [1, 2]]}
DATASET = {"name": "toy", "labels": [0, 1],
           "graphs": [GRAPH, {"features": [[1.0, 1.0]], "edges": []}]}
MODEL = model_to_json(random_gin(2, 3, 2, seed=0))


@ODD_NUMBERS
@FUZZ
@given(st.sampled_from(["graph", "model"]), st.data())
def test_mutated_graph_and_model_json(tmp_path, kind, data):
    files = {"graph": (tmp_path / "graph.json", GRAPH), "model": (tmp_path / "model.json", MODEL),
             "other": (tmp_path / "other.json", GRAPH)}
    for path, value in files.values():
        path.write_text(json.dumps(value))
    path, value = files[kind]
    path.write_text(json.dumps(data.draw(mutated_json(value))))
    code, err = run_cli(["lipschitz", "--model", files["model"][0],
                         "--graph-a", files["graph"][0], "--graph-b", files["other"][0],
                         "--out", tmp_path / "l.json"])
    check_exit(code, err, f"{path}: ")


@ODD_NUMBERS
@FUZZ
@given(st.data())
def test_mutated_dataset_json(tmp_path, data):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(data.draw(mutated_json(DATASET))))
    code, err = run_cli(["dist", "--data", path, "--depth", "2", "--weights", "constant:1.0",
                         "--out", tmp_path / "m.csv"])
    check_exit(code, err, f"{path}: ")


HEADERS = [{"config": TmdConfig(2, schedule).to_json(), "row_ids": ["a", "b"],
            "col_ids": ["a", "b"]}
           for schedule in (*SCHEDULES, pascal_weights_scaled(2, [0.5, 2.0]))]


def rebuilt_config(header):
    """The TmdConfig the fields of a loaded header's `config` build through
    the schedule constructors, or None: a pascal table must be the one its
    length and epsilon build, and a scaled table w(1)..w(d) gives the scales
    w(l) * (d - l + 1) / l."""
    obj = header.get("config")
    if not obj:
        return None
    w = obj["weights"]
    if w["kind"] == "constant":
        schedule = constant_weights(w["constant"])
    elif w["kind"] == "pascal":
        schedule = pascal_weights(len(w["table"]), w.get("epsilon", 1.0))
    else:
        assert w["kind"] == "pascal_scaled"
        d = len(w["table"])
        schedule = pascal_weights_scaled(d, [x * (d - l + 1) / l
                                             for l, x in enumerate(w["table"], start=1)])
    if schedule.table is not None:
        assert list(schedule.table) == [float(x) for x in w["table"]
                                        if type(x) in (int, float)]
    return TmdConfig(obj["depth"], schedule, obj.get("mode", "sum"))


@ODD_NUMBERS
@FUZZ
@given(st.sampled_from(HEADERS), st.integers(0, 3), st.data())
def test_mutated_csv_header(tmp_path, header, level, data):
    path, labels = tmp_path / "m.csv", tmp_path / "labels.txt"
    labels.write_text("0\n1\n")
    # mutate the header, its config, its weights or one weights field, so the
    # deepest fields are drawn as often as the top ones
    keys = ["header", "config", "weights",
            data.draw(st.sampled_from(sorted(header["config"]["weights"])))]
    parent = root = {"header": copy.deepcopy(header)}
    for key in keys[:level]:
        parent = parent[key]
    parent[keys[level]] = data.draw(mutated_json(parent[keys[level]]))
    header = root["header"]
    path.write_text(f"# config:{json.dumps(header, separators=(',', ':'))}\n0.0,1.0\n1.0,0.0\n")
    code, err = run_cli(["knn", "--matrix", path, "--labels", labels,
                         "--out", tmp_path / "k.json"])
    check_exit(code, err, f"{path}:1: ")
    if code == 0:
        echoed = json.loads((tmp_path / "k.json").read_text())["config"]
        want = rebuilt_config(header)
        assert json.dumps(echoed) == json.dumps(want and want.to_json())


@st.composite
def mutated_rows(draw, rows):
    """rows with one line dropped, blank, truncated, lengthened or with one
    token replaced (by NaN, a word, a fraction, ...)."""
    rows = [list(r) for r in rows]
    i = draw(st.integers(0, len(rows) - 1))
    op = draw(st.sampled_from(["drop", "blank", "truncate", "lengthen", "replace"]))
    if op == "drop":
        del rows[i]
    elif op == "blank":
        rows.insert(i, [])
    elif op == "truncate":
        rows[i].pop()
    elif op == "lengthen":
        rows[i].append(draw(st.sampled_from(ODD_TOKENS)))
    else:
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(ODD_TOKENS))
    return rows


@ODD_NUMBERS
@FUZZ
@given(st.sampled_from(["graph_indicator", "A", "node_attributes", "node_labels",
                        "graph_labels"]), st.data())
def test_mutated_text_layout(tmp_path, part, data):
    write_dataset(tmp_path, "toy", indicator=[1, 1, 1, 2, 2],
                  edges=[(1, 2), (2, 1), (2, 3), (3, 2), (4, 5), (5, 4)],
                  node_attrs=[[0.5, 1.0], [1.5, -1.0], [0.0, 2.0], [1.0, 1.0], [2.0, 0.5]],
                  node_labels=[0, 1, 1, 0, 2], graph_labels=[1, -1])
    path = tmp_path / f"toy_{part}.txt"
    rows = [ln.split(",") for ln in path.read_text().splitlines()]
    path.write_text("".join(",".join(r) + "\n" for r in data.draw(mutated_rows(rows))))
    code, err = run_cli(["dist", "--data", tmp_path, "--name", "toy", "--depth", "2",
                         "--weights", "constant:1.0", "--out", tmp_path / "m.csv"])
    # a change to one file can leave another inconsistent with it (a dropped
    # graph id puts an edge out of range), so the error names some file of
    # the layout
    check_exit(code, err, f"{tmp_path / 'toy_'}")


# --- out-of-range option values ---

OPTION_VALUES = (0, -1, 5e-324, 1e308, float("inf"), float("nan"))


def strict_json(text):
    """The JSON value of text; the non-standard Infinity and NaN fail."""
    def reject(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def option_run(tmp_path, option, x, depth):
    """(argv, output path) of a run that sets `option` to x and --depth to depth."""
    config = ["--depth", depth, "--threads", "1"]
    if option in ("constant", "pascal"):
        weights = f"constant:{x!r}" if option == "constant" else f"pascal:3,{x!r}"
        out = tmp_path / "m.csv"
        return ["dist", "--data", FIXTURES, *config, "--weights", weights], out
    if option == "gamma":
        matrix = tmp_path / "d.csv"
        save_distance_csv(matrix, DistanceMatrix(
            np.array([[0.0, 1.5, 40.0], [1.5, 0.0, 3.0], [40.0, 3.0, 0.0]]), "abc", "abc"))
        return ["gram", "--matrix", matrix, "--gamma", repr(x)], tmp_path / "k.csv"
    out = tmp_path / "r.json"
    if option == "lipschitz":
        test = tmp_path / "test.json"
        save_dataset_json(test, GraphDataset([random_graph(4, 0.5, 1, s) for s in range(2)]))
        return ["shift", "--train", FIXTURES, "--test", test, *config,
                "--weights", "constant:0.5", "--lipschitz-product", repr(x)], out
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**model_to_json(random_gin(1, 3, 2, seed=1)), "epsilon": x}))
    return ["lipschitz", "--model", model, "--graph-a", FIXTURES / "path3.json",
            "--graph-b", FIXTURES / "star4.json"], out


# --depth stays in -1..3 because run time grows linearly with depth, while
# on the fixture graphs, whose adjacency spectral radii are at most 2, tree
# norms under constant:0.5 grow at most linearly and never overflow. The deep
# exits, distance and tree-width overflow, have their own tests in test_cli.py.
@settings(FUZZ, max_examples=100)
@given(st.sampled_from(["constant", "pascal", "gamma", "lipschitz", "epsilon"]),
       st.sampled_from(OPTION_VALUES), st.integers(-1, 3))
def test_option_values_end_in_a_documented_exit(tmp_path, option, x, depth):
    check_option_run(*option_run(tmp_path, option, x, depth))


INTEGERS = (0, -1, 2**31, 2**63, 10**30)
# the values tried per option; workers are capped by the row count, so
# --threads 10**30 forks a handful, pascal:1100 builds its table quickly and
# a DEPTH above the cap of 10,000 exits 3 before any table is built
OPTION_TEXTS = {
    **{option: INTEGERS for option in ("knn --k", "cluster --k", "cluster --seed",
                                       "wl --iterations", "lipschitz --pairs",
                                       "lipschitz --seed", "dist --threads", "dist --mode")},
    "dist --weights": ("constant:", "constant:1,2", "pascal:", "pascal:2,", "pascal:1e3",
                       "pascal:0", "pascal:1100", "pascal:10001", "pascal:99999999999",
                       "pascal:3,1,2", "linear:1"),
    "perturb --feature": ("{}", "[{}]", '"x"', "null", "[1e999]", "[]", "[[1.0]]"),
}


def option_text_run(tmp_path, option, x, depth):
    """(argv, output path) of a run that gives `option`, a "command --flag"
    key of OPTION_TEXTS, the value x, with --depth depth where it applies."""
    command, flag = option.split()
    out = tmp_path / ("m.csv" if command == "dist" else "r.json")
    if command in ("knn", "cluster"):
        matrix, labels = tmp_path / "d.csv", tmp_path / "labels.txt"
        save_distance_csv(matrix, DistanceMatrix(
            np.array([[0.0, 1.5, 4.0], [1.5, 0.0, 3.0], [4.0, 3.0, 0.0]]), "abc", "abc"))
        labels.write_text("0\n1\n0\n")
        argv = [command, "--matrix", matrix, "--labels", labels, "--k", 2]
    elif command == "wl":
        argv = ["wl", "--graph-a", FIXTURES / "path3.json", "--graph-b", FIXTURES / "star4.json"]
    elif command == "lipschitz":
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_to_json(random_gin(1, 3, 2, seed=1))))
        argv = ["lipschitz", "--model", model, "--data", FIXTURES, "--pairs", 2]
    elif command == "dist":
        argv = ["dist", "--data", FIXTURES, "--depth", depth, "--weights", "constant:0.5",
                "--threads", 1]
    else:
        argv = ["perturb", "--graph", FIXTURES / "path3.json", "--perturb-node", 0,
                "--depth", depth, "--weights", "constant:0.5"]
    # a later flag overrides an earlier one
    return [*argv, flag, x], out


@pytest.mark.parametrize("option", sorted(OPTION_TEXTS))
@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_option_texts_end_in_a_documented_exit(tmp_path, option, data):
    x = data.draw(st.sampled_from(OPTION_TEXTS[option]))
    check_option_run(*option_text_run(tmp_path, option, x, data.draw(st.integers(-1, 3))))


def check_option_run(argv, out):
    """The run of argv exits 0 with an output its reader loads back, or 1, 2
    or 3 with one error line; with no warning either way."""
    out.unlink(missing_ok=True)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, err = run_cli([*argv, "--out", out])
    assert [str(w.message) for w in seen] == []
    assert code in (0, 1, 2, 3), err
    if code == 0:
        if out.suffix == ".csv":
            assert np.all(np.isfinite(load_distance_csv(out).values))
        else:
            strict_json(out.read_text())
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err

