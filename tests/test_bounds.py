"""Closed-form edit bounds: frozen hand values, tightness cases, fuzz."""

import numpy as np
import pytest

import treemover.bounds as bounds_module
import treemover.distance as distance_module
from treemover import (
    AttributedGraph,
    ConfigError,
    TmdConfig,
    WeightSchedule,
    constant_weights,
    drop_edge,
    drop_node,
    edge_drop_bound,
    edit_sequence_bound,
    lambda_coefficients,
    node_drop_bound,
    node_perturbation_bound,
    pascal_weights,
    random_graph,
    tmd,
)

from conftest import load_fixture


def unit_cfg(depth, mode="sum"):
    return TmdConfig(depth=depth, schedule=constant_weights(1.0), mode=mode)


# --- lambda coefficients ---


def test_lambda_starts_at_one():
    lams = lambda_coefficients(constant_weights(0.3), 4)
    assert lams[0] == 1.0


def test_lambda_matches_direct_product_custom_table():
    # lambda_l = prod_{j=1}^{l-1} w(L+1-j), checked against an explicit product.
    sched = WeightSchedule(kind="custom", table=(0.3, 1.7, 0.9, 2.5, 4.0))
    depth = 5
    lams = lambda_coefficients(sched, depth)
    for l in range(1, depth + 1):
        want = 1.0
        for j in range(1, l):
            want *= sched.weight(depth + 1 - j)
        assert lams[l - 1] == pytest.approx(want, rel=1e-15)


def test_lambda_pascal_closed_form():
    # With pascal ratios the products telescope to eps^(l-1) * C(L, l-1).
    from math import comb

    for depth in (1, 2, 3, 4):
        for eps in (0.5, 1.0, 2.0):
            lams = lambda_coefficients(pascal_weights(depth, eps), depth)
            for l in range(1, depth + 1):
                want = eps ** (l - 1) * comb(depth, l - 1)
                assert lams[l - 1] == pytest.approx(want, rel=1e-12)


def test_lambda_needs_weight_at_full_depth():
    # depth 5 lambdas consult w(5); a 4-level table cannot provide it.
    g = AttributedGraph(np.array([[1.0], [1.0]]), [(0, 1)])
    cfg = TmdConfig(depth=5, schedule=pascal_weights(4))
    with pytest.raises(ConfigError):
        node_drop_bound(g, 0, cfg)


# --- node drop ---


def test_node_drop_isolated_node_is_tight():
    g = AttributedGraph(np.array([[3.0], [1.0]]), [])
    for depth in (1, 2, 3):
        rep = node_drop_bound(g, 0, unit_cfg(depth))
        assert rep.kind == "node_drop"
        assert rep.bound == pytest.approx(3.0, rel=1e-12)
        assert rep.exact_tmd == pytest.approx(3.0, rel=1e-12)
        assert rep.widths[0][0] == 1
        assert all(w == 0 for w in rep.widths[0][1:])


def test_node_drop_zero_feature_isolated_node():
    g = AttributedGraph(np.array([[0.0], [2.0]]), [])
    with pytest.warns(RuntimeWarning):
        rep = node_drop_bound(g, 0, unit_cfg(2))
    assert rep.bound == 0.0
    assert rep.exact_tmd == 0.0


def test_node_drop_edge_graph_frozen():
    # Unit weights, depth 2: bound = 1*1*2 + 1*1*1 = 3, and the exact
    # distance meets it.
    g = load_fixture("edge_pair")
    rep = node_drop_bound(g, 0, unit_cfg(2))
    assert rep.bound == pytest.approx(3.0, rel=1e-12)
    assert rep.exact_tmd == pytest.approx(3.0, rel=1e-12)
    assert rep.gap == pytest.approx(0.0, abs=1e-12)
    assert rep.lambdas == (1.0, 1.0)


def test_node_drop_bad_index():
    g = load_fixture("edge_pair")
    with pytest.raises(IndexError):
        node_drop_bound(g, 2, unit_cfg(2))
    with pytest.raises(IndexError):
        node_drop_bound(g, -1, unit_cfg(2))
    with pytest.raises(IndexError, match="node 0.5 out of range for 2 nodes"):
        node_drop_bound(g, 0.5, unit_cfg(2))
    with pytest.raises(IndexError, match="node 1.5 out of range for 2 nodes"):
        node_perturbation_bound(g, 1.5, [0.0], unit_cfg(2))


# --- edge drop ---


def test_edge_drop_edge_graph_frozen():
    g = load_fixture("edge_pair")
    rep = edge_drop_bound(g, 0, 1, unit_cfg(2))
    assert rep.kind == "edge_drop"
    assert rep.bound == pytest.approx(2.0, rel=1e-12)
    assert rep.exact_tmd == pytest.approx(2.0, rel=1e-12)
    assert rep.widths == ((1, 1), (1, 1))


def test_edge_drop_depth_one_is_zero():
    # Depth-1 trees are bare feature vectors; edges are invisible.
    g = load_fixture("edge_pair")
    rep = edge_drop_bound(g, 0, 1, unit_cfg(1))
    assert rep.bound == 0.0
    assert rep.exact_tmd == 0.0


def test_edge_drop_order_insensitive():
    g = load_fixture("path3")
    a = edge_drop_bound(g, 0, 1, unit_cfg(3))
    b = edge_drop_bound(g, 1, 0, unit_cfg(3))
    assert a.bound == b.bound
    assert a.exact_tmd == b.exact_tmd


def test_edge_drop_missing_edge():
    g = load_fixture("path3")
    with pytest.raises(ValueError):
        edge_drop_bound(g, 0, 2, unit_cfg(2))


def test_edge_drop_cycle_all_edges_bounded():
    g = load_fixture("c6")
    cfg = unit_cfg(3)
    for u, v in g.edges:
        rep = edge_drop_bound(g, u, v, cfg)
        assert rep.exact_tmd <= rep.bound + 1e-9 * max(1.0, rep.bound)
        assert rep.bound > 0


# --- feature perturbation ---


def test_perturb_identity_is_zero():
    g = load_fixture("path3")
    rep = node_perturbation_bound(g, 1, g.features[1], unit_cfg(3))
    assert rep.bound == 0.0
    assert rep.exact_tmd == 0.0


def test_perturb_single_node_frozen():
    g = AttributedGraph(np.array([[3.0]]), [])
    for depth in (1, 2, 4):
        rep = node_perturbation_bound(g, 0, [1.0], unit_cfg(depth))
        assert rep.kind == "node_perturbation"
        assert rep.bound == pytest.approx(2.0, rel=1e-12)
        assert rep.exact_tmd == pytest.approx(2.0, rel=1e-12)


def test_perturb_edge_graph_coefficient():
    # Endpoint of an edge, depth 2, unit weights: widths (1, 1) so the
    # bound is 2 * the feature displacement.
    g = load_fixture("edge_pair")
    for delta in (0.25, 1.0, 3.5):
        rep = node_perturbation_bound(g, 0, [1.0 + delta], unit_cfg(2))
        assert rep.bound == pytest.approx(2.0 * delta, rel=1e-12)
        assert rep.exact_tmd <= rep.bound + 1e-12


def test_perturb_bound_linear_in_displacement():
    g = load_fixture("path3")
    cfg = TmdConfig(depth=3, schedule=pascal_weights(3, 0.5))
    base = g.features[1]
    d = np.array([0.3])
    one = node_perturbation_bound(g, 1, base + d, cfg)
    two = node_perturbation_bound(g, 1, base + 2 * d, cfg)
    assert two.bound == pytest.approx(2 * one.bound, rel=1e-12)


def test_perturb_dimension_mismatch():
    g = load_fixture("path3")
    with pytest.raises(ValueError):
        node_perturbation_bound(g, 0, [1.0, 2.0], unit_cfg(2))


# --- report shape ---


def test_report_json_fields():
    g = load_fixture("edge_pair")
    rep = node_drop_bound(g, 0, unit_cfg(2))
    obj = rep.to_json()
    assert obj["kind"] == "node_drop"
    assert obj["gap"] == pytest.approx(obj["bound"] - obj["exact_tmd"])
    assert obj["widths"] == [[1, 1]]
    assert obj["lambdas"] == [1.0, 1.0]


# --- edit sequences ---


def test_edit_sequence_covers_chained_edits():
    g = load_fixture("c6")
    cfg = unit_cfg(3)
    edits = [
        ("drop_edge", 0, 1),
        ("perturb", 2, [0.25]),
        ("drop_node", 4),
    ]
    total, exact, final = edit_sequence_bound(g, edits, cfg)
    assert final.node_count == 5
    assert exact <= total + 1e-9 * max(1.0, total)
    # The chained bound also covers the single-edit distances along the way.
    assert total >= edge_drop_bound(g, 0, 1, cfg).bound


def test_edit_sequence_empty_is_zero():
    g = load_fixture("path3")
    total, exact, final = edit_sequence_bound(g, [], unit_cfg(2))
    assert total == 0.0
    assert exact == 0.0
    assert final is g


def test_edit_sequence_computes_one_exact_distance(monkeypatch):
    g = load_fixture("c6")
    calls = []
    real = distance_module.pair_distances

    def counting(pairs, cfg):
        calls.append(len(pairs))
        return real(pairs, cfg)

    monkeypatch.setattr(distance_module, "pair_distances", counting)
    edits = [("drop_edge", 0, 1), ("perturb", 2, [0.25]), ("drop_node", 4)]
    total, exact, final = edit_sequence_bound(g, edits, unit_cfg(3))
    assert calls == [1]
    assert exact == tmd(g, final, unit_cfg(3))


def test_mean_mode_bound_prepares_its_graph_once(monkeypatch):
    g = load_fixture("c6")
    prepared = []
    real = distance_module.prepare_graph

    def counting(h):
        prepared.append(h)
        return real(h)

    monkeypatch.setattr(bounds_module, "prepare_graph", counting)
    monkeypatch.setattr(distance_module, "prepare_graph", counting)
    rep = node_drop_bound(g, 1, unit_cfg(3, "mean"))
    assert sum(h is g for h in prepared) == 1
    assert rep.exact_tmd == tmd(g, drop_node(g, 1), unit_cfg(3, "mean"))


def test_edit_sequence_rejects_unknown_op():
    g = load_fixture("path3")
    with pytest.raises(ValueError):
        edit_sequence_bound(g, [("swap", 0, 1)], unit_cfg(2))


# --- fuzz: exact never exceeds the bound ---


def _random_edit(rng, g):
    choices = ["drop_node", "perturb"]
    if g.edges:
        choices.append("drop_edge")
    op = rng.choice(choices)
    if op == "drop_node":
        return ("drop_node", int(rng.integers(g.node_count)))
    if op == "drop_edge":
        u, v = g.edges[int(rng.integers(len(g.edges)))]
        return ("drop_edge", u, v)
    v = int(rng.integers(g.node_count))
    x_new = g.features[v] + rng.uniform(-2, 2, size=g.feature_dim)
    return ("perturb", v, x_new)


def _apply_bound(g, edit, cfg):
    if edit[0] == "drop_node":
        return node_drop_bound(g, edit[1], cfg)
    if edit[0] == "drop_edge":
        return edge_drop_bound(g, edit[1], edit[2], cfg)
    return node_perturbation_bound(g, edit[1], edit[2], cfg)


def test_fuzz_exact_below_bound():
    rng = np.random.default_rng(4242)
    checked = 0
    for trial in range(240):
        n = int(rng.integers(2, 9))
        g = random_graph(n, float(rng.uniform(0.2, 0.9)), int(rng.integers(1, 4)),
                         seed=int(rng.integers(2**31)))
        depth = int(rng.integers(1, 4))
        eps = float(rng.choice([0.5, 1.0, 2.0]))
        schedule = (
            constant_weights(float(rng.choice([0.5, 1.0, 1.5])))
            if trial % 2
            else pascal_weights(depth, eps)
        )
        mode = "sum" if trial % 3 else "mean"
        cfg = TmdConfig(depth=depth, schedule=schedule, mode=mode)
        rep = _apply_bound(g, _random_edit(rng, g), cfg)
        scale = max(1.0, rep.bound)
        assert rep.exact_tmd <= rep.bound + 1e-9 * scale, (
            f"trial {trial}: exact {rep.exact_tmd} > bound {rep.bound} "
            f"(depth {depth}, mode {mode}, schedule {schedule.label()})"
        )
        checked += 1
    assert checked == 240


def test_fuzz_mean_mode_exact_below_sum_mode_exact():
    # The bound always prices the unnormalised distance, so the normalised
    # exact value must sit below the unnormalised one.
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        g = random_graph(n, 0.5, 2, seed=int(rng.integers(2**31)))
        v = int(rng.integers(n))
        g2 = drop_node(g, v)
        for depth in (2, 3):
            sched = pascal_weights(depth)
            d_sum = tmd(g, g2, TmdConfig(depth, sched, "sum"))
            d_mean = tmd(g, g2, TmdConfig(depth, sched, "mean"))
            assert d_mean <= d_sum + 1e-9 * max(1.0, d_sum)
