"""Message-passing models: forward pass, spectral norms, displacement bound."""

import numpy as np
import pytest

from treemover import (
    AttributedGraph,
    ConfigError,
    DatasetFormatError,
    GinLayer,
    TmdConfig,
    constant_weights,
    empirical_lipschitz,
    gin_forward,
    lipschitz_check,
    load_model_json,
    make_gin,
    matching_config,
    model_from_json,
    model_to_json,
    pascal_weights,
    pearson_r,
    permute_nodes,
    random_gin,
    random_graph,
    save_model_json,
    spectral_norm,
)

from conftest import load_fixture
from references import reference_gin_forward


def identity_model(dim, aggregation="sum", epsilon=1.0, out_dim=None):
    eye = np.eye(dim)
    readout_w = np.eye(out_dim or dim, dim)
    return make_gin(
        [GinLayer(eye, np.zeros(dim))],
        readout=GinLayer(readout_w, np.zeros(out_dim or dim)),
        epsilon=epsilon,
        aggregation=aggregation,
    )


# --- spectral norm ---


def test_spectral_norm_scalar():
    assert spectral_norm(np.array([[2.0]])) == 2.0
    assert spectral_norm(np.array([[-3.0]])) == 3.0


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 4))) == 0.0
    assert spectral_norm(np.zeros((0, 4))) == 0.0


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (3, 3), (8, 8), (2, 7), (7, 2)]:
        for _ in range(10):
            w = rng.uniform(-1, 1, size=shape)
            want = float(np.linalg.svd(w, compute_uv=False)[0])
            assert spectral_norm(w) == pytest.approx(want, abs=1e-8, rel=1e-8)


def test_spectral_norm_rank_deficient():
    w = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert spectral_norm(w) == pytest.approx(2.0, rel=1e-10)


def test_spectral_norm_near_degenerate_top_singular_values():
    # the two largest singular values 1 and 1 - 1e-6, in a rotated basis
    q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
    for w in (np.diag([1.0, 1.0 - 1e-6]), q @ np.diag([1.0, 1.0 - 1e-6, 0.3]) @ q.T):
        assert spectral_norm(w) == pytest.approx(1.0, rel=1e-12)


def test_spectral_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_norm(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        spectral_norm(np.array([[np.inf]]))


# --- model construction ---


def test_random_gin_deterministic():
    a = random_gin(3, 4, 2, seed=7)
    b = random_gin(3, 4, 2, seed=7)
    for la, lb in zip(a.layers + (a.readout,), b.layers + (b.readout,)):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)
    assert a.lipschitz == b.lipschitz
    c = random_gin(3, 4, 2, seed=8)
    assert not np.array_equal(a.layers[0].weight, c.layers[0].weight)


def test_random_gin_zero_biases():
    m = random_gin(2, 5, 3, seed=0, out_dim=2)
    for layer in m.layers + (m.readout,):
        assert not np.any(layer.bias)


def test_random_gin_lipschitz_matches_svd():
    m = random_gin(3, 6, 2, seed=42)
    maps = [l.weight for l in m.layers] + [m.readout.weight]
    for k, w in zip(m.lipschitz, maps):
        assert k == pytest.approx(float(np.linalg.svd(w, compute_uv=False)[0]),
                                  rel=1e-8)


def test_make_gin_scalar_lipschitz():
    m = make_gin([GinLayer(np.array([[2.0]]), np.zeros(1))],
                 readout=GinLayer(np.array([[1.0]]), np.zeros(1)))
    assert m.lipschitz == (2.0, 1.0)
    assert m.lipschitz_product() == 2.0


def test_make_gin_validation():
    eye2 = np.eye(2)
    with pytest.raises(ValueError):
        make_gin([], readout=GinLayer(eye2, np.zeros(2)))
    with pytest.raises(ConfigError):
        make_gin([GinLayer(eye2, np.zeros(2))], readout=GinLayer(eye2, np.zeros(2)),
                 aggregation="max")
    with pytest.raises(ConfigError):
        make_gin([GinLayer(eye2, np.zeros(2))], readout=GinLayer(eye2, np.zeros(2)),
                 epsilon=0.0)
    # layer 2 input must match layer 1 output
    with pytest.raises(ValueError):
        make_gin([(np.ones((3, 2)), np.zeros(3)), (np.ones((2, 2)), np.zeros(2))],
                 readout=(np.ones((1, 2)), np.zeros(1)))
    # readout input must match last layer output
    with pytest.raises(ValueError):
        make_gin([(np.ones((3, 2)), np.zeros(3))], readout=(np.ones((1, 2)), np.zeros(1)))
    # bias length
    with pytest.raises(ValueError):
        make_gin([(eye2, np.zeros(3))], readout=(eye2, np.zeros(2)))
    # readout cannot aggregate neighbours
    with pytest.raises(ValueError):
        make_gin([(eye2, np.zeros(2))], readout=(eye2, np.zeros(2), eye2))


def test_make_gin_accepts_tuples_and_layers():
    a = make_gin([(np.eye(2), np.zeros(2))], readout=(np.eye(2), np.zeros(2)))
    b = make_gin([GinLayer(np.eye(2), np.zeros(2))],
                 readout=GinLayer(np.eye(2), np.zeros(2)))
    assert np.array_equal(a.layers[0].weight, b.layers[0].weight)


def test_neighbor_weight_must_be_square_on_input():
    with pytest.raises(ValueError):
        make_gin([(np.eye(2), np.zeros(2), np.ones((3, 3)))],
                 readout=(np.eye(2), np.zeros(2)))


# --- forward pass ---


def test_forward_single_node_identity():
    g = AttributedGraph(np.array([[0.5, 2.0]]), [])
    m = identity_model(2)
    assert np.array_equal(gin_forward(m, g), np.array([0.5, 2.0]))


def test_forward_edge_graph_identity_sum():
    # One layer, identity maps, eps 1: each endpoint becomes x_a + x_b and
    # the sum readout doubles it.
    xa, xb = np.array([1.0, 0.25]), np.array([2.0, 0.5])
    g = AttributedGraph(np.stack([xa, xb]), [(0, 1)])
    m = identity_model(2)
    assert np.allclose(gin_forward(m, g), 2 * (xa + xb), rtol=1e-15)


def test_forward_star_mean_frozen():
    # Uniform features 1, mean aggregation: every update gives relu(1 + 1) = 2
    # and the mean readout keeps it at 2.
    g = load_fixture("star4")
    m = identity_model(1, aggregation="mean")
    assert gin_forward(m, g)[0] == pytest.approx(2.0, rel=1e-15)
    m_sum = identity_model(1, aggregation="sum")
    got = gin_forward(m_sum, g)[0]
    # center: 1 + 3, leaves: 1 + 1 each; sum readout = 4 + 3*2
    assert got == pytest.approx(10.0, rel=1e-15)


def test_forward_mean_equals_sum_on_degree_one_graphs():
    g = load_fixture("edge_pair")
    m_sum = identity_model(1, aggregation="sum")
    m_mean = identity_model(1, aggregation="mean")
    z_sum = gin_forward(m_sum, g)
    z_mean = gin_forward(m_mean, g)
    assert z_sum[0] == pytest.approx(2 * z_mean[0], rel=1e-15)


def test_forward_empty_graph():
    g = AttributedGraph(np.zeros((0, 3)), [])
    m = random_gin(3, 4, 2, seed=5, out_dim=2)
    out = gin_forward(m, g)
    assert out.shape == (2,)
    assert not np.any(out)


def test_forward_isolated_node_mean_has_no_neighbours():
    g = AttributedGraph(np.array([[1.0], [2.0]]), [])
    m = identity_model(1, aggregation="mean")
    # no neighbours -> aggregate is zero, not a division by zero
    assert gin_forward(m, g)[0] == pytest.approx(3.0 / 2, rel=1e-15)


def test_forward_permutation_invariant_bitwise():
    rng = np.random.default_rng(3)
    for trial in range(25):
        n = int(rng.integers(1, 9))
        g = random_graph(n, 0.5, 2, seed=int(rng.integers(2**31)))
        perm = rng.permutation(n).tolist()
        m = random_gin(2, 3, 2, seed=int(rng.integers(2**31)),
                       aggregation="mean" if trial % 2 else "sum",
                       neighbor_maps=bool(trial % 3 == 0))
        a = gin_forward(m, g)
        b = gin_forward(m, permute_nodes(g, perm))
        assert np.array_equal(a, b)


def _forward_graphs(dim):
    """Empty, one-node and isolated-node graphs, degrees >= 8 and 4..11, the
    same structures with tie-heavy 0/1 features, and a sum that depends on
    the order of its additions."""
    rng = np.random.default_rng(808 + dim)
    graphs = [AttributedGraph(np.zeros((0, dim)), []),
              AttributedGraph(np.full((1, dim), 0.5), []),
              AttributedGraph(np.arange(5.0 * dim).reshape(5, dim) / 7 - 1,
                              [(0, 1), (1, 2)])]
    dense = random_graph(14, 0.85, dim, seed=1)
    assert min(len(a) for a in dense.neighbors) >= 8
    wide = random_graph(16, 0.5, dim, seed=0)
    assert {len(a) for a in wide.neighbors} >= {4, 8, 11}
    for g in (dense, wide, random_graph(12, 0.7, dim, seed=2)):
        ties = (rng.random(g.features.shape) < 0.5).astype(float)
        graphs += [g, AttributedGraph(ties, g.edges)]
    # node 0 sums 1 + 1 + 1 + 1e16, whose value depends on the order of the
    # additions; node 5 has degree 8 and node 14 none
    feats = np.full((15, dim), 0.5)
    feats[1:4], feats[4] = 1.0, 1e16
    graphs.append(AttributedGraph(feats, [(0, v) for v in range(1, 5)]
                                  + [(5, v) for v in range(6, 14)]))
    return graphs


def _non_negative(m):
    """m with every weight made non-negative, so ReLU passes every sum on."""
    def absolute(a):
        return None if a is None else np.abs(a)

    layers = [(np.abs(l.weight), l.bias, absolute(l.neighbor_weight)) for l in m.layers]
    return make_gin(layers, (np.abs(m.readout.weight), m.readout.bias),
                    epsilon=m.epsilon, aggregation=m.aggregation)


@pytest.mark.parametrize("aggregation", ["sum", "mean"])
@pytest.mark.parametrize("neighbor_maps", [False, True])
def test_forward_bitwise_equal_per_node_reference(aggregation, neighbor_maps):
    # width 1 makes every neighbour sum a contiguous reduction, where a
    # zero-padded sum would change numpy's summation order
    for dim, hidden in ((1, 1), (3, 1), (3, 5)):
        for seed, g in enumerate(_forward_graphs(dim)):
            m = random_gin(dim, hidden, 3, seed=seed, aggregation=aggregation,
                           neighbor_maps=neighbor_maps)
            for model in (m, _non_negative(m)):
                want = reference_gin_forward(model, g)
                assert gin_forward(model, g).tobytes() == want.tobytes()


def test_forward_dimension_mismatch():
    g = AttributedGraph(np.array([[1.0, 2.0]]), [])
    with pytest.raises(ValueError):
        gin_forward(identity_model(3), g)


def test_forward_readout_bias_applied():
    g = AttributedGraph(np.array([[1.0]]), [])
    m = make_gin([(np.eye(1), np.zeros(1))],
                 readout=(np.eye(1), np.array([5.0])))
    assert gin_forward(m, g)[0] == 6.0


# --- matching configuration ---


def test_matching_config_shape():
    m = random_gin(2, 3, 2, seed=1, epsilon=0.5, aggregation="mean")
    cfg = matching_config(m)
    assert cfg.depth == 3
    assert cfg.mode == "mean"
    want = pascal_weights(2, 0.5)
    assert cfg.schedule.table == want.table


def test_matching_config_neighbor_maps_scales_levels():
    m = random_gin(2, 3, 2, seed=9, neighbor_maps=True)
    cfg = matching_config(m)
    scales = m.neighbor_scales()
    want = tuple(
        scales[l - 1] * pascal_weights(2).table[l - 1] for l in (1, 2)
    )
    assert cfg.schedule.table == pytest.approx(want, rel=1e-12)


# --- displacement bound ---


def test_check_identical_graphs():
    g = load_fixture("path3")
    m = random_gin(1, 3, 2, seed=2)
    chk = lipschitz_check(m, g, g)
    assert chk.lhs == 0.0
    assert chk.rhs == 0.0
    assert chk.ratio == 0.0
    assert chk.holds()


def test_check_permuted_graphs_both_sides_vanish():
    g = random_graph(6, 0.5, 2, seed=10)
    m = random_gin(2, 3, 2, seed=3)
    chk = lipschitz_check(m, g, permute_nodes(g, [3, 1, 5, 0, 2, 4]))
    assert chk.lhs == 0.0
    assert chk.rhs == 0.0
    assert chk.holds()


def test_check_refinement_equivalent_graphs():
    # Two triangles vs a hexagon, uniform features: identical embeddings and
    # zero distance at any depth.
    c3c3, c6 = load_fixture("c3c3"), load_fixture("c6")
    for aggregation in ("sum", "mean"):
        m = random_gin(1, 4, 3, seed=6, aggregation=aggregation)
        chk = lipschitz_check(m, c3c3, c6)
        assert chk.lhs == 0.0
        assert chk.rhs == 0.0


def test_check_mode_mismatch_rejected():
    g = load_fixture("path3")
    m = random_gin(1, 2, 1, seed=0, aggregation="mean")
    cfg = TmdConfig(2, constant_weights(1.0), "sum")
    with pytest.raises(ConfigError):
        lipschitz_check(m, g, g, cfg)


def test_check_custom_config_used():
    g = load_fixture("path3")
    h = load_fixture("triangle")
    m = random_gin(1, 2, 1, seed=0)
    loose = lipschitz_check(m, g, h, TmdConfig(2, constant_weights(50.0), "sum"))
    tight = lipschitz_check(m, g, h, TmdConfig(2, constant_weights(1.0), "sum"))
    assert loose.lhs == tight.lhs
    assert loose.tmd_value > tight.tmd_value


def test_bound_holds_sum_mode_fuzz():
    rng = np.random.default_rng(2024)
    for L in (1, 2, 3):
        for _ in range(80):
            dim = int(rng.integers(1, 4))
            ga = random_graph(int(rng.integers(1, 9)), float(rng.uniform(0.2, 0.9)),
                              dim, seed=int(rng.integers(2**31)))
            gb = random_graph(int(rng.integers(1, 9)), float(rng.uniform(0.2, 0.9)),
                              dim, seed=int(rng.integers(2**31)))
            m = random_gin(dim, int(rng.integers(1, 5)), L,
                           seed=int(rng.integers(2**31)),
                           epsilon=float(rng.choice([0.5, 1.0, 2.0])))
            chk = lipschitz_check(m, ga, gb)
            assert chk.holds(rtol=1e-7), (
                f"L={L} lhs={chk.lhs} rhs={chk.rhs} ratio={chk.ratio}"
            )


def test_bound_holds_with_neighbor_maps():
    rng = np.random.default_rng(77)
    for _ in range(60):
        dim = int(rng.integers(1, 3))
        ga = random_graph(int(rng.integers(1, 7)), 0.5, dim,
                          seed=int(rng.integers(2**31)))
        gb = random_graph(int(rng.integers(1, 7)), 0.5, dim,
                          seed=int(rng.integers(2**31)))
        m = random_gin(dim, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                       seed=int(rng.integers(2**31)), neighbor_maps=True)
        chk = lipschitz_check(m, ga, gb)
        assert chk.holds(rtol=1e-7)


def test_bound_holds_mean_mode_on_equal_size_regular_graphs():
    # With equal node counts and equal degrees no padding occurs anywhere in
    # the recursion, and the normalised bound is sound.
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(3, 8))
        dim = int(rng.integers(1, 3))
        edges = [(i, (i + 1) % n) for i in range(n)]
        ga = AttributedGraph(rng.uniform(-1, 1, (n, dim)), edges)
        gb = AttributedGraph(rng.uniform(-1, 1, (n, dim)), edges)
        m = random_gin(dim, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                       seed=int(rng.integers(2**31)), aggregation="mean",
                       epsilon=float(rng.choice([0.5, 1.0, 2.0])))
        assert lipschitz_check(m, ga, gb).holds(rtol=1e-7)


def test_bound_fails_mean_mode_on_degree_mismatch():
    # Known limitation of the normalised bound: a true mean over n items is
    # not the blank-padded mean over max(m, n) items. Identity weights,
    # eps 1: the forward means differ by 2/3 while the normalised distance
    # only prices the padded discrepancy, 1/2.
    ga = AttributedGraph(np.array([[1e-6], [1.0]]), [(0, 1)])
    gb = AttributedGraph(np.array([[1e-6], [1.0], [-1.0]]), [(0, 1), (0, 2)])
    w, b = np.array([[1.0]]), np.zeros(1)
    m = make_gin([GinLayer(w, b)], readout=GinLayer(w, b), aggregation="mean")
    chk = lipschitz_check(m, ga, gb)
    assert chk.lhs == pytest.approx(2.0 / 3.0, abs=1e-5)
    assert chk.rhs == pytest.approx(0.5, abs=1e-5)
    assert not chk.holds(rtol=1e-7)


def test_bound_fails_with_nonzero_hidden_bias():
    # A hidden bias makes relu(0 + b) nonzero, so padding blanks no longer
    # embed to zero and size differences escape the bound; with the bias
    # removed the same pair is exactly tight. This is why random models for
    # bound verification keep biases at zero.
    g1 = AttributedGraph(np.array([[1.0]]), [])
    g2 = AttributedGraph(np.array([[1.0], [1.0]]), [])
    w, zero = np.array([[1.0]]), np.zeros(1)
    biased = make_gin([GinLayer(w, np.array([10.0]))], readout=GinLayer(w, zero))
    plain = make_gin([GinLayer(w, zero)], readout=GinLayer(w, zero))
    bad = lipschitz_check(biased, g1, g2)
    assert bad.lhs == 11.0 and bad.rhs == 1.0
    assert not bad.holds()
    good = lipschitz_check(plain, g1, g2)
    assert good.lhs == 1.0 and good.rhs == 1.0
    assert good.holds()


def test_check_json_fields():
    g, h = load_fixture("path3"), load_fixture("triangle")
    chk = lipschitz_check(random_gin(1, 2, 1, seed=4), g, h)
    obj = chk.to_json()
    assert set(obj) == {"lhs", "rhs", "ratio", "tmd", "holds"}
    assert obj["ratio"] == pytest.approx(obj["lhs"] / obj["rhs"])


# --- empirical constants and correlation ---


def test_empirical_lipschitz_max_ratio():
    assert empirical_lipschitz([1, 2, 3], [1, 1, 1]) == 3.0
    assert empirical_lipschitz([0, 0, 0], [1, 2, 3]) == 0.0


def test_empirical_lipschitz_constant_ratio():
    d = np.array([0.5, 1.5, 4.0])
    assert empirical_lipschitz(0.7 * d, d) == pytest.approx(0.7, rel=1e-12)


def test_empirical_lipschitz_skips_zero_distances():
    assert empirical_lipschitz([5.0, 1.0], [0.0, 1.0]) == 1.0


def test_empirical_lipschitz_errors():
    with pytest.raises(ValueError):
        empirical_lipschitz([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        empirical_lipschitz([], [])
    with pytest.raises(ValueError):
        empirical_lipschitz([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        empirical_lipschitz([-1.0], [1.0])


def test_pearson_frozen_values():
    assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)
    assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)
    assert pearson_r([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, rel=1e-15)


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson_r([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson_r([1], [1])
    with pytest.raises(ValueError):
        pearson_r([2, 2, 2], [1, 2, 3])


# --- serialization ---


def test_model_json_roundtrip():
    m = random_gin(2, 3, 2, seed=21, aggregation="mean", epsilon=0.5, out_dim=2)
    back = model_from_json(model_to_json(m))
    assert back.epsilon == m.epsilon
    assert back.aggregation == m.aggregation
    assert back.lipschitz == m.lipschitz
    for la, lb in zip(m.layers + (m.readout,), back.layers + (back.readout,)):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def test_model_json_roundtrip_neighbor_weight():
    m = random_gin(2, 2, 2, seed=22, neighbor_maps=True)
    obj = model_to_json(m)
    assert "neighbor_weight" in obj["layers"][0]
    back = model_from_json(obj)
    assert np.array_equal(back.layers[0].neighbor_weight,
                          m.layers[0].neighbor_weight)


def test_model_file_roundtrip(tmp_path):
    m = random_gin(3, 4, 2, seed=23)
    path = tmp_path / "model.json"
    save_model_json(path, m)
    back = load_model_json(path)
    assert np.array_equal(back.layers[1].weight, m.layers[1].weight)
    same_graph = random_graph(5, 0.6, 3, seed=1)
    assert np.array_equal(gin_forward(back, same_graph),
                          gin_forward(m, same_graph))


def test_model_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        model_from_json({"layers": [{"weight": [[1.0]]}]})
    with pytest.raises(ValueError):
        model_from_json({})
    obj = model_to_json(random_gin(1, 2, 1, seed=0))
    with pytest.raises(ConfigError, match="aggregation must be one of"):
        model_from_json({**obj, "aggregation": "max"})
    obj["layers"][0]["weight"].pop()
    with pytest.raises(DatasetFormatError, match="bias length 2 does not match weight rows 1"):
        model_from_json(obj)
