"""Distance-matrix consumers: k-NN, k-medoids, partition quality scores."""

import itertools
import re

import numpy as np
import pytest

from treemover import (
    DistanceMatrix,
    completeness_score,
    empirical_lipschitz,
    gram_matrix,
    kmedoids,
    knn_classify,
    loo_knn_accuracy,
    majority_rate,
    nmi,
    pearson_r,
)


def block_matrix(sizes, within=0.1, cross=10.0):
    """Square matrix with near-zero blocks on the diagonal."""
    n = sum(sizes)
    out = np.full((n, n), cross)
    start = 0
    for s in sizes:
        out[start:start + s, start:start + s] = within
        start += s
    np.fill_diagonal(out, 0.0)
    return out


def block_labels(sizes):
    return np.repeat(np.arange(len(sizes)), sizes)


# --- knn ---


def test_knn_single_neighbor():
    assert knn_classify([0.5, 0.1, 0.9], [0, 1, 0], k=1) == 1


def test_knn_unanimous_any_k():
    for k in (1, 2, 3):
        assert knn_classify([0.3, 0.2, 0.1], [7, 7, 7], k=k) == 7


def test_knn_majority():
    assert knn_classify([0.1, 0.2, 0.9], [0, 0, 1], k=3) == 0


def test_knn_tie_prefers_smaller_summed_distance():
    # two votes each; label 1's supporters sit closer in total
    d = [0.4, 0.1, 0.3, 0.2]
    labels = [0, 1, 0, 1]
    assert knn_classify(d, labels, k=4) == 1


def test_knn_tie_prefers_smaller_label():
    d = [0.1, 0.2, 0.2, 0.1]
    labels = [3, 3, 1, 1]
    assert knn_classify(d, labels, k=4) == 1


def test_knn_equal_distance_prefers_smaller_index():
    # both at distance 0.5; stable sort keeps index 0 first
    assert knn_classify([0.5, 0.5], [2, 5], k=1) == 2


def test_knn_self_distance_zero_returns_own_label():
    d = block_matrix((3, 3), within=0.2)
    labels = block_labels((3, 3))
    for i in range(6):
        assert knn_classify(d[i], labels, k=1) == labels[i]


def test_knn_validation():
    with pytest.raises(ValueError):
        knn_classify([0.1], [0, 1], k=1)
    with pytest.raises(ValueError):
        knn_classify([0.1, 0.2], [0, 1], k=0)
    with pytest.raises(ValueError):
        knn_classify([0.1, 0.2], [0, 1], k=3)


def test_loo_accuracy_separated_blocks():
    d = block_matrix((4, 4))
    labels = block_labels((4, 4))
    assert loo_knn_accuracy(d, labels, k=1) == 1.0
    assert loo_knn_accuracy(d, labels, k=3) == 1.0


def test_loo_accuracy_adversarial_labels():
    # alternating labels inside one tight block: every point's neighbours
    # are evenly split, ties resolve by summed distance/label, not chance
    d = block_matrix((4,), within=1.0)
    labels = np.array([0, 1, 0, 1])
    acc = loo_knn_accuracy(d, labels, k=3)
    assert 0.0 <= acc <= 1.0


def test_loo_accuracy_validation():
    with pytest.raises(ValueError):
        loo_knn_accuracy(np.zeros((2, 3)), [0, 1], k=1)
    with pytest.raises(ValueError):
        loo_knn_accuracy(np.zeros((3, 3)), [0, 1], k=1)
    with pytest.raises(ValueError):
        loo_knn_accuracy(np.zeros((3, 3)), [0, 1, 0], k=3)


def test_majority_rate():
    assert majority_rate([0, 0, 1]) == pytest.approx(2 / 3)
    assert majority_rate([5]) == 1.0
    with pytest.raises(ValueError):
        majority_rate([])


# --- kmedoids ---


def test_kmedoids_k_equals_n():
    d = block_matrix((2, 2))
    res = kmedoids(d, k=4, seed=0)
    assert res.medoids == (0, 1, 2, 3)
    assert res.objective == 0.0
    assert np.array_equal(res.assignments, np.arange(4))


def test_kmedoids_k_one_finds_global_medoid():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, (7, 2))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    want = int(np.argmin(d.sum(axis=0)))
    for seed in range(5):
        res = kmedoids(d, k=1, seed=seed)
        assert res.medoids == (want,)
        assert res.objective == pytest.approx(d[:, want].sum(), rel=1e-12)


def test_kmedoids_recovers_separated_blocks():
    sizes = (4, 5)
    d = block_matrix(sizes)
    labels = block_labels(sizes)
    # brute-force optimum over medoid pairs for reference
    best = min(
        (d[:, list(pair)].min(axis=1).sum(), pair)
        for pair in itertools.combinations(range(sum(sizes)), 2)
    )
    for seed in (0, 1, 2, 3):
        res = kmedoids(d, k=2, seed=seed)
        assert res.objective == pytest.approx(best[0], rel=1e-12)
        # clusters coincide with the blocks
        assert nmi(labels, res.assignments) == 1.0


def test_kmedoids_deterministic_per_seed():
    d = block_matrix((3, 3, 3), within=0.5, cross=4.0)
    a = kmedoids(d, k=3, seed=11)
    b = kmedoids(d, k=3, seed=11)
    assert a.medoids == b.medoids
    assert np.array_equal(a.assignments, b.assignments)
    assert a.objective == b.objective
    assert a.n_iter == b.n_iter


def test_kmedoids_objective_consistent():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 1, (10, 3))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    res = kmedoids(d, k=3, seed=2)
    meds = np.asarray(res.medoids)
    want = d[:, meds].min(axis=1).sum()
    assert res.objective == pytest.approx(want, rel=1e-12)
    assert set(res.assignments) <= set(res.medoids)
    # every point is assigned to its nearest medoid
    for i in range(10):
        nearest = meds[np.argmin(d[i, meds])]
        assert d[i, res.assignments[i]] == pytest.approx(d[i, nearest])


def test_kmedoids_accepts_distance_matrix_object():
    vals = block_matrix((2, 2))
    dm = DistanceMatrix(vals, "abcd", "abcd")
    res = kmedoids(dm, k=2, seed=0)
    assert res.objective == pytest.approx(kmedoids(vals, k=2, seed=0).objective)


def test_kmedoids_validation():
    d = block_matrix((2, 2))
    with pytest.raises(ValueError):
        kmedoids(d, k=0, seed=0)
    with pytest.raises(ValueError):
        kmedoids(d, k=5, seed=0)
    with pytest.raises(ValueError):
        kmedoids(np.zeros((2, 3)), k=1, seed=0)


@pytest.mark.parametrize("k", [2.5, True, 1.5])
def test_k_follows_the_integer_rule(k):
    # k is an integral value and not a boolean, as every integer the package reads
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    labels = [0, 1, 0]
    for call, top in ((lambda: knn_classify(d[0], labels, k), 3),
                      (lambda: loo_knn_accuracy(d, labels, k), 2),
                      (lambda: kmedoids(d, k, 0), 3)):
        with pytest.raises(ValueError, match=rf"^k must lie in 1\.\.{top}, got {k}$"):
            call()


@pytest.mark.parametrize("k", [2.0, np.int64(2), np.float32(2)],
                         ids=["float", "int64", "float32"])
def test_k_of_integral_value_counts_as_that_integer(k):
    d = block_matrix((3, 3), within=0.2)
    labels = block_labels((3, 3))
    assert knn_classify(d[0], labels, k) == knn_classify(d[0], labels, 2)
    assert loo_knn_accuracy(d, labels, k) == loo_knn_accuracy(d, labels, 2)
    assert kmedoids(d, k, 0).medoids == kmedoids(d, 2, 0).medoids


@pytest.mark.parametrize("values", [np.zeros(3), np.zeros((2, 3)), np.zeros((1, 1, 1))],
                         ids=["1-D", "rectangular", "3-D"])
def test_every_square_matrix_reader_names_the_shape(values):
    message = rf"^need a square matrix, got shape {re.escape(str(values.shape))}$"
    for call in (lambda: loo_knn_accuracy(values, [0] * len(values), 1),
                 lambda: kmedoids(values, 1, 0),
                 lambda: gram_matrix(values, 1.0)):
        with pytest.raises(ValueError, match=message):
            call()


def test_every_paired_sample_names_a_length_mismatch():
    for stat in (nmi, completeness_score, empirical_lipschitz, pearson_r):
        with pytest.raises(ValueError, match="^length mismatch: 2 vs 3$"):
            stat([1, 2], [1, 2, 3])
    for score in (nmi, completeness_score):
        with pytest.raises(ValueError, match="^labels must be non-empty$"):
            score([], [])


# --- partition scores ---


def test_nmi_identical_partitions():
    assert nmi([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == pytest.approx(1.0)


def test_nmi_relabelling_invariant():
    a = [0, 0, 1, 1, 2, 2]
    b = [5, 5, 9, 9, 1, 1]
    assert nmi(a, b) == pytest.approx(1.0)
    # string ids work too
    assert nmi(["x", "x", "y"], [1, 1, 0]) == pytest.approx(1.0)


def test_nmi_both_trivial_partitions():
    assert nmi([0, 0, 0], [1, 1, 1]) == 1.0


def test_nmi_independent_partitions_near_zero():
    rng = np.random.default_rng(17)
    a = rng.integers(0, 4, size=10000)
    b = rng.integers(0, 4, size=10000)
    assert nmi(a, b) < 0.02


def test_nmi_bounds_on_partial_overlap():
    val = nmi([0, 0, 1, 1], [0, 1, 1, 1])
    assert 0.0 < val < 1.0


def test_nmi_validation():
    with pytest.raises(ValueError):
        nmi([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        nmi([], [])


def test_completeness_single_cluster_prediction():
    assert completeness_score([0, 1, 2, 0], [4, 4, 4, 4]) == 1.0


def test_completeness_exact_prediction():
    assert completeness_score([0, 1, 0, 1], [0, 1, 0, 1]) == pytest.approx(1.0)


def test_completeness_even_split_is_zero():
    # each true class spreads uniformly over both predicted clusters
    assert completeness_score(
        ["a", "a", "b", "b"], ["x", "y", "x", "y"]
    ) == pytest.approx(0.0, abs=1e-15)


def test_completeness_relabelling_invariant():
    a = [0, 0, 1, 1]
    assert completeness_score(a, [9, 9, 4, 4]) == pytest.approx(1.0)


def test_completeness_validation():
    with pytest.raises(ValueError):
        completeness_score([0], [0, 1])
    with pytest.raises(ValueError):
        completeness_score([], [])
