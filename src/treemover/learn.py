"""Distance-based learning: k-NN classification, k-medoids, partition scores.

Everything consumes a precomputed distance matrix, so these work with any
pseudometric. Tie-breaking is fully specified to keep results deterministic:
nearest neighbours prefer smaller indices at equal distance, label ties
prefer the label with the smaller summed distance and then the smaller
label, and medoid updates prefer smaller indices at equal objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import paired
from .matrix import square_values
from .schedule import integral


def _check_k(k, top):
    """k as an int; ValueError unless it is `integral` and in 1..top."""
    i = integral(k)
    if i is None or not 1 <= i <= top:
        raise ValueError(f"k must lie in 1..{top}, got {k}")
    return i


def knn_classify(distances, labels, k):
    """Label of the majority among the k nearest training points.

    distances is a vector of distances from one query to every training
    point. Ties: equal distances resolve to the smaller index; label ties
    resolve to the smaller summed distance, then the smaller label.
    """
    d = np.asarray(distances, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels)
    if d.shape[0] != labels.shape[0]:
        raise ValueError(f"{d.shape[0]} distances vs {labels.shape[0]} labels")
    k = _check_k(k, d.shape[0])
    order = np.argsort(d, kind="stable")[:k]
    votes = {}
    for idx in order:
        y = int(labels[idx])
        cnt, tot = votes.get(y, (0, 0.0))
        votes[y] = (cnt + 1, tot + float(d[idx]))
    best = min(votes.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))
    return best[0]


def loo_knn_accuracy(d, labels, k):
    """Leave-one-out accuracy of k-NN on a square self-distance matrix."""
    values = square_values(d)
    n = values.shape[0]
    labels = np.asarray(labels)
    if labels.shape[0] != n:
        raise ValueError(f"{n} rows vs {labels.shape[0]} labels")
    k = _check_k(k, n - 1)
    hits = 0
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        pred = knn_classify(values[i, rest], labels[rest], k)
        hits += int(pred == int(labels[i]))
    return hits / n


def majority_rate(labels):
    """Frequency of the most common label; the accuracy floor to beat."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("labels must be non-empty")
    _, counts = np.unique(labels, return_counts=True)
    return counts.max() / labels.size


@dataclass(frozen=True)
class KMedoidsResult:
    assignments: np.ndarray
    medoids: tuple
    objective: float
    n_iter: int


def kmedoids(d, k, seed, max_iter=100):
    """Partition around medoids on a square distance matrix.

    Initialisation is farthest-first from a seeded uniform draw; updates
    alternate assignment and per-cluster medoid refresh until the medoid set
    is stable. The objective (summed distance to assigned medoids) never
    increases across iterations.
    """
    values = square_values(d)
    n = values.shape[0]
    k = _check_k(k, n)
    rng = np.random.default_rng(seed)
    medoids = [int(rng.integers(n))]
    while len(medoids) < k:
        dist_to_set = values[:, medoids].min(axis=1)
        dist_to_set[medoids] = -1.0
        medoids.append(int(np.argmax(dist_to_set)))
    medoids = sorted(medoids)

    def assign(meds):
        cols = values[:, meds]
        idx = np.argmin(cols, axis=1)
        return np.asarray(meds)[idx], cols[np.arange(n), idx].sum()

    assignment, objective = assign(medoids)
    for it in range(1, max_iter + 1):
        new_medoids = []
        for m in medoids:
            members = np.flatnonzero(assignment == m)
            if members.size == 0:
                # duplicate points can empty a cluster; keep its medoid
                new_medoids.append(m)
                continue
            sub = values[np.ix_(members, members)]
            new_medoids.append(int(members[np.argmin(sub.sum(axis=0))]))
        new_medoids = sorted(new_medoids)
        new_assignment, new_objective = assign(new_medoids)
        if new_objective > objective + 1e-12 * max(1.0, objective):
            break
        converged = new_medoids == medoids
        assignment, objective, medoids = new_assignment, new_objective, new_medoids
        if converged:
            return KMedoidsResult(assignment, tuple(medoids), float(objective), it)
    return KMedoidsResult(assignment, tuple(medoids), float(objective), max_iter)


def _entropy(counts, total):
    p = counts / total
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _contingency(labels_true, labels_pred):
    """The size of two labelings, equal (`paired`) and non-empty, and their
    contingency table."""
    a, b = paired(labels_true, labels_pred)
    if a.size == 0:
        raise ValueError("labels must be non-empty")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    for i, j in zip(ai, bi):
        table[i, j] += 1
    return a.size, table


def nmi(labels_true, labels_pred):
    """Mutual information normalised by the mean of the two entropies (nats).

    1.0 when the partitions match up to relabelling; 0.0 when independent.
    Two trivial single-cluster partitions count as identical (1.0).
    """
    n, table = _contingency(labels_true, labels_pred)
    ha = _entropy(table.sum(axis=1), n)
    hb = _entropy(table.sum(axis=0), n)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    flat = table[table > 0] / n
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    outer = np.outer(pa, pb)[table > 0]
    mi = float((flat * np.log(flat / outer)).sum())
    mi = max(mi, 0.0)
    return mi / ((ha + hb) / 2.0)


def completeness_score(labels_true, labels_pred):
    """1 - H(pred | true) / H(pred); 1.0 when each true class maps into one cluster.

    Follows the convention that a constant prediction (H(pred) = 0) is
    trivially complete.
    """
    n, table = _contingency(labels_true, labels_pred)
    hb = _entropy(table.sum(axis=0), n)
    if hb == 0.0:
        return 1.0
    # H(pred | true) accumulated per true class
    h_cond = 0.0
    for row in table:
        tot = row.sum()
        if tot > 0:
            h_cond += (tot / n) * _entropy(row, tot)
    return 1.0 - h_cond / hb
