"""Dataset-level analyses on top of the pairwise distance.

Pairwise matrices (optionally parallel and deterministic regardless of
worker count), the optimal transport distance between whole datasets under
uniform graph masses, and distribution-shift reports ranking test sets by
that distance. Importing this module loads the engine and SciPy, so a
command that forks workers has them loaded before the fork.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .distance import tmd
from .graphs import graph_key
from .matrix import DistanceMatrix
from .ot import solve_transport

_WORKER = None


def _init_worker(ds_a, ds_b, cfg):
    global _WORKER
    _WORKER = (ds_a, ds_b, cfg)


def _row_task(args):
    i, cols = args
    ds_a, ds_b, cfg = _WORKER
    ga = ds_a.graphs[i]
    return i, cols, [tmd(ga, ds_b.graphs[j], cfg) for j in cols]


def pairwise_tmd(ds_a, ds_b, cfg, threads=1):
    """Distance matrix between two datasets (or within one when ds_b is None).

    The self case computes the upper triangle only and mirrors it, with an
    exactly zero diagonal. Cell values do not depend on `threads`.
    """
    self_mode = ds_b is None or ds_b is ds_a
    if not self_mode and ds_a.feature_dim != ds_b.feature_dim:
        raise ValueError(
            f"feature dimensions differ: {ds_a.feature_dim} vs {ds_b.feature_dim}"
        )
    threads = max(1, int(threads))
    na = len(ds_a)
    nb = na if self_mode else len(ds_b)
    out = np.zeros((na, nb))
    if self_mode:
        tasks = [(i, list(range(i + 1, na))) for i in range(na) if i + 1 < na]
        other = ds_a
    else:
        tasks = [(i, list(range(nb))) for i in range(na)]
        other = ds_b
    if threads == 1 or not tasks:
        _init_worker(ds_a, other, cfg)
        results = [_row_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_init_worker,
            initargs=(ds_a, other, cfg),
        ) as pool:
            results = list(pool.map(_row_task, tasks))
    for i, cols, vals in results:
        for j, v in zip(cols, vals):
            out[i, j] = v
            if self_mode:
                out[j, i] = v
    ids_a = tuple(str(i) for i in range(na))
    ids_b = ids_a if self_mode else tuple(str(j) for j in range(nb))
    return DistanceMatrix(out, ids_a, ids_b, cfg)


def _dataset_key(ds):
    return tuple(graph_key(g) for g in ds.graphs)


def dataset_w1(ds_a, ds_b, cfg, threads=1):
    """Transport distance between datasets under uniform graph masses.

    Ground cost is the pairwise tree mover's distance; each graph carries
    mass 1/len(dataset). Arguments are ordered canonically, so the value is
    bitwise symmetric.
    """
    if len(ds_a) == 0 or len(ds_b) == 0:
        raise ValueError("datasets must be non-empty")
    if _dataset_key(ds_b) < _dataset_key(ds_a):
        ds_a, ds_b = ds_b, ds_a
    dm = pairwise_tmd(ds_a, ds_b, cfg, threads=threads)
    a = np.full(len(ds_a), 1.0 / len(ds_a))
    b = np.full(len(ds_b), 1.0 / len(ds_b))
    return solve_transport(dm.values, a, b).cost


def shift_report(train, tests, cfg, lipschitz_product=None, threads=1):
    """Rank test datasets by their transport distance from the training set.

    When a Lipschitz product K is supplied, each entry also carries the
    generalisation-gap term 2 * K * W1. Entries are sorted by increasing W1.
    """
    entries = []
    for ds in tests:
        w1 = dataset_w1(train, ds, cfg, threads=threads)
        entry = {"test": ds.name, "w1": w1}
        if lipschitz_product is not None:
            entry["risk_gap"] = 2.0 * float(lipschitz_product) * w1
        entries.append(entry)
    entries.sort(key=lambda e: (e["w1"], e["test"]))
    report = {"train": train.name, "config": cfg.to_json(), "entries": entries}
    if lipschitz_product is not None:
        report["lipschitz_product"] = float(lipschitz_product)
    return report
