"""Dataset-level analyses on top of the pairwise distance.

Pairwise matrices (optionally parallel and deterministic regardless of
worker count), Gaussian gram matrices for kernel methods, the optimal
transport distance between whole datasets under uniform graph masses, and
distribution-shift reports ranking test sets by that distance.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distance import tmd
from .graphs import DatasetFormatError, graph_key
from .ot import solve_transport
from .schedule import TmdConfig

_WORKER = None


def _init_worker(ds_a, ds_b, cfg):
    global _WORKER
    _WORKER = (ds_a, ds_b, cfg)


def _row_task(args):
    i, cols = args
    ds_a, ds_b, cfg = _WORKER
    ga = ds_a.graphs[i]
    return i, cols, [tmd(ga, ds_b.graphs[j], cfg) for j in cols]


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise distances plus the configuration that produced them."""

    values: np.ndarray
    row_ids: tuple
    col_ids: tuple
    config: TmdConfig = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {vals.shape}")
        if vals.shape != (len(self.row_ids), len(self.col_ids)):
            raise ValueError(
                f"shape {vals.shape} does not match ids "
                f"({len(self.row_ids)}, {len(self.col_ids)})"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "row_ids", tuple(str(r) for r in self.row_ids))
        object.__setattr__(self, "col_ids", tuple(str(c) for c in self.col_ids))

    @property
    def square(self):
        return self.row_ids == self.col_ids


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


def gram_matrix(dm, gamma):
    """Gaussian kernel K = exp(-gamma * D) from a square self-distance matrix."""
    if not isinstance(dm, DistanceMatrix):
        dm = DistanceMatrix(np.asarray(dm),
                            [str(i) for i in range(np.asarray(dm).shape[0])],
                            [str(i) for i in range(np.asarray(dm).shape[1])])
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if dm.values.shape[0] != dm.values.shape[1]:
        raise ValueError(f"need a square matrix, got shape {dm.values.shape}")
    return np.exp(-gamma * dm.values)


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


def save_distance_csv(path, dm, extra=None):
    """Write `# config:{json}` then one comma-separated row per matrix row.

    Floats use shortest round-trip formatting, so equal matrices produce
    byte-identical files. `extra` merges additional provenance keys into the
    header object.
    """
    header = {
        "config": dm.config.to_json() if dm.config is not None else None,
        "row_ids": list(dm.row_ids),
        "col_ids": list(dm.col_ids),
    }
    if extra:
        header.update(extra)
    with open(path, "w") as fh:
        fh.write("# config:" + json.dumps(header, separators=(",", ":")) + "\n")
        for row in dm.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_distance_csv(path):
    """Read a matrix in the `save_distance_csv` layout; the header is optional.

    Raises DatasetFormatError naming `path:line` for a token that is not a
    float or a row whose length differs from the first row's.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    header = None
    rows = []
    for lineno, ln in enumerate(lines, start=1):
        if lineno == 1 and ln.startswith("# config:"):
            header = json.loads(ln[len("# config:"):])
            continue
        if not ln.strip():
            continue
        try:
            row = [float(tok) for tok in ln.split(",")]
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: {exc}") from exc
        if rows and len(row) != len(rows[0]):
            raise DatasetFormatError(
                f"{path}:{lineno}: {len(row)} values, the first row has {len(rows[0])}"
            )
        rows.append(row)
    values = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, 0))
    if header is not None:
        cfg = (TmdConfig.from_json(header["config"])
               if header.get("config") else None)
        return DistanceMatrix(values, header["row_ids"], header["col_ids"], cfg)
    n, m = values.shape if values.size else (0, 0)
    return DistanceMatrix(values, [str(i) for i in range(n)],
                          [str(j) for j in range(m)], None)
