"""Dataset-level analyses on top of the pairwise distance.

Pairwise matrices (optionally parallel and deterministic regardless of
worker count), the optimal transport distance between whole datasets under
uniform graph masses, and distribution-shift reports ranking test sets by
that distance. A matrix prepares each graph once in the parent and runs
each row in batches (`distance.pair_distances`); a shift report computes
one train x (all test sets) matrix, so it forks at most once.

A parallel matrix splits its rows into a fixed set of shares, greedy
largest-first on the child-cost entries each row gathers
(`distance.gathered_entries`), a count and never a timing. The parent
computes share 0 itself, and each other share runs in a multiprocessing
child that sends its rows back through a pipe, so no process sits idle
while the matrix runs. Importing this module loads the engine and the two
compiled SciPy modules it calls, so a command that forks has them loaded
before the fork. It loads no multiprocessing: `pairwise_tmd` imports it
only when it forks. The dataset LP imports `ot` and loads SciPy's compiled
HiGHS module when it first runs in the parent (see `ot`); no SciPy package
is loaded.
"""

from __future__ import annotations

import numpy as np

from .distance import gathered_entries, pair_distances, prepare_graph, warn_zero_features
from .graphs import GraphDataset, check_feature_dims, graph_key
from .matrix import DistanceMatrix
from .schedule import ConfigError


def _rows(prep_a, prep_b, cfg, share):
    """The distances of each (i, cols) row of `share`, in order, up to the
    first row that overflows: (row values, None), or (row values, (i, the
    row's ConfigError))."""
    values = []
    for i, cols in share:
        try:
            values.append(pair_distances([(prep_a[i], prep_b[j]) for j in cols], cfg))
        except ConfigError as exc:
            return values, (i, exc)
    return values, None


def _send_rows(conn, prep_a, prep_b, cfg, share):
    """A child process's work: `_rows` of its share, sent to the parent."""
    conn.send(_rows(prep_a, prep_b, cfg, share))


def _shares(tasks, weights, count):
    """`tasks` in `count` shares, greedy largest-first on `weights`, each
    share in ascending row order. A task goes to the share with the least
    weight, then the fewest tasks, then the highest index, so no share is
    empty and the heaviest task is not in share 0."""
    shares = [[] for _ in range(count)]
    loads = [0] * count
    for k in sorted(range(len(tasks)), key=lambda k: -weights[k]):
        s = min(range(count), key=lambda s: (loads[s], len(shares[s]), -s))
        shares[s].append(tasks[k])
        loads[s] += weights[k]
    return [sorted(share) for share in shares]


def _forked_rows(prep_a, prep_b, cfg, shares):
    """`_rows` of each share: share 0 in this process, each other share in a
    child process that sends its rows back through a pipe. Every child is
    reaped before this returns or raises, and terminated first if this
    raises; one that exits without sending its rows raises
    ChildProcessError, an OSError, so `tmd` exits 2 naming it."""
    from multiprocessing import Pipe, Process

    children = []
    try:
        for share in shares[1:]:
            recv, send = Pipe(duplex=False)
            proc = Process(target=_send_rows, args=(send, prep_a, prep_b, cfg, share),
                           daemon=True)
            proc.start()
            children.append((proc, recv))
            send.close()
        outcomes = [_rows(prep_a, prep_b, cfg, shares[0])]
        for proc, recv in children:
            try:
                outcomes.append(recv.recv())
            except EOFError:
                proc.join()
                raise ChildProcessError(f"a matrix worker process exited with code "
                                   f"{proc.exitcode} before sending its rows") from None
        return outcomes
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv in children:
            proc.join()
            recv.close()


def pairwise_tmd(ds_a, ds_b, cfg, threads=1):
    """Distance matrix between two datasets (or within one when ds_b is None).

    The self case computes the upper triangle only and mirrors it, with an
    exactly zero diagonal. Cell values do not depend on `threads`: at most
    `threads` processes compute, this one included, and never more than
    the matrix has rows. One RuntimeWarning names how many graphs hold
    all-zero feature vectors. A matrix that overflows raises the
    ConfigError of its first overflowing row, which names the first depth
    at which any pair of that row's first overflowing batch overflows.
    """
    self_mode = ds_b is None or ds_b is ds_a
    if not self_mode:
        check_feature_dims(ds_a, ds_b)
    threads = max(1, int(threads))
    na = len(ds_a)
    nb = na if self_mode else len(ds_b)
    out = np.zeros((na, nb))
    if self_mode:
        tasks = [(i, list(range(i + 1, na))) for i in range(na) if i + 1 < na]
    else:
        tasks = [(i, list(range(nb))) for i in range(na)]
    prep_a = [prepare_graph(g) for g in ds_a.graphs]
    prep_b = prep_a if self_mode else [prepare_graph(g) for g in ds_b.graphs]
    prepared = prep_a if self_mode else prep_a + prep_b
    warn_zero_features(sum(p.zero_features for p in prepared), len(prepared))
    workers = min(threads, len(tasks))
    if workers <= 1:
        shares = [tasks]
        outcomes = [_rows(prep_a, prep_b, cfg, tasks)]
    else:
        weights = [sum(gathered_entries(prep_a[i], prep_b[j]) for j in cols)
                   for i, cols in tasks]
        shares = _shares(tasks, weights, workers)
        outcomes = _forked_rows(prep_a, prep_b, cfg, shares)
    errors = [error for _, error in outcomes if error is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    for share, (values, _) in zip(shares, outcomes):
        for (i, cols), vals in zip(share, values):
            for j, v in zip(cols, vals):
                out[i, j] = v
                if self_mode:
                    out[j, i] = v
    ids_a = tuple(str(i) for i in range(na))
    ids_b = ids_a if self_mode else tuple(str(j) for j in range(nb))
    return DistanceMatrix(out, ids_a, ids_b, cfg)


def _dataset_key(ds):
    return tuple(graph_key(g) for g in ds.graphs)


def _canonical(ds_a, ds_b):
    """The two datasets in canonical order, and whether they were swapped."""
    swap = _dataset_key(ds_b) < _dataset_key(ds_a)
    return (ds_b, ds_a, True) if swap else (ds_a, ds_b, False)


def _check_w1_inputs(ds_a, ds_b):
    if len(ds_a) == 0 or len(ds_b) == 0:
        raise ValueError("datasets must be non-empty")
    check_feature_dims(*_canonical(ds_a, ds_b)[:2])


def _w1(values, ds_a, ds_b):
    """W1 from the ds_a x ds_b block of distances, solved in the canonical
    orientation (a swapped pair solves the transposed block with swapped
    masses), so the value is bitwise symmetric."""
    from .ot import solve_transport

    ds_a, ds_b, swap = _canonical(ds_a, ds_b)
    a = np.full(len(ds_a), 1.0 / len(ds_a))
    b = np.full(len(ds_b), 1.0 / len(ds_b))
    return solve_transport(values.T if swap else values, a, b).cost


def dataset_w1(ds_a, ds_b, cfg, threads=1):
    """Transport distance between datasets under uniform graph masses.

    Ground cost is the pairwise tree mover's distance; each graph carries
    mass 1/len(dataset). The transport is solved in a canonical order of the
    arguments, so the value is bitwise symmetric.
    """
    _check_w1_inputs(ds_a, ds_b)
    return _w1(pairwise_tmd(ds_a, ds_b, cfg, threads=threads).values, ds_a, ds_b)


def shift_report(train, tests, cfg, lipschitz_product=None, threads=1):
    """Rank test datasets by their transport distance from the training set.

    One matrix of the training graphs against the graphs of all test sets
    together, so a report forks at most once; each test set's W1 is bitwise
    `dataset_w1(train, test)`. When a Lipschitz product K is
    supplied, each entry also carries the generalisation-gap term 2 * K * W1.
    Entries are sorted by increasing W1. K must be finite and >= 0.
    """
    if lipschitz_product is not None and not 0 <= lipschitz_product < np.inf:
        raise ConfigError(f"Lipschitz product must be finite and >= 0, got {lipschitz_product}")
    for ds in tests:
        _check_w1_inputs(train, ds)
    entries = []
    if tests:
        pooled = GraphDataset([g for ds in tests for g in ds.graphs])
        values = pairwise_tmd(train, pooled, cfg, threads=threads).values
        stops = np.cumsum([len(ds) for ds in tests])
        for ds, stop in zip(tests, stops.tolist()):
            w1 = _w1(values[:, stop - len(ds):stop], train, ds)
            entry = {"test": ds.name, "w1": w1}
            if lipschitz_product is not None:
                entry["risk_gap"] = 2.0 * float(lipschitz_product) * w1
                if entry["risk_gap"] == np.inf:
                    raise ConfigError(f"risk gap 2 * K * W1 overflows for test set {ds.name!r}")
            entries.append(entry)
    entries.sort(key=lambda e: (e["w1"], e["test"]))
    report = {"train": train.name, "config": cfg.to_json(), "entries": entries}
    if lipschitz_product is not None:
        report["lipschitz_product"] = float(lipschitz_product)
    return report
