"""Dataset-level analyses on top of the pairwise distance.

Pairwise matrices (optionally parallel and deterministic regardless of
worker count), the optimal transport distance between whole datasets under
uniform graph masses, and distribution-shift reports ranking test sets by
that distance. `pairwise_tmd`, `dataset_w1` and `shift_report` prepare each
graph once per call, in the parent, and run one matrix over those records,
each row in batches (`distance.pair_distances`); a shift report computes
one train x (all test sets) matrix, so it forks at most once. A dataset
pair's transport is oriented by size, then by its graphs' record keys, so
W1 is bitwise symmetric and invariant to node relabelling.

Every matrix, at any thread count, runs through one share runner
(`_share_rows`). A matrix of more than one process splits its rows into a
fixed set of shares, greedy largest-first on the child-cost entries each
row gathers (`distance.gathered_entries`), a count and never a timing; a
one-process matrix is a single share. The parent computes share 0 itself,
and each later share runs in a multiprocessing child that sends its rows
back through a pipe, so no process sits idle while the matrix runs.
Importing this module loads the engine and the two compiled SciPy modules
it calls, so a command that forks has them loaded before the fork. It
loads no multiprocessing: the share runner imports it only when it forks.
The dataset LP imports `ot` and loads SciPy's compiled HiGHS module when
it first runs in the parent (see `ot`); no SciPy package is loaded.
"""

from __future__ import annotations

import numpy as np

from .distance import gathered_entries, pair_distances, prepare_graph, warn_zero_features
from .graphs import check_feature_dims
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


def _share_rows(prep_a, prep_b, cfg, shares):
    """`_rows` of each share: share 0 in this process, each later share in a
    child process that sends its rows back through a pipe, so one share
    forks nothing and imports no multiprocessing. Every child is reaped
    before this returns or raises, and terminated first if this raises; one
    that exits without sending its rows raises ChildProcessError, an
    OSError, so `tmd` exits 2 naming it."""
    if len(shares) > 1:
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


def _matrix(prep_a, prep_b, cfg, threads):
    """The distances of PreparedGraphs prep_a against prep_b, or within
    prep_a (upper triangle mirrored, zero diagonal) when prep_b is prep_a:
    see `pairwise_tmd`. Every matrix runs through `_share_rows`, in one
    share per process."""
    self_mode = prep_b is prep_a
    na, nb = len(prep_a), len(prep_b)
    out = np.zeros((na, nb))
    if self_mode:
        tasks = [(i, list(range(i + 1, na))) for i in range(na) if i + 1 < na]
    else:
        tasks = [(i, list(range(nb))) for i in range(na)]
    prepared = prep_a if self_mode else prep_a + prep_b
    warn_zero_features(sum(p.zero_features for p in prepared), len(prepared))
    workers = min(int(threads), len(tasks))
    shares = [tasks]
    if workers > 1:
        weights = [sum(gathered_entries(prep_a[i], prep_b[j]) for j in cols)
                   for i, cols in tasks]
        shares = _shares(tasks, weights, workers)
    outcomes = _share_rows(prep_a, prep_b, cfg, shares)
    errors = [error for _, error in outcomes if error is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    for share, (values, _) in zip(shares, outcomes):
        for (i, cols), vals in zip(share, values):
            out[i, cols] = vals
            if self_mode:
                out[cols, i] = vals
    return out


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
    prep_a = [prepare_graph(g) for g in ds_a.graphs]
    prep_b = prep_a if self_mode else [prepare_graph(g) for g in ds_b.graphs]
    ids_a = tuple(str(i) for i in range(len(prep_a)))
    ids_b = ids_a if self_mode else tuple(str(j) for j in range(len(prep_b)))
    return DistanceMatrix(_matrix(prep_a, prep_b, cfg, threads), ids_a, ids_b, cfg)


def _dataset_key(prep):
    """The orientation key of a dataset's PreparedGraphs: its size, then
    their keys."""
    return len(prep), tuple(p.key for p in prep)


def _canonical(prep_a, prep_b):
    """Two datasets' PreparedGraphs in canonical order, and whether they
    were swapped."""
    swap = _dataset_key(prep_b) < _dataset_key(prep_a)
    return (prep_b, prep_a, True) if swap else (prep_a, prep_b, False)


def _check_w1_inputs(prep_a, prep_b):
    if not prep_a or not prep_b:
        raise ValueError("datasets must be non-empty")
    a, b, _ = _canonical(prep_a, prep_b)
    check_feature_dims(a[0], b[0])


def _w1(values, prep_a, prep_b):
    """W1 from the prep_a x prep_b block of distances, solved in the
    canonical orientation (a swapped pair solves the transposed block with
    swapped masses), so the value is bitwise symmetric."""
    from .ot import solve_transport

    prep_a, prep_b, swap = _canonical(prep_a, prep_b)
    a = np.full(len(prep_a), 1.0 / len(prep_a))
    b = np.full(len(prep_b), 1.0 / len(prep_b))
    return solve_transport(values.T if swap else values, a, b).cost


def dataset_w1(ds_a, ds_b, cfg, threads=1):
    """Transport distance between datasets under uniform graph masses.

    Ground cost is the pairwise tree mover's distance; each graph carries
    mass 1/len(dataset). The transport is solved in a canonical order of the
    arguments (size, then record keys), so the value is bitwise symmetric
    and invariant to node relabelling.
    """
    prep_a = [prepare_graph(g) for g in ds_a.graphs]
    prep_b = prep_a if ds_b is ds_a else [prepare_graph(g) for g in ds_b.graphs]
    _check_w1_inputs(prep_a, prep_b)
    return _w1(_matrix(prep_a, prep_b, cfg, threads), prep_a, prep_b)


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
    prep_train = [prepare_graph(g) for g in train.graphs]
    prep_tests = [[prepare_graph(g) for g in ds.graphs] for ds in tests]
    for prep in prep_tests:
        _check_w1_inputs(prep_train, prep)
    entries = []
    if tests:
        values = _matrix(prep_train, [p for prep in prep_tests for p in prep], cfg, threads)
        stops = np.cumsum([len(ds) for ds in tests])
        for ds, prep, stop in zip(tests, prep_tests, stops.tolist()):
            w1 = _w1(values[:, stop - len(ds):stop], prep_train, prep)
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
