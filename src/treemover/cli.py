"""Command-line interface.

Subcommands: dist, gram, knn, cluster, shift, lipschitz, perturb, wl.
Each handler returns its result, a report or a distance matrix, and `main`
writes it to --out: matrices as CSV (with a `# config:` provenance header),
reports as JSON. Exit codes: 0 success, 1 argument parsing, 2 I/O or
malformed input files, 3 invalid configuration. Every input kind (graph,
dataset and model JSON, the benchmark text layout, label files and distance
CSVs) names `path` or `path:line` in its errors.

The `tmd` process runs BLAS single-threaded (see `launcher`): the `tmd`
script and `python -m treemover.cli` both set `OPENBLAS_NUM_THREADS=1`,
unless the user set it, before numpy loads. Both end the process through
`launcher.exit_frozen`, which freezes the collector's objects first, so the
interpreter's shutdown does not collect the ~20k objects numpy and the
package leave behind (about 17 ms of each run's exit). Importing this
module or calling `main` leaves the environment and the collector alone.

Each handler imports the modules it needs beyond the light ones imported
here (graphs, matrix, schedule), so a process loads only the modules its
work runs: knn and cluster load `learn`, wl loads `wl`, and a dataset read
from the benchmark text layout (`--name`) loads `tudataset`. gram, knn,
cluster and wl never load SciPy. dist and shift import `analysis`, which
loads the engine and the two compiled SciPy modules it calls, and no SciPy
package, before any worker is forked, so the workers inherit them instead
of loading them again. They import multiprocessing only when they fork,
so at one thread they load none of it. shift loads SciPy's compiled HiGHS
module for its dataset LP, after the workers are done, and no SciPy
package either.
"""

from __future__ import annotations

if __name__ == "__main__":
    # python -m treemover.cli: before numpy loads, as the `tmd` script does
    from .launcher import single_threaded_blas

    single_threaded_blas()

import argparse
import glob
import json
import math
import os
import sys

import numpy as np

from .graphs import (DatasetFormatError, GraphDataset, load_dataset_json,
                     load_graph_json, read_rows, standardize_datasets, with_empty_dims,
                     write_json)
from .matrix import DistanceMatrix, gram_matrix, load_distance_csv, save_distance_csv
from .schedule import ConfigError, TmdConfig, constant_weights, pascal_weights


class _ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseError(message)


def parse_weights(text):
    """`constant:C` or `pascal:DEPTH[,EPSILON]` into a schedule."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ConfigError(f"weights must look like 'constant:0.5' or "
                          f"'pascal:4,1.0', got {text!r}")
    try:
        if kind == "constant":
            return constant_weights(float(rest))
        if kind == "pascal":
            parts = rest.split(",")
            if len(parts) == 1:
                return pascal_weights(int(parts[0]))
            if len(parts) == 2:
                return pascal_weights(int(parts[0]), float(parts[1]))
            raise ConfigError(f"pascal takes 'DEPTH[,EPSILON]', got {rest!r}")
    except ValueError as exc:
        raise ConfigError(f"bad weights {text!r}: {exc}") from exc
    raise ConfigError(f"unknown weight schedule kind {kind!r}")


def load_dataset(path, name=None):
    """A dataset directory: benchmark text layout when `name` is given,
    otherwise a dataset JSON file or a directory of graph JSON files."""
    if name:
        from .tudataset import parse_tudataset

        return parse_tudataset(path, name)
    if os.path.isfile(path):
        return load_dataset_json(path)
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.json")))
        if not files:
            raise FileNotFoundError(f"no .json graphs in {path}")
        graphs = with_empty_dims([load_graph_json(f) for f in files])
        for f, g in zip(files, graphs):
            if g.feature_dim != graphs[0].feature_dim:
                raise DatasetFormatError(f"{f}: feature dimension {g.feature_dim}, "
                                         f"{files[0]} has {graphs[0].feature_dim}")
        return GraphDataset(graphs, None, os.path.basename(os.path.normpath(path)))
    raise FileNotFoundError(f"no such dataset path: {path}")


def _config_from_args(args):
    return TmdConfig(args.depth, parse_weights(args.weights), args.mode)


def cmd_dist(args):
    from .analysis import pairwise_tmd

    ds_a = load_dataset(args.data, args.name)
    ds_b = load_dataset(args.data_b, args.name_b) if args.data_b else None
    if args.standardize:
        both = standardize_datasets([ds_a] + ([ds_b] if ds_b else []))
        ds_a = both[0]
        ds_b = both[1] if ds_b else None
    cfg = _config_from_args(args)
    return pairwise_tmd(ds_a, ds_b, cfg, threads=args.threads), None


def cmd_gram(args):
    dm = load_distance_csv(args.matrix)
    k = gram_matrix(dm, args.gamma)
    return DistanceMatrix(k, dm.row_ids, dm.col_ids, dm.config), {"gamma": args.gamma}


def _read_labels(path, rows):
    """Integer labels, one per non-blank line, for a matrix of `rows` rows."""
    labels = [y for _, (y,) in read_rows(path, int, width=1)]
    if len(labels) != rows:
        raise ConfigError(f"{len(labels)} labels for a {rows}-row matrix")
    return labels


def cmd_knn(args):
    from .learn import loo_knn_accuracy, majority_rate

    dm = load_distance_csv(args.matrix)
    labels = _read_labels(args.labels, dm.values.shape[0])
    acc = loo_knn_accuracy(dm.values, labels, args.k)
    return {
        "matrix": args.matrix,
        "config": dm.config.to_json() if dm.config else None,
        "k": args.k,
        "loo_accuracy": acc,
        "majority_rate": float(majority_rate(labels)),
        "count": len(labels),
    }


def cmd_cluster(args):
    from .learn import completeness_score, kmedoids, nmi

    dm = load_distance_csv(args.matrix)
    result = kmedoids(dm.values, args.k, args.seed)
    medoids = list(result.medoids)
    cluster_of = {m: c for c, m in enumerate(medoids)}
    assignments = [cluster_of[int(m)] for m in result.assignments]
    report = {
        "matrix": args.matrix,
        "config": dm.config.to_json() if dm.config else None,
        "k": args.k,
        "seed": args.seed,
        "medoids": medoids,
        "objective": result.objective,
        "iterations": result.n_iter,
    }
    if args.labels:
        labels = _read_labels(args.labels, dm.values.shape[0])
        report["nmi"] = nmi(labels, assignments)
        report["completeness"] = completeness_score(labels, assignments)
    if args.assignments:
        with open(args.assignments, "w") as fh:
            fh.write("graph_id,cluster_id\n")
            for i, c in enumerate(assignments):
                fh.write(f"{i},{c}\n")
    return report


def cmd_shift(args):
    from .analysis import shift_report

    train = load_dataset(args.train, args.train_name)
    test_names = args.test_name or [None] * len(args.test)
    if len(test_names) != len(args.test):
        raise ConfigError(
            f"{len(args.test)} --test dirs but {len(test_names)} --test-name values"
        )
    tests = [load_dataset(p, n) for p, n in zip(args.test, test_names)]
    if args.standardize:
        all_ds = standardize_datasets([train] + tests)
        train, tests = all_ds[0], all_ds[1:]
    cfg = _config_from_args(args)
    return shift_report(train, tests, cfg, lipschitz_product=args.lipschitz_product,
                        threads=args.threads)


def _sample_pairs(n, count, seed):
    """min(count, n(n-1)/2) distinct pairs (i, j), i < j < n, drawn with
    `seed`, in lexicographic order. Each drawn index into the lexicographic
    list of all pairs is decoded in closed form, so the list is never built.
    """
    total = n * (n - 1) // 2
    chosen = np.random.default_rng(seed).choice(total, size=min(count, total), replace=False)
    pairs = []
    for k in sorted(chosen.tolist()):
        # rows i > n - 2 - t hold the last t(t+1)/2 pairs
        t = (math.isqrt(8 * (total - 1 - k) + 1) - 1) // 2
        i = n - 2 - t
        pairs.append((i, k - i * (2 * n - i - 1) // 2 + i + 1))
    return pairs


def cmd_lipschitz(args):
    from .gnn import (empirical_lipschitz, lipschitz_check, load_model_json,
                      matching_config, pearson_r)

    if args.pairs < 1:
        raise ConfigError(f"--pairs must be >= 1, got {args.pairs}")
    model = load_model_json(args.model)
    cfg = matching_config(model)
    entries = []
    if args.graph_a or args.graph_b:
        if not (args.graph_a and args.graph_b):
            raise ConfigError("--graph-a and --graph-b go together")
        pairs = [(load_graph_json(args.graph_a), load_graph_json(args.graph_b),
                  args.graph_a, args.graph_b)]
    else:
        if not args.data:
            raise ConfigError("need --graph-a/--graph-b or --data")
        ds = load_dataset(args.data, args.name)
        if len(ds) < 2:
            raise ConfigError("need at least two graphs to sample pairs")
        pairs = [(ds[i], ds[j], str(i), str(j))
                 for i, j in _sample_pairs(len(ds), args.pairs, args.seed)]
    for ga, gb, ia, ib in pairs:
        chk = lipschitz_check(model, ga, gb, cfg)
        entry = {"a": ia, "b": ib}
        entry.update(chk.to_json())
        entries.append(entry)
    lhs = [e["lhs"] for e in entries]
    dists = [e["tmd"] for e in entries]
    report = {
        "model": args.model,
        "config": cfg.to_json(),
        "lipschitz_product": model.lipschitz_product(),
        "pairs": len(entries),
        "entries": entries,
        "holds": all(e["holds"] for e in entries),
    }
    for key, stat in (("empirical_lipschitz", empirical_lipschitz), ("pearson_r", pearson_r)):
        try:
            report[key] = stat(lhs, dists)
        except ValueError:
            report[key] = None
    return report


def cmd_perturb(args):
    from .bounds import edge_drop_bound, node_drop_bound, node_perturbation_bound

    g = load_graph_json(args.graph)
    cfg = _config_from_args(args)
    picked = [x is not None for x in
              (args.drop_node, args.drop_edge, args.perturb_node)]
    if sum(picked) != 1:
        raise ConfigError(
            "pick exactly one of --drop-node, --drop-edge, --perturb-node"
        )
    if args.drop_node is not None:
        rep = node_drop_bound(g, args.drop_node, cfg)
        detail = {"node": args.drop_node}
    elif args.drop_edge is not None:
        u, v = args.drop_edge
        rep = edge_drop_bound(g, u, v, cfg)
        detail = {"edge": [u, v]}
    else:
        if args.feature is None:
            raise ConfigError("--perturb-node needs --feature")
        try:
            x = json.loads(args.feature)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--feature must be a JSON array: {exc}") from exc
        rep = node_perturbation_bound(g, args.perturb_node, x, cfg)
        detail = {"node": args.perturb_node, "feature": x}
    return {"graph": args.graph, "config": cfg.to_json(), **detail, **rep.to_json()}


def cmd_wl(args):
    from .wl import wl_first_difference

    ga = load_graph_json(args.graph_a)
    gb = load_graph_json(args.graph_b)
    first = wl_first_difference(ga, gb, args.iterations)
    return {
        "graph_a": args.graph_a,
        "graph_b": args.graph_b,
        "iterations": args.iterations,
        "distinguishable": first is not None,
        "iteration": first,
    }


def _flags(*specs):
    """A parent parser holding the flags `specs`, (name, keywords) pairs."""
    p = argparse.ArgumentParser(add_help=False)
    for name, kw in specs:
        p.add_argument(name, **kw)
    return p


def build_parser():
    parser = _Parser(prog="tmd",
                     description="tree mover's distance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    out = _flags(("--out", dict(required=True)))
    config = _flags(
        ("--depth", dict(type=int, required=True, help="tree depth L of the distance")),
        ("--weights", dict(required=True, help="'constant:C' or 'pascal:DEPTH[,EPSILON]'")),
        ("--mode", dict(choices=("sum", "mean"), default="sum")))
    pool = _flags(("--threads", dict(type=int, default=1)),
                  ("--standardize", dict(action="store_true")))
    matrix = _flags(("--matrix", dict(required=True)))
    seed = _flags(("--seed", dict(type=int, default=0)))

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[*parents, out])
        p.set_defaults(func=func)
        return p

    p = command("dist", cmd_dist, "pairwise distance matrix to CSV", config, pool)
    p.add_argument("--data", required=True)
    p.add_argument("--name", default=None, help="benchmark dataset name")
    p.add_argument("--data-b", default=None)
    p.add_argument("--name-b", default=None)

    p = command("gram", cmd_gram, "Gaussian kernel matrix from a distance CSV", matrix)
    p.add_argument("--gamma", type=float, required=True)

    p = command("knn", cmd_knn, "leave-one-out k-NN accuracy report", matrix)
    p.add_argument("--labels", required=True)
    p.add_argument("--k", type=int, default=1)

    p = command("cluster", cmd_cluster, "k-medoids clustering report", matrix, seed)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--assignments", default=None,
                   help="also write graph_id,cluster_id CSV here")

    p = command("shift", cmd_shift, "rank test sets by transport distance from train",
                config, pool)
    p.add_argument("--train", required=True)
    p.add_argument("--train-name", default=None)
    p.add_argument("--test", action="append", required=True)
    p.add_argument("--test-name", action="append", default=None)
    p.add_argument("--lipschitz-product", type=float, default=None)

    p = command("lipschitz", cmd_lipschitz, "displacement-vs-bound check for a model",
                seed)
    p.add_argument("--model", required=True)
    p.add_argument("--graph-a", default=None)
    p.add_argument("--graph-b", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--name", default=None)
    p.add_argument("--pairs", type=int, default=50)

    p = command("perturb", cmd_perturb, "closed-form edit bound vs exact distance", config)
    p.add_argument("--graph", required=True)
    p.add_argument("--drop-node", type=int, default=None)
    p.add_argument("--drop-edge", type=int, nargs=2, default=None,
                   metavar=("U", "V"))
    p.add_argument("--perturb-node", type=int, default=None)
    p.add_argument("--feature", default=None, help="JSON array replacing the feature")

    p = command("wl", cmd_wl, "color-refinement distinguishability report")
    p.add_argument("--graph-a", required=True)
    p.add_argument("--graph-b", required=True)
    p.add_argument("--iterations", type=int, default=3)
    return parser


def main(argv=None):
    """Run one subcommand; write its report or matrix to --out.

    Returns the exit code: 0, or 1, 2, 3 with the error on stderr.
    """
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
        if isinstance(result, dict):
            write_json(args.out, result)
        else:
            save_distance_csv(args.out, *result)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:  # IndexError: graphs.check_node
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    # not launcher.entrypoint, which would import this module a second time
    from .launcher import exit_frozen

    exit_frozen(main())
