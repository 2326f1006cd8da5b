"""Command-line interface.

Subcommands: dist, gram, knn, cluster, shift, lipschitz, perturb, wl.
Distance matrices go to CSV (with a `# config:` provenance header), reports
to JSON. Exit codes: 0 success, 1 argument parsing, 2 I/O or malformed
input files, 3 invalid configuration. `TMD_THREADS` sets the default worker
count.

The `tmd` process runs BLAS single-threaded: `entrypoint` sets
`OPENBLAS_NUM_THREADS=1` unless the user set it. Its child transports are
matrices of at most a node's degree, where BLAS threads never help, and
each idle OpenBLAS pool spins on a core after it loads; `--threads` is the
process's parallelism. Only the entry point sets it, so importing this
module or calling `main` leaves the environment alone. SciPy's OpenBLAS
loads after it, with the handler's imports.

Each handler imports the modules it needs beyond the light ones imported
here, so gram, knn, cluster and wl never load SciPy. dist and shift import
`analysis`, which loads the engine and SciPy before any worker is forked,
so the workers inherit them instead of importing them again.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np

from .graphs import (DatasetFormatError, GraphDataset, load_dataset_json,
                     load_graph_json, standardize_datasets, write_json)
from .learn import kmedoids, loo_knn_accuracy, majority_rate, nmi, completeness_score
from .matrix import DistanceMatrix, gram_matrix, load_distance_csv, save_distance_csv
from .schedule import ConfigError, TmdConfig, constant_weights, pascal_weights
from .tudataset import parse_tudataset
from .wl import wl_first_difference


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


def _default_threads():
    raw = os.environ.get("TMD_THREADS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        raise ConfigError(f"TMD_THREADS must be an integer, got {raw!r}")


def load_dataset(path, name=None):
    """A dataset directory: benchmark text layout when `name` is given,
    otherwise a dataset JSON file or a directory of graph JSON files."""
    if name:
        return parse_tudataset(path, name)
    if os.path.isfile(path):
        return load_dataset_json(path)
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.json")))
        if not files:
            raise FileNotFoundError(f"no .json graphs in {path}")
        graphs = tuple(load_graph_json(f) for f in files)
        return GraphDataset(graphs, None, os.path.basename(os.path.normpath(path)))
    raise FileNotFoundError(f"no such dataset path: {path}")


def _config_from_args(args):
    return TmdConfig(args.depth, parse_weights(args.weights), args.mode)


def _add_config_flags(p):
    p.add_argument("--depth", type=int, required=True,
                   help="tree depth L of the distance")
    p.add_argument("--weights", required=True,
                   help="'constant:C' or 'pascal:DEPTH[,EPSILON]'")
    p.add_argument("--mode", choices=("sum", "mean"), default="sum")


def cmd_dist(args):
    from .analysis import pairwise_tmd

    ds_a = load_dataset(args.data, args.name)
    ds_b = load_dataset(args.data_b, args.name_b) if args.data_b else None
    if args.standardize:
        both = standardize_datasets([ds_a] + ([ds_b] if ds_b else []))
        ds_a = both[0]
        ds_b = both[1] if ds_b else None
    cfg = _config_from_args(args)
    dm = pairwise_tmd(ds_a, ds_b, cfg, threads=args.threads)
    save_distance_csv(args.out, dm)
    print(f"wrote {args.out}")
    return 0


def cmd_gram(args):
    dm = load_distance_csv(args.matrix)
    k = gram_matrix(dm, args.gamma)
    out = DistanceMatrix(k, dm.row_ids, dm.col_ids, dm.config)
    save_distance_csv(args.out, out, extra={"gamma": args.gamma})
    print(f"wrote {args.out}")
    return 0


def _read_labels(path, rows):
    """Integer labels, one per non-blank line, for a matrix of `rows` rows."""
    with open(path) as fh:
        toks = [ln.strip() for ln in fh if ln.strip()]
    try:
        labels = [int(t) for t in toks]
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: labels must be integers: {exc}") from exc
    if len(labels) != rows:
        raise ConfigError(f"{len(labels)} labels for a {rows}-row matrix")
    return labels


def cmd_knn(args):
    dm = load_distance_csv(args.matrix)
    labels = _read_labels(args.labels, dm.values.shape[0])
    acc = loo_knn_accuracy(dm.values, labels, args.k)
    report = {
        "matrix": args.matrix,
        "config": dm.config.to_json() if dm.config else None,
        "k": args.k,
        "loo_accuracy": acc,
        "majority_rate": float(majority_rate(labels)),
        "count": len(labels),
    }
    write_json(args.out, report)
    print(f"wrote {args.out}")
    return 0


def cmd_cluster(args):
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
    write_json(args.out, report)
    if args.assignments:
        with open(args.assignments, "w") as fh:
            fh.write("graph_id,cluster_id\n")
            for i, c in enumerate(assignments):
                fh.write(f"{i},{c}\n")
    print(f"wrote {args.out}")
    return 0


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
    report = shift_report(train, tests, cfg,
                          lipschitz_product=args.lipschitz_product,
                          threads=args.threads)
    write_json(args.out, report)
    print(f"wrote {args.out}")
    return 0


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
        n = len(ds)
        if n < 2:
            raise ConfigError("need at least two graphs to sample pairs")
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng = np.random.default_rng(args.seed)
        take = min(args.pairs, len(all_pairs))
        chosen = rng.choice(len(all_pairs), size=take, replace=False)
        pairs = [
            (ds[i], ds[j], str(i), str(j))
            for i, j in (all_pairs[int(c)] for c in sorted(chosen))
        ]
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
    positive = [d > 1e-12 for d in dists]
    report["empirical_lipschitz"] = (
        empirical_lipschitz(lhs, dists) if any(positive) else None
    )
    try:
        report["pearson_r"] = pearson_r(lhs, dists)
    except ValueError:
        report["pearson_r"] = None
    write_json(args.out, report)
    print(f"wrote {args.out}")
    return 0


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
    for v in (args.drop_node, args.perturb_node):
        if v is not None and not (0 <= v < g.node_count):
            raise ConfigError(f"node {v} out of range for {g.node_count} nodes")
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
    report = {"graph": args.graph, "config": cfg.to_json(), **detail,
              **rep.to_json()}
    write_json(args.out, report)
    print(f"wrote {args.out}")
    return 0


def cmd_wl(args):
    ga = load_graph_json(args.graph_a)
    gb = load_graph_json(args.graph_b)
    first = wl_first_difference(ga, gb, args.iterations)
    report = {
        "graph_a": args.graph_a,
        "graph_b": args.graph_b,
        "iterations": args.iterations,
        "distinguishable": first is not None,
        "iteration": first,
    }
    write_json(args.out, report)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = _Parser(prog="tmd",
                     description="tree mover's distance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="pairwise distance matrix to CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--name", default=None, help="benchmark dataset name")
    p.add_argument("--data-b", default=None)
    p.add_argument("--name-b", default=None)
    _add_config_flags(p)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("gram", help="Gaussian kernel matrix from a distance CSV")
    p.add_argument("--matrix", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("knn", help="leave-one-out k-NN accuracy report")
    p.add_argument("--matrix", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("cluster", help="k-medoids clustering report")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", default=None)
    p.add_argument("--assignments", default=None,
                   help="also write graph_id,cluster_id CSV here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("shift", help="rank test sets by transport distance from train")
    p.add_argument("--train", required=True)
    p.add_argument("--train-name", default=None)
    p.add_argument("--test", action="append", required=True)
    p.add_argument("--test-name", action="append", default=None)
    _add_config_flags(p)
    p.add_argument("--lipschitz-product", type=float, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("lipschitz", help="displacement-vs-bound check for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--graph-a", default=None)
    p.add_argument("--graph-b", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--name", default=None)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lipschitz)

    p = sub.add_parser("perturb", help="closed-form edit bound vs exact distance")
    p.add_argument("--graph", required=True)
    p.add_argument("--drop-node", type=int, default=None)
    p.add_argument("--drop-edge", type=int, nargs=2, default=None,
                   metavar=("U", "V"))
    p.add_argument("--perturb-node", type=int, default=None)
    p.add_argument("--feature", default=None, help="JSON array replacing the feature")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("wl", help="color-refinement distinguishability report")
    p.add_argument("--graph-a", required=True)
    p.add_argument("--graph-b", required=True)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_wl)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", None) is None and hasattr(args, "threads"):
            args.threads = _default_threads()
        return args.func(args)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DatasetFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
