"""Attributed graphs and the edit operations used throughout the package.

A graph is a set of nodes 0..n-1, each carrying a real feature vector of a
shared dimension p >= 1, plus a set of undirected edges without self loops.
Graphs are immutable; every edit returns a new graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .schedule import integral


class DatasetFormatError(ValueError):
    """Raised when an on-disk graph or dataset file is malformed."""


def _label(y):
    """y as an int; ValueError unless y is `integral` (a JSON `true` is not)."""
    i = integral(y)
    if i is None:
        raise ValueError(f"labels must be integers, got {y!r}")
    return i


def _normalize_edges(edges, n):
    out = set()
    for e in edges:
        try:
            a, b = e
        except (TypeError, ValueError):
            a = b = None
        u, v = integral(a), integral(b)
        if u is None or v is None:
            raise ValueError(f"edge {e!r} is not a pair of integer node ids")
        if u == v:
            raise ValueError(f"self loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
        out.add((u, v) if u < v else (v, u))
    return tuple(sorted(out))


@dataclass(frozen=True, eq=False)
class AttributedGraph:
    """Immutable node-attributed undirected graph.

    Parameters
    ----------
    features : array-like, shape (n, p)
        One real feature vector per node. p >= 1 even when n == 0.
    edges : iterable of (u, v)
        Undirected edges. Pairs are normalised to u < v and de-duplicated;
        self loops are rejected.
    """

    features: np.ndarray
    edges: tuple = ()
    neighbors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim == 1:
            # column of scalars
            feats = feats.reshape(-1, 1)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if feats.shape[1] < 1:
            raise ValueError("feature dimension must be >= 1")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        n = feats.shape[0]
        edges = _normalize_edges(self.edges, n)
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "neighbors", tuple(tuple(sorted(a)) for a in nbrs))

    @property
    def node_count(self):
        return self.features.shape[0]

    @property
    def feature_dim(self):
        return self.features.shape[1]

    def degree(self, v):
        return len(self.neighbors[v])

    def __eq__(self, other):
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return (
            self.features.shape == other.features.shape
            and np.array_equal(self.features, other.features)
            and self.edges == other.edges
        )

    def __hash__(self):
        # + 0.0 folds -0.0 into 0.0, which __eq__ does not tell apart
        return hash((self.features.shape, (self.features + 0.0).tobytes(), self.edges))


def check_feature_dims(a, b):
    """Graphs or datasets a and b must share one feature dimension."""
    if a.feature_dim != b.feature_dim:
        raise ValueError(
            f"feature dimensions differ: {a.feature_dim} vs {b.feature_dim}"
        )


def group_indices(keys):
    """Positions of a 1-D integer array grouped by value, by one stable sort.

    Returns (value, positions) per distinct value in ascending order; each
    group's positions are ascending.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    starts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    cuts = [0, *starts.tolist(), len(order)] if len(order) else []
    return [(int(ranked[lo]), order[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def neighbor_index(g):
    """Degrees and blank-padded neighbour rows of g's nodes and its blank node n.

    Row v holds v's neighbours in order, then the blank index n up to the
    largest degree; the blank has degree 0 and an all-blank row.
    """
    n = g.node_count
    deg = np.array([*map(len, g.neighbors), 0], dtype=np.intp)
    pad = np.full((n + 1, int(deg.max())), n, dtype=np.intp)
    pad[np.arange(pad.shape[1]) < deg[:, None]] = [v for a in g.neighbors for v in a]
    return deg, pad


def check_node(g, v):
    """IndexError naming v unless v is an `integral` int or numpy integer in 0..n-1."""
    i = integral(v) if isinstance(v, (int, np.integer)) else None
    if i is None or not 0 <= i < g.node_count:
        raise IndexError(f"node {v} out of range for {g.node_count} nodes")


def drop_node(g, v):
    """Remove node v and its incident edges; higher indices shift down by one."""
    check_node(g, v)
    keep = [i for i in range(g.node_count) if i != v]
    remap = {old: new for new, old in enumerate(keep)}
    edges = [(remap[a], remap[b]) for a, b in g.edges if a != v and b != v]
    return AttributedGraph(g.features[keep], edges)


def drop_edge(g, u, v):
    """Remove the undirected edge {u, v}; errors unless u and v are nodes of
    g (`check_node`) and the edge is present."""
    check_node(g, u)
    check_node(g, v)
    key = (u, v) if u < v else (v, u)
    if key not in g.edges:
        raise ValueError(f"edge ({u}, {v}) not present")
    return AttributedGraph(g.features, tuple(e for e in g.edges if e != key))


def number_array(x, name, ndim=None):
    """x, a number or nested list of numbers, as a float64 array of ndim
    dimensions (any if None); else ValueError naming `name`. The one number
    rule of feature vectors and of graph and model files: bools, numeric
    strings (also in an object array, beside integers beyond int64) and
    integers beyond the float range are not numbers; a bool among numbers is."""
    try:
        arr = np.asarray(x)
        strings = arr.dtype.kind == "O" and any(isinstance(e, (str, bytes)) for e in arr.flat)
        if arr.dtype.kind in "iufO" and ndim in (None, arr.ndim) and not strings:
            return np.asarray(arr, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be {'a number' if ndim == 0 else 'numbers'}")


def paired(x, y, dtype=None):
    """x and y as 1-D arrays of `dtype`; ValueError unless they have equal
    lengths: the one rule of paired samples (labelings, displacements
    against distances)."""
    x = np.asarray(x, dtype=dtype).reshape(-1)
    y = np.asarray(y, dtype=dtype).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return x, y


def perturb_feature(g, v, x):
    """Replace node v's feature vector with x, a vector of the graph's
    dimension of numbers (`number_array`)."""
    check_node(g, v)
    try:
        row = number_array(x, "feature")
        ok = row.shape == (g.feature_dim,)
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"feature {x!r} is not a vector of numbers of dimension {g.feature_dim}")
    feats = g.features.copy()
    feats[v] = row
    return AttributedGraph(feats, g.edges)


def permute_nodes(g, perm):
    """Relabel nodes so that old index i becomes perm[i] (`integral`)."""
    new = [integral(p) for p in perm]
    if None in new or sorted(new) != list(range(g.node_count)):
        raise ValueError(f"perm {perm!r} is not a permutation of 0..n-1")
    feats = np.empty_like(g.features)
    feats[new] = g.features
    return AttributedGraph(feats, [(new[a], new[b]) for a, b in g.edges])


def random_graph(n, edge_prob, feature_dim, seed):
    """Erdos-Renyi graph with uniform [-1, 1] features, reproducible per seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must lie in [0, 1]")
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    rng = np.random.default_rng(seed)
    feats = rng.uniform(-1.0, 1.0, size=(n, feature_dim))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v))
    return AttributedGraph(feats, edges)


@dataclass(frozen=True)
class GraphDataset:
    """A sequence of graphs with a shared feature dimension, optional labels."""

    graphs: tuple
    labels: tuple = None
    name: str = ""

    def __post_init__(self):
        graphs = tuple(self.graphs)
        for i, g in enumerate(graphs):
            if g.feature_dim != graphs[0].feature_dim:
                raise ValueError(f"graph {i} has feature dimension {g.feature_dim}, "
                                 f"expected {graphs[0].feature_dim}")
        labels = self.labels
        if labels is not None:
            labels = tuple(_label(y) for y in labels)
            if len(labels) != len(graphs):
                raise ValueError(f"{len(labels)} labels for {len(graphs)} graphs")
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "labels", labels)

    @property
    def feature_dim(self):
        return self.graphs[0].feature_dim if self.graphs else 1

    def __len__(self):
        return len(self.graphs)

    def __getitem__(self, i):
        return self.graphs[i]


def graph_to_json(g):
    return {
        "features": [[float(x) for x in row] for row in g.features],
        "edges": [[int(u), int(v)] for u, v in g.edges],
    }


def graph_from_json(obj, feature_dim=1):
    """Build a graph from the JSON object form; feature_dim applies when empty."""
    if not isinstance(obj, dict) or "features" not in obj or "edges" not in obj:
        raise DatasetFormatError("graph JSON must have 'features' and 'edges' keys")
    feats = obj["features"]
    try:
        arr = np.zeros((0, feature_dim)) if len(feats) == 0 else number_array(feats, "features")
        return AttributedGraph(arr, obj["edges"])
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad graph JSON: {exc}") from exc


def with_empty_dims(graphs):
    """graphs as a tuple, each empty graph given the feature dimension of the
    first non-empty one: an empty graph's JSON holds no feature dimension."""
    dim = next((g.feature_dim for g in graphs if g.node_count), 1)
    return tuple(g if g.node_count else AttributedGraph(np.zeros((0, dim))) for g in graphs)


def load_json(path, parse):
    """parse(value) for the JSON value in the file at path.

    A file that does not hold JSON, or whose value parse rejects with
    DatasetFormatError, raises DatasetFormatError naming path.
    """
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse(obj)
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


_EXPECTED = {int: "an integer", float: "a finite number"}


def _parses(kind, token):
    try:
        value = kind(token)
    except ValueError:
        return False
    return kind is int or math.isfinite(value)


def read_rows(path, kind, width=None, count=None, skip=0):
    """Yield (line number, row) for each non-blank line of the comma-separated
    text file at path after its first `skip` lines; row holds the line's
    tokens read as `kind`, int or float (finite).

    Blank lines count toward line numbers. Raises DatasetFormatError naming
    path:line for a token that is not of kind or a row whose length is not
    `width` (by default the first row's), and naming path when `count`, a
    pair (n, noun), is given and the file holds other than n rows.
    """
    rows = 0
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace() or lineno <= skip:
                continue
            tokens = line.split(",")
            try:
                row = [kind(t) for t in tokens]
                if kind is float and not all(map(math.isfinite, row)):
                    raise ValueError
            except ValueError:
                bad = next(t for t in tokens if not _parses(kind, t))
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected {_EXPECTED[kind]}, got {bad.strip()!r}"
                ) from None
            if len(row) != width:
                if width is not None:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: {len(row)} values, expected {width} values"
                    )
                width = len(row)
            rows += 1
            yield lineno, row
    if count is not None and rows != count[0]:
        raise DatasetFormatError(f"{path}: {rows} rows for {count[0]} {count[1]}")


def write_json(path, obj):
    """Write obj to path as JSON indented by 2, with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def save_graph_json(path, g):
    write_json(path, graph_to_json(g))


def load_graph_json(path):
    return load_json(path, graph_from_json)


def dataset_to_json(ds):
    return {
        "name": ds.name,
        "labels": list(ds.labels) if ds.labels is not None else None,
        "graphs": [graph_to_json(g) for g in ds.graphs],
    }


def dataset_from_json(obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("graphs"), list):
        raise DatasetFormatError("dataset JSON must have a 'graphs' list")
    graphs = with_empty_dims([graph_from_json(go) for go in obj["graphs"]])
    try:
        return GraphDataset(graphs, obj.get("labels"), obj.get("name", ""))
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad dataset JSON: {exc}") from exc


def save_dataset_json(path, ds):
    write_json(path, dataset_to_json(ds))


def load_dataset_json(path):
    return load_json(path, dataset_from_json)


def standardize_datasets(datasets):
    """Z-score features per dimension using joint statistics over all datasets.

    Dimensions with zero variance are left untouched. Returns new datasets in
    the input order.
    """
    all_rows = [g.features for ds in datasets for g in ds.graphs if g.node_count]
    if not all_rows:
        return list(datasets)
    stacked = np.vstack(all_rows)
    std = stacked.std(axis=0)
    active = std > 0
    mean = np.where(active, stacked.mean(axis=0), 0.0)
    scale = np.where(active, std, 1.0)
    out = []
    for ds in datasets:
        graphs = tuple(
            AttributedGraph((g.features - mean) / scale, g.edges) for g in ds.graphs
        )
        out.append(GraphDataset(graphs, ds.labels, ds.name))
    return out
