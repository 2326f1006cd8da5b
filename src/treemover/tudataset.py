"""Reader for the plain-text benchmark graph collection layout.

A dataset `NAME` in directory `dir` consists of `dir/NAME_A.txt` (one
`u, v` edge per line, 1-based global node ids), `dir/NAME_graph_indicator.txt`
(graph id per node), and optionally `NAME_graph_labels.txt`,
`NAME_node_labels.txt` (discrete, becomes one-hot) and
`NAME_node_attributes.txt` (real vectors). Attributes come first in the
feature concatenation; with neither labels nor attributes every node gets
the scalar feature 1.
"""

from __future__ import annotations

import os

import numpy as np

from .graphs import AttributedGraph, DatasetFormatError, GraphDataset, read_rows


def parse_tudataset(directory, name):
    """Load one dataset; returns graphs with 0-based node ids and labels.

    A malformed file raises DatasetFormatError naming it, and naming
    `path:line` where one line is at fault (blank lines count).
    """
    prefix = os.path.join(directory, name)
    indicator_path = prefix + "_graph_indicator.txt"
    edges_path = prefix + "_A.txt"
    for path in (indicator_path, edges_path):
        if not os.path.exists(path):
            raise FileNotFoundError(f"required file missing: {path}")

    indicator = [gid for _, (gid,) in read_rows(indicator_path, int, width=1)]
    n_nodes = len(indicator)
    if n_nodes == 0:
        raise DatasetFormatError(f"{indicator_path}: no nodes")
    n_graphs = max(indicator)
    if min(indicator) < 1:
        raise DatasetFormatError(f"{indicator_path}: graph ids must be >= 1")
    if any(b < a for a, b in zip(indicator, indicator[1:])):
        raise DatasetFormatError(
            f"{indicator_path}: graph ids must be non-decreasing"
        )
    if sorted(set(indicator)) != list(range(1, n_graphs + 1)):
        raise DatasetFormatError(
            f"{indicator_path}: graph ids must cover 1..{n_graphs}"
        )

    # node id ranges per graph (contiguous because ids are non-decreasing)
    first_node = {}
    counts = [0] * n_graphs
    for node, gid in enumerate(indicator):
        counts[gid - 1] += 1
        first_node.setdefault(gid, node)

    edge_sets = [set() for _ in range(n_graphs)]
    for i, (u, v) in read_rows(edges_path, int, width=2):
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise DatasetFormatError(
                f"{edges_path}:{i}: node id out of range 1..{n_nodes}"
            )
        if u == v:
            raise DatasetFormatError(f"{edges_path}:{i}: self loop at node {u}")
        gu, gv = indicator[u - 1], indicator[v - 1]
        if gu != gv:
            raise DatasetFormatError(
                f"{edges_path}:{i}: edge ({u}, {v}) spans graphs {gu} and {gv}"
            )
        base = first_node[gu]
        a, b = u - 1 - base, v - 1 - base
        edge_sets[gu - 1].add((a, b) if a < b else (b, a))

    parts = []
    attrs_path = prefix + "_node_attributes.txt"
    if os.path.exists(attrs_path):
        parts.append(np.array([row for _, row in read_rows(
            attrs_path, float, count=(n_nodes, "nodes"))]))
    labels_path = prefix + "_node_labels.txt"
    if os.path.exists(labels_path):
        raw = [lab for _, (lab,) in read_rows(
            labels_path, int, width=1, count=(n_nodes, "nodes"))]
        # one-hot over the sorted label alphabet
        alphabet, index = np.unique(raw, return_inverse=True)
        parts.append(np.eye(len(alphabet))[index])
    features = np.hstack(parts) if parts else np.ones((n_nodes, 1))

    graph_labels = None
    glabels_path = prefix + "_graph_labels.txt"
    if os.path.exists(glabels_path):
        graph_labels = [lab for _, (lab,) in read_rows(
            glabels_path, int, width=1, count=(n_graphs, "graphs"))]

    graphs = []
    for gid in range(1, n_graphs + 1):
        base = first_node[gid]
        feats = features[base : base + counts[gid - 1]]
        graphs.append(AttributedGraph(feats, sorted(edge_sets[gid - 1])))
    return GraphDataset(tuple(graphs), graph_labels, name)


_MIRRORS = (
    "https://www.chrsmrrs.com/graphkerneldatasets/{name}.zip",
    "https://ls11-www.cs.tu-dortmund.de/people/morris/graphkerneldatasets/{name}.zip",
)


def download_tudataset(name, dest_dir, timeout=30):
    """Best-effort download + extraction; returns the dataset directory.

    Raises OSError when no mirror is reachable (offline environments).
    """
    import io
    import urllib.request
    import zipfile

    os.makedirs(dest_dir, exist_ok=True)
    target = os.path.join(dest_dir, name)
    if os.path.exists(os.path.join(target, f"{name}_A.txt")):
        return target
    last_error = None
    for url in _MIRRORS:
        try:
            with urllib.request.urlopen(url.format(name=name), timeout=timeout) as rsp:
                payload = rsp.read()
            with zipfile.ZipFile(io.BytesIO(payload)) as zf:
                zf.extractall(dest_dir)
            if os.path.exists(os.path.join(target, f"{name}_A.txt")):
                return target
            last_error = OSError(f"archive from {url} lacks {name}_A.txt")
        except OSError as exc:
            last_error = exc
    raise OSError(f"could not fetch dataset {name}: {last_error}")
