"""Seeded offline generator for the benchmark inputs.

Builds MUTAG-like molecular graphs (10-28 nodes, degree <= 4, mean degree
about 2.2, seven skewed one-hot atom labels) and writes them as files only:
the benchmark text layout, dataset JSON, a labels file, a GIN model JSON and,
per workload, its extra inputs. The program under test never sees the seed.

Node counts are stratified (evenly spaced over the size range, shuffled by
the seed) and every graph has exactly n + round(n / 10) edges, so the total
amount of distance work barely changes from seed to seed while structure
and labels do.

Usage: python3 perfbench/gen.py WORKLOAD SEED OUTDIR
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

LABELS = 7
# atom-label mixes: carbon-heavy like MUTAG, a nitro-rich class, and a shift
BASE_MIX = (0.70, 0.10, 0.14, 0.03, 0.01, 0.01, 0.01)
CLASS1_MIX = (0.55, 0.18, 0.21, 0.03, 0.01, 0.01, 0.01)
SHIFT_MIX = (0.30, 0.30, 0.30, 0.04, 0.02, 0.02, 0.02)
CLASS_DEPTHS = 4

# graphs per dataset and node-count range
SIZES = {
    "mutag-dist": {"primary": (24, 10, 28)},
    "shift-mean": {"primary": (20, 10, 28), "control": (10, 10, 28),
                   "larger": (10, 18, 36), "relabel": (10, 10, 28)},
    "edit-certify": {"primary": (24, 10, 28)},
}
WORKLOADS = tuple(SIZES)
TEXT_NAME = "SYNMUTAG"


def molecule(rng, n, mix):
    """A random tree with degree <= 3, closed into rings up to degree 4."""
    deg = np.zeros(n, dtype=int)
    edges = set()
    for i in range(1, n):
        cand = np.flatnonzero(deg[:i] < 3)
        u = int(cand[rng.integers(len(cand))])
        edges.add((u, i))
        deg[u] += 1
        deg[i] += 1
    rings = round(n / 10)
    while rings:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) not in edges and deg[u] < 4 and deg[v] < 4:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
            rings -= 1
    labels = rng.choice(LABELS, size=n, p=mix)
    return labels, sorted(edges)


def dataset(rng, count, lo, hi, mixes):
    """`count` graphs with stratified node counts; returns (graphs, classes).

    mixes[c] is the atom-label mix of graphs in class c.
    """
    sizes = np.rint(np.linspace(lo, hi, count)).astype(int)
    rng.shuffle(sizes)
    classes = (rng.random(count) < 1 / 3).astype(int)
    graphs = [molecule(rng, int(n), mixes[int(c)])
              for n, c in zip(sizes, classes)]
    # every atom label occurs, so the text layout always yields 7-dim one-hots
    present = {int(x) for labels, _ in graphs for x in labels}
    for k, lab in enumerate(sorted(set(range(LABELS)) - present)):
        graphs[k % count][0][1 + k // count] = lab
    return graphs, [int(c) for c in classes]


def to_graph_json(graph):
    labels, edges = graph
    feats = np.zeros((len(labels), LABELS))
    feats[np.arange(len(labels)), labels] = 1.0
    return {"features": feats.tolist(), "edges": [list(e) for e in edges]}


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def write_text_layout(directory, name, graphs, classes):
    os.makedirs(directory, exist_ok=True)
    prefix = os.path.join(directory, name)
    base = 0
    with open(prefix + "_A.txt", "w") as fa, \
            open(prefix + "_graph_indicator.txt", "w") as fi, \
            open(prefix + "_node_labels.txt", "w") as fl:
        for gid, (labels, edges) in enumerate(graphs, start=1):
            for u, v in edges:
                fa.write(f"{base + u + 1}, {base + v + 1}\n")
                fa.write(f"{base + v + 1}, {base + u + 1}\n")
            for lab in labels:
                fi.write(f"{gid}\n")
                fl.write(f"{int(lab)}\n")
            base += len(labels)
    with open(prefix + "_graph_labels.txt", "w") as fg:
        fg.writelines(f"{c}\n" for c in classes)


def random_model(rng, layers=3, hidden=8):
    """GIN weights in the layout `treemover.load_model_json` reads.

    Uniform [-1, 1] weights, zero biases (the certificate needs them zero),
    sum aggregation, epsilon 1.
    """
    out, d_in = [], LABELS
    for _ in range(layers):
        out.append({"weight": rng.uniform(-1, 1, (hidden, d_in)).tolist(),
                    "bias": [0.0] * hidden})
        d_in = hidden
    return {"epsilon": 1.0, "aggregation": "sum", "layers": out,
            "readout": {"weight": rng.uniform(-1, 1, (1, hidden)).tolist(),
                        "bias": [0.0]}}


def edits_for(rng, graphs):
    """One node drop, one edge drop and one label change per graph."""
    out = []
    for labels, edges in graphs:
        n = len(labels)
        v = int(rng.integers(n))
        e = edges[int(rng.integers(len(edges)))]
        w = int(rng.integers(n))
        new = (int(labels[w]) + 1 + int(rng.integers(LABELS - 1))) % LABELS
        out.append({"drop_node": v, "drop_edge": list(e),
                    "perturb_node": w, "label": new})
    return out


def tree_classes(graphs, depths=CLASS_DEPTHS):
    """Distinct depth-k computation trees over all graphs, k = 1..depths.

    A node's depth-1 class is its label; its depth-k class is its label plus
    the multiset of its neighbours' depth-(k-1) classes (a leaf keeps its
    depth-1 class).
    """
    nbrs = []
    for labels, edges in graphs:
        adj = [[] for _ in labels]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        nbrs.append(adj)
    cls = [[(int(x),) for x in labels] for labels, _ in graphs]
    counts = [len({c for g in cls for c in g})]
    for _ in range(depths - 1):
        cls = [[(g_cls[v][0],) + tuple(sorted(g_cls[u] for u in adj[v]))
                if adj[v] else g_cls[v] for v in range(len(adj))]
               for g_cls, adj in zip(cls, nbrs)]
        counts.append(len({c for g in cls for c in g}))
    return counts


def descriptors(graphs):
    degrees = np.bincount(
        [d for labels, edges in graphs
         for d in np.bincount(np.asarray(edges).ravel(), minlength=len(labels))],
        minlength=5)
    return {
        "graphs": len(graphs),
        "nodes": int(sum(len(labels) for labels, _ in graphs)),
        "edges": int(sum(len(edges) for _, edges in graphs)),
        "degree_histogram": [int(x) for x in degrees],
        "classes_per_depth": tree_classes(graphs),
    }


def generate(workload, seed, outdir):
    """Write every input file of `workload` under `outdir`; returns the manifest."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(outdir, exist_ok=True)
    wid = list(SIZES).index(workload)
    datasets = {}
    for stream, (name, (count, lo, hi)) in enumerate(SIZES[workload].items()):
        rng = np.random.default_rng([seed, wid, stream])
        mixes = (SHIFT_MIX, SHIFT_MIX) if name == "relabel" else (BASE_MIX, CLASS1_MIX)
        datasets[name] = dataset(rng, count, lo, hi, mixes)
    rng = np.random.default_rng([seed, wid, 99])
    primary, classes = datasets["primary"]
    write_text_layout(os.path.join(outdir, "text"), TEXT_NAME, primary, classes)
    with open(os.path.join(outdir, "labels.txt"), "w") as fh:
        fh.writelines(f"{c}\n" for c in classes)
    for name, (graphs, cls) in datasets.items():
        write_json(os.path.join(outdir, f"{name}.json"),
                   {"name": name, "labels": cls,
                    "graphs": [to_graph_json(g) for g in graphs]})
    write_json(os.path.join(outdir, "model.json"), random_model(rng))
    write_json(os.path.join(outdir, "edits.json"), edits_for(rng, primary))
    everything = [g for graphs, _ in datasets.values() for g in graphs]
    manifest = {"workload": workload, "seed": seed,
                "datasets": {k: len(v[0]) for k, v in datasets.items()},
                **descriptors(everything)}
    write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: gen.py WORKLOAD SEED OUTDIR")
    print(json.dumps(generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
