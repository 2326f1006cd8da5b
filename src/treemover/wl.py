"""Joint color refinement of attributed graphs into computation-tree classes.

`refine_classes` yields, for depth 1, 2, ..., the class of every node of
every graph it is given, refined jointly. Depth 1 keys a node by its feature
values, so -0.0 equals 0.0; depth k keys it by its depth-(k-1) class and the
sorted depth-(k-1) classes of its neighbours. Two nodes share a class
exactly when their depth-k computation trees are equal. Classes are dense
ranks in sorted key order, so the order between two nodes' classes does not
depend on which other graphs were refined with them.

`wl_first_difference` compares the two graphs' class histograms depth by
depth: refinement iteration i is depth i + 1.
"""

from __future__ import annotations

from collections import Counter

from .graphs import check_feature_dims
from .schedule import integral


def refine_classes(graphs):
    """Per depth 1, 2, ...: one list of node classes per graph, without end.

    Once the partition is stable every later depth repeats the same lists.
    """
    graphs = list(graphs)
    keys = [list(map(tuple, g.features.tolist())) for g in graphs]
    while True:
        rank = {k: r for r, k in enumerate(sorted(set().union(*keys)))}
        classes = [[rank[k] for k in ks] for ks in keys]
        yield classes
        keys = [
            [(c[v], tuple(sorted(map(c.__getitem__, nbrs))))
             for v, nbrs in enumerate(g.neighbors)]
            for g, c in zip(graphs, classes)
        ]


def wl_first_difference(ga, gb, iterations):
    """First refinement iteration whose histograms differ, or None.

    Checks iterations 0..iterations inclusive and stops early once the joint
    partition stabilises (no further iteration can separate the graphs).
    """
    check_feature_dims(ga, gb)
    last = integral(iterations)
    if last is None or last < 0:
        raise ValueError(f"iterations must be an integer >= 0, got {iterations}")
    classes = 0
    for it, (ca, cb) in enumerate(refine_classes((ga, gb))):
        if Counter(ca) != Counter(cb):
            return it
        count = len(set(ca).union(cb))
        if it == last or count == classes:
            return None
        classes = count


def wl_distinguishable(ga, gb, iterations):
    """Whether refinement tells the graphs apart within `iterations` rounds."""
    return wl_first_difference(ga, gb, iterations) is not None
