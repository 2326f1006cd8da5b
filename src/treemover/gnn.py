"""Message-passing networks and verification of their distance-based bound.

The model is a stack of injective-aggregation layers

    z_v <- relu(W_l (z_v + eps * agg_{u in N(v)} z_u) + b_l)

with a linear readout over the pooled node embeddings. Output displacement
between graphs is bounded by the product of per-layer Lipschitz constants
times the tree mover's distance at depth layers + 1 under the pascal
schedule; `lipschitz_check` evaluates both sides.

A layer may replace eps with its own linear neighbour map W'_l (applied to
the aggregate before the sum); the matching schedule then scales each pascal
ratio by ||W'_l||_2 instead of eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import prepare_graph, prepared_tmd
from .graphs import DatasetFormatError, group_indices, load_json, number_array, write_json
from .schedule import (ConfigError, TmdConfig, pascal_weights, pascal_weights_scaled,
                       positive_finite)


def spectral_norm(w):
    """Largest singular value ||w||_2, from numpy's SVD.

    The layer norms multiply into a certificate's right-hand side, so they
    must not read low, as a power iteration can on nearly equal top singular
    values. Exact zero for the zero and the empty matrix.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {w.shape}")
    if w.size == 0:
        return 0.0
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix must be finite")
    return float(np.linalg.norm(w, 2))


@dataclass(frozen=True)
class GinLayer:
    """One layer: linear map, bias, optional linear neighbour map."""

    weight: np.ndarray
    bias: np.ndarray
    neighbor_weight: np.ndarray = None


_AGGREGATIONS = ("sum", "mean")


@dataclass(frozen=True)
class GinModel:
    """Immutable model with precomputed per-map spectral norms.

    lipschitz[l] is the norm of layer l's weight for l < depth, and of the
    readout weight at index depth, so the bound factor is prod(lipschitz).
    """

    layers: tuple
    readout: GinLayer
    epsilon: float
    aggregation: str
    lipschitz: tuple

    @property
    def depth(self):
        return len(self.layers)

    @property
    def input_dim(self):
        return self.layers[0].weight.shape[1]

    def lipschitz_product(self):
        out = 1.0
        for k in self.lipschitz:
            out *= k
        return out

    def neighbor_scales(self):
        """Per-layer schedule scale: ||W'_l||_2 where present, else epsilon."""
        return tuple(
            spectral_norm(l.neighbor_weight) if l.neighbor_weight is not None
            else self.epsilon
            for l in self.layers
        )


def _as_layer(weight, bias, neighbor_weight=None):
    w = number_array(weight, "layer weight")
    if w.ndim != 2:
        raise ValueError(f"layer weight must be 2-D, got shape {w.shape}")
    b = number_array(bias, "bias").reshape(-1)
    if b.shape[0] != w.shape[0]:
        raise ValueError(
            f"bias length {b.shape[0]} does not match weight rows {w.shape[0]}"
        )
    nw = None
    if neighbor_weight is not None:
        nw = number_array(neighbor_weight, "neighbor weight")
        if nw.shape != (w.shape[1], w.shape[1]):
            raise ValueError(
                f"neighbor weight must be square on the layer input "
                f"({w.shape[1]}), got shape {nw.shape}"
            )
    for arr in (w, b) + ((nw,) if nw is not None else ()):
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("model parameters must be finite")
        arr.setflags(write=False)
    return GinLayer(w, b, nw)


def make_gin(layers, readout, epsilon=1.0, aggregation="sum"):
    """Validate dimensions and assemble a model with its Lipschitz constants."""
    if not layers:
        raise ValueError("model needs at least one layer")
    if aggregation not in _AGGREGATIONS:
        raise ConfigError(
            f"aggregation must be one of {_AGGREGATIONS}, got {aggregation!r}"
        )
    epsilon = positive_finite("epsilon", number_array(epsilon, "epsilon", ndim=0))
    layers = tuple(_as_layer(*_layer_tuple(l)) for l in layers)
    readout = _as_layer(*_layer_tuple(readout))
    if readout.neighbor_weight is not None:
        raise ValueError("readout cannot carry a neighbor map")
    dim = layers[0].weight.shape[0]
    for i, l in enumerate(layers[1:], start=2):
        if l.weight.shape[1] != dim:
            raise ValueError(
                f"layer {i} expects input {l.weight.shape[1]}, previous output is {dim}"
            )
        dim = l.weight.shape[0]
    if readout.weight.shape[1] != dim:
        raise ValueError(
            f"readout expects input {readout.weight.shape[1]}, last layer output is {dim}"
        )
    lips = tuple(spectral_norm(l.weight) for l in layers) + (
        spectral_norm(readout.weight),
    )
    return GinModel(layers, readout, epsilon, aggregation, lips)


def _layer_tuple(layer):
    """Accept GinLayer instances or (weight, bias[, neighbor_weight]) tuples."""
    if isinstance(layer, GinLayer):
        return (layer.weight, layer.bias, layer.neighbor_weight)
    return tuple(layer)


def random_gin(feature_dim, hidden_dim, num_layers, seed, aggregation="sum",
               epsilon=1.0, out_dim=1, neighbor_maps=False):
    """Reproducible model with uniform [-1, 1] weights and zero biases.

    Biases stay zero because the displacement bound prices padding blanks as
    zero embeddings, which nonzero hidden biases break.
    """
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    d_in = feature_dim
    for _ in range(num_layers):
        w = rng.uniform(-1.0, 1.0, size=(hidden_dim, d_in))
        nw = rng.uniform(-1.0, 1.0, size=(d_in, d_in)) if neighbor_maps else None
        layers.append((w, np.zeros(hidden_dim), nw))
        d_in = hidden_dim
    readout = (rng.uniform(-1.0, 1.0, size=(out_dim, hidden_dim)), np.zeros(out_dim))
    return make_gin(layers, readout, epsilon=epsilon, aggregation=aggregation)


def gin_forward(model, g):
    """Graph-level embedding; bitwise invariant to node relabelling, as it runs
    on g's `prepare_graph` record: nodes of one stable class get identical
    embeddings, and neighbour rows and the readout sum in class order."""
    _check_input(model, g)
    return _forward(model, prepare_graph(g))


def _check_input(model, g):
    if g.feature_dim != model.input_dim:
        raise ValueError(
            f"graph feature dimension {g.feature_dim} does not match model "
            f"input {model.input_dim}"
        )


def _forward(model, p):
    """`gin_forward` of the graph whose `prepare_graph` record is p; the
    nodes of each degree d > 0 aggregate their (P, d) neighbour rows as one
    block."""
    mean = model.aggregation == "mean"
    buckets = [(nodes, p.pad[nodes, :d], d) for d, nodes in group_indices(p.deg) if d]
    z = p.features
    for layer in model.layers:
        agg = np.zeros_like(z)
        for nodes, nbrs, d in buckets:
            total = z[nbrs].sum(axis=1)
            agg[nodes] = total / d if mean else total
        if layer.neighbor_weight is not None:
            pre = z + agg @ layer.neighbor_weight.T
        else:
            pre = z + model.epsilon * agg
        z = np.maximum(pre @ layer.weight.T + layer.bias, 0.0)
    pooled = z.sum(axis=0)
    if mean and len(z):
        pooled = pooled / len(z)
    return pooled @ model.readout.weight.T + model.readout.bias


def matching_config(model):
    """The distance configuration under which the displacement bound holds."""
    depth = model.depth
    if any(l.neighbor_weight is not None for l in model.layers):
        schedule = pascal_weights_scaled(depth, model.neighbor_scales())
    else:
        schedule = pascal_weights(depth, model.epsilon)
    return TmdConfig(depth + 1, schedule, model.aggregation)


@dataclass(frozen=True)
class LipschitzCheck:
    lhs: float
    rhs: float
    ratio: float
    tmd_value: float

    def holds(self, rtol=1e-7):
        return self.lhs <= self.rhs + rtol * max(1.0, self.rhs)

    def to_json(self):
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "tmd": self.tmd_value,
            "holds": bool(self.holds()),
        }


def lipschitz_check(model, ga, gb, cfg=None):
    """Evaluate output displacement against its distance bound for one pair.

    lhs = ||h(ga) - h(gb)||, rhs = prod(lipschitz) * distance at depth
    layers + 1 under the model-matching schedule. A custom cfg must agree
    with the model's aggregation mode.
    """
    if cfg is None:
        cfg = matching_config(model)
    elif cfg.mode != model.aggregation:
        raise ConfigError(
            f"config mode {cfg.mode!r} does not match model aggregation "
            f"{model.aggregation!r}"
        )
    _check_input(model, ga)
    _check_input(model, gb)
    a, b = prepare_graph(ga), prepare_graph(gb)
    # the distance first: an overflowing schedule raises before the forward passes do
    dist = prepared_tmd(a, b, cfg)
    lhs = float(np.linalg.norm(_forward(model, a) - _forward(model, b)))
    rhs = model.lipschitz_product() * dist
    if rhs > 0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else float("inf")
    return LipschitzCheck(lhs=lhs, rhs=float(rhs), ratio=float(ratio),
                          tmd_value=float(dist))


def empirical_lipschitz(displacements, distances):
    """Largest displacement/distance ratio over pairs with nonzero distance."""
    h = np.asarray(displacements, dtype=np.float64).reshape(-1)
    d = np.asarray(distances, dtype=np.float64).reshape(-1)
    if h.shape != d.shape:
        raise ValueError(f"length mismatch: {h.shape[0]} vs {d.shape[0]}")
    if h.size == 0:
        raise ValueError("need at least one pair")
    if np.any(h < 0) or np.any(d < 0):
        raise ValueError("values must be non-negative")
    keep = d > 1e-12
    if not np.any(keep):
        raise ValueError("all distances are (numerically) zero")
    return float(np.max(h[keep] / d[keep]))


def pearson_r(x, y):
    """Sample Pearson correlation; errors on constant or mismatched input."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.size < 2:
        raise ValueError("need at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.dot(dx, dx)))
    sy = float(np.sqrt(np.dot(dy, dy)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("inputs must not be constant")
    return float(np.dot(dx, dy) / (sx * sy))


def model_to_json(model):
    def layer_obj(l):
        obj = {
            "weight": [[float(x) for x in row] for row in l.weight],
            "bias": [float(x) for x in l.bias],
        }
        if l.neighbor_weight is not None:
            obj["neighbor_weight"] = [
                [float(x) for x in row] for row in l.neighbor_weight
            ]
        return obj

    return {
        "epsilon": model.epsilon,
        "aggregation": model.aggregation,
        "layers": [layer_obj(l) for l in model.layers],
        "readout": layer_obj(model.readout),
    }


def model_from_json(obj):
    """The GinModel of a JSON object: malformed input (missing keys, shapes,
    values that are not finite numbers) raises DatasetFormatError, a bad
    aggregation or an epsilon that is not positive ConfigError."""
    try:
        layers = [
            (l["weight"], l["bias"], l.get("neighbor_weight"))
            for l in obj["layers"]
        ]
        return make_gin(
            layers,
            (obj["readout"]["weight"], obj["readout"]["bias"]),
            epsilon=obj.get("epsilon", 1.0),
            aggregation=obj.get("aggregation", "sum"),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad model JSON: {exc}") from exc


def save_model_json(path, model):
    write_json(path, model_to_json(model))


def load_model_json(path):
    return load_json(path, model_from_json)
