"""Depth-indexed weight schedules and the distance configuration object.

A schedule assigns a positive weight w(l) to each tree level l >= 1. The
weight w(d) scales the optimal-transport term between child multisets whose
members are depth-d subtrees, so a distance computation at depth L consults
w(1) .. w(L-1) and the perturbation bounds at depth L consult w(1) .. w(L).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

_NOT_NUMBERS = (bool, np.bool_, str, bytes)  # float() and int() read them as numbers


class ConfigError(ValueError):
    """Raised for invalid configuration (schedules, depths, modes)."""


def positive_finite(name, x):
    """x as a float; ConfigError naming `name` unless x is a number (not a bool
    or a string) with 0 < x < inf, which an integer beyond floats is not."""
    try:
        if not isinstance(x, _NOT_NUMBERS) and 0 < float(x) < inf:
            return float(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be positive and finite, got {x}")


def integral(x):
    """x as an int if int(x) == x and x is not a bool (Python or numpy) or a
    string, else None: the one integer rule of depths, levels and node ids."""
    if type(x) is int:  # most calls, and never a bool
        return x
    if isinstance(x, _NOT_NUMBERS):
        return None
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == x else None


@dataclass(frozen=True)
class WeightSchedule:
    """Level-indexed weights, either a constant or an explicit bounded table.

    table[i] holds w(i+1). epsilon records the scale parameter used to build
    the schedule so reports can carry it.
    """

    kind: str
    epsilon: float = 1.0
    constant: float = None
    table: tuple = None

    def weight(self, level):
        i = integral(level)
        if i is None or i < 1:
            raise ConfigError(f"weight level must be a positive integer, got {level}")
        if self.constant is not None:
            return self.constant
        if i > len(self.table):
            raise ConfigError(f"schedule '{self.label()}' defines "
                              f"w(1)..w({len(self.table)}), w({i}) requested")
        return self.table[i - 1]

    def max_level(self):
        return None if self.constant is not None else len(self.table)

    def label(self):
        if self.kind == "constant":
            return f"constant:{self.constant!r}"
        if self.kind == "pascal":
            return f"pascal:{len(self.table)},{self.epsilon!r}"
        return self.kind

    def to_json(self):
        obj = {"kind": self.kind, "epsilon": self.epsilon}
        if self.constant is not None:
            obj["constant"] = self.constant
        if self.table is not None:
            obj["table"] = list(self.table)
        return obj

    @staticmethod
    def from_json(obj):
        """The schedule `to_json` wrote, through the constructors' checks:
        ConfigError for an unknown kind, a weight or epsilon not positive and
        finite, a table of no pascal depth's length, or a `pascal` table other
        than the one its length and epsilon build."""
        kind = obj["kind"]
        if kind == "constant":
            return constant_weights(obj["constant"])
        if kind not in ("pascal", "pascal_scaled"):
            raise ConfigError(f"unknown weight schedule kind {kind!r}")
        table = tuple(positive_finite(f"w({l})", w) for l, w in enumerate(obj["table"], start=1))
        built = pascal_weights(len(table), obj.get("epsilon", 1.0))  # checks the depth
        if kind == "pascal_scaled":
            return WeightSchedule(kind, table=table)
        if built.table != table:
            raise ConfigError(f"table {list(table)} is not the one '{built.label()}' builds")
        return built


def constant_weights(c):
    """w(l) = c for every level."""
    return WeightSchedule(kind="constant", constant=positive_finite("constant weight", c))


# deepest pascal table: far beyond any tree depth a distance can use, and
# small enough that the table is built at once
PASCAL_MAX_DEPTH = 10_000


def _pascal_table(depth, scales):
    """w(1)..w(depth) with w(l) = s_l * C(depth, l-1) / C(depth, l).

    Raises ConfigError for a depth that is not an integer (`integral`) from
    1 to PASCAL_MAX_DEPTH, before any list is built; scales then maps the
    depth to its checked per-level scales s_1..s_depth. The ratio of
    binomials is l / (depth - l + 1), so no binomial is formed and every
    depth up to the cap works. Each weight is checked too: a finite scale
    times the ratio can overflow or underflow.
    """
    d = integral(depth)
    if d is None or d < 1:
        raise ConfigError(f"pascal schedule needs integer depth >= 1, got {depth}")
    if d > PASCAL_MAX_DEPTH:
        raise ConfigError(f"pascal schedule depth must be at most {PASCAL_MAX_DEPTH}, "
                          f"got {depth}")
    return tuple(positive_finite(f"w({l})", s * (l / (d - l + 1)))
                 for l, s in enumerate(scales(d), start=1))


def pascal_weights(depth, epsilon=1.0):
    """Ratio-of-binomials schedule: w(l) = epsilon * C(depth, l-1) / C(depth, l).

    Defined for l = 1..depth, with depth at most PASCAL_MAX_DEPTH; w(l)
    grows from epsilon/depth up to epsilon*depth, the profile under which
    message-passing contractions telescope in the stability bound.
    """
    table = _pascal_table(depth, lambda d: [positive_finite("epsilon", epsilon)] * d)
    return WeightSchedule(kind="pascal", epsilon=float(epsilon), table=table)


def pascal_weights_scaled(depth, scales):
    """Pascal ratios with a per-level scale instead of one epsilon.

    scales[l-1] replaces epsilon at level l; used when each aggregation step
    has its own contraction factor.
    """
    def checked(depth):
        values = [positive_finite("scale", s) for s in scales]
        if len(values) != depth:
            raise ConfigError(f"need {depth} scales, got {len(values)}")
        return values

    return WeightSchedule(kind="pascal_scaled", table=_pascal_table(depth, checked))


_MODES = ("sum", "mean")


def check_depth(depth):
    """depth as an int; ConfigError unless it is `integral` and >= 1."""
    d = integral(depth)
    if d is None or d < 1:
        raise ConfigError(f"depth must be an integer >= 1, got {depth}")
    return d


@dataclass(frozen=True)
class TmdConfig:
    """Distance configuration: tree depth, weight schedule, aggregation mode.

    mode "sum" is the plain distance; "mean" divides every transport value
    (including the final graph-level one) by the padded multiset size, the
    normalisation matching mean-aggregating networks.
    """

    depth: int
    schedule: WeightSchedule
    mode: str = "sum"

    def __post_init__(self):
        object.__setattr__(self, "depth", check_depth(self.depth))
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        max_level = self.schedule.max_level()
        if max_level is not None and self.depth - 1 > max_level:
            raise ConfigError(
                f"depth {self.depth} needs w({self.depth - 1}), but schedule "
                f"'{self.schedule.label()}' stops at w({max_level})"
            )

    def to_json(self):
        return {"depth": self.depth, "weights": self.schedule.to_json(), "mode": self.mode}

    @staticmethod
    def from_json(obj):
        return TmdConfig(obj["depth"], WeightSchedule.from_json(obj["weights"]),
                         obj.get("mode", "sum"))
