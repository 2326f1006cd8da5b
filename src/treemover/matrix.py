"""Distance matrices: the labelled matrix type, Gaussian gram matrices and CSV.

Nothing here imports the distance engine or SciPy, so the commands that only
read a distance CSV (gram, knn, cluster) start without either.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphs import DatasetFormatError, read_rows
from .schedule import TmdConfig


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise distances plus the configuration that produced them."""

    values: np.ndarray
    row_ids: tuple
    col_ids: tuple
    config: TmdConfig = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {vals.shape}")
        if vals.shape != (len(self.row_ids), len(self.col_ids)):
            raise ValueError(
                f"shape {vals.shape} does not match ids "
                f"({len(self.row_ids)}, {len(self.col_ids)})"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "row_ids", tuple(str(r) for r in self.row_ids))
        object.__setattr__(self, "col_ids", tuple(str(c) for c in self.col_ids))

    @property
    def square(self):
        return self.row_ids == self.col_ids


def gram_matrix(dm, gamma):
    """Gaussian kernel K = exp(-gamma * D) from a square self-distance matrix."""
    if not isinstance(dm, DistanceMatrix):
        dm = DistanceMatrix(np.asarray(dm),
                            [str(i) for i in range(np.asarray(dm).shape[0])],
                            [str(i) for i in range(np.asarray(dm).shape[1])])
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if dm.values.shape[0] != dm.values.shape[1]:
        raise ValueError(f"need a square matrix, got shape {dm.values.shape}")
    return np.exp(-gamma * dm.values)


def save_distance_csv(path, dm, extra=None):
    """Write `# config:{json}` then one comma-separated row per matrix row.

    Floats use shortest round-trip formatting, so equal matrices produce
    byte-identical files. `extra` merges additional provenance keys into the
    header object.
    """
    header = {
        "config": dm.config.to_json() if dm.config is not None else None,
        "row_ids": list(dm.row_ids),
        "col_ids": list(dm.col_ids),
    }
    if extra:
        header.update(extra)
    with open(path, "w") as fh:
        fh.write("# config:" + json.dumps(header, separators=(",", ":")) + "\n")
        for row in dm.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _from_header(path, text, values):
    """The matrix a `# config:` header describes; a header that is not JSON,
    lacks `row_ids`/`col_ids`, carries an invalid config or ids that do not
    match the rows read raises DatasetFormatError naming `path:1`."""
    try:
        header = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}:1: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or "row_ids" not in header or "col_ids" not in header:
        raise DatasetFormatError(f"{path}:1: header needs 'row_ids' and 'col_ids'")
    try:
        cfg = TmdConfig.from_json(header["config"]) if header.get("config") else None
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}:1: invalid config in header: {exc!r}") from exc
    try:
        return DistanceMatrix(values, header["row_ids"], header["col_ids"], cfg)
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}:1: header ids do not fit the matrix: {exc}") from exc


def load_distance_csv(path):
    """Read a matrix in the `save_distance_csv` layout; the header is optional.

    Raises DatasetFormatError naming `path:line` for a token that is not a
    finite float, a row whose length differs from the first row's, or a
    malformed header (line 1).
    """
    with open(path, errors="replace") as fh:
        first = fh.readline()
    header = first[len("# config:"):].rstrip("\n") if first.startswith("# config:") else None
    rows = [row for _, row in read_rows(path, float, skip=int(header is not None))]
    values = np.array(rows) if rows else np.zeros((0, 0))
    if header is not None:
        return _from_header(path, header, values)
    n, m = values.shape
    return DistanceMatrix(values, [str(i) for i in range(n)],
                          [str(j) for j in range(m)], None)
