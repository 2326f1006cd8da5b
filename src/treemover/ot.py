"""Exact discrete optimal transport: assignments and transportation plans.

Solvers for transport problems posed outside the distance engine, which
calls SciPy's assignment solver directly (see `distance`).
`solve_assignment` solves a linear assignment with one call of the engine's
solver and returns its optimal plan; `augmented_ot` first pads the
smaller of two unequal multisets with blanks, as each child transport of
the distance does. `solve_transport` handles general non-negative marginals
and is used for dataset-level distances (`analysis`).

Both solvers call SciPy's compiled modules directly, loaded as the engine
loads its own (`distance._load_extension`), and no SciPy package:
`linear_sum_assignment` is the engine's, and the transport LP goes straight
to HiGHS (`scipy.optimize._highspy._core`) with the model and options that
`scipy.optimize.linprog(method="highs")` passes it, so the solution is
bitwise linprog's (for costs below 2**40; see `solve_transport`). The
HiGHS module loads at the first transport solve; where its file is not
found, the public `linprog` solves the same model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import _load_extension, linear_sum_assignment


@dataclass(frozen=True)
class TransportPlan:
    """Solution of a transport problem.

    Exactly one of `permutation` (assignment problems; permutation[i] is the
    column assigned to row i of the padded matrix) and `flow` (general
    problems; dense matrix of shipped mass) is set.
    """

    cost: float
    permutation: np.ndarray = None
    flow: np.ndarray = None
    normalized: bool = False


def _check_cost(c, square=False):
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {c.shape}")
    if square and c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    if c.size and not np.all(np.isfinite(c)):
        raise ValueError("cost matrix must be finite")
    if c.size and c.min() < 0:
        raise ValueError("cost matrix must be non-negative")
    return c


def solve_assignment(cost):
    """Minimum-cost perfect matching on a square non-negative cost matrix.

    Returns the optimal value and the optimal permutation SciPy's solver
    returns. Where optimal plans tie, that is one of them, the same one for
    equal inputs.
    """
    c = _check_cost(cost, square=True)
    if c.shape[0] == 0:
        return TransportPlan(cost=0.0, permutation=np.empty(0, dtype=np.intp))
    rows, cols = linear_sum_assignment(c)
    return TransportPlan(cost=float(c[rows, cols].sum()), permutation=cols)


def _peel_flows(support, row_mass, col_mass):
    """Recover vertex flows on an acyclic support by leaf peeling.

    Repeatedly resolves the first (row-major) support cell that is alone in
    its row or column, so every flow is a plain signed sum of the input
    marginals. Returns None when the support contains a cycle.
    """
    m, n = len(row_mass), len(col_mass)
    rows_rem = [float(x) for x in row_mass]
    cols_rem = [float(x) for x in col_mass]
    cells = sorted(support)
    flow = np.zeros((m, n))
    while cells:
        row_count = {}
        col_count = {}
        for i, j in cells:
            row_count[i] = row_count.get(i, 0) + 1
            col_count[j] = col_count.get(j, 0) + 1
        leaf = None
        for i, j in cells:
            if row_count[i] == 1:
                leaf = (i, j, "row")
                break
            if col_count[j] == 1:
                leaf = (i, j, "col")
                break
        if leaf is None:
            return None
        i, j, side = leaf
        f = rows_rem[i] if side == "row" else cols_rem[j]
        if f < -1e-9:
            return None
        f = max(f, 0.0)
        flow[i, j] = f
        rows_rem[i] -= f
        cols_rem[j] -= f
        cells.remove((i, j))
    scale = max(1.0, sum(float(x) for x in row_mass))
    if any(abs(r) > 1e-9 * scale for r in rows_rem):
        return None
    if any(abs(c) > 1e-9 * scale for c in cols_rem):
        return None
    return flow


def _flow_cost(c, flow):
    """Canonical objective: row-major accumulation over positive-flow cells."""
    cells = np.nonzero(flow > 0.0)
    total = 0.0
    for term in (c[cells] * flow[cells]).tolist():
        total += term
    return total


def _transport_lp(c, a, b):
    """Vertex solution of min <c, x> s.t. x 1 = a, x^T 1 = b, x >= 0, as
    `linprog(c.ravel(), A_eq, b_eq, bounds=(0, None), method="highs")`
    returns it, flattened row-major.

    Variable k = i * n + j ships from row i to column j and has exactly two
    entries in the constraint matrix, rows i and m + j, so the matrix is
    built in HiGHS's column-wise (CSC) form: 2 m n entries, never dense.
    """
    m, n = c.shape
    cols = m * n
    k = np.arange(cols)
    index = np.empty(2 * cols, dtype=np.int32)
    index[0::2] = k // n
    index[1::2] = m + k % n
    start = np.arange(0, 2 * cols + 1, 2)
    value = np.ones(2 * cols)
    rhs = np.concatenate([a, b])
    core = _load_extension("scipy.optimize._highspy._core")
    if core is None:
        from scipy.optimize import linprog
        from scipy.sparse import csc_array

        res = linprog(c.ravel(), A_eq=csc_array((value, index, start), shape=(m + n, cols)),
                      b_eq=rhs, bounds=(0, None), method="highs")
        if not res.success:  # pragma: no cover - feasible by construction
            raise RuntimeError(f"transport LP failed: {res.message}")
        return res.x
    return _run_highs(core, c.ravel(), start, index, value, rhs)


def _run_highs(core, cost, start, index, value, rhs):
    """Solve min cost @ x s.t. A x = rhs, x >= 0 (A in CSC arrays) through
    SciPy's HiGHS module `core`, with the options `linprog(method="highs")`
    sets: presolve on, the dual simplex, no debugging and no output."""
    cols = cost.size
    lp = core.HighsLp()
    lp.num_col_ = cols
    lp.num_row_ = rhs.size
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(cols)
    lp.col_upper_ = np.full(cols, core.kHighsInf)
    lp.row_lower_ = rhs
    lp.row_upper_ = rhs
    matrix = lp.a_matrix_
    matrix.format_ = core.MatrixFormat.kColwise
    matrix.num_col_ = cols
    matrix.num_row_ = rhs.size
    matrix.start_ = start
    matrix.index_ = index
    matrix.value_ = value
    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = core.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    highs = core._Highs()
    highs.passOptions(options)
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:  # pragma: no cover - feasible by construction
        raise RuntimeError(f"transport LP failed: {highs.modelStatusToString(status)}")
    return np.array(highs.getSolution().col_value)


def solve_transport(cost, row_mass, col_mass):
    """Exact minimum-cost transport between non-negative marginals.

    Masses must balance to within 1e-9 (relative). The returned flow is a
    vertex of the transportation polytope with marginals reproduced to
    additive float accuracy. HiGHS fails on costs near 2**60, so costs of
    2**40 and more are solved scaled exactly by a power of two.
    """
    c = _check_cost(cost)
    a = np.asarray(row_mass, dtype=np.float64).reshape(-1)
    b = np.asarray(col_mass, dtype=np.float64).reshape(-1)
    m, n = c.shape
    if a.shape[0] != m or b.shape[0] != n:
        raise ValueError(
            f"marginal lengths ({a.shape[0]}, {b.shape[0]}) do not match cost shape {c.shape}"
        )
    if (a.size and not np.all(np.isfinite(a))) or (b.size and not np.all(np.isfinite(b))):
        raise ValueError("marginals must be finite")
    if (a.size and a.min() < 0) or (b.size and b.min() < 0):
        raise ValueError("marginals must be non-negative")
    ta, tb = float(a.sum()), float(b.sum())
    if abs(ta - tb) > 1e-9 * max(1.0, ta, tb):
        raise ValueError(f"marginal masses differ: {ta} vs {tb}")
    if m == 0 or n == 0 or ta == 0.0:
        return TransportPlan(cost=0.0, flow=np.zeros((m, n)))

    # In random LPs (400 up to 11 x 11, 40 up to 60 x 60) HiGHS never failed
    # with the largest cost below 2**60, and failed on 81 of the 400 at 2**61.
    # The failure point varies by LP and scaling by a power of two is exact,
    # so from 2**40, far below any failure seen, the LP gets costs below 1;
    # under 2**40 it is linprog's bit for bit.
    top = np.frexp(c.max())[1]
    x = np.maximum(_transport_lp(np.ldexp(c, -top) if top > 40 else c, a, b).reshape(m, n), 0.0)
    thresh = 1e-10 * max(1.0, ta)
    support = [tuple(ij) for ij in np.argwhere(x > thresh).tolist()]
    flow = _peel_flows(support, a, b)
    if flow is None:
        flow = x
    return TransportPlan(cost=_flow_cost(c, flow), flow=flow)


def _padded_matrix(core, row_norms, col_norms):
    m, n = core.shape
    s = max(m, n)
    out = np.zeros((s, s))
    out[:m, :n] = core
    if m < s:
        out[m:, :n] = col_norms[None, :]
    if n < s:
        out[:m, n:] = row_norms[:, None]
    return out


def augmented_ot(core, row_norms, col_norms, normalized=False):
    """Transport between unequal multisets after padding the smaller with blanks.

    core[i, j] is the cost between real elements; row_norms[i] / col_norms[j]
    are the costs of matching an element to a blank (blank-blank pairs cost
    zero). The result is an assignment on the max(m, n)-sized padded matrix,
    divided by the padded size when `normalized` is set.
    """
    c = _check_cost(core)
    rn = np.asarray(row_norms, dtype=np.float64).reshape(-1)
    cn = np.asarray(col_norms, dtype=np.float64).reshape(-1)
    m, n = c.shape
    if rn.shape[0] != m or cn.shape[0] != n:
        raise ValueError(
            f"norm vector lengths ({rn.shape[0]}, {cn.shape[0]}) do not match core shape {c.shape}"
        )
    for name, vec in (("row", rn), ("col", cn)):
        if vec.size and (not np.all(np.isfinite(vec)) or vec.min() < 0):
            raise ValueError(f"{name} norms must be finite and non-negative")
    s = max(m, n)
    if s == 0:
        return TransportPlan(cost=0.0, permutation=np.empty(0, dtype=np.intp),
                             normalized=normalized)
    plan = solve_assignment(_padded_matrix(c, rn, cn))
    total = plan.cost / s if normalized else plan.cost
    return TransportPlan(cost=float(total), permutation=plan.permutation,
                         normalized=normalized)

