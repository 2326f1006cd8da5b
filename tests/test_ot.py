"""Exact transport solvers against exhaustive oracles.

The oracles here are deliberately primitive: permutation enumeration for
assignments and spanning-tree vertex enumeration for transportation
problems. They are written first and frozen; the solvers must match them.
"""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from treemover import TransportPlan, augmented_ot, solve_assignment, solve_transport
from treemover import ot
from treemover.ot import _padded_matrix

from references import reference_solve_transport


# ---------------------------------------------------------------- oracles


def brute_assignment(c):
    """(min cost, smallest optimal permutation) by enumeration."""
    c = np.asarray(c, dtype=np.float64)
    m = c.shape[0]
    if m == 0:
        return 0.0, ()
    perms = np.asarray(list(itertools.permutations(range(m))))
    costs = c[np.arange(m)[None, :], perms].sum(axis=1)
    best = costs.min()
    optimal = perms[costs <= best + 1e-12 * max(1.0, abs(best))]
    lex = min(tuple(p) for p in optimal)
    return float(best), lex


def _peel_tree_flow(cells, a, b):
    """Vertex flow for a spanning-forest cell set by lowest-index leaf peeling."""
    rows = [float(x) for x in a]
    cols = [float(x) for x in b]
    cells = sorted(cells)
    flow = {}
    while cells:
        rc = {}
        cc = {}
        for i, j in cells:
            rc[i] = rc.get(i, 0) + 1
            cc[j] = cc.get(j, 0) + 1
        pick = None
        for i, j in cells:
            if rc[i] == 1:
                pick = (i, j, True)
                break
            if cc[j] == 1:
                pick = (i, j, False)
                break
        if pick is None:
            return None
        i, j, from_row = pick
        f = rows[i] if from_row else cols[j]
        flow[(i, j)] = f
        rows[i] -= f
        cols[j] -= f
        cells.remove((i, j))
    if any(abs(x) > 1e-12 for x in rows + cols):
        return None
    return flow


def enumerate_transport(c, a, b):
    """Minimum cost over all basic feasible solutions (spanning forests)."""
    c = np.asarray(c, dtype=np.float64)
    m, n = c.shape
    all_cells = [(i, j) for i in range(m) for j in range(n)]
    best = None
    for cells in itertools.combinations(all_cells, m + n - 1):
        flow = _peel_tree_flow(list(cells), a, b)
        if flow is None:
            continue
        if any(f < -1e-12 for f in flow.values()):
            continue
        total = 0.0
        for i in range(m):
            for j in range(n):
                f = flow.get((i, j), 0.0)
                if f > 0.0:
                    total += c[i, j] * f
        if best is None or total < best:
            best = total
    return best


# ------------------------------------------------------------- assignment


def test_assignment_swap_beats_identity():
    plan = solve_assignment([[0.0, 1.0], [1.0, 0.0]])
    assert plan.cost == 0.0
    assert list(plan.permutation) == [0, 1]


def test_assignment_singleton():
    plan = solve_assignment([[5.0]])
    assert plan.cost == 5.0
    assert list(plan.permutation) == [0]


def test_assignment_empty():
    plan = solve_assignment(np.zeros((0, 0)))
    assert plan.cost == 0.0
    assert plan.permutation.size == 0


def test_assignment_all_zeros_prefers_identity():
    for m in (2, 3, 5):
        plan = solve_assignment(np.zeros((m, m)))
        assert list(plan.permutation) == list(range(m))


def test_assignment_constant_matrix_prefers_identity():
    plan = solve_assignment(np.full((4, 4), 2.5))
    assert list(plan.permutation) == [0, 1, 2, 3]
    assert plan.cost == 10.0


def _check_optimal(c):
    """solve_assignment(c): a permutation, its cost and the optimal value."""
    m = c.shape[0]
    plan = solve_assignment(c)
    assert sorted(plan.permutation.tolist()) == list(range(m))
    assert plan.cost == c[np.arange(m), plan.permutation].sum()
    assert plan.cost == pytest.approx(brute_assignment(c)[0], rel=1e-12, abs=1e-12)
    return plan


def test_assignment_matches_bruteforce():
    # tied optima (both diagonals; the two 2 x 2 blocks): any optimal plan
    _check_optimal(np.array([[1.0, 1.0], [1.0, 1.0]]))
    _check_optimal(np.array([[2.0, 2.0, 5.0], [2.0, 2.0, 5.0], [5.0, 5.0, 0.0]]))
    rng = np.random.default_rng(7)
    for trial in range(60):
        m = int(rng.integers(1, 7))
        c = rng.uniform(0.0, 10.0, size=(m, m))
        assert tuple(_check_optimal(c).permutation) == brute_assignment(c)[1]


def test_assignment_cost_below_random_permutations():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        c = rng.uniform(0.0, 5.0, size=(m, m))
        opt = solve_assignment(c).cost
        for _ in range(40):
            perm = rng.permutation(m)
            assert opt <= c[np.arange(m), perm].sum() + 1e-9


def test_assignment_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_assignment(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        solve_assignment([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve_assignment([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve_assignment([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve_assignment(np.zeros(3))


# -------------------------------------------------------------- transport


def test_transport_singleton():
    plan = solve_transport([[3.0]], [2.0], [2.0])
    assert plan.cost == 6.0
    assert plan.flow[0, 0] == 2.0


def test_transport_zero_diagonal_identity():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan = solve_transport(c, [0.5, 0.5], [0.5, 0.5])
    assert plan.cost == 0.0
    assert np.allclose(plan.flow, np.diag([0.5, 0.5]))


def test_transport_marginals_satisfied():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        c = rng.uniform(0.0, 4.0, size=(m, n))
        a = rng.uniform(0.1, 1.0, size=m)
        b = rng.uniform(0.1, 1.0, size=n)
        b *= a.sum() / b.sum()
        plan = solve_transport(c, a, b)
        assert np.all(plan.flow >= 0)
        np.testing.assert_allclose(plan.flow.sum(axis=1), a, atol=1e-12)
        np.testing.assert_allclose(plan.flow.sum(axis=0), b, atol=1e-12)


def test_transport_2x3_matches_vertex_enumeration_exactly():
    rng = np.random.default_rng(123)
    a = np.array([0.5, 0.5])
    b = np.array([1.0, 1.0, 1.0]) / 3.0
    for _ in range(40):
        c = rng.uniform(0.0, 9.0, size=(2, 3))
        want = enumerate_transport(c, a, b)
        got = solve_transport(c, a, b).cost
        assert got == want


def test_transport_matches_enumeration_other_shapes():
    rng = np.random.default_rng(5)
    for m, n in ((1, 4), (3, 2), (3, 3), (4, 2)):
        for _ in range(10):
            c = rng.uniform(0.0, 5.0, size=(m, n))
            a = rng.uniform(0.2, 1.0, size=m)
            b = rng.uniform(0.2, 1.0, size=n)
            b *= a.sum() / b.sum()
            want = enumerate_transport(c, a, b)
            got = solve_transport(c, a, b).cost
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_transport_uniform_square_reduces_to_assignment():
    rng = np.random.default_rng(9)
    for _ in range(15):
        m = int(rng.integers(1, 7))
        c = rng.uniform(0.0, 3.0, size=(m, m))
        plan = solve_transport(c, np.full(m, 1.0 / m), np.full(m, 1.0 / m))
        assert plan.cost == pytest.approx(solve_assignment(c).cost / m, rel=1e-10)


def test_transport_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_transport([[1.0]], [1.0], [2.0])  # mass mismatch
    with pytest.raises(ValueError):
        solve_transport([[1.0]], [-1.0], [-1.0])  # negative mass
    with pytest.raises(ValueError):
        solve_transport([[1.0, 2.0]], [1.0], [0.5])  # marginal length
    with pytest.raises(ValueError):
        solve_transport([[-1.0]], [1.0], [1.0])  # negative cost


def random_transport_problems(seed, count, max_side):
    """Seeded (cost, row_mass, col_mass) triples of shapes 1..max_side:
    uniform and non-uniform masses, and every third cost rounded to an
    integer, so many optima tie."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        m, n = (int(s) for s in rng.integers(1, max_side + 1, size=2))
        c = rng.uniform(0.0, 3.0, size=(m, n))
        if t % 3 == 2:
            c = np.round(c)
        if t % 2:
            a, b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        else:
            a = rng.uniform(0.01, 1.0, size=m)
            b = rng.uniform(0.01, 1.0, size=n)
            b *= a.sum() / b.sum()
        yield c, a, b


def plan_bytes(plan):
    return plan.flow.tobytes(), np.float64(plan.cost).tobytes()


def test_transport_is_linprog_bitwise():
    for c, a, b in random_transport_problems(17, 1000, 16):
        flow, cost = reference_solve_transport(c, a, b)
        want = flow.tobytes(), np.float64(cost).tobytes()
        assert plan_bytes(solve_transport(c, a, b)) == want, (c, a, b)


@pytest.mark.parametrize("k", [60, 200, 900])
def test_transport_of_huge_costs(k):
    # unscaled, HiGHS reports "Solve error" or "Unknown" from costs of about 1e18
    for c, a, b in random_transport_problems(5, 40, 11):
        plan = solve_transport(c * 2.0**k, a, b)
        assert np.allclose(plan.flow.sum(axis=1), a, rtol=0, atol=1e-12)
        assert np.allclose(plan.flow.sum(axis=0), b, rtol=0, atol=1e-12)
        want = solve_transport(c, a, b).cost * 2.0**k
        assert plan.cost == pytest.approx(want, rel=1e-12, abs=0)


def test_public_linprog_is_the_transport_fallback(monkeypatch):
    problems = list(random_transport_problems(29, 150, 12))
    fast = [plan_bytes(solve_transport(*p)) for p in problems]
    asked = []
    monkeypatch.setattr(ot, "_load_extension", lambda name: asked.append(name))
    assert [plan_bytes(solve_transport(*p)) for p in problems] == fast
    assert set(asked) == {"scipy.optimize._highspy._core"}


def test_transport_memory_is_linear_in_the_variables():
    # a dense (m + n) x m n constraint matrix would take about 220 MB
    m = 150
    c = np.random.default_rng(2).uniform(0.0, 1.0, size=(m, m))
    mass = np.full(m, 1.0 / m)
    solve_transport(c, mass, mass)  # loads the solver outside the trace
    tracemalloc.start()
    try:
        solve_transport(c, mass, mass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# -------------------------------------------------------------- augmented


def test_augmented_equal_sizes_no_padding():
    core = np.array([[0.0, 2.0], [2.0, 0.0]])
    plan = augmented_ot(core, [9.0, 9.0], [9.0, 9.0])
    assert plan.cost == 0.0  # norms are irrelevant when sizes match


def test_augmented_pads_smaller_side():
    core = np.array([[1.0], [1.0]])
    plan = augmented_ot(core, [2.0, 2.0], [2.0])
    # padded matrix [[1, 2], [1, 2]]: one real match (1) + one blank match (2)
    assert plan.cost == 3.0
    assert plan.normalized is False


def test_augmented_empty_side_sums_norms():
    plan = augmented_ot(np.zeros((2, 0)), [1.5, 2.5], [])
    assert plan.cost == 4.0
    plan = augmented_ot(np.zeros((0, 3)), [], [1.0, 2.0, 3.0])
    assert plan.cost == 6.0
    plan = augmented_ot(np.zeros((0, 0)), [], [])
    assert plan.cost == 0.0


def test_augmented_normalized_divides_by_padded_size():
    core = np.array([[1.0], [1.0]])
    plan = augmented_ot(core, [2.0, 2.0], [2.0], normalized=True)
    assert plan.cost == 1.5
    assert plan.normalized is True


def test_augmented_norm_length_mismatch():
    with pytest.raises(ValueError):
        augmented_ot(np.zeros((2, 2)), [1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        augmented_ot(np.zeros((2, 2)), [1.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        augmented_ot(np.zeros((2, 2)), [-1.0, 0.0], [0.0, 0.0])


# costs, marginals and blank norms share one value rule, and the two side
# vectors of a transport one length rule
@pytest.mark.parametrize("call, message", [
    (lambda: solve_assignment([[np.nan]]), "cost matrix must be finite"),
    (lambda: augmented_ot([[-1.0]], [0.0], [0.0]), "cost matrix must be non-negative"),
    (lambda: solve_transport([[1.0]], [np.inf], [1.0]), "marginals must be finite"),
    (lambda: solve_transport([[1.0]], [1.0], [-1.0]), "marginals must be non-negative"),
    (lambda: solve_transport([[1.0, 2.0]], [1.0], [0.5]),
     "marginal lengths (1, 1) do not match cost shape (1, 2)"),
    (lambda: augmented_ot(np.zeros((2, 2)), [1.0], [1.0, 1.0]),
     "norm vector lengths (1, 2) do not match core shape (2, 2)"),
    (lambda: augmented_ot(np.zeros((1, 2)), [np.nan], [0.0, 0.0]), "norm vectors must be finite"),
    (lambda: augmented_ot(np.zeros((1, 2)), [0.0], [0.0, -1.0]),
     "norm vectors must be non-negative"),
], ids=["cost-nan", "cost-negative", "marginal-inf", "marginal-negative", "marginal-length",
        "norm-length", "norm-nan", "norm-negative"])
def test_transport_inputs_name_the_rule_they_break(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _blank_extended(core, rn, cn, k):
    """Add k explicit blanks to both sides (norm 0, distances = other norms)."""
    m, n = core.shape
    big = np.zeros((m + k, n + k))
    big[:m, :n] = core
    for t in range(k):
        big[:m, n + t] = rn
        big[m + t, :n] = cn
    return big, np.concatenate([rn, np.zeros(k)]), np.concatenate([cn, np.zeros(k)])


def test_augmented_invariant_under_explicit_blank_padding():
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(0, 5))
        pts_a = rng.uniform(-2.0, 2.0, size=(m, 2))
        pts_b = rng.uniform(-2.0, 2.0, size=(n, 2))
        core = np.linalg.norm(pts_a[:, None, :] - pts_b[None, :, :], axis=2)
        rn = np.linalg.norm(pts_a, axis=1)
        cn = np.linalg.norm(pts_b, axis=1)
        base = augmented_ot(core, rn, cn).cost
        for k in (1, 3):
            big, rn2, cn2 = _blank_extended(core, rn, cn, k)
            padded = augmented_ot(big, rn2, cn2).cost
            assert padded == pytest.approx(base, abs=1e-12)


def test_augmented_metric_properties_on_point_multisets():
    # ground distance Euclidean between points, blanks at the origin
    rng = np.random.default_rng(33)

    def dist(pa, pb):
        core = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
        return augmented_ot(core, np.linalg.norm(pa, axis=1),
                            np.linalg.norm(pb, axis=1)).cost

    for _ in range(60):
        sizes = rng.integers(0, 5, size=3)
        pa, pb, pc = (rng.uniform(-3.0, 3.0, size=(s, 2)) for s in sizes)
        dab, dba = dist(pa, pb), dist(pb, pa)
        assert dab == pytest.approx(dba, rel=1e-12, abs=1e-12)
        dac, dcb = dist(pa, pc), dist(pc, pb)
        assert dab <= dac + dcb + 1e-9 * max(1.0, dab, dac, dcb)
        assert dist(pa, pa) == pytest.approx(0.0, abs=1e-12)


def test_padded_matrix_layout():
    core = np.array([[1.0, 2.0, 3.0]])
    out = _padded_matrix(core, np.array([7.0]), np.array([4.0, 5.0, 6.0]))
    want = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(out, want)


def test_transport_plan_holds_one_route():
    plan = solve_assignment([[1.0]])
    assert isinstance(plan, TransportPlan)
    assert plan.permutation is not None and plan.flow is None
    plan = solve_transport([[1.0]], [1.0], [1.0])
    assert plan.flow is not None and plan.permutation is None
