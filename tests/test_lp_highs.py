"""solve_lp against HiGHS (scipy.optimize.linprog) on random LPs that mix
boxed and fixed variables with every relation, on their children solved
warm from the parent's basis, and on the encoder's adversarial LP
relaxations."""

import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import prunemip.lp as lp_mod
from prunemip.encode import encode_adversarial, parse_lp
from prunemip.lp import EQ, LE, LinearProgram, LpError, check_feasible, solve_lp
from prunemip.nn import forward, init_mlp
from prunemip.verify import runner_up

linprog = pytest.importorskip("scipy.optimize").linprog

INF = math.inf
# a draw picks one of five entries; solve_lp needs finite bounds, so the
# boxed and the wide kind take two entries each: a wide variable's upper
# bound lies 10 above its lower one, where a loose bound leaves its rows'
# logicals the room
BOUND_KINDS = ("boxed", "wide", "boxed", "wide", "fixed")


def highs(problem):
    """(status, objective) of the same LP solved by HiGHS."""
    n = problem.num_vars
    eq = np.asarray(problem.relation) == EQ
    A_ub, b_ub = problem.A[~eq], problem.rhs[~eq]
    bounds = [(None if lo == -INF else lo, None if hi == INF else hi)
              for lo, hi in zip(problem.lower, problem.upper)]
    kwargs = dict(A_ub=A_ub if b_ub.size else None, b_ub=b_ub if b_ub.size else None,
                  A_eq=problem.A[eq] if eq.any() else None,
                  b_eq=problem.rhs[eq] if eq.any() else None, bounds=bounds, method="highs")
    res = linprog(-np.asarray(problem.objective, dtype=float), **kwargs)  # linprog minimizes
    if res.status == 0:
        return "optimal", -res.fun
    assert res.status in (2, 3), res.message
    # HiGHS may only say "infeasible or unbounded": settle it with a zero objective
    feasible = linprog(np.zeros(n), **kwargs).status == 0
    return ("unbounded" if feasible else "infeasible"), None


def assert_matches_highs(problem):
    sol = solve_lp(problem)
    status, obj = highs(problem)
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(obj, rel=1e-7, abs=1e-7)
    return status


def _bounds(rng, n):
    lo, hi = np.empty(n), np.empty(n)
    for j in range(n):
        kind = BOUND_KINDS[int(rng.integers(len(BOUND_KINDS)))]
        a, b = sorted(rng.uniform(-3, 3, 2))
        lo[j], hi[j] = {"boxed": (a, b), "wide": (a, a + 10.0), "fixed": (a, a)}[kind]
    return lo, hi


def random_lp(seed):
    """Random relations and right-hand sides: optimal and infeasible LPs
    both occur. A >= row is drawn as one and written as the <= row
    -row <= -rhs, a minimized objective c as the maximized -c."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    lo, hi = _bounds(rng, n)
    A, relation, rhs = np.zeros((int(rng.integers(1, 2 * n)), n)), [], []
    for row in A:
        cols = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        row[cols] = rng.normal(size=cols.size)
        relation.append((LE, ">=", EQ)[int(rng.integers(3))])
        rhs.append(float(rng.normal()))
        if relation[-1] == ">=":
            row *= -1.0
            relation[-1], rhs[-1] = LE, -rhs[-1]
    minimize = int(rng.integers(2)) == 1
    c = rng.normal(size=n)
    return LinearProgram(n, -c if minimize else c, lo, hi, A, relation, np.array(rhs))


def degenerate_lp(seed):
    """Many constraints tight at one point inside the bounds, some of them
    repeated, so the optimum sits on a degenerate vertex. Relations and
    senses are drawn and written as in random_lp."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    lo, hi = _bounds(rng, n)
    v = lo.copy()
    boxed = np.isfinite(hi)
    v[boxed] = np.round(0.5 * (lo[boxed] + hi[boxed]), 1)
    A, relation, rhs = [], [], []
    for _ in range(int(rng.integers(n, 3 * n))):
        a = np.round(rng.normal(size=n), 1)
        rel = EQ if rng.random() < 0.2 else (LE, ">=")[int(rng.integers(2))]
        copies = int(rng.integers(1, 3))
        b = float(a @ v)
        if rel == ">=":
            a, rel, b = -a, LE, -b
        A += [a] * copies
        relation += [rel] * copies
        rhs += [b] * copies
    minimize = int(rng.integers(2)) == 1
    c = np.round(rng.normal(size=n), 1)
    return LinearProgram(n, -c if minimize else c, lo, hi, np.array(A), relation, np.array(rhs))


def test_random_lps_match_highs():
    seen = {assert_matches_highs(random_lp(seed)) for seed in range(300)}
    assert seen == {"optimal", "infeasible"}


def test_degenerate_lps_match_highs():
    seen = [assert_matches_highs(degenerate_lp(seed)) for seed in range(150)]
    assert seen.count("optimal") > 50


def warm_children(problem, point, seed):
    """LPs that the final basis of problem's optimum `point` can warm-start:
    two children with one or two variables fixed at a finite bound or inside
    their range (a binary's branch, a pinned split column), two with them
    capped below their value at `point` (an integer branch x <= floor(x*)),
    and problem with another objective. Some children are infeasible."""
    rng = np.random.default_rng(seed)
    lo, hi = problem.lower, problem.upper
    for fix in (True, True, False, False):
        child_lo, child_hi = lo.copy(), hi.copy()
        for j in rng.choice(problem.num_vars, int(rng.integers(1, 3)), replace=False):
            if fix:
                values = [v for v in (lo[j], hi[j]) if math.isfinite(v)]
                if len(values) != 1:
                    values.append(float(rng.uniform(max(lo[j], -3.0), min(hi[j], 3.0))))
                child_lo[j] = child_hi[j] = values[int(rng.integers(len(values)))]
            else:
                child_hi[j] = max(lo[j], point[j] - rng.uniform(0.1, 1.0))
        yield replace(problem, lower=child_lo, upper=child_hi)
    yield replace(problem, objective=rng.normal(size=problem.num_vars))


def test_warm_children_match_cold_and_highs():
    """Every child, the one with a new objective included, is solved warm,
    and agrees with the cold solve and with HiGHS: the dual simplex
    reaches each optimum from the parent's basis once the columns whose
    reduced costs have the wrong sign are flipped."""
    seen = Counter()
    for seed in range(300):
        for parent in (random_lp(seed), degenerate_lp(seed)):
            state = solve_lp(parent)
            if state.status != "optimal":
                continue
            for child in warm_children(parent, state.primal, seed):
                warm = solve_lp(child, warm=state)
                cold = solve_lp(child)
                status, obj = highs(child)
                assert warm.status == cold.status == status
                if status == "optimal":
                    assert warm.objective == pytest.approx(obj, rel=1e-7, abs=1e-7)
                    assert cold.objective == pytest.approx(obj, rel=1e-7, abs=1e-7)
                    assert check_feasible(child, warm.primal, 1e-6)
                seen[status, warm.warm] += 1
    assert seen["optimal", True] > 400
    assert seen["infeasible", True] > 200
    assert all(warm for _, warm in seen)


def _assert_warm_matches_cold_and_highs(child, state):
    """child solved warm from state: not restarted, and the cold solve and
    HiGHS reach the same status and optimum. Returns the status."""
    warm, cold = solve_lp(child, warm=state), solve_lp(child)
    status, obj = highs(child)
    assert warm.warm
    assert warm.status == cold.status == status
    if status == "optimal":
        assert warm.objective == pytest.approx(obj, rel=1e-7, abs=1e-7)
        assert cold.objective == pytest.approx(obj, rel=1e-7, abs=1e-7)
        assert check_feasible(child, warm.primal, 1e-6)
    return status


def _optimal_parents():
    for seed in range(300):
        for parent in (random_lp(seed), degenerate_lp(seed)):
            state = solve_lp(parent)
            if state.status == "optimal":
                yield parent, state


def test_child_that_unfixes_a_fixed_nonbasic_variable_is_solved_warm():
    """A fixed variable out of the basis has no tableau column. A child that
    gives it room again takes its columns from its own bounds, so it is
    solved warm from the parent's basis."""
    seen = Counter()
    for parent, state in _optimal_parents():
        fixed = np.setdiff1d(np.flatnonzero(parent.lower == parent.upper), state.basis)
        if fixed.size == 0:
            continue
        upper = parent.upper.copy()
        upper[fixed[0]] += 1.0
        seen[_assert_warm_matches_cold_and_highs(replace(parent, upper=upper), state)] += 1
    assert seen["optimal"] > 40


def test_child_that_unbounds_a_complemented_column_is_solved_warm():
    """A child that takes away the upper bound of a variable held
    complemented is malformed input, warm as cold: every column is boxed."""
    children = 0
    for parent, state in _optimal_parents():
        held = np.flatnonzero(state.flipped[:parent.num_vars])
        if held.size == 0:
            continue
        upper = parent.upper.copy()
        upper[held[0]] = INF
        child = replace(parent, upper=upper)
        for warm in (state, None):
            with pytest.raises(LpError, match=f"variable {held[0]} has no finite upper bound"):
                solve_lp(child, warm=warm)
        children += 1
    assert children > 80


def test_logical_at_its_implied_bound_matches_highs():
    """max x1 - x0 subject to x0 - x1 <= 3 and x0 + x1 + x2 = 2, x0 in
    [0, 2], x1 in [0, u], x2 in [0, 1], 1 <= u <= 2: the optimum takes x1
    to u, so the <= row's activity is its least, -u, and its logical sits
    at its upper bound 3 + u, rhs less that least activity. From the
    parent's u = 1.5, children that loosen or tighten u move that bound,
    warm as cold, and match HiGHS."""
    parent = LinearProgram(3, np.array([-1.0, 1.0, 0.0]), np.zeros(3),
                           np.array([2.0, 1.5, 1.0]),
                           np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 1.0]]), [LE, EQ],
                           np.array([3.0, 2.0]))
    state = solve_lp(parent)
    for u in (1.5, 2.0, 1.0):
        child = replace(parent, upper=np.array([2.0, u, 1.0]))
        assert _assert_warm_matches_cold_and_highs(child, state) == "optimal"
        for sol in (solve_lp(child, warm=state), solve_lp(child)):
            assert -sol.objective == pytest.approx(-u, abs=1e-9)
            logical = parent.rhs[0] - parent.A[0] @ sol.primal
            assert logical == pytest.approx(3.0 + u, abs=1e-9)


def test_singular_warm_basis_falls_back_to_cold():
    """A basis that repeats a column is singular: the child is solved cold."""
    net = init_mlp(6, [8, 8], 3, seed=0)
    x = np.random.default_rng(0).uniform(0, 1, 6)
    logits, _ = forward(net, x)
    k = int(np.argmax(logits))
    model = encode_adversarial(net, x, 0.3, k, runner_up(logits, k))
    state = solve_lp(model)
    z = np.flatnonzero(model.is_binary)[0]
    lower, upper = model.lower.copy(), model.upper.copy()
    lower[z] = upper[z] = 1.0
    child = replace(model, lower=lower, upper=upper)
    assert solve_lp(child, warm=state).warm
    singular = replace(state, basis=np.full_like(state.basis, state.basis[0]))
    warm, cold = solve_lp(child, warm=singular), solve_lp(child)
    assert not warm.warm
    assert (warm.status, warm.objective) == (cold.status, cold.objective)
    assert warm.objective == pytest.approx(highs(child)[1], rel=1e-7, abs=1e-7)


def _warm_child(model, lo, hi, parent):
    """The first feasible branch-and-bound child of the node (lo, hi) whose
    optimum is parent: the most fractional split indicator z fixed at 0 or
    1, pinning its vp or vm column at 0, solved warm from parent. Returns
    (child, its solution, z, the pinned column)."""
    splits = [(z, (vp, vm)) for vps, vms, zs in model.relu
              for vp, vm, z in zip(vps, vms, zs) if z >= 0]
    z, pins = min(splits, key=lambda split: abs(parent.primal[split[0]] - 0.5))
    assert 1e-6 < parent.primal[z] < 1 - 1e-6
    for val in (0, 1):
        child_lo, child_hi = lo.copy(), hi.copy()
        child_lo[z] = child_hi[z] = val
        child_hi[pins[val]] = 0.0
        child = replace(model, lower=child_lo, upper=child_hi)
        sol = solve_lp(child, warm=parent)
        assert sol.warm
        if sol.status == "optimal":
            return child, sol, z, pins[val]
    raise AssertionError("both branches are infeasible")


def test_warm_tableau_has_no_nonbasic_width_0_column(monkeypatch):
    """A warm child's tableau holds no column that cannot move out of the
    basis. The grandchild's, built on the child's optimum, holds neither the
    branched binary nor the pinned split column out of the basis, nor every
    equality row's logical. The grandchild still matches the cold solve and
    HiGHS."""
    net = init_mlp(6, [8, 8], 3, seed=0)
    x = np.random.default_rng(0).uniform(0, 1, 6)
    logits, _ = forward(net, x)
    k = int(np.argmax(logits))
    model = encode_adversarial(net, x, 0.3, k, runner_up(logits, k))
    root = solve_lp(model)
    tableaus = []
    standard_form = lp_mod._standard_form

    def recording(problem, rows, lo, up, src):
        tableaus.append((problem, src))
        return standard_form(problem, rows, lo, up, src)

    def assert_every_nonbasic_column_moves(basis):
        problem, src = tableaus[-1]  # the tableau of the last warm solve
        lo, up = np.concatenate([[problem.lower, problem.upper], root.rows.logical], axis=1)
        nonbasic = np.setdiff1d(src, basis)
        assert np.all(up[nonbasic] > lo[nonbasic])
        return src, nonbasic

    monkeypatch.setattr(lp_mod, "_standard_form", recording)
    child, state, z, pinned = _warm_child(model, model.lower, model.upper, root)
    assert_every_nonbasic_column_moves(root.basis)
    grandchild, warm, _, _ = _warm_child(model, child.lower, child.upper, state)
    src, nonbasic = assert_every_nonbasic_column_moves(state.basis)
    # z leaves the tableau; the pinned column here stays basic at 0
    assert z not in src and pinned not in nonbasic
    equalities = model.num_vars + np.flatnonzero(state.rows.logical[1] == 0.0)
    assert equalities.size and not np.isin(equalities, src).all()
    cold = solve_lp(grandchild)
    assert (warm.status, warm.objective) == (cold.status, pytest.approx(cold.objective, abs=1e-9))
    assert warm.objective == pytest.approx(highs(grandchild)[1], rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("delta", [1 / 255, 2 / 255, 5 / 255, 20 / 255])
@pytest.mark.parametrize("bounds_mode", ["interval", "obbt"])
def test_adversarial_relaxations_match_highs(delta, bounds_mode):
    net = init_mlp(196, [20, 20], 10, seed=0)
    x = np.random.default_rng(0).uniform(0, 1, 196)
    logits, _ = forward(net, x)
    k = int(np.argmax(logits))
    model = encode_adversarial(net, x, delta, k, runner_up(logits, k), bounds_mode=bounds_mode)
    assert assert_matches_highs(model) == "optimal"
    # Guards on the cold solve's work: a dual that stalls pivots far more
    # often than there are rows, and one without bound flipping pivots
    # boxed input columns across their box instead of flipping them.
    sol = solve_lp(model)
    assert sol.pivots <= 10 * len(model.constraints)
    if delta <= 5 / 255:
        assert sol.bound_flips > sol.pivots


def test_bound_flips_count_toward_iteration_limit(monkeypatch):
    """sum(x) = 6 over six [0, 1] columns: the dual simplex reaches it in one
    iteration, five bound flips and one pivot, and a dual stopped by the
    iteration limit says so with its counts. Two cones, max y1 + y2 with
    y_i <= sum(x_i) over six [0, 1] columns each and y_i in [0, 12]: the
    step that makes the tableau dual feasible flips both y to 12, and each
    of the two iterations pivots once and flips its cone's six x in its
    ratio test. Those flips count toward the limit as parts of their
    iteration: stopped after one, the dual reports its pivot and 2 + 6
    flips."""
    n = 6
    problem = LinearProgram(n, np.zeros(n), np.zeros(n), np.ones(n),
                            np.ones((1, n)), [EQ], np.array([float(n)]))
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert np.allclose(sol.primal, 1.0)
    assert (sol.pivots, sol.bound_flips) == (1, 5)

    rows = LinearProgram(n, np.zeros(n), np.zeros(n), np.full(n, 2.0),
                         np.eye(n), [EQ] * n, np.ones(n))
    assert solve_lp(rows).pivots == n
    y = np.eye(n + 1)[0]
    cones = LinearProgram(2 * (n + 1), np.tile(y, 2), np.zeros(2 * (n + 1)),
                          np.tile(np.r_[2.0 * n, np.ones(n)], 2),
                          np.kron(np.eye(2), y - (1 - y)), [LE, LE], np.zeros(2))
    sol = solve_lp(cones)
    assert sol.objective == pytest.approx(2 * n, abs=1e-9)
    assert (sol.pivots, sol.bound_flips) == (2, 2 + 2 * n)

    monkeypatch.setattr(lp_mod, "_MAX_ITER", 3)
    sol = solve_lp(rows)
    assert (sol.status, sol.pivots, sol.bound_flips) == ("iteration-limit", 4, 0)
    monkeypatch.setattr(lp_mod, "_MAX_ITER", 0)
    sol = solve_lp(cones)
    assert (sol.status, sol.pivots, sol.bound_flips) == ("iteration-limit", 1, 2 + n)


def test_bland_fallback_ends_the_root_lp_that_cycles(monkeypatch):
    """The root LP of the verify-desk base net (bench/nets/desk_base.json)
    at input 111 and delta 1, with OBBT bounds, as write_lp wrote it: 52
    rows and 61 columns. With the Bland fallback on from the first
    iteration, a leaving row picked by smallest basic variable and an
    entering column picked by largest |alpha| cycle to the iteration
    limit. Bland's rule enters the smallest column among tied ratios, and
    the solve ends optimal at HiGHS's optimum."""
    model = parse_lp((Path(__file__).parent / "data" / "desk_base_111_root.lp").read_text())
    assert model.A.shape == (52, 61)
    monkeypatch.setattr(lp_mod, "_BLAND_FACTOR", 0)
    sol = solve_lp(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(highs(model)[1], rel=1e-9, abs=1e-9)


def test_cold_root_lp_of_the_784_instance_ends_within_3x_highs_iterations():
    """The root LP of the 784 instance at delta 2/255 with OBBT bounds (an
    untrained 784-input 2x50 net, a uniform input, the box clamped to
    [0, 1]): the cold solve ends optimal at HiGHS's optimum, in at most 3x
    the iterations of HiGHS's dual simplex. A ratio test that took a single
    step whenever it could not pass its first breakpoint stalled here: 5,415
    pivots and about a million bound flips, against HiGHS's 178."""
    net = init_mlp(784, [50, 50], 10, seed=0)
    x = np.random.default_rng(0).uniform(0, 1, 784)
    logits, _ = forward(net, x)
    k = int(np.argmax(logits))
    model = encode_adversarial(net, x, 2 / 255, k, runner_up(logits, k), bounds_mode="obbt",
                               clamp=True)
    eq = np.asarray(model.relation) == EQ
    ds = linprog(-model.objective, A_ub=model.A[~eq], b_ub=model.rhs[~eq], A_eq=model.A[eq],
                 b_eq=model.rhs[eq], bounds=np.column_stack([model.lower, model.upper]),
                 method="highs-ds")
    assert ds.status == 0, ds.message
    sol = solve_lp(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-ds.fun, rel=1e-9, abs=1e-9)
    assert sol.pivots <= 3 * ds.nit
