"""solve_lp against HiGHS (scipy.optimize.linprog) on random LPs that mix the
bound kinds solve_lp takes and every relation, on their children solved warm
from the parent's basis, and on the encoder's adversarial LP relaxations."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import prunemip.lp as lp_mod
from prunemip.encode import encode_adversarial
from prunemip.lp import EQ, GE, LE, Constraint, LinearProgram, check_feasible, solve_lp
from prunemip.nn import forward, init_mlp
from prunemip.verify import runner_up

linprog = pytest.importorskip("scipy.optimize").linprog

INF = math.inf
# a draw picks one of five entries; solve_lp needs a finite lower bound, so
# the boxed and the lower-bounded kind take two entries each
BOUND_KINDS = ("boxed", "lower", "boxed", "lower", "fixed")


def highs(problem):
    """(status, objective) of the same LP solved by HiGHS."""
    n = problem.num_vars
    sign = -1.0 if problem.objective_sense == "maximize" else 1.0
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for con in problem.constraints:
        row = np.zeros(n)
        for j, a in con.coeffs.items():
            row[j] += a
        if con.relation == EQ:
            eq_rows.append(row)
            eq_rhs.append(con.rhs)
        else:
            flip = -1.0 if con.relation == GE else 1.0
            ub_rows.append(flip * row)
            ub_rhs.append(flip * con.rhs)
    bounds = [(None if lo == -INF else lo, None if hi == INF else hi)
              for lo, hi in zip(problem.lower, problem.upper)]
    kwargs = dict(A_ub=np.array(ub_rows).reshape(-1, n) if ub_rows else None,
                  b_ub=ub_rhs or None,
                  A_eq=np.array(eq_rows).reshape(-1, n) if eq_rows else None,
                  b_eq=eq_rhs or None, bounds=bounds, method="highs")
    res = linprog(sign * np.asarray(problem.objective, dtype=float), **kwargs)
    if res.status == 0:
        return "optimal", sign * res.fun
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
        lo[j], hi[j] = {"boxed": (a, b), "lower": (a, INF), "fixed": (a, a)}[kind]
    return lo, hi


def random_lp(seed):
    """Random relations and right-hand sides: optimal, infeasible and
    unbounded LPs all occur."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    lo, hi = _bounds(rng, n)
    cons = []
    for _ in range(int(rng.integers(1, 2 * n))):
        cols = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        cons.append(Constraint({int(j): float(rng.normal()) for j in cols},
                               (LE, GE, EQ)[int(rng.integers(3))], float(rng.normal())))
    sense = ("maximize", "minimize")[int(rng.integers(2))]
    return LinearProgram(n, sense, rng.normal(size=n), lo, hi, cons)


def degenerate_lp(seed):
    """Many constraints tight at one point inside the bounds, some of them
    repeated, so the optimum sits on a degenerate vertex."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    lo, hi = _bounds(rng, n)
    v = lo.copy()
    boxed = np.isfinite(hi)
    v[boxed] = np.round(0.5 * (lo[boxed] + hi[boxed]), 1)
    cons = []
    for _ in range(int(rng.integers(n, 3 * n))):
        a = np.round(rng.normal(size=n), 1)
        rel = EQ if rng.random() < 0.2 else (LE, GE)[int(rng.integers(2))]
        con = Constraint({j: float(a[j]) for j in range(n) if a[j] != 0.0}, rel, float(a @ v))
        cons += [con] * int(rng.integers(1, 3))
    sense = ("maximize", "minimize")[int(rng.integers(2))]
    return LinearProgram(n, sense, np.round(rng.normal(size=n), 1), lo, hi, cons)


def test_random_lps_match_highs():
    seen = {assert_matches_highs(random_lp(seed)) for seed in range(300)}
    assert seen == {"optimal", "infeasible", "unbounded"}


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


def test_warm_children_match_cold_and_highs(monkeypatch):
    """Warm solves agree with the cold solve and with HiGHS, and none restarts
    cold. A child that differs from its parent only in bounds keeps the
    parent's reduced costs, so where it is solved warm the dual simplex alone
    reaches the optimum and the primal phase 2 after it makes no iteration;
    a new objective may need phase 2."""
    primal_iterations = []
    run_simplex = lp_mod._run_simplex

    def counting(T, basis, ub, flipped, bland_after, tally):
        before = sum(tally.values())
        status = run_simplex(T, basis, ub, flipped, bland_after, tally)
        primal_iterations.append(sum(tally.values()) - before)
        return status

    monkeypatch.setattr(lp_mod, "_run_simplex", counting)
    seen = Counter()
    for seed in range(300):
        for parent in (random_lp(seed), degenerate_lp(seed)):
            state = solve_lp(parent)
            if state.status != "optimal":
                continue
            for i, child in enumerate(warm_children(parent, state.primal, seed)):
                primal_iterations.clear()
                warm = solve_lp(child, warm=state)
                if i < 4 and warm.warm and warm.status == "optimal":
                    assert primal_iterations == [0]
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
    assert seen["unbounded", True] > 0
    assert all(warm for _, warm in seen)


def test_child_that_unfixes_a_dropped_column_restarts_cold():
    """An optimal state drops a fixed variable's nonbasic column. A child
    that gives that variable room again has no column for it, so it is
    solved from the logicals' basis, like the cold solve, and matches
    HiGHS."""
    seen = Counter()
    for seed in range(300):
        for parent in (random_lp(seed), degenerate_lp(seed)):
            state = solve_lp(parent)
            if state.status != "optimal":
                continue
            dropped = np.setdiff1d(np.arange(parent.num_vars), state.columns.src)
            if dropped.size == 0:
                continue
            upper = parent.upper.copy()
            upper[dropped[0]] += 1.0
            child = replace(parent, upper=upper)
            warm, cold = solve_lp(child, warm=state), solve_lp(child)
            status, obj = highs(child)
            assert not warm.warm
            assert (warm.status, warm.objective) == (cold.status, cold.objective) == (
                status, pytest.approx(obj, rel=1e-7, abs=1e-7))
            seen[status] += 1
    assert seen["optimal"] > 40


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


def test_warm_state_drops_every_nonbasic_width_0_column():
    """A warm child's optimum keeps no column that cannot move out of the
    basis: not the branched binary, not the pinned split column, not an
    equality row's logical. Its own child, solved warm from that state,
    still matches the cold solve and HiGHS."""
    net = init_mlp(6, [8, 8], 3, seed=0)
    x = np.random.default_rng(0).uniform(0, 1, 6)
    logits, _ = forward(net, x)
    k = int(np.argmax(logits))
    model = encode_adversarial(net, x, 0.3, k, runner_up(logits, k))
    child, state, z, pinned = _warm_child(model, model.lower, model.upper, solve_lp(model))
    cols = state.columns
    lo, up = np.concatenate([[child.lower, child.upper], cols.logical], axis=1)
    nonbasic = np.ones(cols.src.size, dtype=bool)
    nonbasic[state.basis] = False
    assert np.all(up[cols.src[nonbasic]] > lo[cols.src[nonbasic]])
    # z leaves the state; the pinned column here stays basic at 0
    assert z not in cols.src and pinned not in cols.src[nonbasic]
    equalities = model.num_vars + np.flatnonzero(cols.logical[1] == 0.0)
    assert equalities.size and not np.isin(equalities, cols.src).all()
    grandchild, warm, _, _ = _warm_child(model, child.lower, child.upper, state)
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
    iteration limit says so with its counts. max y with y <= sum(x), y >= 0:
    the dual has nothing to do, and phase 2 takes one pivot and six bound
    flips, which count toward the limit as iterations."""
    n = 6
    problem = LinearProgram(n, "maximize", np.zeros(n), np.zeros(n), np.ones(n),
                            [Constraint({j: 1.0 for j in range(n)}, EQ, float(n))])
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert np.allclose(sol.primal, 1.0)
    assert (sol.pivots, sol.bound_flips) == (1, 5)

    rows = LinearProgram(n, "maximize", np.zeros(n), np.zeros(n), np.full(n, 2.0),
                         [Constraint({j: 1.0}, EQ, 1.0) for j in range(n)])
    assert solve_lp(rows).pivots == n
    cone = LinearProgram(n + 1, "maximize", np.eye(n + 1)[0], np.zeros(n + 1),
                         np.r_[INF, np.ones(n)],
                         [Constraint({0: 1.0, **{j: -1.0 for j in range(1, n + 1)}}, LE, 0.0)])
    sol = solve_lp(cone)
    assert sol.objective == pytest.approx(n, abs=1e-9)
    assert (sol.pivots, sol.bound_flips) == (1, n)

    monkeypatch.setattr(lp_mod, "_MAX_ITER", 3)
    sol = solve_lp(rows)
    assert (sol.status, sol.pivots, sol.bound_flips) == ("iteration-limit", 4, 0)
    sol = solve_lp(cone)
    assert (sol.status, sol.pivots, sol.bound_flips) == ("iteration-limit", 1, 3)
