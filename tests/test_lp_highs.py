"""solve_lp against HiGHS (scipy.optimize.linprog) on random LPs that mix every
bound kind and relation, and on the encoder's adversarial LP relaxations."""

import math

import numpy as np
import pytest

import prunemip.lp as lp_mod
from prunemip.encode import encode_adversarial
from prunemip.lp import EQ, GE, LE, Constraint, LinearProgram, LpError, solve_lp
from prunemip.nn import forward, init_mlp
from prunemip.verify import runner_up

linprog = pytest.importorskip("scipy.optimize").linprog

INF = math.inf
BOUND_KINDS = ("boxed", "lower", "upper", "free", "fixed")


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
        lo[j], hi[j] = {"boxed": (a, b), "lower": (a, INF), "upper": (-INF, b),
                        "free": (-INF, INF), "fixed": (a, a)}[kind]
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
    v = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    boxed = np.isfinite(lo) & np.isfinite(hi)
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


@pytest.mark.parametrize("delta", [1 / 255, 2 / 255, 5 / 255, 20 / 255])
@pytest.mark.parametrize("bounds_mode", ["interval", "obbt"])
def test_adversarial_relaxations_match_highs(delta, bounds_mode):
    net = init_mlp(196, [20, 20], 10, seed=0)
    x = np.random.default_rng(0).uniform(0, 1, 196)
    logits, _ = forward(net, x)
    k = int(np.argmax(logits))
    model = encode_adversarial(net, x, delta, k, runner_up(logits, k), bounds_mode=bounds_mode)
    assert assert_matches_highs(model) == "optimal"


def test_bound_flips_count_toward_iteration_limit(monkeypatch):
    """sum(x) = 6 over six [0, 1] columns: phase 1 reaches it by six bound
    flips and no pivot, and those flips alone exceed a limit of three."""
    n = 6
    problem = LinearProgram(n, "maximize", np.zeros(n), np.zeros(n), np.ones(n),
                            [Constraint({j: 1.0 for j in range(n)}, EQ, float(n))])
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert np.allclose(sol.primal, 1.0)

    def no_pivot(*args):
        raise AssertionError("a pivot was made")

    monkeypatch.setattr(lp_mod, "_pivot", no_pivot)
    monkeypatch.setattr(lp_mod, "_MAX_ITER", 3)
    with pytest.raises(LpError, match="iteration limit"):
        solve_lp(problem)
