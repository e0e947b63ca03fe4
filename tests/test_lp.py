"""LP kernel tests: trivial cases, vertex-enumeration oracle, round trips."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from prunemip.encode import parse_lp
from prunemip.lp import (
    EQ,
    FEAS_TOL,
    LE,
    LinearProgram,
    LpError,
    LpSolution,
    check_feasible,
    solve_lp,
)

INF = math.inf
NAN = math.nan


def lp(n, c, lo, hi, A=None, relation=(), rhs=()):
    """The LP max c.x with rows A x (relation) rhs; without A it has none."""
    return LinearProgram(n, np.array(c, dtype=float),
                         np.array(lo, dtype=float), np.array(hi, dtype=float),
                         np.zeros((0, n)) if A is None else np.array(A, dtype=float),
                         list(relation), np.array(rhs, dtype=float))


def test_single_active_bound():
    sol = solve_lp(lp(1, [1], [0], [10], [[1.0]], [LE], [5.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(5.0, abs=1e-9)


def test_empty_feasible_set():
    rows = [[1.0], [-1.0]], [LE, LE], [1.0, -2.0]  # x <= 1 and x >= 2
    assert solve_lp(lp(1, [1], [0], [10], *rows)).status == "infeasible"
    first = [part[:1] for part in rows]
    for bound in (INF, -INF):  # no real x has x >= inf, or x <= -inf
        assert solve_lp(lp(1, [1], [bound], [bound], *first)).status == "infeasible"


def test_separable_box_maximum():
    sol = solve_lp(lp(2, [1, 1], [0, 0], [10, 10], np.eye(2), [LE, LE], [1.0, 2.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_unbounded():
    """max x over x >= 0 has no optimum, and solve_lp takes no variable
    without a finite upper bound."""
    with pytest.raises(LpError, match="variable 0 has no finite upper bound"):
        solve_lp(lp(1, [1], [0], [INF]))


def test_minimize_sense():
    """min x is max -x."""
    sol = solve_lp(lp(1, [-1], [-3], [7]))
    assert sol.status == "optimal"
    assert -sol.objective == pytest.approx(-3.0, abs=1e-9)


def test_equality_constraint():
    sol = solve_lp(lp(2, [2, 1], [0, 0], [3, 10], [[1.0, 1.0]], [EQ], [4.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(7.0, abs=1e-9)  # x=3, y=1


def test_malformed_dimensions_rejected():
    with pytest.raises(LpError):
        solve_lp(lp(1, [1, 2], [0], [1]))
    with pytest.raises(LpError, match="shapes"):  # a row longer than num_vars
        solve_lp(lp(1, [1], [0], [1], [[0.0, 0.0, 0.0, 1.0]], [LE], [0.0]))
    with pytest.raises(LpError, match="shapes"):  # a row shorter than num_vars
        solve_lp(lp(2, [1, 1], [0, 0], [1, 1], [[1.0]], [LE], [0.0]))
    with pytest.raises(LpError, match="shapes"):  # a relation without a row
        solve_lp(lp(1, [1], [0], [1], [[1.0]], [LE, LE], [0.0]))
    with pytest.raises(LpError, match="shapes"):  # a row without a right-hand side
        check_feasible(lp(1, [1], [0], [1], [[1.0]], [LE]), [0.0])
    for relation in ("<", ">="):  # a >= row is written as a <= row
        with pytest.raises(LpError, match=f"unknown relation {relation!r}"):
            solve_lp(lp(1, [1], [0], [1], [[1.0]], [relation], [0.0]))


def test_nan_bound_rejected():
    for lo, hi in ((NAN, 1.0), (0.0, NAN)):
        with pytest.raises(LpError):
            solve_lp(lp(1, [1], [lo], [hi]))
    with pytest.raises(LpError):  # the LP text "nan <= x <= 1.0"
        solve_lp(parse_lp("Maximize\n obj: 1.0 x\nSubject To\nBounds\n nan <= x <= 1.0\nEnd\n"))
    with pytest.raises(LpError, match="no finite upper bound"):  # inf is a bound, not NaN
        solve_lp(lp(1, [1], [0], [INF]))


# per side: (lower, upper) of variable 1 for an LP, and the bound lines of
# LP text, without a finite bound on that side
UNBOXED = {"lower": (((-INF, INF), (-INF, 1.0)), (" y free", " y <= 1.0")),
           "upper": (((0.0, INF),), (" y >= 0.0",))}


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_variable_without_finite_bound_rejected(side):
    """Every column is boxed: a free variable, or one without a finite
    lower or upper bound, is malformed input, cold, as a warm child of a
    boxed parent, and in LP text, whose Bounds line parse_lp rejects."""
    pairs, lines = UNBOXED[side]
    rows = [[0.0, 1.0]], [LE], [0.0]
    parent = lp(2, [1, 1], [0, 0], [1, 1], *rows)
    state = solve_lp(parent)
    assert state.status == "optimal"
    for lo, hi in pairs:
        child = lp(2, [1, 1], [0, lo], [1, hi], *rows)
        for warm in (None, state):
            with pytest.raises(LpError, match=f"variable 1 has no finite {side} bound"):
                solve_lp(child, warm=warm)
    for bound in lines:
        with pytest.raises(ValueError, match=f"malformed bounds line {bound.strip()!r}"):
            parse_lp(f"Maximize\n obj: 1.0 y\nSubject To\nBounds\n{bound}\nEnd\n")


def test_row_whose_least_activity_exceeds_its_rhs_is_infeasible():
    """x0 - x1 <= rhs over x0 in [1, 2], x1 in [0, 1]: the row's least
    activity is 0. Above FEAS_TOL it exceeds rhs = -1, so no point fits,
    cold or warm; within FEAS_TOL the row's logical is fixed at 0 and the
    one point fits."""
    bounds = [1, 0], [2, 1]
    parent = lp(2, [1, 1], *bounds, [[1.0, -1.0]], [LE], [1.0])
    state = solve_lp(parent)
    assert state.status == "optimal" and state.objective == pytest.approx(3.0, abs=1e-9)
    for rhs in (-1.0, -2 * FEAS_TOL):
        problem = replace(parent, rhs=np.array([rhs]))
        assert solve_lp(problem).status == "infeasible"
    child = replace(parent, upper=np.array([2.0, 0.5]), lower=np.array([1.6, 0.0]))
    sol = solve_lp(child, warm=state)  # least activity 1.6 - 0.5 > 1
    assert sol.warm and sol.status == "infeasible"
    sol = solve_lp(replace(parent, rhs=np.array([-0.5 * FEAS_TOL])))
    assert sol.status == "optimal"
    assert np.allclose(sol.primal, [1.0, 1.0]) and sol.objective == pytest.approx(2.0)


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_objective_rejected(value):
    with pytest.raises(LpError):
        solve_lp(lp(1, [value], [0], [1]))


@pytest.mark.parametrize("value", [NAN, INF])
def test_non_finite_coefficient_or_rhs_rejected(value):
    with pytest.raises(LpError):
        solve_lp(lp(1, [1], [0], [10], [[value]], [LE], [1.0]))
    with pytest.raises(LpError):
        solve_lp(lp(1, [1], [0], [10], [[1.0]], [LE], [value]))


def test_check_feasible_boundary_and_violation():
    problem = lp(1, [1], [-INF], [INF], [[1.0]], [LE], [5.0])
    assert check_feasible(problem, [5.0], 1e-9)
    assert not check_feasible(problem, [5.0 + 1e-3], 1e-9)
    with pytest.raises(LpError):
        check_feasible(problem, [1.0, 2.0], 1e-9)
    tol = 1e-6
    for sign, relation, inside, outside in ((1.0, LE, [0.5], [2.0]), (-1.0, LE, [-0.5], [-2.0]),
                                            (1.0, EQ, [0.5, -0.5], [2.0, -2.0])):
        # x0 + 2 x1 (relation) 5 at the boundary point (1, 2), moved along
        # x0; sign -1 makes the row x0 + 2 x1 >= 5
        problem = lp(2, [1, 1], [0, -INF], [4, INF], [[sign, 2.0 * sign]], [relation],
                     [5.0 * sign])
        for step in inside:
            assert check_feasible(problem, [1.0 + step * tol, 2.0], tol), (relation, step)
        for step in outside:
            assert not check_feasible(problem, [1.0 + step * tol, 2.0], tol), (relation, step)
    # only a variable bound is violated: x0 in [0, 4], the row x0 + x1 = 4 holds
    problem = lp(2, [1, 1], [0, -INF], [4, INF], [[1.0, 1.0]], [EQ], [4.0])
    for x0, feasible in ((4.0 + 0.5 * tol, True), (4.0 + 2 * tol, False),
                         (-0.5 * tol, True), (-2 * tol, False)):
        assert check_feasible(problem, [x0, 4.0 - x0], tol) == feasible, x0


def test_check_feasible_rejects_non_finite_point():
    """NaN fails every comparison and inf passes [0, inf): neither is a point."""
    boxed = lp(2, [1, 1], [0, 0], [1, 1], [[1.0, 1.0]], [LE], [2.0])
    assert check_feasible(boxed, [0.5, 0.5])
    assert not check_feasible(boxed, [NAN, 0.5])
    half_line = lp(1, [1], [0], [INF])
    assert check_feasible(half_line, [1e300])
    for value in (INF, -INF, NAN):
        assert not check_feasible(half_line, [value])


def _random_lp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 2 * n))
    c = rng.normal(size=n)
    lo = np.where(rng.random(n) < 0.8, rng.uniform(-3, 0, n), -3.0)  # 1 in 5 at the range's end
    hi = np.where(rng.random(n) < 0.8, rng.uniform(0, 3, n), 3.0)
    hi = np.maximum(hi, lo)
    A, relation, rhs = np.zeros((m, n)), [], []
    for row in A:
        for j in rng.choice(n, rng.integers(1, n + 1), replace=False):
            row[j] = rng.normal()
        relation.append(("<=", ">=", EQ)[int(rng.integers(3))])
        rhs.append(float(rng.normal()))
        if relation[-1] == ">=":  # as the <= row -row <= -rhs
            row *= -1.0
            relation[-1], rhs[-1] = LE, -rhs[-1]
    minimize = rng.random() >= 0.5  # as max -c.x
    return lp(n, -c if minimize else c, lo, hi, A, relation, rhs)


def test_solutions_round_trip_check_feasible():
    optimal = 0
    for seed in range(100):
        problem = _random_lp(seed)
        sol = solve_lp(problem)
        if sol.status == "optimal":
            optimal += 1
            assert check_feasible(problem, sol.primal, 1e-7)
    assert optimal > 20  # the generator must exercise the optimal path


def _vertices(lo, hi, A, relation, rhs):
    """All vertices of a bounded polytope given by bounds + rows."""
    n = len(lo)
    rows = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, lo[j], hi[j], "bound"))
    halfspaces = []  # (a, b) meaning a.x <= b
    for a, rel, b in zip(A, relation, rhs):
        if rel == LE:
            halfspaces.append((a, b))
        else:
            halfspaces.append((a, b))
            halfspaces.append((-a, -b))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        halfspaces.append((e, hi[j]))
        halfspaces.append((-e, -lo[j]))
    A = np.array([a for a, _ in halfspaces])
    b = np.array([v for _, v in halfspaces])
    verts = []
    for idx in itertools.combinations(range(len(halfspaces)), n):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ v <= b + 1e-7):
            verts.append(v)
    return verts


def test_vertex_enumeration_oracle():
    """Bounded polytopes with <= 6 vars: simplex matches the best vertex."""
    checked = 0
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 5))
        lo = rng.uniform(-2, 0, n)
        hi = rng.uniform(0.5, 2.5, n)
        A, rhs = [], []
        for _ in range(int(rng.integers(1, 4))):
            A.append(rng.normal(size=n))
            rhs.append(float(rng.uniform(0.5, 2.0)))
        c = rng.normal(size=n)
        problem = lp(n, c, lo, hi, A, [LE] * len(rhs), rhs)
        sol = solve_lp(problem)
        verts = _vertices(lo, hi, problem.A, problem.relation, problem.rhs)
        if not verts:
            assert sol.status == "infeasible"
            continue
        best = max(c @ v for v in verts)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(best, abs=1e-7)
        checked += 1
    assert checked >= 30


def test_determinism_bit_identical():
    for seed in (3, 17, 29):
        problem = _random_lp(seed)
        a, b = solve_lp(problem), solve_lp(problem)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.objective == b.objective  # 0 ulp
            assert np.array_equal(a.primal, b.primal)


def test_degenerate_fixed_variable():
    sol = solve_lp(lp(2, [1, 1], [2, 0], [2, 5], [[1.0, 1.0]], [LE], [10.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(7.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(2.0, abs=1e-9)


def test_warm_start_without_constraint_rows():
    """An LP with no rows ends with an empty basis, and its child still
    re-optimises from it."""
    parent = lp(2, [1, -1], [0, 0], [1, 1])
    state = solve_lp(parent)
    assert state.objective == 1.0 and state.basis.size == 0
    child = lp(2, [1, -1], [0, 0], [0.5, 1])
    sol = solve_lp(child, warm=state)
    assert sol.warm
    assert sol.status == "optimal"
    assert sol.objective == 0.5


def test_redundant_equality_keeps_a_basis():
    """x + y = 1 makes 2x + 2y + f = 2 redundant while f is fixed at 0: its
    width-0 logical stays basic at 0, so the optimum still carries a basis.
    With f fixed at 1 the rows contradict each other, which the warm solve
    proves from that basis, as the cold solve does."""
    rows = [[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]], [EQ, EQ], [1.0, 2.0]
    state = solve_lp(lp(3, [1, 0, 0], [0, 0, 0], [1, 1, 0], *rows))
    assert state.status == "optimal" and state.objective == pytest.approx(1.0, abs=1e-9)
    assert state.basis.size == 2
    assert 3 + 1 in state.basis  # the second row's logical
    child = lp(3, [1, 0, 0], [0, 0, 1], [1, 1, 1], *rows)
    sol = solve_lp(child, warm=state)
    assert sol.status == "infeasible" and sol.warm
    assert solve_lp(child).status == "infeasible"


def test_warm_state_from_other_constraints_rejected():
    """max x with x <= 2 and with x <= 7 have the same shape; the state of
    the first would give the second 2, not 7. So would x = 2, the same A
    and rhs under another relation. The same A, relation and rhs objects
    serve, and so do equal ones. A solve without an optimum leaves no state
    to start from."""
    a = lp(1, [1], [0], [10], [[1.0]], [LE], [2.0])
    b = lp(1, [1], [0], [10], [[1.0]], [LE], [7.0])
    state = solve_lp(a)
    with pytest.raises(LpError, match="other constraints"):
        solve_lp(b, warm=state)
    assert solve_lp(b).objective == pytest.approx(7.0, abs=1e-9)
    eq = replace(a, relation=[EQ])
    with pytest.raises(LpError, match="other constraints"):
        solve_lp(eq, warm=state)
    sol = solve_lp(replace(a, upper=np.array([1.5])), warm=state)
    assert sol.warm and sol.objective == pytest.approx(1.5, abs=1e-9)
    again = lp(1, [1], [0], [1.5], [[1.0]], [LE], [2.0])
    assert again.A is not a.A and again.relation is not a.relation and again.rhs is not a.rhs
    sol = solve_lp(again, warm=state)
    assert sol.warm and sol.objective == pytest.approx(1.5, abs=1e-9)
    failed = lp(1, [1], [0], [10], [[1.0]], [LE], [-1.0])  # x <= -1, x >= 0
    for state in (solve_lp(failed), LpSolution("iteration-limit")):
        assert state.status in ("infeasible", "iteration-limit")
        with pytest.raises(LpError, match=state.status):
            solve_lp(failed, warm=state)


def test_row_view_reads_the_arrays():
    """LinearProgram.constraints yields Row(A[i], relation[i], rhs[i]) per
    row, and its coefficient rows cannot write to A."""
    problem = lp(3, [1, 0, 0], [0, 0, 0], [1, 1, 1],
                 [[-1.0, 0.0, 2.0], [0.0, 3.0, 0.0]], [LE, EQ], [-1.0, 4.0])
    rows = problem.constraints
    assert len(rows) == 2
    for row, a, relation, rhs in zip(rows, problem.A, problem.relation, problem.rhs):
        coeffs, rel, b = row
        assert np.array_equal(coeffs, a) and coeffs is row.coeffs
        assert rel == row.relation == relation and b == row.rhs == rhs
        with pytest.raises(ValueError):
            coeffs[0] = 5.0
    assert [row.relation for row in rows] == [LE, EQ]
    assert problem.A[0, 0] == -1.0
    assert lp(2, [1, 1], [0, 0], [1, 1]).constraints == ()
