"""LP kernel tests: trivial cases, vertex-enumeration oracle, round trips."""

import itertools
import math

import numpy as np
import pytest

from prunemip.encode import parse_lp
from prunemip.lp import (
    EQ,
    GE,
    LE,
    Constraint,
    LinearProgram,
    LpError,
    check_feasible,
    solve_lp,
)

INF = math.inf
NAN = math.nan


def lp(n, sense, c, lo, hi, cons):
    return LinearProgram(n, sense, np.array(c, dtype=float),
                         np.array(lo, dtype=float), np.array(hi, dtype=float), cons)


def test_single_active_bound():
    sol = solve_lp(lp(1, "maximize", [1], [0], [INF], [Constraint({0: 1.0}, LE, 5.0)]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(5.0, abs=1e-9)


def test_empty_feasible_set():
    cons = [Constraint({0: 1.0}, LE, 1.0), Constraint({0: 1.0}, GE, 2.0)]
    assert solve_lp(lp(1, "maximize", [1], [0], [INF], cons)).status == "infeasible"
    for bound in (INF, -INF):  # no real x has x >= inf, or x <= -inf
        assert solve_lp(lp(1, "maximize", [1], [bound], [bound], cons[:1])).status == "infeasible"


def test_separable_box_maximum():
    cons = [Constraint({0: 1.0}, LE, 1.0), Constraint({1: 1.0}, LE, 2.0)]
    sol = solve_lp(lp(2, "maximize", [1, 1], [0, 0], [INF, INF], cons))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_unbounded():
    sol = solve_lp(lp(1, "maximize", [1], [0], [INF], []))
    assert sol.status == "unbounded"


def test_minimize_sense():
    sol = solve_lp(lp(1, "minimize", [1], [-3], [7], []))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)


def test_equality_constraint():
    cons = [Constraint({0: 1.0, 1: 1.0}, EQ, 4.0)]
    sol = solve_lp(lp(2, "maximize", [2, 1], [0, 0], [3, INF], cons))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(7.0, abs=1e-9)  # x=3, y=1


def test_malformed_dimensions_rejected():
    with pytest.raises(LpError):
        solve_lp(lp(1, "maximize", [1, 2], [0], [1], []))
    with pytest.raises(LpError):
        solve_lp(lp(1, "maximize", [1], [0], [1], [Constraint({3: 1.0}, LE, 0.0)]))
    with pytest.raises(LpError):  # would wrap around as a numpy index
        solve_lp(lp(2, "maximize", [1, 1], [0, 0], [1, 1], [Constraint({-1: 1.0}, LE, 0.0)]))
    with pytest.raises(LpError):
        solve_lp(lp(1, "sideways", [1], [0], [1], []))


def test_nan_bound_rejected():
    for lo, hi in ((NAN, 1.0), (0.0, NAN)):
        with pytest.raises(LpError):
            solve_lp(lp(1, "maximize", [1], [lo], [hi], []))
    with pytest.raises(LpError):  # the LP text "nan <= x <= 1.0"
        solve_lp(parse_lp("Maximize\n obj: 1.0 x\nSubject To\nBounds\n nan <= x <= 1.0\nEnd\n"))
    assert solve_lp(lp(1, "maximize", [1], [0], [INF], [])).status == "unbounded"


def test_variable_without_finite_lower_bound_rejected():
    """solve_lp shifts every variable by its lower bound: a free or an
    upper-only variable is malformed input, in an LP as in LP text."""
    for lo, hi in ((-INF, INF), (-INF, 1.0)):
        with pytest.raises(LpError, match="variable 1 has no finite lower bound"):
            solve_lp(lp(2, "maximize", [1, 1], [0, lo], [1, hi], [Constraint({1: 1.0}, LE, 0.0)]))
    for bound in (" y free", " y <= 1.0"):
        with pytest.raises(LpError):
            solve_lp(parse_lp(f"Maximize\n obj: 1.0 y\nSubject To\nBounds\n{bound}\nEnd\n"))


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_objective_rejected(value):
    with pytest.raises(LpError):
        solve_lp(lp(1, "maximize", [value], [0], [1], []))


@pytest.mark.parametrize("value", [NAN, INF])
def test_non_finite_coefficient_or_rhs_rejected(value):
    with pytest.raises(LpError):
        solve_lp(lp(1, "maximize", [1], [0], [INF], [Constraint({0: value}, LE, 1.0)]))
    with pytest.raises(LpError):
        solve_lp(lp(1, "maximize", [1], [0], [INF], [Constraint({0: 1.0}, LE, value)]))


def test_check_feasible_boundary_and_violation():
    problem = lp(1, "maximize", [1], [-INF], [INF], [Constraint({0: 1.0}, LE, 5.0)])
    assert check_feasible(problem, [5.0], 1e-9)
    assert not check_feasible(problem, [5.0 + 1e-3], 1e-9)
    with pytest.raises(LpError):
        check_feasible(problem, [1.0, 2.0], 1e-9)
    tol = 1e-6
    for relation, inside, outside in ((LE, [0.5], [2.0]), (GE, [-0.5], [-2.0]),
                                      (EQ, [0.5, -0.5], [2.0, -2.0])):
        # x0 + 2 x1 (relation) 5 at the boundary point (1, 2), moved along x0
        problem = lp(2, "maximize", [1, 1], [0, -INF], [4, INF],
                     [Constraint({0: 1.0, 1: 2.0}, relation, 5.0)])
        for step in inside:
            assert check_feasible(problem, [1.0 + step * tol, 2.0], tol), (relation, step)
        for step in outside:
            assert not check_feasible(problem, [1.0 + step * tol, 2.0], tol), (relation, step)
    # only a variable bound is violated: x0 in [0, 4], the row x0 + x1 = 4 holds
    problem = lp(2, "maximize", [1, 1], [0, -INF], [4, INF], [Constraint({0: 1.0, 1: 1.0}, EQ, 4.0)])
    for x0, feasible in ((4.0 + 0.5 * tol, True), (4.0 + 2 * tol, False),
                         (-0.5 * tol, True), (-2 * tol, False)):
        assert check_feasible(problem, [x0, 4.0 - x0], tol) == feasible, x0


def test_check_feasible_rejects_non_finite_point():
    """NaN fails every comparison and inf passes [0, inf): neither is a point."""
    boxed = lp(2, "maximize", [1, 1], [0, 0], [1, 1], [Constraint({0: 1.0, 1: 1.0}, LE, 2.0)])
    assert check_feasible(boxed, [0.5, 0.5])
    assert not check_feasible(boxed, [NAN, 0.5])
    half_line = lp(1, "maximize", [1], [0], [INF], [])
    assert check_feasible(half_line, [1e300])
    for value in (INF, -INF, NAN):
        assert not check_feasible(half_line, [value])


def _random_lp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 2 * n))
    c = rng.normal(size=n)
    lo = np.where(rng.random(n) < 0.8, rng.uniform(-3, 0, n), -3.0)  # 1 in 5 at the range's end
    hi = np.where(rng.random(n) < 0.8, rng.uniform(0, 3, n), INF)
    hi = np.maximum(hi, lo)
    cons = []
    for _ in range(m):
        coeffs = {j: float(rng.normal()) for j in rng.choice(n, rng.integers(1, n + 1),
                                                             replace=False)}
        rel = (LE, GE, EQ)[int(rng.integers(3))]
        cons.append(Constraint(coeffs, rel, float(rng.normal())))
    sense = "maximize" if rng.random() < 0.5 else "minimize"
    return lp(n, sense, c, lo, hi, cons)


def test_solutions_round_trip_check_feasible():
    optimal = 0
    for seed in range(100):
        problem = _random_lp(seed)
        sol = solve_lp(problem)
        if sol.status == "optimal":
            optimal += 1
            assert check_feasible(problem, sol.primal, 1e-7)
    assert optimal > 20  # the generator must exercise the optimal path


def _vertices(lo, hi, cons):
    """All vertices of a bounded polytope given by bounds + inequality rows."""
    n = len(lo)
    rows = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, lo[j], hi[j], "bound"))
    halfspaces = []  # (a, b) meaning a.x <= b
    for con in cons:
        a = np.zeros(n)
        for j, v in con.coeffs.items():
            a[j] = v
        if con.relation == LE:
            halfspaces.append((a, con.rhs))
        elif con.relation == GE:
            halfspaces.append((-a, -con.rhs))
        else:
            halfspaces.append((a, con.rhs))
            halfspaces.append((-a, -con.rhs))
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
        cons = [
            Constraint({j: float(rng.normal()) for j in range(n)},
                       LE, float(rng.uniform(0.5, 2.0)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        c = rng.normal(size=n)
        problem = lp(n, "maximize", c, lo, hi, cons)
        sol = solve_lp(problem)
        verts = _vertices(lo, hi, cons)
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
    cons = [Constraint({0: 1.0, 1: 1.0}, LE, 10.0)]
    sol = solve_lp(lp(2, "maximize", [1, 1], [2, 0], [2, 5], cons))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(7.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(2.0, abs=1e-9)


def test_warm_start_without_constraint_rows():
    """An LP with no rows ends with an empty basis, and its child still
    re-optimises from it."""
    parent = lp(2, "maximize", [1, -1], [0, 0], [1, 1], [])
    state = solve_lp(parent)
    assert state.objective == 1.0 and state.basis.size == 0
    child = lp(2, "maximize", [1, -1], [0, 0], [0.5, 1], [])
    sol = solve_lp(child, warm=state)
    assert sol.warm
    assert sol.status == "optimal"
    assert sol.objective == 0.5


def test_redundant_equality_keeps_a_basis():
    """x + y = 1 makes 2x + 2y + f = 2 redundant while f is fixed at 0: its
    width-0 logical stays basic at 0, so the optimum still carries a basis.
    With f fixed at 1 the rows contradict each other, which the warm solve
    proves from that basis, as the cold solve does."""
    cons = [Constraint({0: 1.0, 1: 1.0}, EQ, 1.0),
            Constraint({0: 2.0, 1: 2.0, 2: 1.0}, EQ, 2.0)]
    state = solve_lp(lp(3, "maximize", [1, 0, 0], [0, 0, 0], [1, 1, 0], cons))
    assert state.status == "optimal" and state.objective == pytest.approx(1.0, abs=1e-9)
    assert state.basis.size == 2
    assert 3 + 1 in state.columns.src[state.basis]  # the second row's logical
    child = lp(3, "maximize", [1, 0, 0], [0, 0, 1], [1, 1, 1], cons)
    sol = solve_lp(child, warm=state)
    assert sol.status == "infeasible" and sol.warm
    assert solve_lp(child).status == "infeasible"


def test_warm_state_from_other_constraints_rejected():
    """max x with x <= 2 and with x <= 7 have the same shape; the state of
    the first would give the second 2, not 7. An equal constraint list,
    not only the same one, serves. A solve without an optimum leaves no
    state to start from."""
    a = lp(1, "maximize", [1], [0], [INF], [Constraint({0: 1.0}, LE, 2.0)])
    b = lp(1, "maximize", [1], [0], [INF], [Constraint({0: 1.0}, LE, 7.0)])
    state = solve_lp(a)
    with pytest.raises(LpError, match="other constraints"):
        solve_lp(b, warm=state)
    assert solve_lp(b).objective == pytest.approx(7.0, abs=1e-9)
    again = lp(1, "maximize", [1], [0], [1.5], [Constraint({0: 1.0}, LE, 2.0)])
    assert again.constraints is not a.constraints
    sol = solve_lp(again, warm=state)
    assert sol.warm and sol.objective == pytest.approx(1.5, abs=1e-9)
    for relation, status in ((LE, "infeasible"), (GE, "unbounded")):
        # x <= -1 has no point with x >= 0; max x with x >= -1 has no optimum
        failed = lp(1, "maximize", [1], [0], [INF], [Constraint({0: 1.0}, relation, -1.0)])
        state = solve_lp(failed)
        assert state.status == status
        with pytest.raises(LpError, match=status):
            solve_lp(failed, warm=state)
