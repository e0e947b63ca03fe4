"""Dense bounded-variable simplex for small linear programs in computational
form. Every solve starts from a basis, the logicals' basis or the final basis
of an LP with the same rows, and runs one path: a bounded dual simplex
with bound flipping, then the primal phase 2.

Serves as the LP kernel for bound tightening, branch-and-bound node
relaxations, and the activation-pattern enumeration oracle. solve_lp needs a
finite lower bound on every variable and raises LpError without one; an
upper bound may be math.inf, a real sentinel, never a large surrogate
constant. check_feasible takes any bounds.

An LP's rows are a matrix A (m x n, n = num_vars), a relation per row and
rhs. A cold solve reads them with one copy, A0 = [scale * A | I], where
scale negates a >= row into a <= row, and the right-hand sides scale * rhs.
Row i reads a_i x + s_i = rhs_i, its logical variable s_i in column n + i
of A0, bounded by the relation: [0, inf) for <=, [0, 0] for =. All
n + m variables then map alike: x = lo + x' with 0 <= x' <= up - lo, of
width 0 when x is fixed. A basis names one basic variable per row; the
logicals form one. Each solve takes its tableau columns from lp's own
bounds: one, in variable order, for every variable that can move or is
basic. A nonbasic variable of width 0 never moves and gets none. So the
right-hand side is rhs - A0 @ lo, and the primal lo plus x' at the
columns' variables.

The tableau has one row per constraint: bounds never become rows. A
nonbasic column sits at 0 or at its upper bound u. A column at u is
complemented (x -> u - x), which negates it and moves u * column into the
right-hand side, so every nonbasic column reads 0 in the tableau. Neither
simplex prices a column of width 0, which cannot move.

A solve takes six steps. (1) One dense solve of the basis against [A | b]
rebuilds the tableau. (2) Every boxed nonbasic column whose reduced cost has
the wrong sign is complemented; (3) an unboxed one gets its reduced cost
set to 0 (cost shifting), so the tableau is dual feasible. (4) The bounded
dual simplex lets the most infeasible basic variable (below 0 or above its
upper bound) leave; after _BLAND_FACTOR * (n + m) iterations, the
infeasible one of smallest column. Its ratio test passes the breakpoints of
boxed columns in ratio order while the leaving row stays infeasible with
them at their other bound, complements every passed column at once, and
enters at the first breakpoint it cannot pass, the largest |alpha| among
tied ratios. A row that stays infeasible with every breakpoint passed
proves the LP infeasible. A variable that leaves above its upper bound is
complemented. (5) If a cost was shifted, the true costs are priced again,
and (6) the primal phase 2 finishes; its ratio test stops where a basic
variable reaches either of its bounds or where the entering column reaches
its own, the last case a bound flip, an iteration without a pivot.

A solve ends with a status: "optimal", "infeasible", "unbounded", or
"iteration-limit" once the dual or the primal simplex passes _MAX_ITER
iterations. A primal iteration is a pivot or a bound flip, a dual one a
pivot with the flips of its ratio test. It raises LpError only for
malformed input.

Warm start. An optimal LpSolution carries its final state over the n + m
variables, not over its tableau columns: the read rows, the basic variable
of each row and the mask of complemented variables. solve_lp(lp,
warm=state) takes an optimal state, and only for the A, relation and rhs it
was read from (the same objects or equal ones); lp may change any bound. A
complemented column whose upper bound is now inf goes back to 0, and step
(2) or (3) then flips it or shifts its cost. Only a singular basis makes
the solve restart cold.
"""

import math
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
# times (variables + rows): Dantzig pricing until this many iterations, then
# Bland's rule (smallest index) in each simplex
_BLAND_FACTOR = 5
_MAX_ITER = 200_000

LE, EQ, GE = "<=", "=", ">="

Row = namedtuple("Row", "coeffs relation rhs")


class LpError(ValueError):
    """Malformed LP input: a dimension mismatch, a bad relation, a NaN bound,
    a non-finite objective entry, coefficient or rhs, a variable that
    solve_lp is given without a finite lower bound, or a warm state from
    other constraints or from a solve without an optimum."""


@dataclass
class LinearProgram:
    """Optimize objective . x subject to A x (relation) rhs, row by row, and
    lower <= x <= upper."""

    num_vars: int
    objective_sense: str  # "maximize" | "minimize"
    objective: np.ndarray
    lower: np.ndarray  # -inf allowed
    upper: np.ndarray  # +inf allowed
    A: np.ndarray  # rows x num_vars
    relation: np.ndarray  # per row: "<=", "=" or ">="
    rhs: np.ndarray

    @property
    def constraints(self):
        """The rows as a tuple of Row(coeffs, relation, rhs), coeffs a
        read-only row of A. It builds a tuple per row: the solver never
        calls it."""
        A = np.asarray(self.A, dtype=float).view()
        A.flags.writeable = False
        return tuple(map(Row, A, self.relation, self.rhs))


@dataclass(frozen=True)
class Rows:
    """The rows as read: lp's (A, relation, rhs), to recognise them, then A0
    over the variables and the logicals, the right-hand sides with a >= row
    negated, and the logicals' lower and upper bounds as a 2 x m array."""

    source: tuple
    A0: np.ndarray
    rhs: np.ndarray
    logical: np.ndarray


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration-limit"
    objective: float = None
    primal: np.ndarray = None
    pivots: int = 0
    bound_flips: int = 0  # moves of a nonbasic column to its other bound
    warm: bool = False  # solved from the warm state given, not restarted cold
    # final state of an optimal solve, to warm-start another
    rows: Rows = None
    basis: np.ndarray = None  # basic variable per row, an index into the n + m variables
    flipped: np.ndarray = None  # mask over the n + m variables: held complemented


def _check(lp):
    n, m = lp.num_vars, np.size(lp.rhs)
    if len(lp.objective) != n or len(lp.lower) != n or len(lp.upper) != n:
        raise LpError("objective/bounds length does not match num_vars")
    if (np.shape(lp.A), np.shape(lp.relation), np.shape(lp.rhs)) != ((m, n), (m,), (m,)):
        raise LpError(f"A, relation and rhs must have shapes ({m}, {n}), ({m},) and ({m},)")
    if lp.objective_sense not in ("maximize", "minimize"):
        raise LpError(f"unknown objective sense {lp.objective_sense!r}")
    if np.isnan(lp.lower).any() or np.isnan(lp.upper).any():
        raise LpError("a variable bound is NaN")
    if not np.isfinite(lp.objective).all():
        raise LpError("the objective has a non-finite coefficient")


def _read(lp):
    """Check lp and read its rows: (A0, rhs, logical bounds), A0 =
    [scale * A | I] with row i's logical in column num_vars + i and a >= row
    negated into <=."""
    _check(lp)
    A, rhs = np.asarray(lp.A, dtype=float), np.asarray(lp.rhs, dtype=float)
    relation = np.asarray(lp.relation, dtype=str)
    eq, ge = relation == EQ, relation == GE
    bad = np.flatnonzero(~(eq | ge | (relation == LE)))
    if bad.size:
        raise LpError(f"constraint {bad[0]}: unknown relation {str(relation[bad[0]])!r}")
    bad = np.flatnonzero(~(np.isfinite(A).all(axis=1) & np.isfinite(rhs)))
    if bad.size:
        raise LpError(f"constraint {bad[0]} has a non-finite coefficient or rhs")
    scale = np.where(ge, -1.0, 1.0)
    logical = np.zeros((2, rhs.size))
    logical[1, ~eq] = math.inf
    return np.hstack([scale[:, None] * A, np.eye(rhs.size)]), scale * rhs, logical


def check_feasible(lp, point, tol=FEAS_TOL):
    """True iff the point is finite and every bound and constraint holds
    within tol: the point and its logicals (rhs minus each row's activity)
    lie within their bounds."""
    A0, rhs, logical = _read(lp)
    x = np.asarray(point, dtype=float)
    if x.shape != (lp.num_vars,):
        raise LpError(f"point has length {x.size}, expected {lp.num_vars}")
    if not np.isfinite(x).all():
        return False
    lo, up = _bounds(lp, logical)
    xs = np.concatenate([x, rhs - A0[:, :x.size] @ x])
    return not (np.any(xs < lo - tol) or np.any(xs > up + tol))


def _pivot(T, basis, r, j):
    piv = T[r] / T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, piv)
    T[r] = piv
    basis[r - 1] = j


def _flip(T, ub, flipped, j):
    """Complement nonbasic column j (an index or an index array), moving it
    to its other bound."""
    T[:, -1] -= np.dot(T[:, j], ub[j])
    T[:, j] *= -1.0
    flipped[j] = ~flipped[j]


def _price(T, basis, cost):
    """Row 0: the reduced costs of cost in the basis, and minus its objective."""
    T[0, :-1] = cost
    T[0, -1] = 0.0
    T[0] -= cost[basis] @ T[1:]


def _ratio_test(T, basis, ub, j):
    """Step length along entering column j.

    Returns (row, leaves_at_upper) for a pivot, (0, False) for a bound flip
    of j itself, (-1, False) when the step is unbounded. Ties go to the
    smallest basic variable index.
    """
    col = T[1:, j]
    rhs = T[1:, -1]
    ratios = np.full(col.shape, math.inf)
    down = col > PIVOT_TOL  # basic variable falls toward 0
    ratios[down] = np.maximum(rhs[down], 0.0) / col[down]
    up = col < -PIVOT_TOL  # basic variable rises toward its upper bound
    ratios[up] = np.maximum(ub[basis[up]] - rhs[up], 0.0) / -col[up]
    best = ratios.min(initial=math.inf)
    if ub[j] <= best:
        return (0 if math.isfinite(ub[j]) else -1), False
    cand = np.flatnonzero(ratios <= best + 1e-12)
    r = int(cand[np.argmin(basis[cand])])
    return r + 1, bool(up[r])


def _run_simplex(T, basis, ub, flipped, bland_after, tally):
    """Minimize the row-0 objective in place. Returns 'optimal', 'unbounded'
    or 'iteration-limit'.

    Pivots and bound flips both count as iterations.
    """
    it = 0
    while True:
        if it > _MAX_ITER:
            return "iteration-limit"
        costs = np.where(ub > 0.0, T[0, :-1], 0.0)  # a column of width 0 cannot move
        if costs.size == 0:  # an LP without variables or rows
            return "optimal"
        if it >= bland_after:
            cand = np.flatnonzero(costs < -PIVOT_TOL)
            if cand.size == 0:
                return "optimal"
            j = int(cand[0])
        else:
            j = int(np.argmin(costs))
            if costs[j] >= -PIVOT_TOL:
                return "optimal"
        r, at_upper = _ratio_test(T, basis, ub, j)
        if r < 0:
            return "unbounded"
        if r == 0:
            _flip(T, ub, flipped, j)
            tally["flips"] += 1
        else:
            leaving = basis[r - 1]
            _pivot(T, basis, r, j)
            tally["pivots"] += 1
            if at_upper:
                _flip(T, ub, flipped, leaving)
        it += 1


def _run_dual(T, basis, ub, flipped, bland_after, tally):
    """Bounded dual simplex from a dual feasible tableau, in place. Returns
    'optimal' once the basis is primal feasible, 'infeasible' or
    'iteration-limit'.

    An iteration is one pivot plus the bound flips of its ratio test, which
    passes every breakpoint that leaves the leaving row infeasible.
    """
    movable = ub > 0.0  # a column of width 0 cannot move
    it = 0
    while True:
        x = T[1:, -1]
        excess = np.maximum(-x, x - ub[basis])
        if excess.max(initial=0.0) <= FEAS_TOL:
            return "optimal"
        if it > _MAX_ITER:
            return "iteration-limit"
        if it < bland_after:
            r = int(np.argmax(excess))
        else:
            rows = np.flatnonzero(excess > FEAS_TOL)
            r = int(rows[np.argmin(basis[rows])])
        high = bool(x[r] > ub[basis[r]])  # leaves at its upper bound
        alpha = T[r + 1, :-1] if high else -T[r + 1, :-1]
        can = (alpha > PIVOT_TOL) & movable  # columns that move the leaving one
        can[basis] = False
        cand = np.flatnonzero(can)
        if cand.size == 0:
            return "infeasible"
        ratios = np.maximum(T[0, cand], 0.0) / alpha[cand]
        tied = cand[ratios <= ratios.min() + 1e-12]
        j = int(tied[np.argmax(alpha[tied])])
        if excess[r] - ub[j] * alpha[j] > FEAS_TOL:  # j can be passed: walk the breakpoints
            order = np.lexsort((cand, ratios))
            slope = excess[r] - np.cumsum(ub[cand[order]] * alpha[cand[order]])
            k = int(np.count_nonzero(slope > FEAS_TOL))  # the slope only falls
            if k == cand.size:  # every bound passed and the row is still infeasible
                return "infeasible"
            _flip(T, ub, flipped, cand[order[:k]])
            tally["flips"] += k
            rest = order[k:]
            last = cand[rest[ratios[rest] <= ratios[rest[0]] + 1e-12]]
            j = int(last[np.argmax(alpha[last])])
        leaving = basis[r]
        _pivot(T, basis, r + 1, j)
        tally["pivots"] += 1
        if high:
            _flip(T, ub, flipped, leaving)
        it += 1


def _bounds(lp, logical):
    """Lower and upper bounds of the variables and then the logicals."""
    return np.concatenate([np.array([lp.lower, lp.upper], dtype=float), logical], axis=1)


def _standard_form(lp, rows, lo, up, src):
    """(A, b, ub, c2): lp on the columns of the variables src, with the
    column upper bounds and the phase-2 costs in the minimization sense."""
    n = lp.num_vars
    b = rows.rhs - rows.A0[:, :n] @ lo[:n]  # a logical's lower bound is 0
    sgn = -1.0 if lp.objective_sense == "maximize" else 1.0
    cost = np.zeros(lo.size)
    cost[:n] = lp.objective
    return rows.A0[:, src], b, up[src] - lo[src], sgn * cost[src]


def solve_lp(lp, warm=None):
    """Optimize lp. Deterministic.

    Cold (warm=None), the solve starts from the logicals' basis. With warm,
    an optimal LpSolution of an LP with the same rows (the same A, relation
    and rhs objects, or equal ones), it starts from warm's basic variables
    and complemented ones, and restarts from the logicals' basis only where
    warm's basis is singular for lp.
    A solve that ends without an optimum or a proof of infeasibility has
    status "unbounded" or "iteration-limit". A variable whose bounds admit a
    real value but whose lower bound is -inf raises LpError.
    """
    source = (lp.A, lp.relation, lp.rhs)
    if warm is None:
        rows = Rows(source, *_read(lp))
    else:
        _check(lp)
        rows = warm.rows
        if rows is None:
            raise LpError(f"the warm state is from a solve that ended {warm.status!r}")
        if not all(a is b or np.array_equal(a, b) for a, b in zip(source, rows.source)):
            raise LpError("the warm state is from an LP with other constraints")
    lo, up = _bounds(lp, rows.logical)
    if not np.all((lo <= up) & (lo < math.inf) & (up > -math.inf)):  # no real value fits
        return LpSolution("infeasible", warm=warm is not None)
    bad = np.flatnonzero(np.isneginf(lo))
    if bad.size:
        raise LpError(f"variable {bad[0]} has no finite lower bound")
    if warm is not None:
        sol = _solve(lp, rows, lo, up, warm.basis, warm.flipped, warm=True)
        if sol is not None:
            return sol
    return _solve(lp, rows, lo, up, np.arange(lp.num_vars, lo.size),
                  np.zeros(lo.size, dtype=bool), warm=False)


def _solve(lp, rows, lo, up, basis, flipped, warm):
    """Optimize lp from the given basic variables and complemented ones, on
    a column for every variable that can move or is basic; None where the
    basis is singular."""
    basic = np.zeros(lo.size, dtype=bool)
    basic[basis] = True
    src = np.flatnonzero((up > lo) | basic)
    A, b, ub, c2 = _standard_form(lp, rows, lo, up, src)
    basis = np.searchsorted(src, basis)
    flipped = flipped[src] & np.isfinite(ub)  # without an upper bound a column sits at 0
    b -= A[:, flipped] @ ub[flipped]
    A[:, flipped] *= -1.0
    rest = np.ones(A.shape[1] + 1, dtype=bool)
    rest[basis] = False
    T = np.zeros((basis.size + 1, A.shape[1] + 1))
    try:
        T[1:, rest] = np.linalg.solve(A[:, basis], np.column_stack([A, b])[:, rest])
    except np.linalg.LinAlgError:
        return None
    T[1:, basis] = np.eye(basis.size)
    _price(T, basis, np.where(flipped, -c2, c2))
    # Make the tableau dual feasible: a boxed column of the wrong sign moves
    # to its other bound, an unboxed one is priced at 0 until the dual ends.
    wrong = (T[0, :-1] < -PIVOT_TOL) & (ub > 0.0)
    wrong[basis] = False
    shifted = wrong & np.isposinf(ub)
    wrong &= ~shifted
    _flip(T, ub, flipped, np.flatnonzero(wrong))
    T[0, :-1][shifted] = 0.0
    tally = Counter(flips=int(wrong.sum()))
    bland_after = _BLAND_FACTOR * rows.A0.shape[1]
    status = _run_dual(T, basis, ub, flipped, bland_after, tally)
    if status == "optimal":
        if shifted.any():
            _price(T, basis, np.where(flipped, -c2, c2))
        status = _run_simplex(T, basis, ub, flipped, bland_after, tally)
    counts = {"pivots": tally["pivots"], "bound_flips": tally["flips"], "warm": warm}
    if status != "optimal":
        return LpSolution(status, **counts)
    vals = np.zeros(ub.size)
    vals[basis] = T[1:, -1]
    vals[flipped] = ub[flipped] - vals[flipped]
    x = lo.copy()
    x[src] += vals
    x = x[:lp.num_vars].copy()  # not a view: a branch-and-bound node keeps it
    obj = float(np.asarray(lp.objective, dtype=float) @ x)
    held = np.zeros(lo.size, dtype=bool)
    held[src] = flipped
    return LpSolution("optimal", obj, x, rows=rows, basis=src[basis], flipped=held, **counts)
