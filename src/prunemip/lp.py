"""Dense bounded dual simplex for small linear programs in computational
form. Every solve starts from a basis, the logicals' basis or the final basis
of an LP with the same rows, and runs one path: the bounded dual simplex
with bound flipping.

Serves as the LP kernel for bound tightening, branch-and-bound node
relaxations, and the activation-pattern enumeration oracle. Every LP has
one form: maximize objective . x subject to rows A x (<= or =) rhs and
lower <= x <= upper. solve_lp needs a finite lower and a finite upper bound
on every variable, and raises LpError without them: every column is boxed.
check_feasible takes any bounds.

An LP's rows are a matrix A (m x n, n = num_vars), a relation per row and
rhs. A cold solve reads them with one copy, A0 = [A | I], and keeps
A- = min(A, 0). Row i reads a_i x + s_i = rhs_i, its logical variable s_i
in column n + i of A0. An = row's logical is fixed at 0. A <= row's lies
in [0, rhs_i minus the row's least activity over lp's bounds]; each solve
computes these upper bounds with one product, b - A- (up - lo), b being the
right-hand side with every variable at its lower bound. A row whose least
activity exceeds its rhs by more than FEAS_TOL makes the LP infeasible;
within FEAS_TOL, its logical is fixed at 0. All n + m variables then map
alike: x = lo + x' with 0 <= x' <= up - lo, of width 0 when x is fixed. A
basis names one basic variable per row; the logicals form one. Each solve
takes its tableau columns from lp's own bounds: one, in variable order, for
every variable that can move or is basic. A nonbasic variable of width 0
never moves and gets none. So the right-hand side is b, and the primal lo
plus x' at the columns' variables. Row 0 of the tableau holds minus the
reduced costs of max objective . x', so a negative entry marks a column that
would raise the objective from its bound.

The tableau has one row per constraint: bounds never become rows. A
nonbasic column sits at 0 or at its upper bound u. A column at u is
complemented (x -> u - x), which negates it and moves u * column into the
right-hand side, so every nonbasic column reads 0 in the tableau. The
simplex never prices a column of width 0, which cannot move.

A solve takes three steps. (1) One dense solve of the basis against [A | b]
rebuilds the tableau. (2) Every movable nonbasic column whose reduced cost
has the wrong sign is complemented, so the tableau is dual feasible. (3) The
bounded dual simplex lets the most infeasible basic variable (below 0 or
above its upper bound) leave; after _BLAND_FACTOR * (n + m) iterations, the
infeasible one of smallest column. Its ratio test passes the breakpoints in
(ratio, column) order while the leaving row stays infeasible with them at
their other bound, complements every passed column at once, and enters among
the ties at the first breakpoint it cannot pass: the largest |alpha|, or
under Bland's rule the smallest column. A row with no breakpoint, or with
every breakpoint passed and still infeasible, proves the LP infeasible. A
variable that leaves above its upper bound is complemented. Once the basis
is primal feasible the reduced costs are checked again: where round-off left
one of the wrong sign, steps (2) and (3) repeat; otherwise the tableau is
optimal.

A solve ends with a status: "optimal", "infeasible", or "iteration-limit"
once it passes _MAX_ITER iterations, an iteration being one pivot with the
bound flips of its ratio test. It raises LpError only for malformed input.

Warm start. An optimal LpSolution carries its final state over the n + m
variables, not over its tableau columns: the read rows, the basic variable
of each row and the mask of complemented variables. solve_lp(lp,
warm=state) takes an optimal state, and only for the A, relation and rhs it
was read from (the same objects or equal ones); lp may change any bound,
and the logicals' upper bounds follow from lp's own. Only a singular basis
makes the solve restart cold.
"""

import math
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
# times (variables + rows): the most infeasible row leaves until a solve has
# made this many iterations, then Bland's rule (smallest index)
_BLAND_FACTOR = 5
_MAX_ITER = 200_000

LE, EQ = "<=", "="

Row = namedtuple("Row", "coeffs relation rhs")


class LpError(ValueError):
    """Malformed LP input: a dimension mismatch, a bad relation, a NaN bound,
    a non-finite objective entry, coefficient or rhs, a variable that
    solve_lp is given without a finite lower or upper bound, or a warm state
    from other constraints or from a solve without an optimum."""


@dataclass
class LinearProgram:
    """Maximize objective . x subject to A x (relation) rhs, row by row, and
    lower <= x <= upper."""

    num_vars: int
    objective: np.ndarray
    lower: np.ndarray  # -inf allowed by check_feasible, not by solve_lp
    upper: np.ndarray  # +inf allowed by check_feasible, not by solve_lp
    A: np.ndarray  # rows x num_vars
    relation: np.ndarray  # per row: "<=" or "="
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
    over the variables and the logicals, the right-hand sides, the
    logicals' lower and upper bounds by relation as a 2 x m array (0 and
    inf for a <= row), and low = min(A0[:, :n], 0), whose product with the
    variables' widths gives the rows' least activities."""

    source: tuple
    A0: np.ndarray
    rhs: np.ndarray
    logical: np.ndarray
    low: np.ndarray


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "iteration-limit"
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
    if np.isnan(lp.lower).any() or np.isnan(lp.upper).any():
        raise LpError("a variable bound is NaN")
    if not np.isfinite(lp.objective).all():
        raise LpError("the objective has a non-finite coefficient")


def _read(lp):
    """Check lp and read its rows: Rows, A0 = [A | I] with row i's logical
    in column num_vars + i."""
    _check(lp)
    A, rhs = np.asarray(lp.A, dtype=float), np.array(lp.rhs, dtype=float)
    relation = np.asarray(lp.relation, dtype=str)
    eq = relation == EQ
    bad = np.flatnonzero(~(eq | (relation == LE)))
    if bad.size:
        raise LpError(f"constraint {bad[0]}: unknown relation {str(relation[bad[0]])!r}")
    bad = np.flatnonzero(~(np.isfinite(A).all(axis=1) & np.isfinite(rhs)))
    if bad.size:
        raise LpError(f"constraint {bad[0]} has a non-finite coefficient or rhs")
    logical = np.zeros((2, rhs.size))
    logical[1, ~eq] = math.inf
    return Rows((lp.A, lp.relation, lp.rhs), np.hstack([A, np.eye(rhs.size)]), rhs, logical,
                np.minimum(A, 0.0))


def check_feasible(lp, point, tol=FEAS_TOL):
    """True iff the point is finite and every bound and constraint holds
    within tol: the point and its logicals (rhs minus each row's activity)
    lie within their bounds."""
    rows = _read(lp)
    x = np.asarray(point, dtype=float)
    if x.shape != (lp.num_vars,):
        raise LpError(f"point has length {x.size}, expected {lp.num_vars}")
    if not np.isfinite(x).all():
        return False
    lo, up = np.concatenate([np.array([lp.lower, lp.upper], dtype=float), rows.logical], axis=1)
    xs = np.concatenate([x, rows.rhs - rows.A0[:, :x.size] @ x])
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
    to its other bound. An empty array moves none, at the cost of one test:
    most ratio tests pass no breakpoint."""
    if np.size(j):
        T[:, -1] -= np.dot(T[:, j], ub[j])
        T[:, j] *= -1.0
        flipped[j] = ~flipped[j]


def _dual_feasible(T, basis, ub, flipped, tally):
    """Complement every movable nonbasic column whose reduced cost has the
    wrong sign. Returns how many there were."""
    wrong = (T[0, :-1] < -PIVOT_TOL) & (ub > 0.0)  # a column of width 0 cannot move
    wrong[basis] = False
    k = int(np.count_nonzero(wrong))
    _flip(T, ub, flipped, np.flatnonzero(wrong))
    tally["flips"] += k
    return k


def _run_dual(T, basis, ub, flipped, bland_after, tally):
    """Bounded dual simplex, in place. Returns 'optimal' once the basis is
    primal feasible and no reduced cost has the wrong sign, 'infeasible' or
    'iteration-limit'.

    The tableau is made dual feasible first, and again each time the basis
    is primal feasible. An iteration is one pivot plus the bound flips of
    its ratio test; tally["pivots"] counts them over the whole solve. The
    ratio test passes the breakpoints in (ratio, column) order while the
    leaving row stays infeasible with them passed, and enters among the ties
    at the first one it cannot pass. A row with no breakpoint, or with every
    breakpoint passed, proves the LP infeasible.
    """
    movable = ub > 0.0  # a column of width 0 cannot move
    _dual_feasible(T, basis, ub, flipped, tally)
    while True:
        x = T[1:, -1]
        excess = np.maximum(-x, x - ub[basis])
        if excess.max(initial=0.0) <= FEAS_TOL:
            if not _dual_feasible(T, basis, ub, flipped, tally):
                return "optimal"
            continue
        if tally["pivots"] > _MAX_ITER:
            return "iteration-limit"
        bland = tally["pivots"] >= bland_after
        if bland:
            rows = np.flatnonzero(excess > FEAS_TOL)
            r = int(rows[np.argmin(basis[rows])])
        else:
            r = int(np.argmax(excess))
        high = bool(x[r] > ub[basis[r]])  # leaves at its upper bound
        alpha = T[r + 1, :-1] if high else -T[r + 1, :-1]
        can = (alpha > PIVOT_TOL) & movable  # columns that move the leaving one
        can[basis] = False
        cand = np.flatnonzero(can)
        ratios = np.maximum(T[0, cand], 0.0) / alpha[cand]
        order = np.lexsort((cand, ratios))  # the breakpoints, ties by column
        slope = excess[r] - np.cumsum(ub[cand[order]] * alpha[cand[order]])
        k = int(np.count_nonzero(slope > FEAS_TOL))  # the slope only falls
        if k == cand.size:  # no breakpoint, or every one passed: the row stays infeasible
            return "infeasible"
        _flip(T, ub, flipped, cand[order[:k]])
        tally["flips"] += k
        rest = order[k:]
        last = cand[rest[ratios[rest] <= ratios[rest[0]] + 1e-12]]
        j = int(last.min() if bland else last[np.argmax(alpha[last])])
        leaving = basis[r]
        _pivot(T, basis, r + 1, j)
        tally["pivots"] += 1
        if high:
            _flip(T, ub, flipped, leaving)


def _standard_form(lp, rows, b, ub, src):
    """(A, b, ub, c): lp on the columns of the variables src, max c x'
    subject to A x' = b and 0 <= x' <= ub."""
    cost = np.zeros(ub.size)
    cost[:lp.num_vars] = lp.objective
    return rows.A0[:, src], b, ub[src], cost[src]


def solve_lp(lp, warm=None):
    """Maximize lp. Deterministic.

    Cold (warm=None), the solve starts from the logicals' basis. With warm,
    an optimal LpSolution of an LP with the same rows (the same A, relation
    and rhs objects, or equal ones), it starts from warm's basic variables
    and complemented ones, and restarts from the logicals' basis only where
    warm's basis is singular for lp.
    A solve that ends without an optimum or a proof of infeasibility has
    status "iteration-limit". A variable whose bounds admit a real value
    but whose lower or upper bound is infinite raises LpError.
    """
    if warm is None:
        rows = _read(lp)
    else:
        _check(lp)
        rows = warm.rows
        if rows is None:
            raise LpError(f"the warm state is from a solve that ended {warm.status!r}")
        if not all(a is b or np.array_equal(a, b)
                   for a, b in zip((lp.A, lp.relation, lp.rhs), rows.source)):
            raise LpError("the warm state is from an LP with other constraints")
    lo, up = np.array([lp.lower, lp.upper], dtype=float)
    if not np.all((lo <= up) & (lo < math.inf) & (up > -math.inf)):  # no real value fits
        return LpSolution("infeasible", warm=warm is not None)
    bad = np.flatnonzero(np.isinf(lo) | np.isinf(up))
    if bad.size:
        side = "lower" if np.isinf(lo[bad[0]]) else "upper"
        raise LpError(f"variable {bad[0]} has no finite {side} bound")
    b = rows.rhs - rows.A0[:, :lp.num_vars] @ lo  # every variable at its lower bound
    room = b - rows.low @ (up - lo)  # each logical's largest value: rhs less the least activity
    if np.any(room < -FEAS_TOL):
        return LpSolution("infeasible", warm=warm is not None)
    ub = np.concatenate([up - lo, np.minimum(rows.logical[1], np.maximum(room, 0.0))])
    if warm is not None:
        sol = _solve(lp, rows, lo, b, ub, warm.basis, warm.flipped, warm=True)
        if sol is not None:
            return sol
    return _solve(lp, rows, lo, b, ub, np.arange(lp.num_vars, ub.size),
                  np.zeros(ub.size, dtype=bool), warm=False)


def _solve(lp, rows, lo, b, ub, basis, flipped, warm):
    """Maximize lp from the given basic variables and complemented ones, on
    a column for every variable that can move or is basic; None where the
    basis is singular. lo holds the variables' lower bounds, b the
    right-hand side with every variable there, and ub the widths of the
    n + m variables."""
    basic = np.zeros(ub.size, dtype=bool)
    basic[basis] = True
    src = np.flatnonzero((ub > 0.0) | basic)
    A, b, ub, c = _standard_form(lp, rows, b, ub, src)
    basis = np.searchsorted(src, basis)
    flipped = flipped[src]
    b = b - A[:, flipped] @ ub[flipped]
    A[:, flipped] *= -1.0
    rest = np.ones(A.shape[1] + 1, dtype=bool)
    rest[basis] = False
    T = np.zeros((basis.size + 1, A.shape[1] + 1))
    try:
        T[1:, rest] = np.linalg.solve(A[:, basis], np.column_stack([A, b])[:, rest])
    except np.linalg.LinAlgError:
        return None
    T[1:, basis] = np.eye(basis.size)
    cost = np.where(flipped, -c, c)
    T[0, :-1] = -cost
    T[0] += cost[basis] @ T[1:]  # minus the reduced costs, and the objective
    tally = Counter()
    status = _run_dual(T, basis, ub, flipped, _BLAND_FACTOR * rows.A0.shape[1], tally)
    counts = {"pivots": tally["pivots"], "bound_flips": tally["flips"], "warm": warm}
    if status != "optimal":
        return LpSolution(status, **counts)
    vals = np.zeros(ub.size)
    vals[basis] = T[1:, -1]
    vals[flipped] = ub[flipped] - vals[flipped]
    full = np.zeros(rows.A0.shape[1])
    full[src] = vals
    x = lo + full[:lp.num_vars]  # a new array: a branch-and-bound node keeps it
    obj = float(np.asarray(lp.objective, dtype=float) @ x)
    held = np.zeros(full.size, dtype=bool)
    held[src] = flipped
    return LpSolution("optimal", obj, x, rows=rows, basis=src[basis], flipped=held, **counts)
