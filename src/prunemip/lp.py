"""Dense bounded-variable simplex for small linear programs in computational
form. Every solve starts from a basis, the logicals' basis or the final basis
of an LP with the same constraints, and runs one path: a bounded dual simplex
with bound flipping, then the primal phase 2.

Serves as the LP kernel for bound tightening, branch-and-bound node
relaxations, and the activation-pattern enumeration oracle. Variables may
carry finite or infinite bounds; infinities are real ``math.inf`` sentinels,
never large surrogate constants.

The constraint dicts are walked once per cold solve into a dense matrix A0
and the right-hand sides. Row i reads a_i x + s_i = rhs_i, its logical
variable s_i in column n + i of A0 (n = num_vars), bounded by the relation:
[0, inf) for <=, [0, 0] for =, (-inf, 0] for >=. All n + m variables then
map alike, the rest being array operations: x = offset + sign * x' with
x' >= 0, offset lo and sign +1 when lo is finite (x' <= up - lo, width 0
when fixed), offset up and sign -1 when only up is, and a free x is the
difference of two adjacent columns. The column-source index src lists each
variable's columns in order. So the columns are A0[:, src] * sign, the
right-hand side rhs - A0 @ offset, and the primal offset plus a scatter-add
of sign * x' over src. A logical is never free, so its columns, the last m,
form a basis.

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
upper bound) leave; after _bland_after(lp) iterations, the infeasible one
of smallest column. Its ratio test passes the breakpoints of boxed columns
in ratio order while the leaving row stays infeasible with them at their
other bound, complements every passed column at once, and enters at the
first breakpoint it cannot pass, the largest |alpha| among tied ratios. A
row that stays infeasible with every breakpoint passed proves the LP
infeasible. A variable that leaves above its upper bound is complemented.
(5) If a cost was shifted, the true costs are priced again, and (6) the
primal phase 2 finishes; its ratio test stops where a basic variable
reaches either of its bounds or where the entering column reaches its own,
the last case a bound flip, an iteration without a pivot.

A solve ends with a status: "optimal", "infeasible", "unbounded", or
"iteration-limit" once the dual or the primal simplex passes _MAX_ITER
iterations. A primal iteration is a pivot or a bound flip, a dual one a
pivot with the flips of its ratio test. It raises LpError only for
malformed input.

Warm start. An optimal LpSolution carries its final tableau state: the read
constraints, the columns (src, sign), the basis and the flip set. A width-0
column out of the basis never moves again, so the state drops it, and its
variable must stay fixed, at any value. solve_lp(lp, warm=state) takes an
optimal state, and only for the constraint list it was read from or an
equal one. Where its columns cannot carry lp's bounds, or its basis is
singular, the solve restarts cold.
"""

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
# times (variables + rows): Dantzig pricing until this many iterations, then
# Bland's rule (smallest index) in each simplex
_BLAND_FACTOR = 5
_MAX_ITER = 200_000

LE, EQ, GE = "<=", "=", ">="
_LOGICAL_BOUNDS = {LE: (0.0, math.inf), EQ: (0.0, 0.0), GE: (-math.inf, 0.0)}


class LpError(ValueError):
    """Malformed LP input: a dimension mismatch, a bad relation, a NaN bound,
    a non-finite objective entry, coefficient or rhs, or a warm state from
    other constraints or from a solve without an optimum."""


@dataclass(frozen=True)
class Constraint:
    coeffs: dict  # var index -> coefficient
    relation: str
    rhs: float


@dataclass
class LinearProgram:
    num_vars: int
    objective_sense: str  # "maximize" | "minimize"
    objective: np.ndarray
    lower: np.ndarray  # -inf allowed
    upper: np.ndarray  # +inf allowed
    constraints: list = field(default_factory=list)


@dataclass(frozen=True)
class Columns:
    """The constraints as read (the list, A0 over the variables and then the
    logicals, rhs, the logicals' lower and upper bounds as a 2 x m array) and
    the tableau's columns: column k is variable src[k] times sign[k]."""

    constraints: list
    A0: np.ndarray
    rhs: np.ndarray
    logical: np.ndarray
    src: np.ndarray
    sign: np.ndarray


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration-limit"
    objective: float = None
    primal: np.ndarray = None
    pivots: int = 0
    bound_flips: int = 0  # moves of a nonbasic column to its other bound
    warm: bool = False  # solved from the warm state given, not restarted cold
    # final tableau state of an optimal solve, to warm-start another
    columns: Columns = None
    basis: np.ndarray = None  # basic column per constraint row
    flipped: np.ndarray = None  # columns held complemented


def _check(lp):
    n = lp.num_vars
    if len(lp.objective) != n or len(lp.lower) != n or len(lp.upper) != n:
        raise LpError("objective/bounds length does not match num_vars")
    if lp.objective_sense not in ("maximize", "minimize"):
        raise LpError(f"unknown objective sense {lp.objective_sense!r}")
    if np.isnan(lp.lower).any() or np.isnan(lp.upper).any():
        raise LpError("a variable bound is NaN")
    if not np.isfinite(lp.objective).all():
        raise LpError("the objective has a non-finite coefficient")


def _read(lp):
    """Check lp and read its constraints: (A0, rhs, logical bounds), A0 with
    row i's logical in column num_vars + i.

    The one walk over the constraint dicts. Indices are range-checked before
    they index A0, where a negative one would silently wrap around.
    """
    _check(lp)
    n = lp.num_vars
    m = len(lp.constraints)
    rhs, logical = np.empty(m), np.empty((2, m))
    rows, cols, vals = [], [], []
    for i, con in enumerate(lp.constraints):
        if con.relation not in _LOGICAL_BOUNDS:
            raise LpError(f"constraint {i}: unknown relation {con.relation!r}")
        rhs[i] = con.rhs
        logical[:, i] = _LOGICAL_BOUNDS[con.relation]
        rows += [i] * len(con.coeffs)
        cols += con.coeffs
        vals += con.coeffs.values()
    cols = np.array(cols, dtype=np.intp)
    bad = np.flatnonzero((cols < 0) | (cols >= n))
    if bad.size:
        raise LpError(f"constraint {rows[bad[0]]} references variable {cols[bad[0]]} "
                      f"outside 0..{n - 1}")
    A0 = np.zeros((m, n + m))
    A0[rows, cols] = vals
    bad = np.flatnonzero(~(np.isfinite(A0).all(axis=1) & np.isfinite(rhs)))
    if bad.size:
        raise LpError(f"constraint {bad[0]} has a non-finite coefficient or rhs")
    A0[:, n:] = np.eye(m)
    return A0, rhs, logical


def check_feasible(lp, point, tol=FEAS_TOL):
    """True iff every bound and constraint holds within tol: the point and
    its logicals (rhs minus each row's activity) lie within their bounds."""
    A0, rhs, logical = _read(lp)
    x = np.asarray(point, dtype=float)
    if x.shape != (lp.num_vars,):
        raise LpError(f"point has length {x.size}, expected {lp.num_vars}")
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


def _cold_columns(lp, lo, up, read):
    """Columns from the bounds, the layout of the module docstring."""
    shifted = np.isfinite(lo)
    mirrored = ~shifted & np.isfinite(up)
    src = np.repeat(np.arange(lo.size), np.where(shifted | mirrored, 1, 2))
    sign = np.where(mirrored, -1.0, 1.0)[src]
    sign[1:][src[1:] == src[:-1]] = -1.0  # the second column of a free variable
    return Columns(lp.constraints, *read, src, sign)


def _standard_form(lp, columns, lo, up):
    """(A, b, offset, ub, c2): lp on the given columns, with the column upper
    bounds and the phase-2 costs in the minimization sense. None when the
    bounds do not fit the columns: a variable without a column must be fixed,
    a single column needs a finite offset, a column pair a free variable."""
    A0, src, sign = columns.A0, columns.src, columns.sign
    count = np.bincount(src, minlength=lo.size)
    mirrored = np.zeros(lo.size, dtype=bool)
    mirrored[src[sign < 0.0]] = True
    mirrored &= count == 1
    offset = np.where(mirrored, up, np.where(count == 2, 0.0, lo))
    fits = np.where(count == 0, lo == up,
                    np.where(count == 1, np.isfinite(offset), np.isneginf(lo) & np.isposinf(up)))
    if not fits.all():
        return None
    n = lp.num_vars
    b = columns.rhs - A0[:, :n] @ offset[:n]  # a logical's offset is its finite bound, 0
    sgn = -1.0 if lp.objective_sense == "maximize" else 1.0
    cost = np.zeros(lo.size)
    cost[:n] = lp.objective
    return A0[:, src] * sign, b, offset, up[src] - lo[src], sgn * sign * cost[src]


def solve_lp(lp, warm=None):
    """Optimize lp. Deterministic.

    Cold (warm=None), the solve starts from the logicals' basis. With warm,
    an optimal LpSolution of an LP with the same constraints (the same list,
    or an equal one), it starts from warm's final basis, and restarts from
    the logicals' basis where that basis does not serve (module docstring).
    A solve that ends without an optimum or a proof of infeasibility has
    status "unbounded" or "iteration-limit".
    """
    if warm is None:
        read = _read(lp)
    else:
        _check(lp)
        cols = warm.columns
        if cols is None:
            raise LpError(f"the warm state is from a solve that ended {warm.status!r}")
        if lp.constraints is not cols.constraints and lp.constraints != cols.constraints:
            raise LpError("the warm state is from an LP with other constraints")
        if cols.A0.shape[1] != lp.num_vars + cols.rhs.size:
            raise LpError("the warm state is from an LP of another shape")
        read = cols.A0, cols.rhs, cols.logical
    lo, up = _bounds(lp, read[2])
    if not np.all((lo <= up) & (lo < math.inf) & (up > -math.inf)):  # no real value fits
        return LpSolution("infeasible", warm=warm is not None)
    if warm is not None:
        sol = _solve(lp, warm.columns, lo, up, warm.basis.copy(), warm.flipped.copy(),
                     warm=True)
        if sol is not None:
            return sol
    columns = _cold_columns(lp, lo, up, read)
    ncols = columns.src.size
    return _solve(lp, columns, lo, up, np.arange(ncols - len(lp.constraints), ncols),
                  np.zeros(ncols, dtype=bool), warm=False)


def _solve(lp, columns, lo, up, basis, flipped, warm):
    """Optimize lp from the given basis and flip set; None where the columns
    cannot carry lp's bounds or the basis is singular."""
    form = _standard_form(lp, columns, lo, up)
    if form is None:
        return None
    A, b, offset, ub, c2 = form
    if not np.isfinite(ub[flipped]).all():
        return None
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
    bland_after = _bland_after(lp)
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
    x = offset.copy()
    np.add.at(x, columns.src, columns.sign * vals)
    x = x[:lp.num_vars].copy()  # not a view: a branch-and-bound node keeps it
    obj = float(np.asarray(lp.objective, dtype=float) @ x)
    # A width-0 column out of the basis never moves again: the state drops it.
    drop = ub == 0.0
    drop[basis] = False
    if drop.any():
        keep = ~drop
        basis = (np.cumsum(keep) - 1)[basis]
        flipped = flipped[keep]
        columns = replace(columns, src=columns.src[keep], sign=columns.sign[keep])
    return LpSolution("optimal", obj, x, columns=columns, basis=basis, flipped=flipped,
                      **counts)


def _bland_after(lp):
    return _BLAND_FACTOR * (lp.num_vars + len(lp.constraints))
