"""Dense bounded-variable simplex for small linear programs: a two-phase
primal simplex from scratch, and a dual simplex that re-optimises from the
final basis of an LP with the same constraints.

Serves as the LP kernel for bound tightening, branch-and-bound node
relaxations, and the activation-pattern enumeration oracle. Variables may
carry finite or infinite bounds; infinities are real ``math.inf`` sentinels,
never large surrogate constants.

The constraint dicts are walked once per cold solve, into a dense matrix
A0, the right-hand sides and a slack sign per row (+1 for <=, -1 for >=, 0
for =); the rest is array operations. Each variable is x = offset + sign *
x' with x' >= 0: offset lo and sign +1 when lo is finite (x' <= up - lo),
offset up and sign -1 when only up is finite, offset 0 when free. The
column-source index src lists each variable once in variable order, a free
one twice in adjacent columns (the second negated), a fixed one (lo == up)
not at all. So the columns are A0[:, src] * sign, the right-hand side
rhs - A0 @ offset, and the primal offset plus a scatter-add of sign * x'
over src.

The tableau has one row per constraint: bounds never become rows. A
nonbasic column sits at 0 or at its upper bound u. A column at u is
complemented (x -> u - x), which negates it and moves u * column into the
right-hand side, so every nonbasic column reads 0 in the tableau. The ratio
test stops where a basic variable reaches either of its bounds or where the
entering column reaches its own; the last case is a bound flip, an
iteration without a pivot. Before phase 1 each boxed column starts at the
bound its phase-2 cost favours.

A solve ends with a status: "optimal", "infeasible", "unbounded", or
"iteration-limit" once a primal simplex phase passes _MAX_ITER iterations
(pivots and bound flips alike). It raises LpError only for malformed input.

Warm start. An optimal LpSolution carries its final tableau state: the
read constraints with the columns (src, sign), the basis and the flip set.
solve_lp(lp, warm=state) takes that state only for the constraint list it
was read from or an equal one, and raises LpError for any other. It keeps
those columns, so a variable fixed since (lo == up) stays a column with
upper bound 0, and re-optimises in four steps. One dense solve of the basis
against [A | b] rebuilds the tableau. Every boxed nonbasic column whose
reduced cost has the wrong sign is complemented; neither simplex prices a
column of width 0, which cannot move. A bounded dual simplex lets the most
infeasible basic variable (below 0 or above its upper bound) leave, enters
the ratio-test minimum over the nonbasic columns that can move (ties to the
smallest column) and complements a variable that leaves above its upper
bound. The primal phase 2 then cleans up. A leaving row with no column to enter
proves the LP infeasible. A singular basis, a dual infeasible column with
no upper bound, bounds that the columns cannot carry, or the dual's
iteration cap sends the LP to the cold solve instead. So does a state
without a basis: a solve that dropped a redundant row after phase 1 keeps
none, because its tableau rows are combinations of the constraints and the
surviving ones need not be independent constraints.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
# Dantzig pricing until this many iterations, then Bland's rule (terminating);
# also the dual simplex's iteration cap.
_BLAND_FACTOR = 5
_MAX_ITER = 200_000

LE, EQ, GE = "<=", "=", ">="
_SLACK_SIGN = {LE: 1.0, EQ: 0.0, GE: -1.0}


class LpError(ValueError):
    """Malformed LP input: a dimension mismatch, a bad relation, a NaN bound,
    a non-finite objective entry, coefficient or rhs, or a warm state from
    other constraints."""


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
    """The constraints as read (the list, A0, rhs, slack sign per row) and the
    tableau's structural columns: column k is variable src[k] times sign[k]."""

    constraints: list
    A0: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    src: np.ndarray
    sign: np.ndarray


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration-limit"
    objective: float = None
    primal: np.ndarray = None
    pivots: int = 0
    bound_flips: int = 0  # iterations that moved a nonbasic column to its other bound
    warm: bool = False  # solved from the warm state given, without the cold fallback
    # final tableau state of an optimal solve, to warm-start another
    columns: Columns = None
    basis: np.ndarray = None  # basic column per constraint row; None after a dropped row
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
    """Check lp and read its constraints: (A0, rhs, slack sign per row).

    The one walk over the constraint dicts. Indices are range-checked before
    they index A0, where a negative one would silently wrap around.
    """
    _check(lp)
    n = lp.num_vars
    m = len(lp.constraints)
    rhs, slack = np.empty(m), np.empty(m)
    rows, cols, vals = [], [], []
    for i, con in enumerate(lp.constraints):
        if con.relation not in _SLACK_SIGN:
            raise LpError(f"constraint {i}: unknown relation {con.relation!r}")
        rhs[i] = con.rhs
        slack[i] = _SLACK_SIGN[con.relation]
        rows += [i] * len(con.coeffs)
        cols += con.coeffs
        vals += con.coeffs.values()
    cols = np.array(cols, dtype=np.intp)
    bad = np.flatnonzero((cols < 0) | (cols >= n))
    if bad.size:
        raise LpError(f"constraint {rows[bad[0]]} references variable {cols[bad[0]]} "
                      f"outside 0..{n - 1}")
    A0 = np.zeros((m, n))
    A0[rows, cols] = vals
    bad = np.flatnonzero(~(np.isfinite(A0).all(axis=1) & np.isfinite(rhs)))
    if bad.size:
        raise LpError(f"constraint {bad[0]} has a non-finite coefficient or rhs")
    return A0, rhs, slack


def check_feasible(lp, point, tol=FEAS_TOL):
    """True iff every bound and constraint holds within tol."""
    A0, rhs, slack = _read(lp)
    x = np.asarray(point, dtype=float)
    if x.shape != (lp.num_vars,):
        raise LpError(f"point has length {x.size}, expected {lp.num_vars}")
    if np.any(x < lp.lower - tol) or np.any(x > lp.upper + tol):
        return False
    excess = A0 @ x - rhs  # a <= row is violated above rhs, a >= row below
    return not np.any(np.where(slack == 0.0, np.abs(excess), slack * excess) > tol)


def _pivot(T, basis, r, j):
    piv = T[r] / T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, piv)
    T[r] = piv
    basis[r - 1] = j


def _flip(T, ub, flipped, j):
    """Complement nonbasic column j, moving it to its other bound."""
    T[:, -1] -= ub[j] * T[:, j]
    T[:, j] *= -1.0
    flipped[j] = not flipped[j]


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
        if costs.size == 0:  # every variable was fixed and substituted out
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


def _run_dual(T, basis, ub, flipped, max_iter, tally):
    """Bounded dual simplex from a dual feasible tableau, in place. Returns
    'optimal' once the basis is primal feasible, 'infeasible', or None after
    max_iter pivots."""
    for _ in range(max_iter):
        x = T[1:, -1]
        excess = np.maximum(-x, x - ub[basis])
        if excess.max(initial=0.0) <= FEAS_TOL:
            return "optimal"
        r = int(np.argmax(excess))
        high = bool(x[r] > ub[basis[r]])  # leaves at its upper bound
        alpha = T[r + 1, :-1] if high else -T[r + 1, :-1]
        can = (alpha > PIVOT_TOL) & (ub > 0.0)  # columns that move the leaving one
        can[basis] = False
        cand = np.flatnonzero(can)
        if cand.size == 0:
            return "infeasible"
        ratios = np.maximum(T[0, cand], 0.0) / alpha[cand]
        j = int(cand[np.flatnonzero(ratios <= ratios.min() + 1e-12)[0]])
        leaving = basis[r]
        _pivot(T, basis, r + 1, j)
        tally["pivots"] += 1
        if high:
            _flip(T, ub, flipped, leaving)
    return None


def _cold_columns(lp, lo, up, read):
    """Columns from the bounds: the layout of the module docstring."""
    fixed = lo == up
    shifted = ~fixed & np.isfinite(lo)
    mirrored = ~fixed & ~shifted & np.isfinite(up)
    free = ~(fixed | shifted | mirrored)
    src = np.repeat(np.arange(lo.size), np.where(fixed, 0, np.where(free, 2, 1)))
    sign = np.where(mirrored, -1.0, 1.0)[src]
    sign[1:][src[1:] == src[:-1]] = -1.0  # the second column of a free variable
    return Columns(lp.constraints, *read, src, sign)


def _standard_form(lp, columns):
    """(A, b, offset, ub, c2): lp on the given columns plus one slack per
    inequality row, with the column upper bounds and the phase-2 costs in the
    minimization sense. None when the bounds do not fit the columns: a
    variable without a column must be fixed, a single column needs a finite
    offset, a column pair a free variable."""
    lo = np.asarray(lp.lower, dtype=float)
    up = np.asarray(lp.upper, dtype=float)
    A0, rhs, slack, src, sign = (columns.A0, columns.rhs, columns.slack, columns.src,
                                 columns.sign)
    count = np.bincount(src, minlength=lo.size)
    mirrored = np.zeros(lo.size, dtype=bool)
    mirrored[src[sign < 0.0]] = True
    mirrored &= count == 1
    offset = np.where(mirrored, up, np.where(count == 2, 0.0, lo))
    fits = np.where(count == 0, lo == up,
                    np.where(count == 1, np.isfinite(offset), np.isneginf(lo) & np.isposinf(up)))
    if not fits.all():
        return None
    ncols = src.size
    ineq = np.flatnonzero(slack)
    nslack = ineq.size
    A = np.zeros((rhs.size, ncols + nslack))
    A[:, :ncols] = A0[:, src] * sign
    A[ineq, ncols + np.arange(nslack)] = slack[ineq]
    b = rhs - A0 @ offset
    ub = np.concatenate([up[src] - lo[src], np.full(nslack, math.inf)])
    sgn = -1.0 if lp.objective_sense == "maximize" else 1.0
    c2 = np.concatenate([sgn * sign * np.asarray(lp.objective, dtype=float)[src],
                         np.zeros(nslack)])
    return A, b, offset, ub, c2


def solve_lp(lp, warm=None):
    """Optimize lp. Deterministic.

    Cold (warm=None): the two-phase bounded-variable primal simplex. With
    warm, an optimal LpSolution of an LP with the same constraints (the
    same list, or an equal one), it re-optimises from warm's final basis by
    the dual simplex and falls back to the cold solve where that basis does
    not serve (module docstring). A solve that ends without an optimum or a
    proof of infeasibility has status "unbounded" or "iteration-limit".
    """
    if warm is None:
        read = _read(lp)
    else:
        _check(lp)
        cols = warm.columns
        if lp.constraints is not cols.constraints and lp.constraints != cols.constraints:
            raise LpError("the warm state is from an LP with other constraints")
        if cols.A0.shape[1] != lp.num_vars:
            raise LpError("the warm state is from an LP of another shape")
        read = cols.A0, cols.rhs, cols.slack
    lo = np.asarray(lp.lower, dtype=float)
    up = np.asarray(lp.upper, dtype=float)
    if np.any(lo > up):
        return LpSolution("infeasible", warm=warm is not None)
    if warm is not None:
        sol = _solve_warm(lp, warm)
        if sol is not None:
            return sol
    return _solve_cold(lp, _cold_columns(lp, lo, up, read))


def _solve_cold(lp, columns):
    A, b, offset, ub, c2 = _standard_form(lp, columns)
    m = b.size
    ncols = columns.src.size
    ineq = np.flatnonzero(columns.slack)
    slack_cols = ncols + np.arange(ineq.size)

    # Crash start: a boxed column whose phase-2 cost favours its upper bound
    # starts there.
    flipped = np.isfinite(ub) & (c2 < 0.0)
    b -= A[:, flipped] @ ub[flipped]
    A[:, flipped] *= -1.0
    neg = b < 0
    A[neg] *= -1.0
    b[neg] = -b[neg]

    # Initial basis: row's own slack when it survives the sign flip with a +1
    # coefficient; otherwise an artificial.
    own = np.zeros(m, dtype=bool)
    own[ineq] = A[ineq, slack_cols] > 0
    art_rows = np.flatnonzero(~own)
    nart = art_rows.size
    nreal = A.shape[1]
    basis = np.empty(m, dtype=int)
    basis[ineq] = slack_cols
    basis[art_rows] = nreal + np.arange(nart)
    # artificials are unbounded above, so they are never flipped
    ub = np.concatenate([ub, np.full(nart, math.inf)])
    flipped = np.concatenate([flipped, np.zeros(nart, dtype=bool)])
    T = np.zeros((m + 1, nreal + nart + 1))
    T[1:, :nreal] = A
    T[1:, -1] = b
    T[art_rows + 1, nreal + np.arange(nart)] = 1.0
    tally = Counter()
    dropped = False

    if nart:
        # Phase 1: minimize the sum of artificials.
        for i in art_rows:
            T[0] -= T[i + 1]
        T[0, nreal:-1] = 0.0  # reduced cost of basic artificials
        status = _run_simplex(T, basis, ub, flipped, _bland_after(lp), tally)
        if status == "optimal" and T[1:, -1][basis >= nreal].sum() > FEAS_TOL:
            status = "infeasible"  # the artificials cannot all reach 0
        if status != "optimal":  # bounded below by 0, phase 1 is never unbounded
            return LpSolution(status, pivots=tally["pivots"], bound_flips=tally["flips"])
        # Drive remaining artificials out of the basis; drop redundant rows.
        keep = np.ones(m + 1, dtype=bool)
        for r in range(1, m + 1):
            if basis[r - 1] >= nreal:
                piv_cols = np.flatnonzero(np.abs(T[r, :nreal]) > PIVOT_TOL)
                if piv_cols.size:
                    _pivot(T, basis, r, int(piv_cols[0]))
                    tally["pivots"] += 1
                else:
                    keep[r] = False
        T = T[keep]
        # Rebuild without artificial columns.
        T = np.hstack([T[:, :nreal], T[:, -1:]])
        basis = basis[keep[1:]]
        ub, flipped = ub[:nreal], flipped[:nreal]
        dropped = not keep.all()

    # Phase 2, with the costs of complemented columns negated.
    _price(T, basis, np.where(flipped, -c2, c2))
    sol = _phase2(lp, columns, T, basis, ub, flipped, offset, tally, warm=False)
    if dropped:  # no warm start: the surviving rows need not be independent constraints
        sol.basis = None
    return sol


def _solve_warm(lp, warm):
    """Re-optimise lp from warm's final basis; None where the cold solve must
    take over."""
    columns = warm.columns
    form = None if warm.basis is None else _standard_form(lp, columns)
    if form is None:
        return None
    A, b, offset, ub, c2 = form
    flipped = warm.flipped.copy()
    if not np.isfinite(ub[flipped]).all():
        return None
    b -= A[:, flipped] @ ub[flipped]
    A[:, flipped] *= -1.0
    basis = warm.basis.copy()
    rest = np.ones(A.shape[1] + 1, dtype=bool)
    rest[basis] = False
    T = np.zeros((basis.size + 1, A.shape[1] + 1))
    try:
        T[1:, rest] = np.linalg.solve(A[:, basis], np.column_stack([A, b])[:, rest])
    except np.linalg.LinAlgError:  # a singular basis
        return None
    T[1:, basis] = np.eye(basis.size)
    _price(T, basis, np.where(flipped, -c2, c2))
    wrong = (T[0, :-1] < -PIVOT_TOL) & (ub > 0.0)
    wrong[basis] = False
    if not np.isfinite(ub[wrong]).all():
        return None
    for j in np.flatnonzero(wrong):
        _flip(T, ub, flipped, j)
    tally = Counter(flips=int(wrong.sum()))
    status = _run_dual(T, basis, ub, flipped, _bland_after(lp), tally)
    if status is None:
        return None
    if status == "infeasible":
        return LpSolution("infeasible", pivots=tally["pivots"], bound_flips=tally["flips"],
                          warm=True)
    return _phase2(lp, columns, T, basis, ub, flipped, offset, tally, warm=True)


def _bland_after(lp):
    return _BLAND_FACTOR * (lp.num_vars + len(lp.constraints))


def _phase2(lp, columns, T, basis, ub, flipped, offset, tally, warm):
    """Primal phase 2 from the priced tableau, and the solution it reaches."""
    status = _run_simplex(T, basis, ub, flipped, _bland_after(lp), tally)
    counts = {"pivots": tally["pivots"], "bound_flips": tally["flips"], "warm": warm}
    if status != "optimal":
        return LpSolution(status, **counts)
    vals = np.zeros(ub.size)
    vals[basis] = T[1:, -1]
    vals[flipped] = ub[flipped] - vals[flipped]
    x = offset.copy()
    np.add.at(x, columns.src, columns.sign * vals[:columns.src.size])
    obj = float(np.asarray(lp.objective, dtype=float) @ x)
    return LpSolution("optimal", obj, x, columns=columns, basis=basis, flipped=flipped,
                      **counts)
