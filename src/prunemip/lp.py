"""Dense two-phase bounded-variable primal simplex for small linear programs.

Serves as the LP kernel for bound tightening, branch-and-bound node
relaxations, and the activation-pattern enumeration oracle. Variables may
carry finite or infinite bounds; infinities are real ``math.inf`` sentinels,
never large surrogate constants.

The constraint dicts are walked once per call, into a dense matrix A0, the
right-hand sides and a slack sign per row (+1 for <=, -1 for >=, 0 for =);
the rest is array operations. Each variable is x = offset + sign * x' with
x' >= 0: offset lo and sign +1 when lo is finite (x' <= up - lo), offset up
and sign -1 when only up is finite, offset 0 when free. The column-source
index src lists each variable once in variable order, a free one twice in
adjacent columns (the second negated), a fixed one (lo == up) not at all.
So the columns are A0[:, src] * sign, the right-hand side rhs - A0 @ offset,
and the primal offset plus a scatter-add of sign * x' over src.

The tableau has one row per constraint: bounds never become rows. A
nonbasic column sits at 0 or at its upper bound u. A column at u is
complemented (x -> u - x), which negates it and moves u * column into the
right-hand side, so every nonbasic column reads 0 in the tableau. The ratio
test stops where a basic variable reaches either of its bounds or where the
entering column reaches its own; the last case is a bound flip, an
iteration without a pivot. Before phase 1 each boxed column starts at the
bound its phase-2 cost favours.
"""

import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
# Dantzig pricing until this many iterations, then Bland's rule (terminating).
_BLAND_FACTOR = 5
_MAX_ITER = 200_000

LE, EQ, GE = "<=", "=", ">="
_SLACK_SIGN = {LE: 1.0, EQ: 0.0, GE: -1.0}


class LpError(ValueError):
    """Malformed LP input (dimension mismatch, bad relation, ...)."""


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


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float = None
    primal: np.ndarray = None


def _read(lp):
    """Check lp and read its constraints: (A0, rhs, slack sign per row).

    The one walk over the constraint dicts. Indices are range-checked before
    they index A0, where a negative one would silently wrap around.
    """
    n = lp.num_vars
    if len(lp.objective) != n or len(lp.lower) != n or len(lp.upper) != n:
        raise LpError("objective/bounds length does not match num_vars")
    if lp.objective_sense not in ("maximize", "minimize"):
        raise LpError(f"unknown objective sense {lp.objective_sense!r}")
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


def _run_simplex(T, basis, ub, flipped, bland_after):
    """Minimize the row-0 objective in place. Returns 'optimal'|'unbounded'.

    Pivots and bound flips both count as iterations.
    """
    it = 0
    while True:
        if it > _MAX_ITER:
            raise LpError("simplex iteration limit exceeded")
        costs = T[0, :-1]
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
        else:
            leaving = basis[r - 1]
            _pivot(T, basis, r, j)
            if at_upper:
                _flip(T, ub, flipped, leaving)
        it += 1


def solve_lp(lp):
    """Two-phase bounded-variable primal simplex on a dense tableau. Deterministic."""
    A0, rhs, slack = _read(lp)
    n, m = lp.num_vars, rhs.size
    lo = np.asarray(lp.lower, dtype=float)
    up = np.asarray(lp.upper, dtype=float)
    if np.any(lo > up):
        return LpSolution("infeasible")
    c_orig = np.asarray(lp.objective, dtype=float)
    sgn = -1.0 if lp.objective_sense == "maximize" else 1.0

    # Standard form x = offset + sign * x' (see the module docstring), with
    # phase-2 costs in the minimization sense.
    fixed = lo == up
    shifted = ~fixed & np.isfinite(lo)
    mirrored = ~fixed & ~shifted & np.isfinite(up)
    free = ~(fixed | shifted | mirrored)
    offset = np.where(mirrored, up, np.where(free, 0.0, lo))
    var_ub = np.full(n, math.inf)
    var_ub[shifted] = up[shifted] - lo[shifted]
    src = np.repeat(np.arange(n), np.where(fixed, 0, np.where(free, 2, 1)))
    sign = np.where(mirrored, -1.0, 1.0)[src]
    sign[1:][src[1:] == src[:-1]] = -1.0  # the second column of a free variable
    ncols = src.size
    ineq = np.flatnonzero(slack)
    nslack = ineq.size
    slack_cols = ncols + np.arange(nslack)
    A = np.zeros((m, ncols + nslack))
    A[:, :ncols] = A0[:, src] * sign
    A[ineq, slack_cols] = slack[ineq]
    b = rhs - A0 @ offset

    # Crash start: a boxed column whose phase-2 cost favours its upper bound
    # starts there.
    ub = np.concatenate([var_ub[src], np.full(nslack, math.inf)])
    c2 = np.concatenate([sgn * sign * c_orig[src], np.zeros(nslack)])
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
    nreal = ncols + nslack
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
    bland_after = _BLAND_FACTOR * (n + m)

    if nart:
        # Phase 1: minimize the sum of artificials.
        for i in art_rows:
            T[0] -= T[i + 1]
        T[0, nreal:-1] = 0.0  # reduced cost of basic artificials
        status = _run_simplex(T, basis, ub, flipped, bland_after)
        assert status == "optimal"  # phase-1 objective is bounded below by 0
        if T[1:, -1][basis >= nreal].sum() > FEAS_TOL:
            return LpSolution("infeasible")
        # Drive remaining artificials out of the basis; drop redundant rows.
        keep = np.ones(m + 1, dtype=bool)
        for r in range(1, m + 1):
            if basis[r - 1] >= nreal:
                piv_cols = np.flatnonzero(np.abs(T[r, :nreal]) > PIVOT_TOL)
                if piv_cols.size:
                    _pivot(T, basis, r, int(piv_cols[0]))
                else:
                    keep[r] = False
        T = T[keep]
        # Rebuild without artificial columns.
        T = np.hstack([T[:, :nreal], T[:, -1:]])
        basis = basis[keep[1:]]
        ub, flipped = ub[:nreal], flipped[:nreal]

    # Phase 2, with the costs of complemented columns negated.
    cost = np.where(flipped, -c2, c2)
    T[0, :-1] = cost
    T[0, -1] = 0.0
    T[0] -= cost[basis] @ T[1:]
    status = _run_simplex(T, basis, ub, flipped, bland_after)
    if status == "unbounded":
        return LpSolution("unbounded")

    vals = np.zeros(nreal)
    vals[basis] = T[1:, -1]
    vals[flipped] = ub[flipped] - vals[flipped]
    x = offset.copy()
    np.add.at(x, src, sign * vals[:ncols])
    obj = float(c_orig @ x)
    return LpSolution("optimal", objective=obj, primal=x)
