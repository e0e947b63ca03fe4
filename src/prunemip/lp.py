"""Dense two-phase bounded-variable primal simplex for small linear programs.

Serves as the LP kernel for bound tightening, branch-and-bound node
relaxations, and the activation-pattern enumeration oracle. Variables may
carry finite or infinite bounds; infinities are real ``math.inf`` sentinels,
never large surrogate constants.

Each variable becomes one nonnegative column with an upper bound (two
unbounded columns when it is free), and the tableau has one row per
constraint: bounds never become rows. A nonbasic column sits at 0 or at its
upper bound u. A column at u is complemented (x -> u - x), which negates it
and moves u * column into the right-hand side, so every nonbasic column
reads 0 in the tableau. The ratio test stops where a basic variable reaches
either of its bounds or where the entering column reaches its own; the last
case is a bound flip, an iteration without a pivot. Before phase 1 each
boxed column starts at the bound its phase-2 cost favours.
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
_RELATIONS = (LE, EQ, GE)


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


def _validate(lp):
    n = lp.num_vars
    if len(lp.objective) != n or len(lp.lower) != n or len(lp.upper) != n:
        raise LpError("objective/bounds length does not match num_vars")
    if lp.objective_sense not in ("maximize", "minimize"):
        raise LpError(f"unknown objective sense {lp.objective_sense!r}")
    for ci, con in enumerate(lp.constraints):
        if con.relation not in _RELATIONS:
            raise LpError(f"constraint {ci}: unknown relation {con.relation!r}")
        for j in con.coeffs:
            if not 0 <= j < n:
                raise LpError(f"constraint {ci} references variable {j} >= num_vars")


def check_feasible(lp, point, tol=FEAS_TOL):
    """True iff every bound and constraint holds within tol."""
    _validate(lp)
    x = np.asarray(point, dtype=float)
    if x.shape != (lp.num_vars,):
        raise LpError(f"point has length {x.size}, expected {lp.num_vars}")
    if np.any(x < lp.lower - tol) or np.any(x > lp.upper + tol):
        return False
    for con in lp.constraints:
        lhs = sum(c * x[j] for j, c in con.coeffs.items())
        if con.relation == LE and lhs > con.rhs + tol:
            return False
        if con.relation == GE and lhs < con.rhs - tol:
            return False
        if con.relation == EQ and abs(lhs - con.rhs) > tol:
            return False
    return True


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
    _validate(lp)
    n = lp.num_vars
    lo = np.asarray(lp.lower, dtype=float)
    up = np.asarray(lp.upper, dtype=float)
    if np.any(lo > up):
        return LpSolution("infeasible")
    c_orig = np.asarray(lp.objective, dtype=float)
    sgn = -1.0 if lp.objective_sense == "maximize" else 1.0

    # Column layout for the standard form. Every original variable maps to
    # nonnegative column(s) via shift / mirror / split, each with an upper
    # bound (finite only for shifted variables) and a phase-2 cost in the
    # minimization sense; l == u variables are substituted out as constants.
    col_of = [None] * n  # (kind, data...)
    col_ub = []
    c2 = []
    for i in range(n):
        if lo[i] == up[i]:
            col_of[i] = ("fixed", lo[i])
            continue
        if math.isfinite(lo[i]):
            col_of[i] = ("shift", len(col_ub), lo[i])
            col_ub.append(up[i] - lo[i])
            c2.append(sgn * c_orig[i])
        elif math.isfinite(up[i]):
            col_of[i] = ("mirror", len(col_ub), up[i])
            col_ub.append(math.inf)
            c2.append(-sgn * c_orig[i])
        else:
            col_of[i] = ("split", len(col_ub), len(col_ub) + 1)
            col_ub += [math.inf, math.inf]
            c2 += [sgn * c_orig[i], -sgn * c_orig[i]]
    ncols = len(col_ub)

    m = len(lp.constraints)
    nslack = sum(1 for con in lp.constraints if con.relation != EQ)
    A = np.zeros((m, ncols + nslack))
    b = np.zeros(m)
    slack_of = [-1] * m
    k = ncols
    for i, con in enumerate(lp.constraints):
        rhs = con.rhs
        for j, a in con.coeffs.items():
            kind = col_of[j]
            if kind[0] == "fixed":
                rhs -= a * kind[1]
            elif kind[0] == "shift":
                A[i, kind[1]] += a
                rhs -= a * kind[2]
            elif kind[0] == "mirror":
                A[i, kind[1]] -= a
                rhs -= a * kind[2]
            else:
                A[i, kind[1]] += a
                A[i, kind[2]] -= a
        b[i] = rhs
        if con.relation != EQ:
            A[i, k] = 1.0 if con.relation == LE else -1.0
            slack_of[i] = k
            k += 1

    # Crash start: a boxed column whose phase-2 cost favours its upper bound
    # starts there.
    ub = np.concatenate([col_ub, np.full(nslack, math.inf)])
    c2 = np.concatenate([c2, np.zeros(nslack)])
    flipped = np.isfinite(ub) & (c2 < 0.0)
    b -= A[:, flipped] @ ub[flipped]
    A[:, flipped] *= -1.0
    neg = b < 0
    A[neg] *= -1.0
    b[neg] = -b[neg]

    # Initial basis: row's own slack when it survives the sign flip with a +1
    # coefficient; otherwise an artificial.
    basis = np.empty(m, dtype=int)
    art_rows = []
    for i in range(m):
        if slack_of[i] >= 0 and A[i, slack_of[i]] > 0:
            basis[i] = slack_of[i]
        else:
            art_rows.append(i)
            basis[i] = -1  # patched below
    nart = len(art_rows)
    nreal = ncols + nslack
    # artificials are unbounded above, so they are never flipped
    ub = np.concatenate([ub, np.full(nart, math.inf)])
    flipped = np.concatenate([flipped, np.zeros(nart, dtype=bool)])
    T = np.zeros((m + 1, nreal + nart + 1))
    T[1:, :nreal] = A
    T[1:, -1] = b
    for idx, i in enumerate(art_rows):
        T[i + 1, nreal + idx] = 1.0
        basis[i] = nreal + idx
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
    x = np.empty(n)
    for i in range(n):
        kind = col_of[i]
        if kind[0] == "fixed":
            x[i] = kind[1]
        elif kind[0] == "shift":
            x[i] = kind[2] + vals[kind[1]]
        elif kind[0] == "mirror":
            x[i] = kind[2] - vals[kind[1]]
        else:
            x[i] = vals[kind[1]] - vals[kind[2]]
    obj = float(c_orig @ x)
    return LpSolution("optimal", objective=obj, primal=x)
