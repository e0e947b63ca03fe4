"""Branch-and-bound maximization over the encoder's models.

A model is its own LP relaxation, in the kernel's one form: it is
maximized, its rows are <= or =, and every column has a finite lower and
upper bound. The bounded dual simplex kernel solves it, where a variable
bound costs no tableau row. An open node is one record of its bounds and
its parent's LP solution: (-parent LP bound, tie counter, depth, lower,
upper, parent solution) on a single heap, so the search is best-first
over LP bounds from the root on. A node LP is the model with the node's
bounds. The root is solved cold; every other node LP is
re-optimised by the dual simplex from its parent's final basis, with the
rows the parent read (lp module docstring), since a child differs from its
parent only in bounds.
Branching fixes the model's most fractional binary (ties to the smallest
column) in a copy of the parent's bounds; fixing a ReLU indicator z also
pins one split column (z=1 pins vm to 0, z=0 pins vp to 0; the columns come
from the encoder's per-layer arrays, model.relu) instead of adding rows, so
LP size stays constant down the tree. At every feasible node of a
model that carries its network, the forward pass from the LP point's inputs
gives a primal candidate. A node is pruned once its bound exceeds the
incumbent by no more than ABS_GAP; the time limit is the only setting. A
node whose LP gives neither an optimum nor a proof of infeasibility
(status iteration-limit) keeps its parent's bound: it is
dropped and counted, and the search then ends `lp-failed`, never
`optimal`.
Single-threaded, deterministic node accounting.
"""

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .encode import assemble_trace, interval_bounds
from .lp import EQ, LE, LinearProgram, solve_lp

INT_TOL = 1e-6
ABS_GAP = 1e-6  # a node is pruned unless its bound beats the incumbent by more


@dataclass
class SolverConfig:
    time_limit_seconds: float = 1800.0

    def __post_init__(self):
        if not self.time_limit_seconds > 0:  # NaN fails too
            raise ValueError("time_limit_seconds must be > 0")


@dataclass
class SolveReport:
    # optimal | feasible-timeout | infeasible | no-incumbent-timeout | lp-failed
    status: str
    incumbent_obj: float
    best_bound: float
    nodes: int
    wall_seconds: float
    incumbent_point: np.ndarray = None
    # pivots, bound_flips, warm_starts, cold_fallbacks, failed_lps; nodes
    # counts the node LPs
    stats: dict = field(default_factory=dict)


def solve(model, cfg, trace_log=None, started=None):
    """Maximize the model objective exactly (within ABS_GAP) or until timeout.

    A model that carries its network (model.mlp) gets the forward-pass
    primal heuristic. trace_log, when given, receives one "node_id depth
    bound incumbent" line per processed node. started, a time.monotonic()
    reading, is when the time limit and wall_seconds began to run (default:
    now), so a caller can count the time it spent building the model.
    """
    t0 = time.monotonic() if started is None else started
    z_cols = np.flatnonzero(model.is_binary)
    # a split neuron's z pins (vp, vm)[z] at 0; any other binary is pinned
    # by its rows alone
    pins = {z: (vp, vm) for vps, vms, zs in model.relu
            for vp, vm, z in zip(vps.tolist(), vms.tolist(), zs.tolist()) if z >= 0}

    incumbent = None
    inc_obj = failed_bound = -math.inf
    nodes = 0
    stats = dict.fromkeys(("pivots", "bound_flips", "warm_starts", "cold_fallbacks",
                           "failed_lps"), 0)
    counter = itertools.count()
    heap = [(-math.inf, next(counter), 0, model.lower, model.upper, None)]
    # best-first: heap[0] holds the best open bound, so once it is pruned by
    # bound every open node is
    while heap and -heap[0][0] > inc_obj + ABS_GAP:
        if time.monotonic() - t0 > cfg.time_limit_seconds:
            break
        neg_bound, _, depth, lo, hi, parent = heapq.heappop(heap)
        nodes += 1
        if trace_log is not None:
            trace_log.append(f"{nodes} {depth} {-neg_bound} {inc_obj}")
        sol = solve_lp(replace(model, lower=lo, upper=hi), warm=parent)
        stats["pivots"] += sol.pivots
        stats["bound_flips"] += sol.bound_flips
        if parent is not None:
            stats["warm_starts" if sol.warm else "cold_fallbacks"] += 1
        if sol.status not in ("optimal", "infeasible"):  # unexplored: keep the parent's bound
            stats["failed_lps"] += 1
            failed_bound = max(failed_bound, -neg_bound)
            continue
        if sol.status == "infeasible" or sol.objective <= inc_obj + ABS_GAP:
            continue
        if model.mlp is not None:
            point = assemble_trace(model, sol.primal[model.input_vars])
            obj = float(model.objective @ point)
            if obj > inc_obj:
                incumbent, inc_obj = point, obj
        vals = sol.primal[z_cols]
        frac = (INT_TOL < vals) & (vals < 1.0 - INT_TOL)  # a fixed binary sits on its bound
        if not frac.any():
            if sol.objective > inc_obj:
                incumbent, inc_obj = sol.primal, sol.objective
            continue
        # most fractional first; argmin takes the first minimum, so ties go to the smallest column
        branch = int(z_cols[np.argmin(np.where(frac, np.abs(vals - 0.5), np.inf))])
        for val in (0, 1):
            child_lo, child_hi = lo.copy(), hi.copy()
            child_lo[branch] = child_hi[branch] = val
            if branch in pins:
                child_hi[pins[branch][val]] = 0.0
            heapq.heappush(heap, (-sol.objective, next(counter), depth + 1, child_lo, child_hi,
                                  sol))
    else:  # no break: every open node is pruned by bound
        heap.clear()
    wall = time.monotonic() - t0
    if heap:  # the time limit stopped the search
        status = "feasible-timeout" if incumbent is not None else "no-incumbent-timeout"
        best_bound = max(inc_obj, failed_bound, -heap[0][0])
    elif stats["failed_lps"]:
        status, best_bound = "lp-failed", max(inc_obj, failed_bound)
    elif incumbent is None:
        return SolveReport("infeasible", None, -math.inf, nodes, wall, stats=stats)
    else:
        status, best_bound = "optimal", inc_obj
    return SolveReport(status, inc_obj if incumbent is not None else None, best_bound, nodes,
                       wall, incumbent, stats)


def brute_force_verify(mlp, box, k, h, max_unstable=20):
    """Exact optimum of max y_h - y_k over the box by activation-pattern enumeration.

    Independent of the MIP encoder: each pattern is an LP built directly from
    the network layers (active: a = pre >= 0; inactive: a = 0, pre <= 0).
    """
    bounds = interval_bounds(mlp, box)
    unstable = [
        (li, j)
        for li in range(len(bounds.lo))
        for j in range(bounds.lo[li].size)
        if bounds.lo[li][j] < 0.0 < bounds.hi[li][j]
    ]
    if len(unstable) > max_unstable:
        raise ValueError(f"{len(unstable)} unstable ReLUs exceed the enumeration budget")
    unstable_set = set(unstable)
    forced = {}
    for li in range(len(bounds.lo)):
        for j in range(bounds.lo[li].size):
            if (li, j) not in unstable_set:
                forced[(li, j)] = bounds.lo[li][j] >= 0.0
    best = -math.inf
    for bits in itertools.product((False, True), repeat=len(unstable)):
        pattern = dict(forced)
        pattern.update(zip(unstable, bits))
        sol = _pattern_lp(mlp, box, k, h, pattern, bounds.hi)
        if sol.status == "optimal" and sol.objective > best:
            best = sol.objective
    return best


def _pattern_lp(mlp, box, k, h, pattern, hi):
    """The LP of one activation pattern: a column per input and per hidden
    neuron's output a, and one row per hidden neuron. An active neuron's a
    lies in [0, hi], hi its interval upper bound per layer; an inactive
    one's is 0."""
    d = box.dim
    nv = d + sum(W.shape[0] for W, _ in mlp.layers[:-1])
    A = np.zeros((nv - d, nv))
    lower = np.concatenate([box.lower, np.zeros(nv - d)])
    upper = np.concatenate([box.upper, np.zeros(nv - d)])
    relation, rhs = [], []
    prev, start = np.arange(d), d
    for li, (W, b) in enumerate(mlp.layers[:-1]):
        cols = np.arange(start, start + W.shape[0])
        on = np.array([pattern[(li, j)] for j in range(W.shape[0])], dtype=bool)
        # active: a = W.prev + b, a >= 0; inactive: a = 0, W.prev + b <= 0
        A[np.ix_(cols - d, prev)] = np.where(on[:, None], -W, W)
        A[cols[on] - d, cols[on]] = 1.0
        upper[cols[on]] = hi[li][on]
        relation += [EQ if active else LE for active in on]
        rhs += np.where(on, b, -b).tolist()
        prev, start = cols, start + cols.size
    W, b = mlp.layers[-1]
    c = np.zeros(nv)
    c[prev] = W[h] - W[k]
    lp = LinearProgram(nv, c, lower, upper, A, relation, np.array(rhs))
    sol = solve_lp(lp)
    if sol.status == "optimal":
        sol.objective += b[h] - b[k]
    return sol
