"""Branch-and-bound maximization over the encoder's models.

A model is its own LP relaxation, solved by the bounded-variable simplex
kernel, where a variable bound costs no tableau row; a node LP is the model
with the node's bounds. Branching fixes the model's binaries
(most-fractional first). Fixing a ReLU indicator z also tightens the
child's variable bounds (z=1 pins vm to 0, z=0 pins vp to 0) instead of
adding rows, so LP size stays constant down the tree. A network-forward
primal heuristic runs at every feasible node of a model that carries its
network. A node is pruned once its bound exceeds the incumbent by no more
than ABS_GAP; the time limit is the only setting.
Single-threaded, deterministic node accounting.
"""

import heapq
import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .encode import assemble_trace, interval_bounds
from .lp import EQ, LE, Constraint, LinearProgram, solve_lp

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
    status: str  # optimal | feasible-timeout | infeasible | no-incumbent-timeout
    incumbent_obj: float
    best_bound: float
    nodes: int
    wall_seconds: float
    incumbent_point: np.ndarray = None


def solve(model, cfg, trace_log=None, started=None):
    """Maximize the model objective exactly (within ABS_GAP) or until timeout.

    Only maximize models are accepted (every encode_adversarial model is one).
    A model that carries its network (model.mlp) gets the forward-pass
    primal heuristic. trace_log, when given, receives one "node_id depth
    bound incumbent" line per processed node. started, a time.monotonic()
    reading, is when the time limit and wall_seconds began to run (default:
    now), so a caller can count the time it spent building the model.
    """
    t0 = time.monotonic() if started is None else started
    if model.objective_sense != "maximize":
        raise ValueError(f"solve maximizes; the model's sense is {model.objective_sense!r}")
    z_cols = np.flatnonzero(model.is_binary).tolist()
    # the encoder's neurons add bound pins; any other binary is pinned by its rows alone
    z_info = {nv.z: nv for layer in model.neurons for nv in layer if nv.z is not None}
    base_lo, base_hi = model.lower, model.upper

    incumbent = None
    inc_obj = -math.inf
    nodes = 0
    counter = itertools.count()
    # Nodes are (parent LP bound, fixings dict). Dive on a stack until the
    # first incumbent, then switch to best-bound on a heap.
    stack = [(math.inf, {})]
    heap = []
    timed_out = False

    while stack or heap:
        if time.monotonic() - t0 > cfg.time_limit_seconds:
            timed_out = True
            break
        if stack:
            bound_est, fix = stack.pop()
        else:
            neg_bound, _, fix = heapq.heappop(heap)
            bound_est = -neg_bound
        if bound_est <= inc_obj + ABS_GAP:
            continue  # pruned by bound before solving
        lo = base_lo.copy()
        hi = base_hi.copy()
        for zj, val in fix.items():
            lo[zj] = hi[zj] = float(val)
            nv = z_info.get(zj)
            if nv is not None:
                hi[nv.vm if val == 1 else nv.vp] = 0.0
        sol = solve_lp(replace(model, lower=lo, upper=hi))
        nodes += 1
        node_id = nodes
        if trace_log is not None:
            trace_log.append(f"{node_id} {len(fix)} {bound_est} {inc_obj}")
        if sol.status != "optimal":
            continue  # infeasible node (unbounded cannot occur: box-bounded inputs)
        lp_obj = sol.objective
        if lp_obj <= inc_obj + ABS_GAP:
            continue
        if model.mlp is not None:
            point, obj = primal_heuristic(model, sol.primal)
            if obj > inc_obj:
                incumbent, inc_obj = point, obj
        free = [j for j in z_cols if j not in fix]
        vals = sol.primal
        frac = [j for j in free if INT_TOL < vals[j] < 1.0 - INT_TOL]
        if not frac:
            if lp_obj > inc_obj:
                incumbent, inc_obj = sol.primal, lp_obj
            continue
        branch = min(frac, key=lambda j: (abs(vals[j] - 0.5), j))
        children = [(lp_obj, {**fix, branch: 0}), (lp_obj, {**fix, branch: 1})]
        if incumbent is None:
            # keep diving toward the branch value suggested by the LP
            first, second = (children if vals[branch] < 0.5 else children[::-1])
            stack.append(second)
            stack.append(first)
        else:
            for child in children:
                heapq.heappush(heap, (-child[0], next(counter), child[1]))
    # Flush the dive stack into the bound accounting on timeout.
    open_bounds = [b for b, _ in stack] + [-nb for nb, _, _ in heap]
    wall = time.monotonic() - t0
    if timed_out:
        best_bound = max([inc_obj] + open_bounds) if (incumbent is not None or open_bounds) else math.inf
        status = "feasible-timeout" if incumbent is not None else "no-incumbent-timeout"
    elif incumbent is None:
        return SolveReport("infeasible", None, -math.inf, nodes, wall)
    else:
        best_bound = inc_obj
        status = "optimal"
    return SolveReport(status, inc_obj if incumbent is not None else None, best_bound, nodes,
                       wall, incumbent)


def primal_heuristic(model, lp_point):
    """Feasible assignment from the LP point's input block via model.mlp's forward pass.

    Returns (assignment, its objective value).
    """
    x = np.asarray(lp_point, dtype=float)[model.input_vars]
    point = assemble_trace(model, x)
    return point, float(model.objective @ point)


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
        sol = _pattern_lp(mlp, box, k, h, pattern)
        if sol.status == "optimal" and sol.objective > best:
            best = sol.objective
    return best


def _pattern_lp(mlp, box, k, h, pattern):
    d = box.dim
    lower = list(box.lower)
    upper = list(box.upper)
    cons = []
    prev = list(range(d))
    nv = d
    for li, (W, b) in enumerate(mlp.layers[:-1]):
        nxt = []
        for j in range(W.shape[0]):
            a = nv
            nv += 1
            if pattern[(li, j)]:  # active: a = W.prev + b, a >= 0
                lower.append(0.0)
                upper.append(math.inf)
                row = {a: 1.0}
                for i, w in zip(prev, W[j]):
                    if w != 0.0:
                        row[i] = row.get(i, 0.0) - w
                cons.append(Constraint(row, EQ, b[j]))
            else:  # inactive: a = 0, W.prev + b <= 0
                lower.append(0.0)
                upper.append(0.0)
                row = {}
                for i, w in zip(prev, W[j]):
                    if w != 0.0:
                        row[i] = row.get(i, 0.0) + w
                cons.append(Constraint(row, LE, -b[j]))
            nxt.append(a)
        prev = nxt
    W, b = mlp.layers[-1]
    c = np.zeros(nv)
    const = 0.0
    for out, sign in ((h, 1.0), (k, -1.0)):
        for i, w in zip(prev, W[out]):
            c[i] += sign * w
        const += sign * b[out]
    lp = LinearProgram(nv, "maximize", c, np.array(lower), np.array(upper), cons)
    sol = solve_lp(lp)
    if sol.status == "optimal":
        sol.objective += const
    return sol
