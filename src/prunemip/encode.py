"""MILP encoding of ReLU networks over an input box.

Per hidden neuron with pre-activation p = W.o + b the encoding introduces
vp, vm >= 0 and a binary z with

    vp - vm = W.o + b        (split equality)
    vp <= Mp * z             (big-M on the positive part)
    vm <= Mm * (1 - z)       (big-M on the negative part)

so vp = max(p, 0) and vm = max(-p, 0). The next layer consumes vp directly
(variable identification, no extra row). Per-neuron constants Mp/Mm come
from a bounds table built by interval propagation, optionally tightened by
per-neuron LPs over the continuous relaxation (OBBT); an OBBT LP that ends
without an optimum leaves its neuron's interval bound, which stays valid.
Neurons whose interval lies on one side of zero need no binary and are
encoded stably.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .lp import EQ, LE, LinearProgram
from .nn import Mlp, forward


@dataclass
class InputBox:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("box lower/upper must be 1-d and congruent")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("box bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("box lower must be <= upper")

    @property
    def dim(self):
        return self.lower.size


@dataclass
class BoundsTable:
    """Per hidden neuron pre-activation bounds; one (lo, hi) array pair per layer."""

    lo: list  # list of np.ndarray
    hi: list
    provenance: list  # "interval" | "obbt" per layer

    def __post_init__(self):
        for lo, hi in zip(self.lo, self.hi):
            if np.any(lo > hi + 1e-12):
                raise ValueError("bounds table has lo > hi")

    def m_plus(self, layer):
        return np.maximum(self.hi[layer], 0.0)

    def m_minus(self, layer):
        return np.maximum(-self.lo[layer], 0.0)

    def to_csv(self):
        lines = ["layer,neuron,lo,hi,provenance"]
        for li, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            for j in range(lo.size):
                lines.append(f"{li},{j},{lo[j]!r},{hi[j]!r},{self.provenance[li]}")
        return "\n".join(lines) + "\n"


@dataclass(kw_only=True)
class MipModel(LinearProgram):
    """A MILP that is its own continuous relaxation: the LinearProgram
    fields, with binaries relaxed into their [0, 1] bounds, plus the
    integrality marks and the encoder's metadata."""

    names: list
    is_binary: np.ndarray
    # encoder metadata consumed by the solver and the primal heuristic
    mlp: Mlp = None  # the network encoded; None for a model read from LP text
    input_vars: list = field(default_factory=list)
    output_vars: list = field(default_factory=list)
    # per hidden layer, int arrays (vp, vm, z) of each neuron's columns, -1
    # where it has none: a stable neuron has no vm and no z, and an inactive
    # one keeps a vp column fixed at 0
    relu: list = field(default_factory=list)

    @property
    def num_binaries(self):
        return int(self.is_binary.sum())


def _affine_interval(W, b, lo, hi):
    """Bounds of W x + b over the box lo <= x <= hi, through W+/W- splits."""
    Wp, Wm = np.maximum(W, 0.0), np.minimum(W, 0.0)
    return Wp @ lo + Wm @ hi + b, Wp @ hi + Wm @ lo + b


def interval_bounds(mlp, box):
    """Pre-activation intervals from propagating the box layer by layer."""
    if box.dim != mlp.input_dim:
        raise ValueError("box dimension does not match network input")
    lo, hi = box.lower, box.upper
    los, his = [], []
    for W, b in mlp.layers[:-1]:
        pre_lo, pre_hi = _affine_interval(W, b, lo, hi)
        los.append(pre_lo)
        his.append(pre_hi)
        lo, hi = np.maximum(pre_lo, 0.0), np.maximum(pre_hi, 0.0)
    return BoundsTable(los, his, ["interval"] * len(los))


class _ModelBuilder:
    """A model's columns and rows in the order they are added. Each row's
    nonzeros are kept as (row, column, value) triplets until finish()."""

    def __init__(self):
        self.names = []
        self.lower = []
        self.upper = []
        self.binary = []
        self.relation = []
        self.rhs = []
        self.entries = ([], [], [])  # rows, columns, values

    def add_var(self, name, lo, hi, binary=False):
        self.names.append(name)
        self.lower.append(lo)
        self.upper.append(hi)
        self.binary.append(binary)
        return len(self.names) - 1

    def add_con(self, coeffs, relation, rhs):
        """The row coeffs . x (relation) rhs, coeffs a {column: value} dict."""
        rows, cols, vals = self.entries
        rows += [len(self.rhs)] * len(coeffs)
        cols += coeffs
        vals += coeffs.values()
        self.relation.append(relation)
        self.rhs.append(rhs)

    def add_affine(self, row, prev, weights, bias):
        """The row `row - weights . prev = bias`; zero weights get no entry."""
        nz = np.flatnonzero(weights)
        row.update(zip(np.take(prev, nz).tolist(), (-weights[nz]).tolist()))
        self.add_con(row, EQ, bias)

    def finish(self, **meta):
        n = len(self.names)
        rows, cols, vals = self.entries
        A = np.zeros((len(self.rhs), n))
        A[np.array(rows, dtype=int), np.array(cols, dtype=int)] = vals
        return MipModel(
            num_vars=n,
            objective=np.zeros(n),
            lower=np.array(self.lower, dtype=float),
            upper=np.array(self.upper, dtype=float),
            A=A,
            relation=np.array(self.relation, dtype=str),
            rhs=np.array(self.rhs, dtype=float),
            names=self.names,
            is_binary=np.array(self.binary, dtype=bool),
            **meta,
        )


def _encode_hidden(layers, box, bounds, eliminate_stable=True):
    """Input columns and the big-M rows of the given hidden layers.

    Returns (builder, input columns, (vp, vm, z) column arrays per layer,
    the columns feeding the layer after the last one given).
    """
    bld = _ModelBuilder()
    inputs = [bld.add_var(f"x_{i}", box.lower[i], box.upper[i]) for i in range(box.dim)]
    prev = inputs
    relu = []
    for li, (W, b) in enumerate(layers):
        if W.shape[0] != bounds.lo[li].size:
            raise ValueError(f"bounds table layer {li} width mismatch")
        vps, vms, zs = np.full((3, W.shape[0]), -1)
        mp_arr, mm_arr = bounds.m_plus(li), bounds.m_minus(li)
        for j in range(W.shape[0]):
            lo_j, hi_j = bounds.lo[li][j], bounds.hi[li][j]
            mp, mm = mp_arr[j], mm_arr[j]
            if eliminate_stable and hi_j <= 0.0:  # inactive: vp fixed at 0, no row
                vps[j] = bld.add_var(f"vp_{li}_{j}", 0.0, 0.0)
            elif eliminate_stable and lo_j >= 0.0:  # active: vp = p
                vp = vps[j] = bld.add_var(f"vp_{li}_{j}", max(lo_j, 0.0), hi_j)
                bld.add_affine({vp: 1.0}, prev, W[j], b[j])
            else:
                vp = vps[j] = bld.add_var(f"vp_{li}_{j}", 0.0, mp)
                vm = vms[j] = bld.add_var(f"vm_{li}_{j}", 0.0, mm)
                z = zs[j] = bld.add_var(f"z_{li}_{j}", 0.0, 1.0, binary=True)
                bld.add_affine({vp: 1.0, vm: -1.0}, prev, W[j], b[j])
                bld.add_con({vp: 1.0, z: -mp}, LE, 0.0)
                bld.add_con({vm: 1.0, z: mm}, LE, mm)
        relu.append((vps, vms, zs))
        prev = vps.tolist()
    return bld, inputs, relu, prev


def encode_network(mlp, box, bounds, eliminate_stable=True):
    """Big-M MILP of the network over the box, using the given bounds table.

    With eliminate_stable=False every hidden neuron receives the full
    3-row encoding and a binary, matching the m binaries / n+2m continuous /
    3m rows per-layer accounting. Each output column is bounded by the
    interval of its row over the bounds of the columns that row reads.
    """
    if box.dim != mlp.input_dim:
        raise ValueError("box dimension does not match network input")
    if len(bounds.lo) != len(mlp.layers) - 1:
        raise ValueError("bounds table does not match network depth")
    bld, inputs, relu, prev = _encode_hidden(mlp.layers[:-1], box, bounds, eliminate_stable)
    W, b = mlp.layers[-1]
    out_lo, out_hi = _affine_interval(W, b, np.take(bld.lower, prev), np.take(bld.upper, prev))
    outputs = []
    for j in range(W.shape[0]):
        y = bld.add_var(f"y_{j}", out_lo[j], out_hi[j])
        bld.add_affine({y: 1.0}, prev, W[j], b[j])
        outputs.append(y)
    return bld.finish(mlp=mlp, input_vars=inputs, output_vars=outputs, relu=relu)


def obbt_tighten(mlp, box, deadline=None):
    """Tighten the interval bounds of each neuron with two LPs per neuron.

    Over a box the LP bounds of the first hidden layer are its interval
    bounds, so layer 0 keeps those and runs no LP. Later layers are
    processed in ascending order so every LP sees final bounds for all
    predecessor layers; results are intersected with the interval bounds.
    Once time.monotonic() passes deadline (if given), the table is returned
    as it stands between neurons: untightened entries keep their interval
    bounds, so every entry is still valid, and only layers tightened in full
    are marked "obbt". An LP that does not end optimal (the simplex
    iteration limit, or a relaxation infeasible only numerically) leaves its
    side of that neuron at the interval bound, which is still valid, and its
    layer marked "interval".
    """
    from .lp import solve_lp

    table = interval_bounds(mlp, box)
    los, his = table.lo, table.hi
    if los:  # a net without hidden layers has no bounds to tighten
        table.provenance[0] = "obbt"
    for li in range(1, len(mlp.layers) - 1):
        W, b = mlp.layers[li]
        # the encoder's own rows for layers < li; LPs ignore integrality
        bld, _, _, prev = _encode_hidden(mlp.layers[:li], box, table)
        prefix = bld.finish()
        tightened = True
        for j in range(W.shape[0]):
            if deadline is not None and time.monotonic() > deadline:
                return table
            c = np.zeros(prefix.num_vars)
            c[prev] = W[j]
            for sign in (1.0, -1.0):  # hi is max c.x + b, lo is -max(-c.x) + b
                sol = solve_lp(replace(prefix, objective=sign * c))
                if sol.status != "optimal":  # keep the interval bound
                    tightened = False
                    continue
                val = sign * sol.objective + b[j]
                if sign > 0:
                    his[li][j] = min(his[li][j], val)
                else:
                    los[li][j] = max(los[li][j], val)
            if los[li][j] > his[li][j]:  # numerical crossover at a fixed point
                mid = 0.5 * (los[li][j] + his[li][j])
                los[li][j] = his[li][j] = mid
        if tightened:
            table.provenance[li] = "obbt"
    return table


def encode_adversarial(mlp, x, delta, k, h, bounds_mode="interval", clamp=True,
                       deadline=None):
    """Adversarial model: maximize y_h - y_k over the delta-box around x.

    It encodes the margin network, whose output layer is row h minus row k
    of the net's, and maximizes its one output column, `margin`. clamp
    intersects the box with [0, 1] (pixel domain) and needs x in [0, 1],
    since that box would otherwise exclude x; bounds_mode is "interval"
    or "obbt"; deadline (a time.monotonic() value) stops OBBT early with the
    bounds tightened so far.
    """
    x = np.asarray(x, dtype=float)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if not (0 <= k < mlp.output_dim and 0 <= h < mlp.output_dim) or k == h:
        raise ValueError(f"invalid class pair ({k}, {h})")
    if clamp and not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("clamp needs an input in [0, 1]")
    lo, hi = x - delta, x + delta
    if clamp:
        lo, hi = np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)
    box = InputBox(lo, hi)
    if bounds_mode not in ("interval", "obbt"):
        raise ValueError(f"unknown bounds mode {bounds_mode!r}")
    bounds = (obbt_tighten(mlp, box, deadline) if bounds_mode == "obbt"
              else interval_bounds(mlp, box))
    W, b = mlp.layers[-1]
    margin_net = Mlp(mlp.layers[:-1] + [((W[h] - W[k])[None, :], np.array([b[h] - b[k]]))])
    model = encode_network(margin_net, box, bounds)
    (out,) = model.output_vars
    model.names[out] = "margin"
    model.objective[out] = 1.0
    return model


def assemble_trace(model, x):
    """Full feasible assignment that model.mlp induces from input x (clipped to the box)."""
    lo = model.lower[model.input_vars]
    hi = model.upper[model.input_vars]
    x = np.clip(np.asarray(x, dtype=float), lo, hi)
    logits, preacts = forward(model.mlp, x)
    point = np.zeros(model.num_vars)
    point[model.input_vars] = x
    for (vp, vm, z), p in zip(model.relu, preacts):
        split = z >= 0
        on = split | (model.upper[vp] > 0)  # split or active; an inactive vp stays 0
        point[vp[on]] = np.maximum(p[on], 0.0)
        point[vm[split]] = np.maximum(-p[split], 0.0)
        point[z[split]] = p[split] > 0
    point[model.output_vars] = logits
    return point


# ---------------------------------------------------------------------------
# LP-file text format (Maximize / Subject To / Bounds / Binaries sections),
# in the kernel's one form: <= and = rows, every non-binary column boxed.


def _num(v):
    return repr(float(v))


def _expr(coeffs, columns, names):
    """coeffs . x as text, its nonzero terms in the order of columns."""
    parts = []
    for j in columns[np.flatnonzero(coeffs[columns])].tolist():
        c = coeffs[j]
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {_num(abs(c))} {names[j]}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def write_lp(model):
    """Deterministic LP-format text; re-parsing our output is byte-stable.

    The objective is maximized, each row of A is written with its relation
    and rhs, and each non-binary column gets the Bounds line
    `lo <= name <= hi`. A non-binary column without a finite lower and upper
    bound raises ValueError. Every expression lists its nonzero terms, and
    Bounds and Binaries their columns, in order of first appearance in the
    document (the objective in column order, then each row in column
    order), which is exactly the variable order parse_lp reconstructs — so
    write -> parse -> write is the identity.
    """
    A = np.asarray(model.A, dtype=float)
    seen = np.concatenate([np.flatnonzero(model.objective), np.nonzero(A)[1],
                           np.arange(model.num_vars)])
    _, first = np.unique(seen, return_index=True)
    columns = seen[np.sort(first)]

    lines = ["Maximize", f" obj: {_expr(model.objective, columns, model.names)}", "Subject To"]
    for i, (coeffs, relation, rhs) in enumerate(zip(A, model.relation, model.rhs)):
        lines.append(f" c{i}: {_expr(coeffs, columns, model.names)} {relation} {_num(rhs)}")
    lines.append("Bounds")
    for j in columns.tolist():
        if model.is_binary[j]:
            continue
        name, lo, hi = model.names[j], model.lower[j], model.upper[j]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"column {name!r} has no finite lower and upper bound")
        lines.append(f" {_num(lo)} <= {name} <= {_num(hi)}")
    binaries = [model.names[j] for j in columns.tolist() if model.is_binary[j]]
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_lp(model, path):
    with open(path, "w") as f:
        f.write(write_lp(model))


_SECTIONS = {"maximize": "objective", "subject to": "constraints", "bounds": "bounds",
             "binaries": "binaries"}


def _parse_terms(tokens, get_var):
    coeffs = {}
    sign = 1.0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            sign = 1.0
            i += 1
        elif tok == "-":
            sign = -1.0
            i += 1
        elif tok == "0" and len(tokens) == 1:
            i += 1
        else:
            coef = sign * float(tok)
            j = get_var(tokens[i + 1])
            coeffs[j] = coeffs.get(j, 0.0) + coef
            sign = 1.0
            i += 2
    return coeffs


def parse_lp(text):
    """Parse LP text produced by write_lp back into a MipModel (no metadata).

    Only write_lp's form is read: one Maximize objective line, <= and = rows,
    a `lo <= name <= hi` Bounds line for every non-binary column, and
    Binaries. Anything else raises ValueError: a Minimize section, a >= row,
    a free or one-sided bound, or a non-binary column without Bounds line.
    """
    bld = _ModelBuilder()
    var_index = {}
    bounded = set()  # the columns given a Bounds line or listed in Binaries

    def _get_var(name):
        if name not in var_index:
            var_index[name] = bld.add_var(name, 0.0, 0.0)
        return var_index[name]

    objective = None
    section = "leading"  # the lines before the first section header
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        low = line.lower()
        if low == "end":
            break
        if low in _SECTIONS:
            section = _SECTIONS[low]
            continue
        try:
            if section == "objective":
                body = line.split(":", 1)[1] if ":" in line else line
                objective = _parse_terms(body.split(), _get_var)
            elif section == "constraints":
                body = line.split(":", 1)[1] if ":" in line else line
                *terms, relation, rhs = body.split()
                if relation not in (LE, EQ):
                    raise ValueError
                bld.add_con(_parse_terms(terms, _get_var), relation, float(rhs))
            elif section == "bounds":
                lo, rel_lo, name, rel_hi, hi = line.split()
                if rel_lo != LE or rel_hi != LE:
                    raise ValueError
                j = _get_var(name)
                bld.lower[j], bld.upper[j] = float(lo), float(hi)
                bounded.add(j)
            elif section == "binaries":
                for name in line.split():
                    j = _get_var(name)
                    bld.binary[j] = True
                    bld.lower[j], bld.upper[j] = 0.0, 1.0
                    bounded.add(j)
            else:
                raise ValueError
        except (IndexError, ValueError):
            raise ValueError(f"LP text line {lineno}: malformed {section} line {line!r}") from None
    if objective is None:
        raise ValueError("LP text has no objective line")
    unbounded = [name for j, name in enumerate(bld.names) if j not in bounded]
    if unbounded:
        raise ValueError(f"LP text gives column {unbounded[0]!r} no bounds")
    model = bld.finish()
    model.objective[list(objective)] = list(objective.values())
    return model
