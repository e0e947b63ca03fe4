"""Span tracing from outside the program, and the per-layer metrics.

While a Tracer is entered it replaces module attributes that prunemip looks
up at call time with wrappers that record a span (name, start, end, parent,
attrs). Leaving it puts the original functions back, so untraced operations
run the unmodified program. Spans stay in memory until the run writes them.
"""

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# importlib, because the package attribute `prunemip.verify` is the verify
# function, not the module whose globals need patching
bnb, encode, lp, nn, prune, verify = (importlib.import_module(f"prunemip.{name}") for name in
                                      ("bnb", "encode", "lp", "nn", "prune", "verify"))


def _lp_shape(args, kwargs, result):
    """Rows and columns of the dense simplex's standard form of this LP:
    one row per constraint plus one per finite upper bound of a shifted
    column; one column per shifted or mirrored variable, two per free
    variable, plus one slack per inequality row. Fixed variables drop out."""
    program = args[0]
    lo, up = np.asarray(program.lower, dtype=float), np.asarray(program.upper, dtype=float)
    free = lo != up
    shifted = free & np.isfinite(lo)
    mirrored = free & ~np.isfinite(lo) & np.isfinite(up)
    split = free & ~np.isfinite(lo) & ~np.isfinite(up)
    ub_rows = int((shifted & np.isfinite(up)).sum())
    inequalities = sum(1 for con in program.constraints if con.relation != "=") + ub_rows
    return {"rows": len(program.constraints) + ub_rows,
            "cols": int(shifted.sum() + mirrored.sum() + 2 * split.sum()) + inequalities}


def _unstable(args, kwargs, bounds):
    return {"unstable": int(sum(((lo < 0.0) & (hi > 0.0)).sum()
                                for lo, hi in zip(bounds.lo, bounds.hi)))}


TARGETS = [
    (verify, "encode_adversarial", lambda a, k, model: {"binaries": model.num_binaries}),
    (verify, "solve", lambda a, k, report: {"nodes": report.nodes}),
    (encode, "interval_bounds", _unstable),
    (encode, "obbt_tighten", None),
    (encode, "encode_network", None),
    (lp, "solve_lp", _lp_shape),  # obbt_tighten imports it inside the call
    (bnb, "solve_lp", _lp_shape),
    (bnb, "assemble_trace", None),
    (prune, "sgd_train",
     lambda a, k, r: {"spr": a[2].regularizer is not None, "epochs": a[2].epochs}),
    (prune, "threshold_prune", None),
    (nn, "grad_cross_entropy", None),
]


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: id, name, parent, start, end, plus attrs
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module, attr, annotate in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, fn, annotate))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _open(self, name, attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec):
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if annotate is not None:
                rec.update(annotate(args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """A span opened by the benchmark itself; yields its record."""
        rec = self._open(name, attrs)
        try:
            yield rec
        finally:
            self._close(rec)


def layer_metrics(spans, ops, overhead_s):
    """Per-operation layer figures from the spans of `ops` traced operations."""
    child_time = defaultdict(float)
    side = {}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
        side[s["id"]] = s.get("side") if s["name"] == "verify" else side.get(s["parent"])

    def pick(name, **where):
        out = by_name[name]
        if "side" in where:
            out = [s for s in out if side[s["id"]] == where["side"]]
        if "spr" in where:
            out = [s for s in out if s["spr"] == where["spr"]]
        return out

    def total(sel):
        return sum(s["end"] - s["start"] for s in sel)

    def self_time(sel):
        return sum(s["end"] - s["start"] - child_time[s["id"]] for s in sel)

    def attr(sel, key):
        return sum(s[key] for s in sel)

    def ratio(num, den):
        return num / den if den else 0.0

    lps = pick("lp.solve_lp") + pick("bnb.solve_lp")
    spr, plain = pick("prune.sgd_train", spr=True), pick("prune.sgd_train", spr=False)
    pipelines = pick("prune_pipeline")
    return {
        "verify.base_s": total(pick("verify", side="base")) / ops,
        "verify.pruned_s": total(pick("verify", side="pruned")) / ops,
        "verify.self_s": self_time(pick("verify")) / ops,
        "encode.interval_s": total(pick("encode.interval_bounds")) / ops,
        "encode.obbt_s": total(pick("encode.obbt_tighten")) / ops,
        "encode.model_s": total(pick("encode.encode_network")) / ops,
        "encode.obbt_lps": len(pick("lp.solve_lp")) / ops,
        "encode.unstable_interval": attr(pick("encode.interval_bounds"), "unstable") / ops,
        "encode.binaries_base":
            attr(pick("verify.encode_adversarial", side="base"), "binaries") / ops,
        "encode.binaries_pruned":
            attr(pick("verify.encode_adversarial", side="pruned"), "binaries") / ops,
        "bnb.s": total(pick("verify.solve")) / ops,
        "bnb.lp_s": total(pick("bnb.solve_lp")) / ops,
        "bnb.heuristic_s": total(pick("bnb.assemble_trace")) / ops,
        "bnb.self_s": self_time(pick("verify.solve")) / ops,
        "bnb.nodes_base": attr(pick("verify.solve", side="base"), "nodes") / ops,
        "bnb.nodes_pruned": attr(pick("verify.solve", side="pruned"), "nodes") / ops,
        "bnb.lp_solves": len(pick("bnb.solve_lp")) / ops,
        "lp.solves": len(lps) / ops,
        "lp.s_per_solve": ratio(total(lps), len(lps)),
        "lp.rows_mean": ratio(attr(lps, "rows"), len(lps)),
        "lp.cols_mean": ratio(attr(lps, "cols"), len(lps)),
        "nn.spr_train_s": total(spr) / ops,
        "nn.plain_train_s": total(plain) / ops,
        "nn.spr_epoch_s": ratio(total(spr), attr(spr, "epochs")),
        "nn.plain_epoch_s": ratio(total(plain), attr(plain, "epochs")),
        "nn.backprop_s": total(pick("nn.grad_cross_entropy")) / ops,
        "nn.backprop_calls": len(pick("nn.grad_cross_entropy")) / ops,
        "prune.threshold_s": total(pick("prune.threshold_prune")) / ops,
        "prune.grid_points": attr(pipelines, "grid_points") / ops,
        "prune.over_pruned": attr(pipelines, "over_pruned") / ops,
        "prune.neurons_kept": attr(pipelines, "neurons_kept") / ops,
        "trace.overhead_s": overhead_s,
    }
