"""Adversarial-verification harness.

An instance asks whether any input within the delta-box around a correctly
classified point makes the runner-up class h outscore the true class k.
Robust means the solver certified max(y_h - y_k) <= 0; a counterexample is
any box point whose forward margin is positive (validated independently of
the solver). A solve that ends without either (a positive optimum whose point
the forward pass rejects, an infeasible model, or a search that ended
`lp-failed` because a node LP ended at the simplex iteration limit) is
unknown.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .bnb import SolverConfig, solve
from .encode import encode_adversarial
from .nn import forward


@dataclass
class VerificationInstance:
    mlp: object
    x: np.ndarray
    k: int  # true class
    h: int  # runner-up class
    delta: float
    units: str = "scaled"  # "scaled" | "raw-pixel" (delta divided by 255)
    clamp: bool = True

    @property
    def effective_delta(self):
        return self.delta / 255.0 if self.units == "raw-pixel" else self.delta


@dataclass
class Verdict:
    outcome: str  # "robust" | "counterexample" | "timeout" | "unknown"
    margin: float
    counterexample_input: np.ndarray
    report: object

    def to_json(self, config=None):
        doc = {
            "outcome": self.outcome,
            "margin": self.margin,
            "nodes": self.report.nodes,
            "wall_seconds": self.report.wall_seconds,
            "status": self.report.status,
            "best_bound": self.report.best_bound,
            "stats": self.report.stats,
            "counterexample": (
                None if self.counterexample_input is None else self.counterexample_input.tolist()
            ),
        }
        if config is not None:
            doc["config"] = config
        return strict_json(doc, indent=1)


def _finite_or_none(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return obj


def strict_json(obj, **kwargs):
    """json.dumps with every non-finite float written as null: strict JSON,
    where json.dumps would write the non-standard Infinity and NaN."""
    return json.dumps(_finite_or_none(obj), allow_nan=False, **kwargs)


class InvalidInstanceError(ValueError):
    """The clean input is not classified as its label."""


def runner_up(logits, k):
    """Second-highest coordinate relative to k; ties to the smallest index."""
    order = [j for j in range(len(logits)) if j != k]
    return max(order, key=lambda j: (logits[j], -j))


def build_instance(mlp, x, label, delta, units="scaled", clamp=True):
    """The instance of x with its label. Raises ValueError for a label that
    is not a class, InvalidInstanceError for a misclassified x."""
    if not 0 <= label < mlp.output_dim:
        raise ValueError(f"label {label} is outside the classes 0..{mlp.output_dim - 1}")
    x = np.asarray(x, dtype=float)
    logits, _ = forward(mlp, x)
    if int(np.argmax(logits)) != label:
        raise InvalidInstanceError(
            f"input is classified as {int(np.argmax(logits))}, not {label}"
        )
    return VerificationInstance(mlp, x, label, runner_up(logits, label), delta, units, clamp)


def margin_of(mlp, x, k, h):
    logits, _ = forward(mlp, x)
    return float(logits[h] - logits[k])


def verify(inst, cfg=None, bounds_mode="obbt"):
    """Encode, solve, adjudicate. The counterexample (if any) is re-validated
    by a forward pass before it is reported.

    The time limit and the report's wall_seconds run from the start of the
    encoding, so they cover bound tightening as well as branch-and-bound.
    Likewise the report's stats hold, after the search's counters, the LPs
    that bound tightening solved with their pivots and bound flips.
    """
    cfg = cfg or SolverConfig()
    started = time.monotonic()
    model = encode_adversarial(
        inst.mlp, inst.x, inst.effective_delta, inst.k, inst.h,
        bounds_mode=bounds_mode, clamp=inst.clamp,
        deadline=started + cfg.time_limit_seconds,
    )
    report = solve(model, cfg, started=started)
    b = model.bounds
    report.stats.update(obbt_lps=b.obbt_lps, obbt_pivots=b.obbt_pivots, obbt_flips=b.obbt_flips)
    if report.incumbent_point is not None:
        x_adv = report.incumbent_point[model.input_vars]
        margin = margin_of(inst.mlp, x_adv, inst.k, inst.h)
        if margin > 0:
            return Verdict("counterexample", margin, x_adv, report)
    if report.status == "optimal" and report.incumbent_obj <= 0:
        return Verdict("robust", report.incumbent_obj, None, report)
    if report.status in ("optimal", "infeasible", "lp-failed"):
        return Verdict("unknown", report.incumbent_obj, None, report)
    return Verdict("timeout", report.incumbent_obj, None, report)


def cross_check(x_adv, other_mlp, clean_x):
    """True iff x_adv is adversarial for other_mlp's own (k, h) at clean_x."""
    x_adv = np.asarray(x_adv, dtype=float)
    if x_adv.shape != (other_mlp.input_dim,):
        raise ValueError("counterexample dimension does not match the other network")
    logits, _ = forward(other_mlp, np.asarray(clean_x, dtype=float))
    k = int(np.argmax(logits))
    h = runner_up(logits, k)
    return margin_of(other_mlp, x_adv, k, h) > 0
