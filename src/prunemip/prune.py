"""Magnitude-threshold structured neuron removal and the train->prune->fine-tune pipeline."""

from dataclasses import dataclass, replace

import numpy as np

from .archs import format_arch
from .nn import Mlp, accuracy, init_mlp, sgd_train


class OverPrunedError(ValueError):
    """A hidden layer would lose all of its neurons at the given threshold:
    the threshold, or the penalty that drove the weights below it, is too
    large."""


@dataclass
class PruneReport:
    kept: list  # kept neuron count per hidden layer
    removed: list  # removed neuron count per hidden layer
    pruned_arch: str
    threshold: float
    post_accuracy: float = None  # of the fine-tuned net, set by prune_pipeline
    baseline: Mlp = None  # the unregularized net prune_pipeline trained, set by it

    @property
    def neurons_removed(self):
        return sum(self.removed)


def neuron_magnitudes(mlp):
    """Per hidden layer: max(|row| union |bias|) per neuron."""
    return [
        np.maximum(np.abs(W).max(axis=1), np.abs(b))
        for W, b in mlp.layers[:-1]
    ]


def threshold_prune(mlp, tau):
    """Remove hidden neuron j iff max(|incoming weights| U |bias|) < tau.

    Removal deletes row j of (W, b) and the matching column of the next
    layer's W. Output neurons and input features are never removed.
    """
    if not tau >= 0:  # NaN fails too
        raise ValueError("tau must be >= 0")
    if len(mlp.layers) < 2:
        raise ValueError("network has no hidden layer")
    keep_masks = []
    for li, mags in enumerate(neuron_magnitudes(mlp)):
        keep = mags >= tau
        if not keep.any():
            raise OverPrunedError(
                f"hidden layer {li} would be emptied at tau={tau}; lower tau or lambda"
            )
        keep_masks.append(keep)
    layers = []
    for li, (W, b) in enumerate(mlp.layers):
        if li > 0:
            W = W[:, keep_masks[li - 1]]
        if li < len(mlp.layers) - 1:
            W, b = W[keep_masks[li]], b[keep_masks[li]]
        layers.append((W.copy(), b.copy()))
    pruned = Mlp(layers)
    report = PruneReport(
        kept=[int(k.sum()) for k in keep_masks],
        removed=[int((~k).sum()) for k in keep_masks],
        pruned_arch=format_arch([int(k.sum()) for k in keep_masks]),
        threshold=tau,
    )
    return pruned, report


def fine_tune(mlp, data, epochs, cfg):
    """Plain SGD recovery pass after pruning; refuses a regularized config."""
    if cfg.regularizer is not None:
        raise ValueError("fine_tune requires a config without a regularizer")
    ft_cfg = replace(cfg, epochs=epochs)
    net, _ = sgd_train(mlp, data, ft_cfg)
    return net


def check_prune_args(grid, tau, fine_tune_epochs):
    """Raise ValueError for a grid, threshold or fine-tuning length that
    prune_pipeline cannot run with, so a caller can check them before it
    trains anything."""
    if not grid:
        raise ValueError("empty grid")
    if not tau >= 0:  # NaN fails too
        raise ValueError("tau must be >= 0")
    if not fine_tune_epochs >= 0:
        raise ValueError("fine_tune_epochs must be >= 0")


def prune_pipeline(
    hidden_widths,
    data,
    grid,
    base_cfg,
    tau=1e-3,
    fine_tune_epochs=10,
    acc_floor=0.005,
):
    """Grid search: train with SPR -> threshold prune -> fine-tune -> evaluate.

    Selects the candidate with the fewest remaining hidden neurons subject to
    accuracy >= baseline accuracy - acc_floor. If no candidate meets the
    floor, the highest-accuracy candidate is returned flagged "floor unmet".
    A selection that meets the floor is flagged "ok", or "nothing pruned"
    when it removed no neuron. Any selection is flagged "baseline diverged"
    when the baseline's accuracy is at or below chance (1/C for C classes),
    since the floor then means nothing.

    Returns (selected Mlp, PruneReport, log). The log holds a "baseline"
    entry, one "grid" entry per grid point and, last, a "selected" entry
    that names the chosen grid point by its lambda, alpha and m. The
    report's baseline is the plain-SGD net the floor was measured on.
    """
    check_prune_args(grid, tau, fine_tune_epochs)
    if not acc_floor >= 0:
        raise ValueError("acc_floor must be >= 0")
    init = init_mlp(data.inputs.shape[1], hidden_widths, data.num_classes, base_cfg.seed)
    plain_cfg = replace(base_cfg, regularizer=None)
    baseline, _ = sgd_train(init, data, plain_cfg)
    base_acc = accuracy(baseline, data)
    log = [{"kind": "baseline", "arch": format_arch(hidden_widths), "accuracy": base_acc}]
    candidates = []
    for cfg in grid:
        trained, _ = sgd_train(init, data, replace(base_cfg, regularizer=cfg))
        try:
            pruned, report = threshold_prune(trained, tau)
        except OverPrunedError as exc:
            log.append({"kind": "grid", "lambda": cfg.lam, "alpha": cfg.alpha, "m": cfg.m,
                        "tau": tau, "error": str(exc)})
            continue
        tuned = fine_tune(pruned, data, fine_tune_epochs, plain_cfg)
        acc = accuracy(tuned, data)
        report.post_accuracy = acc
        remaining = sum(report.kept)
        log.append({
            "kind": "grid", "lambda": cfg.lam, "alpha": cfg.alpha, "m": cfg.m, "tau": tau,
            "pruned_arch": report.pruned_arch, "accuracy": acc,
            "neurons_removed": report.neurons_removed,
        })
        candidates.append((remaining, acc, tuned, report, cfg))
    if not candidates:
        raise OverPrunedError(f"every grid point over-pruned a layer at tau={tau}; "
                              "lower tau or lambda")
    eligible = [c for c in candidates if c[1] >= base_acc - acc_floor]
    if eligible:
        remaining, acc, net, report, cfg = min(eligible, key=lambda c: (c[0], -c[1]))
        flag = "ok" if report.neurons_removed else "nothing pruned"
    else:
        remaining, acc, net, report, cfg = max(candidates, key=lambda c: c[1])
        flag = "floor unmet"
    if base_acc <= 1.0 / data.num_classes:
        flag = "baseline diverged"
    log.append({"kind": "selected", "lambda": cfg.lam, "alpha": cfg.alpha, "m": cfg.m,
                "pruned_arch": report.pruned_arch, "accuracy": acc,
                "baseline_accuracy": base_acc, "flag": flag})
    report.baseline = baseline
    return net, report, log


def grid_log_csv(log):
    """Grid-point rows as CSV: lambda,alpha,m,tau,pruned_arch,accuracy,neurons_removed."""
    lines = ["lambda,alpha,m,tau,pruned_arch,accuracy,neurons_removed"]
    for row in log:
        if row.get("kind") != "grid" or "error" in row:
            continue
        lines.append(
            f"{row['lambda']},{row['alpha']},{row['m']},{row['tau']},"
            f"{row['pruned_arch']},{row['accuracy']},{row['neurons_removed']}"
        )
    return "\n".join(lines) + "\n"
