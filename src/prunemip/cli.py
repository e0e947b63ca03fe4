"""Command-line surface: train, prune, verify, bench, export-lp, gen-data."""

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .archs import format_arch, parse_arch
from .bnb import SolverConfig
from .data import gen_synthetic, load_mnist
from .encode import encode_adversarial, export_lp
from .nn import TrainConfig, accuracy, forward, init_mlp, load_model, save_model, sgd_train
from .prune import check_prune_args, grid_log_csv, prune_pipeline
from .spr import SprConfig
from .verify import InvalidInstanceError, build_instance, cross_check, strict_json, verify

EXIT_ROBUST = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_TIMEOUT = 2
EXIT_MISCLASSIFIED = 3
EXIT_UNKNOWN = 4
EXIT_USAGE = 64  # sysexits EX_USAGE: a bad argument, distinct from every verdict

BENCH_HEADER = ["arch", "lambda_alpha", "accuracy", "time_s", "nodes", "pruned_arch", "found"]
# the synthetic blobs when --mnist is not given; a --synthetic spec
# overrides any of its fields
SYNTHETIC = "dims=6,classes=3,samples=600,margin=6.0"


def _write_manifest(out_path, args):
    manifest = {
        "argv": sys.argv[1:],
        "flags": {k: v for k, v in vars(args).items() if k != "func"},
        "version": __version__,
        "numpy_version": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(strict_json(manifest, indent=1, default=str) + "\n")


def _add_dataset_args(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--mnist", metavar="DIR", help="directory with MNIST IDX files")
    g.add_argument("--synthetic", metavar="SPEC", default=SYNTHETIC,
                   help="synthetic blob spec (default: %(default)s)")
    p.add_argument("--data-seed", type=int, default=0, help="seed for synthetic data")


def _parse_synth_spec(spec, seed):
    fields = dict(part.split("=") for part in SYNTHETIC.split(","))
    for part in spec.split(","):
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in fields:
            raise ValueError(f"unknown synthetic field {key!r}")
        fields[key] = val
    return gen_synthetic(int(fields["dims"]), int(fields["classes"]), int(fields["samples"]),
                         float(fields["margin"]), seed)


def _load_data(args, split="train"):
    if args.mnist:
        return load_mnist(args.mnist, split=split)
    return _parse_synth_spec(args.synthetic, args.data_seed)


def cmd_train(args):
    widths = parse_arch(args.arch)
    data = _load_data(args)
    reg = None
    if args.spr_lambda is not None:
        reg = SprConfig(args.spr_lambda, args.spr_alpha, args.spr_m)
    cfg = TrainConfig(args.epochs, args.batch, args.lr, args.seed, regularizer=reg)
    net = init_mlp(data.inputs.shape[1], widths, data.num_classes, args.seed)
    net, history = sgd_train(net, data, cfg)
    meta = {
        "arch": args.arch,
        "epochs": args.epochs,
        "batch_size": args.batch,
        "learning_rate": args.lr,
        "seed": args.seed,
        "final_accuracy": accuracy(net, data),
    }
    if reg is not None:
        meta["spr"] = {"lambda": reg.lam, "alpha": reg.alpha, "m": reg.m}
    save_model(net, args.out, training_meta=meta)
    Path(str(args.out) + ".log.json").write_text(strict_json(history, indent=1) + "\n")
    print(f"trained {format_arch(widths)} -> {args.out} "
          f"(final accuracy {meta['final_accuracy']:.4f})")
    return 0


def _grid(args):
    """The SPR grid of the --grid-* flags: every lambda with every alpha."""
    return [SprConfig(float(lam), float(alpha), args.spr_m)
            for lam in args.grid_lambdas.split(",") for alpha in args.grid_alphas.split(",")]


def cmd_prune(args):
    widths = parse_arch(args.arch)
    data = _load_data(args)
    cfg = TrainConfig(args.epochs, args.batch, args.lr, args.seed)
    net, report, log = prune_pipeline(
        widths, data, _grid(args), cfg,
        tau=args.tau, fine_tune_epochs=args.fine_tune_epochs, acc_floor=args.acc_floor,
    )
    save_model(net, args.out, training_meta={
        "arch": args.arch, "pruned_arch": report.pruned_arch, "tau": args.tau,
        "seed": args.seed, "accuracy": report.post_accuracy,
    })
    Path(str(args.out) + ".grid.csv").write_text(grid_log_csv(log))
    Path(str(args.out) + ".report.json").write_text(json.dumps({
        "kept": report.kept, "removed": report.removed, "pruned_arch": report.pruned_arch,
        "threshold": report.threshold, "post_accuracy": report.post_accuracy,
        "log": log,
    }, indent=1) + "\n")
    print(f"pruned {args.arch} -> {report.pruned_arch} "
          f"(accuracy {report.post_accuracy:.4f}) -> {args.out}")
    return 0


def _pick_instance(mlp, args):
    if args.input is not None:
        x = np.array(json.loads(Path(args.input).read_text()), dtype=float)
        logits, _ = forward(mlp, x)
        label = args.label if args.label is not None else int(np.argmax(logits))
        return x, label
    if args.label is not None:
        raise ValueError("--label needs --input; a dataset sample carries its own label")
    data = _load_data(args, split="test" if args.mnist else "train")
    idx = args.index
    if not 0 <= idx < len(data):
        raise ValueError(f"--index {idx} is outside the dataset's 0..{len(data) - 1}")
    return data.inputs[idx], int(data.labels[idx])


def _resolve_units_clamp(mnist, units=None, clamp=None):
    """Image data defaults to raw-pixel deltas on a [0,1]-clamped box."""
    units = units if units is not None else ("raw-pixel" if mnist else "scaled")
    clamp = clamp if clamp is not None else bool(mnist)
    return units, clamp


def _instance(args):
    """The verification instance that the verify and export-lp flags name.

    Raises InvalidInstanceError when the clean input is misclassified.
    """
    mlp, _ = load_model(args.model)
    x, label = _pick_instance(mlp, args)
    units, clamp = _resolve_units_clamp(args.mnist, args.units, args.clamp)
    return build_instance(mlp, x, label, args.delta, units=units, clamp=clamp)


def cmd_verify(args):
    inst = _instance(args)
    cfg = SolverConfig(time_limit_seconds=args.time_limit)
    verdict = verify(inst, cfg, bounds_mode="obbt" if args.obbt else "interval")
    doc = verdict.to_json(config={
        "delta": args.delta, "units": inst.units, "clamp": inst.clamp,
        "time_limit": args.time_limit, "obbt": args.obbt, "k": inst.k, "h": inst.h,
    })
    if args.out:
        Path(args.out).write_text(doc + "\n")
    print(doc)
    return {"robust": EXIT_ROBUST, "counterexample": EXIT_COUNTEREXAMPLE,
            "timeout": EXIT_TIMEOUT, "unknown": EXIT_UNKNOWN}[verdict.outcome]


def cmd_bench(args):
    """Checks every flag before training; a failure inside a rep is recorded, not raised."""
    rows = []
    extras = {"cross_checks": [], "errors": []}
    archs = [(arch, parse_arch(arch)) for arch in args.archs.split(",")]
    deltas = [float(v) for v in args.deltas.split(",")]
    _, clamp = _resolve_units_clamp(args.mnist)
    if any(not delta >= 0 or (delta == math.inf and not clamp) for delta in deltas):
        raise ValueError("each delta must be >= 0, and finite unless --mnist clamps the box")
    grid = _grid(args)
    check_prune_args(grid, args.tau, args.fine_tune_epochs)
    cfg = TrainConfig(args.epochs, args.batch, args.lr, args.seed)
    solver = SolverConfig(time_limit_seconds=args.time_limit)
    data = _load_data(args)
    for arch, widths in archs:
        for rep in range(args.reps):
            rep_cfg = replace(cfg, seed=args.seed + rep)
            try:
                rows.extend(_bench_one(args, data, arch, widths, rep_cfg, grid, deltas, solver,
                                       extras))
            except Exception as exc:  # record and continue per spec
                extras["errors"].append({"arch": arch, "rep": rep, "error": str(exc)})
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(BENCH_HEADER)
        w.writerows(rows)
    summary = {
        "cross_check_transfer": extras["cross_checks"],
        "errors": extras["errors"],
    }
    Path(str(args.out) + ".summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _bench_one(args, data, arch, widths, cfg, grid, deltas, solver, extras):
    pruned, report, log = prune_pipeline(widths, data, grid, cfg, tau=args.tau,
                                         fine_tune_epochs=args.fine_tune_epochs)
    baseline, selected = report.baseline, log[-1]
    sides = ((baseline, "", "", selected["baseline_accuracy"]),
             (pruned, f"{selected['lambda']}-{selected['alpha']}", selected["pruned_arch"],
              selected["accuracy"]))
    units, clamp = _resolve_units_clamp(args.mnist)
    idx = _first_correct(baseline, data)
    rows = []
    for delta in deltas:
        for net, tag, pruned_arch, acc in sides:
            try:
                inst = build_instance(net, data.inputs[idx], int(data.labels[idx]), delta,
                                      units=units, clamp=clamp)
            except InvalidInstanceError:
                extras["errors"].append({"arch": arch, "seed": cfg.seed, "delta": delta,
                                         "error": "clean input misclassified"})
                continue
            verdict = verify(inst, solver, bounds_mode="obbt" if args.obbt else "interval")
            found = {"counterexample": "YES", "timeout": "NO", "robust": "-",
                     "unknown": "?"}[verdict.outcome]
            rows.append([arch, tag, f"{acc:.4f}",
                         f"{verdict.report.wall_seconds:.3f}", verdict.report.nodes,
                         pruned_arch, found])
            if net is pruned and verdict.outcome == "counterexample":
                extras["cross_checks"].append({
                    "arch": arch, "seed": cfg.seed, "delta": delta,
                    "transfers": cross_check(verdict.counterexample_input, baseline,
                                             data.inputs[idx]),
                })
    return rows


def _first_correct(mlp, data):
    logits, _ = forward(mlp, data.inputs)
    correct = np.flatnonzero(logits.argmax(axis=1) == data.labels)
    if correct.size == 0:
        raise RuntimeError("no correctly classified sample available")
    return int(correct[0])


def cmd_export_lp(args):
    inst = _instance(args)
    model = encode_adversarial(inst.mlp, inst.x, inst.effective_delta, inst.k, inst.h,
                               bounds_mode="obbt" if args.obbt else "interval",
                               clamp=inst.clamp)
    export_lp(model, args.out)
    print(f"wrote {args.out} ({model.num_vars} vars, {model.rhs.size} rows, "
          f"{model.num_binaries} binaries)")
    return 0


def cmd_gen_data(args):
    data = _parse_synth_spec(args.synthetic, args.data_seed)
    np.savez(args.out, inputs=data.inputs, labels=data.labels,
             num_classes=data.num_classes)
    print(f"wrote {len(data)} samples to {args.out}")
    return 0


def _add_train_flags(p):
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)


def _add_grid_flags(p):
    """The flags of prune's and bench's grid search and pruning."""
    p.add_argument("--grid-lambdas", default="0.1,0.5,1.0")
    p.add_argument("--grid-alphas", default="0.1,0.5,0.9")
    p.add_argument("--spr-m", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=1e-3)
    p.add_argument("--fine-tune-epochs", type=int, default=10)


def _add_verify_flags(p):
    p.add_argument("--delta", type=float, default=5.0)
    p.add_argument("--units", choices=["scaled", "raw-pixel"],
                   help="delta units; default raw-pixel for MNIST, scaled otherwise")
    p.add_argument("--clamp", action=argparse.BooleanOptionalAction,
                   help="intersect the box with [0,1]; default on for MNIST, off otherwise")
    p.add_argument("--obbt", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--index", type=int, default=0, help="dataset sample index")
    p.add_argument("--input", help="JSON file with a raw input vector")
    p.add_argument("--label", type=int, help="true class for --input vectors")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which is EXIT_TIMEOUT here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="prunemip",
                     description="Train, prune, and verify small ReLU networks "
                                 "via MILP branch-and-bound.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network, optionally with the SPR penalty")
    p.add_argument("--arch", required=True)
    p.add_argument("--out", required=True)
    _add_dataset_args(p)
    _add_train_flags(p)
    p.add_argument("--spr-lambda", type=float)
    p.add_argument("--spr-alpha", type=float, default=0.5)
    p.add_argument("--spr-m", type=float, default=1.0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="grid-search SPR training, prune, fine-tune")
    p.add_argument("--arch", required=True)
    p.add_argument("--out", required=True)
    _add_dataset_args(p)
    _add_train_flags(p)
    _add_grid_flags(p)
    p.add_argument("--acc-floor", type=float, default=0.005)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("verify", help="verify one input against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    _add_dataset_args(p)
    _add_verify_flags(p)
    p.add_argument("--time-limit", type=float, default=1800.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="train baseline + pruned nets and verify both")
    p.add_argument("--archs", required=True, help="comma-separated arch strings")
    p.add_argument("--out", required=True)
    _add_dataset_args(p)
    _add_train_flags(p)
    p.add_argument("--deltas", default="5.0")
    p.add_argument("--reps", type=int, default=3)
    _add_grid_flags(p)
    p.add_argument("--time-limit", type=float, default=1800.0)
    p.add_argument("--obbt", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-lp", help="write the adversarial MILP as an LP file")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_dataset_args(p)
    _add_verify_flags(p)
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("gen-data", help="write a synthetic dataset as .npz")
    p.add_argument("--out", required=True)
    p.add_argument("--synthetic", default=SYNTHETIC)
    p.add_argument("--data-seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None):
    """Run one command and write the manifest of its --out; a value the
    library rejects, or a file that cannot be read or written, exits
    EXIT_USAGE."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if args.out:
            _write_manifest(args.out, args)
        return code
    except InvalidInstanceError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return EXIT_MISCLASSIFIED
    except (ValueError, OSError) as exc:
        print(f"prunemip: error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


if __name__ == "__main__":
    sys.exit(main())
