#!/usr/bin/env python3
"""Seeded benchmark for prunemip.

    python3 bench/run.py --workload verify-desk --seed 1 --seconds 40 --trace 0

Workloads (see bench/README.md): verify-desk, verify-wide, train-prune. One
run repeats whole rounds of the workload's operations for about --seconds,
checks every output against oracle.py, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. A traced run also writes its spans and per-layer figures to
bench/out/.
"""

import time

T_START = time.perf_counter()

# first: one BLAS thread and src/ on the path, before numpy is imported
from benchenv import BENCH, NETS, ROOT  # noqa: E402

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

OUT = BENCH / "out"

try:
    import prunemip  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import prunemip from {ROOT / 'src'}: {exc}")
if Path(prunemip.__file__).resolve().parent != (ROOT / "src" / "prunemip").resolve():
    sys.exit(f"prunemip was imported from {prunemip.__file__}, not from this checkout")

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spec  # noqa: E402
from prunemip import build_instance, load_model, verify  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SETUP_PROBES = 11  # fresh set-ups spread over an untraced run, besides the run's own
TRAIN_PRUNE_PIPELINES = 7
ROBUST_TOL = 1e-6  # a robust verdict needs HiGHS's bound on the optimum <= this
BOX_TOL = 1e-9


class VerifyWorkload:
    """One operation: the same (x, delta, k) verified on the frozen baseline
    and then on its pruned counterpart, each with build_instance + verify."""

    def __init__(self, shape, seed):
        self.shape = shape
        ref = json.loads((NETS / "reference.json").read_text())[shape.name]
        self.nets, self.layers = {}, {}
        for side in ("base", "pruned"):
            path = NETS / f"{shape.name}_{side}.json"
            if oracle.file_sha256(path) != ref["networks"][path.name]:
                sys.exit(f"{path.name} does not match nets/reference.json; "
                         "remake both with bench/make_networks.py")
            self.nets[side], _ = load_model(path)
            self.layers[side] = oracle.read_layers(path)
        self.data = spec.make_data(shape)
        self.round = spec.stratified_pick(ref["candidates"], shape.strata, seed)

    def run(self, cand, tracer):
        x = self.data.inputs[cand["index"]]
        out = {}
        for side in ("base", "pruned"):
            inst = build_instance(self.nets[side], x, int(self.data.labels[cand["index"]]),
                                  cand["delta"], units=self.shape.units, clamp=self.shape.clamp)
            with tracer.span("verify", side=side) if tracer else contextlib.nullcontext():
                out[side] = (inst, verify(inst))
        return out

    def check(self, cand, out):
        """(failures, wrong answers) of one operation, as messages."""
        failures, wrong = [], []
        x = self.data.inputs[cand["index"]]
        lo, hi = oracle.input_box(x, spec.effective_delta(self.shape, cand["delta"]),
                                  self.shape.clamp)
        for i, side in enumerate(("base", "pruned")):
            inst, verdict = out[side]
            where = f"{side} net, input {cand['index']}, delta {cand['delta']}"
            if (inst.k, inst.h) != (cand["k"], cand["h"][i]):
                wrong.append(f"{where}: class pair {(inst.k, inst.h)}, "
                             f"expected {(cand['k'], cand['h'][i])}")
                continue
            bound = cand["highs_ub"][i]
            if verdict.outcome == "robust":
                if bound > ROBUST_TOL:
                    wrong.append(f"{where}: robust, but HiGHS bounds the margin by {bound}")
            elif verdict.outcome == "counterexample":
                x_adv = np.asarray(verdict.counterexample_input, dtype=float)
                if np.any(x_adv < lo - BOX_TOL) or np.any(x_adv > hi + BOX_TOL):
                    wrong.append(f"{where}: counterexample outside the box")
                elif oracle.margin(self.layers[side], x_adv, inst.k, inst.h) <= 0.0:
                    wrong.append(f"{where}: counterexample has no positive margin")
                if bound < -ROBUST_TOL:
                    wrong.append(f"{where}: counterexample, but HiGHS proves robust ({bound})")
            else:
                failures.append(f"{where}: outcome {verdict.outcome}")
        return failures, wrong


class TrainPruneWorkload:
    """One operation: one prune_pipeline call (the `prunemip prune` path) on
    the desk shape, at an init seed drawn from the workload seed.

    The wide shape is left out: at some init seeds its grid either prunes
    nothing or collapses accuracy, so the pipeline returns the unpruned net
    and the check that pruning happened fails on those seeds only."""

    def __init__(self, seed):
        self.shape = spec.DESK
        self.data = spec.make_data(self.shape)
        self.round = [int(s) for s in np.random.default_rng(seed).integers(
            0, 2**31 - 1, size=TRAIN_PRUNE_PIPELINES)]

    def run(self, init_seed, tracer):
        with tracer.span("prune_pipeline") if tracer else contextlib.nullcontext({}) as rec:
            net, report, log = spec.run_pipeline(self.shape, self.data, init_seed)
            grid = [row for row in log if row["kind"] == "grid"]
            rec.update(grid_points=len(grid), over_pruned=sum("error" in row for row in grid),
                       neurons_kept=sum(report.kept))
        return net, report, log

    def check(self, init_seed, out):
        shape, data = self.shape, self.data
        net, report, log = out
        where = f"{shape.name} pipeline, init seed {init_seed}"
        wrong = []
        layers = [(np.asarray(W), np.asarray(b)) for W, b in net.layers]
        widths = [W.shape[0] for W, _ in layers[:-1]]
        if widths != oracle.parse_arch(report.pruned_arch):
            wrong.append(f"{where}: widths {widths} differ from {report.pruned_arch}")
        if sum(widths) >= sum(shape.widths):
            wrong.append(f"{where}: {widths} is not smaller than {list(shape.widths)}")
        correct = int((oracle.logits(layers, data.inputs).argmax(axis=1) == data.labels).sum())
        acc = correct / len(data.labels)
        if round(report.post_accuracy * len(data.labels)) != correct:
            wrong.append(f"{where}: accuracy {acc}, report says {report.post_accuracy}")
        selected = log[-1]
        if selected["flag"] == "ok" and acc < selected["baseline_accuracy"] - spec.ACC_FLOOR:
            wrong.append(f"{where}: flagged ok at accuracy {acc}, baseline "
                         f"{selected['baseline_accuracy']}")
        return [], wrong


def make_workload(name, seed):
    if name == "train-prune":
        return TrainPruneWorkload(seed)
    return VerifyWorkload(spec.SHAPES[name.removeprefix("verify-")], seed)


def attempt(workload, op, tracer):
    """Time one operation; returns (seconds, failures, wrong answers)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(op, None)
        else:
            with tracer:
                out = workload.run(op, tracer)
    except Exception as exc:  # a failing operation is counted; the run goes on
        return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"], []
    seconds = time.perf_counter() - t0
    failures, wrong = workload.check(op, out)
    return seconds, failures, wrong


def measure(workload, seconds, trace, setup_probe):
    """Whole rounds until the next one would end past `seconds`.

    With trace, every operation runs once untraced and once traced, the
    order alternating, and the difference is the tracing overhead. Without
    it, SETUP_PROBES calls of setup_probe() are spread evenly over the
    `seconds` between operations, so the set-up samples see the machine
    across the whole run rather than in one short window; their time counts
    towards `seconds` but not towards any operation."""
    tracer = Tracer() if trace else None
    times = {False: [], True: []}
    setups, probes = [], 0 if trace else SETUP_PROBES
    failed, wrong = 0, []
    rounds, start = 0, time.perf_counter()
    while True:
        for i, op in enumerate(workload.round):
            order = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
            for traced in order:
                sec, fail, bad = attempt(workload, op, tracer if traced else None)
                times[traced].append(sec)
                if fail or bad:
                    failed += 1
                    wrong += bad
                    for msg in fail + bad:
                        print(f"FAILED {msg}", file=sys.stderr)
            due = probes * (time.perf_counter() - start) / seconds
            while len(setups) < min(due, probes):
                setups.append(setup_probe())
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    while len(setups) < probes:
        setups.append(setup_probe())
    return times, setups, failed, wrong, rounds, tracer


def setup_probe(args):
    """Set-up seconds (imports, data generation, loading the networks) of a
    fresh `--setup-probe` process."""
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout.split()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=["verify-desk", "verify-wide", "train-prune"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up seconds and exit")
    args = parser.parse_args()
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = make_workload(args.workload, args.seed)
    own_setup = time.perf_counter() - T_START
    if args.setup_probe:
        print(own_setup)
        return 0

    times, setups, failed, wrong, rounds, tracer = measure(
        workload, args.seconds, args.trace, lambda: setup_probe(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = times[False]
    attempted = len(untraced) + len(times[True])
    print(f"{args.workload} seed {args.seed}: {rounds} round(s) of {len(workload.round)} "
          f"operations, {attempted} attempted, {failed} failed")
    if args.trace:
        ops = len(times[True])
        overhead = (sum(times[True]) - sum(untraced)) / ops
        values = layer_metrics(tracer.spans, ops, overhead)
        declared = bench_spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{args.workload}-seed{args.seed}"
        with open(f"{stem}-spans.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")
        Path(f"{stem}-trace.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": rounds, "ops": ops,
            "untraced_s": sum(untraced), "traced_s": sum(times[True]),
            "per_layer": values}, indent=1) + "\n")
    else:
        values = {
            "op_s_p50": statistics.median(untraced),
            "ops_per_s": (len(untraced) - failed) / sum(untraced),
            "setup_s": statistics.median([own_setup] + setups),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = bench_spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared):
        sys.exit("metrics computed here differ from those BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
