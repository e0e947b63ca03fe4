#!/usr/bin/env python3
"""Print one JSON line per verify of the verify-desk and verify-wide rounds
of bench seeds 1-2, the verdict and the solve counters, and then one line
per prune_pipeline of their train-prune rounds; no timings.

    python3 tools/exactness.py > a.jsonl

Run it in two checkouts: they reach the same verdicts by the same search,
and train and prune the same nets, bit for bit, when `diff a.jsonl b.jsonl`
prints nothing. A verify line holds the workload, the seed, the input
index, delta, the side (base or pruned net), the outcome, repr(margin), the
node count, the six counters of the branch-and-bound stats, and the LPs
that bound tightening solved with their pivots and bound flips. A pipeline
line holds the workload, the seed, the init seed, the pruned architecture,
repr(post_accuracy), the log's selected entry and a sha256 over the
selected net's weights and biases.
"""

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

# first: one BLAS thread and src/ of this checkout on the path, before numpy
from benchenv import NETS  # noqa: E402

import spec  # noqa: E402
import prunemip.lp as lp  # noqa: E402
from run import TrainPruneWorkload  # noqa: E402
from prunemip import build_instance, load_model, verify  # noqa: E402

SEEDS = (1, 2)
WORKLOADS = ("verify-desk", "verify-wide")


def counted_verify(inst):
    """verify(inst), and the LPs of its bound tightening with their pivots
    and bound flips. obbt_tighten looks solve_lp up in prunemip.lp at call
    time, so wrapping it there counts those LPs; branch-and-bound calls its
    own import, which stays unwrapped."""
    solve_lp, obbt = lp.solve_lp, {"obbt_lps": 0, "obbt_pivots": 0, "obbt_flips": 0}

    def counting(*args, **kwargs):
        sol = solve_lp(*args, **kwargs)
        obbt["obbt_lps"] += 1
        obbt["obbt_pivots"] += sol.pivots
        obbt["obbt_flips"] += sol.bound_flips
        return sol

    lp.solve_lp = counting
    try:
        return verify(inst), obbt
    finally:
        lp.solve_lp = solve_lp


def verify_records():
    """Per workload and seed, its round's pairs, each verified on the base
    and then the pruned net, as bench/run.py does."""
    reference = json.loads((NETS / "reference.json").read_text())
    for workload in WORKLOADS:
        shape = spec.SHAPES[workload.removeprefix("verify-")]
        data = spec.make_data(shape)
        nets = {side: load_model(NETS / f"{shape.name}_{side}.json")[0]
                for side in ("base", "pruned")}
        for seed in SEEDS:
            for cand in spec.stratified_pick(reference[shape.name]["candidates"],
                                             shape.strata, seed):
                index, delta = cand["index"], cand["delta"]
                for side, net in nets.items():
                    inst = build_instance(net, data.inputs[index], int(data.labels[index]),
                                          delta, units=shape.units, clamp=shape.clamp)
                    verdict, obbt = counted_verify(inst)
                    yield {"workload": workload, "seed": seed, "index": index, "delta": delta,
                           "side": side, "outcome": verdict.outcome,
                           "margin": repr(verdict.margin), "nodes": verdict.report.nodes,
                           **verdict.report.stats, **obbt}


def pipeline_records():
    """Per seed, the pipelines of its train-prune round, in bench/run.py's
    order."""
    for seed in SEEDS:
        workload = TrainPruneWorkload(seed)
        for init_seed in workload.round:
            net, report, log = workload.run(init_seed, None)
            digest = hashlib.sha256()
            for W, b in net.layers:
                digest.update(W.tobytes())
                digest.update(b.tobytes())
            yield {"workload": "train-prune", "seed": seed, "init_seed": init_seed,
                   "pruned_arch": report.pruned_arch,
                   "post_accuracy": repr(report.post_accuracy), "selected": log[-1],
                   "sha256": digest.hexdigest()}


def records():
    """The records in print order: the verifies, then the pipelines."""
    yield from verify_records()
    yield from pipeline_records()


def main():
    for record in records():
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
