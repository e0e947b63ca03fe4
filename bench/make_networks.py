#!/usr/bin/env python3
"""Remake the frozen verify networks and their reference file.

    python3 bench/make_networks.py

For each shape this trains prune_pipeline and a plain baseline at
spec.FREEZE_SEED (as `prunemip bench` pairs them) and saves both with
save_model under bench/nets/. Then, for the first `pool` data points that
both networks classify correctly and for each delta, it records in
bench/nets/reference.json:

- the runner-up class h of each network, from oracle.py's forward pass;
- HiGHS's upper bound on max y_h - y_k for each network (oracle.py), which
  every `robust` verdict of a run is checked against;
- the number of simplex pivots prunemip makes to verify the pair and the
  tableau cells those pivots update, counted by wrapping the dense simplex's
  pivot step (`prunemip.lp._pivot`): spec.stratified_pick orders the pool
  into difficulty strata by them.

Takes about 17 minutes on one core; the desk pool dominates.
"""

from benchenv import NETS  # first: one BLAS thread and src/ on the path, before numpy

import argparse
import importlib
import json
import sys

import numpy as np

import oracle
import spec
from prunemip import build_instance, save_model, verify

lp_module = importlib.import_module("prunemip.lp")


def count_pivots(fn):
    """Simplex pivots made while fn() runs, and the tableau cells they update."""
    pivot = lp_module._pivot
    count = cells = 0

    def counting(T, *args):
        nonlocal count, cells
        count += 1
        cells += T.size
        return pivot(T, *args)

    lp_module._pivot = counting
    try:
        fn()
    finally:
        lp_module._pivot = pivot
    return count, cells


def freeze(shape):
    data = spec.make_data(shape)
    pruned, report, _ = spec.run_pipeline(shape, data, spec.FREEZE_SEED)
    base = spec.train_baseline(shape, data, spec.FREEZE_SEED)
    meta = {"shape": shape.name, "init_seed": spec.FREEZE_SEED, "made_by": "bench/make_networks.py"}
    paths = {}
    for side, net in (("base", base), ("pruned", pruned)):
        paths[side] = NETS / f"{shape.name}_{side}.json"
        save_model(net, paths[side], training_meta={**meta, "arch": net.arch})
    print(f"{shape.name}: baseline {base.arch}, pruned {report.pruned_arch}", file=sys.stderr)
    return data, {side: (net, oracle.read_layers(paths[side]))
                  for side, net in (("base", base), ("pruned", pruned))}, paths


def reference(shape):
    data, nets, paths = freeze(shape)
    correct = np.ones(len(data.labels), dtype=bool)
    for _, layers in nets.values():
        correct &= oracle.logits(layers, data.inputs).argmax(axis=1) == data.labels
    pool = np.flatnonzero(correct)[: shape.pool]
    candidates = []
    for n, index in enumerate(pool):
        x, k = data.inputs[index], int(data.labels[index])
        for delta in shape.deltas:
            lo, hi = oracle.input_box(x, spec.effective_delta(shape, delta), shape.clamp)
            h = [oracle.runner_up(oracle.logits(layers, x), k) for _, layers in nets.values()]
            bounds = [oracle.highs_upper_bound(layers, lo, hi, k, hj)
                      for (_, layers), hj in zip(nets.values(), h)]

            def verify_pair():
                for net, _ in nets.values():
                    verify(build_instance(net, x, k, delta, units=shape.units, clamp=shape.clamp))

            pivots, cells = count_pivots(verify_pair)
            candidates.append({"index": int(index), "delta": delta, "k": k, "h": h,
                               "highs_ub": bounds, "pivots": pivots, "pivot_cells": cells})
        print(f"{shape.name}: {n + 1}/{len(pool)} inputs", file=sys.stderr)
    return {"networks": {p.name: oracle.file_sha256(p) for p in paths.values()},
            "candidates": candidates}


def main():
    argparse.ArgumentParser(description=__doc__.split("\n")[1]).parse_args()
    NETS.mkdir(exist_ok=True)
    ref = {name: reference(shape) for name, shape in sorted(spec.SHAPES.items())}
    (NETS / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
