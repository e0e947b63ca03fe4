#!/usr/bin/env python3
"""Verify the 784 instance and print one JSON line: the unstable ReLUs per
layer under interval bounds and under OBBT, then the verify's outcome,
nodes, stats and seconds.

    python3 tools/instance784.py [--delta 2]

The instance: the untrained net init_mlp(784, [50, 50], 10, seed=0), the
input x ~ U[0,1]^784 from default_rng(0) labelled with its argmax, the box
of raw-pixel delta (delta/255) around x, clamped to [0, 1], and a verify
with a 120 s limit. It runs on one BLAS thread, as the benchmark does.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

# first: one BLAS thread and src/ of this checkout on the path, before numpy
import benchenv  # noqa: E402,F401

import numpy as np  # noqa: E402

from prunemip import SolverConfig, build_instance, init_mlp, verify  # noqa: E402
from prunemip.encode import encode_adversarial  # noqa: E402
from prunemip.nn import forward  # noqa: E402

TIME_LIMIT_SECONDS = 120.0


def instance(delta):
    """The 784 instance at a raw-pixel delta."""
    net = init_mlp(784, [50, 50], 10, seed=0)
    x = np.random.default_rng(0).uniform(0, 1, 784)
    return build_instance(net, x, int(np.argmax(forward(net, x)[0])), delta,
                          units="raw-pixel", clamp=True)


def unstable(inst, bounds_mode):
    """The ReLUs per layer whose bounds straddle zero, in the table that
    verify encodes the instance on under bounds_mode."""
    table = encode_adversarial(inst.mlp, inst.x, inst.effective_delta, inst.k, inst.h,
                               bounds_mode=bounds_mode, clamp=inst.clamp).bounds
    return [int(((lo < 0) & (hi > 0)).sum()) for lo, hi in zip(table.lo, table.hi)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--delta", type=float, default=2.0, help="raw-pixel delta")
    args = parser.parse_args(argv)
    inst = instance(args.delta)
    verdict = verify(inst, SolverConfig(time_limit_seconds=TIME_LIMIT_SECONDS))
    print(json.dumps({
        "delta": args.delta, "unstable_interval": unstable(inst, "interval"),
        "unstable_obbt": unstable(inst, "obbt"), "outcome": verdict.outcome,
        "nodes": verdict.report.nodes, "stats": verdict.report.stats,
        "seconds": round(verdict.report.wall_seconds, 3),
    }))


if __name__ == "__main__":
    main()
