"""The names bench/ reads from the program, checked through its own tracer.

bench/tracer.py wraps module attributes of prunemip from outside and
bench/make_networks.py counts pivots through prunemip.lp._pivot. A rename or
a moved import would not fail there: the wrapper would just never fire and
a per-layer metric would read 0, or a doubled call would double it. This
test runs one traced verify and checks the metrics against the verify's own
counts, its stats' OBBT LPs among them.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from prunemip.encode import InputBox, interval_bounds
from prunemip.nn import forward
from prunemip.verify import build_instance

from conftest import random_net

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_verify_fills_the_layer_metrics():
    tracer_mod = _load_tracer()
    verify_mod = importlib.import_module("prunemip.verify")
    net = random_net(4, input_dim=4, hidden=[6, 5], classes=3, scale=1.2)
    x = np.full(4, 0.5)
    inst = build_instance(net, x, int(np.argmax(forward(net, x)[0])), 0.3)
    with tracer_mod.Tracer() as tracer:
        with tracer.span("verify", side="base"):
            verdict = verify_mod.verify(inst)
    metrics = tracer_mod.layer_metrics(tracer.spans, 1, 0.0)
    nodes = verdict.report.nodes
    assert nodes > 1
    assert metrics["bnb.lp_solves"] == metrics["bnb.nodes_base"] == nodes
    assert metrics["encode.obbt_lps"] == 2 * sum(net.hidden_widths[1:])
    assert metrics["encode.obbt_lps"] == verdict.report.stats["obbt_lps"]
    bounds = interval_bounds(net, InputBox(np.clip(x - 0.3, 0, 1), np.clip(x + 0.3, 0, 1)))
    unstable = sum(int(((lo < 0) & (hi > 0)).sum()) for lo, hi in zip(bounds.lo, bounds.hi))
    assert unstable > 0
    assert metrics["encode.unstable_interval"] == unstable
    assert metrics["lp.rows_mean"] > 0


def test_pivot_step_is_where_make_networks_counts_it():
    assert callable(importlib.import_module("prunemip.lp")._pivot)
