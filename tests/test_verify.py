"""Verification harness tests: adjudication, tie rules, counterexamples,
cross-checking."""

import json
import math
import sys
import time

import numpy as np
import pytest

import prunemip.lp as lp_mod
from prunemip.bnb import SolveReport, SolverConfig, brute_force_verify
from prunemip.encode import InputBox
from prunemip.lp import LpSolution
from prunemip.nn import Mlp, TrainConfig, forward, init_mlp, sgd_train
from prunemip.verify import (
    InvalidInstanceError,
    build_instance,
    cross_check,
    margin_of,
    runner_up,
    verify,
)

from conftest import random_net


def test_runner_up_by_inspection():
    assert runner_up(np.array([3.0, 1.0, 2.0]), 0) == 2


def test_runner_up_tie_to_smallest_index():
    assert runner_up(np.array([3.0, 2.0, 2.0]), 0) == 1
    assert runner_up(np.array([2.0, 5.0, 2.0]), 1) == 0


def test_build_instance_rejects_misclassified():
    net = random_net(0, input_dim=3, classes=3)
    x = np.full(3, 0.5)
    logits, _ = forward(net, x)
    wrong = (int(np.argmax(logits)) + 1) % 3
    with pytest.raises(InvalidInstanceError):
        build_instance(net, x, wrong, 0.1)


@pytest.mark.parametrize("label", [99, 3, -1])
def test_build_instance_rejects_a_label_that_is_no_class(label):
    """A label outside 0..C-1 is a bad argument, not a misclassified input."""
    net = random_net(0, input_dim=3, classes=3)
    with pytest.raises(ValueError, match="outside the classes") as exc:
        build_instance(net, np.full(3, 0.5), label, 0.1)
    assert not isinstance(exc.value, InvalidInstanceError)


def test_non_finite_delta_rejected():
    net = random_net(0, input_dim=3, classes=3)
    x = np.full(3, 0.5)
    label = int(np.argmax(forward(net, x)[0]))
    for delta, clamp in ((math.nan, True), (math.inf, False)):
        with pytest.raises(ValueError):
            verify(build_instance(net, x, label, delta, clamp=clamp))


def test_clamp_rejects_an_input_outside_the_unit_box(separable_data):
    """Clipping the box of an x outside [0, 1] gives a box that excludes x:
    this instance once came back as a counterexample 5.48 away from x at
    delta 0.5."""
    net, _ = sgd_train(init_mlp(6, [8], 3, 1), separable_data,
                       TrainConfig(epochs=20, batch_size=32, learning_rate=0.1, seed=1))
    x, label = separable_data.inputs[2], int(separable_data.labels[2])
    assert np.abs(x).max() > 1.0
    inst = build_instance(net, x, label, 0.5)
    with pytest.raises(ValueError, match=r"clamp needs an input in \[0, 1\]"):
        verify(inst)


def test_delta_zero_always_robust():
    for seed in range(10):
        net = random_net(seed + 10, classes=3)
        x = np.random.default_rng(seed).uniform(0.2, 0.8, net.input_dim)
        logits, _ = forward(net, x)
        label = int(np.argmax(logits))
        inst = build_instance(net, x, label, 0.0, clamp=False)
        verdict = verify(inst, SolverConfig())
        assert verdict.outcome == "robust"
        assert verdict.margin <= 0
        assert verdict.margin == pytest.approx(
            margin_of(net, x, inst.k, inst.h), abs=1e-7)


def _vulnerable_net():
    """One hidden neuron: flipping x_0 past 0.5 flips the margin sign.

    logits = (v, -v) with v = relu(x0 - 0.5) - 0.05, so class 1 wins at
    x0 < 0.45-ish and a counterexample sits at x0 > 0.55.
    """
    W1 = np.array([[1.0]])
    b1 = np.array([-0.5])
    W2 = np.array([[1.0], [-1.0]])
    b2 = np.array([-0.05, 0.05])
    return Mlp([(W1, b1), (W2, b2)])


def test_constructed_vulnerable_net_yields_counterexample():
    net = _vulnerable_net()
    x = np.array([0.3])
    inst = build_instance(net, x, 1, 0.5)
    verdict = verify(inst, SolverConfig())
    assert verdict.outcome == "counterexample"
    x_adv = verdict.counterexample_input
    # inside the box and the domain clamp, with positive forward margin
    assert np.all(x_adv >= np.clip(x - 0.5, 0, 1) - 1e-9)
    assert np.all(x_adv <= np.clip(x + 0.5, 0, 1) + 1e-9)
    assert margin_of(net, x_adv, inst.k, inst.h) > 0
    assert verdict.margin == pytest.approx(
        margin_of(net, x_adv, inst.k, inst.h))


def test_raw_pixel_units_scale_delta():
    net = _vulnerable_net()
    inst = build_instance(net, np.array([0.3]), 1, 5.0, units="raw-pixel")
    assert inst.effective_delta == pytest.approx(5.0 / 255.0)
    # 5/255 < 0.15: too small to reach the flip point
    assert verify(inst, SolverConfig()).outcome == "robust"


def test_robust_agrees_with_brute_force():
    for seed in range(15):
        net = random_net(seed + 40, classes=3)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.3, 0.7, net.input_dim)
        logits, _ = forward(net, x)
        label = int(np.argmax(logits))
        inst = build_instance(net, x, label, 0.15, clamp=True)
        verdict = verify(inst, SolverConfig())
        if verdict.outcome != "robust":
            continue
        box = InputBox(np.clip(x - 0.15, 0, 1), np.clip(x + 0.15, 0, 1))
        try:
            truth = brute_force_verify(net, box, inst.k, inst.h)
        except ValueError:
            continue  # over enumeration budget
        assert truth <= 1e-5


def test_net_without_hidden_layers_verifies_under_obbt():
    """A net of one affine layer has no bounds for OBBT to tighten: OBBT
    and interval bounds reach the same verdict, robust or a counterexample,
    and the margin is exact (it is affine in the input)."""
    outcomes = set()
    for seed in range(6):
        net = init_mlp(3, [], 3, seed=seed)
        x = np.random.default_rng(seed).uniform(0.3, 0.7, 3)
        inst = build_instance(net, x, int(np.argmax(forward(net, x)[0])), 0.2)
        by_obbt, by_interval = verify(inst), verify(inst, bounds_mode="interval")
        assert by_obbt.outcome == by_interval.outcome
        assert by_obbt.margin == pytest.approx(by_interval.margin, abs=1e-9)
        outcomes.add(by_obbt.outcome)
    assert outcomes == {"robust", "counterexample"}


def test_cross_check_same_net_is_true():
    net = _vulnerable_net()
    x = np.array([0.3])
    inst = build_instance(net, x, 1, 0.5)
    verdict = verify(inst, SolverConfig())
    assert cross_check(verdict.counterexample_input, net, x)


def test_cross_check_negative_margin_is_false():
    net = _vulnerable_net()
    x = np.array([0.3])
    # x stays on the clean side: margin for (k=1, h=0) is negative
    assert not cross_check(np.array([0.31]), net, x)


def test_cross_check_dimension_mismatch():
    net = _vulnerable_net()
    with pytest.raises(ValueError):
        cross_check(np.array([0.1, 0.2]), net, np.array([0.3]))


def test_verdict_json_round_trip():
    net = _vulnerable_net()
    inst = build_instance(net, np.array([0.3]), 1, 0.5)
    verdict = verify(inst, SolverConfig())
    doc = json.loads(verdict.to_json(config={"delta": 0.5}))
    assert doc["outcome"] == "counterexample"
    assert doc["config"] == {"delta": 0.5}
    assert isinstance(doc["counterexample"], list)
    assert doc["nodes"] >= 1
    assert doc["stats"] == verdict.report.stats
    assert doc["stats"]["lp_solves"] == doc["nodes"]


@pytest.mark.parametrize("status", ["optimal", "infeasible"])
def test_unproven_solve_is_unknown(monkeypatch, status):
    """A positive optimum whose point the forward pass rejects, or an
    infeasible model, proves neither robustness nor a counterexample."""
    net = _vulnerable_net()
    inst = build_instance(net, np.array([0.3]), 1, 0.5)
    assert margin_of(net, np.zeros(1), inst.k, inst.h) <= 0  # the point below is no counterexample

    def unproven(model, cfg, **kwargs):
        if status == "infeasible":
            return SolveReport(status, None, -math.inf, 1, 0.0)
        return SolveReport(status, 0.5, 0.5, 1, 0.0, np.zeros(model.num_vars))

    monkeypatch.setattr(sys.modules["prunemip.verify"], "solve", unproven)
    verdict = verify(inst, SolverConfig())
    assert verdict.outcome == "unknown"
    assert verdict.counterexample_input is None


def test_lp_iteration_limit_is_unknown(monkeypatch):
    """A node LP that hits the simplex iteration limit is dropped and
    counted; the search cannot then prove anything, so the verdict is
    unknown, never robust, and no error escapes."""
    net = random_net(4, input_dim=4, hidden=[6, 5], classes=3, scale=1.2)
    x = np.full(4, 0.5)
    inst = build_instance(net, x, int(np.argmax(forward(net, x)[0])), 0.3)
    assert verify(inst).outcome == "robust"
    monkeypatch.setattr(lp_mod, "_MAX_ITER", 3)
    verdict = verify(inst)
    assert verdict.outcome == "unknown"
    assert verdict.report.status == "lp-failed"
    assert verdict.report.stats["failed_lps"] >= 1
    assert verdict.report.best_bound == math.inf  # the root itself failed


def test_failed_node_lp_is_unknown(monkeypatch):
    """A node LP that ends without an optimum (here the second, stopped by
    the iteration limit) proves nothing about its subtree: the node keeps
    its parent's bound and a robust instance becomes unknown, never robust
    with part of the tree unexplored."""
    net = random_net(4, input_dim=4, hidden=[6, 5], classes=3, scale=1.2)
    x = np.full(4, 0.5)
    inst = build_instance(net, x, int(np.argmax(forward(net, x)[0])), 0.3)
    clean = verify(inst)
    assert clean.outcome == "robust" and clean.report.nodes > 2
    bnb_mod = sys.modules["prunemip.bnb"]
    solve_lp, calls = bnb_mod.solve_lp, []

    def second_failed(lp, warm=None):
        calls.append(warm)
        return LpSolution("iteration-limit") if len(calls) == 2 else solve_lp(lp, warm=warm)

    monkeypatch.setattr(bnb_mod, "solve_lp", second_failed)
    verdict = verify(inst)
    assert verdict.outcome == "unknown"
    assert verdict.report.status == "lp-failed"
    assert verdict.report.stats["failed_lps"] == 1
    assert verdict.report.best_bound > verdict.report.incumbent_obj


def test_time_limit_and_wall_seconds_cover_obbt():
    net = init_mlp(196, [20, 20], 10, seed=0)
    x = np.random.default_rng(0).uniform(0, 1, 196)
    logits, _ = forward(net, x)
    inst = build_instance(net, x, int(np.argmax(logits)), 5.0, units="raw-pixel")
    t0 = time.monotonic()
    verdict = verify(inst, SolverConfig(time_limit_seconds=1e-3))
    elapsed = time.monotonic() - t0
    assert verdict.outcome == "timeout"
    assert verdict.report.nodes == 0
    assert elapsed - 0.05 < verdict.report.wall_seconds <= elapsed
