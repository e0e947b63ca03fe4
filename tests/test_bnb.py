"""Branch-and-bound tests: oracle equivalence, determinism, heuristic
properties, bound monotonicity, timeout statuses."""

import math

import numpy as np
import pytest

from prunemip.bnb import SolverConfig, brute_force_verify, primal_heuristic, solve
from prunemip.encode import (InputBox, encode_adversarial, encode_network, interval_bounds,
                             parse_lp, write_lp)
from prunemip.lp import check_feasible, solve_lp
from prunemip.nn import forward

from conftest import random_net


def _adversarial_instance(seed, bounds_mode="interval"):
    """Random net + box with a manageable number of unstable ReLUs."""
    rng = np.random.default_rng(seed)
    net = random_net(seed, scale=1.2)
    x = rng.uniform(0.2, 0.8, net.input_dim)
    delta = float(rng.uniform(0.05, 0.4))
    k = int(rng.integers(net.output_dim))
    h = (k + 1) % net.output_dim
    box = InputBox(np.clip(x - delta, 0, 1), np.clip(x + delta, 0, 1))
    model = encode_adversarial(net, x, delta, k, h, bounds_mode=bounds_mode, clamp=True)
    return net, box, k, h, model


def test_no_binaries_is_single_node():
    net = random_net(1, input_dim=3, classes=3)
    x = np.full(3, 0.5)
    model = encode_adversarial(net, x, 0.0, 0, 1, clamp=False)
    assert model.num_binaries == 0
    report = solve(model, SolverConfig())
    assert report.status == "optimal"
    assert report.nodes == 1
    logits, _ = forward(net, x)
    assert report.incumbent_obj == pytest.approx(logits[1] - logits[0], abs=1e-7)
    model.objective_sense = "minimize"  # solve maximizes only
    with pytest.raises(ValueError):
        solve(model, SolverConfig())


def test_oracle_equivalence_sample():
    """solve == pattern-enumeration oracle on random instances (both modes)."""
    matched = 0
    for seed in range(40):
        net, box, k, h, model = _adversarial_instance(
            seed, bounds_mode="obbt" if seed % 2 else "interval")
        bounds = interval_bounds(net, box)
        unstable = sum(
            int(bounds.lo[li][j] < 0 < bounds.hi[li][j])
            for li in range(len(bounds.lo)) for j in range(bounds.lo[li].size)
        )
        if unstable > 10:
            continue
        truth = brute_force_verify(net, box, k, h)
        report = solve(model, SolverConfig())
        assert report.status == "optimal"
        assert report.incumbent_obj == pytest.approx(truth, abs=1e-5)
        matched += 1
    assert matched >= 25


def test_parsed_model_branches_on_its_binaries():
    """A model read back from LP text carries no encoder metadata; B&B still
    branches on its binaries and reaches the encoder model's optimum."""
    branched = 0
    for seed in range(12):
        net, box, k, h, model = _adversarial_instance(seed)
        truth = brute_force_verify(net, box, k, h)
        direct = solve(model, SolverConfig())
        parsed = solve(parse_lp(write_lp(model)), SolverConfig())
        assert parsed.status == direct.status == "optimal"
        assert parsed.incumbent_obj == pytest.approx(direct.incumbent_obj, abs=1e-5)
        assert parsed.incumbent_obj == pytest.approx(truth, abs=1e-5)
        branched += parsed.nodes > 1
    assert branched >= 4


def test_infeasible_injected_bounds():
    net, box, k, h, model = _adversarial_instance(3)
    model.lower[model.output_vars[0]] = 1.0
    model.upper[model.output_vars[0]] = 0.5
    report = solve(model, SolverConfig())
    assert report.status == "infeasible"
    assert report.nodes >= 1


def test_node_count_determinism():
    for seed in (5, 11, 17):
        net, _, _, _, model = _adversarial_instance(seed)
        a = solve(model, SolverConfig())
        b = solve(model, SolverConfig())
        assert a.nodes == b.nodes
        assert a.status == b.status
        assert a.incumbent_obj == b.incumbent_obj


def test_timeout_statuses():
    net, _, _, _, model = _adversarial_instance(23)
    report = solve(model, SolverConfig(time_limit_seconds=1e-9))
    assert report.status in ("feasible-timeout", "no-incumbent-timeout")
    if report.status == "feasible-timeout":
        assert report.best_bound >= report.incumbent_obj - 1e-9


def test_heuristic_center_margin():
    net, box, k, h, model = _adversarial_instance(7)
    center = 0.5 * (box.lower + box.upper)
    lp_point = np.zeros(model.num_vars)
    lp_point[model.input_vars] = center
    point, obj = primal_heuristic(model, lp_point)
    logits, _ = forward(net, center)
    assert obj == pytest.approx(logits[h] - logits[k], abs=1e-9)
    assert check_feasible(model, point, 1e-7)


def test_heuristic_never_exceeds_optimum():
    count = 0
    for seed in range(50):
        net, box, k, h, model = _adversarial_instance(seed + 60)
        bounds = interval_bounds(net, box)
        unstable = sum(
            int(bounds.lo[li][j] < 0 < bounds.hi[li][j])
            for li in range(len(bounds.lo)) for j in range(bounds.lo[li].size)
        )
        if unstable > 10:
            continue
        truth = brute_force_verify(net, box, k, h)
        rng = np.random.default_rng(seed)
        lp_point = np.zeros(model.num_vars)
        lp_point[model.input_vars] = rng.uniform(box.lower, box.upper)
        _, obj = primal_heuristic(model, lp_point)
        assert obj <= truth + 1e-7
        count += 1
    assert count >= 25


def test_heuristic_matches_lp_at_integral_node():
    # delta = 0 collapses the box: the LP optimum is a network trace
    net = random_net(9, input_dim=3, classes=3)
    x = np.full(3, 0.4)
    model = encode_adversarial(net, x, 0.0, 0, 1, clamp=False)
    sol = solve_lp(model)
    assert sol.status == "optimal"
    point, obj = primal_heuristic(model, sol.primal)
    assert obj == pytest.approx(sol.objective, abs=1e-7)


def test_bound_monotonicity_via_trace():
    net, _, _, _, model = _adversarial_instance(31)
    trace = []
    report = solve(model, SolverConfig(), trace_log=trace)
    assert report.status == "optimal"
    assert len(trace) == report.nodes
    # parent LP bounds never increase down any processed chain; the global
    # report bound is consistent with the incumbent
    assert report.best_bound >= report.incumbent_obj - 1e-9


def test_incumbent_decodes_to_its_objective():
    for seed in range(20):
        net, _, k, h, model = _adversarial_instance(seed + 100)
        report = solve(model, SolverConfig())
        assert report.status == "optimal"
        x_adv = report.incumbent_point[model.input_vars]
        logits, _ = forward(net, x_adv)
        assert logits[h] - logits[k] == pytest.approx(report.incumbent_obj, abs=1e-6)
        assert check_feasible(model, report.incumbent_point, 1e-7)


def test_brute_force_trivial_cases():
    net = random_net(12, input_dim=2, classes=2)
    x = np.full(2, 0.3)
    box = InputBox(x, x.copy())
    logits, _ = forward(net, x)
    assert brute_force_verify(net, box, 0, 1) == pytest.approx(
        logits[1] - logits[0], abs=1e-9)


def test_brute_force_budget():
    net = random_net(13, input_dim=4, hidden=[15, 15], classes=2, scale=2.0)
    box = InputBox(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        brute_force_verify(net, box, 0, 1, max_unstable=3)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(time_limit_seconds=0)
    with pytest.raises(ValueError):
        SolverConfig(float("nan"))
    assert SolverConfig(math.inf).time_limit_seconds == math.inf
