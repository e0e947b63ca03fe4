"""Branch-and-bound tests: oracle equivalence (seeded and on generated edge
cases), determinism, heuristic properties, bound monotonicity, timeout
statuses."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prunemip.lp as lp_mod
from prunemip.bnb import ABS_GAP, SolverConfig, brute_force_verify, solve
from prunemip.encode import (InputBox, assemble_trace, encode_adversarial, encode_network,
                             interval_bounds, parse_lp, write_lp)
from prunemip.lp import check_feasible, solve_lp
from prunemip.nn import Mlp, forward

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


def test_children_warm_start_from_their_parent():
    """Every node LP but the root re-optimises from its parent's basis. A
    silent fallback to the cold solve would pass every other test."""
    branched = 0
    for seed in range(12):
        *_, model = _adversarial_instance(seed)
        report = solve(model, SolverConfig())
        assert report.status == "optimal"
        assert report.stats["warm_starts"] == report.nodes - 1
        assert report.stats["cold_fallbacks"] == 0
        branched += report.nodes > 1
    assert branched >= 4


def test_infeasible_injected_bounds():
    net, box, k, h, model = _adversarial_instance(3)
    model.lower[model.output_vars[0]] = 1.0
    model.upper[model.output_vars[0]] = 0.5
    report = solve(model, SolverConfig())
    assert report.status == "infeasible"
    assert report.nodes >= 1


def test_failed_root_lp_ends_lp_failed(monkeypatch):
    """max y subject to z - y <= 0, y - x = 3, z binary, y and x in [0, 10]:
    a root LP stopped by the simplex iteration limit proves nothing about
    the MILP, so the search keeps the root's bound (+inf) and ends
    lp-failed, not infeasible. The failed LP's work, the bound flip that
    made its tableau dual feasible, is counted. Without an upper bound on
    y the LP text is malformed input: every column is boxed."""
    text = ("Maximize\n obj: 1.0 y\nSubject To\n c0: - 1.0 y + 1.0 z <= 0.0\n"
            " c1: 1.0 y - 1.0 x = 3.0\nBounds\n {}\n 0.0 <= x <= 10.0\n"
            "Binaries\n z\nEnd\n")
    model = parse_lp(text.format("0.0 <= y <= 10.0"))
    assert solve(model, SolverConfig()).status == "optimal"
    monkeypatch.setattr(lp_mod, "_MAX_ITER", -1)
    report = solve(model, SolverConfig())
    assert report.status == "lp-failed"
    assert report.best_bound == math.inf
    assert report.incumbent_obj is None
    assert report.stats["failed_lps"] == report.nodes == 1
    assert (report.stats["pivots"], report.stats["bound_flips"]) == (0, 1)
    with pytest.raises(ValueError, match="malformed bounds line 'y >= 0.0'"):
        parse_lp(text.format("y >= 0.0"))


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


def test_limit_passing_after_the_last_node_is_no_timeout(monkeypatch):
    """A clock that ticks once per time check passes the limit just after
    the untimed search's last node. Nodes still open then are all pruned by
    bound, so the search has finished: it is optimal, not timed out. Over
    these 40 nets, 9 leave such nodes open."""
    for seed in range(40):
        net = random_net(seed, input_dim=4, hidden=[6, 5], classes=3, scale=1.2)
        x = np.full(4, 0.5)
        k = int(np.argmax(forward(net, x)[0]))
        model = encode_adversarial(net, x, 0.3, k, (k + 1) % 3, clamp=True)
        monkeypatch.undo()
        full = solve(model, SolverConfig())
        ticks = itertools.count()
        monkeypatch.setattr("prunemip.bnb.time", SimpleNamespace(monotonic=lambda: next(ticks)))
        timed = solve(model, SolverConfig(time_limit_seconds=full.nodes + 0.5))
        assert (timed.status, timed.nodes, timed.incumbent_obj, timed.best_bound) == (
            full.status, full.nodes, full.incumbent_obj, full.best_bound)


def test_heuristic_center_margin():
    net, box, k, h, model = _adversarial_instance(7)
    center = 0.5 * (box.lower + box.upper)
    point = assemble_trace(model, center)
    obj = model.objective @ point
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
        obj = model.objective @ assemble_trace(model, rng.uniform(box.lower, box.upper))
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
    obj = model.objective @ assemble_trace(model, sol.primal[model.input_vars])
    assert obj == pytest.approx(sol.objective, abs=1e-7)


def test_bound_monotonicity_via_trace():
    """Best-first search pops the open nodes in order of their parent LP
    bound, so the traced bounds never increase, on the encoder's models and
    on their copies read back from LP text (which carry no network)."""
    for seed in range(12):
        model = _adversarial_instance(seed)[-1]
        for candidate in (model, parse_lp(write_lp(model))):
            trace = []
            report = solve(candidate, SolverConfig(), trace_log=trace)
            assert report.status == "optimal"
            assert len(trace) == report.nodes
            bounds = [float(line.split()[2]) for line in trace]
            assert all(b <= a + 1e-9 for a, b in zip(bounds, bounds[1:])), (seed, bounds)
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


@st.composite
def edge_case_instances(draw):
    """A net of at most 3 inputs and 4 hidden neurons over a clamped box,
    with a duplicated hidden neuron, a first-layer pre-activation that is
    exactly 0 at the box's lower corner (and, its weights being >= 0, is
    smallest there), and inputs on a face of [0, 1], each when drawn."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_in = draw(st.integers(1, 3))
    hidden = draw(st.sampled_from([[1], [2], [3], [4], [2, 2], [1, 3], [3, 1]]))
    classes = draw(st.integers(2, 3))
    scale = draw(st.sampled_from([1e-4, 1.0, 30.0]))
    delta = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rng = np.random.default_rng(seed)
    net = random_net(seed, n_in, hidden, classes, scale)
    x = rng.uniform(0.0, 1.0, n_in)
    faces = draw(st.lists(st.sampled_from([None, 0.0, 1.0]), min_size=n_in, max_size=n_in))
    for i, face in enumerate(faces):
        if face is not None:
            x[i] = face
    lower = np.clip(x - delta, 0.0, 1.0)  # encode_adversarial's clamped box
    layers = [(W.copy(), b.copy()) for W, b in net.layers]
    wide = [li for li, width in enumerate(hidden) if width >= 2]
    if wide and draw(st.booleans()):
        W, b = layers[draw(st.sampled_from(wide))]
        W[1], b[1] = W[0], b[0]
    if draw(st.booleans()):
        W, b = layers[0]
        W[-1] = np.abs(W[-1])
        b[-1] = -(lower @ W.T)[-1]
    k = draw(st.integers(0, classes - 1))
    return Mlp(layers), x, delta, k, (k + 1) % classes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edge_case_instances())
def test_solve_matches_oracle_on_edge_cases(instance):
    net, x, delta, k, h = instance
    model = encode_adversarial(net, x, delta, k, h, clamp=True)
    box = InputBox(np.clip(x - delta, 0, 1), np.clip(x + delta, 0, 1))
    truth = brute_force_verify(net, box, k, h)
    report = solve(model, SolverConfig())
    assert report.status == "optimal"
    # relative error 1e-6; solve stops within the absolute ABS_GAP of the
    # optimum, which is the floor, since a 1e-4-scale net's margins lie below it
    assert report.incumbent_obj == pytest.approx(truth, rel=1e-6, abs=ABS_GAP)
