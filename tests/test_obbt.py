"""OBBT tests: containment, single-layer equality, point-box collapse,
strict improvement on deeper nets, early stops."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import prunemip.lp as lp_mod
from prunemip.encode import InputBox, interval_bounds, obbt_tighten
from prunemip.nn import forward

from conftest import random_net


def unit_box(n):
    return InputBox(np.zeros(n), np.ones(n))


def test_single_layer_equals_interval():
    net = random_net(0, input_dim=3, hidden=[6], classes=2)
    box = unit_box(3)
    seed_table = interval_bounds(net, box)
    tight = obbt_tighten(net, box)
    assert np.allclose(tight.lo[0], seed_table.lo[0], atol=1e-7)
    assert np.allclose(tight.hi[0], seed_table.hi[0], atol=1e-7)
    assert tight.provenance == ["obbt"]


def test_obbt_inside_interval_bounds():
    for seed in range(10):
        net = random_net(700 + seed)
        box = unit_box(net.input_dim)
        seed_table = interval_bounds(net, box)
        tight = obbt_tighten(net, box)
        for li in range(len(seed_table.lo)):
            assert np.all(tight.lo[li] >= seed_table.lo[li] - 1e-9)
            assert np.all(tight.hi[li] <= seed_table.hi[li] + 1e-9)


def test_obbt_contains_sampled_preactivations():
    net = random_net(42, input_dim=3, hidden=[6, 6], classes=2)
    box = unit_box(3)
    tight = obbt_tighten(net, box)
    rng = np.random.default_rng(0)
    for x in rng.uniform(0, 1, size=(10_000, 3)):
        _, preacts = forward(net, x)
        for li in range(2):
            assert np.all(preacts[li] >= tight.lo[li] - 1e-7)
            assert np.all(preacts[li] <= tight.hi[li] + 1e-7)


def test_point_box_collapse_matches_forward():
    rng = np.random.default_rng(1)
    for seed in range(5):
        net = random_net(800 + seed)
        x = rng.uniform(0, 1, net.input_dim)
        box = InputBox(x, x.copy())
        tight = obbt_tighten(net, box)
        _, preacts = forward(net, x)
        for li in range(len(tight.lo)):
            assert np.allclose(tight.lo[li], preacts[li], atol=1e-7)
            assert np.allclose(tight.hi[li], preacts[li], atol=1e-7)


def test_strict_improvement_on_some_deep_net():
    improved = 0
    for seed in range(10):
        net = random_net(900 + seed, input_dim=3, hidden=[5, 5], classes=2)
        box = unit_box(3)
        seed_table = interval_bounds(net, box)
        tight = obbt_tighten(net, box)
        width_seed = np.concatenate(seed_table.hi) - np.concatenate(seed_table.lo)
        width_tight = np.concatenate(tight.hi) - np.concatenate(tight.lo)
        if np.any(width_tight < width_seed - 1e-9):
            improved += 1
    assert improved >= 1


def test_deadline_returns_partly_tightened_valid_table(monkeypatch):
    """A clock that ticks once per neuron check passes the deadline after
    two neurons: layer 0 runs no LP and is done, layer 1 has two tightened
    and three at their interval bounds."""
    net = random_net(42, input_dim=3, hidden=[5, 5], classes=2)
    box = unit_box(3)
    seed_table = interval_bounds(net, box)
    full = obbt_tighten(net, box)
    ticks = itertools.count(1)
    monkeypatch.setattr("prunemip.encode.time", SimpleNamespace(monotonic=lambda: next(ticks)))
    part = obbt_tighten(net, box, deadline=2)
    assert part.provenance == ["obbt", "interval"]
    for table_a, table_b in ((part.lo, full.lo), (part.hi, full.hi)):
        assert np.array_equal(table_a[0], table_b[0])
        assert np.array_equal(table_a[1][:2], table_b[1][:2])
    assert np.array_equal(part.lo[1][2:], seed_table.lo[1][2:])
    assert np.array_equal(part.hi[1][2:], seed_table.hi[1][2:])


def test_failed_lps_keep_the_interval_bounds(monkeypatch):
    """Every LP hits the simplex iteration limit: the table keeps its valid
    interval bounds and marks no LP layer tightened."""
    net = random_net(42, input_dim=3, hidden=[5, 5], classes=2)
    box = unit_box(3)
    seed_table = interval_bounds(net, box)
    monkeypatch.setattr(lp_mod, "_MAX_ITER", -1)
    table = obbt_tighten(net, box)
    assert table.provenance == ["obbt", "interval"]
    for got, want in ((table.lo, seed_table.lo), (table.hi, seed_table.hi)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_lp_without_an_optimum_keeps_the_interval_bound(monkeypatch):
    """The first OBBT LP (layer 1, neuron 0, its upper bound: max W[0].x)
    ends infeasible, as a relaxation over a box can only numerically: that
    neuron keeps its interval upper bound, its layer stays marked interval,
    and every other bound is the one full OBBT finds."""
    net = random_net(42, input_dim=3, hidden=[5, 5], classes=2)
    box = unit_box(3)
    seed_table = interval_bounds(net, box)
    full = obbt_tighten(net, box)
    assert full.hi[1][0] < seed_table.hi[1][0]  # the LP would tighten it
    solve_lp, calls = lp_mod.solve_lp, []

    def first_infeasible(lp, warm=None):
        calls.append(lp.objective)
        return lp_mod.LpSolution("infeasible") if len(calls) == 1 else solve_lp(lp, warm)

    monkeypatch.setattr(lp_mod, "solve_lp", first_infeasible)
    table = obbt_tighten(net, box)
    W = net.layers[1][0][0]
    assert np.array_equal(calls[0][calls[0] != 0], W[W != 0])
    assert table.provenance == ["obbt", "interval"]
    assert table.hi[1][0] == seed_table.hi[1][0]
    expected_hi = [full.hi[0], np.concatenate([seed_table.hi[1][:1], full.hi[1][1:]])]
    for got, want in ((table.lo, full.lo), (table.hi, expected_hi)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
