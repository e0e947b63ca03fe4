"""Pruning tests: invariance, compaction consistency, tau monotonicity,
fine-tune recovery, and the grid pipeline."""

import numpy as np
import pytest

from prunemip.archs import parse_arch
from prunemip.data import gen_synthetic
from prunemip.nn import Dataset, Mlp, TrainConfig, accuracy, forward, init_mlp, sgd_train
from prunemip.prune import (
    OverPrunedError,
    grid_log_csv,
    neuron_magnitudes,
    prune_pipeline,
    threshold_prune,
    fine_tune,
)
from prunemip.spr import SprConfig

from conftest import random_net


def _with_zero_neuron(seed, neuron=1):
    net = random_net(seed, input_dim=3, hidden=[5], classes=2)
    W, b = net.layers[0]
    W[neuron] = 0.0
    b[neuron] = 0.0
    return net


def test_exact_zero_neuron_invariance():
    net = _with_zero_neuron(0)
    pruned, report = threshold_prune(net, 1e-9)
    assert report.kept == [4] and report.removed == [1]
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = rng.normal(size=3)
        a, _ = forward(net, x)
        b, _ = forward(pruned, x)
        assert np.max(np.abs(a - b)) <= 1e-12


def test_tau_zero_removes_nothing():
    net = random_net(1, hidden=[4])
    pruned, report = threshold_prune(net, 0.0)
    assert report.neurons_removed == 0
    for (W, b), (W0, b0) in zip(pruned.layers, net.layers):
        assert np.array_equal(W, W0) and np.array_equal(b, b0)


def test_hand_built_magnitudes_and_deviation_bound():
    rng = np.random.default_rng(2)
    W1 = np.zeros((4, 3))
    b1 = np.zeros(4)
    for j, mag in enumerate((0.5, 1e-5, 0.3, 1e-6)):
        W1[j] = rng.uniform(-1, 1, 3)
        W1[j] *= mag / np.abs(W1[j]).max()
        b1[j] = rng.uniform(-mag, mag)
    W2 = rng.normal(size=(2, 4))
    b2 = rng.normal(size=2)
    net = Mlp([(W1, b1), (W2.copy(), b2)])
    pruned, report = threshold_prune(net, 1e-3)
    assert report.neurons_removed == 2
    assert report.pruned_arch == "1x2"
    removed = [1, 3]
    out_w = sum(np.abs(W2[:, j]).max() for j in removed)
    for _ in range(200):
        x = rng.normal(size=3)
        a, pre = forward(net, x)
        b_, _ = forward(pruned, x)
        max_act = max(max(pre[0][j], 0.0) for j in removed)
        assert np.max(np.abs(a - b_)) <= out_w * max_act + 1e-12


def test_compaction_consistency():
    """Compacted forward == original forward with pruned activations zeroed."""
    rng = np.random.default_rng(5)
    for seed in range(50):
        net = random_net(100 + seed, hidden=[6, 5])
        mags = neuron_magnitudes(net)
        tau = float(rng.uniform(0.1, 0.8))
        try:
            pruned, _ = threshold_prune(net, tau)
        except OverPrunedError:
            continue
        masked = net.copy()
        for li, m in enumerate(mags):
            kill = m < tau
            W, b = masked.layers[li]
            W[kill] = 0.0
            b[kill] = 0.0
        for _ in range(20):
            x = rng.normal(size=net.input_dim)
            a, _ = forward(masked, x)
            b_, _ = forward(pruned, x)
            assert np.max(np.abs(a - b_)) <= 1e-9


def test_arch_accounting():
    net = _with_zero_neuron(3)
    pruned, report = threshold_prune(net, 1e-6)
    assert parse_arch(report.pruned_arch) == pruned.hidden_widths
    assert [k + r for k, r in zip(report.kept, report.removed)] == [5]


def test_tau_monotonicity():
    net = random_net(7, hidden=[8])
    mags = neuron_magnitudes(net)[0]
    taus = sorted(np.concatenate([mags * 0.5, mags * 1.01]))
    prev = set()
    for tau in taus:
        try:
            _, report = threshold_prune(net, float(tau))
        except OverPrunedError:
            break
        removed = {j for j in range(8) if mags[j] < tau}
        assert prev <= removed
        prev = removed


def test_over_pruned_error():
    net = random_net(8, hidden=[3])
    with pytest.raises(OverPrunedError):
        threshold_prune(net, 1e9)


def test_negative_tau_rejected():
    with pytest.raises(ValueError):
        threshold_prune(random_net(9, hidden=[3]), -1.0)


def test_fine_tune_identity_cases(separable_data):
    net = random_net(10, input_dim=6, hidden=[4], classes=3)
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=0)
    out = fine_tune(net, separable_data, 0, cfg)
    for (W, b), (W0, b0) in zip(out.layers, net.layers):
        assert np.array_equal(W, W0) and np.array_equal(b, b0)
    cfg0 = TrainConfig(epochs=5, batch_size=32, learning_rate=0.0, seed=0)
    out = fine_tune(net, separable_data, 5, cfg0)
    for (W, b), (W0, b0) in zip(out.layers, net.layers):
        assert np.array_equal(W, W0) and np.array_equal(b, b0)


def test_fine_tune_rejects_regularizer(separable_data):
    cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=0.1, seed=0,
                      regularizer=SprConfig(0.5, 0.5))
    with pytest.raises(ValueError):
        fine_tune(random_net(11, input_dim=6, classes=3), separable_data, 1, cfg)


def test_fine_tune_recovers_accuracy(separable_data):
    net = init_mlp(6, [16], 3, seed=2)
    cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=0.1, seed=2,
                      regularizer=SprConfig(0.5, 0.5, 1.0))
    trained, _ = sgd_train(net, separable_data, cfg)
    pruned, _ = threshold_prune(trained, 1e-3)
    pre = accuracy(pruned, separable_data)
    plain = TrainConfig(epochs=50, batch_size=32, learning_rate=0.1, seed=2)
    tuned = fine_tune(pruned, separable_data, 10, plain)
    assert accuracy(tuned, separable_data) >= pre - 0.01


def test_pipeline_lambda_zero_degenerates(separable_data):
    cfg = TrainConfig(epochs=10, batch_size=32, learning_rate=0.1, seed=0)
    net, report, log = prune_pipeline([8], separable_data, [SprConfig(0.0, 0.5)], cfg)
    assert report.neurons_removed == 0
    assert log[-1]["flag"] == "nothing pruned"


def test_pipeline_flags_a_diverged_baseline():
    """Identical inputs with balanced labels: no net beats chance (1/3), so
    the accuracy floor measured on the baseline means nothing."""
    data = Dataset(np.zeros((60, 4)), np.arange(60) % 3, 3)
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.1, seed=0)
    _, _, log = prune_pipeline([6], data, [SprConfig(0.0, 0.5)], cfg)
    assert log[0]["accuracy"] == pytest.approx(1 / 3)
    assert log[-1]["flag"] == "baseline diverged"


def test_pipeline_selects_smaller_net(separable_data):
    grid = [SprConfig(l, a, 1.0) for l in (0.1, 0.5, 1.0) for a in (0.1, 0.5, 0.9)]
    cfg = TrainConfig(epochs=30, batch_size=32, learning_rate=0.1, seed=1)
    net, report, log = prune_pipeline([16], separable_data, grid, cfg)
    base = next(r for r in log if r["kind"] == "baseline")
    sel = log[-1]
    assert sum(report.kept) < 16
    assert sel["accuracy"] >= base["accuracy"] - 0.01
    assert net.hidden_widths == parse_arch(report.pruned_arch)


def test_pipeline_selected_entry_names_its_grid_point():
    """Both grid points prune to 1x12-1x11, so the architecture alone does
    not tell which one was selected; the selected entry's lambda, alpha and
    m name the grid row of the returned net."""
    data = gen_synthetic(6, 3, 600, 3.0, 0)
    grid = [SprConfig(0.5, 0.1), SprConfig(1.0, 0.1)]
    cfg = TrainConfig(epochs=15, batch_size=32, learning_rate=0.1, seed=4)
    _, report, log = prune_pipeline([12, 12], data, grid, cfg)
    rows = [r for r in log if r["kind"] == "grid"]
    assert [r["pruned_arch"] for r in rows] == ["1x12-1x11"] * 2
    assert rows[0]["accuracy"] != rows[1]["accuracy"]
    sel = log[-1]
    (row,) = [r for r in rows
              if (r["lambda"], r["alpha"], r["m"]) == (sel["lambda"], sel["alpha"], sel["m"])]
    assert (row["pruned_arch"], row["accuracy"]) == (report.pruned_arch, report.post_accuracy)
    assert (sel["pruned_arch"], sel["accuracy"]) == (report.pruned_arch, report.post_accuracy)


def test_pipeline_floor_unmet_returns_the_most_accurate_candidate():
    """Without fine-tuning no grid point reaches the baseline's accuracy, so
    a zero floor is met by none: the most accurate candidate is returned,
    flagged "floor unmet", and the selected entry names its grid row."""
    data = gen_synthetic(6, 3, 300, 3.0, 0)
    grid = [SprConfig(0.5, 0.1), SprConfig(0.5, 0.9), SprConfig(1.0, 0.1)]
    cfg = TrainConfig(epochs=10, batch_size=32, learning_rate=0.1, seed=0)
    net, report, log = prune_pipeline([8], data, grid, cfg, fine_tune_epochs=0, acc_floor=0.0)
    base, *rows, sel = log
    accs = [r["accuracy"] for r in rows]
    assert len(set(accs)) == len(rows) == 3 and max(accs) < base["accuracy"]
    assert sel["flag"] == "floor unmet"
    assert accuracy(net, data) == report.post_accuracy == max(accs)
    best = rows[accs.index(max(accs))]
    assert (sel["lambda"], sel["alpha"], sel["m"]) == (best["lambda"], best["alpha"], best["m"])
    assert sel["pruned_arch"] == best["pruned_arch"] == report.pruned_arch


def test_pipeline_empty_grid_rejected(separable_data):
    cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=0.1, seed=0)
    with pytest.raises(ValueError):
        prune_pipeline([8], separable_data, [], cfg)


def test_grid_log_csv_shape(separable_data):
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=0)
    _, _, log = prune_pipeline([8], separable_data, [SprConfig(0.1, 0.5)], cfg)
    text = grid_log_csv(log)
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,alpha,m,tau,pruned_arch,accuracy,neurons_removed"
    assert len(lines) == 2
