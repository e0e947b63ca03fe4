"""Network core tests: forward oracle, gradient checks, training behavior."""

import numpy as np
import pytest

from prunemip.data import gen_synthetic
from prunemip.nn import (
    Dataset,
    Mlp,
    TrainConfig,
    accuracy,
    cross_entropy_loss,
    forward,
    grad_cross_entropy,
    init_mlp,
    load_model,
    save_model,
    sgd_train,
)

from conftest import random_net


def naive_forward(mlp, x):
    """Independent re-implementation: explicit loops, no shared code paths."""
    a = [float(v) for v in x]
    for li, (W, b) in enumerate(mlp.layers):
        out = []
        for j in range(W.shape[0]):
            s = b[j]
            for i in range(W.shape[1]):
                s += W[j][i] * a[i]
            out.append(s if li == len(mlp.layers) - 1 else max(s, 0.0))
        a = out
    return np.array(a)


def test_relu_kills_negative():
    net = Mlp([(np.array([[1.0]]), np.array([0.0])),
               (np.array([[1.0]]), np.array([0.0]))])
    logits, preacts = forward(net, np.array([-3.0]))
    assert preacts[0][0] == -3.0
    assert logits[0] == 0.0


def test_identity_on_nonnegative():
    eye = np.eye(3)
    net = Mlp([(eye.copy(), np.zeros(3)), (eye.copy(), np.zeros(3))])
    x = np.array([0.5, 0.0, 2.0])
    logits, _ = forward(net, x)
    assert np.allclose(logits, x, atol=0)


def test_forward_matches_independent_oracle():
    rng = np.random.default_rng(7)
    net = random_net(7, input_dim=4, hidden=[8, 8], classes=3)
    for _ in range(20):
        x = rng.normal(size=4)
        logits, _ = forward(net, x)
        assert np.allclose(logits, naive_forward(net, x), atol=1e-12)


def test_forward_dimension_mismatch():
    net = random_net(1, input_dim=3)
    with pytest.raises(ValueError):
        forward(net, np.zeros(5))


def test_forward_batch_consistent():
    net = random_net(2, input_dim=3, hidden=[5], classes=3)
    X = np.random.default_rng(0).normal(size=(6, 3))
    logits, _ = forward(net, X)
    for i in range(6):
        single, _ = forward(net, X[i])
        assert np.allclose(logits[i], single, atol=1e-12)


def test_saturated_softmax_gradient_vanishes():
    net = Mlp([(np.array([[100.0], [-100.0]]), np.zeros(2))])
    g = grad_cross_entropy(net, np.array([[1.0]]), np.array([0]))
    total = sum(np.abs(dW).sum() + np.abs(db).sum() for dW, db in g)
    assert total < 1e-6


def test_empty_batch_rejected():
    net = random_net(3, input_dim=2, classes=2)
    with pytest.raises(ValueError):
        grad_cross_entropy(net, np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_duplicated_batch_equals_single():
    net = random_net(4, input_dim=3, hidden=[4], classes=3)
    x = np.array([[0.3, -0.2, 0.9]])
    y = np.array([1])
    g1 = grad_cross_entropy(net, x, y)
    g4 = grad_cross_entropy(net, np.repeat(x, 4, axis=0), np.repeat(y, 4))
    for (a, b), (c, d) in zip(g1, g4):
        assert np.allclose(a, c, atol=1e-15)
        assert np.allclose(b, d, atol=1e-15)


def test_gradient_matches_finite_differences():
    """Central differences on 50 random coordinates per net, up to 3 layers."""
    h = 1e-5
    for seed, hidden in ((0, [4]), (1, [4, 3]), (2, [3, 3, 3])):
        net = random_net(seed + 50, input_dim=3, hidden=hidden, classes=3)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(8, 3))
        y = rng.integers(0, 3, size=8)
        grads = grad_cross_entropy(net, X, y)
        for _ in range(50):
            li = int(rng.integers(len(net.layers)))
            W, b = net.layers[li]
            if rng.random() < 0.8:
                r, c = int(rng.integers(W.shape[0])), int(rng.integers(W.shape[1]))
                target, g = (W, (r, c)), grads[li][0][r, c]
            else:
                r = int(rng.integers(b.size))
                target, g = (b, (r,)), grads[li][1][r]
            arr, idx = target
            orig = arr[idx]
            arr[idx] = orig + h
            up = cross_entropy_loss(net, X, y)
            arr[idx] = orig - h
            dn = cross_entropy_loss(net, X, y)
            arr[idx] = orig
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), abs(g), 1e-8)
            assert abs(fd - g) / denom <= 1e-4


def test_piecewise_linearity():
    """Same activation signs => forward is affine on the segment."""
    net = random_net(9, input_dim=4, hidden=[6, 6], classes=3)
    rng = np.random.default_rng(9)
    found = 0
    for _ in range(200):
        x = rng.normal(size=4)
        xp = x + rng.normal(size=4) * 0.05
        _, pa = forward(net, x)
        _, pb = forward(net, xp)
        if not all(np.array_equal(np.sign(a) > 0, np.sign(b) > 0)
                   for a, b in zip(pa[:-1], pb[:-1])):
            continue
        found += 1
        fa, _ = forward(net, x)
        fb, _ = forward(net, xp)
        for t in (0.25, 0.5, 0.75):
            mid, _ = forward(net, t * x + (1 - t) * xp)
            assert np.allclose(mid, t * fa + (1 - t) * fb, atol=1e-9)
    assert found >= 10


def test_accuracy_tie_to_smallest_index():
    # constant zero logits: argmax tie resolves to class 0
    net = Mlp([(np.zeros((3, 2)), np.zeros(3))])
    data = Dataset(np.zeros((10, 2)), np.array([0] * 4 + [1] * 6), 3)
    assert accuracy(net, data) == pytest.approx(0.4)


def test_accuracy_random_net_binomial_bound():
    net = random_net(11, input_dim=5, hidden=[8], classes=10)
    rng = np.random.default_rng(11)
    data = Dataset(rng.normal(size=(10_000, 5)), rng.integers(0, 10, 10_000), 10)
    assert 0.05 <= accuracy(net, data) <= 0.15


def test_sgd_lr_zero_is_identity():
    net = init_mlp(4, [5], 3, seed=0)
    data = gen_synthetic(4, 3, 60, 2.0, seed=0)
    out, _ = sgd_train(net, data, TrainConfig(epochs=3, batch_size=16, learning_rate=0.0, seed=0))
    for (W, b), (W0, b0) in zip(out.layers, net.layers):
        assert np.array_equal(W, W0)
        assert np.array_equal(b, b0)


def test_separable_2class_2dim():
    data = gen_synthetic(2, 2, 200, 6.0, seed=3)
    net = init_mlp(2, [4], 2, seed=3)
    net, history = sgd_train(net, data, TrainConfig(epochs=20, batch_size=32,
                                                    learning_rate=0.1, seed=3))
    assert accuracy(net, data) >= 0.99
    assert len(history) == 20
    assert all("loss" in h and "accuracy" in h for h in history)


def test_training_determinism_bit_identical(separable_data):
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=42)
    init = init_mlp(6, [8], 3, seed=42)
    a, _ = sgd_train(init, separable_data, cfg)
    b, _ = sgd_train(init, separable_data, cfg)
    for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(Wa, Wb)
        assert np.array_equal(ba, bb)


def test_model_round_trip_bit_exact(tmp_path, trained_1x16):
    path = tmp_path / "model.json"
    save_model(trained_1x16, path, training_meta={"note": "round trip"})
    loaded, meta = load_model(path)
    assert meta == {"note": "round trip"}
    for (Wa, ba), (Wb, bb) in zip(trained_1x16.layers, loaded.layers):
        assert np.array_equal(Wa, Wb)
        assert np.array_equal(ba, bb)
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.json"
    save_model(loaded, path2, training_meta=meta)
    assert path.read_bytes() == path2.read_bytes()


def test_model_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99, "layers": []}')
    with pytest.raises(ValueError):
        load_model(path)


def test_mlp_validation():
    with pytest.raises(ValueError):
        Mlp([(np.zeros((2, 3)), np.zeros(4))])  # W/b mismatch
    with pytest.raises(ValueError):
        Mlp([(np.zeros((2, 3)), np.zeros(2)), (np.zeros((2, 5)), np.zeros(2))])
    with pytest.raises(ValueError):
        Mlp([(np.full((1, 1), np.nan), np.zeros(1))])


def test_train_config_validation():
    for kwargs in ({"learning_rate": -0.1}, {"learning_rate": float("nan")},
                   {"batch_size": 0}, {"epochs": -1}):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
