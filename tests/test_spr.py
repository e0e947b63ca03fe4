"""SPR penalty tests: frozen case values, finite differences, continuity,
ray monotonicity, and the behavioral sparsity-induction property."""

import math

import numpy as np
import pytest

from prunemip import nn
from prunemip.nn import TrainConfig, accuracy, init_mlp, regularized_loss, sgd_train
from prunemip.prune import neuron_magnitudes
from prunemip.spr import SprConfig, spr_grad, spr_rows, spr_value


def _case(w, alpha, m):
    w = np.asarray(w, dtype=float).ravel()
    l2 = np.linalg.norm(w)
    if l2 == 0:
        return "A"
    r = math.sqrt(alpha / (1 - alpha)) * l2
    q = np.abs(w).max() / m
    if q <= r <= 1:
        return "A"
    if r <= q <= 1:
        return "B"
    return "C"


def test_zero_group_is_zero():
    assert spr_value(np.zeros((3, 4)), 0.3, 2.0) == 0.0
    assert np.array_equal(spr_grad(np.zeros(5), 0.3, 2.0), np.zeros(5))


def test_case_a_boundary_value():
    assert spr_value(np.array([1.0]), 0.5, 1.0) == pytest.approx(1.0)


def test_case_c_value():
    assert spr_value(np.array([2.0]), 0.5, 1.0) == pytest.approx(2.5)


def test_case_b_value():
    # alpha=0.5, m=1, w=(0.5, 0.1): l2^2=0.26, linf=0.5, r=sqrt(0.26)~0.5099>q
    # pick w where linf > r: w=(0.9, 0.1): l2=0.9055, r=0.9055, q=0.9 -> A
    # w=(0.5, 0.05): l2~0.5025, r~0.5025, q=0.5 -> A again (r >= q when alpha=0.5)
    # alpha=0.2: r = 0.5*l2, w=(0.8, 0.1): l2=0.8062, r=0.4031 <= q=0.8 <= 1 -> B
    w = np.array([0.8, 0.1])
    alpha, m = 0.2, 1.0
    assert _case(w, alpha, m) == "B"
    l2sq = 0.8**2 + 0.1**2
    expected = alpha * m * l2sq / 0.8 + (1 - alpha) * 0.8 / m
    assert spr_value(w, alpha, m) == pytest.approx(expected)


def test_invalid_params_rejected():
    for alpha, m in ((0.0, 1.0), (1.0, 1.0), (-0.1, 1.0), (0.5, 0.0), (0.5, -2.0)):
        with pytest.raises(ValueError):
            spr_value(np.ones(2), alpha, m)
    with pytest.raises(ValueError):
        SprConfig(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        SprConfig(0.5, 1.5, 1.0)
    for lam, alpha, m in ((math.nan, 0.5, 1.0), (0.1, math.nan, 1.0), (0.1, 0.5, math.nan),
                          (math.inf, 0.5, 1.0), (0.1, 0.5, math.inf)):
        with pytest.raises(ValueError):
            SprConfig(lam, alpha, m)


def test_value_matches_direct_piecewise_evaluation():
    """10^4 random (w, alpha, m) against an inline reimplementation."""
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        w = rng.normal(size=n) * rng.choice([0.1, 1.0, 3.0])
        alpha = float(rng.uniform(0.05, 0.95))
        m = float(rng.choice([0.5, 1.0, 2.0]))
        l2 = np.linalg.norm(w)
        linf = np.abs(w).max()
        r = math.sqrt(alpha / (1 - alpha)) * l2
        q = linf / m
        if l2 == 0 or (q <= r <= 1):
            want = 2 * math.sqrt((1 - alpha) * alpha) * l2
        elif r <= q <= 1:
            want = alpha * m * l2 * l2 / linf + (1 - alpha) * q
        else:
            want = alpha * l2 * l2 + (1 - alpha)
        assert spr_value(w, alpha, m) == pytest.approx(want, rel=1e-12, abs=1e-12)


def _away_from_boundaries(w, alpha, m, margin=1e-3):
    w = np.ravel(w)
    l2 = np.linalg.norm(w)
    if l2 < margin:
        return False
    srt = np.sort(np.abs(w))
    if len(srt) > 1 and srt[-1] - srt[-2] < margin:
        return False  # max-coordinate tie
    r = math.sqrt(alpha / (1 - alpha)) * l2
    q = np.abs(w).max() / m
    return min(abs(q - r), abs(r - 1), abs(q - 1)) > margin


def test_grad_matches_finite_differences():
    """200 random interior points per case, central differences h=1e-6."""
    rng = np.random.default_rng(1)
    counts = {"A": 0, "B": 0, "C": 0}
    h = 1e-6
    while min(counts.values()) < 200:
        n = int(rng.integers(2, 5))
        w = rng.normal(size=n) * rng.choice([0.2, 0.6, 2.0])
        alpha = float(rng.uniform(0.1, 0.9))
        m = float(rng.choice([0.5, 1.0, 2.0]))
        if not _away_from_boundaries(w, alpha, m):
            continue
        case = _case(w, alpha, m)
        if counts[case] >= 200:
            continue
        counts[case] += 1
        g = spr_grad(w, alpha, m)
        for i in range(n):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (spr_value(wp, alpha, m) - spr_value(wm, alpha, m)) / (2 * h)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            assert abs(fd - g[i]) / denom <= 1e-4, (case, w, alpha, m, i)


def test_grad_case_a_interior_formula():
    w = np.array([0.2, -0.3, 0.1])
    alpha, m = 0.5, 1.0
    assert _case(w, alpha, m) == "A"
    expected = 2 * math.sqrt(0.25) * w / np.linalg.norm(w)
    assert np.allclose(spr_grad(w, alpha, m), expected, atol=1e-12)


def test_grad_case_c_interior_formula():
    w = np.array([3.0, -1.0])
    alpha, m = 0.5, 1.0
    assert _case(w, alpha, m) == "C"
    assert np.allclose(spr_grad(w, alpha, m), 2 * alpha * w, atol=1e-12)


def test_continuity_along_rays():
    """Across every guard boundary hit by t*w for t in [0, 2], the two-sided
    limits agree: jump <= 1e-6*(1+value), probed at 10^4 sampled points plus
    the analytic crossing points (r=1 and q=1 scale linearly in t, so each
    ray crosses each boundary at most once; the q/r ratio is constant)."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.normal(size=int(rng.integers(1, 5)))
        alpha = float(rng.uniform(0.1, 0.9))
        m = float(rng.choice([0.5, 1.0, 2.0]))
        l2, linf = np.linalg.norm(w), np.abs(w).max()
        # sampled sanity pass: finite, nonnegative, monotone grid values
        ts = np.linspace(0.0, 2.0, 10_000)
        vals = np.array([spr_value(t * w, alpha, m) for t in ts])
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0)
        # exact two-sided limits at each boundary crossing
        crossings = [1.0 / (math.sqrt(alpha / (1 - alpha)) * l2), m / linf]
        h = 1e-9
        for t in crossings:
            if not 0 < t <= 2:
                continue
            lo = spr_value(t * (1 - h) * w, alpha, m)
            hi = spr_value(t * (1 + h) * w, alpha, m)
            assert abs(hi - lo) <= 1e-6 * (1 + max(lo, hi))


def test_nonnegative_and_zero_iff_zero():
    rng = np.random.default_rng(3)
    for _ in range(500):
        w = rng.normal(size=int(rng.integers(1, 5)))
        v = spr_value(w, 0.4, 1.0)
        assert v >= 0
        assert (v == 0) == (np.linalg.norm(w) == 0)


def test_ray_monotonicity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        w = rng.normal(size=int(rng.integers(1, 5)))
        alpha = float(rng.uniform(0.1, 0.9))
        m = float(rng.choice([0.5, 1.0, 2.0]))
        ts = np.linspace(0.0, 3.0, 500)
        vals = [spr_value(t * w, alpha, m) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_regularized_loss_sums_per_neuron(trained_1x16, separable_data):
    from prunemip.nn import cross_entropy_loss

    X, y = separable_data.inputs[:64], separable_data.labels[:64]
    cfg = SprConfig(2.0, 0.5, 1.0)
    total = regularized_loss(trained_1x16, X, y, cfg)
    plain = cross_entropy_loss(trained_1x16, X, y)
    W, b = trained_1x16.layers[0]
    penalty = sum(spr_value(np.concatenate([W[j], b[j:j + 1]]), 0.5, 1.0)
                  for j in range(W.shape[0]))
    assert total == pytest.approx(plain + 2.0 * penalty, rel=1e-12)


def test_lambda_zero_equals_plain_loss(trained_1x16, separable_data):
    from prunemip.nn import cross_entropy_loss

    X, y = separable_data.inputs[:32], separable_data.labels[:32]
    assert regularized_loss(trained_1x16, X, y, SprConfig(0.0, 0.5, 1.0)) == pytest.approx(
        cross_entropy_loss(trained_1x16, X, y))


def test_sparsity_induction_behavioral(separable_data):
    """lam=0.5, alpha=0.5 on the 1x16 net: >= 25% of neurons below tau=1e-3
    in max-absolute incoming weight while accuracy stays >= 0.95."""
    net = init_mlp(6, [16], 3, seed=1)
    cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=0.1, seed=1,
                      regularizer=SprConfig(0.5, 0.5, 1.0))
    net, _ = sgd_train(net, separable_data, cfg)
    mags = neuron_magnitudes(net)[0]
    assert int((mags < 1e-3).sum()) >= 4  # 25% of 16
    assert accuracy(net, separable_data) >= 0.95


# The one-group code that spr_rows and the layer-wide training step replaced,
# kept as the reference the vectorised kernel must reproduce bit for bit.
def _ref_value(w, alpha, m):
    l2 = float(np.linalg.norm(w))
    if l2 == 0.0:
        return 0.0
    linf = float(np.max(np.abs(w)))
    r = math.sqrt(alpha / (1.0 - alpha)) * l2
    q = linf / m
    if q <= r <= 1.0:
        return 2.0 * math.sqrt((1.0 - alpha) * alpha) * l2
    if r <= q <= 1.0:
        return alpha * m * l2 * l2 / linf + (1.0 - alpha) * q
    return alpha * l2 * l2 + (1.0 - alpha)


def _ref_grad(w, alpha, m):
    l2 = float(np.linalg.norm(w))
    if l2 == 0.0:
        return np.zeros_like(w)
    linf = float(np.max(np.abs(w)))
    imax = int(np.argmax(np.abs(w)))
    e = np.zeros_like(w)
    e[imax] = math.copysign(1.0, w[imax])
    r = math.sqrt(alpha / (1.0 - alpha)) * l2
    q = linf / m
    if q <= r <= 1.0:
        return 2.0 * math.sqrt((1.0 - alpha) * alpha) / l2 * w
    if r <= q <= 1.0:
        return (2.0 * alpha * m / linf * w - alpha * m * l2 * l2 / (linf * linf) * e
                + (1.0 - alpha) / m * e)
    return 2.0 * alpha * w


def _ref_apply_spr_step(net, reg, lr):
    slope_a = 2.0 * math.sqrt((1.0 - reg.alpha) * reg.alpha)
    for li in range(len(net.layers) - 1):
        W, b = net.layers[li]
        for j in range(W.shape[0]):
            grp = np.concatenate([W[j], b[j : j + 1]])
            l2 = float(np.linalg.norm(grp))
            if l2 == 0.0:
                continue
            linf = float(np.max(np.abs(grp)))
            r = math.sqrt(reg.alpha / (1.0 - reg.alpha)) * l2
            if linf / reg.m <= r <= 1.0:
                shrink = lr * reg.lam * slope_a
                grp = np.zeros_like(grp) if l2 <= shrink else grp * (1.0 - shrink / l2)
            else:
                grp = grp - lr * reg.lam * _ref_grad(grp, reg.alpha, reg.m)
            W[j] = grp[:-1]
            b[j] = grp[-1]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_spr_rows_matches_one_group_calls():
    alpha, m = 0.5, 0.5
    G = np.array([
        [0.2, -0.2, 0.2, 0.2, 0.2],  # case A
        [0.4, 0.1, 0.0, -0.1, 0.05],  # case B
        [3.0, -1.0, 0.5, 0.2, 0.0],  # case C
        [0.0, -0.0, 0.0, 0.0, -0.0],  # zero group
        [-0.3, 0.3, 0.1, 0.3, 0.0],  # case B, |max| tied: the first entry carries it
    ])
    assert [_case(row, alpha, m) for row in G] == ["A", "B", "C", "A", "B"]
    values, grads, case_a, l2 = spr_rows(G, alpha, m)
    assert case_a.tolist() == [True, False, False, True, False]
    assert abs(grads[4, 0]) != abs(grads[4, 1])  # the subgradient picked one of the tie
    for i, row in enumerate(G):
        assert _bits(values[i]) == _bits(spr_value(row, alpha, m)) == _bits(_ref_value(row, alpha, m))
        assert _bits(grads[i]) == _bits(spr_grad(row, alpha, m)) == _bits(_ref_grad(row, alpha, m))
        assert _bits(l2[i]) == _bits(np.linalg.norm(row))


def test_spr_rows_bit_identical_to_per_group_reference():
    rng = np.random.default_rng(5)
    G = rng.normal(size=(3000, 13)) * rng.choice([0.01, 0.1, 0.3, 1.0], size=(3000, 1))
    G[::97] = 0.0
    seen = set()
    for alpha, m in ((0.1, 1.0), (0.5, 0.5), (0.9, 2.0)):
        values, grads, case_a, l2 = spr_rows(G, alpha, m)
        for i, row in enumerate(G):
            seen.add(_case(row, alpha, m))
            assert _bits(values[i]) == _bits(_ref_value(row, alpha, m))
            assert _bits(grads[i]) == _bits(_ref_grad(row, alpha, m))
            assert case_a[i] == (_case(row, alpha, m) == "A")
    assert seen == {"A", "B", "C"}


def test_training_step_bit_identical_to_per_neuron_loop(separable_data, monkeypatch):
    """The layer-wide SPR step trains to the same bits as the per-neuron loop."""
    init = init_mlp(6, [10, 8], 3, seed=3)
    snapped = 0
    for alpha in (0.1, 0.5, 0.9):
        cfg = TrainConfig(epochs=8, batch_size=32, learning_rate=0.1, seed=3,
                          regularizer=SprConfig(0.5, alpha, 1.0))
        net, hist = sgd_train(init, separable_data, cfg)
        with monkeypatch.context() as patched:
            patched.setattr(nn, "spr_step", _ref_apply_spr_step)
            ref, ref_hist = sgd_train(init, separable_data, cfg)
        for (W, b), (RW, Rb) in zip(net.layers, ref.layers):
            assert _bits(W) == _bits(RW) and _bits(b) == _bits(Rb)
        assert hist == ref_hist
        snapped += sum(int((mags == 0.0).sum()) for mags in neuron_magnitudes(net))
    assert snapped > 0  # the case-A shrink zeroed some groups
