"""Acceptance suite: ten end-to-end criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete. Criterion 8 (full-MNIST anchor) is long-running and skipped
unless PRUNEMIP_MNIST_DIR points at a directory with the four IDX files.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from prunemip.bnb import SolverConfig, brute_force_verify, solve
from prunemip.data import gen_synthetic, load_mnist
from prunemip.encode import (
    InputBox,
    assemble_trace,
    encode_adversarial,
    encode_network,
    interval_bounds,
    obbt_tighten,
)
from prunemip.lp import check_feasible, solve_lp
from prunemip.nn import (
    Mlp,
    TrainConfig,
    accuracy,
    forward,
    init_mlp,
    save_model,
    sgd_train,
)
from prunemip.prune import fine_tune, neuron_magnitudes, threshold_prune
from prunemip.spr import SprConfig, spr_grad, spr_value
from prunemip.verify import build_instance, cross_check, verify

from conftest import random_net


def _report(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# shared across criteria 1 and 10 (determinism re-run)
_C1_NODE_COUNTS = []


def _c1_instances(limit=100):
    """Seeded random nets (1-3 hidden layers, <= 10 unstable ReLUs) with
    random delta-boxes; yields exactly `limit` qualifying instances."""
    produced, seed = 0, 0
    while produced < limit:
        seed += 1
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(1, 4))
        hidden = [int(rng.integers(2, 6)) for _ in range(depth)]
        net = random_net(10_000 + seed, input_dim=int(rng.integers(2, 5)),
                         hidden=hidden, classes=int(rng.integers(2, 4)),
                         scale=1.2)
        x = rng.uniform(0.2, 0.8, net.input_dim)
        delta = float(rng.uniform(0.05, 0.4))
        box = InputBox(np.clip(x - delta, 0, 1), np.clip(x + delta, 0, 1))
        bounds = interval_bounds(net, box)
        unstable = sum(int(bounds.lo[li][j] < 0 < bounds.hi[li][j])
                       for li in range(len(bounds.lo))
                       for j in range(bounds.lo[li].size))
        if unstable > 10:
            continue
        k = int(rng.integers(net.output_dim))
        h = (k + 1) % net.output_dim
        produced += 1
        yield net, box, x, delta, k, h


def test_criterion_01_encoder_exactness_vs_brute_force():
    t0 = time.time()
    worst = 0.0
    for net, box, x, delta, k, h in _c1_instances(100):
        truth = brute_force_verify(net, box, k, h)
        model = encode_adversarial(net, x, delta, k, h, clamp=True)
        rep = solve(model, SolverConfig())
        assert rep.status == "optimal"
        worst = max(worst, abs(rep.incumbent_obj - truth))
        _C1_NODE_COUNTS.append(rep.nodes)
    elapsed = time.time() - t0
    _report(1, worst <= 1e-5 and elapsed < 600,
            f"100 instances, max |solve - brute force| = {worst:.2e}, "
            f"{elapsed:.1f}s (< 600s)")


def test_criterion_02_encoder_soundness_sampled_traces():
    rng = np.random.default_rng(2)
    checked = 0
    for seed in range(20):
        net = random_net(20_000 + seed)
        box = InputBox(np.zeros(net.input_dim), np.ones(net.input_dim))
        model = encode_network(net, box, interval_bounds(net, box))
        X = rng.uniform(0, 1, size=(10_000, net.input_dim))
        for x in X:
            assert check_feasible(model, assemble_trace(model, x), 1e-7)
            checked += 1
    _report(2, checked == 200_000,
            f"{checked} sampled traces MIP-feasible at 1e-7 over 20 instances")


def test_criterion_03_per_layer_counting():
    for seed in range(50):
        net = random_net(30_000 + seed)
        box = InputBox(np.zeros(net.input_dim), np.ones(net.input_dim))
        model = encode_network(net, box, interval_bounds(net, box),
                               eliminate_stable=False)
        m = sum(net.hidden_widths)
        assert model.num_binaries == m
        assert model.num_vars - m - net.output_dim == net.input_dim + 2 * m
        assert len(model.constraints) == 3 * m + net.output_dim
    _report(3, True, "m binaries, n+2m continuous, 3m constraints on 50 nets")


def _spr_boundary_distance(w, alpha, m):
    l2 = np.linalg.norm(w)
    if l2 == 0:
        return 0.0
    srt = np.sort(np.abs(np.ravel(w)))
    tie = srt[-1] - srt[-2] if len(srt) > 1 else np.inf
    r = math.sqrt(alpha / (1 - alpha)) * l2
    q = srt[-1] / m
    return min(abs(q - r), abs(r - 1), abs(q - 1), tie)


def test_criterion_04_spr_correctness():
    rng = np.random.default_rng(4)
    # value vs direct piecewise evaluation on 10^4 random (W, alpha, M)
    for _ in range(10_000):
        w = rng.normal(size=int(rng.integers(1, 6))) * rng.choice([0.1, 1.0, 3.0])
        alpha = float(rng.uniform(0.05, 0.95))
        m = float(rng.choice([0.5, 1.0, 2.0]))
        l2, linf = np.linalg.norm(w), np.abs(w).max()
        r = math.sqrt(alpha / (1 - alpha)) * l2
        q = linf / m
        if l2 == 0 or (q <= r <= 1):
            want = 2 * math.sqrt((1 - alpha) * alpha) * l2
        elif r <= q <= 1:
            want = alpha * m * l2 * l2 / linf + (1 - alpha) * q
        else:
            want = alpha * l2 * l2 + (1 - alpha)
        assert spr_value(w, alpha, m) == pytest.approx(want, rel=1e-12, abs=1e-12)
    # gradient vs central finite differences away from boundaries/max-ties
    grads, fd_h = 0, 1e-6
    while grads < 500:
        w = rng.normal(size=int(rng.integers(2, 5))) * rng.choice([0.2, 0.6, 2.0])
        alpha = float(rng.uniform(0.1, 0.9))
        m = float(rng.choice([0.5, 1.0, 2.0]))
        if _spr_boundary_distance(w, alpha, m) < 1e-3:
            continue
        g = spr_grad(w, alpha, m)
        for i in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[i] += fd_h
            wm[i] -= fd_h
            fd = (spr_value(wp, alpha, m) - spr_value(wm, alpha, m)) / (2 * fd_h)
            assert abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8) <= 1e-4
        grads += 1
    # continuity along rays: two-sided limits at every boundary crossing
    for _ in range(50):
        w = rng.normal(size=int(rng.integers(1, 5)))
        alpha = float(rng.uniform(0.1, 0.9))
        m = float(rng.choice([0.5, 1.0, 2.0]))
        l2, linf = np.linalg.norm(w), np.abs(w).max()
        for t in (1.0 / (math.sqrt(alpha / (1 - alpha)) * l2), m / linf):
            lo = spr_value(t * (1 - 1e-9) * w, alpha, m)
            hi = spr_value(t * (1 + 1e-9) * w, alpha, m)
            assert abs(hi - lo) <= 1e-6 * (1 + max(lo, hi))
    _report(4, True, "10^4 values exact, 500 FD gradients <= 1e-4, "
                     "ray jumps <= 1e-6*(1+value)")


def test_criterion_05_pruning_invariance():
    # exact-zero neuron removal changes nothing
    net = random_net(50, input_dim=4, hidden=[6], classes=3)
    W, b = net.layers[0]
    W[2] = 0.0
    b[2] = 0.0
    pruned, rep = threshold_prune(net, 1e-9)
    assert rep.neurons_removed == 1
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=4)
        a, _ = forward(net, x)
        c, _ = forward(pruned, x)
        worst = max(worst, float(np.max(np.abs(a - c))))
    assert worst <= 1e-12
    # compaction consistency: compacted forward == masked forward, 50 masks
    masks = 0
    while masks < 50:
        seed = 51_000 + masks * 7
        netm = random_net(seed, hidden=[6, 5])
        tau = float(rng.uniform(0.1, 0.8))
        try:
            pr, _ = threshold_prune(netm, tau)
        except Exception:
            continue
        masked = netm.copy()
        for li, mags in enumerate(neuron_magnitudes(netm)):
            Wm, bm = masked.layers[li]
            Wm[mags < tau] = 0.0
            bm[mags < tau] = 0.0
        for _ in range(20):
            x = rng.normal(size=netm.input_dim)
            a, _ = forward(masked, x)
            c, _ = forward(pr, x)
            assert np.max(np.abs(a - c)) <= 1e-9
        masks += 1
    _report(5, True, f"zero-neuron deviation {worst:.1e} <= 1e-12 over 1000 "
                     f"inputs; {masks} compaction masks consistent")


def test_criterion_06_obbt_validity():
    rng = np.random.default_rng(6)
    for seed in range(10):
        net = random_net(60_000 + seed, hidden=[5, 4])
        box = InputBox(np.zeros(net.input_dim), np.ones(net.input_dim))
        seed_b = interval_bounds(net, box)
        tight = obbt_tighten(net, box)
        X = rng.uniform(0, 1, size=(1000, net.input_dim))
        for li in range(len(tight.lo)):
            assert np.all(tight.lo[li] >= seed_b.lo[li] - 1e-9)
            assert np.all(tight.hi[li] <= seed_b.hi[li] + 1e-9)
        for x in X:
            _, preacts = forward(net, x)
            for li in range(len(tight.lo)):
                assert np.all(preacts[li] >= tight.lo[li] - 1e-7)
                assert np.all(preacts[li] <= tight.hi[li] + 1e-7)
    # point-box collapse matches the forward pass
    for seed in range(5):
        net = random_net(61_000 + seed)
        x = rng.uniform(0, 1, net.input_dim)
        box = InputBox(x, x.copy())
        tight = obbt_tighten(net, box)
        _, preacts = forward(net, x)
        for li in range(len(tight.lo)):
            assert np.allclose(tight.lo[li], preacts[li], atol=1e-7)
            assert np.allclose(tight.hi[li], preacts[li], atol=1e-7)
    _report(6, True, "OBBT within interval bounds, contains 10^4 sampled "
                     "pre-activations, point-box collapse <= 1e-7")


def _matched_pairs(num_seeds=5, points=3):
    """Train baseline/pruned 2x12 pairs and verify the same instances on each;
    returns (base_nodes, pruned_nodes, base_times, pruned_times, pairs, nets)."""
    data = gen_synthetic(6, 3, 600, 6.0, seed=0)
    cfg0 = TrainConfig(epochs=30, batch_size=32, learning_rate=0.1, seed=0)
    bn, pn, bt, pt, pairs, nets = [], [], [], [], 0, []
    for seed in range(num_seeds):
        init = init_mlp(6, [12, 12], 3, seed=seed)
        cfg = replace(cfg0, seed=seed)
        base, _ = sgd_train(init, data, cfg)
        spr, _ = sgd_train(init, data,
                           replace(cfg, regularizer=SprConfig(0.1, 0.5, 1.0)))
        pruned, _ = threshold_prune(spr, 1e-3)
        pruned = fine_tune(pruned, data, 10, cfg)
        nets.append((base, pruned))
        for i in range(points):
            x, label = data.inputs[i], int(data.labels[i])
            ok = True
            for net in (base, pruned):
                logits, _ = forward(net, x)
                ok = ok and int(np.argmax(logits)) == label
            if not ok:
                continue
            for net, nodes, times in ((base, bn, bt), (pruned, pn, pt)):
                inst = build_instance(net, x, label, 1.0, clamp=False)
                t0 = time.time()
                v = verify(inst, SolverConfig(time_limit_seconds=120))
                times.append(time.time() - t0)
                nodes.append(v.report.nodes)
            pairs += 1
    return bn, pn, bt, pt, pairs, nets


_C7_CACHE = {}


def test_criterion_07_directional_speedup():
    t0 = time.time()
    bn, pn, bt, pt, pairs, nets = _matched_pairs()
    _C7_CACHE["nodes"] = (list(bn), list(pn))
    _C7_CACHE["nets"] = nets
    elapsed = time.time() - t0
    mb, mp = float(np.median(bn)), float(np.median(pn))
    tb, tp = float(np.median(bt)), float(np.median(pt))
    reduction = 1.0 - mp / mb
    ok = (pairs >= 10 and mp <= mb and tp <= tb and reduction >= 0.30
          and elapsed < 1200)
    _report(7, ok, f"{pairs} matched pairs; median nodes {mb:.0f} -> {mp:.0f} "
                   f"({reduction:.0%} reduction), median time {tb:.2f}s -> "
                   f"{tp:.2f}s, suite {elapsed:.0f}s (< 1200s)")


def test_criterion_08_paper_scale_mnist_anchor():
    mnist_dir = os.environ.get("PRUNEMIP_MNIST_DIR")
    if not mnist_dir:
        print("\ncriterion 8: SKIP — optional full-MNIST anchor; set "
              "PRUNEMIP_MNIST_DIR to run")
        pytest.skip("long-running MNIST anchor; excluded from default runs")
    train = load_mnist(mnist_dir, split="train")
    test = load_mnist(mnist_dir, split="test")
    cfg = TrainConfig(epochs=50, batch_size=128, learning_rate=0.1, seed=0)
    base, _ = sgd_train(init_mlp(784, [50, 50], 10, seed=0), train, cfg)
    base_acc = accuracy(base, test)
    spr, _ = sgd_train(init_mlp(784, [50, 50], 10, seed=0), train,
                       replace(cfg, regularizer=SprConfig(0.5, 0.9, 1.0)))
    pruned, rep = threshold_prune(spr, 1e-3)
    pruned = fine_tune(pruned, train, 10, cfg)
    pruned_acc = accuracy(pruned, test)
    widths = pruned.hidden_widths
    ok = (abs(base_acc - 0.975) <= 0.005
          and all(abs(w - t) <= 10 for w, t in zip(widths, (39, 43)))
          and pruned_acc >= 0.97)
    _report(8, ok, f"baseline acc {base_acc:.4f}, pruned {rep.pruned_arch} "
                   f"acc {pruned_acc:.4f}")


def test_criterion_09_verification_adjudication():
    # delta = 0 is always robust
    rng = np.random.default_rng(9)
    for seed in range(10):
        net = random_net(90_000 + seed, classes=3)
        x = rng.uniform(0.2, 0.8, net.input_dim)
        logits, _ = forward(net, x)
        inst = build_instance(net, x, int(np.argmax(logits)), 0.0, clamp=False)
        assert verify(inst, SolverConfig()).outcome == "robust"
    # constructed vulnerable nets always yield validated counterexamples
    validated = 0
    for shift in (0.5, 0.6, 0.7):
        net = Mlp([(np.array([[1.0]]), np.array([-shift])),
                   (np.array([[1.0], [-1.0]]), np.array([-0.05, 0.05]))])
        inst = build_instance(net, np.array([0.3]), 1, 0.6)
        v = verify(inst, SolverConfig())
        assert v.outcome == "counterexample"
        x_adv = v.counterexample_input
        lo = np.clip(inst.x - inst.effective_delta, 0, 1)
        hi = np.clip(inst.x + inst.effective_delta, 0, 1)
        assert np.all(x_adv >= lo - 1e-9) and np.all(x_adv <= hi + 1e-9)
        logits, _ = forward(net, x_adv)
        assert logits[inst.h] - logits[inst.k] > 0
        validated += 1
    # cross-check transfer between the matched baseline/pruned pairs
    data = gen_synthetic(6, 3, 600, 6.0, seed=0)
    nets = _C7_CACHE.get("nets") or _matched_pairs()[5]
    attempts, transfers = 0, 0
    for base, pruned in nets:
        for i in range(10):
            x, label = data.inputs[i], int(data.labels[i])
            logits, _ = forward(base, x)
            if int(np.argmax(logits)) != label:
                continue
            inst = build_instance(base, x, label, 2.0, clamp=False)
            v = verify(inst, SolverConfig(time_limit_seconds=60))
            if v.outcome != "counterexample":
                continue
            attempts += 1
            transfers += int(cross_check(v.counterexample_input, pruned, x))
            if attempts >= 30:
                break
        if attempts >= 30:
            break
    rate = transfers / attempts if attempts else 0.0
    ok = validated == 3 and attempts >= 5 and rate >= 0.5
    _report(9, ok, f"delta=0 robust x10; {validated} vulnerable nets gave "
                   f"validated counterexamples; cross-check transfer "
                   f"{transfers}/{attempts} = {rate:.0%} (floor 50%)")


def test_criterion_10_determinism(tmp_path):
    # re-solve the criterion-1 instances: node counts must repeat exactly
    first = _C1_NODE_COUNTS or None
    second = []
    for net, box, x, delta, k, h in _c1_instances(100):
        model = encode_adversarial(net, x, delta, k, h, clamp=True)
        second.append(solve(model, SolverConfig()).nodes)
    if first is not None:
        assert second == first
    else:  # criterion 1 did not run in this session; solve a third time
        third = [solve(encode_adversarial(net, x, delta, k, h, clamp=True),
                       SolverConfig()).nodes
                 for net, box, x, delta, k, h in _c1_instances(100)]
        assert second == third
    # trained model files are bit-identical across repeat runs
    data = gen_synthetic(6, 3, 600, 6.0, seed=0)
    blobs = []
    for run in range(2):
        cfg = TrainConfig(epochs=15, batch_size=32, learning_rate=0.1, seed=1,
                          regularizer=SprConfig(0.1, 0.5, 1.0))
        net, _ = sgd_train(init_mlp(6, [12, 12], 3, seed=1), data, cfg)
        pruned, _ = threshold_prune(net, 1e-3)
        path = tmp_path / f"model_{run}.json"
        save_model(pruned, path, training_meta={"seed": 1})
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    _report(10, True, "100 re-solved instances repeat node counts exactly; "
                      "repeat-trained model files bit-identical")
