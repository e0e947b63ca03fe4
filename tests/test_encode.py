"""Encoder tests: interval bounds, counting, trace soundness, LP export."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from prunemip.encode import (
    BoundsTable,
    InputBox,
    assemble_trace,
    encode_adversarial,
    encode_network,
    interval_bounds,
    parse_lp,
    write_lp,
)
from prunemip.lp import check_feasible, solve_lp
from prunemip.nn import Mlp, forward

from conftest import random_net


def unit_box(n):
    return InputBox(np.zeros(n), np.ones(n))


def test_interval_single_neuron():
    net = Mlp([(np.array([[1.0]]), np.array([0.0])), (np.array([[1.0]]), np.array([0.0]))])
    table = interval_bounds(net, InputBox(np.array([-1.0]), np.array([1.0])))
    assert table.lo[0][0] == -1.0 and table.hi[0][0] == 1.0
    assert table.m_plus(0)[0] == 1.0 and table.m_minus(0)[0] == 1.0


def test_interval_extreme_contributions():
    net = Mlp([(np.array([[1.0, -1.0]]), np.array([0.5])),
               (np.array([[1.0]]), np.array([0.0]))])
    table = interval_bounds(net, unit_box(2))
    assert table.lo[0][0] == pytest.approx(-0.5)
    assert table.hi[0][0] == pytest.approx(1.5)


def test_interval_monte_carlo_containment():
    net = random_net(0, input_dim=3, hidden=[8, 8], classes=2)
    box = unit_box(3)
    table = interval_bounds(net, box)
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(10_000, 3))
    for x in X:
        _, preacts = forward(net, x)
        for li in range(2):
            assert np.all(preacts[li] >= table.lo[li] - 1e-9)
            assert np.all(preacts[li] <= table.hi[li] + 1e-9)


def test_box_dimension_mismatch():
    net = random_net(1, input_dim=3)
    with pytest.raises(ValueError):
        interval_bounds(net, unit_box(5))
    with pytest.raises(ValueError):
        encode_network(net, unit_box(5), interval_bounds(net, unit_box(3)))


def test_counting_single_neuron():
    """n=1, m=1: 1 binary, n+2m=3 continuous (plus outputs), 3m structural rows."""
    net = Mlp([(np.array([[1.0]]), np.array([0.0])), (np.array([[1.0]]), np.array([0.0]))])
    box = InputBox(np.array([-1.0]), np.array([1.0]))
    model = encode_network(net, box, interval_bounds(net, box), eliminate_stable=False)
    assert model.num_binaries == 1
    hidden_rows = len(model.constraints) - net.output_dim
    assert hidden_rows == 3
    continuous = model.num_vars - model.num_binaries - net.output_dim
    assert continuous == 1 + 2 * 1  # n + 2m


def test_counting_per_layer_random_nets():
    for seed in range(50):
        net = random_net(200 + seed)
        box = unit_box(net.input_dim)
        model = encode_network(net, box, interval_bounds(net, box), eliminate_stable=False)
        m_total = sum(net.hidden_widths)
        assert model.num_binaries == m_total
        assert len(model.constraints) == 3 * m_total + net.output_dim
        n_cont = model.num_vars - m_total - net.output_dim
        assert n_cont == net.input_dim + 2 * m_total


def test_stable_elimination_binary_count():
    for seed in range(20):
        net = random_net(300 + seed)
        box = unit_box(net.input_dim)
        table = interval_bounds(net, box)
        model = encode_network(net, box, table)
        unstable = sum(
            int(table.lo[li][j] < 0.0 < table.hi[li][j])
            for li in range(len(table.lo)) for j in range(table.lo[li].size)
        )
        assert model.num_binaries == unstable


def test_trace_soundness():
    """Sampled inputs produce MIP-feasible assignments at 1e-7."""
    rng = np.random.default_rng(3)
    for seed in range(10):
        net = random_net(400 + seed)
        box = unit_box(net.input_dim)
        model = encode_network(net, box, interval_bounds(net, box))
        for _ in range(200):
            x = rng.uniform(0, 1, net.input_dim)
            point = assemble_trace(model, x)
            assert check_feasible(model, point, 1e-7)


@pytest.mark.parametrize("eliminate_stable", [True, False])
def test_relu_layout_partitions_the_columns(eliminate_stable):
    """Every column is an input, one neuron's vp, vm or z, or an output; a
    neuron has a z exactly where its column is binary, and a vm with it."""
    stable = 0
    for seed in range(20):
        net = random_net(400 + seed, scale=2.0)
        box = unit_box(net.input_dim)
        model = encode_network(net, box, interval_bounds(net, box), eliminate_stable)
        assert len(model.relu) == len(net.hidden_widths)
        owners = np.zeros(model.num_vars, dtype=int)
        np.add.at(owners, model.input_vars + model.output_vars, 1)
        binary = np.zeros(model.num_vars, dtype=bool)
        for (vp, vm, z), width in zip(model.relu, net.hidden_widths):
            assert vp.shape == vm.shape == z.shape == (width,)
            assert (vp >= 0).all() and np.array_equal(vm >= 0, z >= 0)
            np.add.at(owners, np.concatenate([vp, vm[vm >= 0], z[z >= 0]]), 1)
            binary[z[z >= 0]] = True
            stable += int((z < 0).sum())
        assert (owners == 1).all()
        assert np.array_equal(model.is_binary, binary)
    assert (stable > 0) == eliminate_stable


def test_output_columns_bound_the_forward_outputs():
    """Every output column carries finite bounds, the interval of its row,
    and they hold the outputs of sampled box points: the logits on
    encode_network's columns, with stable neurons eliminated or not, and
    y_h - y_k on encode_adversarial's margin column."""
    rng = np.random.default_rng(12)
    for seed in range(20):
        net = random_net(1200 + seed, classes=3, scale=2.0)
        x = rng.uniform(0.2, 0.8, net.input_dim)
        adversarial = encode_adversarial(net, x, 0.3, 0, 2,
                                         bounds_mode="obbt" if seed % 2 else "interval")
        inputs = adversarial.input_vars
        box = InputBox(adversarial.lower[inputs], adversarial.upper[inputs])
        logits, _ = forward(net, rng.uniform(box.lower, box.upper, (500, net.input_dim)))
        models = [(adversarial, logits[:, [2]] - logits[:, [0]])]
        models += [(encode_network(net, box, interval_bounds(net, box), eliminate_stable), logits)
                   for eliminate_stable in (True, False)]
        for model, outputs in models:
            lo, hi = model.lower[model.output_vars], model.upper[model.output_vars]
            assert np.isfinite(lo).all() and np.isfinite(hi).all()
            assert np.all((lo - 1e-9 <= outputs) & (outputs <= hi + 1e-9))


def test_point_box_reproduces_forward():
    """Fixing the box to a point and the binaries to the activation signs
    makes the LP relaxation reproduce forward(x)."""
    rng = np.random.default_rng(4)
    for seed in range(10):
        net = random_net(500 + seed)
        x = rng.uniform(0, 1, net.input_dim)
        box = InputBox(x, x.copy())
        model = encode_network(net, box, interval_bounds(net, box))
        logits, preacts = forward(net, x)
        lo, hi = model.lower.copy(), model.upper.copy()
        for (_, _, z), p in zip(model.relu, preacts):
            split = z >= 0
            lo[z[split]] = hi[z[split]] = p[split] > 0
        for h in range(net.output_dim):
            c = np.zeros(model.num_vars)
            c[model.output_vars[h]] = 1.0
            sol = solve_lp(replace(model, objective=c, lower=lo, upper=hi))
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(logits[h], abs=1e-7)


def test_adversarial_delta_zero_margin():
    net = random_net(6, input_dim=4, classes=3)
    x = np.random.default_rng(6).uniform(0.2, 0.8, 4)
    logits, _ = forward(net, x)
    model = encode_adversarial(net, x, 0.0, 0, 1, clamp=False)
    sol = solve_lp(model)
    assert sol.objective == pytest.approx(logits[1] - logits[0], abs=1e-7)


def test_adversarial_model_encodes_the_margin_network():
    """One output column, `margin`, which is the whole objective; one row
    beyond the hidden layers; and every box point's trace puts the logit
    margin on it."""
    rng = np.random.default_rng(11)
    for seed in range(10):
        net = random_net(1100 + seed, classes=4, scale=1.2)
        x = rng.uniform(0.2, 0.8, net.input_dim)
        k, h = 3, seed % 3
        model = encode_adversarial(net, x, 0.3, k, h,
                                   bounds_mode="obbt" if seed % 2 else "interval")
        assert len(model.output_vars) == 1
        out = model.output_vars[0]
        assert model.names[out] == "margin"
        unit = np.zeros(model.num_vars)
        unit[out] = 1.0
        assert np.array_equal(model.objective, unit)
        # 3 rows per split neuron, 1 per active one (its vp is not fixed at 0)
        hidden_rows = sum(3 * (z >= 0).sum() + ((z < 0) & (model.upper[vp] > 0)).sum()
                          for vp, _, z in model.relu)
        assert len(model.constraints) == hidden_rows + 1
        lo, hi = model.lower[model.input_vars], model.upper[model.input_vars]
        for _ in range(50):
            point_x = rng.uniform(lo, hi)
            point = assemble_trace(model, point_x)
            assert check_feasible(model, point, 1e-7)
            logits, _ = forward(net, point_x)
            assert point[out] == pytest.approx(logits[h] - logits[k], abs=1e-12)


def test_adversarial_invalid_classes():
    net = random_net(7, classes=3)
    x = np.zeros(net.input_dim)
    with pytest.raises(ValueError):
        encode_adversarial(net, x, 0.1, 1, 1)
    with pytest.raises(ValueError):
        encode_adversarial(net, x, 0.1, 0, 9)
    with pytest.raises(ValueError):
        encode_adversarial(net, x, -0.5, 0, 1)


def test_non_finite_box_rejected():
    for lo, hi in (([math.nan], [1.0]), ([0.0], [math.nan]), ([-math.inf], [1.0]),
                   ([0.0], [math.inf])):
        with pytest.raises(ValueError):
            InputBox(np.array(lo), np.array(hi))
    net = random_net(7, classes=3)
    x = np.full(net.input_dim, 0.5)
    with pytest.raises(ValueError):
        encode_adversarial(net, x, math.nan, 0, 1)
    with pytest.raises(ValueError):
        encode_adversarial(net, x, math.inf, 0, 1, clamp=False)
    model = encode_adversarial(net, x, math.inf, 0, 1)  # clamped onto [0, 1]
    assert np.array_equal(model.upper[model.input_vars], np.ones(net.input_dim))


def test_pruned_model_strictly_smaller(separable_data, trained_1x16):
    from prunemip.prune import threshold_prune
    from prunemip.nn import TrainConfig, init_mlp, sgd_train
    from prunemip.spr import SprConfig

    cfg = TrainConfig(epochs=30, batch_size=32, learning_rate=0.1, seed=1,
                      regularizer=SprConfig(0.5, 0.5, 1.0))
    spr_net, _ = sgd_train(init_mlp(6, [16], 3, seed=1), separable_data, cfg)
    pruned, report = threshold_prune(spr_net, 1e-3)
    assert report.neurons_removed >= 1
    x = separable_data.inputs[0]
    adv_big = encode_adversarial(spr_net, x, 0.5, 0, 1, clamp=False)
    adv_small = encode_adversarial(pruned, x, 0.5, 0, 1, clamp=False)
    assert adv_small.num_vars < adv_big.num_vars
    # removed neurons shed both variables and rows in the full encoding
    box = InputBox(x - 0.5, x + 0.5)
    big = encode_network(spr_net, box, interval_bounds(spr_net, box),
                         eliminate_stable=False)
    small = encode_network(pruned, box, interval_bounds(pruned, box),
                           eliminate_stable=False)
    assert small.num_vars < big.num_vars
    assert len(small.constraints) < len(big.constraints)


def test_bounds_table_validation_and_csv():
    with pytest.raises(ValueError):
        BoundsTable([np.array([1.0])], [np.array([0.0])], ["interval"])
    table = BoundsTable([np.array([-1.0, 0.5])], [np.array([2.0, 3.0])], ["interval"])
    csv = table.to_csv()
    assert csv.splitlines()[0] == "layer,neuron,lo,hi,provenance"
    assert len(csv.splitlines()) == 3


def test_write_lp_minimal_model():
    from prunemip.encode import MipModel

    model = MipModel(num_vars=1, objective=np.array([1.0]),
                     lower=np.array([0.0]), upper=np.array([2.0]), A=np.zeros((0, 1)),
                     relation=np.array([], dtype=str), rhs=np.zeros(0),
                     names=["a"], is_binary=np.array([False]))
    text = write_lp(model)
    assert text.startswith("Maximize\n obj: 1.0 a\nSubject To\nBounds\n")
    assert " 0.0 <= a <= 2.0" in text


def test_lp_one_neuron_sections():
    net = Mlp([(np.array([[1.0]]), np.array([0.0])), (np.array([[1.0]]), np.array([0.0]))])
    box = InputBox(np.array([-1.0]), np.array([1.0]))
    model = encode_network(net, box, interval_bounds(net, box))
    text = write_lp(model)
    body = text.split("Subject To\n")[1].split("Bounds\n")[0]
    assert len(body.strip().splitlines()) == 4  # 3 structural + 1 output row
    assert "Binaries\n z_0_0\n" in text


def test_lp_round_trip_byte_identical():
    for seed in range(5):
        net = random_net(600 + seed)
        box = unit_box(net.input_dim)
        model = encode_network(net, box, interval_bounds(net, box))
        model.objective[model.output_vars[0]] = 1.0
        text = write_lp(model)
        for j, y in enumerate(model.output_vars):  # an output column is bounded, not free
            assert f" {float(model.lower[y])!r} <= y_{j} <= {float(model.upper[y])!r}\n" in text
        reparsed = parse_lp(text)
        assert write_lp(reparsed) == text
        assert reparsed.num_vars == model.num_vars
        assert reparsed.num_binaries == model.num_binaries


def test_parse_lp_reproduces_the_rows():
    """parse_lp(write_lp(model)) holds model's A, relation and rhs, its
    columns permuted as its names say, for encoder models with and without
    stable neurons eliminated and for a model with a binary, a negative
    bound and a <= row."""
    from prunemip.encode import MipModel

    models = []
    for seed in range(4):
        net = random_net(620 + seed)
        box = unit_box(net.input_dim)
        model = encode_network(net, box, interval_bounds(net, box), eliminate_stable=seed % 2 == 0)
        model.objective[model.output_vars[-1]] = 1.0
        models.append(model)
    models.append(MipModel(num_vars=3, objective=np.array([0.0, -2.0, 1.0]),
                           lower=np.array([0.0, -1.0, 0.0]), upper=np.array([1.0, 4.0, 8.0]),
                           A=np.array([[-1.0, 0.0, 2.5], [0.0, 3.0, 0.0]]),
                           relation=np.array(["<=", "="]), rhs=np.array([-1.0, -4.0]),
                           names=["a", "b", "c"], is_binary=np.array([True, False, False])))
    for model in models:
        parsed = parse_lp(write_lp(model))
        perm = [model.names.index(name) for name in parsed.names]
        assert sorted(perm) == list(range(model.num_vars))
        assert np.array_equal(parsed.A, model.A[:, perm])
        assert np.array_equal(parsed.relation, model.relation)
        assert np.array_equal(parsed.rhs, model.rhs)
        for field in ("objective", "lower", "upper", "is_binary"):
            assert np.array_equal(getattr(parsed, field), getattr(model, field)[perm]), field


def test_parse_lp_requires_objective():
    with pytest.raises(ValueError, match="no objective"):
        parse_lp("Bounds\n 0.0 <= x <= 1.0\nEnd\n")


@pytest.mark.parametrize("line", ["c0: 1.0 y 3.0",  # no relation
                                  "c0: 1.0 y + 2.0 >= 0.0",  # a >= row with a lone coefficient
                                  "c0: 1.0 y >=",  # a >= row without a right-hand side
                                  "c0: 1.0 y + 2.0 <= 0.0",  # a coefficient without a variable
                                  "c0: 1.0 y <=",  # a relation without a right-hand side
                                  "c0: 1.0 y >= 0.5"])  # a >= row
def test_parse_lp_malformed_constraint_names_the_line(line):
    with pytest.raises(ValueError, match="line 4: .*" + re.escape(repr(line))):
        parse_lp(f"Maximize\n obj: 1.0 y\nSubject To\n {line}\nEnd\n")


@pytest.mark.parametrize("line", ["y <=", "y >=", "y"])
def test_parse_lp_bound_without_value_names_the_line(line):
    with pytest.raises(ValueError, match="line 4: .*" + re.escape(repr(line))):
        parse_lp(f"Maximize\n obj: 1.0 y\nBounds\n {line}\nEnd\n")


@pytest.mark.parametrize("text, message", [
    ("Minimize\n obj: 1.0 y\nSubject To\nBounds\n 0.0 <= y <= 1.0\nEnd\n",
     "line 1: malformed leading line 'Minimize'"),
    ("Maximize\n obj: 1.0 y + 1.0 x\nSubject To\nBounds\n 0.0 <= y <= 1.0\nEnd\n",
     "LP text gives column 'x' no bounds"),
])
def test_parse_lp_reads_only_the_form_write_lp_writes(text, message):
    """parse_lp reads a Maximize objective and a `lo <= name <= hi` Bounds
    line for every non-binary column: a Minimize section and a column
    without a Bounds line are malformed. (A >= row, and a free or one-sided
    bound, are cases of the tests of malformed rows and of unboxed
    variables.)"""
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_lp(text)


@pytest.mark.parametrize("lower, upper", [(-math.inf, math.inf), (-math.inf, 2.0),
                                          (0.0, math.inf)])
def test_write_lp_rejects_an_unboxed_column(lower, upper):
    from prunemip.encode import MipModel

    model = MipModel(num_vars=1, objective=np.array([1.0]), lower=np.array([lower]),
                     upper=np.array([upper]), A=np.zeros((0, 1)),
                     relation=np.array([], dtype=str), rhs=np.zeros(0),
                     names=["a"], is_binary=np.array([False]))
    with pytest.raises(ValueError, match="column 'a' has no finite lower and upper bound"):
        write_lp(model)
