"""CLI tests: exit codes, artifacts, manifests, bench CSV schema."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prunemip
from prunemip.bnb import SolveReport
from prunemip.cli import BENCH_HEADER, EXIT_USAGE, main
from prunemip.nn import Mlp, accuracy, load_model, save_model

from conftest import random_net


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    code = run_cli("train", "--arch", "1x8", "--out", str(path),
                   "--epochs", "15", "--batch", "32", "--seed", "0")
    assert code == 0
    return path


def test_train_writes_model_log_manifest(trained_model):
    net, meta = load_model(trained_model)
    assert net.hidden_widths == [8]
    assert meta["arch"] == "1x8"
    assert trained_model.with_name("model.json.log.json").exists()
    manifest = json.loads(
        trained_model.with_name("model.json.manifest.json").read_text())
    assert manifest["flags"]["epochs"] == 15
    assert manifest["flags"]["seed"] == 0
    assert "version" in manifest and "argv" in manifest


def test_train_zero_epochs(tmp_path, capsys):
    """No epoch means no history; the final accuracy is the untrained net's."""
    out = tmp_path / "m.json"
    assert run_cli("train", "--arch", "1x4", "--epochs", "0", "--out", str(out)) == 0
    net, meta = load_model(out)
    assert net.hidden_widths == [4]
    assert 0.0 <= meta["final_accuracy"] <= 1.0
    assert f"final accuracy {meta['final_accuracy']:.4f}" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the scenario
def test_train_diverged_writes_no_model(tmp_path, capsys):
    """A learning rate that drives the weights to NaN is rejected before any
    file is written: load_model would refuse the model file."""
    out = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--arch", "1x4", "--epochs", "30", "--lr", "1e9", "--out", str(out))
    assert exc.value.code == EXIT_USAGE
    assert "non-finite parameters" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_bad_arch_exits(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--arch", "0x10", "--out", str(tmp_path / "nope.json"))
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("flags", [
    ["--delta", "-1"],
    ["--delta", "nan"],
    ["--time-limit", "0"],
    ["--index", "100000"],
    ["--index", "-1"],
    ["--input", "{tmp}/missing.json"],
    ["--model", "{tmp}/missing.json"],  # the last --model wins
    ["--model", "{tmp}/no_layers.json"],
    ["--model", "{tmp}/layers_empty.json"],
    ["--model", "{tmp}/no_rows.json"],
    ["--input", "{tmp}/x.json", "--label", "99"],  # the net has 3 classes
    ["--input", "{tmp}/x.json", "--label", "-1"],
    None,  # no --model: argparse's own usage error
    ["--label", "99"],  # a dataset sample carries its own label
    ["--label", "0"],
])
def test_verify_bad_argument_exits_usage(flags, trained_model, capsys, tmp_path):
    (tmp_path / "x.json").write_text(json.dumps([0.5] * 6))
    (tmp_path / "no_layers.json").write_text('{"format_version": 1}')
    (tmp_path / "layers_empty.json").write_text('{"format_version": 1, "layers": []}')
    (tmp_path / "no_rows.json").write_text(
        '{"format_version": 1, "layers": [{"weights": [1.0], "bias": [0.0]}]}')
    argv = ["verify", "--index", "0"]
    if flags is not None:
        argv += ["--model", str(trained_model), *(f.format(tmp=tmp_path) for f in flags)]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("prunemip")
    assert ": error: " in err.splitlines()[-1]


def test_train_determinism_bit_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run_cli("train", "--arch", "1x6", "--out", str(out),
                "--epochs", "5", "--batch", "32", "--seed", "3")
    assert a.read_bytes() == b.read_bytes()


def test_verify_delta_zero_exit_robust(trained_model):
    assert run_cli("verify", "--model", str(trained_model),
                   "--delta", "0", "--index", "0") == 0


def test_verify_counterexample_exit(tmp_path):
    # one-hidden-neuron net whose margin flips inside the box
    net = Mlp([(np.array([[1.0]]), np.array([-0.5])),
               (np.array([[1.0], [-1.0]]), np.array([-0.05, 0.05]))])
    model_path = tmp_path / "vuln.json"
    save_model(net, model_path)
    x_path = tmp_path / "x.json"
    x_path.write_text("[0.3]")
    out = tmp_path / "verdict.json"
    code = run_cli("verify", "--model", str(model_path), "--input", str(x_path),
                   "--label", "1", "--delta", "0.5", "--out", str(out))
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["outcome"] == "counterexample"
    assert doc["counterexample"] is not None
    assert (tmp_path / "verdict.json.manifest.json").exists()


def test_verify_timeout_exit(tmp_path, trained_model):
    code = run_cli("verify", "--model", str(trained_model),
                   "--delta", "2.0", "--time-limit", "1e-9", "--index", "0")
    assert code == 2


def _strict_load(text):
    """json.loads that refuses the non-standard Infinity, -Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("time_limit, code", [("1e-9", 2), ("inf", 0)])
def test_verify_json_is_strict(time_limit, code, tmp_path, trained_model, capsys):
    """A timeout's best bound (+inf) and an infinite time limit are written
    as null in the verdict, its file and its manifest."""
    out = tmp_path / "v.json"
    assert run_cli("verify", "--model", str(trained_model), "--delta", "2.0" if code else "0",
                   "--time-limit", time_limit, "--index", "0", "--out", str(out)) == code
    doc = _strict_load(capsys.readouterr().out)
    assert _strict_load(out.read_text()) == doc
    manifest = _strict_load((tmp_path / "v.json.manifest.json").read_text())
    if time_limit == "inf":
        assert doc["config"]["time_limit"] is None
        assert manifest["flags"]["time_limit"] is None
    else:
        assert doc["outcome"] == "timeout" and doc["best_bound"] is None
        assert manifest["flags"]["time_limit"] == 1e-9


def _unknown_report(model, cfg, **kwargs):
    """A positive optimum with no incumbent point: proves nothing either way."""
    return SolveReport("optimal", 0.5, 0.5, 1, 0.0)


def test_verify_unknown_exit(monkeypatch, trained_model):
    monkeypatch.setattr(sys.modules["prunemip.verify"], "solve", _unknown_report)
    assert run_cli("verify", "--model", str(trained_model),
                   "--delta", "0.3", "--index", "0") == 4


def test_verify_lp_iteration_limit_exits_unknown(monkeypatch, trained_model, capsys):
    """The simplex iteration limit is a failed node, not a bad argument."""
    monkeypatch.setattr(sys.modules["prunemip.lp"], "_MAX_ITER", 3)
    assert run_cli("verify", "--model", str(trained_model),
                   "--delta", "0.3", "--index", "0") == 4
    doc = _strict_load(capsys.readouterr().out)  # best_bound +inf is null
    assert doc["outcome"] == "unknown"
    assert doc["status"] == "lp-failed"
    assert doc["stats"]["failed_lps"] >= 1
    assert doc["best_bound"] is None


def test_verify_keeps_interval_bounds_when_obbt_lps_fail(monkeypatch, tmp_path, capsys):
    """Every OBBT LP ends infeasible, as a relaxation over a box can only
    numerically: the interval bounds stand in, and verify still reaches the
    verdict it reaches unpatched instead of a traceback."""
    net = random_net(4, input_dim=4, hidden=[6, 5], classes=3, scale=1.2)
    model_path, x_path = tmp_path / "net.json", tmp_path / "x.json"
    save_model(net, model_path)
    x_path.write_text(json.dumps([0.5] * 4))
    argv = ("verify", "--model", str(model_path), "--input", str(x_path), "--delta", "0.3")
    assert run_cli(*argv) == 0
    lp_mod = sys.modules["prunemip.lp"]
    monkeypatch.setattr(lp_mod, "solve_lp", lambda lp, warm=None: lp_mod.LpSolution("infeasible"))
    capsys.readouterr()
    assert run_cli(*argv) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "robust"


def test_verify_misclassified_exit(tmp_path, trained_model):
    net, _ = load_model(trained_model)
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps([0.0] * net.input_dim))
    from prunemip.nn import forward

    logits, _ = forward(net, np.zeros(net.input_dim))
    wrong = (int(np.argmax(logits)) + 1) % net.output_dim
    code = run_cli("verify", "--model", str(trained_model), "--input", str(x_path),
                   "--label", str(wrong), "--delta", "0.1")
    assert code == 3
    code = run_cli("export-lp", "--model", str(trained_model), "--input", str(x_path),
                   "--label", str(wrong), "--delta", "0.1", "--out", str(tmp_path / "x.lp"))
    assert code == 3


def test_prune_command(tmp_path):
    out = tmp_path / "pruned.json"
    code = run_cli("prune", "--arch", "1x16", "--out", str(out),
                   "--epochs", "20", "--batch", "32",
                   "--grid-lambdas", "0.5", "--grid-alphas", "0.5",
                   "--fine-tune-epochs", "5")
    assert code == 0
    net, meta = load_model(out)
    assert sum(net.hidden_widths) < 16
    assert meta["pruned_arch"] == net.arch
    grid = (tmp_path / "pruned.json.grid.csv").read_text().splitlines()
    assert grid[0] == "lambda,alpha,m,tau,pruned_arch,accuracy,neurons_removed"
    report = json.loads((tmp_path / "pruned.json.report.json").read_text())
    assert report["pruned_arch"] == net.arch


def test_prune_over_pruned_grid_exits_usage(tmp_path, capsys):
    """A penalty that empties a layer at every grid point is a rejected
    flag value: one error line and exit 64, no traceback."""
    out = tmp_path / "pruned.json"
    with pytest.raises(SystemExit) as exc:
        run_cli("prune", "--arch", "1x2", "--out", str(out), "--epochs", "3",
                "--grid-lambdas", "1000", "--grid-alphas", "0.5")
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ["prunemip: error: every grid point over-pruned a layer "
                                "at tau=0.001; lower tau or lambda"]
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--tau", "nan"], ["--tau", "-1"],
                                   ["--acc-floor", "nan"], ["--acc-floor", "-1"]])
def test_prune_bad_threshold_exits_before_training(flags, monkeypatch, tmp_path):
    def no_training(*args, **kwargs):
        raise AssertionError("prune trained before rejecting its flags")

    monkeypatch.setattr(sys.modules["prunemip.prune"], "sgd_train", no_training)
    out = tmp_path / "pruned.json"
    with pytest.raises(SystemExit) as exc:
        run_cli("prune", "--arch", "1x4", "--out", str(out), *flags)
    assert exc.value.code == EXIT_USAGE
    assert not out.exists()


def test_export_lp(tmp_path, trained_model):
    out = tmp_path / "adv.lp"
    assert run_cli("export-lp", "--model", str(trained_model),
                   "--delta", "0.3", "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("Maximize\n")
    assert "Subject To" in text and text.rstrip().endswith("End")
    from prunemip.encode import parse_lp

    parse_lp(text)  # our own output must re-parse


def test_gen_data(tmp_path):
    out = tmp_path / "blobs.npz"
    assert run_cli("gen-data", "--out", str(out),
                   "--synthetic", "dims=4,classes=2,samples=50,margin=3.0") == 0
    with np.load(out) as doc:
        assert doc["inputs"].shape == (50, 4)
        assert doc["labels"].shape == (50,)
        assert int(doc["num_classes"]) == 2


def test_gen_data_rejects_unknown_field(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("gen-data", "--out", str(tmp_path / "x.npz"),
                "--synthetic", "bogus=3")
    assert exc.value.code == EXIT_USAGE


def test_bench_desk_scale(tmp_path):
    out = tmp_path / "bench.csv"
    code = run_cli("bench", "--archs", "1x8", "--out", str(out),
                   "--reps", "1", "--desk-scale", "--batch", "32",
                   "--grid-lambdas", "0.5", "--grid-alphas", "0.5",
                   "--deltas", "0.5", "--fine-tune-epochs", "3")
    assert code == 0
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == BENCH_HEADER
    assert len(rows) == 3  # baseline + pruned for one delta
    for row in rows[1:]:
        assert row[6] in ("YES", "NO", "-")
    summary = json.loads((tmp_path / "bench.csv.summary.json").read_text())
    assert "cross_check_transfer" in summary and "errors" in summary


@pytest.mark.parametrize("flags", [["--deltas", "-1"], ["--deltas", "1,nan"],
                                   ["--deltas", "inf"], ["--grid-alphas", "1.5"]])
def test_bench_bad_argument_exits_before_training(flags, monkeypatch, tmp_path):
    def no_training(*args, **kwargs):
        raise AssertionError("bench trained before rejecting its flags")

    monkeypatch.setattr(sys.modules["prunemip.cli"], "prune_pipeline", no_training)
    out = tmp_path / "bench.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--archs", "1x8", "--out", str(out), "--reps", "1",
                "--desk-scale", *flags)
    assert exc.value.code == EXIT_USAGE
    assert not out.exists()


def test_bench_reuses_the_rep_invariant_work(monkeypatch, tmp_path):
    """One clean input per rep, and the CSV accuracies that prune_pipeline
    measured, whatever the number of deltas."""
    cli = sys.modules["prunemip.cli"]
    calls = {"first_correct": 0, "accuracy": 0}
    first_correct = cli._first_correct

    def counting_first_correct(*args):
        calls["first_correct"] += 1
        return first_correct(*args)

    def counting_accuracy(*args):
        calls["accuracy"] += 1
        return accuracy(*args)

    monkeypatch.setattr(cli, "_first_correct", counting_first_correct)
    monkeypatch.setattr(cli, "accuracy", counting_accuracy, raising=False)
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--archs", "1x8", "--out", str(out),
                   "--reps", "1", "--desk-scale", "--batch", "32",
                   "--grid-lambdas", "0.5", "--grid-alphas", "0.5",
                   "--deltas", "0.5,1.0,2.0", "--fine-tune-epochs", "3") == 0
    assert calls == {"first_correct": 1, "accuracy": 0}
    with open(out) as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == 6
    summary = json.loads((tmp_path / "bench.csv.summary.json").read_text())
    assert summary["errors"] == []


def test_bench_marks_unknown_outcomes(monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules["prunemip.verify"], "solve", _unknown_report)
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--archs", "1x8", "--out", str(out),
                   "--reps", "1", "--desk-scale", "--batch", "32",
                   "--grid-lambdas", "0.5", "--grid-alphas", "0.5",
                   "--deltas", "0.5", "--fine-tune-epochs", "3") == 0
    with open(out) as f:
        rows = list(csv.reader(f))
    assert [row[6] for row in rows[1:]] == ["?", "?"]


def test_console_entry_point_subprocess():
    # the child imports the package from where this process found it
    paths = [str(Path(prunemip.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-m", "prunemip.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip()
