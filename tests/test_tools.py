"""tools/exactness.py: the records it prints for the first verify and the
first pipeline of its rounds."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_exactness():
    spec = importlib.util.spec_from_file_location("exactness", ROOT / "tools" / "exactness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exactness_first_record_is_a_deterministic_verdict_without_timings():
    """The first record is the base net's verify of the first verify-desk
    pair of bench seed 1: its verdict agrees with HiGHS's bound on the
    margin in bench/nets/reference.json, its bound tightening solved two
    LPs per neuron of the second hidden layer, and a second run prints it
    again bit for bit."""
    tool = _load_exactness()
    record = next(tool.verify_records())
    assert list(record) == ["workload", "seed", "index", "delta", "side", "outcome", "margin",
                            "nodes", "lp_solves", "pivots", "bound_flips", "warm_starts",
                            "cold_fallbacks", "failed_lps", "obbt_lps", "obbt_pivots",
                            "obbt_flips"]
    assert (record["workload"], record["seed"], record["side"]) == ("verify-desk", 1, "base")
    reference = json.loads((ROOT / "bench" / "nets" / "reference.json").read_text())
    pair = next(c for c in reference["desk"]["candidates"]
                if (c["index"], c["delta"]) == (record["index"], record["delta"]))
    highs_ub = pair["highs_ub"][0]
    assert record["outcome"] == ("robust" if highs_ub < 0 else "counterexample")
    assert float(record["margin"]) <= highs_ub + 1e-6
    assert record["lp_solves"] == record["nodes"] == record["warm_starts"] + 1
    assert record["obbt_lps"] == 24  # two per neuron of the second hidden layer of 12
    assert json.dumps(record) == json.dumps(next(tool.verify_records()))


def test_exactness_first_pipeline_record_names_its_selected_grid_point():
    """The first pipeline record is the first train-prune pipeline of bench
    seed 1: its selected entry names the grid point, and a second run
    prints it again bit for bit."""
    tool = _load_exactness()
    record = next(tool.pipeline_records())
    assert list(record) == ["workload", "seed", "init_seed", "pruned_arch", "post_accuracy",
                            "selected", "sha256"]
    assert (record["workload"], record["seed"]) == ("train-prune", 1)
    assert list(record["selected"]) == ["kind", "lambda", "alpha", "m", "pruned_arch",
                                        "accuracy", "baseline_accuracy", "flag"]
    assert record["selected"]["pruned_arch"] == record["pruned_arch"]
    assert repr(record["selected"]["accuracy"]) == record["post_accuracy"]
    assert json.dumps(record) == json.dumps(next(tool.pipeline_records()))
