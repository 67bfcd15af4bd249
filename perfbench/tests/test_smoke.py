"""Tiny-size runs of each workload print every named metric with its unit."""

import json
import math
import sys
import types
from pathlib import Path

import pytest

import run
from workloads import SIZES

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

TINY = {
    "experiment": {**SIZES["experiment"], "songs": 6, "song_seconds": 6.0,
                   "split": (2, 2, 2), "epochs": 2},
    "train_hidden_shift": {**SIZES["train_hidden_shift"], "songs": 6, "song_seconds": 6.0,
                           "split": (2, 2, 2), "epochs": 2},
    "infer_eval": {**SIZES["infer_eval"], "songs": 4, "song_seconds": (6.0, 12.0),
                   "checkpoint_songs": 2, "checkpoint_seconds": 6.0,
                   "checkpoint_epochs": 1, "setup_repeats": 1},
}


def _bindings():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name.startswith("chordkit") for attr, value in vars(module).items()
            if isinstance(value, types.FunctionType)}


def _expected(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_names_what_the_runner_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SIZES)
    assert _expected("end_to_end") == run.END_TO_END
    assert list(_expected("per_layer")) == run.per_layer_names()
    assert _expected("per_layer") == {n: run.layer_unit(n) for n in run.per_layer_names()}


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace):
    before = _bindings()
    record = run.run_benchmark(workload, seed=3, seconds=0.0, trace=trace,
                               sizes=TINY[workload])
    result = json.loads(json.dumps(record["result"]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    expected = _expected("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if workload != "experiment":  # two epochs cannot reach criterion 8's floors
        assert result["correct"], record
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
