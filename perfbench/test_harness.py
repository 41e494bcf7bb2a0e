"""Self-test of the benchmark harness on tiny inputs (two-epoch trainings).

    python3 -m pytest -q perfbench/test_harness.py

Checks that every metric BENCHMARK.json names is emitted, with its unit,
on every workload, untraced and traced, and that the correctness gate
passes.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import prove  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.SIZES))
def test_every_metric_emitted_with_its_unit(workload, trace):
    result, env, _, _ = run.run(workload, seed=1, seconds=1, trace=trace,
                                size=workloads.TINY, use_reference=False)
    declared = prove.load_spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert env["workload"] == workload and env["seed"] == 1


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in prove.load_spec()["workloads"]) == sorted(
        workloads.SIZES)
