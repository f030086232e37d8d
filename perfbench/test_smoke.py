"""Smoke test of the benchmark itself; not part of the package's test suite.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs cut down to a few small ops, untraced and traced. The
test checks that the result line names exactly the metrics of BENCHMARK.json
with their units, and that an op whose output misses its reference is
counted as failed instead of stopping the run.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

normsum = run.load_package()
import workloads  # noqa: E402  (needs the package path set up above)

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = 0.01  # every run still makes its minimum number of passes
MAX_OPS = 3


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


@pytest.fixture(autouse=True)
def small_searches(monkeypatch):
    """n = 5 exhaustive search (the 5-cycles meet the main bound) and short
    anneals, so that the search workloads take seconds."""
    monkeypatch.setattr(workloads, "EXHAUSTIVE_N", 5)
    monkeypatch.setattr(workloads, "EXHAUSTIVE_REFERENCE", (normsum.bound_value("main", 5), 1 << 10))
    monkeypatch.setattr(workloads, "ANNEAL_STEPS", ((16, 5), (32, 2)))


def test_contract_matches_harness():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    report, result = run.run_benchmark(workload, seed=7, seconds=SECONDS, trace=bool(trace), max_ops=MAX_OPS)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report["failures"]
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert {k: v["unit"] for k, v in report["reported"].items()} == run.REPORTED
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_reference_counts_in_fail_frac(monkeypatch):
    monkeypatch.setattr(workloads, "EXHAUSTIVE_REFERENCE", (normsum.bound_value("main", 5) + 1.0, 1 << 10))
    report, result = run.run_benchmark("exhaustive", seed=7, seconds=SECONDS, trace=False)
    passes = len(report["samples"]["pass_walls"])
    assert not result["correct"]
    assert result["failed"] == passes  # the one op, in every pass
    assert report["reported"]["fail_frac"]["value"] == passes / result["attempted"] > 0
