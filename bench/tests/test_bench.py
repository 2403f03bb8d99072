"""Self-tests of the benchmark: generators, output checks and the traced mode.

    python3 -m pytest bench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import NAMES, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def first_cycle(workload, seed):
    w = WORKLOADS[workload]
    items = w.items(random.Random(f"{workload}:{seed}"))
    return [(item.argv(["f"]), item.files, item.tag) for _, item in zip(range(w.cycle), items)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert first_cycle(workload, 1) == first_cycle(workload, 1)
    assert first_cycle(workload, 1) != first_cycle(workload, 2)


def flip_first_kink(out):
    """The output with the sign of its first kink flipped, or None if it has none."""
    data = json.loads(out) if out.startswith("{") else None

    def flip(node):
        if isinstance(node, dict):
            if "kink" in node:
                k = node["kink"]
                node["kink"] = k[1:] if k.startswith("-") else "-" + k
                return True
            return any(flip(v) for v in node.values())
        if isinstance(node, list):
            return any(flip(v) for v in node)
        return False

    return json.dumps(data, indent=2) if data is not None and flip(data) else None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_flipped_kink_fails_an_item(workload, monkeypatch):
    real_call = run.call
    flipped = []

    def corrupting_call(cli, argv):
        code, out, ns = real_call(cli, argv)
        if not flipped:
            bad = flip_first_kink(out)
            if bad is not None:
                flipped.append(argv)
                return code, bad, ns
        return code, out, ns

    monkeypatch.setattr(run, "MIN_ITEMS", 1)
    monkeypatch.setattr(run, "call", corrupting_call)
    result = run.run(workload, seed=3, seconds=0, traced=False)
    assert flipped
    assert result["failed"] == 1
    assert result["metrics"]["success_frac"]["value"] < 1
    assert not result["correct"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    result = run.run(workload, seed=4, seconds=0, traced=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(metric_units())
    for name in NAMES:
        for suffix in ("calls", "self_ms", "errors"):
            assert f"{name}.{suffix}" in result["metrics"]
    assert result["metrics"]["cli.run.calls"]["value"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
