"""The committed benchmark records, BENCH_<pr>.json at the repository root:
each carries every end-to-end metric of BENCHMARK.json, with its unit, on
every workload, for the parent and the change, and the traced run's
per-layer counters."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_end_to_end_metrics_match_the_benchmark(path):
    record = json.loads(path.read_text())
    assert set(record["end_to_end"]) == set(WORKLOADS)
    for side in ("parent", "change"):
        assert record["provenance"][side]["src_sha256"]
    for name in WORKLOADS:
        block = record["end_to_end"][name]
        assert block["pairs"] >= 1
        assert set(block["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        for metric in SPEC["end_to_end"]:
            entry = block["metrics"][metric["name"]]
            assert (entry["unit"], entry["better"]) == (metric["unit"], metric["better"])
            for side in ("parent", "change"):
                q = entry[side]
                assert len(q["runs"]) == block["pairs"]
                assert min(q["runs"]) <= q["q1"] <= q["median"] <= q["q3"] <= max(q["runs"])
            assert 0 <= entry["change_wins"] <= block["pairs"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_trace_counters_cover_the_per_layer_metrics(path):
    record = json.loads(path.read_text())
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for name in WORKLOADS:
        for side in ("parent", "change"):
            counters = record["trace"][name][side]
            assert per_layer <= set(counters)
            assert all(isinstance(v, (int, float)) for v in counters.values())
