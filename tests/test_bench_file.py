"""The committed benchmark records, BENCH_<pr>.json at the repository root:
each carries every end-to-end metric of BENCHMARK.json, with its unit, on
every workload, for the parent and the change, and the traced run's
per-layer counters.  From BENCH_17.json on, each also carries the median job
time of every template of every workload, so a saving shows where it is."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FILES = sorted(ROOT.glob("BENCH_*.json"))
PER_TEMPLATE = [p for p in FILES if int(p.stem.split("_")[1]) >= 17]


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


def test_the_latest_records_are_checked_per_template():
    assert PER_TEMPLATE


@pytest.mark.parametrize("path", PER_TEMPLATE, ids=lambda p: p.name)
def test_per_template_medians_on_every_workload(path):
    record = json.loads(path.read_text())
    for name in WORKLOADS:
        medians = record["end_to_end"][name]["per_template_job_s_median"]
        assert medians
        for entry in medians.values():
            assert entry["parent"] > 0 and entry["change"] > 0
            assert entry["change_frac"] == pytest.approx(entry["change"] / entry["parent"] - 1.0)
