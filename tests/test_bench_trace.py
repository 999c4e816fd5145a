"""Smoke test of the benchmark's layer tracer (bench/spans.py) against the
package: every name it wraps still exists, a traced run records the jet and
g2_check spans, `restore` puts every original back, and a traced growth job
reads surface jets rather than numerical brackets."""

import importlib.util
import time
from pathlib import Path

import pytest

import rolling_twistor.cli as cli
from rolling_twistor import surfaces, taylor

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

RUNS = (
    ["g2check", "--s1", "g2:eps=1", "--s2", "plane", "--grid", "6"],
    ["oracle", "--s1", "g2:eps=1", "--s2", "plane", "--points", "1"],
    ["growth", "--s1", "sphere:r=1", "--s2", "plane", "--grid", "1"],
)


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names(spans):
    """(owner, attribute) of every binding `instrument` replaces by name."""
    tj = taylor.TaylorJet
    names = [(tj, op) for op in spans.TAYLOR_OPS + spans.TAYLOR_CTORS]
    families = (surfaces.Surface, surfaces._RevolutionBase, surfaces.CustomRevolution)
    names += [(cls, "jet") for cls in families]
    mods = spans._package_modules()
    names += [(mods[m], f) for m, funcs in spans.MODULE_FUNCTIONS.items() for f in funcs]
    return names


def test_every_wrapped_name_exists(spans):
    for owner, attr in wrapped_names(spans):
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
    for ctor in spans.TAYLOR_CTORS:
        assert isinstance(vars(taylor.TaylorJet)[ctor], classmethod)


def test_traced_run_records_the_layers_and_restores(spans, tmp_path):
    before = {(id(o), a): vars(o)[a] for o, a in wrapped_names(spans)}
    rec = spans.Recorder()
    start = time.perf_counter()
    inst = spans.instrument(rec)
    try:
        for job, argv in enumerate(RUNS):
            rec.start_job(job)
            assert cli.main(argv + ["-o", str(tmp_path / "out.txt")]) == 0
            rec.end_job()
    finally:
        inst.restore()
    elapsed = time.perf_counter() - start
    after = {(id(o), a): vars(o)[a] for o, a in wrapped_names(spans)}
    assert after == before

    calls = dict(zip(rec.names, rec.calls.tolist()))
    assert calls["cli.main"] == len(RUNS)
    assert calls["cartan_invariants.g2_check"] == 1
    assert calls["surfaces.jet"] >= 2  # one for the whole g2check grid, one per oracle point
    assert calls["taylor.variable"] >= 2
    metrics = spans.layer_metrics(rec, elapsed)
    # one stacked quartic_killing_case call per grid, whatever its size
    assert metrics["cartan_invariants.points_per_g2_check"] == 1.0


def test_traced_growth_reads_jets_not_numerical_brackets(spans, tmp_path):
    rec = spans.Recorder()
    inst = spans.instrument(rec)
    try:
        rec.start_job(0)
        assert cli.main(RUNS[-1] + ["-o", str(tmp_path / "out.txt")]) == 0
        rec.end_job()
    finally:
        inst.restore()
    calls = dict(zip(rec.names, rec.calls.tolist()))
    assert calls["distribution5.growth_vector"] == 1
    assert calls.get("distribution5.lie_bracket", 0) == 0
    assert calls["surfaces.jet"] >= 1
