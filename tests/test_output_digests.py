"""Smoke tests of the output-digest tool (tests/output_digests.py) and of
the oracle drift tool (tests/oracle_drift.py) built on it."""

import json

import oracle_drift
import pytest
from output_digests import digests, load_workloads, main


def test_digests_repeat_and_cover_every_template(tmp_path, capsys):
    first = digests(["invariants"], [1])
    assert digests(["invariants"], [1]) == first
    round_one = load_workloads().generate("invariants", 1, 1)[0]
    assert sorted(job_id.rsplit(":", 1)[1] for job_id in first) == sorted(
        job.template for job in round_one)
    changed = min(first)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(first))
    b.write_text(json.dumps(dict(first, **{changed: "0" * 64})))
    assert main(["--compare", str(a), str(a)]) == 0
    assert main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == changed + "\n"


def test_oracle_drift_reports_the_changed_columns(tmp_path, capsys):
    # one seed's oracle tables against themselves, and against a copy whose
    # first oracle cell and one closed-form cell moved
    before = oracle_drift.tables([1])
    assert before and all(job_id.rsplit(":", 1)[1].startswith("oracle") for job_id in before)
    same = oracle_drift.drift(before, before)
    assert oracle_drift.passes(same) and same["max_a_oracle_drift_over_noise_floor"] == 0.0
    first = min(before)
    rows = [list(row) for row in before[first]["rows"]]
    noise = float(rows[0][oracle_drift.NOISE_FLOOR])
    rows[0][6] = repr(float(rows[0][6]) + 0.5 * noise)
    after = dict(before, **{first: dict(before[first], rows=rows)})
    moved = oracle_drift.drift(before, after)
    assert moved["max_a_oracle_drift_over_noise_floor"] == pytest.approx(0.5)
    assert moved["points_and_closed_identical"] and not oracle_drift.passes(moved)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(before))
    b.write_text(json.dumps(after))
    assert oracle_drift.main(["--compare", str(a), str(a)]) == 0
    assert oracle_drift.main(["--compare", str(a), str(b)]) == 1
    report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())  # the last
    assert float(report["max_a_oracle_drift_over_noise_floor"]) == pytest.approx(0.5)
