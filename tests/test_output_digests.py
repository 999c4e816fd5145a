"""Smoke test of the output-digest tool (tests/output_digests.py)."""

import json

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
