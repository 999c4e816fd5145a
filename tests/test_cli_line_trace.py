"""Smoke test of the line-trace tool (tests/cli_line_trace.py)."""

from cli_line_trace import main, unexecuted


def test_invariants_seed_one_lists_the_entry_point_and_not_g2_check(capsys):
    missed = unexecuted(["invariants"], [1])
    assert "cli.entrypoint" in missed  # the jobs call `cli.main` in-process
    g2_check = [text for _, text in missed.get("cartan_invariants.g2_check", [])]
    assert not [text for text in g2_check if "scaled_vanishing(" in text or "G2Report(" in text]
    assert main(["--workload", "invariants", "--seeds", "1"]) == 0
    assert "\ncli.entrypoint\n" in capsys.readouterr().out
