"""How far a change moves the oracle tables of the benchmark's jobs.

The oracle is a finite-difference route, so a change to its arithmetic may
move its Weyl quartic in the last bits but must leave the rest of a table
alone.  Dump the parsed tables of the `derivatives` oracle jobs before and
after the change, then compare the dumps:

    PYTHONPATH=src python tests/oracle_drift.py --seeds 1-40 > before.json
    ... (apply the change) ...
    PYTHONPATH=src python tests/oracle_drift.py --seeds 1-40 > after.json
    python tests/oracle_drift.py --compare before.json after.json

The jobs run as in `output_digests.py`.  A dump maps each oracle job id to
its exit code, stderr and table rows, each row the list of its cells as
printed.  `--compare` reports whether the exit codes and stderr are
identical, whether x..phi and A1..A5_closed are byte-identical, whether
prop_residual is zero on the same rows, max |dA_oracle| / noise_floor and
the largest relative change of noise_floor and of weyl_norm.  It exits 1
if any of the exact checks fails or |dA_oracle| exceeds MAX_A_DRIFT times
the noise floor of the row before the change.  pytest does not collect
this module; a smoke test imports it by name.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from output_digests import _seeds, run_jobs

WORKLOAD = "derivatives"
MAX_A_DRIFT = 1e-3  # of the noise floor

# columns of an oracle table: x,y,u,v,phi,weyl_norm,A1..A5_oracle,A1..A5_closed,
# prop_residual,noise_floor
POINT, WEYL_NORM, A_ORACLE, A_CLOSED = slice(0, 5), 5, slice(6, 11), slice(11, 16)
PROP_RESIDUAL, NOISE_FLOOR = 16, 17


def tables(seeds):
    """{job id: {"code", "stderr", "rows"}} of the oracle jobs of the seeds."""
    out = {}
    for job_id, (code, stdout, stderr) in run_jobs([WORKLOAD], seeds):
        if job_id.rsplit(":", 1)[1].startswith("oracle"):
            rows = [line.split(",") for line in stdout.splitlines() if not line.startswith("#")]
            out[job_id] = {"code": code, "stderr": stderr, "rows": rows}
    return out


def _relative(a, b):
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else float("inf")


def drift(before, after):
    """The report of `--compare`, as a dict."""
    same_jobs = before.keys() == after.keys()
    common = sorted(before.keys() & after.keys())
    same_runs = same_jobs and all(
        before[j]["code"] == after[j]["code"] and before[j]["stderr"] == after[j]["stderr"]
        and len(before[j]["rows"]) == len(after[j]["rows"]) for j in common)
    pairs = [(a, b) for j in common for a, b in zip(before[j]["rows"], after[j]["rows"])]
    a_drift = 0.0
    for a, b in pairs:
        d = max(abs(float(y) - float(x)) for x, y in zip(a[A_ORACLE], b[A_ORACLE]))
        noise = float(a[NOISE_FLOOR])
        a_drift = max(a_drift, d / noise if noise > 0.0 else (0.0 if d == 0.0 else float("inf")))
    return {
        "jobs": len(common),
        "rows": len(pairs),
        "codes_and_stderr_identical": same_runs,
        "points_and_closed_identical": all(
            a[POINT] == b[POINT] and a[A_CLOSED] == b[A_CLOSED] for a, b in pairs),
        "zero_residuals_on_the_same_rows": all(
            (float(a[PROP_RESIDUAL]) == 0.0) == (float(b[PROP_RESIDUAL]) == 0.0) for a, b in pairs),
        "max_a_oracle_drift_over_noise_floor": a_drift,
        "max_relative_noise_floor_change": max(
            (_relative(a[NOISE_FLOOR], b[NOISE_FLOOR]) for a, b in pairs), default=0.0),
        "max_relative_weyl_norm_change": max(
            (_relative(a[WEYL_NORM], b[WEYL_NORM]) for a, b in pairs), default=0.0),
    }


def passes(report):
    return (report["codes_and_stderr_identical"] and report["points_and_closed_identical"]
            and report["zero_residuals_on_the_same_rows"]
            and report["max_a_oracle_drift_over_noise_floor"] <= MAX_A_DRIFT)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1"), help="A or A-B")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE.json", "AFTER.json"))
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        report = drift(before, after)
        for key, value in report.items():
            print(f"{key}: {value}")
        return 0 if passes(report) else 1
    print(json.dumps(tables(args.seeds), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
