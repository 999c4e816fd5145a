"""Digests of the command-line output of the benchmark's jobs.

A change that must leave the CLI's output alone is checked by digesting
every job of some workloads and seeds before and after it:

    PYTHONPATH=src python tests/output_digests.py --workload invariants \
        --workload derivatives --seeds 1-10 > before.json
    ... (apply the change) ...
    PYTHONPATH=src python tests/output_digests.py ... > after.json
    python tests/output_digests.py --compare before.json after.json

The jobs come from `bench/workloads.py`, which is imported and not changed.
Each job's input files are written to a temporary directory, which is the
working directory while the job runs through `rolling_twistor.cli.main`
in-process, so its command line and output hold no temporary path.  The
map sends a job id `workload:seed:round:index:template` to the sha256 of
its (exit code, stdout, stderr).  `--compare` lists the jobs whose digests
differ, or that only one map holds, and exits 1 if there are any.  pytest
does not collect this module; a smoke test imports it by name.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@functools.cache
def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_FILE)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(module)
    return module


def run_job(argv):
    """(exit code, stdout, stderr) of one in-process CLI call.  Warnings print
    as in a fresh process: each one once, whatever the caller's filters."""
    from rolling_twistor import cli  # here, so that --compare runs without the package

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an output too
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digest(code, stdout, stderr):
    return hashlib.sha256(json.dumps([code, stdout, stderr]).encode()).hexdigest()


def run_jobs(workloads, seeds, rounds=1):
    """(job id, (exit code, stdout, stderr)) of every job of the workloads
    and seeds, in order, each run by `run_job` in a temporary directory."""
    wl = load_workloads()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for workload in workloads:
                for seed in seeds:
                    for r, jobs in enumerate(wl.generate(workload, seed, rounds)):
                        for i, job in enumerate(jobs):
                            for name, text in job.files.items():
                                Path(name).write_text(text, encoding="utf-8")
                            yield f"{workload}:{seed}:{r}:{i}:{job.template}", run_job(job.argv)
        finally:
            os.chdir(cwd)


def digests(workloads, seeds, rounds=1):
    """{job id: digest} of every job of the workloads and seeds."""
    return {job_id: digest(*result) for job_id, result in run_jobs(workloads, seeds, rounds)}


def compare(a, b):
    """Sorted ids of the jobs whose digests differ or that one map lacks."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=load_workloads().WORKLOADS)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1"), help="A or A-B")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        differ = compare(a, b)
        for job_id in differ:
            print(job_id)
        print(f"{len(differ)} of {len(a.keys() | b.keys())} jobs differ", file=sys.stderr)
        return 1 if differ else 0
    if not args.workload:
        parser.error("give --workload or --compare")
    print(json.dumps(digests(args.workload, args.seeds, args.rounds), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
