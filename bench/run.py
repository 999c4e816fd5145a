"""Benchmark runner for the rolling-twistor command line.

    python3 bench/run.py --workload {invariants,derivatives,kinematics}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  One
process, one client, closed loop: the seeded jobs (see workloads.py) run one
after another through ``rolling_twistor.cli.main(argv)`` in-process, with
``--jobs`` unset and ROLLING_TWISTOR_JOBS removed from the environment.
Jobs run in whole rounds until the summed job time reaches S seconds.
Every output is checked (checks.py) outside the timed interval.

The machine this was built on changes speed by +-25% over seconds (shared
host).  So every timed interval is bracketed by a fixed reference kernel
(small LAPACK and numpy calls, series products, float formatting: the
program's own mix), and each time is reported at reference speed:
raw seconds * REF_S / (mean of the reference times just before and after).
Raw wall times are kept in the result file.

--trace 0 reports the end-to-end metrics, with tracing off.  --trace 1
instruments every layer (spans.py), runs the rounds traced, then replays the
first half of them untraced to measure the tracing overhead, and reports
the per-layer metrics.  The last stdout line is the JSON result; the line
before it is the run's provenance.  Result and span files go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
JOBS_ENV = "ROLLING_TWISTOR_JOBS"
SETUP_STARTS = 5  # cold interpreter starts per run; the median is reported
REF_S = 2.5e-3  # reference-kernel time that defines "reference speed"
MAX_JOBS = 3000  # generated per run; a run ends early if it gets through them all

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_CODE = """\
import sys, time
def ref():  # pure Python: numpy must stay unimported until the timed import
    t = time.perf_counter()
    acc = 0.0
    for k in range(40000):
        acc += k * 0.5
    return time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
r0 = ref()
t = time.perf_counter()
import rolling_twistor.cli as cli
cli.build_parser()
dt = time.perf_counter() - t
print(repr(dt), repr(r0), repr(ref()))
"""
SETUP_REF_S = 3.0e-3  # SETUP_CODE's ref() time that defines reference speed


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


_QUARTIC = np.array([1.0, -2.0, 3.5, 0.7, 1.3])
_SERIES = (np.array([1.0, 0.5, 0.25, 0.125, 0.0625]), np.array([2.0, 1.0, 0.5, 0.1, 0.01]))


def reference_seconds():
    """Wall time of a fixed kernel in the program's own mix: small LAPACK
    calls (np.roots), truncated-series products on 5-element arrays, and
    17-digit float formatting and parsing.  It tracks the machine's
    momentary speed; it shares no code with the package."""
    t0 = time.perf_counter()
    for _ in range(30):
        np.roots(_QUARTIC)
    a, b = _SERIES
    for _ in range(40):
        c = np.zeros(5)
        for k in range(5):
            c[k] = np.dot(a[: k + 1], b[k::-1])
        ",".join(f"{float(v):.17g}" for v in c)
    sum(float(f"{k * 0.123456789:.17g}") for k in range(300))
    return time.perf_counter() - t0


def at_reference_speed(seconds, ref_before, ref_after, ref_s=REF_S):
    return seconds * ref_s / (0.5 * (ref_before + ref_after))


def setup_seconds(starts):
    """Cold import of rolling_twistor.cli plus parser build, each in a fresh
    interpreter, scaled by a reference loop timed in the same interpreter
    just before and after; one untimed start first fills the bytecode cache.
    Returns the median at reference speed and the raw times."""
    env = {k: v for k, v in os.environ.items() if k != JOBS_ENV}
    raw, scaled = [], []
    for i in range(starts + 1):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=False)
        if res.returncode != 0:
            fail(f"cold import failed:\n{res.stderr}")
        if i:
            seconds, ref0, ref1 = (float(v) for v in res.stdout.split())
            raw.append(seconds)
            scaled.append(at_reference_speed(seconds, ref0, ref1, SETUP_REF_S))
    return statistics.median(scaled), raw


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args):
    import scipy

    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False)
        sha = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rolling_twistor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
    }


def run_job(cli, job):
    """(exit code, stdout text, seconds, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(job.argv)
        except Exception as exc:  # a crash is a failed job, not a crashed benchmark
            rc, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    if error is None and err.getvalue():
        error = err.getvalue().strip()
    return rc, out.getvalue(), t1 - t0, error


class Tally:
    """Times, output sizes and failures of the measured jobs."""

    def __init__(self):
        self.raw, self.times, self.templates = [], [], []  # times: at reference speed
        self.rows = self.bytes = 0
        self.failures = []
        self.attempted = 0

    def add(self, job, rc, text, seconds, error, scaled):
        self.attempted += 1
        self.raw.append(seconds)
        self.times.append(scaled)
        self.templates.append(job.template)
        self.rows += sum(1 for ln in text.splitlines() if ln and not ln.startswith("#"))
        self.bytes += len(text.encode())
        try:
            if error is not None and rc not in (0, 1):
                raise checks.CheckError(error)
            checks.check(job, rc, text)
        except Exception as exc:  # output the checks cannot even parse fails the job too
            self.failures.append({"template": job.template, "argv": job.argv,
                                  "error": f"{type(exc).__name__}: {exc}"})


def run_rounds(cli, rounds, seconds, tally, rec=None):
    """Whole rounds until the summed job time reaches `seconds`; returns the
    number of rounds run.  With a span recorder, each job's spans are folded
    after the job."""
    done = 0
    ref = reference_seconds()
    for jobs in rounds:
        if sum(tally.raw) >= seconds:
            break
        for job in jobs:
            if rec is not None:
                rec.start_job(tally.attempted)
            rc, text, elapsed, error = run_job(cli, job)
            ref_after = reference_seconds()
            tally.add(job, rc, text, elapsed, error, at_reference_speed(elapsed, ref, ref_after))
            if rec is not None:
                rec.end_job()
            ref = ref_after
        done += 1
    return done


def materialize(rounds, workdir):
    """Write each job's input files under `workdir` and point argv at them."""
    n = 0
    for jobs in rounds:
        for job in jobs:
            for name, text in job.files.items():
                path = workdir / f"{n}-{name}"
                path.write_text(text, encoding="utf-8")
                job.argv = [str(path) if a == name else a for a in job.argv]
                n += 1


def percentile(values, q):
    return float(np.percentile(values, q))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rolling_twistor" / "cli.py").is_file():
        fail(f"no package source at {SRC / 'rolling_twistor'}; run from a full checkout")
    os.environ.pop(JOBS_ENV, None)
    sys.path.insert(0, str(SRC))

    setup = setup_seconds(SETUP_STARTS) if args.trace == 0 else None

    import rolling_twistor.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "rolling_twistor":
        fail(f"imported {cli.__file__}, not the checkout's package")
    prov = provenance(args)

    per_round = len(workloads.ROUNDS[args.workload])
    rounds = workloads.generate(args.workload, args.seed, 1 + MAX_JOBS // per_round)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        materialize(rounds, Path(tmp))
        warm, rounds = rounds[0], rounds[1:]
        run_rounds(cli, [warm], float("inf"), Tally())  # lazy imports, first-call caches
        # the generated jobs are the benchmark's, not the program's: keep them
        # out of the collector's full passes, as in a fresh CLI process
        gc.collect()
        gc.freeze()

        tally = Tally()
        if args.trace == 0:
            run_rounds(cli, rounds, args.seconds, tally)
            tallies = [tally]
            metrics = {
                "setup_s": (setup[0], "s"),
                "job_s.p50": (percentile(tally.times, 50), "s"),
                "job_s.p90": (percentile(tally.times, 90), "s"),
                "rows_per_s": (tally.rows / sum(tally.times), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
            extra = {"setup_raw_s": setup[1], "job_raw_s.p50": percentile(tally.raw, 50),
                     "job_raw_s.p90": percentile(tally.raw, 90)}
        else:
            rec = spans.Recorder()
            inst = spans.instrument(rec)
            try:
                done = run_rounds(cli, rounds, args.seconds, tally, rec)
            finally:
                inst.restore()
            # replay the first half of the traced rounds untraced: same jobs, so
            # the p50 ratio is the tracing overhead
            plain = Tally()
            run_rounds(cli, rounds[: max(1, done // 2)], float("inf"), plain)
            tallies = [tally, plain]
            layer = spans.layer_metrics(rec, sum(tally.raw))
            layer["cli.rows"] = tally.rows / tally.attempted
            layer["cli.bytes"] = tally.bytes / tally.attempted
            layer["trace.overhead_frac"] = (percentile(tally.times[: plain.attempted], 50)
                                            / percentile(plain.times, 50) - 1.0)
            layer["trace.job_s.p50"] = percentile(tally.times, 50)
            metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
            rec.save(OUT / f"spans-{args.workload}.npz")
            extra = {"untraced_replay_jobs": plain.attempted}

    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"provenance": prov, "job_seconds": sum(tally.raw),
              "fail_frac": len(failures) / attempted, "failures": failures[:20],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              **extra, **result,
              "jobs": [[t, raw, scaled] for t, raw, scaled in
                       zip(tally.templates, tally.raw, tally.times)]}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for f in failures[:5]:
        print(f"bench: FAILED {f['template']}: {f['error']}", file=sys.stderr)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


def unit_of(name):
    if name.endswith(("_s", ".p50")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if "_per_" in name or name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
