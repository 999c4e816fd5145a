"""The package's source lines that no benchmark job executes.

Runs every job of the given workloads and seeds in-process, through the job
runner of `output_digests.py`, under a `sys.settrace` line tracer, and
prints, grouped by function, the lines of the package's functions that no
job executed:

    PYTHONPATH=src python tests/cli_line_trace.py --workload invariants \\
        --workload kinematics --seeds 1-4

A function's lines are the line numbers of its bytecode (its `def` line
counts as executed when it is called); module and class bodies run at
import and are left out.  A function no job called is listed with all its
lines.  pytest does not collect this module; a smoke test imports it by
name.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import os
import sys
import types
from pathlib import Path

from output_digests import _seeds, load_workloads, run_jobs

# the package the jobs import, found without importing it, so that a first
# import runs under the tracer and functions called at import count
PACKAGE = Path(importlib.util.find_spec("rolling_twistor").origin).resolve().parent


def _functions(code):
    """The function code objects in `code`, nested ones included."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                yield const
            yield from _functions(const)


def executable_lines(path):
    """{qualified name: set of line numbers} of the functions in the file."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    out = {}
    for fn in _functions(code):
        lines = {line for _, _, line in fn.co_lines() if line is not None}
        out.setdefault(fn.co_qualname, set()).update(lines)
    return out


def executed_lines(workloads, seeds, rounds=1):
    """{file name: set of line numbers} that the jobs executed in the
    package's files."""
    seen = {}
    tracers = {}  # co_filename -> the line tracer of a package file, or None

    def tracer_for(name):
        lines = seen.setdefault(name, set())

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            path = Path(os.path.realpath(filename))
            tracers[filename] = tracer_for(path.name) if path.parent == PACKAGE else None
        local = tracers[filename]
        if local is not None:
            local(frame, event, arg)  # the call event's line is the def line
        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for _ in run_jobs(workloads, seeds, rounds):
            pass
    finally:
        sys.settrace(previous)
    return seen


def unexecuted(workloads, seeds, rounds=1):
    """{"module.function": [(line number, source text), ...]} of the lines
    no job executed, for every function with any such line."""
    seen = executed_lines(workloads, seeds, rounds)
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        done = seen.get(path.name, set())
        for qualname, lines in executable_lines(path).items():
            missed = sorted(lines - done)
            if missed:
                out[f"{path.stem}.{qualname}"] = [(n, text[n - 1].strip()) for n in missed]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=load_workloads().WORKLOADS)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1"), help="A or A-B")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    for function, lines in unexecuted(args.workload, args.seeds, args.rounds).items():
        print(function)
        for number, source in lines:
            print(f"  {number:4d}  {source}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
