"""Every command over extreme but parseable inputs ends the documented way.

The specs sit at the edges of the float range (scales and radii of 1e±50
to 1e±300, alpha = 1e30, the eps families) and are paired every way a
command accepts them; the profile ranges run to 1e-300 and 1e151.  Each run
is in-process and must exit 0, 1 or 3, raise nothing, leave stderr empty or
one `error:` line (a warning counts as a line, as a fresh process prints
it) and print no nan or inf.
"""

import contextlib
import io
import re
import warnings

import pytest

from rolling_twistor.cli import main
from rolling_twistor.errors import SpecParseError
from rolling_twistor.surfaces import parse_surface

EXTREME = ["plane:scale=1e200", "plane:scale=1e-200", "plane:scale=1e-300",
           "sphere:r=1e50", "sphere:r=1e-50", "hyperbolic:r=1e50", "hyperbolic:r=1e-50",
           "profile:alpha=1e30,beta=1", "g2:eps=1", "g2:eps=-1", "sphere:r=1", "plane"]
RANGES = ["1e-300:1e-299:2", "1e150:1e151:2", "100:700:3"]
EMBED_FAMILIES = ["g2:eps=1", "g2:eps=0", "g2:eps=-1", "profile:alpha=1e30,beta=1",
                  "profile:alpha=1,beta=-5"]
EMBED_RANGES = ["0:1e-300", "1e-300:1e-299", "1.5:1e150", "1e150:1e151", "100:700", "0:1e300"]
NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _parseable(specs):
    surfaces = {}
    for spec in specs:
        try:
            surfaces[spec] = parse_surface(spec)
        except SpecParseError:
            pass
    return surfaces


SPECS = _parseable(EXTREME)
CONSTANT = [spec for spec, surface in SPECS.items() if surface.is_constant_curvature]


def run(argv):
    """(exit code, stdout, stderr lines) of one in-process CLI call; each
    warning is one more stderr line, and an exception escaping `main` is
    its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - a traceback is what this test looks for
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue().splitlines() + [str(w.message) for w in caught]


def faults(argvs):
    """The runs that end another way, each with what it printed."""
    found = []
    for argv in argvs:
        code, stdout, stderr = run(argv)
        if (code not in (0, 1, 3) or len(stderr) > 1
                or any(not line.startswith("error: ") for line in stderr)
                or NON_FINITE.search(stdout)):
            found.append((" ".join(argv), code, stderr[:3]))
    return found


def _grids(argv):
    """argv over the default grid and over each extreme profile range."""
    yield argv + ["--grid", "3"]
    for rho in RANGES:
        yield argv + [f"--rho={rho}"]


def _argvs(command):
    if command == "embed":
        for family in EMBED_FAMILIES:
            for rho in EMBED_RANGES:
                yield ["embed", "--family", family, f"--rho-range={rho}", "--nr", "3",
                       "--nphi", "2"]
        return
    second = CONSTANT if command in ("g2check", "oracle") else list(SPECS)
    for s1 in SPECS:
        for s2 in second:
            argv = [command, "--s1", s1, "--s2", s2]
            if command == "roll":
                yield argv + ["--dt", "0.25", "--T", "0.5"]
            else:
                yield from _grids(argv + (["--points", "2"] if command == "oracle" else []))


def test_the_extreme_specs_parse():
    assert len(SPECS) >= 10 and len(CONSTANT) >= 7


@pytest.mark.parametrize("command", ["g2check", "growth", "oracle", "roll", "embed"])
def test_extreme_inputs_end_the_documented_way(command):
    assert faults(_argvs(command)) == []
