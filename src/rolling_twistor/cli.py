"""Command-line front end.

Subcommands: quartic, g2check, roll, oracle, embed, growth.  Numbers are
printed with 17 significant digits, tables are comma-separated with '#'
header lines, and identical configurations produce byte-identical output.

Exit codes: 0 success / affirmative verdict, 1 negative verdict, 2 usage or
parse errors, 3 numeric-domain failures.  A reader that closes standard
output early (``| head``) ends the run quietly, with nothing on stderr and
exit code 141, the shell's code for a writer stopped by SIGPIPE.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from . import cartan_invariants as ci
from . import conformal_oracle as oracle_mod
from . import distribution5 as dist
from . import embedding as emb
from . import rolling as roll_mod
from .errors import DomainError, RollingTwistorError, SpecParseError, first_failing_row
from .surfaces import parse_surface

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BROKEN_PIPE = 141

# points of one --grid or --rho grid; a g2check at the cap peaks at about 0.73 GB
# (g2:eps=1 on sphere:r=1, every quartic distinct)
MAX_GRID_POINTS = 5 * 10**5


def _fmt(x):
    return f"{float(x):.17g}"


def _finite(text):
    """`text` as a finite float: the argparse type of the float options that
    must be finite, and the parser of each number of a range or point spec."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expects a finite number, got {text!r}")
    return x


def _parse_range(spec, name):
    parts = spec.split(":")
    if len(parts) != 3:
        raise SpecParseError(f"--{name} expects lo:hi:count, got {spec!r}")
    try:
        lo, hi = _finite(parts[0]), _finite(parts[1])
        count = int(parts[2])
    except (ValueError, argparse.ArgumentTypeError):
        raise SpecParseError(f"--{name} expects numeric lo:hi:count, got {spec!r}") from None
    if count < 1:
        raise SpecParseError(f"--{name} needs a positive count, got {count}")
    return lo, hi, count


@contextlib.contextmanager
def _output(path):
    """The -o file, or stdout when none is given: the one place a command
    opens its output, after it has computed what it writes.  A path that
    cannot be opened for writing is a usage error naming it."""
    if path:
        try:
            fh = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise SpecParseError(f"cannot write the output file {path!r}: {exc.strerror}") from None
        with fh:
            yield fh
    else:
        yield sys.stdout


def _emit(lines, output):
    with _output(output) as fh:
        fh.write("\n".join(lines) + "\n")


def _rows(table, *text):
    """The rows of the 2-D float64 array `table` as comma-separated lines, its
    numbers in %.17g, each followed by its entries of the `text` columns.

    A column that is the same on every row is formatted once, into the row
    template, and only the other columns go through `%`.  A number column is
    the same when its bits are, so 0.0 and -0.0, or two NaNs, are never
    merged; a text column when its strings are equal.  The lines are those
    of formatting every cell, since the same bits give the same text."""
    bits = table.view(np.int64)
    same = (bits == bits[0]).all(axis=0).tolist()
    columns = [*((col, s, "%.17g") for col, s in zip(table.T.tolist(), same)),
               *((col, len(set(col)) == 1, "%s") for col in text)]
    cells, varying = [], []
    for col, constant, fmt in columns:
        if constant:
            cells.append((fmt % col[0]).replace("%", "%%"))
        else:
            cells.append(fmt)
            varying.append(col)
    row_text = ",".join(cells)
    if not varying:
        return [row_text % ()] * len(table)
    return [row_text % row for row in zip(*varying)]


def _grid_for(surface, args):
    """The chart stack (t, psi) of --rho, or else of --grid."""
    lo, hi, count = _parse_range(args.rho, "rho") if args.rho else (None, None, args.grid)
    if count < 1:  # not a --rho count: `_parse_range` checks those
        raise SpecParseError(f"--grid needs a positive count, got {count}")
    if count > MAX_GRID_POINTS:
        raise DomainError(f"a grid of {count} points is more than {MAX_GRID_POINTS}")
    return surface.profile_grid(count, lo, hi)


def _configurations(grid, s2, phi):
    """The (m, 5) points (x, y, u, v, phi) at the chart stack grid, s2's mid point and phi."""
    return np.column_stack([*grid, np.tile([*_mid_point(s2), phi], (len(grid[0]), 1))])


def _mid_point(surface):
    """Chart point at the middle of the surface's default profile range."""
    lo, hi = surface.profile_range()
    return surface.chart_point((lo + hi) / 2.0)


def _constant_curvature(s2):
    """Curvature lambda of a constant-curvature second surface."""
    if not s2.is_constant_curvature:
        raise SpecParseError(
            f"the second surface must have constant curvature, got {s2.spec_string()!r}"
        )
    return s2.frame_data(_mid_point(s2)).kappa


def _quartic_table(args, verdict):
    """Write the quartic table of `quartic`/`g2check` (with the verdict line
    when `verdict`) and return the G2 report of the whole grid."""
    if not 0.0 < args.tol < math.inf:
        raise SpecParseError(f"--tol must be a finite positive number, got {args.tol!r}")
    s1 = parse_surface(args.s1)
    s2 = parse_surface(args.s2)
    lam = _constant_curvature(s2)
    grid = _grid_for(s1, args)
    report = ci.g2_check(s1, lam, grid, tol=args.tol)
    lines = [
        f"# rolling-twistor {args.command}",
        f"# s1={s1.spec_string()} s2={s2.spec_string()} lambda={_fmt(lam)} points={len(grid[0])}",
    ]
    if verdict:
        lines.append(f"# verdict: {report.verdict} (max scaled |A_i| = "
                     f"{_fmt(report.max_scaled)}, tol = {_fmt(args.tol)})")
    lines += [
        "# columns: coord1,coord2,kappa,A1,A2,A3,A4,A5,scaled_max,root_type",
        "# note: root_type is the final column and may itself contain commas, e.g. [2,2]",
    ]
    table = np.column_stack([*report.points, report.kappa, report.quartics, report.scaled])
    lines += _rows(table, report.tags)
    _emit(lines, args.output)
    return report


def cmd_quartic(args):
    _quartic_table(args, verdict=False)
    return EXIT_OK


def cmd_g2check(args):
    report = _quartic_table(args, verdict=True)
    return EXIT_OK if report.is_g2 else EXIT_NEGATIVE


def cmd_growth(args):
    s1 = parse_surface(args.s1)
    s2 = parse_surface(args.s2)
    points = _configurations(_grid_for(s1, args), s2, args.phi)
    lines = [
        "# rolling-twistor growth",
        f"# s1={s1.spec_string()} s2={s2.spec_string()} points={len(points)}",
        "# columns: x,y,u,v,phi,n1,n2,n3,ill_conditioned",
    ]
    results = [dist.growth_vector(s1, s2, p) for p in points]
    table = np.column_stack([points, [(*res.ranks, res.ill_conditioned) for res in results]])
    _emit(lines + _rows(table), args.output)
    return EXIT_OK


def cmd_roll(args):
    s1 = parse_surface(args.s1)
    s2 = parse_surface(args.s2)
    if not 0.0 < args.T < np.inf:
        raise SpecParseError(f"--T must be a finite positive number, got {args.T!r}")
    if args.control:
        ctrl = roll_mod.ControlCurve.from_file(args.control)
        t0, t1 = float(ctrl.times[0]), float(ctrl.times[-1])
        slack = 1e-12 * args.T  # a last time written as T * k / k may round 1 ulp low
        if t0 > slack or t1 < args.T - slack:
            raise SpecParseError(
                f"control file {args.control}: times span [{t0!r}, {t1!r}],"
                f" which does not cover [0, --T {args.T!r}]"
            )
    else:
        ctrl = roll_mod.ControlCurve.constant(args.c1, args.c2, t_end=args.T)
    try:
        start = [_finite(t) for t in args.start.split(",")]
    except argparse.ArgumentTypeError:
        start = []
    if len(start) != 5:
        raise SpecParseError(f"--start expects numeric x,y,u,v,phi, got {args.start!r}")
    try:
        traj = roll_mod.integrate(s1, s2, np.array(start), ctrl, args.dt, args.T)
    except DomainError as exc:  # integrate attaches the samples accepted before the error
        t = float(exc.last_valid.times[-1])
        raise DomainError(f"{exc} (integration stopped at t = {t!r})") from exc
    d = roll_mod.diagnostics(traj, s1, s2)
    header = [
        "# rolling-twistor roll",
        f"# s1={s1.spec_string()} s2={s2.spec_string()} dt={_fmt(traj.dt)} T={_fmt(args.T)}",
        f"# no_slip_residual={_fmt(d.no_slip)} no_twist_residual={_fmt(d.no_twist)}"
        f" L1={_fmt(d.L1)} L2={_fmt(d.L2)}",
    ]
    with _output(args.output) as fh:
        fh.write("\n".join(header) + "\n")
        roll_mod.export_trajectory(traj, fh)
    return EXIT_OK


def _both_vanish(weyl_quartic, noise, weyl_norm, closed, kappa, lam):
    """Whether both routes say the quartic vanishes at each oracle row: the
    closed form by g2check's rule, and the Weyl quartic within ten times its
    noise floor plus a rounding allowance of the Weyl tensor's size."""
    closed_vanishes = ci.scaled_vanishing(closed.T, kappa, lam)[1]
    with np.errstate(all="ignore"):
        return closed_vanishes & (np.max(np.abs(weyl_quartic), axis=1)
                                  <= 10.0 * noise + 1e-12 * np.maximum(weyl_norm, 1.0))


def cmd_oracle(args):
    s1 = parse_surface(args.s1)
    s2 = parse_surface(args.s2)
    if args.points < 1:
        raise SpecParseError(f"--points needs a positive count, got {args.points}")
    lam = _constant_curvature(s2)
    points = _configurations(_grid_for(s1, args), s2, args.phi)[: args.points]

    def both_routes(a):  # a point's closed form may fail before a later point's oracle does
        ocl = oracle_mod.cartan_from_weyl(s1, s2, a)
        jets = s1.jet((a[:, 0], a[:, 1]))
        return ocl, jets, np.array(ci.quartic_killing_case(jets, lam)).T

    ocl, jets, closed = first_failing_row(both_routes, points)
    weyl_quartic = np.array(ocl.quartic).T  # one row per point, as `closed`
    noise = np.max(ocl.noise, axis=1)
    # where both routes vanish, the residual of two noises says nothing
    resid = np.where(_both_vanish(weyl_quartic, noise, ocl.weyl_norm, closed, jets.kappa, lam),
                     0.0, oracle_mod.proportionality_residual(weyl_quartic, closed))
    table = np.column_stack([points, ocl.weyl_norm, weyl_quartic, closed,
                             np.where(np.isfinite(resid), resid, -1.0), noise])
    lines = [
        "# rolling-twistor oracle",
        f"# s1={s1.spec_string()} s2={s2.spec_string()} fd_step={_fmt(oracle_mod.FD_STEP)}",
        "# columns: x,y,u,v,phi,weyl_norm,A1_oracle..A5_oracle,"
        "A1_closed..A5_closed,prop_residual,noise_floor",
    ]
    _emit(lines + _rows(table), args.output)
    return EXIT_OK


def cmd_embed(args):
    family = parse_surface(args.family)
    try:
        lo, hi = (_finite(t) for t in args.rho_range.split(":"))
    except (ValueError, argparse.ArgumentTypeError):
        raise SpecParseError(f"--rho-range expects numeric lo:hi, got {args.rho_range!r}") from None
    mesh = emb.build_mesh(family, (lo, hi), args.nr, args.nphi)  # fails before -o is opened
    with _output(args.output) as fh:
        emb.emit_mesh(mesh, fh)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rolling-twistor",
        description=(
            "Twistor distribution of two rolling surfaces: quartic invariants, "
            "maximal-symmetry detection, Weyl-tensor cross-checks, rolling "
            "kinematics and isometric embeddings."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grids=True):
        p.add_argument("--s1", required=True, help="first surface spec, e.g. sphere:r=1")
        p.add_argument("--s2", required=True, help="second surface spec, e.g. plane")
        if grids:
            p.add_argument("--grid", type=int, default=10, help="points across the default range")
            p.add_argument("--rho", help="profile grid lo:hi:count (overrides --grid)")
        p.add_argument("-o", "--output", help="output file (default: stdout)")

    for name, summary, func in (("quartic", "quartic coefficients over a grid", cmd_quartic),
                                ("g2check", "maximal-symmetry verdict over a grid", cmd_g2check)):
        p = sub.add_parser(name, help=summary)
        common(p)
        p.add_argument("--tol", type=float, default=ci.VANISH_TOL, help="vanishing tolerance")
        p.set_defaults(func=func)

    p = sub.add_parser("growth", help="growth-vector sweep")
    common(p)
    p.add_argument("--phi", type=_finite, default=0.3, help="fiber angle of the sample points")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("roll", help="integrate an admissible rolling motion")
    common(p, grids=False)
    p.add_argument("--control", help="control file with rows t, c1, c2")
    p.add_argument("--c1", type=_finite, default=1.0, help="constant control c1")
    p.add_argument("--c2", type=_finite, default=0.0, help="constant control c2")
    p.add_argument("--start", default="1.0,0.0,0.0,0.0,0.0", help="start point x,y,u,v,phi")
    p.add_argument("--dt", type=float, default=1e-3, help="integration step")
    p.add_argument("--T", type=float, default=1.0, help="final time")
    p.set_defaults(func=cmd_roll)

    p = sub.add_parser("oracle", help="Weyl-tensor cross-check of the quartic")
    common(p)
    p.add_argument("--points", type=int, default=5, help="number of sample points")
    p.add_argument("--phi", type=_finite, default=0.3, help="fiber angle of the sample points")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("embed", help="emit an embedded revolution mesh")
    p.add_argument("--family", required=True, help="surface spec, e.g. g2:eps=1")
    p.add_argument("--rho-range", dest="rho_range", required=True, help="lo:hi")
    p.add_argument("--nr", type=int, default=32)
    p.add_argument("--nphi", type=int, default=32)
    p.add_argument("-o", "--output", help="mesh file (default: stdout)")
    p.set_defaults(func=cmd_embed)

    return parser


@functools.cache
def _parser():
    """The parser of `main`, built on its first call, not at import: argparse
    keeps no state between `parse_args` calls, and the build costs more than
    a parse."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RollingTwistorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OverflowError as exc:
        print(f"error: numeric overflow ({exc})", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone; point stdout at devnull so the flush at
        # interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
