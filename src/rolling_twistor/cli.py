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

from . import cartan_invariants as ci
from . import conformal_oracle as oracle_mod
from . import distribution5 as dist
from . import embedding as emb
from . import rolling as roll_mod
from .errors import DomainError, RollingTwistorError, SpecParseError
from .surfaces import parse_surface

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BROKEN_PIPE = 141


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
    """The -o file, or stdout when none is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(lines, output):
    with _output(output) as fh:
        fh.write("\n".join(lines) + "\n")


def _grid_for(surface, args):
    if args.rho:
        lo, hi, count = _parse_range(args.rho, "rho")
        return surface.profile_grid(count, lo, hi)
    if args.grid < 1:
        raise SpecParseError(f"--grid needs a positive count, got {args.grid}")
    return surface.profile_grid(args.grid)


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
        f"# s1={s1.spec_string()} s2={s2.spec_string()} lambda={_fmt(lam)} points={len(grid)}",
    ]
    if verdict:
        lines.append(f"# verdict: {report.verdict} (max scaled |A_i| = "
                     f"{_fmt(report.max_scaled)}, tol = {_fmt(args.tol)})")
    lines += [
        "# columns: coord1,coord2,kappa,A1,A2,A3,A4,A5,scaled_max,root_type",
        "# note: root_type is the final column and may itself contain commas, e.g. [2,2]",
    ]
    for row in report.rows:
        vals = [row.point[0], row.point[1], row.kappa, *row.quartic, row.scaled_max]
        lines.append(",".join(_fmt(v) for v in vals) + f",{row.root_tag}")
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
    grid = _grid_for(s1, args)
    p2 = _mid_point(s2)
    lines = [
        "# rolling-twistor growth",
        f"# s1={s1.spec_string()} s2={s2.spec_string()} points={len(grid)}",
        "# columns: x,y,u,v,phi,n1,n2,n3,ill_conditioned",
    ]
    for p1 in grid:
        point = np.array([p1[0], p1[1], p2[0], p2[1], args.phi])
        res = dist.growth_vector(s1, s2, point)
        coords = ",".join(_fmt(c) for c in point)
        n1, n2, n3 = res.ranks
        lines.append(f"{coords},{n1},{n2},{n3},{int(res.ill_conditioned)}")
    _emit(lines, args.output)
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


def _both_vanish(ocl, noise, closed, kappa, lam):
    """Whether both routes say the quartic vanishes at an oracle row: the
    closed form by g2check's rule, and the Weyl quartic within ten times its
    noise floor plus a rounding allowance of the Weyl tensor's size."""
    return (
        closed.max_abs < ci.VANISH_TOL * ci.vanishing_scale(kappa, lam)
        and ocl.quartic.max_abs <= 10.0 * noise + 1e-12 * max(ocl.weyl_norm, 1.0)
    )


def cmd_oracle(args):
    s1 = parse_surface(args.s1)
    s2 = parse_surface(args.s2)
    if args.points < 1:
        raise SpecParseError(f"--points needs a positive count, got {args.points}")
    lam = _constant_curvature(s2)
    grid = _grid_for(s1, args)[: args.points]
    p2 = _mid_point(s2)
    lines = [
        "# rolling-twistor oracle",
        f"# s1={s1.spec_string()} s2={s2.spec_string()} fd_step={_fmt(oracle_mod.FD_STEP)}",
        "# columns: x,y,u,v,phi,weyl_norm,A1_oracle..A5_oracle,"
        "A1_closed..A5_closed,prop_residual,noise_floor",
    ]
    for p1 in grid:
        point = np.array([p1[0], p1[1], p2[0], p2[1], args.phi])
        ocl = oracle_mod.cartan_from_weyl(s1, s2, point)
        jet = s1.jet(p1)
        closed = ci.quartic_killing_case(jet, lam)
        noise = float(np.max(ocl.noise))
        if _both_vanish(ocl, noise, closed, jet.kappa, lam):
            resid = 0.0  # the residual of two noises says nothing
        else:
            resid = oracle_mod.proportionality_residual(ocl.quartic, closed)
        vals = [
            *point,
            ocl.weyl_norm,
            *ocl.quartic,
            *closed,
            resid if np.isfinite(resid) else -1.0,
            noise,
        ]
        lines.append(",".join(_fmt(v) for v in vals))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_embed(args):
    family = parse_surface(args.family)
    try:
        lo, hi = (_finite(t) for t in args.rho_range.split(":"))
    except (ValueError, argparse.ArgumentTypeError):
        raise SpecParseError(f"--rho-range expects numeric lo:hi, got {args.rho_range!r}") from None
    emb.emit_mesh(family, (lo, hi), args.nr, args.nphi, args.output or sys.stdout)
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
