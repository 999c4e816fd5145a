"""Command-line front end.

Subcommands: quartic, g2check, roll, oracle, embed, growth.  Numbers are
printed with 17 significant digits, tables are comma-separated with '#'
header lines, and identical configurations produce byte-identical output.

Exit codes: 0 success / affirmative verdict, 1 negative verdict, 2 usage or
parse errors, 3 numeric-domain failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import cartan_invariants as ci
from . import conformal_oracle as oracle_mod
from . import distribution5 as dist
from . import embedding as emb
from . import rolling as roll_mod
from .errors import DomainError, RollingTwistorError, SpecParseError, StepSizeError
from .surfaces import parse_surface

JOBS_ENV = "ROLLING_TWISTOR_JOBS"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x):
    return f"{float(x):.17g}"


def _parse_range(spec, name):
    parts = spec.split(":")
    if len(parts) != 3:
        raise SpecParseError(f"--{name} expects lo:hi:count, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise SpecParseError(f"--{name} expects numeric lo:hi:count, got {spec!r}") from None
    if count < 1:
        raise SpecParseError(f"--{name} needs a positive count, got {count}")
    return lo, hi, count


def _resolve_jobs(args):
    if getattr(args, "jobs", None):
        return max(1, args.jobs)
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise SpecParseError(f"{JOBS_ENV} must be an integer, got {env!r}") from None
    return 1


def _map_ordered(fn, items, jobs):
    """Apply fn over items, preserving input order regardless of scheduling."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _emit(lines, output):
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid_for(surface, args):
    if getattr(args, "rho", None):
        lo, hi, count = _parse_range(args.rho, "rho")
        return surface.profile_grid(count, lo, hi)
    return surface.profile_grid(getattr(args, "grid", 10) or 10)


def _constant_curvature(s2):
    """Curvature lambda of a constant-curvature second surface."""
    if not s2.is_constant_curvature:
        raise SpecParseError(
            f"the second surface must have constant curvature, got {s2.spec_string()!r}"
        )
    return s2.frame_data(s2.chart_point(sum(s2.profile_range()) / 2.0)).kappa


def _quartic_rows(s1, lam, grid, tol, jobs):
    report_rows = _map_ordered(
        lambda p: ci.g2_check(s1, lam, [p], tol=tol).rows[0], grid, jobs
    )
    lines = [
        "# columns: coord1,coord2,kappa,A1,A2,A3,A4,A5,scaled_max,root_type",
        "# note: root_type is the final column and may itself contain commas, e.g. [2,2]",
    ]
    for row in report_rows:
        vals = [row.point[0], row.point[1], row.kappa, *row.quartic, row.scaled_max]
        lines.append(",".join(_fmt(v) for v in vals) + f",{row.root_tag}")
    worst = max(row.scaled_max for row in report_rows)
    return lines, worst, report_rows


def cmd_quartic(args):
    s1 = parse_surface(args.s1)
    s2 = parse_surface(args.s2)
    lam = _constant_curvature(s2)
    grid = _grid_for(s1, args)
    lines, _, _ = _quartic_rows(s1, lam, grid, args.tol, _resolve_jobs(args))
    header = [
        "# rolling-twistor quartic",
        f"# s1={s1.spec_string()} s2={s2.spec_string()} lambda={_fmt(lam)} points={len(grid)}",
    ]
    _emit(header + lines, args.output)
    return EXIT_OK


def cmd_g2check(args):
    s1 = parse_surface(args.s1)
    s2 = parse_surface(args.s2)
    lam = _constant_curvature(s2)
    grid = _grid_for(s1, args)
    lines, worst, _ = _quartic_rows(s1, lam, grid, args.tol, _resolve_jobs(args))
    report = ci.G2Report(rows=(), max_scaled=worst, is_g2=worst < args.tol, tol=args.tol)
    header = [
        "# rolling-twistor g2check",
        f"# s1={s1.spec_string()} s2={s2.spec_string()} lambda={_fmt(lam)} points={len(grid)}",
        f"# verdict: {report.verdict} (max scaled |A_i| = {_fmt(worst)}, tol = {_fmt(args.tol)})",
    ]
    _emit(header + lines, args.output)
    return EXIT_OK if report.is_g2 else EXIT_NEGATIVE


def cmd_growth(args):
    s1 = parse_surface(args.s1)
    s2 = parse_surface(args.s2)
    grid = _grid_for(s1, args)
    lo2, hi2 = s2.profile_range()
    p2 = s2.chart_point((lo2 + hi2) / 2.0)

    def one(p1):
        point = np.array([p1[0], p1[1], p2[0], p2[1], args.phi])
        res = dist.growth_vector(s1, s2, point)
        return point, res

    results = _map_ordered(one, grid, _resolve_jobs(args))
    lines = [
        "# rolling-twistor growth",
        f"# s1={s1.spec_string()} s2={s2.spec_string()} points={len(grid)}",
        "# columns: x,y,u,v,phi,n1,n2,n3,ill_conditioned",
    ]
    for point, res in results:
        coords = ",".join(_fmt(c) for c in point)
        n1, n2, n3 = res.ranks
        lines.append(f"{coords},{n1},{n2},{n3},{int(res.ill_conditioned)}")
    _emit(lines, args.output)
    return EXIT_OK


def cmd_roll(args):
    s1 = parse_surface(args.s1)
    s2 = parse_surface(args.s2)
    if args.control:
        ctrl = roll_mod.ControlCurve.from_file(args.control)
    else:
        ctrl = roll_mod.ControlCurve.constant(args.c1, args.c2, t_end=args.T)
    start = [float(t) for t in args.start.split(",")]
    if len(start) != 5:
        raise SpecParseError(f"--start expects x,y,u,v,phi, got {args.start!r}")
    traj = roll_mod.integrate(s1, s2, np.array(start), ctrl, args.dt, args.T)
    slip = roll_mod.no_slip_residual(traj, s1, s2)
    twist = roll_mod.no_twist_residual(traj, s1, s2)
    l1, l2 = roll_mod.contact_arclengths(traj, s1, s2)
    lines = [
        "# rolling-twistor roll",
        f"# s1={s1.spec_string()} s2={s2.spec_string()} dt={_fmt(args.dt)} T={_fmt(args.T)}",
        f"# no_slip_residual={_fmt(slip)} no_twist_residual={_fmt(twist)}"
        f" L1={_fmt(l1)} L2={_fmt(l2)}",
        "# t,x,y,u,v,phi,c1,c2",
    ]
    for t, p in zip(traj.times, traj.points):
        c = ctrl(t)
        row = [t, p[0], p[1], p[2], p[3], p[4], c[0], c[1]]
        lines.append(",".join(_fmt(v) for v in row))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_oracle(args):
    s1 = parse_surface(args.s1)
    s2 = parse_surface(args.s2)
    lam = _constant_curvature(s2)
    grid = _grid_for(s1, args)[: args.points]
    lo2, hi2 = s2.profile_range()
    p2 = s2.chart_point((lo2 + hi2) / 2.0)

    def one(p1):
        point = np.array([p1[0], p1[1], p2[0], p2[1], args.phi])
        ocl = oracle_mod.cartan_from_weyl(s1, s2, point, h=args.fd_step)
        closed = ci.quartic_killing_case(s1.jet(p1), lam)
        resid = oracle_mod.proportionality_residual(ocl.quartic, closed)
        return point, ocl, closed, resid

    results = _map_ordered(one, grid, _resolve_jobs(args))
    lines = [
        "# rolling-twistor oracle",
        f"# s1={s1.spec_string()} s2={s2.spec_string()} fd_step={_fmt(args.fd_step)}",
        "# columns: x,y,u,v,phi,weyl_norm,A1_oracle..A5_oracle,"
        "A1_closed..A5_closed,prop_residual,noise_floor",
    ]
    for point, ocl, closed, resid in results:
        vals = [
            *point,
            ocl.weyl_norm,
            *ocl.quartic,
            *closed,
            resid if np.isfinite(resid) else -1.0,
            float(np.max(ocl.noise)),
        ]
        lines.append(",".join(_fmt(v) for v in vals))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_embed(args):
    family = parse_surface(args.family)
    lo, hi = (float(t) for t in args.rho_range.split(":"))
    if args.output:
        emb.emit_mesh(family, (lo, hi), args.nr, args.nphi, args.output)
    else:
        emb.emit_mesh(family, (lo, hi), args.nr, args.nphi, sys.stdout)
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
        p.add_argument("--jobs", type=int, help=f"worker pool size (or ${JOBS_ENV})")
        p.add_argument("-o", "--output", help="output file (default: stdout)")

    p = sub.add_parser("quartic", help="quartic coefficients over a grid")
    common(p)
    p.add_argument("--tol", type=float, default=ci.VANISH_TOL, help="vanishing tolerance")
    p.set_defaults(func=cmd_quartic)

    p = sub.add_parser("g2check", help="maximal-symmetry verdict over a grid")
    common(p)
    p.add_argument("--tol", type=float, default=ci.VANISH_TOL, help="vanishing tolerance")
    p.set_defaults(func=cmd_g2check)

    p = sub.add_parser("growth", help="growth-vector sweep")
    common(p)
    p.add_argument("--phi", type=float, default=0.3, help="fiber angle of the sample points")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("roll", help="integrate an admissible rolling motion")
    common(p, grids=False)
    p.add_argument("--control", help="control file with rows t, c1, c2")
    p.add_argument("--c1", type=float, default=1.0, help="constant control c1")
    p.add_argument("--c2", type=float, default=0.0, help="constant control c2")
    p.add_argument("--start", default="1.0,0.0,0.0,0.0,0.0", help="start point x,y,u,v,phi")
    p.add_argument("--dt", type=float, default=1e-3, help="integration step")
    p.add_argument("--T", type=float, default=1.0, help="final time")
    p.set_defaults(func=cmd_roll)

    p = sub.add_parser("oracle", help="Weyl-tensor cross-check of the quartic")
    common(p)
    p.add_argument("--points", type=int, default=5, help="number of sample points")
    p.add_argument("--phi", type=float, default=0.3, help="fiber angle of the sample points")
    p.add_argument("--fd-step", dest="fd_step", type=float,
                   default=oracle_mod.DEFAULT_FD_STEP, help="finite-difference step")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("embed", help="emit an embedded revolution mesh")
    p.add_argument("--family", required=True, help="surface spec, e.g. g2:eps=1")
    p.add_argument("--rho-range", dest="rho_range", required=True, help="lo:hi")
    p.add_argument("--nr", type=int, default=32)
    p.add_argument("--nphi", type=int, default=32)
    p.add_argument("-o", "--output", help="mesh file (default: stdout)")
    p.set_defaults(func=cmd_embed)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, StepSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except RollingTwistorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
