"""Seeded job generator for the benchmark workloads.

A workload is a fixed cycle of job templates ("a round"); every template
draws its surfaces, grid ranges, start points and controls from the seed,
while its size (grid points, integration steps, mesh dimensions) is fixed.
The cost of a round therefore barely depends on the seed, so percentiles
taken over whole rounds compare across seeds and commits, and the inputs
still vary from seed to seed.

Every number placed on a command line is written with ``repr``, so the CLI
parses back exactly the float the generator used to compute the expected
values the checks compare against.  Expected values never come from the
CLI's own headers (its spec strings keep only six digits).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

# Why each workload exists:
#
# invariants  -- the closed-form path: surface jets (TaylorJet arithmetic on
#     revolution families), the quartic formulas, root classification and
#     17-digit table formatting, with no finite differences anywhere.  A jet
#     split or FD rework should leave it unchanged; a batched or
#     array-valued grid should speed it up.
# derivatives -- finite-difference brackets (growth) and metric derivatives
#     (oracle) dominate.  Exact Taylor-mode derivatives and cheap frame data
#     show here.
# kinematics  -- RK4 integration, sampled-data FD diagnostics and large text
#     emission (meshes).  Cached stencils and a single frame-velocity pass
#     show here only.

WORKLOADS = ("invariants", "derivatives", "kinematics")

EPS_DOMAINS = {  # profile ranges kept inside each eps-family chart
    -1: ((1.15, 1.5), (2.5, 3.2)),
    0: ((0.4, 0.8), (2.0, 3.0)),
    1: ((0.1, 0.5), (1.5, 2.5)),
}


@dataclass
class Job:
    """One CLI invocation and what its output must satisfy."""

    template: str
    argv: list
    expect: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)  # relative name -> text, written before timing


def r(x):
    """Float literal for a command line: shortest round-trip repr."""
    return repr(float(x))


# -- surfaces ---------------------------------------------------------------


class Spec:
    """A surface the generator chose, with the facts the checks need."""

    def __init__(self, text, kappa_fn):
        self.text = text
        self.kappa = kappa_fn  # profile coordinate -> Gaussian curvature

    def __str__(self):
        return self.text


def sphere(rad):
    return Spec(f"sphere:r={r(rad)}", lambda t: 1.0 / rad**2)


def hyperbolic(rad):
    return Spec(f"hyperbolic:r={r(rad)}", lambda t: -1.0 / rad**2)


def plane():
    return Spec("plane", lambda t: 0.0)


def profile(alpha, beta):
    return Spec(
        f"profile:alpha={r(alpha)},beta={r(beta)}",
        lambda t: 2.0 * alpha / (beta + alpha * t * t) ** 3,
    )


def eps_family(eps):
    return Spec(f"g2:eps={eps}", lambda t: 2.0 / (eps + t * t) ** 3)


def const_kappa(spec):
    return spec.kappa(1.0)


def _theta_range(rng, hyper=False):
    if hyper:
        return rng.uniform(0.25, 0.5), rng.uniform(1.5, 2.2)
    return rng.uniform(0.3, 0.7), rng.uniform(2.4, 2.85)


def _eps_range(rng, eps, scale=1.0):
    (a, b), (c, d) = EPS_DOMAINS[eps]
    return scale * rng.uniform(a, b), scale * rng.uniform(c, d)


def g2_on_plane(rng):
    """An eps-family or one of its homothetic profile copies, with a range
    inside its chart; rolling on the plane it has maximal symmetry."""
    eps = rng.choice((-1, 0, 1))
    if rng.random() < 0.5:
        lo, hi = _eps_range(rng, eps)
        return eps_family(eps), (lo, hi)
    s = rng.uniform(0.5, 2.0)
    lo, hi = _eps_range(rng, eps, scale=s)
    # metric scaled by s^2: alpha -> 1/s^2, beta unchanged, rho -> s rho
    return profile(1.0 / (s * s), float(eps)), (lo, hi)


def random_constant(rng, allow_plane=True):
    kinds = ("sphere", "hyperbolic", "plane") if allow_plane else ("sphere", "hyperbolic")
    kind = rng.choice(kinds)
    if kind == "plane":
        return plane()
    rad = rng.uniform(0.5, 2.5)
    return sphere(rad) if kind == "sphere" else hyperbolic(rad)


def _generic_ratio(k, lam):
    """Curvatures far from the integrable locus and from the 9:1 locus."""
    if k == lam:
        return False
    if k * lam <= 0.0:
        return True
    q = k / lam
    return not (0.5 < q < 2.0 or 6.0 < q < 13.5 or 1 / 13.5 < q < 1 / 6.0)


def generic_constant_pair(rng):
    """Two constant-curvature surfaces, s1 gridded, ratio generic."""
    while True:
        s1 = random_constant(rng)
        s2 = random_constant(rng)
        if _generic_ratio(const_kappa(s1), const_kappa(s2)):
            break
    if s1.text == "plane":
        lo, hi = rng.uniform(-1.0, -0.3), rng.uniform(0.3, 1.0)
    else:
        lo, hi = _theta_range(rng, hyper=s1.text.startswith("hyperbolic"))
    return s1, s2, (lo, hi)


def generic_profile_on_constant(rng, count):
    """A random revolution profile on a sphere or hyperbolic plane, with a
    grid on one side of the frame degeneracy and |kappa - lambda| large at
    every grid point (the pair is generic there, never maximally symmetric).

    Curvature stays below 20 and rho above 0.25: at stiffer points the
    growth rank test (singular values against 1e-7 of the largest) puts a
    singular value inside its factor-5 band and flags the row
    ill-conditioned, e.g. profile:alpha=0.41,beta=-0.22 at rho = 0.11 on
    hyperbolic:r=1.08.  The benchmark measures the well-conditioned case."""
    while True:
        alpha = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0)
        beta = rng.uniform(-3.0, 3.0)
        root2 = -beta / alpha
        if root2 > 0.0:
            rho0 = math.sqrt(root2)
            if rng.random() < 0.5:
                lo, hi = 0.15 * rho0, 0.8 * rho0
            else:
                lo, hi = 1.2 * rho0, 2.5 * rho0
        else:
            lo, hi = rng.uniform(0.2, 0.6), rng.uniform(1.5, 2.5)
        s2 = random_constant(rng, allow_plane=False)
        lam = const_kappa(s2)
        s1 = profile(alpha, beta)
        ts = linspace(lo, hi, count)
        if lo < 0.25 or hi > 6.0:
            continue
        if any(abs(alpha * t * t + beta) < 0.2 for t in ts):
            continue
        ks = [s1.kappa(t) for t in ts]
        if all(abs(k - lam) > 0.3 * max(abs(k), abs(lam)) for k in ks) and all(
            abs(k) < 20.0 for k in ks
        ):
            return s1, s2, (lo, hi)


def linspace(lo, hi, n):
    """Same points as numpy.linspace for the grids the CLI builds."""
    return [float(t) for t in np.linspace(lo, hi, n)]


def _rho(lo, hi, n):
    # `=` keeps a leading minus sign from reading as an option
    return f"--rho={r(lo)}:{r(hi)}:{n}"


# -- invariants ---------------------------------------------------------------


def _grid_expect(lo, hi, n):
    return {"grid": (lo, hi, n)}


def inv_g2check_plane(rng):
    s1, (lo, hi) = g2_on_plane(rng)
    return Job("g2check_g2_plane", ["g2check", "--s1", str(s1), "--s2", "plane",
                                    _rho(lo, hi, 300)],
               {"exit": 0, **_grid_expect(lo, hi, 300)})


def inv_g2check_nine(rng):
    a = rng.uniform(0.5, 2.0)
    b = 3.0 * a
    if rng.random() < 0.5:
        a, b = b, a
    lo, hi = _theta_range(rng)
    return Job("g2check_nine_to_one", ["g2check", "--s1", str(sphere(a)), "--s2", str(sphere(b)),
                                       _rho(lo, hi, 400)],
               {"exit": 0, **_grid_expect(lo, hi, 400)})


def inv_g2check_generic(rng):
    s1, s2, (lo, hi) = generic_constant_pair(rng)
    return Job("g2check_generic_const", ["g2check", "--s1", str(s1), "--s2", str(s2),
                                         _rho(lo, hi, 300)],
               {"exit": 1, **_grid_expect(lo, hi, 300)})


def inv_g2check_profile(rng):
    s1, s2, (lo, hi) = generic_profile_on_constant(rng, 200)
    return Job("g2check_profile_const", ["g2check", "--s1", str(s1), "--s2", str(s2),
                                         _rho(lo, hi, 200)],
               {"exit": 1, **_grid_expect(lo, hi, 200)})


def inv_quartic_const(rng):
    s1, s2, (lo, hi) = generic_constant_pair(rng)
    return Job("quartic_const", ["quartic", "--s1", str(s1), "--s2", str(s2),
                                 _rho(lo, hi, 300)],
               {"exit": 0, "kappa": const_kappa(s1), "lambda": const_kappa(s2),
                **_grid_expect(lo, hi, 300)})


def inv_quartic_plane(rng):
    s1, (lo, hi) = g2_on_plane(rng)
    ts = linspace(lo, hi, 250)
    return Job("quartic_g2_plane", ["quartic", "--s1", str(s1), "--s2", "plane",
                                    _rho(lo, hi, 250)],
               {"exit": 0, "zero": True, "kappas": [s1.kappa(t) for t in ts],
                **_grid_expect(lo, hi, 250)})


# -- derivatives --------------------------------------------------------------


def _phi(rng):
    return rng.uniform(0.0, 2.0 * math.pi)


def _growth(template, s1, s2, lo, hi, n, rng):
    phi = _phi(rng)
    return Job(template, ["growth", "--s1", str(s1), "--s2", str(s2),
                          _rho(lo, hi, n), f"--phi={r(phi)}"],
               {"exit": 0, "phi": phi, **_grid_expect(lo, hi, n)})


def _oracle(template, s1, s2, lo, hi, n, rng, g2):
    phi = _phi(rng)
    expect = {"exit": 0, "phi": phi, "g2": g2, "lambda": const_kappa(s2),
              **_grid_expect(lo, hi, n)}
    if g2:
        expect["kappas"] = [s1.kappa(t) for t in linspace(lo, hi, n)]
    return Job(template, ["oracle", "--s1", str(s1), "--s2", str(s2), _rho(lo, hi, n),
                          "--points", str(n), f"--phi={r(phi)}"], expect)


def der_growth_sphere_plane(n):
    def make(rng):
        lo, hi = _theta_range(rng)
        return _growth(f"growth_sphere_plane_{n}", sphere(rng.uniform(0.5, 2.0)), plane(),
                       lo, hi, n, rng)
    return make


def der_growth_sphere_hyperbolic(n):
    def make(rng):
        lo, hi = _theta_range(rng)
        return _growth(f"growth_sphere_hyperbolic_{n}", sphere(rng.uniform(0.5, 2.0)),
                       hyperbolic(rng.uniform(0.5, 2.0)), lo, hi, n, rng)
    return make


def der_growth_rev_plane(rng):
    s1, (lo, hi) = g2_on_plane(rng)
    return _growth("growth_revolution_plane", s1, plane(), lo, hi, 1, rng)


def der_growth_rev_sphere(rng):
    s1, s2, (lo, hi) = generic_profile_on_constant(rng, 1)
    return _growth("growth_revolution_constant", s1, s2, lo, hi, 1, rng)


def der_oracle_sphere_plane(n):
    def make(rng):
        lo, hi = _theta_range(rng)
        return _oracle(f"oracle_sphere_plane_{n}", sphere(rng.uniform(0.5, 2.0)), plane(),
                       lo, hi, n, rng, g2=False)
    return make


def der_oracle_sphere_hyperbolic(n):
    def make(rng):
        lo, hi = _theta_range(rng)
        return _oracle(f"oracle_sphere_hyperbolic_{n}", sphere(rng.uniform(0.5, 2.0)),
                       hyperbolic(rng.uniform(0.5, 2.0)), lo, hi, n, rng, g2=False)
    return make


def der_oracle_rev_plane(rng):
    s1, (lo, hi) = g2_on_plane(rng)
    return _oracle("oracle_revolution_plane", s1, plane(), lo, hi, 1, rng, g2=True)


def der_oracle_rev_sphere(rng):
    s1, s2, (lo, hi) = generic_profile_on_constant(rng, 1)
    return _oracle("oracle_revolution_constant", s1, s2, lo, hi, 1, rng, g2=False)


# -- kinematics ---------------------------------------------------------------


def _controls(rng, t_end, knots):
    """Controls varying linearly in time, listed at `knots` times covering
    [0, t_end], with |c| bounded away from zero.  The interpolant then has
    no kinks, whose finite-difference footprint would swamp the residuals."""
    a1, a2 = rng.uniform(0.6, 1.2), rng.uniform(-0.5, 0.5)
    b1, b2 = rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5)
    return [(t_end * k / (knots - 1), a1 + b1 * k / (knots - 1), a2 + b2 * k / (knots - 1))
            for k in range(knots)]


def _roll(template, rng, s1, start, steps, control_file):
    dt = rng.uniform(0.9e-3, 1.1e-3)
    t_end = steps * dt
    argv = ["roll", "--s1", str(s1[0]), "--s2", str(s1[1]),
            "--start=" + ",".join(r(v) for v in start), f"--dt={r(dt)}", f"--T={r(t_end)}"]
    expect = {"exit": 0, "start": start, "T": t_end, "steps": steps}
    files = {}
    if control_file:
        rows = _controls(rng, t_end, 21)
        name = f"{template}.ctrl"
        files[name] = "# t, c1, c2\n" + "".join(f"{r(t)}, {r(a)}, {r(b)}\n" for t, a, b in rows)
        argv += ["--control", name]
        expect["control"] = rows
    else:
        c1 = rng.uniform(-1.2, 1.2)
        c2 = math.copysign(rng.uniform(0.4, 1.2), rng.uniform(-1, 1))
        argv += [f"--c1={r(c1)}", f"--c2={r(c2)}"]
        expect["constant"] = (c1, c2)
    return Job(template, argv, expect, files)


def _sphere_plane_start(rng):
    return [rng.uniform(1.2, 1.95), _phi(rng), rng.uniform(-1, 1), rng.uniform(-1, 1), _phi(rng)]


def _rev_on_sphere(rng):
    eps = rng.choice((-1, 0, 1))
    (a, b), (c, d) = EPS_DOMAINS[eps]
    rho = rng.uniform(b + 0.1, c - 0.1)
    s2 = sphere(rng.uniform(1.0, 3.0))
    start = [rho, _phi(rng), rng.uniform(1.2, 1.95), _phi(rng), _phi(rng)]
    return (eps_family(eps), s2), start


def kin_roll_sphere_plane(control_file):
    def make(rng):
        s = (sphere(rng.uniform(0.8, 2.0)), plane())
        tag = "file" if control_file else "const"
        return _roll(f"roll_sphere_plane_{tag}", rng, s, _sphere_plane_start(rng), 100,
                     control_file)
    return make


def kin_roll_rev_sphere(control_file):
    def make(rng):
        pair, start = _rev_on_sphere(rng)
        tag = "file" if control_file else "const"
        return _roll(f"roll_revolution_sphere_{tag}", rng, pair, start, 30, control_file)
    return make


EMBED_RANGES = {1: ((0.0, 0.5), (1.5, 2.5)), -1: ((1.45, 1.8), (2.5, 3.0)),
                0: ((1.0, 1.3), (1.8, 2.5))}


def kin_embed(eps, nr, nphi):
    def make(rng):
        e = rng.choice((-1, 0, 1)) if eps is None else eps
        (a, b), (c, d) = EMBED_RANGES[e]
        lo, hi = rng.uniform(a, b), rng.uniform(c, d)
        return Job(f"embed_{'any' if eps is None else e}_{nr}x{nphi}",
                   ["embed", "--family", f"g2:eps={e}", f"--rho-range={r(lo)}:{r(hi)}",
                    "--nr", str(nr), "--nphi", str(nphi)],
                   {"exit": 0, "eps": e, "lo": lo, "hi": hi, "nr": nr, "nphi": nphi})
    return make


ROUNDS = {
    "invariants": (
        inv_g2check_plane,
        inv_g2check_nine,
        inv_g2check_generic,
        inv_g2check_profile,
        inv_quartic_const,
        inv_quartic_plane,
    ),
    # costs fall in three tiers (about 15-30 ms, 45-55 ms and 125-360 ms,
    # 3/5/3 templates), so p50 sits mid-tier and p90 inside the top tier
    # rather than on a gap between tiers, where it would jump between runs
    "derivatives": (
        der_oracle_sphere_plane(1),
        der_oracle_sphere_plane(2),
        der_oracle_sphere_hyperbolic(1),
        der_growth_sphere_plane(1),
        der_growth_sphere_hyperbolic(1),
        der_oracle_sphere_hyperbolic(4),
        der_oracle_rev_plane,
        der_oracle_rev_sphere,
        der_growth_sphere_hyperbolic(3),
        der_growth_rev_plane,
        der_growth_rev_sphere,
    ),
    "kinematics": (
        kin_roll_sphere_plane(False),
        kin_roll_sphere_plane(True),
        kin_roll_rev_sphere(False),
        kin_roll_rev_sphere(True),
        kin_embed(1, 128, 128),
        kin_embed(-1, 128, 128),
        kin_embed(0, 48, 32),
        kin_embed(None, 32, 32),
    ),
}


def generate(workload, seed, rounds):
    """`rounds` rounds of jobs for `workload`, fully determined by `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    return [[make(rng) for make in ROUNDS[workload]] for _ in range(rounds)]
