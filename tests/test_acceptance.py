"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings; every tolerance is fixed here, nothing is calibrated at
run time.
"""

import math
import time

import numpy as np
import pytest
from references import algebraic_residual, induced_metric_residual, profile_ode_residual

from rolling_twistor import conformal_oracle as co
from rolling_twistor.cartan_invariants import (
    g2_check,
    quartic_killing_case,
    vanishing_scale,
)
from rolling_twistor.distribution5 import frame_fields, growth_vector, lie_bracket
from rolling_twistor.rolling import ControlCurve, contact_arclengths, integrate, no_slip_residual, no_twist_residual
from rolling_twistor.embedding import build_mesh
from rolling_twistor.surfaces import (
    G2Family,
    Hyperbolic,
    Plane,
    RevolutionProfile,
    Sphere,
    SurfaceJet,
)

RNG = np.random.default_rng(20240612)


def _report(number, description, budget_s, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s


def test_criterion_1_constant_curvature_factorization():
    def body():
        # independent expected value: expand (1 + 2z + 2z^2)^2 by convolution
        # and divide out the binomial weights (1, 4, 6, 4, 1)
        square = np.convolve([1.0, 2.0, 2.0], [1.0, 2.0, 2.0])
        pattern = square / np.array([1.0, 4.0, 6.0, 4.0, 1.0])
        count = 0
        while count < 50:
            k, lam = RNG.uniform(-5.0, 5.0, 2)
            if abs(k - lam) < 1e-6:
                continue
            count += 1
            P = (k - lam) ** 4 * (k - 9.0 * lam) * (9.0 * k - lam)
            expected = P * pattern
            got = np.array(quartic_killing_case(SurfaceJet(1.0, 1.0, RNG.uniform(-2, 2), k, 0.0, 0.0, 0.0, 0.0), lam))
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * max(abs(P), 1.0))

    _report(1, "constant-curvature quartic factorization (50 random pairs, rel 1e-12)", 1.0, body)


def test_criterion_2_nine_to_one_ratio():
    def body():
        # sphere(1) on sphere(3): kappa = 1, lambda = 1/9
        rep = g2_check(Sphere(1.0), 1.0 / 9.0, Sphere(1.0).profile_grid(10), tol=1e-10)
        assert rep.is_g2 and rep.max_scaled < 1e-10
        # kappa = 9 lambda with lambda < 0 (hyperbolic pair)
        hyp = Hyperbolic(1.0 / 3.0)  # kappa = -9
        rep_neg = g2_check(hyp, -1.0, hyp.profile_grid(10), tol=1e-10)
        assert rep_neg.is_g2 and rep_neg.max_scaled < 1e-10
        # a 1% ratio perturbation flips both verdicts
        assert not g2_check(Sphere(1.0), 1.01 / 9.0, Sphere(1.0).profile_grid(10), tol=1e-10).is_g2
        assert not g2_check(hyp, -1.01, hyp.profile_grid(10), tol=1e-10).is_g2

    _report(2, "maximal symmetry exactly at curvature ratio 9:1 (scaled |A_i| < 1e-10)", 1.0, body)


def test_criterion_3_three_revolution_families():
    def body():
        domains = {0: (0.5, 3.0), 1: (0.1, 2.0), -1: (1.2, 3.0)}
        for eps, (lo, hi) in domains.items():
            fam = G2Family(eps)
            rep = g2_check(fam, 0.0, fam.profile_grid(100, lo, hi), tol=1e-8)
            assert rep.is_g2, f"eps={eps}: max scaled {rep.max_scaled}"
            assert rep.max_scaled < 1e-8
        fam = RevolutionProfile(1.0, -5.0)
        rep = g2_check(fam, 0.0, fam.profile_grid(100, 0.5, 1.9), tol=1e-8)
        assert rep.is_g2 and rep.max_scaled < 1e-8

    _report(3, "three distinguished revolution families (and a homothetic copy) vanish", 5.0, body)


def test_criterion_4_ode_sufficiency():
    def body():
        done = 0
        while done < 20:
            alpha = RNG.uniform(-2.0, 2.0)
            if abs(alpha) < 0.05:
                continue
            beta, _ = RNG.uniform(-2.0, 2.0, 2)  # and the profile's additive constant
            rho = RNG.uniform(0.5, 2.0)
            x1 = alpha * rho + beta / rho  # d/drho of alpha rho^2/2 + beta log rho
            if abs(x1) < 0.05 or abs(beta + alpha * rho**2) < 0.05:
                continue
            done += 1
            # profile equation residual through the inverse-function jets
            x2 = alpha - beta / rho**2
            x3 = 2.0 * beta / rho**3
            d1 = 1.0 / x1
            d2 = -x2 / x1**3
            d3 = (3.0 * x2**2 - x1 * x3) / x1**5
            res = profile_ode_residual(rho, d1, d2, d3)
            scale = max(abs(d3 * d1 * rho**2), abs(3 * d2**2 * rho**2),
                        abs(d2 * d1**2 * rho), d1**4)
            assert abs(res) < 1e-10 * scale
            # the same profile rolls on the plane with a vanishing quartic
            jet = RevolutionProfile(alpha, beta).jet((rho, 0.0))
            q = quartic_killing_case(jet, 0.0)
            assert q.max_abs < 1e-8 * vanishing_scale(jet.kappa, 0.0)
        # the flat family alpha = 0 is rejected as excluded
        with pytest.raises(ValueError):
            RevolutionProfile(0.0, 1.0)

    _report(4, "profile equation is sufficient: 20 random solution profiles vanish", 5.0, body)


def test_criterion_5_bracket_and_growth():
    def body():
        sphere, plane = Sphere(1.0), Plane()
        X1, X2, X3, _, _ = frame_fields(sphere, plane)
        for _ in range(20):
            p = np.array([
                RNG.uniform(0.6, 2.5), RNG.uniform(-1, 1),
                RNG.uniform(-1, 1), RNG.uniform(-1, 1),
                RNG.uniform(0, 2 * math.pi),
            ])
            assert np.max(np.abs(lie_bracket(X1, X2, p) - X3(p))) < 1e-6
            assert growth_vector(sphere, plane, p).ranks == (2, 3, 5)
        for _ in range(20):
            p = np.array([
                RNG.uniform(0.6, 2.5), RNG.uniform(-1, 1),
                RNG.uniform(0.6, 2.5), RNG.uniform(-1, 1),
                RNG.uniform(0, 2 * math.pi),
            ])
            assert growth_vector(Sphere(1.0), Sphere(1.0), p).ranks == (2, 2, 2)

    _report(5, "numerical brackets match the closed frame; growth (2,3,5) vs (2,2,2)", 10.0, body)


def test_criterion_5_growth_at_a_curvature_crossing():
    def body():
        # profile:alpha=1,beta=1 has curvature 2 / (1 + rho^2)^3, which crosses
        # lambda = 1/2 of the sphere of radius sqrt(2) at rho^2 = 4^(1/3) - 1:
        # X3 falls into span(X1, X2) there and only X4 adds a direction
        s1 = RevolutionProfile(1.0, 1.0)
        s2 = Sphere(math.sqrt(2.0))
        rho = math.sqrt(4.0 ** (1.0 / 3.0) - 1.0)
        for phi in (0.3, 1.7, 4.0):
            p = np.array([rho, 0.2, 1.0, -0.4, phi])
            res = growth_vector(s1, s2, p)
            assert res.ranks == (2, 2, 3)
            assert not res.ill_conditioned
            for off in (0.9, 1.1):
                p[0] = off * rho
                assert growth_vector(s1, s2, p).ranks == (2, 3, 5)

    _report(5, "growth (2,2,3) where a profile's curvature crosses the sphere's", 5.0, body)


def test_criterion_6_weyl_oracle_concordance():
    def body():
        sphere, plane = Sphere(1.0), Plane()
        pts = [
            np.array([
                RNG.uniform(0.7, 2.4), RNG.uniform(-1, 1),
                RNG.uniform(-1, 1), RNG.uniform(-1, 1),
                RNG.uniform(0, 2 * math.pi),
            ])
            for _ in range(5)
        ]
        for p in pts:
            ocl = co.cartan_from_weyl(sphere, plane, p)
            closed = quartic_killing_case(sphere.jet((p[0], p[1])), 0.0)
            assert co.proportionality_residual(ocl.quartic, closed) < 1e-3
        for s1, s2 in ((Sphere(1.0), Sphere(3.0)), (G2Family(1), plane)):
            for p in pts:
                q = p.copy()
                if s2.kind == "sphere":
                    q[2] = RNG.uniform(0.7, 2.4)
                ocl = co.cartan_from_weyl(s1, s2, q)
                assert ocl.weyl_norm < 10.0 * max(ocl.weyl_noise, 1e-14), (
                    s1.kind, ocl.weyl_norm, ocl.weyl_noise)

    _report(6, "Weyl-tensor oracle: proportional to closed forms; flat at maximal symmetry", 120.0, body)


def test_criterion_7_embedding_identities():
    def body():
        for eps, lo in ((1, 0.0), (-1, math.sqrt(2.0))):
            mesh = build_mesh(G2Family(eps), (lo, lo + 2.5), 100, 100)
            x, y, z = np.moveaxis(mesh.xyz, 2, 0)
            scale = (mesh.rho * mesh.rho + 2.0)[:, None] ** 3
            assert np.all(np.abs(algebraic_residual(eps, x, y, z)) < 1e-9 * scale)
        ranges = {1: (0.1, 2.0), 0: (1.1, 3.0), -1: (1.5, 3.0)}
        for eps, rng_ in ranges.items():
            fam = G2Family(eps)
            mesh = build_mesh(fam, rng_, 64, 64)
            assert induced_metric_residual(mesh, fam) < 1e-5

    _report(7, "algebraic embedding identities (1e4 points) and induced metrics (64x64)", 10.0, body)


def test_criterion_8_rolling_constraints():
    def body():
        sphere, plane = Sphere(1.0), Plane()
        ctrl = ControlCurve(times=np.array([0.0, 1.0]), values=np.array([[1.0, 0.4], [0.6, 1.0]]))
        start = np.array([1.2, 0.0, 0.0, 0.0, 0.0])
        slips, twists = [], []
        for dt in (0.02, 0.01):
            traj = integrate(sphere, plane, start, ctrl, dt, 1.0)
            slips.append(no_slip_residual(traj, sphere, plane))
            twists.append(no_twist_residual(traj, sphere, plane))
        assert 13.0 <= slips[0] / slips[1] <= 19.0, slips
        assert 13.0 <= twists[0] / twists[1] <= 19.0, twists
        traj = integrate(
            sphere, plane, np.array([math.pi / 2, 0.0, 0.0, 0.0, 0.0]),
            ControlCurve.constant(0.0, 1.0, t_end=math.pi), 1e-3, math.pi,
        )
        L1, L2 = contact_arclengths(traj, sphere, plane)
        assert abs(L1 - L2) / L1 < 1e-6
        assert abs(L1 - math.pi) < 1e-6

    _report(8, "rolling constraints converge at 4th order (ratio 16 +/- 3); arclengths agree", 10.0, body)


def test_criterion_9_homothety_invariance():
    def body():
        # verdicts on the full grids of criterion 3 plus root tags of a
        # non-vanishing pair, under simultaneous scaling
        for s0 in (0.5, 2.0, 10.0):
            for eps, (lo, hi) in {0: (0.5, 3.0), 1: (0.1, 2.0), -1: (1.2, 3.0)}.items():
                fam = G2Family(eps)
                scaled = fam.scaled(s0)
                grid = [(r * s0, a) for (r, a) in fam.profile_grid(40, lo, hi)]
                assert g2_check(scaled, 0.0, grid, tol=1e-8).is_g2
            sph = Sphere(1.0)
            grid = sph.profile_grid(10)
            base = g2_check(sph, 0.25, grid)
            scaled = g2_check(sph.scaled(s0), 0.25 / s0**2, grid)
            assert scaled.is_g2 == base.is_g2 is False
            assert [r.root_tag for r in scaled.rows] == [r.root_tag for r in base.rows]
            # the 9:1 verdict survives scaling too
            assert g2_check(sph.scaled(s0), (1.0 / 9.0) / s0**2, grid, tol=1e-10).is_g2

    _report(9, "all verdicts and root tags invariant under simultaneous scaling", 5.0, body)
