import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import profile_ode_residual, reciprocal_ode_residual

from rolling_twistor.errors import DomainError, SpecParseError
from rolling_twistor.finitediff import fd_weights
from rolling_twistor.surfaces import (
    CustomRevolution,
    G2Family,
    Hyperbolic,
    Plane,
    RevolutionProfile,
    Sphere,
    parse_surface,
)

RNG = np.random.default_rng(42)


def fd_curvature_of_profile_metric(E, G, rho, h=1e-4):
    """Independent curvature oracle for metrics E(rho) drho^2 + G(rho) dpsi^2:
    K = -(1/(2 sqrt(EG))) d/drho( G'(rho) / sqrt(EG) )."""

    def inner(r):
        gp = (G(r + h) - G(r - h)) / (2 * h)
        return gp / math.sqrt(E(r) * G(r))

    d = (inner(rho + h) - inner(rho - h)) / (2 * h)
    return -d / (2.0 * math.sqrt(E(rho) * G(rho)))


class TestJets:
    def test_plane_jet_all_zero(self):
        j = Plane().jet((0.3, -2.0))
        assert tuple(j) == (1.0, 1.0) + (0.0,) * 6

    def test_sphere_jet(self):
        j = Sphere(2.0).jet((1.1, 0.0))
        assert j.kappa == pytest.approx(0.25)
        assert j.a2 == pytest.approx(-math.cos(1.1) / (2.0 * math.sin(1.1)))
        assert (j.kappa1, j.kappa11, j.kappa111, j.kappa1111) == (0.0, 0.0, 0.0, 0.0)

    def test_hyperbolic_jet(self):
        j = Hyperbolic(3.0).jet((0.8, 0.0))
        assert j.kappa == pytest.approx(-1.0 / 9.0)
        assert (j.kappa1, j.kappa11, j.kappa111, j.kappa1111) == (0.0, 0.0, 0.0, 0.0)

    def test_g2_plus_curvature_near_origin(self):
        # kappa = 2/(rho^2+1)^3 -> 2 as rho -> 0
        j = G2Family(1).jet((1e-8, 0.0))
        assert j.kappa == pytest.approx(2.0, rel=1e-12)

    def test_g2_zero_at_rho_one(self):
        j = G2Family(0).jet((1.0, 0.0))
        assert j.kappa == pytest.approx(2.0)
        assert j.a2 == pytest.approx(-1.0)

    def test_a2_matches_numerical_frame_bracket(self):
        # independent check of a2: the psi-component of [e1, e2] equals
        # a2 * (1/rho) for e1 = (1/h) d_rho, e2 = (1/rho) d_psi
        fam = G2Family(0)
        rho = 1.0
        h = 1e-6

        def e1_coeff(r):
            return 1.0 / fam.h(r)

        def e2_coeff(r):
            return 1.0 / r

        # [e1, e2] = e1(1/rho) d_psi = (1/h) d/drho(1/rho) d_psi
        bracket_psi = e1_coeff(rho) * (e2_coeff(rho + h) - e2_coeff(rho - h)) / (2 * h)
        a2 = bracket_psi / e2_coeff(rho)
        assert a2 == pytest.approx(fam.jet((rho, 0.0)).a2, rel=1e-8)

    def test_rho_domain_guards(self):
        with pytest.raises(DomainError):
            G2Family(1).jet((0.0, 0.0))
        with pytest.raises(DomainError):
            G2Family(-1).jet((0.9, 0.0))  # restricted to rho > 1
        with pytest.raises(DomainError):
            RevolutionProfile(1.0, -1.0).jet((1.0, 0.0))  # h = 0 there

    @pytest.mark.parametrize("fam", [G2Family(1), G2Family(-1), RevolutionProfile(-1.0, 2.0)])
    def test_overflowing_h_is_outside_the_chart(self, fam):
        # h = beta + alpha rho^2 overflows: no frame, whatever kappa rounds to
        with pytest.raises(DomainError, match=r"not finite at rho = 1e\+200"):
            fam.validate((1e200, 0.0))
        with pytest.raises(DomainError, match=r"not finite at rho = 1e\+200"):
            fam.jet((np.array([1.5, 1e200]), np.zeros(2)))
        with np.errstate(over="ignore"):  # as in the stacked pre-check
            assert not fam._inside(np.array([1e200]))[0]

    @pytest.mark.parametrize(
        "fam, rho",
        [
            (G2Family(1), 1e60),  # h = 1e120 is finite, h^3 is not
            (RevolutionProfile(-1.0, 2.0), 1e60),
            (RevolutionProfile(1e-320, 1.0), 1e210),  # h^3 = 1e300 is finite, rho h is not
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_frame_data_are_outside_the_chart(self, fam, rho):
        # kappa = 2 alpha / h^3 and a2 = -1 / (rho h) would round to 0
        shown = f"product with rho overflows at rho = {rho!r}".replace("+", r"\+")
        with pytest.raises(DomainError, match=shown):
            fam.validate((rho, 0.0))
        with pytest.raises(DomainError, match=shown):
            fam.jet((np.array([1.5, rho]), np.zeros(2)))
        with np.errstate(over="ignore"):  # as in the stacked pre-check
            assert not fam._inside(np.array([rho]))[0]

    def test_alpha_zero_family_rejected(self):
        with pytest.raises(ValueError):
            RevolutionProfile(0.0, 1.0)


class TestAnalyticVsFiniteDifferenceJets:
    @pytest.mark.parametrize(
        "fam,rhos",
        [
            (G2Family(0), (0.6, 1.0, 2.4)),
            (G2Family(1), (0.3, 1.2, 2.0)),
            (G2Family(-1), (1.3, 1.8, 2.7)),
            (RevolutionProfile(1.0, -5.0), (0.6, 1.2, 1.8)),
            (CustomRevolution(lambda r: r.cosh(), "cosh"), (0.5, 1.1)),
        ],
    )
    def test_fd_jet_agreement(self, fam, rhos):
        # nested single-derivative finite differences of kappa(rho), each
        # level dividing by h(rho): fully independent of the Taylor chain
        def kappa(r):
            return fam.jet((r, 0.0)).kappa

        def local_scale(r):
            # kappa varies on the smaller of rho (pole at 0) and |h/h'|
            # (blow-up where the frame degenerates)
            hp = (fam.h(r + 1e-6) - fam.h(r - 1e-6)) / 2e-6
            return min(r, abs(fam.h(r)) / max(abs(hp), 1e-9))

        def d(f):
            def df(r):
                step = 0.02 * local_scale(r)
                nodes = r + step * np.arange(-4.0, 5.0)
                w = fd_weights(nodes, r, 1)[:, 1]
                return float(w @ np.array([f(t) for t in nodes])) / fam.h(r)

            return df

        k1f = d(kappa)
        k11f = d(k1f)
        k111f = d(k11f)
        k1111f = d(k111f)
        for rho in rhos:
            jet = fam.jet((rho, 0.0))
            assert abs(k1f(rho) - jet.kappa1) < 1e-6 * max(1.0, abs(jet.kappa1))
            assert abs(k11f(rho) - jet.kappa11) < 1e-6 * max(1.0, abs(jet.kappa11))
            assert abs(k111f(rho) - jet.kappa111) < 2e-6 * max(1.0, abs(jet.kappa111))
            assert abs(k1111f(rho) - jet.kappa1111) < 1e-4 * max(1.0, abs(jet.kappa1111))


class TestGaussianCurvatureProfile:
    def test_negative_branch_value(self):
        assert RevolutionProfile(1.0, -5.0).frame_data((2.0, 0.0)).kappa == pytest.approx(-2.0)

    def test_negative_branch_against_fd_metric_curvature(self):
        # cross-check against the finite-difference curvature of the metric
        # (rho^2-5)^2 drho^2 + rho^2 dpsi^2
        K = fd_curvature_of_profile_metric(
            lambda r: (r * r - 5.0) ** 2, lambda r: r * r, 2.0
        )
        assert K == pytest.approx(-2.0, rel=1e-6)

    def test_singularity(self):
        with pytest.raises(DomainError):
            RevolutionProfile(1.0, -1.0).frame_data((1.0, 0.0))


def inverse_jets_from_x(alpha, beta, rho):
    """(rho', rho'', rho''') of the inverse function of
    x = alpha rho^2/2 + beta log rho + gamma, by the reciprocal-derivative
    formulas (independent of the package)."""
    x1 = alpha * rho + beta / rho
    x2 = alpha - beta / rho**2
    x3 = 2.0 * beta / rho**3
    d1 = 1.0 / x1
    d2 = -x2 / x1**3
    d3 = (3.0 * x2**2 - x1 * x3) / x1**5
    return d1, d2, d3, (x1, x2, x3)


class TestProfileODE:
    def test_square_profile_solves(self):
        # x = rho^2/2 (alpha=1, beta=gamma=0)
        for rho in (0.5, 1.0, 2.5):
            d1, d2, d3, _ = inverse_jets_from_x(1.0, 0.0, rho)
            res = profile_ode_residual(rho, d1, d2, d3)
            assert abs(res) < 1e-14

    def test_constant_profile(self):
        assert profile_ode_residual(2.0, 0.0, 0.0, 0.0) == 0.0

    def test_genuine_non_solution(self):
        # rho(x) = 1 + x^2 at x = 1: frozen residual -16.
        # (rho = exp(x) is NOT a counterexample: it solves the equation as
        # the excluded flat branch x = log rho.)
        rho, d1, d2, d3 = 2.0, 2.0, 2.0, 0.0
        assert profile_ode_residual(rho, d1, d2, d3) == pytest.approx(-16.0)

    def test_exp_is_the_flat_branch(self):
        # consistency with the reciprocal oracle: both residuals vanish
        x0 = 0.3
        rho = math.exp(x0)
        assert profile_ode_residual(rho, rho, rho, rho) == pytest.approx(0.0, abs=1e-12)
        # x = log rho: x' = 1/rho, x'' = -1/rho^2, x''' = 2/rho^3
        assert reciprocal_ode_residual(1 / rho, -1 / rho**2, 2 / rho**3, rho) == pytest.approx(
            0.0, abs=1e-15
        )


class TestG2FamiliesSolveTheProfileODE:
    @pytest.mark.parametrize("eps,lo,hi", [(0, 0.5, 3.0), (1, 0.1, 2.0), (-1, 1.2, 3.0)])
    def test_residual_vanishes_on_grid(self, eps, lo, hi):
        alpha, beta = 1.0, float(eps)
        for rho in np.linspace(lo, hi, 100):
            d1, d2, d3, _ = inverse_jets_from_x(alpha, beta, rho)
            res = profile_ode_residual(rho, d1, d2, d3)
            scale = max(
                abs(d3 * d1 * rho**2), abs(3 * d2**2 * rho**2), abs(d2 * d1**2 * rho), d1**4
            )
            assert abs(res) < 1e-10 * scale


class TestReciprocalODE:
    def test_general_solution_exact(self):
        alpha, beta = 2.0, 3.0
        for rho in (0.4, 1.0, 1.7):
            x1 = alpha * rho + beta / rho
            x2 = alpha - beta / rho**2
            x3 = 2.0 * beta / rho**3
            assert reciprocal_ode_residual(x1, x2, x3, rho) == pytest.approx(0.0, abs=1e-13)

    def test_constant(self):
        assert reciprocal_ode_residual(0.0, 0.0, 0.0, 1.3) == 0.0

    def test_cubic_frozen_value(self):
        # x = rho^3: residual = 6 rho^2 + 6 rho^2 - 3 rho^2 = 9 at rho = 1
        rho = 1.0
        assert reciprocal_ode_residual(3 * rho**2, 6 * rho, 6.0, rho) == pytest.approx(9.0)

    def test_reciprocity_links_the_two_odes(self):
        # for random (alpha, beta, gamma) profiles both residuals vanish
        for _ in range(10):
            alpha = RNG.uniform(0.2, 2.0) * RNG.choice([-1.0, 1.0])
            beta = RNG.uniform(-2.0, 2.0)
            rho = RNG.uniform(0.5, 2.0)
            if abs(alpha * rho + beta / rho) < 1e-3:
                continue
            d1, d2, d3, (x1, x2, x3) = inverse_jets_from_x(alpha, beta, rho)
            scale = max(abs(d3 * d1 * rho**2), abs(3 * d2**2 * rho**2), 1e-30)
            assert abs(profile_ode_residual(rho, d1, d2, d3)) < 1e-10 * scale
            assert abs(reciprocal_ode_residual(x1, x2, x3, rho)) < 1e-12 * max(abs(x1), 1.0)


class TestScaling:
    def test_sphere_scaling(self):
        s = Sphere(1.0).scaled(3.0)
        assert isinstance(s, Sphere)
        assert s.radius == pytest.approx(3.0)
        assert s.jet((1.0, 0.0)).kappa == pytest.approx(1.0 / 9.0)

    def test_identity_scale(self):
        s = Sphere(2.0).scaled(1.0)
        assert s == Sphere(2.0)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            Plane().scaled(0.0)

    @pytest.mark.parametrize("s0", [0.5, 2.0, 10.0])
    def test_jet_transformation_law(self, s0):
        cases = [
            (Sphere(1.0), (1.2, 0.0), (1.2, 0.0)),
            (Hyperbolic(2.0), (0.7, 0.0), (0.7, 0.0)),
            (G2Family(0), (1.4, 0.0), (1.4 * s0, 0.0)),
            (RevolutionProfile(1.0, -5.0), (1.1, 0.0), (1.1 * s0, 0.0)),
        ]
        for fam, p, p_scaled in cases:
            # (a2, kappa, kappa1..kappa1111); f1 and f2 depend on the chart
            direct = np.array(fam.scaled(s0).jet(p_scaled))[2:]
            transformed = np.array(fam.jet(p).scaled(s0))[2:]
            assert np.allclose(direct, transformed, rtol=1e-12, atol=1e-15)
            if p == p_scaled:  # the same chart: the frame scales as the metric's inverse root
                assert np.allclose(np.array(fam.scaled(s0).jet(p))[:2],
                                   np.array(fam.jet(p).scaled(s0))[:2], rtol=1e-15)

    def test_g2_scaled_is_profile(self):
        s = G2Family(-1).scaled(2.0)
        assert isinstance(s, RevolutionProfile)
        assert s.alpha == pytest.approx(0.25)
        assert s.beta == pytest.approx(-1.0)


class TestFrames:
    def test_revolution_frame_components(self):
        fam = RevolutionProfile(1.0, 2.0)
        d = fam.frame_data((1.5, 0.0))
        assert d.f1 == pytest.approx(1.0 / (2.0 + 1.5**2))
        assert d.f2 == pytest.approx(1.0 / 1.5)


class TestSpecStrings:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("plane", Plane()),
            ("sphere:r=2", Sphere(2.0)),
            ("hyperbolic:r=0.5", Hyperbolic(0.5)),
            ("profile:alpha=1,beta=-5", RevolutionProfile(1.0, -5.0)),
            ("g2:eps=-1", G2Family(-1)),
        ],
    )
    def test_round_trip(self, spec, expected):
        assert parse_surface(spec) == expected

    def test_unknown_family(self):
        with pytest.raises(SpecParseError):
            parse_surface("torus:r=1")

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecParseError) as exc:
            parse_surface("sphere:radius=1")
        assert exc.value.position is not None

    def test_profile_constant_is_not_a_key(self):
        # the additive constant of the profile does not enter the metric
        with pytest.raises(SpecParseError, match="unknown key 'gamma'.* at position 24") as exc:
            parse_surface("profile:alpha=1,beta=-5,gamma=7")
        assert exc.value.position == 24

    def test_bad_value(self):
        with pytest.raises(SpecParseError):
            parse_surface("sphere:r=abc")

    def test_bad_eps(self):
        with pytest.raises(SpecParseError):
            parse_surface("g2:eps=2")

    def test_spec_string_round_trips(self):
        for s in (Plane(), Sphere(1.0), Hyperbolic(2.0), RevolutionProfile(1.0, -5.0), G2Family(0)):
            assert parse_surface(s.spec_string()) == s

    @pytest.mark.parametrize(
        "surface,spec",
        [
            (Sphere(1.0 / 3.0), "sphere:r=0.3333333333333333"),
            (Plane().scaled(2.0), "plane:scale=2"),
            (RevolutionProfile(0.5, -2.5), "profile:alpha=0.5,beta=-2.5"),
            (Sphere(3.0), "sphere:r=3"),
        ],
    )
    def test_spec_string_is_lossless(self, surface, spec):
        assert surface.spec_string() == spec
        assert parse_surface(spec) == surface

    @pytest.mark.parametrize("spec", ["plane:scale=0", "plane:scale=-2", "plane:scale=1e-320"])
    def test_unusable_plane_scale_rejected(self, spec):
        with pytest.raises(SpecParseError):
            parse_surface(spec)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(["plane", "sphere", "hyperbolic", "profile", "g2"]),
        radius=st.floats(1e-3, 1e3),
        alpha=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
        beta=st.floats(-10.0, 10.0),
        eps=st.sampled_from([-1, 0, 1]),
        scale=st.none() | st.floats(1e-4, 1e4) | st.floats(-1e4, -1e-4),
    )
    def test_spec_string_round_trip_property(self, family, radius, alpha, beta, eps, scale):
        surface = {
            "plane": lambda: Plane(),
            "sphere": lambda: Sphere(radius),
            "hyperbolic": lambda: Hyperbolic(radius),
            "profile": lambda: RevolutionProfile(alpha, beta),
            "g2": lambda: G2Family(eps),
        }[family]()
        if scale is not None:
            surface = surface.scaled(scale)
        assert parse_surface(surface.spec_string()) == surface
