import numpy as np
import pytest

from rolling_twistor.cartan_invariants import (
    CartanQuartic,
    g2_check,
    necessary_condition_residual,
    quartic_constant,
    quartic_killing_case,
    root_type,
    vanishing_scale,
)
from rolling_twistor.errors import DomainError, IntegrablePointError
from rolling_twistor.surfaces import (
    RevolutionProfile,
    Sphere,
    SurfaceJet,
    g2_family,
)

RNG = np.random.default_rng(99)


def const_jet(kappa, a2=0.0):
    return SurfaceJet(a2=a2, kappa=kappa)


class TestQuarticKillingCase:
    def test_constant_case_factorizes(self):
        # A1 = (k-l)^4 (k-9l)(9k-l); at the 9:1 ratio everything vanishes
        q = quartic_killing_case(const_jet(9.0), 1.0)
        assert q.max_abs == pytest.approx(0.0, abs=1e-9)

    def test_frozen_value_kappa2_lambda0(self):
        q = quartic_killing_case(const_jet(2.0, a2=0.37), 0.0)
        assert q == CartanQuartic(576.0, 576.0, 768.0, 1152.0, 2304.0)

    @pytest.mark.parametrize(
        "kappa, lam, shown",
        [
            (1e200, 0.0, "kappa = 1e+200, lambda = 0.0"),  # d**4 raises OverflowError
            (1e60, 2.5e59, "kappa = 1e+60, lambda = 2.5e+59"),  # products reach inf
            (np.float64(1e200), 0.0, "kappa = 1e+200, lambda = 0.0"),  # d**4 is inf
        ],
        ids=["float-pow", "float-product", "float64"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_domain_error(self, kappa, lam, shown):
        with pytest.raises(DomainError, match=shown.replace("+", r"\+")):
            quartic_killing_case(const_jet(kappa), lam)

    def test_g2_family_vanishes_at_sample_point(self):
        jet = g2_family(1).jet((1.0, 0.0))
        q = quartic_killing_case(jet, 0.0)
        assert q.max_abs < 1e-8 * vanishing_scale(jet.kappa, 0.0)

    def test_integrable_point_rejected(self):
        with pytest.raises(IntegrablePointError):
            quartic_killing_case(const_jet(1.0), 1.0)

    def test_matches_constant_specialization_randomly(self):
        for _ in range(50):
            k, lam = RNG.uniform(-5, 5, 2)
            if abs(k - lam) < 1e-3:
                continue
            q = quartic_killing_case(const_jet(k, a2=RNG.uniform(-2, 2)), lam)
            qc = quartic_constant(k, lam).quartic
            assert np.allclose(q, qc, rtol=1e-12, atol=1e-12)


class TestQuarticConstant:
    def test_kappa1_lambda0(self):
        res = quartic_constant(1.0, 0.0)
        assert res.factor == pytest.approx(9.0)
        assert res.quartic == CartanQuartic(9.0, 9.0, 12.0, 18.0, 36.0)
        # the weighted polynomial coefficients follow the (1,4,8,8,4) pattern
        assert np.allclose(res.quartic.poly_coefficients(), 9.0 * np.array([1, 4, 8, 8, 4]))

    def test_factored_form_equals_expanded_square(self):
        # (1 + 2z + 2z^2)^2 = 1 + 4z + 8z^2 + 8z^3 + 4z^4
        base = np.array([1.0, 2.0, 2.0])
        sq = np.convolve(base, base)
        for _ in range(20):
            k, lam = RNG.uniform(-5, 5, 2)
            res = quartic_constant(k, lam)
            assert np.allclose(res.quartic.poly_coefficients(), res.factor * sq, rtol=1e-13)

    def test_integrable_factor(self):
        assert quartic_constant(2.0, 2.0).quartic.max_abs == 0.0

    def test_ratio_scaling_invariance(self):
        for s in (0.5, 1.0, 7.0):
            q = quartic_constant(s / 9.0, s).quartic
            assert q.max_abs < 1e-12 * max(s**6, 1.0)


class TestRootType:
    def test_constant_quartic_is_double_double(self):
        rt = root_type(quartic_constant(1.0, 0.0).quartic)
        assert rt.tag == "[2,2]"
        roots = sorted(rt.roots, key=lambda z: z.imag)
        assert roots[0] == pytest.approx(complex(-0.5, -0.5), abs=1e-6)
        assert roots[1] == pytest.approx(complex(-0.5, 0.5), abs=1e-6)

    def test_zero_quartic(self):
        assert root_type(CartanQuartic(0, 0, 0, 0, 0)).tag == "zero"

    def test_leading_only_gives_quadruple(self):
        assert root_type(CartanQuartic(0, 0, 0, 0, 1.0)).tag == "[4]"

    def test_constant_only_gives_root_at_infinity(self):
        rt = root_type(CartanQuartic(1.0, 0, 0, 0, 0))
        assert rt.tag == "[4]"
        assert rt.roots == (None,)

    @pytest.mark.parametrize(
        "roots, tag, order",
        [
            ([-2.0, 1.0, 1.0, 3.0], "[2,1,1]", [1.0, -2.0, 3.0]),
            ([-1.0, 2.0, 4.0], "[1,1,1,1]", [-1.0, 2.0, 4.0, None]),  # z^4 coefficient 0
        ],
    )
    def test_tied_clusters_keep_ascending_order(self, roots, tag, order):
        # the largest multiplicity first, ties in ascending order and the root
        # at infinity last, whatever numpy's sort kernel does with ties
        poly = np.append(np.poly(roots)[::-1], [0.0] * (5 - len(roots) - 1))  # ascending
        rt = root_type(CartanQuartic(poly[0], poly[1] / 4, poly[2] / 6, poly[3] / 4, poly[4]))
        assert rt.tag == tag
        got = [None if z is None else z.real for z in rt.roots]
        assert got == [None if r is None else pytest.approx(r, abs=1e-6) for r in order]

    def test_simple_roots(self):
        # (z-1)(z-2)(z+3)(z+5) expanded into the weighted coefficients
        poly = np.poly([1.0, 2.0, -3.0, -5.0])[::-1]  # ascending
        q = CartanQuartic(poly[0], poly[1] / 4, poly[2] / 6, poly[3] / 4, poly[4])
        assert root_type(q).tag == "[1,1,1,1]"

    def test_double_pair(self):
        poly = np.poly([1.0, 1.0, -2.0, 3.0])[::-1]
        q = CartanQuartic(poly[0], poly[1] / 4, poly[2] / 6, poly[3] / 4, poly[4])
        assert root_type(q).tag == "[2,1,1]"

    def test_triple_root_with_relaxed_clustering(self):
        # eigenvalue splitting of a triple root is ~ eps^(1/3), above the
        # default clustering radius, so classification needs a looser one
        poly = np.poly([1.0, 1.0, 1.0, -2.0])[::-1]
        q = CartanQuartic(poly[0], poly[1] / 4, poly[2] / 6, poly[3] / 4, poly[4])
        assert root_type(q, cluster_radius=1e-4).tag == "[3,1]"

    def test_nonzero_constant_quartics_always_double_double(self):
        for _ in range(30):
            k, lam = RNG.uniform(-5, 5, 2)
            if abs((k - 9 * lam) * (9 * k - lam)) < 1e-3 or abs(k - lam) < 1e-3:
                continue
            assert root_type(quartic_constant(k, lam).quartic).tag == "[2,2]"


class TestG2Check:
    def test_sphere_one_on_sphere_three(self):
        rep = g2_check(Sphere(1.0), 1.0 / 9.0, Sphere(1.0).profile_grid(10))
        assert rep.is_g2
        assert rep.max_scaled < 1e-10
        assert all(row.root_tag == "zero" for row in rep.rows)

    def test_g2_family_on_plane(self):
        fam = g2_family(0)
        rep = g2_check(fam, 0.0, fam.profile_grid(50, 0.5, 3.0))
        assert rep.is_g2

    def test_unequal_spheres_not_g2(self):
        rep = g2_check(Sphere(1.0), 0.25, Sphere(1.0).profile_grid(10))
        assert not rep.is_g2
        assert all(row.root_tag == "[2,2]" for row in rep.rows)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            g2_check(Sphere(1.0), 0.0, [])

    def test_report_rows_carry_points(self):
        grid = Sphere(1.0).profile_grid(4)
        rep = g2_check(Sphere(1.0), 0.0, grid)
        assert [row.point for row in rep.rows] == [tuple(p) for p in grid]


class TestNecessaryCondition:
    def test_nine_to_one(self):
        assert necessary_condition_residual(9.0, 1.0) == 0.0

    def test_flat_second_surface_branch(self):
        for k in (0.3, -2.0, 17.0):
            assert necessary_condition_residual(k, 0.0) == 0.0

    def test_frozen_arithmetic(self):
        assert necessary_condition_residual(2.0, 1.0) == pytest.approx(-119.0)


class TestHomothety:
    def test_coefficients_scale_homogeneously(self):
        # scaling the metric by s0^2 multiplies every A_i by s0^(-12)
        jet = RevolutionProfile(1.0, -3.0).jet((1.2, 0.0))
        lam = 0.7
        for s0 in (0.5, 2.0, 10.0):
            q = quartic_killing_case(jet, lam)
            qs = quartic_killing_case(jet.scaled(s0), lam / s0**2)
            assert np.allclose(np.array(qs), np.array(q) / s0**12, rtol=1e-10)

    def test_verdicts_invariant_under_scaling(self):
        fam = g2_family(0)
        grid = fam.profile_grid(20, 0.5, 2.5)
        for s0 in (0.5, 2.0, 10.0):
            scaled = fam.scaled(s0)
            scaled_grid = [(p[0] * s0, p[1]) for p in grid]
            rep = g2_check(scaled, 0.0, scaled_grid)
            assert rep.is_g2

    def test_root_tags_invariant_under_scaling(self):
        sph = Sphere(1.0)
        grid = sph.profile_grid(5)
        base = g2_check(sph, 0.25, grid)
        for s0 in (0.5, 2.0, 10.0):
            rep = g2_check(sph.scaled(s0), 0.25 / s0**2, grid)
            assert [r.root_tag for r in rep.rows] == [r.root_tag for r in base.rows]


class TestOdeSufficiency:
    def test_profile_solutions_have_vanishing_quartic(self):
        # any profile metric (beta + alpha rho^2)^2 drho^2 + rho^2 dpsi^2 with
        # alpha != 0 rolls on the plane with maximal symmetry
        for _ in range(10):
            alpha = RNG.uniform(0.2, 2.0) * RNG.choice([-1.0, 1.0])
            beta = RNG.uniform(-2.0, 2.0)
            fam = RevolutionProfile(alpha, beta)
            rho = RNG.uniform(0.5, 2.0)
            if abs(fam.h(rho)) < 0.1:
                continue
            jet = fam.jet((rho, 0.0))
            q = quartic_killing_case(jet, 0.0)
            assert q.max_abs < 1e-8 * vanishing_scale(jet.kappa, 0.0)


@pytest.mark.parametrize("rel, integrable", [(5e-11, True), (1e-13, True), (5e-10, False)])
def test_quartic_uses_the_distribution_threshold(rel, integrable):
    # one threshold (INTEGRABLE_TOL = 1e-10, relative) for the quartic and the frame
    from rolling_twistor.distribution5 import INTEGRABLE_TOL, _require_noninteg

    lam = 1.0 + rel
    assert (rel <= INTEGRABLE_TOL) == integrable
    if integrable:
        with pytest.raises(IntegrablePointError):
            quartic_killing_case(const_jet(1.0), lam)
        with pytest.raises(IntegrablePointError):
            _require_noninteg(1.0, lam)
    else:
        quartic_killing_case(const_jet(1.0), lam)
        _require_noninteg(1.0, lam)
