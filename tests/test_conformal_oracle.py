from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from references import (
    curvature_by_raised_riemann,
    full_stencil_derivatives,
    oracle_by_full_stencil,
    oracle_inverse_metric,
    riemann_symmetry_residual,
    weyl_trace_residual,
)

from rolling_twistor import conformal_oracle as co
from rolling_twistor.cartan_invariants import CartanQuartic, quartic_killing_case
from rolling_twistor.distribution5 import field_rows
from rolling_twistor.errors import (
    ChartOverflowError,
    DomainError,
    IntegrablePointError,
    RollingTwistorError,
)
from rolling_twistor.surfaces import (
    CustomRevolution,
    G2Family,
    Hyperbolic,
    Plane,
    RevolutionProfile,
    Sphere,
)

RNG = np.random.default_rng(321)

SPHERE = Sphere(1.0)
PLANE = Plane()


def sample_points(n):
    pts = []
    for _ in range(n):
        pts.append(
            np.array(
                [
                    RNG.uniform(0.7, 2.4),
                    RNG.uniform(-1, 1),
                    RNG.uniform(-1, 1),
                    RNG.uniform(-1, 1),
                    RNG.uniform(0, 2 * np.pi),
                ]
            )
        )
    return pts


def omega_coframe(s1, s2, p):
    """Rows omega_1..omega_5 of the oracle's adapted coframe, `_omega_rows`,
    at p or at each point of an (m, 5) stack, as `theta_coframe` reads them."""
    return co._stacked(lambda a: co._omega_rows(a, *co._surface_data(s1, s2, a)), p)


def displayed_frame(s1, s2, p):
    """The frame the displayed coframe dualizes: it differs from the bracket
    frame by a multiple of X3 in the X4 slot, which leaves every bracket span
    unchanged."""
    rows = field_rows(s1, s2, p)
    rows[3] -= s1.frame_data((p[0], p[1])).a2 * rows[2]
    return rows


class TestOmegaCoframe:
    def test_duality_against_distribution_frame(self):
        for p in sample_points(8):
            W = omega_coframe(SPHERE, PLANE, p)
            rows = displayed_frame(SPHERE, PLANE, p)
            assert np.max(np.abs(W @ rows.T - np.eye(5))) < 1e-9

    def test_duality_on_first_three_bracket_fields(self):
        # omega_1..omega_5 against X1, X2, X3 of the bracket frame: these
        # slots agree between the two frame conventions
        for p in sample_points(5):
            W = omega_coframe(SPHERE, PLANE, p)
            for j, X in enumerate(field_rows(SPHERE, PLANE, p)[:3]):
                pairing = W @ X
                expected = np.zeros(5)
                expected[j] = 1.0
                assert np.allclose(pairing, expected, atol=1e-9)

    def test_omega4_has_no_fiber_component(self):
        for p in sample_points(5):
            W = omega_coframe(SPHERE, PLANE, p)
            assert W[3, 4] == 0.0

    def test_integrable_pair_raises(self):
        with pytest.raises(IntegrablePointError):
            omega_coframe(PLANE, PLANE, np.zeros(5))


class TestThetaCoframe:
    def test_theta3_is_minus_omega3(self):
        for p in sample_points(5):
            W = omega_coframe(SPHERE, PLANE, p)
            T = co.theta_coframe(SPHERE, PLANE, p)
            assert np.allclose(T[2], -W[2], atol=1e-14)

    def test_determinant_nonzero(self):
        for p in sample_points(5):
            T = co.theta_coframe(SPHERE, PLANE, p)
            assert abs(np.linalg.det(T)) > 1e-6

    def test_constant_curvature_coefficients_reduce(self):
        # kappa1 = kappa11 = 0 for the sphere: theta4/theta5 coefficients
        # collapse to their curvature-only values
        p = np.array([1.0, 0.0, 0.2, 0.1, 0.7])
        W = omega_coframe(SPHERE, PLANE, p)
        T = co.theta_coframe(SPHERE, PLANE, p)
        j = SPHERE.jet((1.0, 0.0))
        k, lam, a2 = j.kappa, 0.0, j.a2
        q = a2
        r = a2**2 + 1.6 * k - 1.4 * lam
        t = -(a2**2 + 1.3 * k - 0.7 * lam)
        u = 0.3 * k - 0.7 * lam
        assert np.allclose(T[3], -W[0] + W[1] + q * W[2] + r * W[3], atol=1e-12)
        assert np.allclose(T[4], -W[1] - q * W[2] + t * W[3] + u * W[4], atol=1e-12)

    def test_coframe_dual_pairing(self):
        for p in sample_points(5):
            T = co.theta_coframe(SPHERE, PLANE, p)
            Y = np.linalg.inv(T)
            assert np.max(np.abs(T @ Y - np.eye(5))) < 1e-12


class TestMetric:
    def test_symmetry_exact(self):
        for p in sample_points(5):
            G = co.metric_components(SPHERE, PLANE, p)
            assert np.array_equal(G, G.T)

    def test_signature_three_two(self):
        for p in sample_points(8):
            ev = np.linalg.eigvalsh(co.metric_components(SPHERE, PLANE, p))
            assert int(np.sum(ev > 0)) == 3
            assert int(np.sum(ev < 0)) == 2

    def test_eta_structure(self):
        assert co.ETA5[0, 4] == 1.0 and co.ETA5[4, 0] == 1.0
        assert co.ETA5[1, 3] == -1.0 and co.ETA5[3, 1] == -1.0
        assert co.ETA5[2, 2] == pytest.approx(4.0 / 3.0)
        assert np.count_nonzero(co.ETA5) == 5

    def test_distribution_plane_is_totally_null(self):
        # D = span(Y4, Y5) must be null for the metric
        for p in sample_points(5):
            Y = np.linalg.inv(co.theta_coframe(SPHERE, PLANE, p))
            G = co.metric_components(SPHERE, PLANE, p)
            for a in (3, 4):
                for b in (3, 4):
                    assert abs(Y[:, a] @ G @ Y[:, b]) < 1e-9

    def test_transverse_plane_is_totally_null(self):
        for p in sample_points(3):
            Y = np.linalg.inv(co.theta_coframe(SPHERE, PLANE, p))
            G = co.metric_components(SPHERE, PLANE, p)
            for a in (0, 1):
                for b in (0, 1):
                    assert abs(Y[:, a] @ G @ Y[:, b]) < 1e-9


def curvature_at(metric, p, ginv=None):
    """The oracle's curvature pass, `_curvature_tiers`, at the one point p,
    given the metric on rows of chart points and its inverse ginv at p (by
    default the inverse of the metric there): the metric g, ginv and the
    Riemann, Ricci, scalar and Weyl curvatures of the Richardson blend, and
    `weyl_tiers`, the Weyl tensors of the steps h and h/2."""
    a = np.asarray(p, dtype=float)[None]
    g = np.asarray(metric(co._stencil(a).reshape(-1, 5)), dtype=float).reshape(1, 2, -1, 5, 5)
    ginv = np.linalg.inv(g[0, 0, 0]) if ginv is None else ginv
    riemann, ricci, scalar, w = (x[0] for x in co._curvature_tiers(g, ginv[None]))
    return SimpleNamespace(g=g[0, 0, 0], ginv=ginv, riemann=riemann[0], ricci=ricci[0],
                           scalar=scalar[0], weyl=w[0], weyl_tiers=(w[1], w[2]))


def oracle_curvature_at(s1, s2, p):
    """`curvature_at` of the oracle's metric, with the inverse it assembles with."""
    return curvature_at(lambda rows: co.metric_components(s1, s2, rows), p,
                        oracle_inverse_metric(s1, s2, p)[1])


class TestCurvature:
    def test_flat_metric_zero_curvature(self):
        const = np.diag([1.0, 2.0, -1.0, 3.0, -2.0])
        bundle = curvature_at(lambda rows: np.broadcast_to(const, (len(rows), 5, 5)), np.zeros(5))
        assert np.max(np.abs(bundle.riemann)) < 1e-12
        assert np.max(np.abs(bundle.weyl)) < 1e-12
        assert bundle.scalar == pytest.approx(0.0, abs=1e-12)

    def test_round_sphere_block_sectional_curvature(self):
        # unit 2-sphere block + flat 3d block: R_{0101}/(g00 g11) = 1
        def metric(rows):
            g = np.tile(np.eye(5), (len(rows), 1, 1))
            g[:, 1, 1] = np.sin(rows[:, 0]) ** 2
            return g

        p = np.array([1.1, 0.4, 0.0, 0.0, 0.0])
        bundle = curvature_at(metric, p)
        sec = bundle.riemann[0, 1, 0, 1] / (bundle.g[0, 0] * bundle.g[1, 1])
        assert sec == pytest.approx(1.0, abs=1e-5)

    def test_riemann_symmetries_and_weyl_traces(self):
        p = np.array([1.2, 0.1, 0.3, -0.2, 0.8])
        bundle = oracle_curvature_at(SPHERE, PLANE, p)
        scale = np.max(np.abs(bundle.riemann)) + 1.0
        assert riemann_symmetry_residual(bundle) < 1e-4 * scale
        assert weyl_trace_residual(bundle) < 1e-4 * scale
        assert np.max(np.abs(bundle.ricci - bundle.ricci.T)) < 1e-4 * scale

    def test_nine_to_one_pair_conformally_flat(self):
        p = np.array([1.0, 0.1, 1.3, 0.2, 0.5])
        bundle = oracle_curvature_at(Sphere(1.0), Sphere(3.0), p)
        w_h, w_h2 = bundle.weyl_tiers
        assert co._frobenius(bundle.weyl) < 10.0 * max(np.max(np.abs(w_h - w_h2)), 1e-14)

    def test_weyl_tiers_are_the_two_steps(self):
        # the tiers are the Weyl tensors at steps h and h/2, and the bundle's
        # tensors the Richardson blend of their derivatives
        p = np.array([1.2, 0.1, 0.3, -0.2, 0.8])
        bundle = oracle_curvature_at(SPHERE, PLANE, p)
        w_h, w_h2 = bundle.weyl_tiers
        assert w_h.shape == w_h2.shape == bundle.weyl.shape == (5, 5, 5, 5)
        assert not np.array_equal(w_h, w_h2)
        # O(h^2) errors: the blend is closer to the finer tier than the tiers are to each other
        assert np.max(np.abs(bundle.weyl - w_h2)) < np.max(np.abs(w_h - w_h2))


@st.composite
def metric_jets(draw):
    """(g0, dg, ddg) of a split-signature 5-metric: g0 = 2^a A^T eta A with
    A = U + 6 I, |U_ij| <= 1, so that A is well conditioned, and eta of
    signature (3, 2); dg symmetric in its last two indices and ddg in both
    index pairs, scaled by 2^b and 2^c."""
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    a, b, c = (draw(st.integers(-30, 30)) for _ in range(3))
    A = draw(arrays(float, (5, 5), elements=unit)) + 6.0 * np.eye(5)
    g0 = 2.0**a * A.T @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0]) @ A
    dg = draw(arrays(float, (5, 5, 5), elements=unit)) * 2.0**b
    ddg = draw(arrays(float, (5, 5, 5, 5), elements=unit)) * 2.0**c
    dg = dg + np.swapaxes(dg, -1, -2)
    ddg = ddg + np.swapaxes(ddg, -1, -2)
    return 0.5 * (g0 + g0.T), dg, ddg + np.swapaxes(ddg, 0, 1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(metric_jets())
def test_assembly_matches_the_raised_riemann_route(jets):
    # the lowered formula against the route through d(g^-1), d(Gamma) and
    # R^i_jkl, to rounding relative to the inputs' curvature scale
    g0, dg, ddg = jets
    ginv = np.linalg.inv(g0)
    riem, ricci, scalar, weyl = co._assemble_curvature(co._Derivs(g0, dg, ddg), ginv)
    _, riem_ref, ricci_ref, scalar_ref, weyl_ref = curvature_by_raised_riemann(g0, dg, ddg, ginv)
    gi = np.max(np.abs(ginv))
    cond = np.max(np.abs(g0)) * gi
    bound = 64 * np.finfo(float).eps * cond * (np.max(np.abs(ddg)) + gi * np.max(np.abs(dg)) ** 2)
    assert np.max(np.abs(riem - riem_ref)) <= bound
    assert np.max(np.abs(weyl - weyl_ref)) <= bound
    assert np.max(np.abs(ricci - ricci_ref)) <= bound * gi
    assert abs(scalar - scalar_ref) <= bound * gi**2
    assert np.array_equal(riem, -np.swapaxes(riem, -1, -2))
    assert np.array_equal(weyl, -np.swapaxes(weyl, -1, -2))
    assert np.max(np.abs(np.einsum("ik,ijkl->jl", ginv, weyl))) <= bound * gi


class TestCartanFromWeyl:
    def test_projective_match_with_closed_form(self):
        for p in sample_points(3):
            ocl = co.cartan_from_weyl(SPHERE, PLANE, p)
            closed = quartic_killing_case(SPHERE.jet((p[0], p[1])), 0.0)
            assert co.proportionality_residual(ocl.quartic, closed) < 1e-3

    def test_one_coframe_call_on_thirty_eight_rows_per_point(self, monkeypatch):
        # one theta coframe call per block of POINTS_PER_PASS points, on the
        # 38-row stencils of its points (19 rows at each step), whose zero-step
        # rows give the duals: no call on the bare points, none of the metric
        metric_calls, theta_calls = [], []
        metric, theta = co.metric_components, co.theta_coframe

        def counting_metric(s1, s2, p):
            metric_calls.append(np.shape(p))
            return metric(s1, s2, p)

        def counting_theta(s1, s2, p):
            theta_calls.append(np.array(p))
            return theta(s1, s2, p)

        monkeypatch.setattr(co, "metric_components", counting_metric)
        monkeypatch.setattr(co, "theta_coframe", counting_theta)
        points = np.array([[1.1, 0.0, 0.0, 0.0, 0.3], [1.3, 0.1, 0.2, 0.0, 0.4],
                           [0.9, 0.0, 0.1, 0.5, 2.0]])
        table = _rows_in_charts(SPHERE, PLANE, co.POINTS_PER_PASS + 1, seed=29)
        for p, blocks in ((points[0], [points[:1]]), (points, [points]),
                          (table, [table[:-1], table[-1:]])):
            metric_calls.clear()
            theta_calls.clear()
            co.cartan_from_weyl(SPHERE, PLANE, p)
            assert metric_calls == []
            assert [np.shape(rows) for rows in theta_calls] == [(38 * len(b), 5) for b in blocks]
            for rows, b in zip(theta_calls, blocks):
                assert _same_bits(rows, co._stencil(b).reshape(-1, 5))

    def test_nine_to_one_below_noise_floor(self):
        p = np.array([1.0, 0.1, 1.3, 0.2, 0.5])
        ocl = co.cartan_from_weyl(Sphere(1.0), Sphere(3.0), p)
        assert ocl.weyl_norm < 10.0 * max(ocl.weyl_noise, 1e-14)

    def test_g2_family_below_noise_floor(self):
        p = np.array([1.0, 0.2, 0.3, -0.1, 0.9])
        ocl = co.cartan_from_weyl(G2Family(1), PLANE, p)
        assert ocl.weyl_norm < 10.0 * max(ocl.weyl_noise, 1e-14)

    def test_vanishing_equivalence_both_directions(self):
        # closed-form coefficients vanish iff the full Weyl tensor does,
        # each side against its own noise floor
        cases = [
            (SPHERE, PLANE, np.array([1.2, 0.1, 0.4, -0.3, 0.7]), False),
            (Sphere(1.0), Sphere(3.0), np.array([1.0, 0.1, 1.3, 0.2, 0.5]), True),
            (G2Family(0), PLANE, np.array([1.3, 0.2, 0.1, 0.0, 0.4]), True),
        ]
        for s1, s2, p, expect_flat in cases:
            ocl = co.cartan_from_weyl(s1, s2, p)
            lam = s2.jet((p[2], p[3])).kappa
            jet = s1.jet((p[0], p[1]))
            closed = quartic_killing_case(jet, lam)
            from rolling_twistor.cartan_invariants import vanishing_scale

            closed_zero = closed.max_abs < 1e-8 * vanishing_scale(jet.kappa, lam)
            weyl_zero = ocl.weyl_norm < 10.0 * max(ocl.weyl_noise, 1e-14)
            assert closed_zero == weyl_zero == expect_flat


class TestDerivativeTermsAgainstOracle:
    """Rolling a revolution surface on a curved constant-curvature surface
    activates every derivative term of the closed-form coefficients (the
    sphere-on-plane check has kappa1 = 0 and the distinguished families
    vanish identically, so neither exercises them)."""

    @pytest.mark.parametrize(
        "s1,s2,p",
        [
            (G2Family(1), Sphere(1.0), np.array([0.9, 0.3, 1.1, -0.2, 0.8])),
            (G2Family(0), Sphere(3.0), np.array([1.4, 0.1, 0.9, 0.4, 2.1])),
        ],
    )
    def test_full_jet_proportionality(self, s1, s2, p):
        jet = s1.jet((p[0], p[1]))
        lam = s2.jet((p[2], p[3])).kappa
        closed = quartic_killing_case(jet, lam)
        ocl = co.cartan_from_weyl(s1, s2, p)
        assert co.proportionality_residual(ocl.quartic, closed) < 1e-3

    def test_hyperbolic_second_surface(self):
        s1 = RevolutionProfile(1.0, -5.0)
        s2 = Hyperbolic(1.0)
        p = np.array([1.2, 0.0, 0.8, 0.1, 1.3])
        closed = quartic_killing_case(s1.jet((1.2, 0.0)), -1.0)
        ocl = co.cartan_from_weyl(s1, s2, p)
        assert co.proportionality_residual(ocl.quartic, closed) < 1e-3

    def test_near_integrable_point_is_flagged_by_noise(self):
        # kappa - lambda ~ 0.016 here: the coframe's (kappa-lambda)^-2
        # factors amplify the FD error and the oracle must say so itself
        s1, s2 = G2Family(0), Sphere(2.0)
        p = np.array([1.4, 0.1, 0.9, 0.4, 2.1])
        ocl = co.cartan_from_weyl(s1, s2, p)
        assert np.max(ocl.noise) > np.max(np.abs(np.array(ocl.quartic)))


class TestLargeCurvature:
    def test_weyl_norm_scales_as_alpha_squared(self):
        # the profile's metric and Weyl tensor scale with alpha, and the
        # norm's ratio to alpha^2 must not drift as alpha grows
        s2 = Sphere(1.0)
        p2 = s2.chart_point(sum(s2.profile_range()) / 2.0)
        p = np.array([0.5, 0.0, p2[0], p2[1], 0.3])
        alphas = [10.0**k for k in range(10, 71, 5)]
        ratios = np.array([co.cartan_from_weyl(RevolutionProfile(a, 1.0), s2, p).weyl_norm / a**2
                           for a in alphas])
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-8

    def test_a_finite_weyl_tensor_whose_norm_overflows_is_an_error(self):
        # the chart, not the curvature, grows with theta
        s1, p = Hyperbolic(1.0), np.array([150.0, 0.0, 0.0, 0.0, 0.3])
        bundle = oracle_curvature_at(s1, PLANE, p)
        assert np.isfinite(bundle.weyl).all()
        with np.errstate(over="ignore"):
            assert np.isinf(co._frobenius(bundle.weyl))
        with pytest.raises(DomainError, match="not finite at kappa = -1.0, lambda = 0.0"):
            co.cartan_from_weyl(s1, PLANE, p)


class TestCompareProjective:
    def test_scalar_multiple(self):
        qa = CartanQuartic(1.0, 1.0, 4.0 / 3.0, 2.0, 4.0)
        qb = CartanQuartic(3.0, 3.0, 4.0, 6.0, 12.0)
        assert co.proportionality_residual(qa, qb) <= 1e-12

    def test_non_proportional(self):
        qa = CartanQuartic(1.0, 0.0, 0.0, 0.0, 0.0)
        qb = CartanQuartic(0.0, 0.0, 0.0, 0.0, 1.0)
        assert co.proportionality_residual(qa, qb) > 1e-6

    def test_zero_pairs(self):
        z = CartanQuartic(0.0, 0.0, 0.0, 0.0, 0.0)
        nz = CartanQuartic(1.0, 0.0, 0.0, 0.0, 0.0)
        assert co.proportionality_residual(z, z) <= 1e-12
        assert co.proportionality_residual(z, nz) > 1e-12

    def test_oracle_vs_closed_form_boolean(self):
        p = np.array([1.3, 0.0, 0.1, 0.2, 0.4])
        ocl = co.cartan_from_weyl(SPHERE, PLANE, p)
        closed = quartic_killing_case(SPHERE.jet((1.3, 0.0)), 0.0)
        assert co.proportionality_residual(ocl.quartic, closed) <= 1e-3


STACK_PAIRS = [
    (Sphere(1.0), PLANE),
    (Sphere(0.7), Plane(2.5)),
    (Plane(0.5), Sphere(1.0)),
    (Hyperbolic(0.8), Sphere(3.0)),
    (G2Family(-1), PLANE),
    (G2Family(0), Sphere(2.0)),
    (G2Family(1), Hyperbolic(1.5)),
    (RevolutionProfile(1.0, -5.0), Hyperbolic(1.0)),
    (RevolutionProfile(1.0, 0.0).scaled(0.7), Plane(3.0)),
    (CustomRevolution(lambda r: 1.0 + 0.3 * r * r * r, "cubic"), Sphere(1.5)),
]


ORACLE_PAIRS = [
    (Sphere(1.0), PLANE),
    (Plane(0.5), Sphere(1.0)),
    (Hyperbolic(0.8), Sphere(3.0)),
    (Sphere(1.3), Hyperbolic(1.1)),
    (Sphere(1.0), Sphere(3.0)),
    (G2Family(-1), PLANE),
    (G2Family(0), Sphere(2.0)),
    (G2Family(1), Hyperbolic(1.5)),
    (RevolutionProfile(1.0, -5.0), Hyperbolic(1.0)),
    (RevolutionProfile(0.7, -1.3), Sphere(0.8)),
]

# every pair above, once
CATALOG_PAIRS = list({(a.spec_string(), b.spec_string()): (a, b)
                      for a, b in STACK_PAIRS + ORACLE_PAIRS}.values())


def _rows_in_charts(s1, s2, n, seed):
    """n configuration points inside both charts, with the fiber angles
    0, -0 and pi among them."""
    rng = np.random.default_rng(seed)
    (x0, x1), (u0, u1) = (0.5, 2.0) if s1.kind == "custom" else s1.profile_range(), s2.profile_range()
    phi = rng.uniform(-7.0, 7.0, n)
    phi[:3] = 0.0, -0.0, np.pi
    return np.column_stack([rng.uniform(x0, x1, n), rng.uniform(-3, 3, n),
                            rng.uniform(u0, u1, n), rng.uniform(-3, 3, n), phi])


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestStackedMetric:
    """A stack of points is evaluated in one pass; each row must round as it
    does on its own."""

    @pytest.mark.parametrize("s1, s2", STACK_PAIRS, ids=lambda s: s.spec_string())
    def test_stacked_metric_equals_each_row_on_its_own(self, s1, s2):
        rows = _rows_in_charts(s1, s2, 24, seed=11)
        stencil = co._stencil(rows[3:4]).reshape(-1, 5)
        for stack in (rows, stencil):
            G = co.metric_components(s1, s2, stack)
            assert G.shape == (len(stack), 5, 5)
            each = np.array([co.metric_components(s1, s2, row) for row in stack])
            assert _same_bits(G, each)

    @pytest.mark.parametrize("s1, s2", CATALOG_PAIRS, ids=lambda s: s.spec_string())
    def test_metric_does_not_depend_on_y_or_v(self, s1, s2):
        # the metric is a function of (x, u, phi) alone: each surface's frame
        # is invariant under its rotation, so shifting y and v changes no bit
        rows = _rows_in_charts(s1, s2, 24, seed=17)
        G = co.metric_components(s1, s2, rows)
        rng = np.random.default_rng(19)
        for shift in (rng.uniform(-50.0, 50.0, (2, 24)), [[1e6], [-3e9]]):
            moved = rows.copy()
            moved[:, [1, 3]] = moved[:, [1, 3]] + np.transpose(shift)
            assert _same_bits(co.metric_components(s1, s2, moved), G)

    @pytest.mark.parametrize("s1, s2", STACK_PAIRS[:4], ids=lambda s: s.spec_string())
    def test_stacked_coframes_equal_each_row_on_its_own(self, s1, s2):
        rows = _rows_in_charts(s1, s2, 12, seed=5)
        W = omega_coframe(s1, s2, rows)
        T = co.theta_coframe(s1, s2, rows)
        assert _same_bits(W, np.array([omega_coframe(s1, s2, r) for r in rows]))
        assert _same_bits(T, np.array([co.theta_coframe(s1, s2, r) for r in rows]))

    def test_stencil_order(self):
        # every row of both steps: the point, +-h along x, u and phi, then
        # +-e, +-f for the pairs (x, u), (x, phi), (u, phi), each row as
        # the point plus or minus its step rounds, signed zeros included;
        # y and v are never stepped
        p = np.array([1.0, -0.0, 0.5, 0.25, -0.0])
        q = np.array([0.0, 0.3, -0.0, 0.0, 1.0])
        stencils = co._stencil(np.array([p, q]))
        assert stencils.shape == (2, 2, 19, 5)
        for point, tiers in zip((p, q), stencils):
            for h, rows in zip((co.FD_STEP, co.FD_STEP / 2.0), tiers):
                step = {k: np.where(np.arange(5) == k, h, 0.0) for k in (0, 2, 4)}
                expected = [point]
                for k in (0, 2, 4):
                    expected += [point + step[k], point - step[k]]
                for k, l in ((0, 2), (0, 4), (2, 4)):
                    e, f = step[k] + step[l], step[k] - step[l]
                    expected += [point + e, point - e, point + f, point - f]
                assert _same_bits(rows[0], point)
                assert _same_bits(rows, np.array(expected))
                assert np.array_equal(rows[:, [1, 3]], np.broadcast_to(point[[1, 3]], (19, 2)))

class TestStencilErrors:
    """A stencil that leaves the chart or meets kappa = lambda raises the
    error of its first failing row, in the order the rows are differenced:
    step h before step h/2; the centre, then p +- h e_k, then the mixed rows."""

    def _first_failure(self, s1, s2, p):
        rows = co._stencil(p[None]).reshape(-1, 5)
        for row in rows:
            try:
                co.metric_components(s1, s2, row)
            except DomainError as exc:
                return type(exc), str(exc)
        raise AssertionError("no stencil row fails")

    def _oracle_failure(self, s1, s2, p):
        with pytest.raises(DomainError) as info:
            co.cartan_from_weyl(s1, s2, p)
        return type(info.value), str(info.value)

    def test_chart_edge_inside_the_stencil(self):
        s1 = G2Family(-1)
        p = np.array([1.0008, 0.1, 0.2, -0.3, 0.3])
        expected = (
            DomainError,
            f"the eps=-1 family is restricted to rho > 1 (frame degenerates at 1), got {1.0008 - 1e-3}",
        )
        assert self._first_failure(s1, PLANE, p) == expected
        assert self._oracle_failure(s1, PLANE, p) == expected

    def test_integrable_row_inside_the_stencil(self):
        # lambda equals kappa at rho = 1 + h only: the row p + h e_0 fails
        s1 = G2Family(1)
        rho = 1.0 + 1e-3
        s2 = Sphere(1.0 / np.sqrt(s1.frame_data((rho, 0.0)).kappa))
        p = np.array([1.0, 0.1, 1.2, -0.3, 0.3])
        kappa, lam = s1.frame_data((rho, 0.1)).kappa, s2.frame_data((1.2, -0.3)).kappa
        expected = (
            IntegrablePointError,
            f"equal curvatures (kappa = {kappa}, lambda = {lam}): distribution is integrable",
        )
        assert self._first_failure(s1, s2, p) == expected
        assert self._oracle_failure(s1, s2, p) == expected

    @pytest.mark.parametrize("integrable_rho, first", [(1.0 - 1e-3, IntegrablePointError),
                                                       (1.0 + 5e-4, DomainError)])
    def test_the_earlier_of_two_failing_rows_wins(self, integrable_rho, first):
        # the second surface's chart ends inside the stencil (row p - h e_u,
        # the fifth), and kappa = lambda at one profile row: the second row
        # of step h, or the second of step h/2
        s1 = G2Family(1)
        s2 = Sphere(1.0 / np.sqrt(s1.frame_data((integrable_rho, 0.0)).kappa))
        p = np.array([1.0, 0.1, 0.0008, -0.3, 0.3])
        failure = self._oracle_failure(s1, s2, p)
        assert failure == self._first_failure(s1, s2, p)
        assert failure[0] is first

    def test_overflow_names_the_curvatures(self):
        with pytest.raises(DomainError, match=r"overflows at kappa = 1e\+200, lambda = 0.0"):
            co.cartan_from_weyl(Sphere(1e-100), PLANE, np.array([1.0, 0.0, 0.0, 0.0, 0.3]))

    def test_infinite_frame_entry_is_the_overflow_error(self):
        # r sinh(theta) overflows: the hyperbolic chart's overflow error,
        # naming theta, where the coframe once divided a float by zero
        with pytest.raises(ChartOverflowError, match=r"overflows at theta = 709.0 \(float"):
            co.cartan_from_weyl(Hyperbolic(10.0), PLANE, np.array([709.0, 0.0, 0.0, 0.0, 0.3]))

    def test_kappa1_squared_overflow_names_the_curvatures(self):
        # omega is finite here, but kappa1**2 in theta overflows: the
        # coframe's overflow error, as omega raises it
        s1 = CustomRevolution(lambda r: 1.0 + 1e155 * (r - 1.0) ** 2, "steep")
        p = np.array([1.0, 0.0, 1.0, 0.0, 0.3])
        assert np.isfinite(omega_coframe(s1, Sphere(1.0), p)).all()
        with pytest.raises(DomainError, match="overflows at kappa = 0.0, lambda = 1.0"):
            co.cartan_from_weyl(s1, Sphere(1.0), p)

    def test_singular_coframe_names_the_point(self):
        # the theta coframe is singular in floating point at this rho; a
        # stack raises the error of that point, not numpy's LinAlgError
        s1, s2 = RevolutionProfile(1.0, -5.0), Hyperbolic(1.0)
        bad = [3.89210064e-139, 0.0, 1.15, 0.0, 1.0]
        message = (r"the oracle's theta coframe is singular at \(x, y, u, v, phi\)"
                   r" = \(3.89210064e-139, 0.0, 1.15, 0.0, 1.0\)")
        with pytest.raises(DomainError, match=message):
            co.cartan_from_weyl(s1, s2, np.array(bad))
        stack = np.array([[0.5, 0.0, 1.15, 0.0, 1.0], bad, [0.7, -0.0, 1.15, 0.0, 1.0]])
        with pytest.raises(DomainError, match=message):
            co.cartan_from_weyl(s1, s2, stack)


    @pytest.mark.parametrize("s1, x", [(Sphere(1.0), 0.4), (G2Family(-1), 1.2)])
    def test_singular_metric_names_the_point(self, s1, x):
        # at plane scale 1e-300 the metric's components fall below the
        # float range, and its inverse from the duals above it, so the Weyl
        # tensor is not finite; a stack raises the error of its first point
        s2 = Plane(1e-300)
        points = np.array([[x, 0.0, 0.0, 0.0, 0.3], [x + 0.1, 0.0, 0.0, 0.0, 0.3]])
        kappa = {0.4: "1.0", 1.2: "23.478587528174312"}[x]
        message = (rf"^the Weyl tensor of the oracle metric or its norm is not finite at"
                   rf" kappa = {kappa}, lambda = 0.0, \(x, y, u, v, phi\)"
                   rf" = \({x}, 0.0, 0.0, 0.0, 0.3\)$")
        for p in (points[0], points):
            with pytest.raises(DomainError, match=message):
                co.cartan_from_weyl(s1, s2, p)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def oracle_stacks(draw):
    """A catalog pair and an (m, 5) stack of configuration points, whose
    profile coordinates may leave the first surface's chart or meet its
    degenerate and integrable points; 0.0 and -0.0 among the others."""
    s1, s2 = draw(st.sampled_from(ORACLE_PAIRS))
    (x0, x1), (u0, u1) = s1.profile_range(), s2.profile_range()
    signed_zero = st.sampled_from((0.0, -0.0))
    m = draw(st.one_of(st.integers(1, 4), st.integers(5, 2 * co.POINTS_PER_PASS + 1)))
    rows = [[draw(st.one_of(_floats(x0, x1), _floats(x0 - 1.0, x1 + 1.0))),
             draw(st.one_of(signed_zero, _floats(-3.0, 3.0))),
             draw(_floats(u0, u1)),
             draw(st.one_of(signed_zero, _floats(-3.0, 3.0))),
             draw(st.one_of(signed_zero, _floats(-7.0, 7.0)))] for _ in range(m)]
    return s1, s2, np.array(rows)


def _fields(ocl, i=None):
    """repr of the fields of an OracleQuartic, or of row i of a stacked one."""
    row = (lambda x: x) if i is None else (lambda x: x[i])
    return (repr([float(row(a)) for a in ocl.quartic]), repr(row(ocl.noise).tolist()),
            repr(float(row(ocl.weyl_norm))), repr(float(row(ocl.weyl_noise))))


def _assert_stack_is_each_point(s1, s2, rows):
    each, error = [], None
    for row in rows:
        try:
            each.append(co.cartan_from_weyl(s1, s2, row))
        except (RollingTwistorError, ArithmeticError, ValueError) as exc:
            error = exc
            break
    if error is None:
        stacked = co.cartan_from_weyl(s1, s2, rows)
        assert [_fields(stacked, i) for i in range(len(rows))] == [_fields(o) for o in each]
    else:
        with pytest.raises(type(error)) as info:
            co.cartan_from_weyl(s1, s2, rows)
        assert type(info.value) is type(error)
        assert str(info.value) == str(error)
    return error


@settings(derandomize=True, max_examples=60, deadline=None)
@given(oracle_stacks())
def test_stacked_oracle_equals_each_point(case):
    # every field by repr, or the first failing point's error
    _assert_stack_is_each_point(*case)


@pytest.mark.parametrize("s1, s2", [(Sphere(1.0), PLANE), (G2Family(0), Sphere(2.0))],
                         ids=lambda s: s.spec_string())
def test_a_table_of_many_points_equals_each_point(s1, s2):
    # 40 points: five blocks, and more Weyl tensors than one array pass may
    # hold without numpy changing their layout (and einsum its sums)
    _assert_stack_is_each_point(s1, s2, _rows_in_charts(s1, s2, 40, seed=23))


@pytest.mark.parametrize(
    "s1, s2, rho, message",
    [
        # a Weyl tensor that is not finite at the first point, and r sinh(theta)
        # overflowing at the last
        (Hyperbolic(10.0), PLANE, (700.0, 704.5, 709.0), "kappa = -0.01, lambda = 0.0"),
        # a Weyl tensor that is not finite at every point (at alpha = 1e60 it is
        # finite and the oracle answers)
        (RevolutionProfile(1e78, 1.0), Sphere(1.0), (0.5, 0.6666666666666666, 0.8333333333333333),
         "lambda = 1.0"),
    ],
)
def test_stacked_oracle_raises_the_first_failing_points_error(s1, s2, rho, message):
    p2 = s2.chart_point(sum(s2.profile_range()) / 2.0)
    rows = np.array([[x, 0.0, p2[0], p2[1], 0.3] for x in rho])
    error = _assert_stack_is_each_point(s1, s2, rows)
    assert isinstance(error, DomainError)
    assert message in str(error)
    for i in range(len(rows)):  # and each later stack's first failing point
        _assert_stack_is_each_point(s1, s2, rows[i:])


class TestResolvedSteps:
    """Far out in a coordinate, p + h rounds to a row that is not a step h
    from p; the oracle refuses such a point rather than divide by h."""

    @pytest.mark.parametrize("phi", [1e8, 1e16, -2.0**23])
    def test_a_lost_step_names_the_coordinate(self, phi):
        p = np.array([1.0, 0.0, 0.0, 0.0, phi])
        message = (rf"^the oracle's finite-difference steps are lost to rounding at phi = {phi!r},"
                   rf" \(x, y, u, v, phi\) = \(1.0, 0.0, 0.0, 0.0, {phi!r}\)$")
        with pytest.raises(DomainError, match=message.replace("+", r"\+")):
            co.cartan_from_weyl(SPHERE, PLANE, p)

    def test_the_gate_starts_at_two_to_the_twenty_three(self):
        # below 2^23 the rounding of p +- h/2 moves the step by less than
        # 1e-6 of it; from 2^23 on by 0.46 ulp, 8.5e-10 or 1.7e-6 of h/2
        below = np.nextafter(2.0**23, 0.0)
        ocl = co.cartan_from_weyl(SPHERE, PLANE, np.array([1.0, 0.0, 0.0, 0.0, below]))
        assert np.isfinite(np.array(ocl.quartic)).all()
        with pytest.raises(DomainError, match="lost to rounding at phi = 8388608.0"):
            co.cartan_from_weyl(SPHERE, PLANE, np.array([1.0, 0.0, 0.0, 0.0, 2.0**23]))

    def test_y_and_v_are_not_gated(self):
        # the stencil does not step them, so their size costs no precision
        p = np.array([1.0, 1e300, 0.0, -1e300, 0.3])
        q = np.array([1.0, 0.0, 0.0, 0.0, 0.3])
        assert _fields(co.cartan_from_weyl(SPHERE, PLANE, p)) == _fields(
            co.cartan_from_weyl(SPHERE, PLANE, q))

    def test_the_points_own_error_comes_first(self):
        # a point outside the sphere's chart, whose steps are also lost
        with pytest.raises(DomainError, match="sphere polar chart requires 0 < theta < pi"):
            co.cartan_from_weyl(SPHERE, PLANE, np.array([1e8, 0.0, 0.0, 0.0, 0.3]))


@pytest.mark.parametrize("s1, s2", ORACLE_PAIRS, ids=lambda s: s.spec_string())
def test_y_and_v_derivatives_are_exact_zeros(s1, s2):
    # and every other derivative is the full stencil's, bit for bit
    rows = _rows_in_charts(s1, s2, 6, seed=31)

    def metric(r):
        return co.metric_components(s1, s2, r)

    d = co._metric_derivatives(metric(co._stencil(rows).reshape(-1, 5)).reshape(6, 2, 19, 5, 5))
    zeros = np.zeros((6, 2, 5, 5, 5, 5))
    assert _same_bits(d.dg[:, :, [1, 3]], zeros[:, :, :2, 0])
    assert _same_bits(d.ddg[:, :, [1, 3]], zeros[:, :, :2])
    assert _same_bits(d.ddg[:, :, :, [1, 3]], zeros[:, :, :, :2])
    xup = np.ix_([0, 2, 4], [0, 2, 4])
    for i, p in enumerate(rows):
        full = full_stencil_derivatives(metric, p)
        assert _same_bits(d.g0[i], full.g0)
        assert _same_bits(d.dg[i][:, [0, 2, 4]], full.dg[:, [0, 2, 4]])
        assert _same_bits(d.ddg[i][(slice(None), *xup)], full.ddg[(slice(None), *xup)])


TRIM_PAIRS = [
    (Sphere(1.0), PLANE),
    (Sphere(0.6), Plane(2.0)),
    (Sphere(1.3), Hyperbolic(1.1)),
    (Sphere(2.0), Hyperbolic(0.5)),
    (G2Family(-1), PLANE),
    (G2Family(0), PLANE),
    (G2Family(1), PLANE),
    (G2Family(0), Sphere(2.0)),
    (G2Family(1), Hyperbolic(1.5)),
    (RevolutionProfile(1.0, -5.0), Hyperbolic(1.0)),
    (RevolutionProfile(0.7, -1.3), Sphere(0.8)),
    (RevolutionProfile(2.0, 1.0), PLANE),
]


def _near(*edges):
    """A float within 2 FD_STEP of one of the edges."""
    step = 2.0 * co.FD_STEP
    return st.tuples(st.sampled_from(edges), _floats(-step, step)).map(sum)


@st.composite
def oracle_points(draw, near_ends=False):
    """A sphere/plane, sphere/hyperbolic, g2: or profile: pair and a chart
    point, with y and v up to 1e9.  Its profile coordinates lie in the
    surfaces' default ranges, which the CLI's grids sample; with near_ends,
    they may also lie outside them or within two steps of a chart's end (0,
    1 or pi)."""
    s1, s2 = draw(st.sampled_from(TRIM_PAIRS))
    (x0, x1), (u0, u1) = s1.profile_range(), s2.profile_range()
    x, u = _floats(x0, x1), _floats(u0, u1)
    if near_ends:
        x = st.one_of(x, _floats(x0 - 1.0, x1 + 1.0), _near(0.0, 1.0, np.pi))
        u = st.one_of(u, _near(0.0, np.pi))
    signed_zero = st.sampled_from((0.0, -0.0))
    angle = st.one_of(signed_zero, _floats(-3.0, 3.0), _floats(-1e9, 1e9))
    p = [draw(x), draw(angle), draw(u), draw(angle), draw(st.one_of(signed_zero, _floats(-7.0, 7.0)))]
    return s1, s2, np.array(p)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (RollingTwistorError, ArithmeticError, ValueError) as exc:
        return None, (type(exc), str(exc))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(oracle_points())
def test_trimmed_stencil_matches_the_full_stencil(case):
    # the same error, or the same quartic to a tenth of the full stencil's
    # noise floor (the CLI's noise_floor column)
    s1, s2, p = case
    full, full_error = _outcome(oracle_by_full_stencil, s1, s2, p)
    ocl, error = _outcome(co.cartan_from_weyl, s1, s2, p)
    assert error == full_error
    if error is None:
        quartic, noise = full[0], full[1]
        assert np.all(np.abs(np.array(ocl.quartic) - quartic) <= 0.1 * np.max(noise))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(oracle_points(near_ends=True))
def test_trimmed_stencil_fails_as_the_full_stencil(case):
    # the first failing row of a stencil that leaves a chart is the full
    # stencil's; a few steps from a chart's end the y and v rows of the full
    # stencil carried rounding noise above its own noise floor, so only the
    # outcome is compared there
    s1, s2, p = case
    full, full_error = _outcome(oracle_by_full_stencil, s1, s2, p)
    ocl, error = _outcome(co.cartan_from_weyl, s1, s2, p)
    assert error == full_error
    if error is None:
        assert np.isfinite(np.array(ocl.quartic)).all()
