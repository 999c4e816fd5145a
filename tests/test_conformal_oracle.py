import numpy as np
import pytest
from references import riemann_symmetry_residual, weyl_trace_residual

from rolling_twistor import conformal_oracle as co
from rolling_twistor.cartan_invariants import CartanQuartic, quartic_killing_case
from rolling_twistor.distribution5 import frame_fields
from rolling_twistor.errors import DomainError, IntegrablePointError
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


def displayed_frame(s1, s2, p):
    """The frame the displayed coframe dualizes: it differs from the bracket
    frame by a multiple of X3 in the X4 slot, which leaves every bracket span
    unchanged."""
    X1, X2, X3, X4, X5 = frame_fields(s1, s2)
    a2 = s1.frame_data((p[0], p[1])).a2
    return np.array([X1(p), X2(p), X3(p), X4(p) - a2 * X3(p), X5(p)])


class TestOmegaCoframe:
    def test_duality_against_distribution_frame(self):
        for p in sample_points(8):
            W = co.omega_coframe(SPHERE, PLANE, p)
            rows = displayed_frame(SPHERE, PLANE, p)
            assert np.max(np.abs(W @ rows.T - np.eye(5))) < 1e-9

    def test_duality_on_first_three_bracket_fields(self):
        # omega_1..omega_5 against X1, X2, X3 of the bracket frame: these
        # slots agree between the two frame conventions
        X1, X2, X3, _, _ = frame_fields(SPHERE, PLANE)
        for p in sample_points(5):
            W = co.omega_coframe(SPHERE, PLANE, p)
            for j, X in enumerate((X1, X2, X3)):
                pairing = W @ X(p)
                expected = np.zeros(5)
                expected[j] = 1.0
                assert np.allclose(pairing, expected, atol=1e-9)

    def test_omega4_has_no_fiber_component(self):
        for p in sample_points(5):
            W = co.omega_coframe(SPHERE, PLANE, p)
            assert W[3, 4] == 0.0

    def test_integrable_pair_raises(self):
        with pytest.raises(IntegrablePointError):
            co.omega_coframe(PLANE, PLANE, np.zeros(5))


class TestThetaCoframe:
    def test_theta3_is_minus_omega3(self):
        for p in sample_points(5):
            W = co.omega_coframe(SPHERE, PLANE, p)
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
        W = co.omega_coframe(SPHERE, PLANE, p)
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


class TestCurvature:
    def test_flat_metric_zero_curvature(self):
        const = np.diag([1.0, 2.0, -1.0, 3.0, -2.0])
        bundle = co.curvature(lambda rows: np.broadcast_to(const, (len(rows), 5, 5)), np.zeros(5))
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
        bundle = co.curvature(metric, p)
        sec = bundle.riemann[0, 1, 0, 1] / (bundle.g[0, 0] * bundle.g[1, 1])
        assert sec == pytest.approx(1.0, abs=1e-5)

    def test_riemann_symmetries_and_weyl_traces(self):
        p = np.array([1.2, 0.1, 0.3, -0.2, 0.8])
        bundle = co.curvature(lambda rows: co.metric_components(SPHERE, PLANE, rows), p)
        scale = np.max(np.abs(bundle.riemann)) + 1.0
        assert riemann_symmetry_residual(bundle) < 1e-4 * scale
        assert weyl_trace_residual(bundle) < 1e-4 * scale
        assert np.max(np.abs(bundle.ricci - bundle.ricci.T)) < 1e-4 * scale

    def test_nine_to_one_pair_conformally_flat(self):
        p = np.array([1.0, 0.1, 1.3, 0.2, 0.5])
        bundle = co.curvature(lambda rows: co.metric_components(Sphere(1.0), Sphere(3.0), rows), p)
        w_h, w_h2 = bundle.weyl_tiers
        assert bundle.weyl_norm < 10.0 * max(np.max(np.abs(w_h - w_h2)), 1e-14)

    def test_weyl_tiers_are_the_two_steps(self):
        # the tiers are the Weyl tensors at steps h and h/2, and the bundle's
        # tensors the Richardson blend of their derivatives
        p = np.array([1.2, 0.1, 0.3, -0.2, 0.8])
        bundle = co.curvature(lambda rows: co.metric_components(SPHERE, PLANE, rows), p)
        w_h, w_h2 = bundle.weyl_tiers
        assert w_h.shape == w_h2.shape == bundle.weyl.shape == (5, 5, 5, 5)
        assert not np.array_equal(w_h, w_h2)
        # O(h^2) errors: the blend is closer to the finer tier than the tiers are to each other
        assert np.max(np.abs(bundle.weyl - w_h2)) < np.max(np.abs(w_h - w_h2))


class TestCartanFromWeyl:
    def test_projective_match_with_closed_form(self):
        for p in sample_points(3):
            ocl = co.cartan_from_weyl(SPHERE, PLANE, p)
            closed = quartic_killing_case(SPHERE.jet((p[0], p[1])), 0.0)
            assert co.proportionality_residual(ocl.quartic, closed) < 1e-3

    def test_one_hundred_two_metric_evaluations(self, monkeypatch):
        # one metric call per oracle point, on the 102-row stencil stack of
        # both steps; the duals Y come from one coframe at the base point
        metric_calls, theta_calls = [], []
        metric, theta = co.metric_components, co.theta_coframe

        def counting_metric(s1, s2, p):
            metric_calls.append(np.shape(p))
            return metric(s1, s2, p)

        def counting_theta(s1, s2, p):
            theta_calls.append(np.shape(p))
            return theta(s1, s2, p)

        monkeypatch.setattr(co, "metric_components", counting_metric)
        monkeypatch.setattr(co, "theta_coframe", counting_theta)
        co.cartan_from_weyl(SPHERE, PLANE, np.array([1.1, 0.0, 0.0, 0.0, 0.3]))
        assert metric_calls == [(102, 5)]
        assert theta_calls == [(5,), (102, 5)]

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
        stencil = co._stencil(rows[3], 1e-3)
        for stack in (rows, stencil):
            G = co.metric_components(s1, s2, stack)
            assert G.shape == (len(stack), 5, 5)
            each = np.array([co.metric_components(s1, s2, row) for row in stack])
            assert _same_bits(G, each)

    @pytest.mark.parametrize("s1, s2", STACK_PAIRS[:4], ids=lambda s: s.spec_string())
    def test_stacked_coframes_equal_each_row_on_its_own(self, s1, s2):
        rows = _rows_in_charts(s1, s2, 12, seed=5)
        W = co.omega_coframe(s1, s2, rows)
        T = co.theta_coframe(s1, s2, rows)
        assert _same_bits(W, np.array([co.omega_coframe(s1, s2, r) for r in rows]))
        assert _same_bits(T, np.array([co.theta_coframe(s1, s2, r) for r in rows]))

    def test_stencil_order(self):
        p = np.array([1.0, -0.0, 0.5, 0.25, -0.0])
        h = 0.125
        rows = co._stencil(p, h)
        assert rows.shape == (51, 5)
        assert _same_bits(rows[0], p)
        e0 = np.array([h, 0.0, 0.0, 0.0, 0.0])
        assert _same_bits(rows[1], p + e0) and _same_bits(rows[2], p - e0)
        e01 = np.array([h, h, 0.0, 0.0, 0.0])
        f01 = np.array([h, -h, 0.0, 0.0, 0.0])
        for row, expected in zip(rows[11:15], (p + e01, p - e01, p + f01, p - f01)):
            assert _same_bits(row, expected)
        e34 = np.array([0.0, 0.0, 0.0, h, h])
        assert _same_bits(rows[47], p + e34)


class TestStencilErrors:
    """A stencil that leaves the chart or meets kappa = lambda raises the
    error of its first failing row, in the order the rows are differenced:
    step h before step h/2; the centre, then p +- h e_k, then the mixed rows."""

    def _first_failure(self, s1, s2, p, h=1e-3):
        rows = np.vstack([co._stencil(p, h), co._stencil(p, h / 2.0)])
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
        # the second surface's chart ends inside the stencil (row p - h e_2,
        # the sixth), and kappa = lambda at one profile row: the second row
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
        # r sinh(theta) overflows, so 1/f2 does: a clean DomainError, where
        # the point-by-point coframe divided a float by zero
        with pytest.raises(DomainError, match="overflows at kappa = -0.01, lambda = 0.0"):
            co.cartan_from_weyl(Hyperbolic(10.0), PLANE, np.array([709.0, 0.0, 0.0, 0.0, 0.3]))

    def test_kappa1_squared_overflow_raises_as_a_float_power(self):
        # omega is finite here, but kappa1**2 in theta overflows: the error a
        # float's ** raises, as when the coframe was built from floats
        s1 = CustomRevolution(lambda r: 1.0 + 1e155 * (r - 1.0) ** 2, "steep")
        p = np.array([1.0, 0.0, 1.0, 0.0, 0.3])
        assert np.isfinite(co.omega_coframe(s1, Sphere(1.0), p)).all()
        with pytest.raises(OverflowError) as info:
            co.cartan_from_weyl(s1, Sphere(1.0), p)
        with pytest.raises(OverflowError) as from_float:
            s1.jet((1.0, 0.0)).kappa1 ** 2
        assert str(info.value) == str(from_float.value)
