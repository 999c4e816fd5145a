import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rolling_twistor.distribution5 import (
    field_rows,
    frame_fields,
    growth_vector,
    jacobian,
    lie_bracket,
    velocity_fields,
)
from rolling_twistor.split4 import (
    horizontal_corrections,
    levi_civita_from_structure,
    product_structure_functions,
)
from rolling_twistor.surfaces import (
    G2Family,
    Hyperbolic,
    Plane,
    RevolutionProfile,
    Sphere,
    parse_surface,
)

RNG = np.random.default_rng(1234)

SPHERE = Sphere(1.0)
PLANE = Plane()


def random_sphere_plane_points(n):
    pts = []
    for _ in range(n):
        pts.append(
            np.array(
                [
                    RNG.uniform(0.6, 2.5),
                    RNG.uniform(-1.0, 1.0),
                    RNG.uniform(-1.0, 1.0),
                    RNG.uniform(-1.0, 1.0),
                    RNG.uniform(0.0, 2 * np.pi),
                ]
            )
        )
    return pts


class TestConfigPoint:
    def test_chart_validation(self):
        from rolling_twistor.distribution5 import validate_point
        from rolling_twistor.errors import DomainError

        validate_point(SPHERE, PLANE, np.array([1.0, 0, 0, 0, 0]))
        with pytest.raises(DomainError):
            validate_point(SPHERE, PLANE, np.array([4.0, 0, 0, 0, 0]))


class TestVelocityFields:
    def test_plane_on_plane_closed_form(self):
        X1, X2 = velocity_fields(PLANE, PLANE)
        phi = 0.8
        p = np.array([0.0, 0.0, 0.0, 0.0, phi])
        assert np.allclose(X1(p), [1, 0, np.cos(phi), np.sin(phi), 0])
        assert np.allclose(X2(p), [0, 1, -np.sin(phi), np.cos(phi), 0])

    def test_sphere_on_plane_fiber_coefficient(self):
        # z1 = a4 sin phi = 0 on the plane; z2 = -a2 + a4 cos phi = -a2
        X1, X2 = velocity_fields(SPHERE, PLANE)
        p = np.array([np.pi / 2, 0.3, 0.0, 0.0, 0.4])
        assert X1(p)[4] == pytest.approx(0.0)
        a2 = SPHERE.jet((np.pi / 2, 0.3)).a2
        assert X2(p)[4] == pytest.approx(-a2)

    def test_matches_connection_lift_composition(self):
        # the fiber coefficients must equal the horizontal corrections built
        # from the product-frame connection coefficients
        # (the frames are rotationally adapted, so a1 = a3 = 0)
        for p in random_sphere_plane_points(100):
            a2 = SPHERE.frame_data((p[0], p[1])).a2
            a4 = PLANE.frame_data((p[2], p[3])).a2
            gamma = levi_civita_from_structure(product_structure_functions(0.0, a2, 0.0, a4))
            z1, z2 = horizontal_corrections(gamma, p[4])
            X1, X2 = velocity_fields(SPHERE, PLANE)
            assert abs(X1(p)[4] - z1) < 1e-12
            assert abs(X2(p)[4] - z2) < 1e-12


class TestFieldRows:
    @pytest.mark.parametrize(
        "s1, s2, p",
        [
            (SPHERE, PLANE, np.array([1.1, 0.2, 0.3, -0.1, 0.5])),
            (G2Family(1), RevolutionProfile(2.0, 1.0), np.array([0.9, 0.1, 1.2, 0.4, 1.5])),
            (G2Family(-1), Hyperbolic(2.0), np.array([1.5, 0.0, 0.7, 0.0, -0.0])),
        ],
    )
    def test_fewer_rows_are_the_leading_rows(self, s1, s2, p):
        rows = field_rows(s1, s2, p)
        assert rows.shape == (5, 5)
        for n in (2, 3):
            assert field_rows(s1, s2, p, n).tobytes() == rows[:n].tobytes()

    @pytest.mark.parametrize("n", [0, 1, 4, 6])
    def test_other_row_counts_rejected(self, n):
        with pytest.raises(ValueError, match="2, 3 or 5 rows"):
            field_rows(SPHERE, PLANE, np.array([1.1, 0.2, 0.3, -0.1, 0.5]), n)


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        f = lambda p: np.array([1.0, 0, 0, 0, 0])
        g = lambda p: np.array([0, 1.0, 0, 0, 0])
        assert np.max(np.abs(lie_bracket(f, g, np.zeros(5)))) < 1e-12

    def test_sphere_on_plane_first_bracket(self):
        # fiber component of [X1, X2] equals lambda - kappa = -1 everywhere;
        # the rest is a2 X2
        X1, X2 = velocity_fields(SPHERE, PLANE)
        for p in random_sphere_plane_points(5):
            b = lie_bracket(X1, X2, p)
            a2 = SPHERE.jet((p[0], p[1])).a2
            expected = a2 * X2(p)
            expected[4] += -1.0
            assert np.allclose(b, expected, atol=1e-8)

    def test_antisymmetry_on_smooth_fields(self):
        def F(p):
            return np.array([np.sin(p[1]), p[0] ** 2, np.cos(p[4]), p[2] * p[3], np.exp(-p[0])])

        def G(p):
            return np.array([p[2], np.cos(p[0]), p[4], np.sin(p[3]), p[1] ** 2])

        for p in random_sphere_plane_points(10):
            r = lie_bracket(F, G, p) + lie_bracket(G, F, p)
            assert np.max(np.abs(r)) < 1e-9

    def test_jacobian_of_linear_field_exact(self):
        A = RNG.uniform(-1, 1, (5, 5))
        f = lambda p: A @ p
        J = jacobian(f, np.ones(5))
        assert np.allclose(J, A, atol=1e-9)


class TestDerivedFrame:
    def test_x3_matches_numerical_bracket(self):
        X1, X2, X3, X4, X5 = frame_fields(SPHERE, PLANE)
        for p in random_sphere_plane_points(10):
            num = lie_bracket(X1, X2, p)
            assert np.max(np.abs(num - X3(p))) < 1e-6

    def test_x4_x5_match_numerical_brackets(self):
        X1, X2, X3, X4, X5 = frame_fields(SPHERE, PLANE)
        for p in random_sphere_plane_points(6):
            b4 = lie_bracket(X1, X3, p)
            b5 = lie_bracket(X2, X3, p)
            s4 = np.max(np.abs(X4(p))) + 1.0
            s5 = np.max(np.abs(X5(p))) + 1.0
            assert np.max(np.abs(b4 - X4(p))) < 1e-5 * s4
            assert np.max(np.abs(b5 - X5(p))) < 1e-5 * s5

    def test_x4_x5_match_brackets_on_revolution_pair(self):
        s1 = G2Family(0)
        fields = frame_fields(s1, PLANE)
        X1, X2, X3, X4, X5 = fields
        p = np.array([1.2, 0.4, 0.1, -0.2, 1.1])
        assert np.max(np.abs(lie_bracket(X1, X3, p) - X4(p))) < 1e-5 * (1 + np.max(np.abs(X4(p))))
        assert np.max(np.abs(lie_bracket(X2, X3, p) - X5(p))) < 1e-5 * (1 + np.max(np.abs(X5(p))))

    def test_x4_x5_with_varying_second_surface_curvature(self):
        # a revolution second surface activates the derivative terms of the
        # second curvature in the closed forms
        from rolling_twistor.surfaces import RevolutionProfile

        for s1, s2, p in [
            (SPHERE, G2Family(0), np.array([1.1, 0.2, 1.4, -0.3, 0.7])),
            (G2Family(1), RevolutionProfile(2.0, 1.0), np.array([0.9, 0.1, 1.2, 0.4, 1.5])),
        ]:
            X1, X2, X3, X4, X5 = frame_fields(s1, s2)
            s4 = 1 + np.max(np.abs(X4(p)))
            s5 = 1 + np.max(np.abs(X5(p)))
            assert np.max(np.abs(lie_bracket(X1, X3, p) - X4(p))) < 1e-5 * s4
            assert np.max(np.abs(lie_bracket(X2, X3, p) - X5(p))) < 1e-5 * s5

    def test_frame_determinant_nonzero(self):
        for p in random_sphere_plane_points(5):
            assert abs(np.linalg.det(field_rows(SPHERE, PLANE, p))) > 1e-3

    def test_jacobi_identity_residual(self):
        # [X1, [X2, X3]] + [X2, [X3, X1]] + [X3, [X1, X2]] = [X1, X5] - [X2, X4]
        # since [X3, X3] = 0; the fields are exact, so only the outer
        # differences are numerical
        cases = [(SPHERE, PLANE, p) for p in random_sphere_plane_points(3)] + [
            (G2Family(0), PLANE, np.array([1.2, 0.4, 0.1, -0.2, 1.1])),
            (G2Family(1), RevolutionProfile(2.0, 1.0), np.array([0.9, 0.1, 1.2, 0.4, 1.5])),
        ]
        for s1, s2, p in cases:
            X1, X2, X3, X4, X5 = fields = frame_fields(s1, s2)
            scale = max(np.max(np.abs(f(p))) for f in fields)
            r = lie_bracket(X1, X5, p) - lie_bracket(X2, X4, p)
            assert np.max(np.abs(r)) < 1e-8 * scale

    @pytest.mark.parametrize(
        "s1, s2, p",
        [
            (Sphere(1.0), Sphere(1.0), np.array([1.0, 0.2, 1.4, -0.3, 0.9])),
            (Sphere(2.0), Sphere(2.0), np.array([0.7, -0.5, 2.1, 0.4, 4.0])),
            (PLANE, PLANE, np.array([0.3, -0.2, 0.5, 0.1, 0.7])),
        ],
    )
    def test_equal_curvatures_brackets_stay_in_the_velocity_plane(self, s1, s2, p):
        # the closed forms stay defined at kappa = lambda, where the
        # distribution is integrable: X3, X4, X5 lie in span(X1, X2)
        rows = np.array([f(p) for f in frame_fields(s1, s2)])
        span = rows[:2].T
        for row in rows[2:]:
            coef = np.linalg.lstsq(span, row, rcond=None)[0]
            assert np.max(np.abs(row - span @ coef)) < 1e-13 * (1.0 + np.max(np.abs(row)))


def _symbolic_frame(sp, surface, t):
    """(f1, f2) of e1 = f1 d/dt, e2 = f2 d/dpsi for the surface's metric
    E dt^2 + G dpsi^2 in its chart: f1 = 1/sqrt(E), f2 = 1/sqrt(G), written
    from the metric alone."""
    if surface.kind == "plane":
        return sp.Integer(1), sp.Integer(1)
    if surface.kind in ("sphere", "hyperbolic"):
        r = sp.nsimplify(surface.radius)
        return 1 / r, 1 / (r * (sp.sin(t) if surface.kind == "sphere" else sp.sinh(t)))
    h = sp.nsimplify(surface.beta) + sp.nsimplify(surface.alpha) * t**2  # revolution
    return 1 / h, 1 / t


def _bracket(sp, X, Y, coords):
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    return [sum(X[j] * sp.diff(Y[i], c) - Y[j] * sp.diff(X[i], c) for j, c in enumerate(coords))
            for i in range(len(coords))]


class TestSymbolicFrame:
    """The closed-form rows X3..X5 against the exact brackets of X1, X2,
    which sympy builds from the surfaces' metrics alone."""

    @pytest.mark.parametrize(
        "spec1, spec2, p",
        [
            ("sphere:r=1.3", "plane", (1.1, 0.3, 0.4, -0.2, 0.7)),
            ("g2:eps=1", "hyperbolic:r=2", (0.8, 0.1, 0.9, 0.3, 2.0)),
            ("profile:alpha=0.5,beta=-3", "sphere:r=2", (1.2, -0.4, 1.0, 0.5, 4.0)),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_rows_equal_exact_brackets(self, spec1, spec2, p):
        sp = pytest.importorskip("sympy")
        s1, s2 = parse_surface(spec1), parse_surface(spec2)
        coords = x, _, u, _, phi = sp.symbols("x y u v phi")
        f1, f2 = _symbolic_frame(sp, s1, x)
        f3, f4 = _symbolic_frame(sp, s2, u)
        a2 = f1 * sp.diff(f2, x) / f2  # [e1, e2] = a2 e2
        a4 = f3 * sp.diff(f4, u) / f4
        c, s = sp.cos(phi), sp.sin(phi)
        X1 = [f1, 0, c * f3, s * f4, a4 * s]
        X2 = [0, f2, -s * f3, c * f4, -a2 + a4 * c]
        X3 = _bracket(sp, X1, X2, coords)
        exact = [X1, X2, X3, _bracket(sp, X1, X3, coords), _bracket(sp, X2, X3, coords)]
        at = dict(zip(coords, map(sp.Float, p)))
        ref = np.array(sp.Matrix(exact).subs(at).evalf(30), dtype=float)
        rows = field_rows(s1, s2, np.array(p))
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(rows - ref) / scale) < 1e-14


class TestGrowthVector:
    def test_sphere_on_plane_generic(self):
        for p in random_sphere_plane_points(5):
            assert growth_vector(SPHERE, PLANE, p).ranks == (2, 3, 5)

    def test_plane_on_plane_integrable(self):
        assert growth_vector(PLANE, PLANE, np.array([0, 0, 0, 0, 0.7])).ranks == (2, 2, 2)

    def test_equal_spheres_integrable(self):
        p = np.array([1.0, 0.2, 1.4, -0.3, 0.9])
        assert growth_vector(Sphere(1.0), Sphere(1.0), p).ranks == (2, 2, 2)

    def test_unequal_spheres_generic(self):
        p = np.array([1.0, 0.2, 1.4, -0.3, 0.9])
        assert growth_vector(Sphere(1.0), Sphere(2.0), p).ranks == (2, 3, 5)

    def test_first_rank_always_two(self):
        for p in random_sphere_plane_points(5):
            assert growth_vector(SPHERE, PLANE, p).ranks[0] == 2

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the rank test mixes chart units: a 1e-3 sphere on the plane gives "
        "ranks (2, 3, 3) or (2, 3, 4)",
    )
    def test_small_sphere_on_plane_generic(self):
        p = np.array([1.1, 0.2, 0.3, -0.1, 0.5])
        assert growth_vector(Sphere(1e-3), PLANE, p).ranks == (2, 3, 5)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def profile_on_constant(draw):
    """A revolution profile on a sphere or hyperbolic plane at a point of the
    benchmark's growth domain: |kappa| < 20, rho >= 0.25, |beta + alpha rho^2|
    >= 0.2 and |kappa - lambda| > 0.3 max(|kappa|, |lambda|)."""
    alpha = draw(st.sampled_from((-1.0, 1.0))) * draw(_floats(0.3, 2.0))
    s1 = RevolutionProfile(alpha, draw(_floats(-3.0, 3.0)))
    rho = draw(_floats(0.25, 6.0))
    assume(abs(s1.beta + alpha * rho * rho) >= 0.2)
    s2 = draw(st.sampled_from((Sphere, Hyperbolic)))(draw(_floats(0.5, 2.5)))
    theta = draw(_floats(0.3, 2.0))
    p = np.array([rho, draw(_floats(-3, 3)), theta, draw(_floats(-3, 3)),
                  draw(_floats(0.0, 2 * math.pi))])
    kappa = s1.frame_data(p[:2]).kappa
    lam = s2.frame_data(p[2:4]).kappa
    assume(abs(kappa) < 20.0 and abs(kappa - lam) > 0.3 * max(abs(kappa), abs(lam)))
    return s1, s2, p


@settings(derandomize=True, max_examples=300, deadline=None)
@given(profile_on_constant())
def test_growth_is_generic_away_from_equal_curvatures(case):
    s1, s2, p = case
    res = growth_vector(s1, s2, p)
    assert res.ranks == (2, 3, 5)
    assert not res.ill_conditioned


class TestScalingInvariance:
    def test_fields_rescale_by_inverse_factor(self):
        # for angle-chart surfaces the chart is scale-free, so the field
        # components simply divide by the factor
        s0 = 2.0
        X1, X2 = velocity_fields(SPHERE, PLANE)
        X1s, X2s = velocity_fields(SPHERE.scaled(s0), PLANE.scaled(s0))
        for p in random_sphere_plane_points(5):
            assert np.allclose(X1s(p), X1(p) / s0, atol=1e-14)
            assert np.allclose(X2s(p), X2(p) / s0, atol=1e-14)

    def test_span_invariance_via_growth(self):
        p = np.array([1.1, 0.0, 0.2, 0.1, 0.5])
        for s0 in (0.5, 2.0):
            assert growth_vector(SPHERE.scaled(s0), PLANE.scaled(s0), p).ranks == (2, 3, 5)
