import numpy as np
import pytest

from rolling_twistor import split4

RNG = np.random.default_rng(20240611)


def basis_bivector(i):
    b = np.zeros(6)
    b[i] = 1.0
    return b


# independent star matrix assembled in the test straight from the six rules
TEST_STAR = np.zeros((6, 6))
for src, dst, sign in [(0, 5, 1), (5, 0, 1), (1, 4, 1), (4, 1, 1), (2, 3, -1), (3, 2, -1)]:
    TEST_STAR[dst, src] = sign


def wedge_by_hand(v, w):
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return np.array([v[i] * w[j] - v[j] * w[i] for i, j in pairs])


class TestHodgeStar:
    def test_e12_maps_to_e34(self):
        assert np.allclose(split4.hodge_star(basis_bivector(0)), basis_bivector(5))

    def test_e14_maps_to_minus_e23(self):
        assert np.allclose(split4.hodge_star(basis_bivector(2)), -basis_bivector(3))

    def test_all_six_rules(self):
        for i in range(6):
            assert np.allclose(split4.hodge_star(basis_bivector(i)), TEST_STAR @ basis_bivector(i))

    def test_involution_on_random_inputs(self):
        for _ in range(100):
            b = RNG.uniform(-10, 10, 6)
            assert np.allclose(split4.hodge_star(split4.hodge_star(b)), b, atol=0.0)


class TestSelfdualSplit:
    def test_e12_projections(self):
        plus, minus = split4.selfdual_split(basis_bivector(0))
        assert np.allclose(plus, 0.5 * (basis_bivector(0) + basis_bivector(5)))
        assert np.allclose(minus, 0.5 * (basis_bivector(0) - basis_bivector(5)))

    def test_selfdual_input_passes_through(self):
        b = basis_bivector(0) + basis_bivector(5)
        plus, minus = split4.selfdual_split(b)
        assert np.allclose(plus, b)
        assert np.allclose(minus, 0.0)

    def test_reconstruction_and_eigenvectors(self):
        for _ in range(50):
            b = RNG.uniform(-5, 5, 6)
            plus, minus = split4.selfdual_split(b)
            assert np.allclose(plus + minus, b, atol=0.0)
            assert np.allclose(split4.hodge_star(plus), plus)
            assert np.allclose(split4.hodge_star(minus), -minus)


class TestNullPlaneSpan:
    def test_phi_zero(self):
        x1, x2 = split4.null_plane_span(0.0)
        assert np.allclose(x1, [1, 0, 1, 0])
        assert np.allclose(x2, [0, 1, 0, 1])

    def test_null_and_orthogonal_everywhere(self):
        for phi in np.linspace(0.0, 2 * np.pi, 37):
            x1, x2 = split4.null_plane_span(phi)
            assert abs(split4.norm_squared(x1)) < 1e-14
            assert abs(split4.norm_squared(x2)) < 1e-14
            assert abs(split4.inner(x1, x2)) < 1e-14

    def test_plane_bivector_is_selfdual(self):
        # independent route: wedge expanded by hand, star applied through the
        # matrix assembled above from the displayed rules
        for phi in np.linspace(0.0, 2 * np.pi, 17):
            x1, x2 = split4.null_plane_span(phi)
            b = wedge_by_hand(x1, x2)
            assert np.allclose(TEST_STAR @ b, b, atol=1e-15)

    def test_bivector_matches_displayed_line(self):
        # e1^e2 + e3^e4 - sin(phi)(e1^e3 + e2^e4) + cos(phi)(e1^e4 - e2^e3)
        for phi in (0.0, 0.9, 2.2, 5.5):
            x1, x2 = split4.null_plane_span(phi)
            b = wedge_by_hand(x1, x2)
            c, s = np.cos(phi), np.sin(phi)
            expected = np.array([1.0, -s, c, -c, -s, 1.0])
            assert np.allclose(b, expected, atol=1e-15)

    def test_null_plane_type(self):
        for duality, eig in (("selfdual", 1.0), ("antiselfdual", -1.0)):
            plane = split4.NullPlane(angle=0.8, duality=duality)
            v1, v2 = plane.span()
            assert abs(split4.norm_squared(v1)) < 1e-14
            assert abs(split4.norm_squared(v2)) < 1e-14
            assert abs(split4.inner(v1, v2)) < 1e-14
            b = plane.bivector()
            assert np.allclose(split4.hodge_star(b), eig * b, atol=1e-15)
            assert plane.star_eigenvalue == eig
        with pytest.raises(ValueError):
            split4.NullPlane(angle=0.0, duality="both")


def random_structure():
    c = RNG.uniform(-10, 10, (4, 4, 4))
    return c - np.swapaxes(c, 1, 2)


def first_structure_residual(c, gamma):
    """Componentwise residual of d sigma^i + Gamma^i_j ^ sigma^j evaluated on
    frame pairs; zero iff `gamma` is torsion-free for `c`."""
    res = np.empty_like(c)
    for i in range(4):
        for k in range(4):
            for l in range(4):
                res[i, k, l] = -c[i, k, l] + gamma[i, l, k] - gamma[i, k, l]
    return res


def lowered_antisymmetry_residual(gamma):
    """Residual of Gamma_{ij k} + Gamma_{ji k} = 0 (metric compatibility) in
    signature (2, 2)."""
    low = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None] * gamma
    return low + np.swapaxes(low, 0, 1)


class TestLeviCivita:
    def test_product_surface_frame(self):
        a1, a2, a3, a4 = 1.3, -0.4, 2.2, 0.9
        g = split4.levi_civita_from_structure(
            split4.product_structure_functions(a1, a2, a3, a4)
        )
        assert g[0, 1, 0] == pytest.approx(a1)
        assert g[0, 1, 1] == pytest.approx(a2)
        assert g[2, 3, 2] == pytest.approx(a3)
        assert g[2, 3, 3] == pytest.approx(a4)
        # everything else vanishes modulo the lowered antisymmetry
        expected = np.zeros((4, 4, 4))
        expected[0, 1, 0], expected[0, 1, 1] = a1, a2
        expected[1, 0, 0], expected[1, 0, 1] = -a1, -a2
        expected[2, 3, 2], expected[2, 3, 3] = a3, a4
        expected[3, 2, 2], expected[3, 2, 3] = -a3, -a4
        assert np.allclose(g, expected, atol=1e-14)

    def test_flat_frame_gives_zero(self):
        g = split4.levi_civita_from_structure(np.zeros((4, 4, 4)))
        assert np.allclose(g, 0.0)

    def test_structure_equation_on_random_inputs(self):
        # independent residuals: d sigma + Gamma ^ sigma on frame pairs, and
        # the antisymmetry of the lowered connection
        for _ in range(25):
            c = random_structure()
            g = split4.levi_civita_from_structure(c)
            scale = 1.0 + np.abs(c).max()
            assert np.max(np.abs(first_structure_residual(c, g))) < 1e-12 * scale
            assert np.max(np.abs(lowered_antisymmetry_residual(g))) < 1e-12 * scale

    def test_rejects_non_antisymmetric_input(self):
        c = np.zeros((4, 4, 4))
        c[0, 1, 2] = 1.0
        with pytest.raises(ValueError):
            split4.levi_civita_from_structure(c)


class TestHorizontalCorrections:
    def test_zero_connection(self):
        assert split4.horizontal_corrections(np.zeros((4, 4, 4)), 1.1) == (0.0, 0.0)

    def test_product_surface_closed_form(self):
        a1, a2, a3, a4 = 0.7, -1.1, 0.5, 2.0
        g = split4.levi_civita_from_structure(
            split4.product_structure_functions(a1, a2, a3, a4)
        )
        for phi in np.linspace(0, 2 * np.pi, 11):
            z1, z2 = split4.horizontal_corrections(g, phi)
            assert z1 == pytest.approx(-a1 + a3 * np.cos(phi) + a4 * np.sin(phi), abs=1e-13)
            assert z2 == pytest.approx(-a2 + a4 * np.cos(phi) - a3 * np.sin(phi), abs=1e-13)

    def test_frozen_value_1234_at_phi_zero(self):
        g = split4.levi_civita_from_structure(
            split4.product_structure_functions(1.0, 2.0, 3.0, 4.0)
        )
        assert split4.horizontal_corrections(g, 0.0) == (pytest.approx(2.0), pytest.approx(2.0))


class TestTwistorLiftCoefficient:
    def test_product_surface_values(self):
        a1, a2, a3, a4 = 1.0, 2.0, 3.0, 4.0
        g = split4.levi_civita_from_structure(
            split4.product_structure_functions(a1, a2, a3, a4)
        )
        phi = 0.9
        assert split4.twistor_lift_coefficient(g, 3, phi) == pytest.approx(a3)
        assert split4.twistor_lift_coefficient(g, 1, phi) == pytest.approx(-a1)

    def test_zero_connection(self):
        for i in (1, 2, 3, 4):
            assert split4.twistor_lift_coefficient(np.zeros((4, 4, 4)), i, 0.4) == 0.0

    def test_bad_index(self):
        with pytest.raises(ValueError):
            split4.twistor_lift_coefficient(np.zeros((4, 4, 4)), 5, 0.0)

    def test_corrections_compose_from_lifts(self):
        # z1 = lift(1) + cos(phi) lift(3) + sin(phi) lift(4)
        # z2 = lift(2) - sin(phi) lift(3) + cos(phi) lift(4)
        for _ in range(30):
            c = random_structure()
            g = split4.levi_civita_from_structure(c)
            phi = RNG.uniform(0, 2 * np.pi)
            z1, z2 = split4.horizontal_corrections(g, phi)
            lifts = [split4.twistor_lift_coefficient(g, i, phi) for i in (1, 2, 3, 4)]
            scale = 1.0 + np.abs(g).max()
            assert abs(z1 - (lifts[0] + np.cos(phi) * lifts[2] + np.sin(phi) * lifts[3])) < 1e-12 * scale
            assert abs(z2 - (lifts[1] - np.sin(phi) * lifts[2] + np.cos(phi) * lifts[3])) < 1e-12 * scale
