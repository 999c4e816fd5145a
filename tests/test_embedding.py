import io
import math

import numpy as np
import pytest
from references import algebraic_residual, induced_metric_residual, load_mesh, mesh_gauss_curvature

from rolling_twistor.cli import main
from rolling_twistor.embedding import RevolutionMesh, build_mesh, emit_mesh
from rolling_twistor.errors import DomainError
from rolling_twistor.surfaces import G2Family, RevolutionProfile

RNG = np.random.default_rng(2718)

NEGATIVE = RevolutionProfile(1.0, -5.0)  # h = rho^2 - 5: negative curvature, embedded on [0, 2]


@pytest.fixture
def quad():
    """scipy's adaptive quadrature: an independent reference for the heights,
    needed by the tests only."""
    return pytest.importorskip("scipy.integrate").quad


def quad_height(quad, h, a, b):
    """integral_a^b sqrt(h(x)^2 - 1) dx by the reference quadrature."""
    val, _ = quad(lambda x: math.sqrt(max(h(x) ** 2 - 1.0, 0.0)), a, b,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def heights(family, lo, hi):
    """Z at rho = lo and rho = hi, from the two-row mesh `embed` would build."""
    return build_mesh(family, (lo, hi), 2, 2).xyz[:, 0, 2]


def flat_annulus(phi_end, n):
    """The n x n mesh of the flat annulus 0.5 <= rho <= 2, Z = 0, over the
    angles [0, phi_end]."""
    rho = np.linspace(0.5, 2.0, n)
    phi = np.linspace(0.0, phi_end, n)
    xyz = np.zeros((n, n, 3))
    xyz[:, :, 0] = rho[:, None] * np.cos(phi)[None, :]
    xyz[:, :, 1] = rho[:, None] * np.sin(phi)[None, :]
    return RevolutionMesh(family_tag="disk", eps=None, rho=rho, phi=phi, xyz=xyz)


class TestEmbedPoint:
    def test_plus_family_frozen_point(self):
        x, y, z = build_mesh(G2Family(1), (0.0, 1.0), 2, 2).xyz[-1, 0]
        assert (x, y) == (1.0, 0.0)
        assert z == pytest.approx(math.sqrt(3.0))

    def test_minus_family_starts_at_zero_height(self):
        z = heights(G2Family(-1), math.sqrt(2.0), 2.0)[0]
        assert z == pytest.approx(0.0, abs=1e-12)

    def test_zero_family_lower_limit(self):
        z = heights(G2Family(0), 1.0, 2.0)[0]
        assert z == pytest.approx(0.0, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_mesh(G2Family(-1), (1.0, 2.0), 2, 2)
        with pytest.raises(DomainError):
            build_mesh(G2Family(0), (0.5, 2.0), 2, 2)
        with pytest.raises(ValueError):
            G2Family(2)

    def test_radial_invariant(self):
        for _ in range(20):
            rho = RNG.uniform(0.1, 3.0)
            x, y = build_mesh(G2Family(1), (0.0, rho), 2, 17).xyz[-1, :, :2].T
            assert x * x + y * y == pytest.approx(rho * rho, rel=1e-14)


class TestAlgebraicResidual:
    @pytest.mark.parametrize("eps,rho_lo", [(1, 0.0), (-1, math.sqrt(2.0))])
    def test_embedded_points_satisfy_identity(self, eps, rho_lo):
        mesh = build_mesh(G2Family(eps), (rho_lo, rho_lo + 2.5), 100, 16)
        x, y, z = np.moveaxis(mesh.xyz, 2, 0)
        scale = (mesh.rho * mesh.rho + 2.0)[:, None] ** 3
        assert np.all(np.abs(algebraic_residual(eps, x, y, z)) < 1e-9 * scale)

    def test_frozen_off_surface_value(self):
        assert algebraic_residual(1, 0.0, 0.0, 1.0) == pytest.approx(-1.0)

    def test_eps_zero_rejected(self):
        with pytest.raises(ValueError):
            algebraic_residual(0, 1.0, 0.0, 0.0)

    def test_degree_six_growth_under_coordinate_scaling(self):
        # the identity is degree-6 dominated: scaling the coordinates by
        # lambda >> 1 grows the residual like lambda^6
        x, y, z = build_mesh(G2Family(1), (0.0, 1.3), 2, 2).xyz[-1, 0]
        r10 = abs(algebraic_residual(1, 10 * x, 10 * y, 10 * z))
        r100 = abs(algebraic_residual(1, 100 * x, 100 * y, 100 * z))
        assert r100 / r10 == pytest.approx(1e6, rel=0.5)


class TestQuadratureAgreement:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_closed_form_matches_quadrature(self, eps, quad):
        lo = 0.0 if eps == 1 else math.sqrt(2.0)
        for rho in (lo + 0.4, lo + 1.1, lo + 2.0):
            z_lo, z_closed = heights(G2Family(eps), lo, rho)
            z_quad, _ = quad(
                lambda r: math.sqrt((r * r + eps) ** 2 - 1.0), lo, rho,
                epsabs=1e-13, limit=300,
            )
            assert abs((z_closed - z_lo) - z_quad) < 1e-10

    def test_zero_family_against_direct_quadrature(self, quad):
        for rho in (1.3, 2.1, 3.0):
            z = heights(G2Family(0), 1.0, rho)[-1]
            z_quad, _ = quad(lambda r: math.sqrt(r**4 - 1.0), 1.0, rho, epsabs=1e-13, limit=300)
            assert abs(z - z_quad) < 1e-10


class TestHeightsMatchReference:
    """The tanh-sinh heights agree with scipy's adaptive quadrature to 1e-12
    on every mesh row, including rows at the branch point |h| = 1."""

    # the eps = 0 ranges the benchmark's embed jobs draw from:
    # lo in [1.0, 1.3], hi in [1.8, 2.5]
    @pytest.mark.parametrize("lo,hi", [(1.0, 1.8), (1.0, 2.5), (1.3, 1.8), (1.3, 2.5), (1.07, 2.2)])
    def test_zero_family_mesh(self, lo, hi, quad):
        mesh = build_mesh(G2Family(0), (lo, hi), 48, 4)
        for rho, z in zip(mesh.rho, mesh.xyz[:, 0, 2]):
            assert abs(z - quad_height(quad, lambda x: x * x, 1.0, rho)) <= 1e-12

    @pytest.mark.parametrize(
        "family,rho_range",
        [
            (RevolutionProfile(1.0, 0.0), (1.0, 2.0)),  # h = 1 at the start
            (NEGATIVE, (0.5, 2.0)),  # h = -1 at the end
            (RevolutionProfile(-0.5, 4.0), (0.0, 2.4)),  # h decreasing towards 1.12
        ],
    )
    def test_profile_mesh(self, family, rho_range, quad):
        mesh = build_mesh(family, rho_range, 32, 4)
        for rho, z in zip(mesh.rho, mesh.xyz[:, 0, 2]):
            assert abs(z - quad_height(quad, family.h, rho_range[0], rho)) <= 1e-12

    def test_negative_curvature_branch(self, quad):
        mesh = build_mesh(NEGATIVE, (0.0, 2.0), 17, 2)
        for rho, z in zip(mesh.rho, mesh.xyz[:, 0, 2]):
            assert abs(z - quad_height(quad, lambda x: x * x - 5.0, 0.0, rho)) <= 1e-12

    def test_tiny_range_at_the_branch_point(self):
        # every node lies within 1e-10 of rho = 1; Z = (2/3) 2 d^1.5 (1 + O(d))
        d = 1e-10
        mesh = build_mesh(G2Family(0), (1.0, 1.0 + d), 3, 4)
        assert mesh.xyz[-1, 0, 2] == pytest.approx(4.0 / 3.0 * d**1.5, rel=1e-9)


class TestNegativeCurvatureBranch:
    def test_origin(self):
        x, y, z = build_mesh(NEGATIVE, (0.0, 2.0), 2, 2).xyz[0, 0]
        assert (x, y, z) == (0.0, 0.0, pytest.approx(0.0, abs=1e-15))

    def test_full_branch_quadrature_convergence(self):
        # cross-check the adaptive result against midpoint refinement
        z = heights(NEGATIVE, 0.0, 2.0)[-1]

        def riemann(n):
            xs = np.linspace(0.0, 2.0, 2 * n + 1)[1::2]
            f = np.sqrt((xs**2 - 6.0) * (xs**2 - 4.0))
            return float(np.sum(f) * 2.0 / n)

        assert abs(riemann(4000) - z) < 1e-4
        assert abs(riemann(16000) - z) < abs(riemann(2000) - z)

    def test_out_of_branch(self):
        with pytest.raises(DomainError):
            build_mesh(NEGATIVE, (0.0, 2.5), 2, 2)

    def test_induced_radial_metric_at_rho_one(self):
        # E = 1 + Z'(1)^2 = (1 - 5)^2 = 16, via FD of the embedding map
        h = 1e-4
        zp = (heights(NEGATIVE, 0.0, 1.0 + h)[-1] - heights(NEGATIVE, 0.0, 1.0 - h)[-1]) / (2 * h)
        E = 1.0 + zp**2
        assert E == pytest.approx(16.0, abs=1e-6)


class TestMeshes:
    def test_induced_metric_plus_family(self):
        fam = G2Family(1)
        mesh = build_mesh(fam, (0.1, 2.0), 64, 64)
        assert induced_metric_residual(mesh, fam) < 1e-5

    def test_induced_metric_zero_family(self):
        fam = G2Family(0)
        mesh = build_mesh(fam, (1.1, 3.0), 64, 64)
        assert induced_metric_residual(mesh, fam) < 1e-5

    def test_induced_metric_minus_family(self):
        fam = G2Family(-1)
        mesh = build_mesh(fam, (1.5, 3.0), 64, 64)
        assert induced_metric_residual(mesh, fam) < 1e-5

    def test_flat_disk(self):
        assert induced_metric_residual(flat_annulus(2.0 * math.pi, 64), lambda r: 1.0) < 1e-10

    def test_partial_arc_mesh_uses_shifted_stencils(self):
        # a half-revolution grid exercises the non-periodic branch
        assert induced_metric_residual(flat_annulus(math.pi, 48), lambda r: 1.0) < 1e-6

    def test_vertex_radial_invariant(self):
        mesh = build_mesh(G2Family(1), (0.2, 1.5), 16, 16)
        r2 = mesh.xyz[:, :, 0] ** 2 + mesh.xyz[:, :, 1] ** 2
        assert np.allclose(r2, (mesh.rho**2)[:, None])

    def test_height_monotone(self):
        mesh = build_mesh(G2Family(0), (1.05, 2.5), 32, 8)
        assert np.all(np.diff(mesh.xyz[:, 0, 2]) > 0)

    def test_gauss_curvature_matches_profile_formula(self):
        fam = G2Family(1)
        mesh = build_mesh(fam, (0.1, 2.0), 64, 64)
        rho, K = mesh_gauss_curvature(mesh)
        target = RevolutionProfile(1.0, 1.0).frame_data((rho, np.zeros_like(rho))).kappa
        assert np.max(np.abs(K - target[:, None])) < 1e-4

    def test_gauss_curvature_negative_branch(self):
        mesh = build_mesh(NEGATIVE, (0.4, 1.8), 64, 64)
        rho, K = mesh_gauss_curvature(mesh)
        target = NEGATIVE.frame_data((rho, np.zeros_like(rho))).kappa
        assert np.max(np.abs(K - target[:, None])) < 1e-4
        assert np.all(K < 0)


def write_mesh(path, family, rho_range, nr, nphi):
    """`build_mesh` of the arguments, written by `emit_mesh` to the file at path."""
    mesh = build_mesh(family, rho_range, nr, nphi)
    with open(path, "w", encoding="utf-8") as fh:
        emit_mesh(mesh, fh)
    return mesh


class TestEmitMesh:
    def test_file_format_and_vertex_count(self, tmp_path):
        out = tmp_path / "mesh.txt"
        mesh = write_mesh(out, G2Family(1), (0.0, 2.0), 32, 32)
        assert mesh.n_vertices == 1024
        lines = out.read_text().splitlines()
        assert lines[0] == "# family=g2 eps=1 nr=32 nphi=32"
        vert_lines = [l for l in lines if not l.startswith(("#", "q "))]
        quad_lines = [l for l in lines if l.startswith("q ")]
        assert len(vert_lines) == 1024
        assert len(quad_lines) == 31 * 31

    def test_round_trip(self, tmp_path):
        out = tmp_path / "mesh.txt"
        mesh = write_mesh(out, G2Family(-1), (1.5, 2.5), 8, 6)
        fields, verts, quads = load_mesh(str(out))
        assert fields["family"] == "g2"
        assert np.allclose(verts, mesh.xyz, rtol=1e-15)
        assert len(quads) == 7 * 5

    def test_domain_error_writes_nothing(self, tmp_path):
        # the mesh fails to build, and `embed` builds it before it opens -o
        out = tmp_path / "nope.txt"
        with pytest.raises(DomainError):
            build_mesh(G2Family(-1), (1.0, 2.0), 8, 8)
        assert main(["embed", "--family", "g2:eps=-1", "--rho-range", "1:2", "--nr", "8",
                     "--nphi", "8", "-o", str(out)]) == 3
        assert not out.exists()

    def test_figure_family_mesh(self, tmp_path):
        # the negative-curvature portion rho in [0.5, 2] of the homothetic
        # family; the upper endpoint is the branch point of the height
        out = tmp_path / "neg.txt"
        write_mesh(out, NEGATIVE, (0.5, 2.0), 16, 16)
        fields, verts, _ = load_mesh(str(out))
        assert fields["family"] == "profile"
        assert verts.shape == (16, 16, 3)

    def test_figure_family_heights_match_origin_based_branch(self, tmp_path):
        # build_mesh integrates heights from the range start; the dedicated
        # origin-based embedding must agree up to that constant offset
        out = tmp_path / "neg2.txt"
        mesh = write_mesh(out, NEGATIVE, (0.5, 1.9), 9, 4)
        z0 = heights(NEGATIVE, 0.0, 0.5)[-1]
        for i, rho in enumerate(mesh.rho):
            z_origin = heights(NEGATIVE, 0.0, rho)[-1]
            assert mesh.xyz[i, 0, 2] == pytest.approx(z_origin - z0, abs=1e-10)

    @pytest.mark.parametrize("family, rho_range, nr, nphi", [
        (G2Family(1), (0.0, 2.0), 9, 7),
        (G2Family(-1), (1.5, 2.5), 5, 2),
        (NEGATIVE, (0.5, 2.0), 6, 16),
        (G2Family(1), (0.5, 1.5), 2, 2),
        (NEGATIVE, (0.5, 2.0), 2, 11),
        # eps = 0: heights from the integrator, none of them a short decimal
        (G2Family(0), (1.0, 3.0), 10, 13),
        (G2Family(0), (1.2, 40.0), 4, 3),
    ])
    def test_rows_equal_one_line_per_vertex_and_quad(self, family, rho_range, nr, nphi):
        # reference: every vertex and quad line formatted on its own
        out = io.StringIO()
        mesh = build_mesh(family, rho_range, nr, nphi)
        emit_mesh(mesh, out)
        eps = "none" if mesh.eps is None else mesh.eps
        lines = [f"# family={mesh.family_tag} eps={eps} nr={nr} nphi={nphi}"]
        for i in range(nr):
            for j in range(nphi):
                x, y, z = mesh.xyz[i, j]
                lines.append(f"{i} {j} {x:.17g} {y:.17g} {z:.17g}")
        for i in range(nr - 1):
            for j in range(nphi - 1):
                v00, v10 = i * nphi + j, (i + 1) * nphi + j
                lines.append(f"q {v00} {v10} {v10 + 1} {v00 + 1}")
        assert out.getvalue() == "\n".join(lines) + "\n"

    def test_byte_determinism(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_mesh(a, G2Family(0), (1.1, 2.0), 12, 10)
        write_mesh(b, G2Family(0), (1.1, 2.0), 12, 10)
        assert a.read_bytes() == b.read_bytes()
