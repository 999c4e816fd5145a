"""Independent references and verifiers that the tests check the package with.

No command of the package runs these: the constant-curvature quartic in
factored form and the necessary condition of the 9:1 ratio, the pair
symmetries and Weyl traces of a curvature bundle, the residuals of the
profile equations, and the mesh checks (the algebraic identity of the
eps = +-1 surfaces, the induced metric and the Gauss curvature by finite
differences, and a reader of the mesh text).  The test modules import this
one by name; pytest does not collect it.
"""

import math
from typing import NamedTuple

import numpy as np

from rolling_twistor.cartan_invariants import CartanQuartic
from rolling_twistor.finitediff import fd_weights, sampled_derivative
from rolling_twistor.surfaces import Surface


class ConstantQuartic(NamedTuple):
    """Constant-curvature quartic and its factored form
    factor * (1 + 2 z + 2 z^2)^2."""

    quartic: CartanQuartic
    factor: float
    base: tuple = (1.0, 2.0, 2.0)


def quartic_constant(kappa, lam):
    """Quartic of two constant-curvature surfaces:
    (kappa - 9 lambda)(9 kappa - lambda)(kappa - lambda)^4 (1 + 2 z + 2 z^2)^2."""
    P = (kappa - lam) ** 4 * (kappa - 9.0 * lam) * (9.0 * kappa - lam)
    quartic = CartanQuartic(P, P, 4.0 * P / 3.0, 2.0 * P, 4.0 * P)
    return ConstantQuartic(quartic=quartic, factor=P)


def necessary_condition_residual(kappa, lam):
    """(9 kappa - lambda)(kappa - 9 lambda) lambda; a necessary condition for
    maximal symmetry in the rotational-on-constant-curvature case is that
    this vanishes."""
    return (9.0 * kappa - lam) * (kappa - 9.0 * lam) * lam


def riemann_symmetry_residual(bundle):
    """Largest violation of the pair symmetries of the lowered Riemann tensor."""
    r = bundle.riemann
    return float(
        max(
            np.max(np.abs(r + np.einsum("jikl->ijkl", r))),
            np.max(np.abs(r + np.einsum("ijlk->ijkl", r))),
            np.max(np.abs(r - np.einsum("klij->ijkl", r))),
        )
    )


def weyl_trace_residual(bundle):
    """Largest trace of the Weyl tensor (zero for the exact tensor)."""
    tr = np.einsum("ik,ijkl->jl", bundle.ginv, bundle.weyl)
    return float(np.max(np.abs(tr)))


def profile_ode_residual(rho, d1, d2, d3):
    """Residual of the third-order profile equation characterizing the
    surfaces whose rolling on the plane has maximal symmetry; arguments are
    rho and its first three derivatives with respect to the chart
    coordinate x in which the metric is rho(x)^2 (dx^2 + dpsi^2)."""
    return d3 * d1 * rho**2 - 3.0 * d2**2 * rho**2 + d2 * d1**2 * rho + d1**4


def reciprocal_ode_residual(x1, x2, x3, rho):
    """Residual of the linear reciprocal form x''' rho^2 + x'' rho - x' = 0,
    obtained from the profile equation by swapping dependent and independent
    variables; its general solution is x = alpha rho^2/2 + beta log rho + gamma."""
    return x3 * rho**2 + x2 * rho - x1


RHO_ORDER = 6  # centered 7-point stencil along the profile direction
RHO_MARGIN = RHO_ORDER // 2
PHI_STENCIL = 13  # periodic stencil along the angle, exact to high order


def algebraic_residual(eps, x, y, z):
    """(X^2 + Y^2 + 2 eps)^3 - 9 Z^2; zero on the eps=+-1 embedded surfaces."""
    if eps not in (-1, 1):
        raise ValueError("the algebraic identity holds for eps = -1 or +1")
    return (x * x + y * y + 2.0 * eps) ** 3 - 9.0 * z * z


def _phi_derivative(values, dphi):
    """Periodic centered stencil derivative along axis 1.

    The grid duplicates the seam column (phi = 0 and 2 pi), so the unique
    columns are values[:, :-1]; the duplicate column is rebuilt at the end.
    """
    m = values.shape[1] - 1
    width = min(PHI_STENCIL, m if m % 2 == 1 else m - 1)
    half = width // 2
    w = fd_weights(np.arange(width, dtype=float), float(half), 1)[:, 1] / dphi
    unique = values[:, :-1]
    out = np.zeros_like(unique)
    for s in range(width):
        out += w[s] * np.roll(unique, half - s, axis=1)
    return np.concatenate([out, out[:, :1]], axis=1)


def _mesh_phi_derivative(mesh, values):
    """Derivative along axis 1 of values on the mesh grid: periodic on a full
    circle, else the shifted stencils of `sampled_derivative`."""
    dphi = float(mesh.phi[1] - mesh.phi[0])
    if abs((mesh.phi[-1] - mesh.phi[0]) - 2.0 * math.pi) < 1e-12:  # full circle
        return _phi_derivative(values, dphi)
    return np.swapaxes(sampled_derivative(np.swapaxes(values, 0, 1), dphi, order=RHO_ORDER), 0, 1)


def _grid_partials(mesh):
    """FD tangents X_rho, X_phi over the grid."""
    drho = float(mesh.rho[1] - mesh.rho[0])
    return sampled_derivative(mesh.xyz, drho, order=RHO_ORDER), _mesh_phi_derivative(mesh, mesh.xyz)


def induced_metric_residual(mesh, h_of_rho):
    """Max deviation of the FD first fundamental form from the target metric
    h(rho)^2 drho^2 + rho^2 dphi^2, over interior rows (where the profile
    stencils are fully centered).

    `h_of_rho` may be a callable or a catalog revolution family."""
    h = h_of_rho.h if isinstance(h_of_rho, Surface) else h_of_rho
    x_r, x_p = _grid_partials(mesh)
    E = np.einsum("ijk,ijk->ij", x_r, x_r)
    F = np.einsum("ijk,ijk->ij", x_r, x_p)
    G = np.einsum("ijk,ijk->ij", x_p, x_p)
    E_target = np.array([float(h(r)) ** 2 for r in mesh.rho])[:, None]
    G_target = (mesh.rho**2)[:, None]
    sl = slice(RHO_MARGIN, len(mesh.rho) - RHO_MARGIN)
    return float(
        max(
            np.max(np.abs((E - E_target)[sl])),
            np.max(np.abs(F[sl])),
            np.max(np.abs((G - G_target)[sl])),
        )
    )


def mesh_gauss_curvature(mesh, margin=2 * RHO_MARGIN):
    """Gauss curvature on interior rows from FD first and second fundamental
    forms; returns (rho values, curvature array) for rows with fully
    centered nested stencils."""
    drho = float(mesh.rho[1] - mesh.rho[0])
    x_r, x_p = _grid_partials(mesh)
    x_rr = sampled_derivative(x_r, drho, order=RHO_ORDER)
    x_rp = sampled_derivative(x_p, drho, order=RHO_ORDER)
    x_pp = _mesh_phi_derivative(mesh, x_p)
    normal = np.cross(x_r, x_p)
    normal = normal / np.linalg.norm(normal, axis=2, keepdims=True)
    E = np.einsum("ijk,ijk->ij", x_r, x_r)
    F = np.einsum("ijk,ijk->ij", x_r, x_p)
    G = np.einsum("ijk,ijk->ij", x_p, x_p)
    L = np.einsum("ijk,ijk->ij", x_rr, normal)
    M = np.einsum("ijk,ijk->ij", x_rp, normal)
    N = np.einsum("ijk,ijk->ij", x_pp, normal)
    K = (L * N - M * M) / (E * G - F * F)
    sl = slice(margin, len(mesh.rho) - margin)
    return mesh.rho[sl], K[sl]


def load_mesh(path):
    """Parse a mesh file back into its header fields, vertices and quads."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# family="):
            raise ValueError(f"not a mesh file: {path}")
        fields = dict(part.split("=") for part in header[2:].split())
        nr, nphi = int(fields["nr"]), int(fields["nphi"])
        verts = np.empty((nr, nphi, 3))
        quads = []
        for line in fh:
            parts = line.split()
            if parts[0] == "q":
                quads.append(tuple(int(t) for t in parts[1:]))
            else:
                i, j = int(parts[0]), int(parts[1])
                verts[i, j] = [float(parts[2]), float(parts[3]), float(parts[4])]
    return fields, verts, quads
