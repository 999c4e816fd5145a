"""Isometric embeddings of the distinguished revolution metrics in R^3.

A metric (beta + alpha rho^2)^2 drho^2 + rho^2 dpsi^2 embeds as a surface of
revolution (X, Y, Z) = (rho cos psi, rho sin psi, Z(rho)) wherever
h^2 = (beta + alpha rho^2)^2 >= 1, with Z' = sqrt(h^2 - 1).  For the
normal-form families the height integral is elementary for eps = +-1,
producing algebraic surfaces (X^2 + Y^2 + 2 eps)^3 = 9 Z^2, and an elliptic
integral for eps = 0.  The non-elementary heights (eps = 0, the general
profiles and the negative-curvature branch) come from the tanh-sinh rule of
`finitediff`, which takes the square-root branch point |h| = 1 at an end of
the range without a substitution; a mesh integrates each row interval once
and accumulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .finitediff import fd_weights, sampled_derivative, tanh_sinh
from .surfaces import G2Family, RevolutionProfile, Surface


def _z_plus(rho):
    return (rho * rho + 2.0) ** 1.5 / 3.0


def _z_minus(rho):
    return (rho * rho - 2.0) ** 1.5 / 3.0


def _slope(family):
    """Z' = sqrt(h^2 - 1) of a revolution family as a `tanh_sinh` integrand.

    At the node x = end + offset, h = h(end) + alpha offset (2 end + offset),
    and h -+ 1 is formed from h(end) -+ 1 before the offset term is added, so
    a node next to a branch point |h(end)| = 1 keeps its digits.  Z' is the
    product of the roots of |h - 1| and |h + 1|, which stays finite as long
    as Z' does; it is 0 where h - 1 < 0 < h + 1, which happens by rounding
    only."""
    alpha, beta = family.alpha, family.beta

    def f(end, offset):
        h_end = beta + alpha * end * end
        dh = alpha * offset * (2.0 * end + offset)
        lower, upper = h_end - 1.0 + dh, h_end + 1.0 + dh
        slope = np.sqrt(np.abs(lower)) * np.sqrt(np.abs(upper))
        return np.where((lower < 0.0) & (upper > 0.0), 0.0, slope)

    return f


def embed_point(eps, rho, phi):
    """Embedded point of the eps-family at (rho, phi).

    Domains: eps=+1 needs rho >= 0; eps=-1 needs rho >= sqrt(2);
    eps=0 needs rho >= 1 (heights measured from rho = 1).
    """
    if eps == 1:
        if rho < 0.0:
            raise DomainError(f"the eps=+1 embedding needs rho >= 0, got {rho}")
        z = _z_plus(rho)
    elif eps == -1:
        if rho < math.sqrt(2.0) - 1e-12:
            raise DomainError(f"the eps=-1 embedding needs rho >= sqrt(2), got {rho}")
        z = _z_minus(max(rho, math.sqrt(2.0)))
    elif eps == 0:
        if rho < 1.0:
            raise DomainError(f"the eps=0 embedding needs rho >= 1, got {rho}")
        z = tanh_sinh(_slope(G2Family(0)), 1.0, rho)  # integral_1^rho sqrt(x^4 - 1)
    else:
        raise ValueError("eps must be -1, 0 or +1")
    return rho * math.cos(phi), rho * math.sin(phi), z


def algebraic_residual(eps, x, y, z):
    """(X^2 + Y^2 + 2 eps)^3 - 9 Z^2; zero on the eps=+-1 embedded surfaces."""
    if eps not in (-1, 1):
        raise ValueError("the algebraic identity holds for eps = -1 or +1")
    return (x * x + y * y + 2.0 * eps) ** 3 - 9.0 * z * z


def embed_negative_curvature(rho, phi):
    """Embedding of the negative-curvature portion of the metric
    (rho^2 - 5)^2 drho^2 + rho^2 dpsi^2; valid on 0 <= rho <= 2 where
    Z' = sqrt((rho^2 - 6)(rho^2 - 4)) is real."""
    if not (0.0 <= rho <= 2.0):
        raise DomainError(f"this branch embeds 0 <= rho <= 2 only, got {rho}")
    z = tanh_sinh(_slope(RevolutionProfile(1.0, -5.0)), 0.0, rho)  # h = rho^2 - 5
    return rho * math.cos(phi), rho * math.sin(phi), z


@dataclass(frozen=True)
class RevolutionMesh:
    """Vertex grid of an embedded revolution surface."""

    family_tag: str
    eps: int | None
    rho: np.ndarray  # (nr,)
    phi: np.ndarray  # (nphi,)
    xyz: np.ndarray  # (nr, nphi, 3)

    @property
    def n_vertices(self):
        return self.xyz.shape[0] * self.xyz.shape[1]


def _overflow_error(family, lo, hi):
    return DomainError(
        f"no finite heights for {family.spec_string()} on rho range {lo!r}:{hi!r} (float overflow)"
    )


def _integrated_heights(family, start, rho):
    """Z(rho_i) = integral of Z' from `start`: one `tanh_sinh` call over the
    intervals [start, rho_0], [rho_0, rho_1], ..., accumulated.  |h| is
    monotone on the range, so Z' is finite throughout if it is at both ends."""
    slope = _slope(family)
    ends = np.array([[start, rho[-1]]])
    if not np.all(np.isfinite(slope(ends, np.zeros_like(ends)))):
        raise _overflow_error(family, float(rho[0]), float(rho[-1]))
    return np.cumsum(tanh_sinh(slope, np.concatenate([[start], rho[:-1]]), rho))


def _height_profile(family, rho_values):
    """Z(rho_i) for a catalog family, validating the whole range first."""
    lo, hi = float(rho_values[0]), float(rho_values[-1])
    with np.errstate(over="ignore"):
        if isinstance(family, G2Family) and family.eps == 1:
            if lo < 0.0:
                raise DomainError(f"eps=+1 embeds rho >= 0 only (requested lo = {lo})")
            heights = np.array([_z_plus(r) for r in rho_values])
        elif isinstance(family, G2Family) and family.eps == -1:
            if lo < math.sqrt(2.0) - 1e-12:
                raise DomainError(
                    f"eps=-1 embeds rho >= sqrt(2) only (requested lo = {lo})"
                )
            heights = np.array([_z_minus(r) for r in np.maximum(rho_values, math.sqrt(2.0))])
        elif isinstance(family, G2Family):
            if lo < 1.0:
                raise DomainError(f"eps=0 embeds rho >= 1 only (requested lo = {lo})")
            heights = _integrated_heights(family, 1.0, rho_values)
        elif isinstance(family, RevolutionProfile):
            # h is monotone for rho >= 0, so its range is the endpoint interval;
            # the embedding needs that interval to avoid (-1, 1) entirely
            if lo < 0.0:
                raise DomainError(f"profile embeds rho >= 0 only (requested lo = {lo})")
            h_lo, h_hi = sorted((family.h(lo), family.h(hi)))
            if not (h_hi <= -1.0 or h_lo >= 1.0):
                raise DomainError(
                    "profile embeds only where (beta + alpha rho^2)^2 >= 1 on the whole range"
                )
            heights = _integrated_heights(family, lo, rho_values)
        else:
            raise ValueError(f"no embedding rule for family {family!r}")
    if not np.all(np.isfinite(heights)):  # eps = +-1 closed forms, or the cumsum
        raise _overflow_error(family, lo, hi)
    return heights, getattr(family, "eps", None)


def build_mesh(family, rho_range, nr, nphi, z_func=None):
    """Sample the embedded surface on an (nr x nphi) grid.

    `z_func`, when given, overrides the family height profile (used for
    synthetic meshes such as the flat disk)."""
    lo, hi = (float(rho_range[0]), float(rho_range[1]))
    if not (hi > lo):
        raise ValueError("empty rho range")
    if nr < 2 or nphi < 2:
        raise ValueError("mesh needs at least 2 samples per direction")
    rho = np.linspace(lo, hi, nr)
    phi = np.linspace(0.0, 2.0 * math.pi, nphi)
    if z_func is not None:
        heights = np.array([float(z_func(r)) for r in rho])
        eps = getattr(family, "eps", None)
        tag = family.kind if isinstance(family, Surface) else str(family)
    else:
        heights, eps = _height_profile(family, rho)
        tag = family.kind
    xyz = np.empty((nr, nphi, 3))
    xyz[:, :, 0] = rho[:, None] * np.cos(phi)[None, :]
    xyz[:, :, 1] = rho[:, None] * np.sin(phi)[None, :]
    xyz[:, :, 2] = heights[:, None]
    return RevolutionMesh(family_tag=tag, eps=eps, rho=rho, phi=phi, xyz=xyz)


RHO_ORDER = 6  # centered 7-point stencil along the profile direction
RHO_MARGIN = RHO_ORDER // 2
PHI_STENCIL = 13  # periodic stencil along the angle, exact to high order


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


def emit_mesh(family, rho_range, nr, nphi, destination):
    """Write the mesh in the plain-text grid format.

    Header `# family=<tag> eps=<v> nr=<n> nphi=<m>`, vertex rows `i j X Y Z`,
    then quad rows `q i1 i2 i3 i4` (flat vertex index = i * nphi + j).
    Domain errors are raised before anything is written.
    """
    mesh = build_mesh(family, rho_range, nr, nphi)
    close = False
    if isinstance(destination, (str, bytes)):
        fh = open(destination, "w", encoding="utf-8")
        close = True
    else:
        fh = destination
    try:
        eps = mesh.eps if mesh.eps is not None else "none"
        fh.write(f"# family={mesh.family_tag} eps={eps} nr={nr} nphi={nphi}\n")
        # one write per profile row.  Z is constant along a row and i, j come
        # from the grid, so they are written into the row template and only X
        # and Y go through %.17g
        cells = [f" {j} %.17g %.17g" for j in range(nphi)]
        for i, z in enumerate(mesh.xyz[:, 0, 2].tolist()):
            tail = f" {z:.17g}\n"
            row = f"{i}" + f"{tail}{i}".join(cells) + tail
            fh.write(row % tuple(mesh.xyz[i, :, :2].ravel().tolist()))
        # quad (i, j) is [v, v + nphi, v + nphi + 1, v + 1] with v = i * nphi + j
        j = np.arange(nphi - 1)
        stencil = np.stack([j, j + nphi, j + nphi + 1, j + 1], axis=1).ravel()
        quad_row = "q %d %d %d %d\n" * (nphi - 1)
        for i in range(nr - 1):
            fh.write(quad_row % tuple((stencil + i * nphi).tolist()))
    finally:
        if close:
            fh.close()
    return mesh


def load_mesh(path):
    """Parse a mesh file back into vertices and quads (testing helper)."""
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
