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

`build_mesh` samples the embedded surface on a grid, one height per profile
row, and `emit_mesh` writes a built mesh as text to an open handle; these
are what the `embed` command runs.  The checks of a mesh (the algebraic
identity, the induced metric and the Gauss curvature by finite differences)
are test references and live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .finitediff import tanh_sinh
from .surfaces import G2Family, RevolutionProfile

# vertices of one mesh; an `embed` at the cap peaks at about 0.77 GB, at nphi = 2
# on a family whose heights are integrated (about 3 KB per profile row)
MAX_VERTICES = 5 * 10**5


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


def build_mesh(family, rho_range, nr, nphi):
    """Sample the embedded surface on an (nr x nphi) grid."""
    lo, hi = (float(rho_range[0]), float(rho_range[1]))
    if not (hi > lo):
        raise ValueError("empty rho range")
    if nr < 2 or nphi < 2:
        raise ValueError("mesh needs at least 2 samples per direction")
    if nr * nphi > MAX_VERTICES:
        raise DomainError(
            f"a {nr} x {nphi} mesh has {nr * nphi} vertices, more than {MAX_VERTICES}")
    rho = np.linspace(lo, hi, nr)
    phi = np.linspace(0.0, 2.0 * math.pi, nphi)
    heights, eps = _height_profile(family, rho)
    xyz = np.empty((nr, nphi, 3))
    xyz[:, :, 0] = rho[:, None] * np.cos(phi)[None, :]
    xyz[:, :, 1] = rho[:, None] * np.sin(phi)[None, :]
    xyz[:, :, 2] = heights[:, None]
    return RevolutionMesh(family_tag=family.kind, eps=eps, rho=rho, phi=phi, xyz=xyz)


def emit_mesh(mesh, fh):
    """Write the mesh in the plain-text grid format to the open text handle fh.

    Header `# family=<tag> eps=<v> nr=<n> nphi=<m>`, vertex rows `i j X Y Z`,
    then quad rows `q i1 i2 i3 i4` (flat vertex index = i * nphi + j).
    """
    nr, nphi = mesh.xyz.shape[:2]
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
