"""Independent references and verifiers that the tests check the package with.

No command of the package runs these: the constant-curvature quartic in
factored form and the necessary condition of the 9:1 ratio, `g2_check`
written one grid point at a time, the table row writer formatting every
cell on its own, the root classifier written one quartic
at a time in Python arithmetic, the rows of the derived frame as the
callables the numerical brackets differentiate, the RK4 roll with its stage
in numpy arrays, the pair symmetries and
Weyl traces of the oracle's curvature tensors, the curvature tensors by the
long route through the raised Riemann tensor, the oracle on a stencil that
also steps y and v, the residuals of the profile
equations, and the mesh checks (the algebraic identity of the eps = +-1
surfaces, the induced metric and the Gauss curvature by finite
differences, and a reader of the mesh text).  The test modules import this
one by name; pytest does not collect it.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from rolling_twistor import cartan_invariants
from rolling_twistor import conformal_oracle as co
from rolling_twistor.cartan_invariants import (
    VANISH_TOL,
    CartanQuartic,
    G2Report,
    quartic_killing_case,
    root_type,
)
from rolling_twistor.distribution5 import _as_point5, field_rows, validate_point
from rolling_twistor.errors import DomainError, StepSizeError
from rolling_twistor.finitediff import check_step, fd_weights, richardson, sampled_derivative
from rolling_twistor.rolling import MAX_STEPS, Trajectory
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


def g2_check_by_rows(s1, lam, grid, tol=VANISH_TOL):
    """`g2_check` one grid point at a time, in Python floats: each row's
    jet, quartic, vanishing scale and root type on its own, so the first
    failing point raises first.  The report's columns are gathered from the
    rows."""
    kappas, quartics, scaled, tags = [], [], [], []
    for p in zip(*(c.tolist() for c in grid)):
        jet = s1.jet(p)
        q = quartic_killing_case(jet, lam)
        kappa = jet.kappa
        kappas.append(kappa)
        quartics.append(q)
        scaled.append(q.max_abs / ((kappa - lam) ** 4 * max(kappa**2, lam**2, 1.0)))
        tags.append("zero" if scaled[-1] < tol else root_type(q))
    worst = max([0.0] + scaled)
    return G2Report(points=grid, kappa=np.array(kappas), quartics=np.array(quartics).reshape(-1, 5),
                    scaled=np.array(scaled), tags=tags, max_scaled=worst, is_g2=worst < tol)


def rows_by_cells(table, *text):
    """The lines of `cli._rows`, every cell formatted on its own: each row
    of the 2-D array `table` in %.17g, then its entries of the `text` columns."""
    return [",".join(["%.17g" % v for v in row] + texts)
            for row, *texts in zip(table.tolist(), *text)]


def classify_roots(roots, inf_mult):
    """(tag, multiplicities) of the finite roots and inf_mult roots at
    infinity: the greedy clustering one root at a time, in the arithmetic of
    the roots' own Python types (a float root averages as a float), with the
    radius `cartan_invariants.ROOT_CLUSTER_RADIUS` read per call; the
    multiplicities largest first."""
    clusters = []  # list of [representative, count]
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        for c in clusters:
            if abs(z - c[0]) <= cartan_invariants.ROOT_CLUSTER_RADIUS * (1.0 + abs(c[0])):
                c[0] = (c[0] * c[1] + z) / (c[1] + 1)
                c[1] += 1
                break
        else:
            clusters.append([z, 1])
    mults = tuple(sorted([c[1] for c in clusters] + ([inf_mult] if inf_mult else []),
                         reverse=True))
    return "[" + ",".join(str(m) for m in mults) + "]", mults


def row_fields(s1, s2):
    """The rows X1..X5 of `field_rows` as callables of the chart point, for
    the finite-difference `lie_bracket`."""
    return tuple(lambda p, i=i: field_rows(s1, s2, p)[i] for i in range(5))


def velocity_rows_by_arrays(s1, s2, y):
    """The rows X1, X2 at the chart point y as a (2, 5) array, with cos phi
    and sin phi from numpy."""
    f1, f2, a2, _ = s1.frame_data((y[0], y[1]))
    f3, f4, a4, _ = s2.frame_data((y[2], y[3]))
    c, s = np.cos(y[4]), np.sin(y[4])
    rows = np.zeros((2, 5))
    rows[0] = f1, 0.0, c * f3, s * f4, a4 * s
    rows[1] = 0.0, f2, -s * f3, c * f4, -a2 + a4 * c
    return rows


def integrate_by_arrays(s1, s2, start, ctrl, dt, t_end):
    """`rolling.integrate` with its RK4 stage in numpy arrays: each stage
    forms c1 X1 + c2 X2 from the (2, 5) rows of `velocity_rows_by_arrays`
    and adds 5-vectors as arrays, and the accepted samples are kept in a
    list."""
    check_step(dt)
    steps = t_end / dt
    if not steps <= MAX_STEPS:
        raise StepSizeError(f"dt = {dt!r} divides T = {t_end!r} into {steps:.3g} steps,"
                            f" more than {MAX_STEPS}")
    y = _as_point5(start)
    n_steps = max(1, int(round(steps)))
    dt = t_end / n_steps
    times = np.arange(n_steps + 1) * dt
    t = times[:-1]
    controls = ctrl(np.stack([t, t + dt / 2.0, t + dt])).T
    points = [y]

    def f(c, state):
        rows = velocity_rows_by_arrays(s1, s2, state)
        return c[0] * rows[0] + c[1] * rows[1]

    for k, (c_start, c_mid, c_end) in enumerate(controls):
        try:
            k1 = f(c_start, y)
            k2 = f(c_mid, y + dt / 2.0 * k1)
            k3 = f(c_mid, y + dt / 2.0 * k2)
            k4 = f(c_end, y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            validate_point(s1, s2, y)
        except DomainError as exc:
            exc.last_valid = Trajectory(times[: k + 1], np.array(points), ctrl, dt)
            raise
        points.append(y)
    return Trajectory(times=times, points=np.array(points), control=ctrl, dt=dt)


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


def curvature_by_raised_riemann(g0, dg, ddg):
    """(ginv, Gamma, Riemann, Ricci, scalar, Weyl) of the metric g0 with
    derivatives dg[..., k, :, :] = d_k g and ddg[..., k, l, :, :] = d_k d_l g,
    any leading axes: the long route through the derivatives of the inverse
    metric and of the Christoffel symbols and the raised Riemann tensor
    R^i_{jkl}, lowered with g0 at the end.  The oracle's assembly once took
    this route; its Riemann and Weyl tensors are fully lowered, with Ricci
    R^k_{jkl} and Gamma[..., i, j, k] = Gamma^i_{jk}."""
    n = g0.shape[-1]
    ginv = np.linalg.inv(g0)
    dginv = -np.einsum("...ia,...kab,...bj->...kij", ginv, dg, ginv)

    # T[s, m, v] = d_m g_{s v} + d_v g_{s m} - d_s g_{m v}
    T = np.einsum("...msv->...smv", dg) + np.einsum("...vsm->...smv", dg) - dg
    gamma = 0.5 * np.einsum("...ls,...smv->...lmv", ginv, T)
    # dT[k, s, m, v] from the second derivatives
    dT = (
        np.einsum("...kmsv->...ksmv", ddg)
        + np.einsum("...kvsm->...ksmv", ddg)
        - np.einsum("...ksmv->...ksmv", ddg)
    )
    dgamma = 0.5 * (
        np.einsum("...kls,...smv->...klmv", dginv, T)
        + np.einsum("...ls,...ksmv->...klmv", ginv, dT)
    )

    # R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
    #             + Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}
    riem_up = (
        np.einsum("...kilj->...ijkl", dgamma)
        - np.einsum("...likj->...ijkl", dgamma)
        + np.einsum("...ikm,...mlj->...ijkl", gamma, gamma)
        - np.einsum("...ilm,...mkj->...ijkl", gamma, gamma)
    )
    riem = np.einsum("...im,...mjkl->...ijkl", g0, riem_up)
    ricci = np.einsum("...kjkl->...jl", riem_up)
    scalar = np.einsum("...jl,...jl->...", ginv, ricci)

    w = (
        riem
        - (1.0 / (n - 2))
        * (
            np.einsum("...ik,...jl->...ijkl", g0, ricci)
            - np.einsum("...il,...jk->...ijkl", g0, ricci)
            - np.einsum("...jk,...il->...ijkl", g0, ricci)
            + np.einsum("...jl,...ik->...ijkl", g0, ricci)
        )
        + (scalar[..., None, None, None, None] / ((n - 1) * (n - 2)))
        * (
            np.einsum("...ik,...jl->...ijkl", g0, g0)
            - np.einsum("...il,...jk->...ijkl", g0, g0)
        )
    )
    return ginv, gamma, riem, ricci, scalar, w


def full_stencil_steps():
    """The (2, 51, 5) steps of a stencil over all five chart coordinates, at
    FD_STEP and its half: a zero step (-0.0), +-e_k for each k, then +-e and
    +-f (e = e_k + e_l, f = e_k - e_l) for each pair k < l."""
    unit = np.eye(5)
    k, l = (list(x) for x in zip(*itertools.combinations(range(5), 2)))
    e, f = unit[k] + unit[l], unit[k] - unit[l]
    steps = np.vstack([np.full((1, 5), -0.0), np.stack([unit, -unit], axis=1).reshape(-1, 5),
                       np.stack([e, -e, f, -f], axis=1).reshape(-1, 5)])
    return np.stack([steps * h for h in (co.FD_STEP, co.FD_STEP / 2.0)])


def full_stencil_derivatives(metric, p):
    """(g0, dg, ddg) with a leading tier axis (step h, then h/2) of the
    metric at the chart point p, by central differences on the 102 rows of
    `full_stencil_steps`, every coordinate stepped: the oracle's derivatives
    before its stencil dropped y and v."""
    steps = full_stencil_steps()
    g = np.asarray(metric((np.asarray(p, dtype=float) + steps).reshape(-1, 5)))
    g = g.reshape(2, -1, 5, 5)
    h = np.array([co.FD_STEP, co.FD_STEP / 2.0])[:, None, None, None]
    g0, gp, gm = g[:, 0], g[:, 1:11:2], g[:, 2:11:2]
    dg = (gp - gm) / (2.0 * h)
    ddg = np.empty((2, 5, 5, 5, 5))
    ddg[:, range(5), range(5)] = (gp - 2.0 * g0[:, None] + gm) / h**2
    k, l = (list(x) for x in zip(*itertools.combinations(range(5), 2)))
    gpp, gmm, gpm, gmp = (g[:, 11 + i :: 4] for i in range(4))
    ddg[:, k, l] = ddg[:, l, k] = (gpp + gmm - gpm - gmp) / (4.0 * h**2)
    return co._Derivs(g0, dg, ddg)


def oracle_by_full_stencil(s1, s2, p):
    """(quartic, noise, weyl_norm, weyl_noise) of `cartan_from_weyl` at the
    one chart point p, or the error it raises, by the oracle's route before
    its stencil dropped y and v: the duals from a coframe call on p, then
    the metric on the 102 rows of `full_stencil_derivatives`, the Richardson
    blend and the curvature of the blend and of each step."""
    a = np.asarray(p, dtype=float)[None]
    with np.errstate(all="ignore"):
        Y = co._duals(co.theta_coframe(s1, s2, a), a)[0]
        d = full_stencil_derivatives(lambda rows: co.metric_components(s1, s2, rows), p)
        blend = co._Derivs(d.g0[0], richardson(d.dg[0], d.dg[1]), richardson(d.ddg[0], d.ddg[1]))
        tiers = co._Derivs(*(np.concatenate([x[None], y]) for x, y in zip(blend, d)))
        try:
            w = co._assemble_curvature(tiers)[-1]
        except np.linalg.LinAlgError:
            raise DomainError(f"the oracle metric is singular at {co._where(p)}") from None
        A = co._contract_quartic(w, Y)
        norms = co._frobenius(w)
    if not (np.isfinite(w[0]).all() and np.isfinite(A[0]).all() and np.isfinite(norms).all()):
        kappa, lam = s1.frame_data((p[0], p[1])).kappa, s2.frame_data((p[2], p[3])).kappa
        raise DomainError("the Weyl tensor of the oracle metric or its norm is not finite"
                          f" at kappa = {float(kappa)!r}, lambda = {float(lam)!r}, {co._where(p)}")
    return A[0], np.abs(A[1] - A[2]), norms[0], abs(norms[1] - norms[2])


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


RHO_ORDER = 6  # of the centred 7-point stencil of `sampled_derivative`, along the profile
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
    return np.swapaxes(sampled_derivative(np.swapaxes(values, 0, 1), dphi), 0, 1)


def _grid_partials(mesh):
    """FD tangents X_rho, X_phi over the grid."""
    drho = float(mesh.rho[1] - mesh.rho[0])
    return sampled_derivative(mesh.xyz, drho), _mesh_phi_derivative(mesh, mesh.xyz)


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
    x_rr = sampled_derivative(x_r, drho)
    x_rp = sampled_derivative(x_p, drho)
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
