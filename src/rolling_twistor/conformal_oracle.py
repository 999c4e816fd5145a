"""Independent verification path through the associated conformal 5-metric.

For a rotationally symmetric surface rolling on a surface of constant
curvature, the (3,2)-signature metric representing the conformal class of
the velocity distribution has an explicit coframe in the configuration
chart.  Differentiating that metric numerically gives Christoffel, Riemann,
Ricci and Weyl tensors, and contracting the lowered Weyl tensor with the
coframe duals recovers the quartic coefficients up to a common nonvanishing
factor.  Agreement with the closed forms is therefore a genuine two-route
consistency check, and the vanishing of the full Weyl tensor (conformal
flatness) is an independent maximal-symmetry detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cartan_invariants import CartanQuartic
from .distribution5 import _as_point5, _require_noninteg
from .errors import DomainError
from .finitediff import check_step, richardson

# constant coefficient matrix of the metric in the theta basis:
# th1*th5 + th5*th1 - th2*th4 - th4*th2 + 4/3 th3*th3
ETA5 = np.zeros((5, 5))
ETA5[0, 4] = ETA5[4, 0] = 1.0
ETA5[1, 3] = ETA5[3, 1] = -1.0
ETA5[2, 2] = 4.0 / 3.0

DEFAULT_FD_STEP = 1e-3


def _require_constant(s2):
    if not s2.is_constant_curvature:
        raise ValueError("the oracle requires a constant-curvature second surface")


def _sigma_rows(d1, d2):
    """Rows sigma^1..sigma^4 in the cobasis (dx, dy, du, dv, dphi): the duals
    dx/f1, dy/f2, du/f3, dv/f4 of the surfaces' frames, given their frame
    data d1, d2."""
    rows = np.zeros((4, 5))
    rows[0, 0], rows[1, 1] = 1.0 / d1.f1, 1.0 / d1.f2
    rows[2, 2], rows[3, 3] = 1.0 / d2.f1, 1.0 / d2.f2
    return rows


def omega_coframe(s1, s2, p):
    """Rows omega_1..omega_5 of the adapted coframe at p.

    These dualize the frame (X1, X2, X3, X4 - a2 X3, X5): same
    filtration spans as the commutator frame, with the fourth slot shifted
    by a multiple of X3.  Any such adapted choice represents the same
    conformal class; this one admits the compact closed form used here.
    The second surface must have constant curvature.
    """
    _require_constant(s2)
    a = _as_point5(p)
    return _omega_rows(a, *_surface_data(s1, s2, a))


def _surface_data(s1, s2, a):
    """(j1, d1, d2) at the chart point a: the jet and frame data of the first
    surface and the frame data of the second."""
    q1 = (a[0], a[1])
    return s1.jet(q1), s1.frame_data(q1), s2.frame_data((a[2], a[3]))


def _omega_rows(a, j1, d1, d2):
    """omega_coframe at the chart point a, given the jet j1 and frame data d1
    of the first surface and the frame data d2 of the second there."""
    k, lam = j1.kappa, d2.kappa
    _require_noninteg(k, lam)
    a2, a4, k1 = j1.a2, d2.a2, j1.kappa1
    d = k - lam
    c, s = np.cos(a[4]), np.sin(a[4])
    sig = _sigma_rows(d1, d2)
    dphi = np.zeros(5)
    dphi[4] = 1.0

    w = np.zeros((5, 5))
    w[0] = sig[0]
    try:
        c2 = 2.0 * a2**2 * k + 2.0 * k**2 - a2 * k1 - 2.0 * a2**2 * lam - 3.0 * k * lam + lam**2
        c3 = a2**2 * k + k**2 - a2 * k1 - a2**2 * lam - k * lam
        w[1] = (
            c2 * sig[1] + c3 * s * sig[2] - (a2 * a4 * d + c3 * c) * sig[3]
        ) / d**2 + a2 * dphi / d
        w[2] = (
            (-a2 * d + k1) * sig[1] + k1 * s * sig[2] + (a4 * d - k1 * c) * sig[3]
        ) / d**2 - dphi / d
        w[3] = (-sig[1] - s * sig[2] + c * sig[3]) / d
        w[4] = (sig[0] - c * sig[2] - s * sig[3]) / d
        finite = np.isfinite(w).all()
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"the oracle coframe overflows at kappa = {float(k)!r}, lambda = {float(lam)!r}"
        )
    return w


@dataclass(frozen=True)
class Coframe5:
    """Invariant coframe rows theta^1..theta^5 in the coordinate cobasis."""

    point: np.ndarray
    matrix: np.ndarray

    @property
    def determinant(self):
        return float(np.linalg.det(self.matrix))

    def duals(self):
        """Columns Y_1..Y_5 with <theta^j, Y_i> = delta^j_i."""
        return np.linalg.inv(self.matrix)


def theta_coframe(s1, s2, p):
    """Invariant coframe assembled from the omega rows with the jet-dependent
    coefficient functions."""
    _require_constant(s2)
    a = _as_point5(p)
    j1, d1, d2 = _surface_data(s1, s2, a)
    w = _omega_rows(a, j1, d1, d2)
    lam = d2.kappa
    k, a2, k1, k11 = j1.kappa, j1.a2, j1.kappa1, j1.kappa11
    d = k - lam

    q = a2 + k1 / (lam - k)
    r = (
        a2**2
        + (8.0 / 5.0) * k
        - (7.0 / 5.0) * lam
        + (k11 - a2 * k1) / (10.0 * d)
        - 0.5 * k1**2 / d**2
    )
    t = -(
        a2**2
        + (13.0 / 10.0) * k
        - (7.0 / 10.0) * lam
        + k11 / (10.0 * d)
        - 0.5 * k1**2 / d**2
    )
    u = (3.0 / 10.0) * k - (7.0 / 10.0) * lam + a2 * k1 / (10.0 * (lam - k))

    th = np.zeros((5, 5))
    th[0] = w[3] - w[4]
    th[1] = w[4]
    th[2] = -w[2]
    th[3] = -w[0] + w[1] + q * w[2] + r * w[3]
    th[4] = -w[1] - q * w[2] + t * w[3] + u * w[4]
    return Coframe5(point=a, matrix=th)


def metric_components(s1, s2, p):
    """Symmetric 5x5 components of the (3,2)-signature metric at p."""
    T = theta_coframe(s1, s2, p).matrix
    G = T.T @ ETA5 @ T
    return 0.5 * (G + G.T)  # exact symmetry despite rounding asymmetries


def metric_field(s1, s2):
    """The metric as a callable over configuration points."""
    _require_constant(s2)

    def g(p):
        return metric_components(s1, s2, p)

    return g


class _Derivs(NamedTuple):
    g0: np.ndarray
    dg: np.ndarray  # dg[k] = d g / d x^k
    ddg: np.ndarray  # ddg[k, l] = d^2 g / d x^k d x^l


def _metric_derivatives(metric, p, h):
    g0 = np.asarray(metric(p), dtype=float)
    n = len(p)
    dg = np.empty((n, n, n))
    ddg = np.empty((n, n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        gp = np.asarray(metric(p + e), dtype=float)
        gm = np.asarray(metric(p - e), dtype=float)
        dg[k] = (gp - gm) / (2.0 * h)
        ddg[k, k] = (gp - 2.0 * g0 + gm) / h**2
    for k in range(n):
        for l in range(k + 1, n):
            e = np.zeros(n)
            e[k] = h
            e[l] = h
            f = np.zeros(n)
            f[k] = h
            f[l] = -h
            gpp = np.asarray(metric(p + e), dtype=float)
            gmm = np.asarray(metric(p - e), dtype=float)
            gpm = np.asarray(metric(p + f), dtype=float)
            gmp = np.asarray(metric(p - f), dtype=float)
            ddg[k, l] = ddg[l, k] = (gpp + gmm - gpm - gmp) / (4.0 * h**2)
    return _Derivs(g0=g0, dg=dg, ddg=ddg)


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature tensors of a metric at a point, all indices coordinate.

    `riemann` and `weyl` are fully lowered; `noise` maps tensor names to the
    maximum componentwise discrepancy between the step-h and step-h/2
    computations (the finite-difference noise floor).
    """

    g: np.ndarray
    ginv: np.ndarray
    christoffel: np.ndarray  # Gamma[i, j, k] = Gamma^i_{jk}
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    weyl: np.ndarray
    noise: dict

    @property
    def weyl_norm(self):
        return float(np.sqrt(np.sum(self.weyl**2)))


def _assemble_curvature(d):
    g0, dg, ddg = d
    n = g0.shape[0]
    ginv = np.linalg.inv(g0)
    dginv = -np.einsum("ia,kab,bj->kij", ginv, dg, ginv)

    # T[s, m, v] = d_m g_{s v} + d_v g_{s m} - d_s g_{m v}
    T = np.einsum("msv->smv", dg) + np.einsum("vsm->smv", dg) - dg
    gamma = 0.5 * np.einsum("ls,smv->lmv", ginv, T)
    # dT[k, s, m, v] from the second derivatives
    dT = (
        np.einsum("kmsv->ksmv", ddg)
        + np.einsum("kvsm->ksmv", ddg)
        - np.einsum("ksmv->ksmv", ddg)
    )
    dgamma = 0.5 * (
        np.einsum("kls,smv->klmv", dginv, T) + np.einsum("ls,ksmv->klmv", ginv, dT)
    )

    # R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
    #             + Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}
    riem_up = (
        np.einsum("kilj->ijkl", dgamma)
        - np.einsum("likj->ijkl", dgamma)
        + np.einsum("ikm,mlj->ijkl", gamma, gamma)
        - np.einsum("ilm,mkj->ijkl", gamma, gamma)
    )
    riem = np.einsum("im,mjkl->ijkl", g0, riem_up)
    ricci = np.einsum("kjkl->jl", riem_up)
    scalar = float(np.einsum("jl,jl->", ginv, ricci))

    w = (
        riem
        - (1.0 / (n - 2))
        * (
            np.einsum("ik,jl->ijkl", g0, ricci)
            - np.einsum("il,jk->ijkl", g0, ricci)
            - np.einsum("jk,il->ijkl", g0, ricci)
            + np.einsum("jl,ik->ijkl", g0, ricci)
        )
        + (scalar / ((n - 1) * (n - 2)))
        * (np.einsum("ik,jl->ijkl", g0, g0) - np.einsum("il,jk->ijkl", g0, g0))
    )
    return g0, ginv, gamma, riem, ricci, scalar, w


def _curvature_tiers(metric, p, h):
    """`_assemble_curvature` of the metric derivatives at step h, at step h/2
    and of their Richardson extrapolation, in that order."""
    h = check_step(h)
    d1 = _metric_derivatives(metric, p, h)
    d2 = _metric_derivatives(metric, p, h / 2.0)
    extrap = _Derivs(g0=d1.g0, dg=richardson(d1.dg, d2.dg), ddg=richardson(d1.ddg, d2.ddg))
    return _assemble_curvature(d1), _assemble_curvature(d2), _assemble_curvature(extrap)


def curvature(metric, p, h=DEFAULT_FD_STEP):
    """Curvature bundle of a metric field at p by central differences.

    The metric derivatives are computed at steps h and h/2 and Richardson
    extrapolated; the h-vs-h/2 discrepancy of each assembled tensor is
    reported as its noise floor.
    """
    raw1, raw2, extrap = _curvature_tiers(metric, np.asarray(p, dtype=float), h)
    names = ("christoffel", "riemann", "ricci", "scalar", "weyl")
    noise = {
        name: float(np.max(np.abs(np.asarray(raw1[i]) - np.asarray(raw2[i]))))
        for i, name in enumerate(names, start=2)
    }
    return CurvatureBundle(*extrap, noise=noise)


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


class OracleQuartic(NamedTuple):
    """Quartic coefficients extracted from the numerical Weyl tensor.

    Defined up to an overall factor; `noise` is the per-coefficient FD noise
    floor, `weyl_norm`/`weyl_noise` the Frobenius norm of the full Weyl
    tensor and its floor.
    """

    quartic: CartanQuartic
    noise: np.ndarray
    weyl_norm: float
    weyl_noise: float


def _contract_quartic(weyl, Y):
    def C(a, b, c, d):
        return float(np.einsum("ijkl,i,j,k,l->", weyl, Y[:, a], Y[:, b], Y[:, c], Y[:, d]))

    return np.array(
        [C(3, 0, 0, 3), C(3, 0, 1, 3), C(3, 0, 1, 4), C(3, 1, 1, 4), C(4, 1, 1, 4)]
    )


def cartan_from_weyl(s1, s2, p, h=DEFAULT_FD_STEP):
    """Quartic coefficients from the Weyl tensor of the explicit metric.

    The five contractions pair the null directions spanning the distribution
    with their orthogonal partners in the transverse null plane.
    """
    a = _as_point5(p)
    Y = theta_coframe(s1, s2, a).duals()
    w1, w2, w = (c[6] for c in _curvature_tiers(metric_field(s1, s2), a, h))

    A = _contract_quartic(w, Y)
    A1 = _contract_quartic(w1, Y)
    A2 = _contract_quartic(w2, Y)
    return OracleQuartic(
        quartic=CartanQuartic(*A),
        noise=np.abs(A1 - A2),
        weyl_norm=float(np.sqrt(np.sum(w**2))),
        weyl_noise=float(abs(np.sqrt(np.sum(w1**2)) - np.sqrt(np.sum(w2**2)))),
    )


def proportionality_residual(qa, qb):
    """Largest 2x2 minor |A_i B_j - A_j B_i|, scaled by max|A| max|B|."""
    A = np.asarray(qa.array if isinstance(qa, CartanQuartic) else qa, dtype=float)
    B = np.asarray(qb.array if isinstance(qb, CartanQuartic) else qb, dtype=float)
    sa, sb = np.max(np.abs(A)), np.max(np.abs(B))
    if sa == 0.0 or sb == 0.0:
        return 0.0 if (sa == 0.0 and sb == 0.0) else np.inf
    m = np.outer(A, B)  # m[i, j] = A_i B_j
    return float(np.max(np.abs(m - m.T)) / (sa * sb))


def compare_projective(qa, qb, tol):
    """True iff the two coefficient vectors are proportional within tol
    (projective equality), or both vanish."""
    return proportionality_residual(qa, qb) <= tol
