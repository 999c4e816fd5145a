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

The coframes and the metric take one chart point or an (m, 5) stack of
points through one code path (a point is a stack of one), and each row
rounds as it does on its own: squares go through the C library's pow, as
a float's ** does.  The curvature calls the metric once per point, on the
whole finite-difference stencil of both steps (FD_STEP and its half).  A
stack that fails raises the error of its first failing row, as that row
raises on its own.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cartan_invariants import CartanQuartic
from .distribution5 import _as_point5, _require_noninteg
from .errors import DomainError, RollingTwistorError
from .finitediff import richardson

# constant coefficient matrix of the metric in the theta basis:
# th1*th5 + th5*th1 - th2*th4 - th4*th2 + 4/3 th3*th3
ETA5 = np.zeros((5, 5))
ETA5[0, 4] = ETA5[4, 0] = 1.0
ETA5[1, 3] = ETA5[3, 1] = -1.0
ETA5[2, 2] = 4.0 / 3.0

FD_STEP = 1e-3  # central-difference step of the metric derivatives


def _require_constant(s2):
    if not s2.is_constant_curvature:
        raise ValueError("the oracle requires a constant-curvature second surface")


def _as_stack5(p):
    """The chart points of p as an (m, 5) array, and whether p was one point
    (a point is a stack of one)."""
    if np.ndim(p) == 1:
        return _as_point5(p)[None], True
    a = np.asarray(p, dtype=float)
    if a.ndim != 2 or a.shape[1] != 5:
        raise ValueError("configuration points have 5 coordinates")
    return a, False


def _stacked(fn, p):
    """fn(a) for the (m, 5) stack a of the chart points p, or its first row
    if p is one point.  numpy's floating-point warnings are off:
    fn checks for non-finite values itself.  If fn raises, each row is
    evaluated on its own, in order, so the error raised is that of the first
    row that fails."""
    a, single = _as_stack5(p)
    with np.errstate(all="ignore"):
        try:
            out = fn(a)
        except (RollingTwistorError, ArithmeticError, ValueError):
            if len(a) > 1:
                for i in range(len(a)):
                    fn(a[i : i + 1])
            raise
    return out[0] if single else out


def _square(x):
    """x**2 of each entry, rounded as a float's ** rounds it (the C library's
    pow, where numpy's x**2 is x*x; the two differ in the last bit for a
    small share of x)."""
    return np.float_power(x, 2.0)


def _overflows(x, x2):
    """Where the square x2 of a finite x is infinite: there a float's **
    raises OverflowError."""
    return np.isfinite(x) & np.isinf(x2)


def _sigma_rows(d1, d2):
    """Rows sigma^1..sigma^4 in the cobasis (dx, dy, du, dv, dphi), as an
    (m, 4, 5) stack: the duals dx/f1, dy/f2, du/f3, dv/f4 of the surfaces'
    frames, given their frame data (or jets) d1, d2 at m points."""
    rows = np.zeros((len(d1.f1), 4, 5))
    rows[:, 0, 0], rows[:, 1, 1] = 1.0 / d1.f1, 1.0 / d1.f2
    rows[:, 2, 2], rows[:, 3, 3] = 1.0 / d2.f1, 1.0 / d2.f2
    return rows


def omega_coframe(s1, s2, p):
    """Rows omega_1..omega_5 of the adapted coframe at p, or at each point of
    an (m, 5) stack.

    These dualize the frame (X1, X2, X3, X4 - a2 X3, X5): same
    filtration spans as the commutator frame, with the fourth slot shifted
    by a multiple of X3.  Any such adapted choice represents the same
    conformal class; this one admits the compact closed form used here.
    The second surface must have constant curvature.
    """
    _require_constant(s2)
    return _stacked(lambda a: _omega_rows(a, *_surface_data(s1, s2, a)), p)


def _surface_data(s1, s2, a):
    """(j1, d2) at the chart points a, an (m, 5) stack: the jet of the first
    surface, which carries its frame data, and the frame data of the second,
    with a 1-D array in every field."""
    return s1.jet((a[:, 0], a[:, 1])), s2.frame_data((a[:, 2], a[:, 3]))


def _column(x):
    return np.asarray(x, dtype=float)[:, None]


def _omega_rows(a, j1, d2):
    """omega_coframe at the chart points a, an (m, 5) stack, as (m, 5, 5)
    rows, given the jet j1 of the first surface and the frame data d2 of the
    second there."""
    _require_noninteg(j1.kappa, d2.kappa)
    k, lam, a2, a4, k1 = map(_column, (j1.kappa, d2.kappa, j1.a2, d2.a2, j1.kappa1))
    d = k - lam
    c, s = _column(np.cos(a[:, 4])), _column(np.sin(a[:, 4]))
    sig = _sigma_rows(j1, d2)
    sig0, sig1, sig2, sig3 = (sig[:, i] for i in range(4))
    dphi = np.zeros(5)
    dphi[4] = 1.0

    a2sq, ksq, lamsq, dsq = (_square(x) for x in (a2, k, lam, d))
    w = np.zeros((len(a), 5, 5))
    w[:, 0] = sig0
    c2 = 2.0 * a2sq * k + 2.0 * ksq - a2 * k1 - 2.0 * a2sq * lam - 3.0 * k * lam + lamsq
    c3 = a2sq * k + ksq - a2 * k1 - a2sq * lam - k * lam
    w[:, 1] = (
        c2 * sig1 + c3 * s * sig2 - (a2 * a4 * d + c3 * c) * sig3
    ) / dsq + a2 * dphi / d
    w[:, 2] = (
        (-a2 * d + k1) * sig1 + k1 * s * sig2 + (a4 * d - k1 * c) * sig3
    ) / dsq - dphi / d
    w[:, 3] = (-sig1 - s * sig2 + c * sig3) / d
    w[:, 4] = (sig0 - c * sig2 - s * sig3) / d
    bad = ~np.isfinite(w).all(axis=(1, 2))
    for x, x2 in ((a2, a2sq), (k, ksq), (lam, lamsq), (d, dsq)):
        bad |= _overflows(x, x2)[:, 0]
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"the oracle coframe overflows at kappa = {float(k[i, 0])!r},"
            f" lambda = {float(lam[i, 0])!r}"
        )
    return w


def theta_coframe(s1, s2, p):
    """Invariant coframe assembled from the omega rows with the jet-dependent
    coefficient functions, at p or at each point of an (m, 5) stack: rows
    theta^1..theta^5 in the coordinate cobasis, one 5x5 matrix per point."""
    _require_constant(s2)
    return _stacked(lambda a: _theta_rows(a, *_surface_data(s1, s2, a)), p)


def _theta_rows(a, j1, d2):
    """theta_coframe at the chart points a, an (m, 5) stack, as (m, 5, 5)
    rows, given the data of `_surface_data` there."""
    w = _omega_rows(a, j1, d2)
    k, lam, a2, k1, k11 = map(_column, (j1.kappa, d2.kappa, j1.a2, j1.kappa1, j1.kappa11))
    d = k - lam

    a2sq, k1sq, dsq = (_square(x) for x in (a2, k1, d))
    q = a2 + k1 / (lam - k)
    r = (
        a2sq
        + (8.0 / 5.0) * k
        - (7.0 / 5.0) * lam
        + (k11 - a2 * k1) / (10.0 * d)
        - 0.5 * k1sq / dsq
    )
    t = -(
        a2sq
        + (13.0 / 10.0) * k
        - (7.0 / 10.0) * lam
        + k11 / (10.0 * d)
        - 0.5 * k1sq / dsq
    )
    u = (3.0 / 10.0) * k - (7.0 / 10.0) * lam + a2 * k1 / (10.0 * (lam - k))
    if _overflows(k1, k1sq).any():  # where a float's k1**2 raised
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))

    th = np.zeros((len(a), 5, 5))
    th[:, 0] = w[:, 3] - w[:, 4]
    th[:, 1] = w[:, 4]
    th[:, 2] = -w[:, 2]
    th[:, 3] = -w[:, 0] + w[:, 1] + q * w[:, 2] + r * w[:, 3]
    th[:, 4] = -w[:, 1] - q * w[:, 2] + t * w[:, 3] + u * w[:, 4]
    return th


def metric_components(s1, s2, p):
    """Symmetric 5x5 components of the (3,2)-signature metric at p, or one
    such matrix per point of an (m, 5) stack."""
    T = theta_coframe(s1, s2, p)
    G = np.swapaxes(T, -1, -2) @ ETA5 @ T
    return 0.5 * (G + np.swapaxes(G, -1, -2))  # exact symmetry despite rounding asymmetries


class _Derivs(NamedTuple):
    g0: np.ndarray
    dg: np.ndarray  # dg[k] = d g / d x^k
    ddg: np.ndarray  # ddg[k, l] = d^2 g / d x^k d x^l


def _stencil(p, h):
    """The 1 + 2n + 2n(n - 1) rows of the step-h stencil around p, in order:
    p; p + h e_k, p - h e_k for each k; then p + e, p - e, p + f, p - f with
    e = h (e_k + e_l), f = h (e_k - e_l) for each k < l.  A step -s holds
    -0.0 where s holds 0.0, so p + h (-s) rounds as p - h s in every
    coordinate, signed zeros included."""
    n = len(p)
    unit = np.eye(n)
    k, l = np.triu_indices(n, 1)
    e, f = unit[k] + unit[l], unit[k] - unit[l]
    steps = np.vstack([
        np.stack([unit, -unit], axis=1).reshape(-1, n),
        np.stack([e, -e, f, -f], axis=1).reshape(-1, n),
    ])
    return np.vstack([p, p + steps * h])


def _metric_derivatives(g, h):
    """Central differences of the metric values g on `_stencil`'s rows."""
    n = g.shape[-1]
    g0 = g[0]
    gp, gm = g[1 : 2 * n + 1 : 2], g[2 : 2 * n + 1 : 2]
    dg = (gp - gm) / (2.0 * h)
    ddg = np.empty((n, n, n, n))
    ddg[range(n), range(n)] = (gp - 2.0 * g0 + gm) / h**2
    gpp, gmm, gpm, gmp = (g[2 * n + 1 + i :: 4] for i in range(4))
    k, l = np.triu_indices(n, 1)
    ddg[k, l] = ddg[l, k] = (gpp + gmm - gpm - gmp) / (4.0 * h**2)
    return _Derivs(g0=g0, dg=dg, ddg=ddg)


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature tensors of a metric at a point, all indices coordinate.

    `riemann` and `weyl` are fully lowered and Richardson extrapolated;
    `weyl_tiers` holds the Weyl tensors of the step-h and step-h/2
    derivatives, whose difference is the finite-difference noise floor.
    """

    g: np.ndarray
    ginv: np.ndarray
    christoffel: np.ndarray  # Gamma[i, j, k] = Gamma^i_{jk}
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    weyl: np.ndarray
    weyl_tiers: tuple

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


def curvature(metric, p):
    """Curvature bundle of a metric field at p by central differences.

    `metric` maps an (m, n) stack of points to the (m, n, n) stack of its
    components there; it is called once, on the stencil rows of step
    h = FD_STEP followed by those of step h/2.  The metric derivatives of
    the two steps are Richardson extrapolated, and the Weyl tensor of each
    step is kept as well.
    """
    h = FD_STEP
    p = np.asarray(p, dtype=float)
    rows = np.vstack([_stencil(p, h), _stencil(p, h / 2.0)])
    g = np.asarray(metric(rows), dtype=float)
    d1 = _metric_derivatives(g[: len(rows) // 2], h)
    d2 = _metric_derivatives(g[len(rows) // 2 :], h / 2.0)
    extrap = _Derivs(g0=d1.g0, dg=richardson(d1.dg, d2.dg), ddg=richardson(d1.ddg, d2.ddg))
    tiers = (_assemble_curvature(d1)[-1], _assemble_curvature(d2)[-1])
    return CurvatureBundle(*_assemble_curvature(extrap), weyl_tiers=tiers)


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


def cartan_from_weyl(s1, s2, p):
    """Quartic coefficients from the Weyl tensor of the explicit metric.

    The five contractions pair the null directions spanning the distribution
    with their orthogonal partners in the transverse null plane, both taken
    from the duals of the theta coframe.  A Weyl tensor or quartic that is
    not finite raises DomainError.
    """
    a = _as_point5(p)
    Y = np.linalg.inv(theta_coframe(s1, s2, a))  # <theta^j, Y_i> = delta^j_i
    with np.errstate(all="ignore"):  # checked for non-finite values below
        bundle = curvature(lambda rows: metric_components(s1, s2, rows), a)
        w, (w1, w2) = bundle.weyl, bundle.weyl_tiers
        A = _contract_quartic(w, Y)
        A1 = _contract_quartic(w1, Y)
        A2 = _contract_quartic(w2, Y)
    if not (np.isfinite(w).all() and np.isfinite(A).all()):
        raise DomainError("the Weyl tensor of the oracle metric is not finite")
    return OracleQuartic(
        quartic=CartanQuartic(*A),
        noise=np.abs(A1 - A2),
        weyl_norm=float(np.sqrt(np.sum(w**2))),
        weyl_noise=float(abs(np.sqrt(np.sum(w1**2)) - np.sqrt(np.sum(w2**2)))),
    )


def proportionality_residual(qa, qb):
    """Largest 2x2 minor |A_i B_j - A_j B_i|, scaled by max|A| max|B|."""
    A, B = np.asarray(qa, dtype=float), np.asarray(qb, dtype=float)
    sa, sb = np.max(np.abs(A)), np.max(np.abs(B))
    if sa == 0.0 or sb == 0.0:
        return 0.0 if (sa == 0.0 and sb == 0.0) else np.inf
    m = np.outer(A, B)  # m[i, j] = A_i B_j
    return float(np.max(np.abs(m - m.T)) / (sa * sb))

