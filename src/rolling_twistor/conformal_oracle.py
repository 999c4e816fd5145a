"""Independent verification path through the associated conformal 5-metric.

For a rotationally symmetric surface rolling on a surface of constant
curvature, the (3,2)-signature metric representing the conformal class of
the velocity distribution has an explicit coframe in the configuration
chart.  Its first and second derivatives, taken numerically, give the
lowered Riemann, Ricci and Weyl tensors in closed form, and contracting the
Weyl tensor with the coframe duals recovers the quartic coefficients up to
a common nonvanishing factor.  Agreement with the closed forms is therefore
a genuine two-route consistency check, and the vanishing of the full Weyl
tensor (conformal flatness) is an independent maximal-symmetry detector.

The coframes, the metric and the Weyl quartic take one chart point or an
(m, 5) stack of points through one code path (a point is a stack of one),
and each row rounds as it does on its own: squares go through
`cartan_invariants._ipow`, the C library's pow, as a float's ** does.  The
curvature has one path, `_curvature_tiers`, which `cartan_from_weyl` runs
once per block of POINTS_PER_PASS points: one theta coframe call on the
stencils of every point at both steps (FD_STEP and its half), 19 rows each
over x, u and phi, the metric's only coordinates, then array passes over a
leading (point, tier) axis for the derivatives, the curvature of the
Richardson blend and of each step, and the contractions.  A stack that
fails raises the error of its first failing row, as that row raises on its
own (`errors.first_failing_row`).
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .cartan_invariants import CartanQuartic, _ipow
from .distribution5 import _as_point5, _require_noninteg
from .errors import DomainError, RollingTwistorError, first_failing_row
from .finitediff import richardson

# constant coefficient matrix of the metric in the theta basis:
# th1*th5 + th5*th1 - th2*th4 - th4*th2 + 4/3 th3*th3
ETA5 = np.zeros((5, 5))
ETA5[0, 4] = ETA5[4, 0] = 1.0
ETA5[1, 3] = ETA5[3, 1] = -1.0
ETA5[2, 2] = 4.0 / 3.0

FD_STEP = 1e-3  # central-difference step of the metric derivatives

COORDINATES = ("x", "y", "u", "v", "phi")  # as the errors name them


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
    """fn of the (m, 5) stack of the chart points p (see
    `first_failing_row`), or its first row if p is one point."""
    a, single = _as_stack5(p)
    out = first_failing_row(fn, a)
    return out[0] if single else out


def _overflows(x, x2):
    """Where the square x2 of a finite x is infinite: there a float's **
    raises OverflowError."""
    return np.isfinite(x) & np.isinf(x2)


def _require_no_overflow(bad, k, lam):
    """Raise DomainError naming the curvatures k, lam (columns) of the first
    row of the stack where `bad` holds."""
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"the oracle coframe overflows at kappa = {float(k[i, 0])!r},"
            f" lambda = {float(lam[i, 0])!r}"
        )


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

    a2sq, ksq, lamsq, dsq = (_ipow(x, 2) for x in (a2, k, lam, d))
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
    _require_no_overflow(bad, k, lam)
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

    a2sq, k1sq, dsq = (_ipow(x, 2) for x in (a2, k1, d))
    _require_no_overflow(_overflows(k1, k1sq)[:, 0], k, lam)
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
    return _metric_of(theta_coframe(s1, s2, p))


def _metric_of(T):
    """The metric T^T ETA5 T of the theta coframes T, (..., 5, 5)."""
    G = np.swapaxes(T, -1, -2) @ ETA5 @ T
    return 0.5 * (G + np.swapaxes(G, -1, -2))  # exact symmetry despite rounding asymmetries


class _Derivs(NamedTuple):
    g0: np.ndarray
    dg: np.ndarray  # dg[..., k, :, :] = d g / d x^k
    ddg: np.ndarray  # ddg[..., k, l, :, :] = d^2 g / d x^k d x^l


_STEPPED = [0, 2, 4]  # x, u, phi: the coordinates the metric depends on
_PAIRS = [list(x) for x in zip(*itertools.combinations(_STEPPED, 2))]  # the pairs k < l

# Points per array pass.  numpy may give an elementwise result of more than
# 32768 elements another memory layout, and a layout changes the order in
# which einsum adds a contraction's terms; blocks of 8 points stay below that
# size, so each point rounds as it does on its own.  They also bound the
# memory of a large table.
POINTS_PER_PASS = 8


@functools.cache
def _step_table():
    """The (2, 19, 5) stencil steps of both tiers, h = FD_STEP and h/2, and
    the (2, 3, 1, 1, 1) denominators 2h, h^2 and 4h^2 of their central
    differences.  The steps along x, u and phi are, in order: zero; +e_k,
    -e_k for each k; then +e, -e, +f, -f with e = e_k + e_l, f = e_k - e_l
    for each pair k < l.  A step -s holds -0.0 where s holds 0.0, so p + h
    (-s) rounds as p - h s in every coordinate, signed zeros included; the
    zero step is -0.0, so its row is p itself.  Built once, on the first
    call: an import that runs no oracle pays nothing for it."""
    unit = np.eye(5)
    k, l = _PAIRS
    e, f = unit[k] + unit[l], unit[k] - unit[l]
    steps = np.vstack([np.full((1, 5), -0.0),
                       np.stack([unit[_STEPPED], -unit[_STEPPED]], axis=1).reshape(-1, 5),
                       np.stack([e, -e, f, -f], axis=1).reshape(-1, 5)])
    tiers = (FD_STEP, FD_STEP / 2.0)
    denominators = np.array([[2.0 * h, h**2, 4.0 * h**2] for h in tiers])
    return np.stack([steps * h for h in tiers]), denominators.reshape(2, 3, 1, 1, 1)


def _stencil(a):
    """The stencil rows of both tiers around each point of the (m, 5) stack
    a, as an (m, 2, 19, 5) array.  A point where rounding moves a step by
    more than 1e-6 of it (from |coordinate| = 2^23 on) raises DomainError."""
    steps = _step_table()[0]
    rows = a[:, None, None, :] + steps
    lost = (np.abs(rows - a[:, None, None, :] - steps) > 1e-6 * np.abs(steps)).any(axis=(1, 2))
    if lost.any():
        i, k = np.argwhere(lost)[0]
        raise DomainError(f"the oracle's finite-difference steps are lost to rounding at"
                          f" {COORDINATES[k]} = {float(a[i, k])!r}, {_where(a[i])}")
    return rows


def _metric_derivatives(g):
    """Central differences of the metric values g, (..., 2, 19, n, n) on
    `_stencil`'s rows, with the tier axis second to last of the leading ones;
    the derivatives along the unstepped y and v are exact zeros."""
    n, s = g.shape[-1], len(_STEPPED)
    two_h, h2, four_h2 = (_step_table()[1][:, i] for i in range(3))
    g0 = g[..., 0, :, :]
    gp, gm = g[..., 1 : 2 * s + 1 : 2, :, :], g[..., 2 : 2 * s + 1 : 2, :, :]
    dg = np.zeros(g.shape[:-3] + (n, n, n))
    dg[..., _STEPPED, :, :] = (gp - gm) / two_h
    ddg = np.zeros(g.shape[:-3] + (n, n, n, n))
    ddg[..., _STEPPED, _STEPPED, :, :] = (gp - 2.0 * g0[..., None, :, :] + gm) / h2
    gpp, gmm, gpm, gmp = (g[..., 2 * s + 1 + i :: 4, :, :] for i in range(4))
    k, l = _PAIRS
    ddg[..., k, l, :, :] = ddg[..., l, k, :, :] = (gpp + gmm - gpm - gmp) / four_h2
    return _Derivs(g0=g0, dg=dg, ddg=ddg)


def _frobenius(w):
    """Frobenius norm of the trailing 4-index tensors of w."""
    return np.sqrt(np.sum((w**2).reshape(*w.shape[:-4], -1), axis=-1))


def _assemble_curvature(d):
    """(g0, ginv, Riemann, Ricci, scalar, Weyl) from the metric and its
    derivatives d, with any leading axes (one entry per point and tier).

    R_ijkl = a_ijkl - a_ijlk with a_ijkl = 1/2 (d_j d_k g_il + d_i d_l g_jk)
    + Gamma_{m,il} Gamma^m_{jk}, and W = R minus the Kulkarni-Nomizu product
    of the Schouten tensor P with g, also written m_ijkl - m_ijlk: both are
    antisymmetric in (k, l) by construction."""
    g0, dg, ddg = d
    n = g0.shape[-1]
    ginv = np.linalg.inv(g0)
    # T[s, m, v] = d_m g_{s v} + d_v g_{s m} - d_s g_{m v} = 2 Gamma_{s,mv}
    T = np.einsum("...msv->...smv", dg) + np.einsum("...vsm->...smv", dg) - dg
    gamma = 0.5 * np.einsum("...ls,...smv->...lmv", ginv, T)  # Gamma^l_{mv}
    a = 0.5 * (np.einsum("...jkil->...ijkl", ddg) + np.einsum("...iljk->...ijkl", ddg)
               + np.einsum("...mil,...mjk->...ijkl", T, gamma))
    riem = a - np.swapaxes(a, -1, -2)
    ricci = np.einsum("...ik,...ijkl->...jl", ginv, riem)
    scalar = np.einsum("...jl,...jl->...", ginv, ricci)
    schouten = (ricci - (scalar[..., None, None] / (2 * (n - 1))) * g0) / (n - 2)
    m = (np.einsum("...ik,...jl->...ijkl", schouten, g0)
         + np.einsum("...ik,...jl->...ijkl", g0, schouten))
    w = riem - (m - np.swapaxes(m, -1, -2))
    return g0, ginv, riem, ricci, scalar, w


def _curvature_tiers(metric, a):
    """`_assemble_curvature` at each point of the (m, 5) stack a, with
    leading (m, 3) axes: the Richardson blend of the two steps' metric
    derivatives, then the step h, then the step h/2.  The metric is called
    once, on the stencil rows of every point and both steps, and must depend
    on (x, u, phi) only: its derivatives along y and v are taken as zero."""
    m, n = a.shape
    g = np.asarray(metric(_stencil(a).reshape(-1, n)), dtype=float)
    g0, dg, ddg = _metric_derivatives(g.reshape(m, 2, -1, n, n))
    blend = _Derivs(g0[:, 0], richardson(dg[:, 0], dg[:, 1]), richardson(ddg[:, 0], ddg[:, 1]))
    tiers = _Derivs(*(np.concatenate([x[:, None], y], axis=1)
                      for x, y in zip(blend, (g0, dg, ddg))))
    try:
        return _assemble_curvature(tiers)
    except np.linalg.LinAlgError:  # `first_failing_row` retries a stack point by point
        raise DomainError(f"the oracle metric is singular at {_where(a[0])}") from None


def _by_blocks(fn, a):
    """fn on the successive blocks of at most POINTS_PER_PASS rows of the
    (m, 5) stack a, in order; each of fn's outputs is concatenated along its
    first axis."""
    parts = [fn(a[i : i + POINTS_PER_PASS]) for i in range(0, len(a), POINTS_PER_PASS)]
    return tuple(np.concatenate(x) for x in zip(*parts))


class OracleQuartic(NamedTuple):
    """Quartic coefficients extracted from the numerical Weyl tensor.

    Defined up to an overall factor; `noise` is the per-coefficient FD noise
    floor, `weyl_norm`/`weyl_noise` the Frobenius norm of the full Weyl
    tensor and its floor.  For a stack of points each field has a leading
    axis of points (the quartic's fields are 1-D arrays, as for a stacked
    `quartic_killing_case`).
    """

    quartic: CartanQuartic
    noise: np.ndarray
    weyl_norm: float
    weyl_noise: float


def _contract_quartic(weyl, Y):
    """The five contractions of the Weyl tensors weyl (..., 5, 5, 5, 5) with
    the columns of the duals Y (..., 5, 5), as (..., 5)."""
    def C(a, b, c, d):
        return np.einsum("...ijkl,...i,...j,...k,...l->...", weyl,
                         Y[..., a], Y[..., b], Y[..., c], Y[..., d])

    return np.stack(
        [C(3, 0, 0, 3), C(3, 0, 1, 3), C(3, 0, 1, 4), C(3, 1, 1, 4), C(4, 1, 1, 4)], axis=-1
    )


def cartan_from_weyl(s1, s2, p):
    """Quartic coefficients from the Weyl tensor of the explicit metric, at p
    or at each point of an (m, 5) stack.

    The five contractions pair the null directions spanning the distribution
    with their orthogonal partners in the transverse null plane, both taken
    from the duals of the theta coframe.  A Weyl tensor, Weyl norm or
    quartic that is not finite raises DomainError naming the curvatures and
    the point; a theta coframe or metric singular in floating point names
    the point.
    A stack is one pass (one per block of POINTS_PER_PASS points): one
    coframe call on all their stencil rows, which gives the metric and, at
    the zero-step rows, the duals.  A stack that fails is replayed point by
    point, so the first failing point raises its own error (its coframe's
    before its stencil's).
    """
    a, single = _as_stack5(p)
    A, noise, norm, weyl_noise = _by_blocks(
        lambda b: first_failing_row(lambda rows: _weyl_quartics(s1, s2, rows), b), a
    )
    if single:
        return OracleQuartic(quartic=CartanQuartic(*A[0].tolist()), noise=noise[0],
                             weyl_norm=float(norm[0]), weyl_noise=float(weyl_noise[0]))
    return OracleQuartic(quartic=CartanQuartic(*A.T), noise=noise, weyl_norm=norm,
                         weyl_noise=weyl_noise)


def _weyl_quartics(s1, s2, a):
    """(quartic, noise, weyl_norm, weyl_noise) of `cartan_from_weyl` at the
    (m, 5) stack a, as (m, 5), (m, 5), (m,) and (m,) arrays."""
    thetas = []

    def metric(rows):  # the zero-step rows are the points a
        thetas.append(theta_coframe(s1, s2, rows))
        return _metric_of(thetas[0])

    try:
        w = _curvature_tiers(metric, a)[-1]
    except (RollingTwistorError, ArithmeticError, ValueError):
        _duals(theta_coframe(s1, s2, a), a)  # a point's own coframe fails, or is singular, first
        raise
    Y = _duals(thetas[0].reshape(len(a), -1, 5, 5)[:, 0], a)
    A = _contract_quartic(w, Y[:, None])  # (m, 3, 5): blend, step h, step h/2
    norms = _frobenius(w)
    norm, weyl_noise = norms[:, 0], np.abs(norms[:, 1] - norms[:, 2])
    finite = (np.isfinite(w[:, 0]).all(axis=(1, 2, 3, 4)) & np.isfinite(A[:, 0]).all(axis=1)
              & np.isfinite(norm) & np.isfinite(weyl_noise))
    if not finite.all():
        i = int(np.argmin(finite))  # the first point that is not finite
        kappa = s1.frame_data((a[i, 0], a[i, 1])).kappa
        lam = s2.frame_data((a[i, 2], a[i, 3])).kappa
        raise DomainError(
            "the Weyl tensor of the oracle metric or its norm is not finite"
            f" at kappa = {float(kappa)!r}, lambda = {float(lam)!r}, {_where(a[i])}"
        )
    return A[:, 0], np.abs(A[:, 1] - A[:, 2]), norm, weyl_noise


def _duals(theta, a):
    """The inverses Y of the theta coframes at the (m, 5) stack a:
    <theta^j, Y_i> = delta^j_i."""
    try:
        return np.linalg.inv(theta)
    except np.linalg.LinAlgError:  # `first_failing_row` retries a stack point by point
        raise DomainError(f"the oracle's theta coframe is singular at {_where(a[0])}") from None


def _where(p):
    """The chart point p, as the oracle's errors name it."""
    return f"({', '.join(COORDINATES)}) = ({', '.join(repr(float(x)) for x in p)})"


def proportionality_residual(qa, qb):
    """Largest 2x2 minor |A_i B_j - A_j B_i|, scaled by max|A| max|B|; 0 if
    both quartics vanish and inf if one does.  Stacks of quartics, (m, 5)
    arrays, give one residual per row."""
    A, B = np.asarray(qa, dtype=float), np.asarray(qb, dtype=float)
    sa, sb = np.max(np.abs(A), axis=-1), np.max(np.abs(B), axis=-1)
    m = A[..., :, None] * B[..., None, :]  # m[..., i, j] = A_i B_j
    with np.errstate(all="ignore"):
        r = np.max(np.abs(m - np.swapaxes(m, -1, -2)), axis=(-2, -1)) / (sa * sb)
    zero_a, zero_b = sa == 0.0, sb == 0.0
    r = np.where(zero_a | zero_b, np.where(zero_a & zero_b, 0.0, np.inf), r)
    return float(r) if r.ndim == 0 else r
