"""Velocity/twistor distribution on the 5-dimensional configuration space.

The configuration chart is (x, y, u, v, phi): surface-1 chart coordinates,
surface-2 chart coordinates, and the contact-frame rotation angle.  The
restricted velocity space is spanned by two fields X1, X2; their iterated
commutators X3 = [X1, X2], X4 = [X1, X3], X5 = [X2, X3] have closed forms in
terms of the surface frame data (X1, X2, X3) and jets (X4, X5), and away
from curvature-matching points the five fields frame the space (rank growth
2, 3, 5).  `velocity_rows` is the one formula of X1, X2: two tuples of
floats from the two surfaces' frame data and phi, which the RK4 stage of
rolling calls directly.  `field_rows` writes the five rows X1..X5 at a
point from one jet per surface, taking its first two rows from
`velocity_rows`, and is defined at equal curvatures too; `growth_vector`
ranks them.  `velocity_fields` views the first two rows as callables, and
the finite-difference `lie_bracket` is the tests' numerical reference for
the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrablePointError
from .finitediff import richardson

INTEGRABLE_TOL = 1e-10
RANK_TOL = 1e-7  # singular value threshold, relative to the largest


def _as_point5(p):
    """The chart point (x, y, u, v, phi) p as a length-5 float array."""
    a = np.asarray(p, dtype=float)
    if a.shape != (5,):
        raise ValueError("configuration points have 5 coordinates")
    return a


def validate_point(s1, s2, p):
    a = _as_point5(p)
    s1.validate((a[0], a[1]))
    s2.validate((a[2], a[3]))


def velocity_rows(d1, d2, phi):
    """The rows X1, X2 as two 5-tuples of floats, from the frame data
    d1 = (f1, f2, a2, ...) and d2 = (f3, f4, a4, ...) of the two contact
    points and the angle phi (see `field_rows`).  cos and sin come from the
    math module; the tests pin that they round as numpy's do."""
    f1, f2, a2 = d1[:3]
    f3, f4, a4 = d2[:3]
    c, s = math.cos(phi), math.sin(phi)
    return (f1, 0.0, c * f3, s * f4, a4 * s), (0.0, f2, -s * f3, c * f4, -a2 + a4 * c)


def field_rows(s1, s2, p):
    """Rows X1..X5 of the derived frame at p.

    The surfaces' frame data give the orthonormal frames e1 = f1 d/dx,
    e2 = f2 d/dy with [e1, e2] = a2 e2 and curvature kappa, and e3 = f3 d/du,
    e4 = f4 d/dv with [e3, e4] = a4 e4 and curvature lambda.  X1, X2 are the
    no-slip/no-twist velocity fields of the rolling system and the
    horizontal lifts of the null-plane spanning vectors, with fiber
    coefficients a4 sin phi and -a2 + a4 cos phi.  X3 = [X1, X2] =
    a2 X2 + (lambda - kappa) d/dphi.  X4 = [X1, X3] and X5 = [X2, X3] are
    expanded with no division by lambda - kappa, so they stay defined where
    the curvatures meet; they use that the e2-derivatives of both curvatures
    vanish and that e1(a2) = kappa + a2^2 (the structure identity of the
    curvature).  The rows read one jet per surface, whose leading fields are
    the frame data; rows 0 and 1 are those of `velocity_rows`.
    """
    a = _as_point5(p)
    d1, d2 = s1.jet((a[0], a[1])), s2.jet((a[2], a[3]))
    rows = np.zeros((5, 5))
    rows[0], rows[1] = velocity_rows(d1, d2, a[4])
    a2, kappa = d1[2:4]
    f3, f4, a4, lam = d2[:4]
    rows[2] = a2 * rows[1]
    rows[2, 4] += lam - kappa
    c, s = math.cos(a[4]), math.sin(a[4])
    k1, lam1 = d1.kappa1, d2.kappa1
    dl = lam - kappa
    # the X3-coefficient a2 comes from expanding a2 [X1, X2]
    rows[3] = (kappa + a2 * a2) * rows[1] + a2 * rows[2]
    rows[3, 2:] += dl * (s * f3), dl * (-c * f4), c * lam1 - k1 - dl * a4 * c
    rows[4, 2:] = dl * (c * f3), dl * (s * f4), (dl * a4 - lam1) * s
    return rows


def velocity_fields(s1, s2):
    """The velocity fields (X1, X2) of `field_rows` as callables."""
    return tuple(lambda p, i=i: field_rows(s1, s2, p)[i] for i in range(2))


def curvature_scale(kappa, lam):
    """max(|kappa|, |lambda|, 1): the curvature size the integrability and
    vanishing thresholds are relative to, at a point or at each point of a
    stack."""
    return np.maximum(np.maximum(abs(kappa), abs(lam)), 1.0)


def _integrable(kappa, lam):
    """Whether the curvatures are equal, at a point or at each point of a stack."""
    return abs(kappa - lam) <= INTEGRABLE_TOL * curvature_scale(kappa, lam)


def _require_noninteg(kappa, lam):
    """Raise IntegrablePointError if the curvatures are equal; for 1-D arrays
    of curvatures, at the first point of the stack where they are."""
    hit = _integrable(kappa, lam)
    if hit.any():  # the message shows the first such point's Python floats
        kappa, lam = (np.broadcast_to(x, hit.shape).item(np.argmax(hit)) for x in (kappa, lam))
        raise IntegrablePointError(
            f"equal curvatures (kappa = {kappa}, lambda = {lam}): distribution is integrable"
        )


def jacobian(field, p):
    """Jacobian d(field)/d(coords) by central differences with one Richardson
    extrapolation level."""
    a = _as_point5(p)
    h = 1e-5 * (1.0 + float(np.max(np.abs(a))))

    def jac(step):
        cols = []
        for k in range(5):
            e = np.zeros(5)
            e[k] = step
            cols.append((np.asarray(field(a + e)) - np.asarray(field(a - e))) / (2.0 * step))
        return np.array(cols).T  # J[i, k] = d field_i / d coord_k

    return richardson(jac(h), jac(h / 2.0))


def lie_bracket(F, G, p):
    """Commutator [F, G](p) = (DG) F - (DF) G with finite-difference Jacobians:
    the numerical reference for the closed forms of `field_rows`."""
    a = _as_point5(p)
    JF = jacobian(F, a)
    JG = jacobian(G, a)
    return JG @ np.asarray(F(a)) - JF @ np.asarray(G(a))


@dataclass(frozen=True)
class GrowthResult:
    ranks: tuple
    ill_conditioned: bool


def growth_vector(s1, s2, p):
    """Ranks of the iterated bracket spans (2, ., .) at p.

    The spans are those of the closed-form rows X1, X2 | X3 | X4, X5 of
    `field_rows`, which stay defined at kappa = lambda.  Singular values
    falling inside a factor-5 band around the threshold are flagged
    ill-conditioned.  Brackets that are not finite, or ranks that decrease,
    raise DomainError: the curvature is too large for the rank test.
    """
    a = _as_point5(p)
    with np.errstate(all="ignore"):  # an overflow is caught just below
        rows = field_rows(s1, s2, a)
    if not np.isfinite(rows).all():
        raise _growth_error(s1, s2, a, "the brackets are not finite")

    ranks = []
    flagged = False
    for n in (2, 3, 5):
        s = np.linalg.svd(rows[:n], compute_uv=False)
        cutoff = RANK_TOL * s[0]
        ranks.append(int(np.sum(s > cutoff)))
        if np.any((s > cutoff / 5.0) & (s < cutoff * 5.0)):
            flagged = True
    if ranks != sorted(ranks):
        raise _growth_error(s1, s2, a, f"the ranks {tuple(ranks)} decrease")
    return GrowthResult(ranks=tuple(ranks), ill_conditioned=flagged)


def _growth_error(s1, s2, a, what):
    kappa = s1.frame_data((a[0], a[1])).kappa
    lam = s2.frame_data((a[2], a[3])).kappa
    return DomainError(
        f"no growth vector: {what} at kappa = {float(kappa)!r}, lambda = {float(lam)!r}"
    )
