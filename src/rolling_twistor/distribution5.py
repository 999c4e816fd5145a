"""Velocity/twistor distribution on the 5-dimensional configuration space.

The configuration chart is (x, y, u, v, phi): surface-1 chart coordinates,
surface-2 chart coordinates, and the contact-frame rotation angle.  The
restricted velocity space is spanned by two fields X1, X2; their iterated
commutators X3 = [X1, X2], X4 = [X1, X3], X5 = [X2, X3] have closed forms in
terms of the surface frame data (X3) and jets (X4, X5), and away from
curvature-matching points the five fields frame the space (rank growth
2, 3, 5).  `growth_vector` ranks these closed-form rows; the
finite-difference `lie_bracket` is kept as the tests' numerical reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrablePointError
from .finitediff import richardson

INTEGRABLE_TOL = 1e-10
RANK_TOL = 1e-7  # singular value threshold, relative to the largest


@dataclass(frozen=True)
class ConfigPoint:
    """Chart point (x, y, u, v, phi) of the configuration space."""

    x: float
    y: float
    u: float
    v: float
    phi: float

    def as_array(self):
        return np.array([self.x, self.y, self.u, self.v, self.phi])

    @classmethod
    def from_array(cls, a):
        return cls(*(float(t) for t in a))

    def reduced(self):
        """Same point with phi reduced mod 2 pi."""
        return ConfigPoint(self.x, self.y, self.u, self.v, self.phi % (2.0 * np.pi))


def _as_point5(p):
    if isinstance(p, ConfigPoint):
        return p.as_array()
    a = np.asarray(p, dtype=float)
    if a.shape != (5,):
        raise ValueError("configuration points have 5 coordinates")
    return a


def validate_point(s1, s2, p):
    a = _as_point5(p)
    s1.validate((a[0], a[1]))
    s2.validate((a[2], a[3]))


def velocity_fields(s1, s2):
    """The two admissible-velocity fields X1, X2 as coordinate-basis callables.

    These are simultaneously the no-slip/no-twist velocity fields of the
    rolling system and the horizontal lifts of the null-plane spanning
    vectors; the fiber coefficients are z1 = -a1 + a3 cos phi + a4 sin phi
    and z2 = -a2 - a3 sin phi + a4 cos phi.
    """

    def X1(p):
        a = _as_point5(p)
        d1 = s1.frame_data((a[0], a[1]))
        d2 = s2.frame_data((a[2], a[3]))
        f1 = s1.frame((a[0], a[1]))
        f2 = s2.frame((a[2], a[3]))
        c, s = np.cos(a[4]), np.sin(a[4])
        out = np.empty(5)
        out[0:2] = f1[0]
        out[2:4] = c * f2[0] + s * f2[1]
        out[4] = -d1.a1 + d2.a1 * c + d2.a2 * s
        return out

    def X2(p):
        a = _as_point5(p)
        d1 = s1.frame_data((a[0], a[1]))
        d2 = s2.frame_data((a[2], a[3]))
        f1 = s1.frame((a[0], a[1]))
        f2 = s2.frame((a[2], a[3]))
        c, s = np.cos(a[4]), np.sin(a[4])
        out = np.empty(5)
        out[0:2] = f1[1]
        out[2:4] = -s * f2[0] + c * f2[1]
        out[4] = -d1.a2 - d2.a1 * s + d2.a2 * c
        return out

    return X1, X2


def frame_fields(s1, s2):
    """Closed-form fields (X1, X2, X3, X4, X5) of the derived frame.

    X4 and X5 assume the rotationally adapted frames of the catalog: a1 = 0
    on both surfaces, so its derivatives vanish and a21 = kappa + a2^2 (the
    structure identity of the curvature), and the e2-derivatives of both
    curvatures vanish.  Each of X4 and X5 reads one jet per surface.
    """
    X1, X2 = velocity_fields(s1, s2)

    def X3(p):
        a = _as_point5(p)
        d1 = s1.frame_data((a[0], a[1]))
        d2 = s2.frame_data((a[2], a[3]))
        out = d1.a1 * X1(a) + d1.a2 * X2(a)
        out[4] += d2.kappa - d1.kappa
        return out

    def _x45(a, which):
        # the brackets [X1, X3] and [X2, X3] as they expand, with no division
        # by lambda - kappa, so they stay defined where the curvatures meet
        j1 = s1.jet((a[0], a[1]))
        j2 = s2.jet((a[2], a[3]))
        dl = j2.kappa - j1.kappa
        f2 = s2.frame((a[2], a[3]))
        c, s = np.cos(a[4]), np.sin(a[4])
        a2, a4, lam1 = j1.a2, j2.a2, j2.kappa1
        if which == 4:
            # the X3-coefficient a2 comes from expanding a2 [X1, X2]
            out = (j1.kappa + a2 * a2) * X2(a) + a2 * X3(a)
            out[4] += c * lam1 - j1.kappa1 - dl * a4 * c
            out[2:4] += dl * (s * f2[0] - c * f2[1])
        else:
            out = np.zeros(5)
            out[4] = (dl * a4 - lam1) * s
            out[2:4] = dl * (c * f2[0] + s * f2[1])
        return out

    def X4(p):
        return _x45(_as_point5(p), 4)

    def X5(p):
        return _x45(_as_point5(p), 5)

    return X1, X2, X3, X4, X5


def _require_noninteg(kappa, lam):
    if abs(kappa - lam) <= INTEGRABLE_TOL * max(abs(kappa), abs(lam), 1.0):
        raise IntegrablePointError(
            f"equal curvatures (kappa = {kappa}, lambda = {lam}): distribution is integrable"
        )


@dataclass(frozen=True)
class Frame5:
    """Derived frame evaluated at a point: rows of `matrix` are X1..X5."""

    point: np.ndarray
    matrix: np.ndarray

    @property
    def determinant(self):
        return float(np.linalg.det(self.matrix))


def _frame_rows(s1, s2, a):
    return np.array([f(a) for f in frame_fields(s1, s2)])


def derived_frame(s1, s2, p):
    """Closed-form derived frame at p; requires unequal curvatures there."""
    a = _as_point5(p)
    _require_noninteg(s1.frame_data((a[0], a[1])).kappa, s2.frame_data((a[2], a[3])).kappa)
    return Frame5(point=a, matrix=_frame_rows(s1, s2, a))


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
    the numerical reference for the closed forms of `frame_fields`."""
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
    `frame_fields`, which stay defined at kappa = lambda.  Singular values
    falling inside a factor-5 band around the threshold are flagged
    ill-conditioned.  Brackets that are not finite, or ranks that decrease,
    raise DomainError: the curvature is too large for the rank test.
    """
    a = _as_point5(p)
    rows = _frame_rows(s1, s2, a)
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
