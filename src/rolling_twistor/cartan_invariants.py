"""Quartic invariant of the rolling distribution in the rotational case.

For a surface with a rotational symmetry rolling on a surface of constant
curvature lambda, the five coefficients (A1..A5) of the fundamental binary
quartic have closed forms in the jet (a2, kappa, kappa1..kappa1111).  The
distribution has maximal (14-dimensional exceptional) local symmetry exactly
when all five vanish identically; for a pair of constant-curvature surfaces
this happens exactly at curvature ratio 9:1.

All coefficients are defined only up to a common nonvanishing factor, so
every comparison here is projective and every vanishing test is relative to
the dimensional scale (kappa - lambda)^4 * curvature_scale^2, where
`distribution5.curvature_scale` is max(|kappa|, |lambda|, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution5 import _integrable, _require_noninteg, curvature_scale
from .errors import DomainError, first_failing_row

VANISH_TOL = 1e-8  # relative threshold for "all A_i vanish"
ROOT_CLUSTER_RADIUS = 1e-6  # multiplicity clustering, scaled by 1 + |root|
DEGREE_TOL = 1e-12  # leading coefficients below this share of the largest are roots at infinity


class CartanQuartic(NamedTuple):
    """Coefficients of A1 + 4 A2 z + 6 A3 z^2 + 4 A4 z^3 + A5 z^4."""

    A1: float
    A2: float
    A3: float
    A4: float
    A5: float

    def poly_coefficients(self):
        """Polynomial coefficients in ascending degree, weights included."""
        return np.array([self.A1, 4.0 * self.A2, 6.0 * self.A3, 4.0 * self.A4, self.A5])

    @property
    def max_abs(self):
        return float(np.max(np.abs(self)))


def quartic_killing_case(jet, lam):
    """Closed-form (A1..A5) for a rotationally symmetric surface with jet
    `jet` rolling on constant curvature `lam`.  The jet of a stack of points
    (1-D array fields) gives arrays, each point rounded as on its own (see
    `_ipow`); the stack's first integrable or overflowing point raises the
    error it raises on its own."""
    with np.errstate(all="ignore"):
        try:
            quartic = _killing_coefficients(jet, lam)
            finite = np.isfinite(quartic).all(axis=0)
        except OverflowError:  # a float ** beyond the float range
            finite = np.False_
        fails = ~finite | _integrable(jet.kappa, lam)
    if fails.any():
        i = int(np.argmax(fails))  # the first failing point of a stack
        k, lam = (np.broadcast_to(x, fails.shape).item(i) for x in (jet.kappa, lam))
        _require_noninteg(k, lam)  # the quartic is undefined where the distribution is integrable
        raise DomainError(
            f"the quartic overflows at kappa = {float(k)!r}, lambda = {float(lam)!r}"
        )
    return quartic


def _ipow(x, n):
    """x**n, the one integer power of the quartic formulas and the oracle.
    An ndarray goes through np.float_power, the C library's pow, as a float's
    ** does, so each element rounds as it does on its own (numpy's x**n
    multiplies, and differs in the last bit for a small share of x); an
    element that overflows is inf where a float's ** raises OverflowError."""
    return np.float_power(x, n) if isinstance(x, np.ndarray) else x**n


def _killing_coefficients(jet, lam):
    k = jet.kappa
    a2 = jet.a2
    k1, k11, k111, k1111 = jet.kappa1, jet.kappa11, jet.kappa111, jet.kappa1111
    d = k - lam
    # xpN is x**N
    dp2, dp3, dp4 = (_ipow(d, n) for n in (2, 3, 4))
    k1p2, k1p3, k1p4 = (_ipow(k1, n) for n in (2, 3, 4))
    k11p2, a2p2 = _ipow(k11, 2), _ipow(a2, 2)
    P = dp4 * (k - 9.0 * lam) * (9.0 * k - lam)

    A1 = (
        10.0 * dp3 * k1111
        - 70.0 * dp2 * k111 * k1
        - 49.0 * dp2 * k11p2
        + 280.0 * d * k1p2 * k11
        + 8.0 * dp3 * (2.0 * k + 7.0 * lam) * k11
        - 20.0 * dp2 * (k + 6.0 * lam) * k1p2
        - 175.0 * k1p4
        + P
    )
    A2 = A1
    A3 = (
        A1
        - 10.0 * dp3 * a2 * k111
        + (154.0 / 3.0) * dp2 * a2 * k11 * k1
        - 20.0 * dp3 * a2p2 * k11
        - (4.0 / 3.0) * dp3 * (3.0 * k - 7.0 * lam) * k11
        - (140.0 / 3.0) * d * a2 * k1p3
        + (5.0 / 3.0) * dp2 * (21.0 * a2p2 + 4.0 * k - 11.0 * lam) * k1p2
        - (4.0 / 3.0) * dp3 * (15.0 * a2p2 + 12.0 * k + 7.0 * lam) * a2 * k1
        + P / 3.0
    )
    A4 = -2.0 * A1 + 3.0 * A3
    A5 = (
        -5.0 * A1
        + 6.0 * A3
        + 30.0 * dp3 * a2p2 * k11
        - 49.0 * dp2 * a2p2 * k1p2
        + 2.0 * dp3 * (15.0 * a2p2 - 3.0 * k - 28.0 * lam) * a2 * k1
        + P
    )
    return CartanQuartic(A1, A2, A3, A4, A5)


def root_type(quartic):
    """The tag of a CartanQuartic or of five ascending coefficients: "zero",
    or the multiplicities of its complex roots, clustered within
    ROOT_CLUSTER_RADIUS (a dropped leading coefficient is a root at
    infinity), largest first, like "[2,2]"."""
    if isinstance(quartic, CartanQuartic):
        quartic = quartic.poly_coefficients()
    _, mults = _classified(quartic)
    return _TAGS[_tag_keys(mults)[0]]


# the tag of each partition of 4 at the sum of its squared parts, which tells
# the partitions apart ("zero" at 0: a vanishing quartic has no roots)
_TAGS = np.full(17, None, dtype=object)
_TAGS[[0, 4, 6, 8, 10, 16]] = ["zero", "[1,1,1,1]", "[2,1,1]", "[2,2]", "[3,1]", "[4]"]
_SLOTS = np.arange(4)
_FIRST = np.array([True, False, False, False])


def _tag_keys(mults):
    """The index in _TAGS of each row of multiplicities (see `_clusters`)."""
    return (mults * mults).sum(axis=1).astype(int)


def _classified(quartics):
    """Root multiplicities of each distinct quartic of an (m, 5) stack of
    ascending coefficients, as (inverse, mults): row i of the stack is
    distinct quartic inverse[i], and mults are `_clusters` of the distinct
    quartics (a quartic that vanishes has no roots: its mults are all 0).

    Each distinct quartic is solved once, keyed on its coefficients' bits
    (so -0.0 is not 0.0).  The companion matrices are built as `np.roots`
    builds them, after the leading coefficients below DEGREE_TOL of the
    largest are dropped (roots at infinity) and the exact trailing zeros are
    split off (roots at 0).  The quartics of one (dropped, split) pair share
    one `np.linalg.eigvals` call on their stacked companion matrices, which
    gives each the roots `np.roots` gives it.
    """
    p = np.ascontiguousarray(quartics, dtype=float).reshape(-1, 5)
    _, first, inverse = np.unique(p.view("V40").ravel(), return_index=True, return_inverse=True)
    desc = p[first, ::-1]  # descending degree for the companion solve
    size = np.abs(desc)
    scale = np.max(size, axis=1)
    lead = np.cumprod(size[:, :4] <= DEGREE_TOL * scale[:, None], axis=1).sum(axis=1)
    trailing = np.cumprod(desc[:, :0:-1] == 0.0, axis=1).sum(axis=1)
    zero = scale == 0.0  # all its coefficients count as dropped
    roots = np.zeros((len(desc), 4), dtype=complex)  # the split-off roots stay 0j
    group = np.where(zero, -1, 5 * lead + trailing)
    for key in np.flatnonzero(np.bincount(group + 1)[1:]).tolist():
        lo, tz = divmod(key, 5)
        rows = np.flatnonzero(group == key)
        c = desc[rows, lo : 5 - tz]
        d = c.shape[1] - 1
        if d:
            companion = np.tile(np.eye(d, k=-1), (len(rows), 1, 1))
            companion[:, 0, :] = -c[:, 1:] / c[:, :1]
            roots[rows, :d] = np.linalg.eigvals(companion)
    mults = _clusters(roots, 4 - lead)
    mults[zero, 4] = 0.0
    return inverse, mults


def _clusters(roots, n_finite):
    """Multiplicity clusters of the roots of each row of an (m, 4) complex
    array, whose first n_finite[i] entries in row i are its finite roots and
    whose other 4 - n_finite[i] roots are at infinity.

    The greedy rule in a fixed number of array steps: the finite roots are
    taken in (real, imag) order, ties in slot order; each joins the first
    open cluster c, of n roots, with |z - c| <= ROOT_CLUSTER_RADIUS *
    (1 + |c|), whose mean becomes (c*n + z)/(n + 1), or else opens the next
    cluster.  Each part of the mean rounds as Python's complex / int rounds
    it, so every join is the one-root-at-a-time rule's.  Returns the (m, 5)
    multiplicities: the cluster sizes in the order they opened (0 where no
    cluster opened), then the number of roots at infinity.
    """
    radius = ROOT_CLUSTER_RADIUS  # read per call
    n_finite = np.asarray(n_finite)
    m = len(n_finite)
    # a root at infinity is nan here: it sorts last, joins and opens nothing
    z = np.where(_SLOTS < n_finite[:, None], roots, np.nan)
    z = z[np.arange(m)[:, None], np.lexsort((z.imag, z.real))]  # stable
    c = np.where(_FIRST, z, np.nan)  # slot s: the s-th cluster opened, nan until then
    n = _FIRST * 1.0
    for k in range(1, 4):
        zk = z[:, k, None]
        dz = zk - c
        near = np.hypot(dz.real, dz.imag) <= radius * (1.0 + np.hypot(c.real, c.imag))
        unopened = np.isnan(c.real)
        hit = _SLOTS == (near | unopened).argmax(axis=1)[:, None]  # first near, or new
        # numpy's c*n rounds as Python's; its complex / would multiply by 1/(n + 1)
        a = (c * n + zk).view(float).reshape(m, 4, 2)
        mean = (a / (n + 1.0)[..., None]).view(complex)[..., 0]
        c = np.where(hit, np.where(unopened, zk, mean), c)
        n = n + hit
    mults = np.where(np.isnan(c.real), 0.0, n)
    return np.concatenate([mults, 4.0 - n_finite[:, None]], axis=1)


def vanishing_scale(kappa, lam):
    """Dimensionally consistent size estimate for the quartic coefficients
    (they are homogeneous of degree 6 in curvature units)."""
    return _ipow(kappa - lam, 4) * _ipow(curvature_scale(kappa, lam), 2)


def scaled_vanishing(coeffs, kappa, lam, tol=VANISH_TOL):
    """(max|A_i| / `vanishing_scale`, whether it is below tol) of each quartic
    of a (5, m) coefficient stack: the one vanishing rule of the closed form,
    which `g2_check` and the oracle table both read."""
    with np.errstate(all="ignore"):
        scaled = np.max(np.abs(coeffs), axis=0) / vanishing_scale(kappa, lam)
    return scaled, scaled < tol


@dataclass(frozen=True)
class G2Report:
    """The quartic over a grid of m points, as columns: the chart stack, the
    curvatures, the (m, 5) A1..A5, max|A_i| / `vanishing_scale` and the
    root-type tags ("zero" where the quartic vanishes)."""

    points: tuple
    kappa: np.ndarray
    quartics: np.ndarray
    scaled: np.ndarray
    tags: list
    max_scaled: float
    is_g2: bool

    @property
    def verdict(self):
        return "G2" if self.is_g2 else "not-G2"


def g2_check(s1, lam, grid, tol=VANISH_TOL):
    """Evaluate the quartic over the chart stack `grid` (t, psi) of s1 rolling
    on constant curvature lam, and decide whether it vanishes identically.

    One array pass: one `s1.jet` call, one stacked `quartic_killing_case`,
    the scaled maxima as arrays, and, if any row does not vanish, one
    classifying pass (`_classified`) on those rows, whose tags the report
    reads directly.  An invalid grid raises the error of its first failing
    point (`first_failing_row`).
    """
    if not len(grid[0]):
        raise ValueError("g2_check needs a nonempty grid")

    def quartics(t, psi):
        jets = s1.jet((t, psi))
        return jets.kappa, np.array(quartic_killing_case(jets, lam))  # (5, points)

    kappa, coeffs = first_failing_row(quartics, *grid)
    scaled, vanishes = scaled_vanishing(coeffs, kappa, lam, tol)
    loud = ~vanishes
    keys = np.zeros(len(kappa), dtype=int)  # _TAGS[0] is "zero"
    if loud.any():
        inverse, mults = _classified(CartanQuartic(*coeffs[:, loud]).poly_coefficients().T)
        keys[loud] = _tag_keys(mults)[inverse]
    return G2Report(points=grid, kappa=kappa, quartics=coeffs.T, scaled=scaled,
                    tags=_TAGS[keys].tolist(), max_scaled=float(np.max(scaled)),
                    is_g2=bool(vanishes.all()))
