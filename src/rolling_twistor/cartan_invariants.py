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
from .errors import DomainError

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


@dataclass(frozen=True)
class RootType:
    """Multiplicity partition of the quartic's complex roots.

    `tag` is "zero" or a bracketed partition like "[2,2]"; roots at infinity
    (degree drop) are folded into the partition and listed as None.
    """

    tag: str
    roots: tuple
    multiplicities: tuple


def root_type(quartic):
    """Classify the quartic over the complex numbers with multiplicity
    clustering (radius ROOT_CLUSTER_RADIUS); an (approximately) vanishing
    leading coefficient contributes a root at infinity."""
    return root_types([quartic])[0]


def root_types(quartics):
    """`root_type` of each quartic (a CartanQuartic or five ascending
    polynomial coefficients, or an (m, 5) array of such rows).

    Each distinct quartic is solved once, keyed on its coefficients' bits
    (so -0.0 is not 0.0), and its duplicates share its RootType.  The
    companion matrices are built as `np.roots` builds them, after the
    leading coefficients below DEGREE_TOL of the largest are dropped (roots
    at infinity) and the exact trailing zeros are split off (roots at 0).
    The quartics of one remaining degree share one `np.linalg.eigvals` call
    on their stacked companion matrices, which gives each the roots
    `np.roots` gives it.
    """
    if not isinstance(quartics, np.ndarray):
        quartics = [q.poly_coefficients() if isinstance(q, CartanQuartic) else q for q in quartics]
    p = np.ascontiguousarray(quartics, dtype=float).reshape(-1, 5)
    _, first, inverse = np.unique(p.view("V40").ravel(), return_index=True, return_inverse=True)
    p = p[first]
    desc = p[:, ::-1]  # descending degree for the companion solve
    scale = np.max(np.abs(p), axis=1)
    lead = np.cumprod(np.abs(desc[:, :4]) <= DEGREE_TOL * scale[:, None], axis=1).sum(axis=1)
    trailing = np.cumprod(desc[:, :0:-1] == 0.0, axis=1).sum(axis=1)
    groups = {}  # (lead, trailing) -> rows
    for i, key in enumerate(zip(lead.tolist(), trailing.tolist())):
        if scale[i] != 0.0:
            groups.setdefault(key, []).append(i)
    kinds = [RootType(tag="zero", roots=(), multiplicities=())] * len(p)
    for (lo, tz), rows in groups.items():
        c = desc[rows, lo : 5 - tz]
        d = c.shape[1] - 1
        finite = [[]] * len(rows)
        if d:
            companion = np.tile(np.eye(d, k=-1), (len(rows), 1, 1))
            companion[:, 0, :] = -c[:, 1:] / c[:, :1]
            finite = np.linalg.eigvals(companion).tolist()
        for i, w in zip(rows, finite):
            kinds[i] = _classify(w + [0j] * tz, lo)
    return [kinds[i] for i in inverse.tolist()]


def _classify(roots, inf_mult):
    """RootType of the finite roots and inf_mult roots at infinity."""
    clusters = []  # list of [representative, count]
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        for c in clusters:
            if abs(z - c[0]) <= ROOT_CLUSTER_RADIUS * (1.0 + abs(c[0])):
                c[0] = (c[0] * c[1] + z) / (c[1] + 1)
                c[1] += 1
                break
        else:
            clusters.append([z, 1])
    mults = [c[1] for c in clusters]
    reps = [complex(c[0]) for c in clusters]
    if inf_mult:
        mults.append(inf_mult)
        reps.append(None)
    order = sorted(range(len(mults)), key=lambda i: -mults[i])  # stable: ties keep their order
    mults = tuple(int(mults[i]) for i in order)
    reps = tuple(reps[i] for i in order)
    tag = "[" + ",".join(str(m) for m in mults) + "]"
    return RootType(tag=tag, roots=reps, multiplicities=mults)


def vanishing_scale(kappa, lam):
    """Dimensionally consistent size estimate for the quartic coefficients
    (they are homogeneous of degree 6 in curvature units)."""
    return _ipow(kappa - lam, 4) * _ipow(curvature_scale(kappa, lam), 2)


class G2Row(NamedTuple):
    point: tuple
    kappa: float
    quartic: CartanQuartic
    scaled_max: float
    root_tag: str


@dataclass(frozen=True)
class G2Report:
    rows: tuple
    max_scaled: float
    is_g2: bool
    tol: float

    @property
    def verdict(self):
        return "G2" if self.is_g2 else "not-G2"


def g2_check(s1, lam, grid, tol=VANISH_TOL):
    """Evaluate the quartic over a grid of chart points of s1 (rolling on
    constant curvature lam) and decide whether it vanishes identically.

    One array pass: one `s1.jet` call, one stacked `quartic_killing_case`,
    the scaled maxima as arrays, and one `root_types` call on the rows that
    do not vanish.  An invalid grid raises the error of its first failing
    point: the grid is replayed point by point.
    """
    grid = [tuple(p) for p in grid]
    if not grid:
        raise ValueError("g2_check needs a nonempty grid")
    try:
        jets = s1.jet(tuple(np.array(c, dtype=float) for c in zip(*grid)))
        coeffs = np.array(quartic_killing_case(jets, lam))  # (5, points)
    except DomainError:
        # a point's quartic may fail before a later point leaves the chart
        for p in grid:
            quartic_killing_case(s1.jet(p), lam)
        raise
    with np.errstate(all="ignore"):
        scaled = np.max(np.abs(coeffs), axis=0) / vanishing_scale(jets.kappa, lam)
    loud = ~(scaled < tol)
    tags = np.full(len(grid), "zero", dtype=object)
    loud_quartics = CartanQuartic(*coeffs[:, loud]).poly_coefficients().T
    tags[loud] = [kind.tag for kind in root_types(loud_quartics)]
    rows = tuple(
        G2Row(point=p, kappa=k, quartic=CartanQuartic(*q), scaled_max=m, root_tag=t)
        for p, k, q, m, t in zip(grid, jets.kappa.tolist(), coeffs.T.tolist(), scaled.tolist(),
                                 tags)
    )
    worst = float(np.max(scaled))
    return G2Report(rows=rows, max_scaled=worst, is_g2=worst < tol, tol=tol)
