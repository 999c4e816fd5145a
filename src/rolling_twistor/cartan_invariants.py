"""Quartic invariant of the rolling distribution in the rotational case.

For a surface with a rotational symmetry rolling on a surface of constant
curvature lambda, the five coefficients (A1..A5) of the fundamental binary
quartic have closed forms in the jet (a2, kappa, kappa1..kappa1111).  The
distribution has maximal (14-dimensional exceptional) local symmetry exactly
when all five vanish identically; for a pair of constant-curvature surfaces
this happens exactly at curvature ratio 9:1.

All coefficients are defined only up to a common nonvanishing factor, so
every comparison here is projective and every vanishing test is relative to
the dimensional scale (kappa - lambda)^4 * max(kappa^2, lambda^2, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution5 import _require_noninteg
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

    @property
    def array(self):
        return np.array(self)

    def poly_coefficients(self):
        """Polynomial coefficients in ascending degree, weights included."""
        return np.array([self.A1, 4.0 * self.A2, 6.0 * self.A3, 4.0 * self.A4, self.A5])

    @property
    def max_abs(self):
        return float(np.max(np.abs(self.array)))


def quartic_killing_case(jet, lam):
    """Closed-form (A1..A5) for a rotationally symmetric surface with jet
    `jet` rolling on constant curvature `lam`."""
    k = jet.kappa
    _require_noninteg(k, lam)  # the quartic is undefined where the distribution is integrable
    try:
        quartic = _killing_coefficients(jet, lam)
        finite = all(map(math.isfinite, quartic))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"the quartic overflows at kappa = {float(k)!r}, lambda = {float(lam)!r}"
        )
    return quartic


def _killing_coefficients(jet, lam):
    k = jet.kappa
    a2 = jet.a2
    k1, k11, k111, k1111 = jet.kappa1, jet.kappa11, jet.kappa111, jet.kappa1111
    d = k - lam
    P = d**4 * (k - 9.0 * lam) * (9.0 * k - lam)

    A1 = (
        10.0 * d**3 * k1111
        - 70.0 * d**2 * k111 * k1
        - 49.0 * d**2 * k11**2
        + 280.0 * d * k1**2 * k11
        + 8.0 * d**3 * (2.0 * k + 7.0 * lam) * k11
        - 20.0 * d**2 * (k + 6.0 * lam) * k1**2
        - 175.0 * k1**4
        + P
    )
    A2 = A1
    A3 = (
        A1
        - 10.0 * d**3 * a2 * k111
        + (154.0 / 3.0) * d**2 * a2 * k11 * k1
        - 20.0 * d**3 * a2**2 * k11
        - (4.0 / 3.0) * d**3 * (3.0 * k - 7.0 * lam) * k11
        - (140.0 / 3.0) * d * a2 * k1**3
        + (5.0 / 3.0) * d**2 * (21.0 * a2**2 + 4.0 * k - 11.0 * lam) * k1**2
        - (4.0 / 3.0) * d**3 * (15.0 * a2**2 + 12.0 * k + 7.0 * lam) * a2 * k1
        + P / 3.0
    )
    A4 = -2.0 * A1 + 3.0 * A3
    A5 = (
        -5.0 * A1
        + 6.0 * A3
        + 30.0 * d**3 * a2**2 * k11
        - 49.0 * d**2 * a2**2 * k1**2
        + 2.0 * d**3 * (15.0 * a2**2 - 3.0 * k - 28.0 * lam) * a2 * k1
        + P
    )
    return CartanQuartic(A1, A2, A3, A4, A5)


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


@dataclass(frozen=True)
class RootType:
    """Multiplicity partition of the quartic's complex roots.

    `tag` is "zero" or a bracketed partition like "[2,2]"; roots at infinity
    (degree drop) are folded into the partition and listed as None.
    """

    tag: str
    roots: tuple
    multiplicities: tuple


def root_type(quartic, cluster_radius=ROOT_CLUSTER_RADIUS):
    """Classify the quartic over the complex numbers with multiplicity
    clustering; an (approximately) vanishing leading coefficient contributes
    a root at infinity."""
    return root_types([quartic], cluster_radius)[0]


def root_types(quartics, cluster_radius=ROOT_CLUSTER_RADIUS):
    """`root_type` of each quartic (a CartanQuartic or five ascending
    polynomial coefficients).

    The companion matrices are built as `np.roots` builds them, after the
    leading coefficients below DEGREE_TOL of the largest are dropped (roots
    at infinity) and the exact trailing zeros are split off (roots at 0).
    The quartics of one remaining degree share one `np.linalg.eigvals` call
    on their stacked companion matrices, which gives each the roots
    `np.roots` gives it.
    """
    p = np.array(
        [q.poly_coefficients() if isinstance(q, CartanQuartic) else q for q in quartics],
        dtype=float,
    ).reshape(-1, 5)
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
            kinds[i] = _classify(w + [0j] * tz, lo, cluster_radius)
    return kinds


def _classify(roots, inf_mult, cluster_radius):
    """RootType of the finite roots and inf_mult roots at infinity."""
    clusters = []  # list of [representative, count]
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        for c in clusters:
            if abs(z - c[0]) <= cluster_radius * (1.0 + abs(c[0])):
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


def necessary_condition_residual(kappa, lam):
    """(9 kappa - lambda)(kappa - 9 lambda) lambda; a necessary condition for
    maximal symmetry in the rotational-on-constant-curvature case is that
    this vanishes."""
    return (9.0 * kappa - lam) * (kappa - 9.0 * lam) * lam


def vanishing_scale(kappa, lam):
    """Dimensionally consistent size estimate for the quartic coefficients
    (they are homogeneous of degree 6 in curvature units)."""
    return (kappa - lam) ** 4 * max(kappa**2, lam**2, 1.0)


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

    One `s1.jet` call evaluates the whole grid; the quartic is formed row by
    row, and the rows that do not vanish are classified together.  An
    invalid grid raises the error of its first failing point.
    """
    grid = [tuple(p) for p in grid]
    if not grid:
        raise ValueError("g2_check needs a nonempty grid")
    try:
        jets = s1.jet(tuple(np.array(c, dtype=float) for c in zip(*grid)))
    except DomainError as exc:
        # a row before the first point outside the chart may fail first
        if getattr(exc, "point_index", 0):
            g2_check(s1, lam, grid[: exc.point_index], tol)
        raise
    rows = []
    worst = 0.0
    for p, jet in zip(grid, jets.points()):
        q = quartic_killing_case(jet, lam)
        scaled = q.max_abs / vanishing_scale(jet.kappa, lam)
        worst = max(worst, scaled)
        rows.append(G2Row(point=p, kappa=jet.kappa, quartic=q, scaled_max=scaled,
                          root_tag="zero"))
    loud = [i for i, row in enumerate(rows) if not row.scaled_max < tol]
    for i, kind in zip(loud, root_types([rows[i].quartic for i in loud])):
        rows[i] = rows[i]._replace(root_tag=kind.tag)
    return G2Report(rows=tuple(rows), max_scaled=worst, is_g2=worst < tol, tol=tol)
