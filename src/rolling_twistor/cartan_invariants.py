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

from .errors import DomainError, IntegrablePointError

VANISH_TOL = 1e-8  # relative threshold for "all A_i vanish"
ROOT_CLUSTER_RADIUS = 1e-6  # multiplicity clustering, scaled by 1 + |root|


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
    if not jet.killing or jet.a1 != 0.0:
        raise ValueError("the closed-form quartic requires a rotationally adapted jet (a1 = 0)")
    k = jet.kappa
    if abs(k - lam) <= 1e-14 * max(abs(k), abs(lam), 1.0):
        raise IntegrablePointError(
            f"kappa = lambda = {k}: integrable point, quartic undefined"
        )
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


def root_type(quartic, cluster_radius=ROOT_CLUSTER_RADIUS, degree_tol=1e-12):
    """Classify the quartic over the complex numbers with multiplicity
    clustering; an (approximately) vanishing leading coefficient contributes
    a root at infinity."""
    p = quartic.poly_coefficients() if isinstance(quartic, CartanQuartic) else np.asarray(
        quartic, dtype=float
    )
    scale = float(np.max(np.abs(p)))
    if scale == 0.0:
        return RootType(tag="zero", roots=(), multiplicities=())
    desc = p[::-1].copy()  # descending degree for the companion solve
    lead = 0
    while lead < 4 and abs(desc[lead]) <= degree_tol * scale:
        lead += 1
    inf_mult = lead
    roots = np.roots(desc[lead:]) if lead < 4 else np.array([], dtype=complex)

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
    order = np.argsort(mults)[::-1]
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
    constant curvature lam) and decide whether it vanishes identically."""
    grid = list(grid)
    if not grid:
        raise ValueError("g2_check needs a nonempty grid")
    rows = []
    worst = 0.0
    for p in grid:
        jet = s1.jet(p)
        q = quartic_killing_case(jet, lam)
        scale = vanishing_scale(jet.kappa, lam)
        scaled = q.max_abs / scale
        worst = max(worst, scaled)
        tag = "zero" if scaled < tol else root_type(q).tag
        rows.append(G2Row(point=tuple(p), kappa=jet.kappa, quartic=q,
                          scaled_max=scaled, root_tag=tag))
    return G2Report(rows=tuple(rows), max_scaled=worst, is_g2=worst < tol, tol=tol)
