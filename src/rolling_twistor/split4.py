"""Split-signature (2,2) linear algebra on R^4.

Hodge star on bivectors, totally null 2-planes and their circle
parametrization, Levi-Civita connection coefficients of an orthonormal frame
from its structure functions, and the fiber ("horizontal") corrections that
lift frame vectors to the circle bundle of selfdual null planes.

Conventions: the orthonormal frame (e1,e2,e3,e4) has inner product
diag(+1,+1,-1,-1); bivectors use the ordered basis
(e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4).  Null planes follow the graph
convention: the plane at angle phi is spanned by (1,0,cos phi,sin phi) and
(0,1,-sin phi,cos phi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC4 = np.diag([1.0, 1.0, -1.0, -1.0])

# index pairs of the bivector basis, 0-based
BIVECTOR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# the star map is a constant signed permutation in this basis:
#   e12 <-> e34,  e13 <-> e24,  e14 <-> -e23
STAR_MATRIX = np.zeros((6, 6))
STAR_MATRIX[5, 0] = STAR_MATRIX[0, 5] = 1.0
STAR_MATRIX[4, 1] = STAR_MATRIX[1, 4] = 1.0
STAR_MATRIX[3, 2] = STAR_MATRIX[2, 3] = -1.0


def inner(v, w):
    """Split-signature inner product g(v, w) = v1 w1 + v2 w2 - v3 w3 - v4 w4."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(v @ METRIC4 @ w)


def norm_squared(v):
    return inner(v, v)


def wedge(v, w):
    """Bivector components of v ^ w in the ordered basis."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return np.array([v[i] * w[j] - v[j] * w[i] for i, j in BIVECTOR_PAIRS])


def hodge_star(b):
    """Hodge star on bivectors; an involution."""
    return STAR_MATRIX @ np.asarray(b, dtype=float)


def selfdual_split(b):
    """Split b into (selfdual, antiselfdual) parts; their sum is b."""
    b = np.asarray(b, dtype=float)
    sb = STAR_MATRIX @ b
    return 0.5 * (b + sb), 0.5 * (b - sb)


def null_plane_span(phi):
    """Spanning pair of the selfdual totally null plane at fiber angle phi.

    Graph convention: these are the graph vectors of the rotation by phi
    mapping the (e1,e2)-plane to the (e3,e4)-plane.
    """
    c, s = np.cos(phi), np.sin(phi)
    return np.array([1.0, 0.0, c, s]), np.array([0.0, 1.0, -s, c])


@dataclass(frozen=True)
class NullPlane:
    """Totally null 2-plane, identified by its circle angle and duality.

    Both duality families are circles; the selfdual one uses the graph
    convention above, the antiselfdual one flips the sign pattern of the
    second spanning vector.
    """

    angle: float
    duality: str = "selfdual"

    def __post_init__(self):
        if self.duality not in ("selfdual", "antiselfdual"):
            raise ValueError("duality must be 'selfdual' or 'antiselfdual'")

    def span(self):
        c, s = np.cos(self.angle), np.sin(self.angle)
        v1 = np.array([1.0, 0.0, c, s])
        if self.duality == "selfdual":
            return v1, np.array([0.0, 1.0, -s, c])
        return v1, np.array([0.0, 1.0, s, -c])

    def bivector(self):
        v1, v2 = self.span()
        return wedge(v1, v2)

    @property
    def star_eigenvalue(self):
        return 1.0 if self.duality == "selfdual" else -1.0


def levi_civita_from_structure(c, signature=(2, 2)):
    """Connection coefficients Gamma^i_{jk} of an orthonormal frame.

    `c` has c[k, i, j] = k-th component of [e_i, e_j]; it must be
    antisymmetric in (i, j).  The result is the unique solution of the first
    structure equation  d sigma^i + Gamma^i_j ^ sigma^j = 0  with
    Gamma_{ij} = -Gamma_{ji} after lowering, by the standard cyclic (Koszul)
    combination of lowered structure constants.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (4, 4, 4):
        raise ValueError("structure functions must have shape (4, 4, 4)")
    if not np.allclose(c, -np.swapaxes(c, 1, 2), atol=1e-12 * (1 + np.abs(c).max())):
        raise ValueError("structure functions must be antisymmetric in (i, j)")
    p, q = signature
    if p + q != 4:
        raise ValueError("signature must split 4 dimensions")
    g = np.array([1.0] * p + [-1.0] * q)
    cl = g[:, None, None] * c  # c_{a,bc} = g_{am} c^m_{bc}
    gamma_low = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                gamma_low[i, j, k] = 0.5 * (cl[i, k, j] - cl[k, j, i] + cl[j, i, k])
    return g[:, None, None] * gamma_low


def twistor_lift_coefficient(gamma, i, phi):
    """Fiber (d/d phi) coefficient of the horizontal lift of frame vector e_i.

    Frame indices are 1-based to match the geometry conventions.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("frame index must be 1..4")
    g = np.asarray(gamma, dtype=float)
    k = i - 1
    c, s = np.cos(phi), np.sin(phi)
    return float(
        g[2, 3, k] - g[0, 1, k] + (g[0, 3, k] - g[1, 2, k]) * c + (g[0, 2, k] + g[1, 3, k]) * s
    )


def horizontal_corrections(gamma, phi):
    """Fiber corrections (z1, z2) of the two null-plane spanning lifts.

    These are the trigonometric polynomials in the connection coefficients
    obtained by lifting (e1 + cos phi e3 + sin phi e4) and
    (e2 - sin phi e3 + cos phi e4) horizontally.
    """
    g = np.asarray(gamma, dtype=float)
    c, s = np.cos(phi), np.sin(phi)

    def G(i, j, k):  # 1-based accessor, keeps the formulas readable
        return g[i - 1, j - 1, k - 1]

    z1 = (
        G(3, 4, 1) - G(1, 2, 1)
        + c * (G(3, 4, 3) - G(2, 3, 1) + G(1, 4, 1) - G(1, 2, 3))
        + s * (G(3, 4, 4) + G(2, 4, 1) + G(1, 3, 1) - G(1, 2, 4))
        + c * c * (G(1, 4, 3) - G(2, 3, 3))
        + c * s * (G(2, 4, 3) - G(2, 3, 4) + G(1, 4, 4) + G(1, 3, 3))
        + s * s * (G(1, 3, 4) + G(2, 4, 4))
    )
    z2 = (
        G(3, 4, 2) - G(1, 2, 2)
        + c * (G(3, 4, 4) - G(2, 3, 2) + G(1, 4, 2) - G(1, 2, 4))
        + s * (-G(3, 4, 3) + G(2, 4, 2) + G(1, 3, 2) + G(1, 2, 3))
        + c * c * (G(1, 4, 4) - G(2, 3, 4))
        + c * s * (G(2, 4, 4) + G(2, 3, 3) - G(1, 4, 3) + G(1, 3, 4))
        - s * s * (G(1, 3, 3) + G(2, 4, 3))
    )
    return float(z1), float(z2)


def product_structure_functions(a1, a2, a3, a4):
    """Structure functions of the product frame of two surfaces:
    [e1,e2] = a1 e1 + a2 e2 and [e3,e4] = a3 e3 + a4 e4, everything else zero.
    """
    c = np.zeros((4, 4, 4))
    c[0, 0, 1], c[0, 1, 0] = a1, -a1
    c[1, 0, 1], c[1, 1, 0] = a2, -a2
    c[2, 2, 3], c[2, 3, 2] = a3, -a3
    c[3, 2, 3], c[3, 3, 2] = a4, -a4
    return c
