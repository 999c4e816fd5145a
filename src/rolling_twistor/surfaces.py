"""Surface catalog: orthogonal frames, Gaussian curvature, and pointwise jets.

Every family has an orthogonal chart (t, psi) whose orthonormal frame is
e1 = f1 d/dt, e2 = f2 d/dpsi, with [e1, e2] = a2 e2: the frame is adapted to
the family's symmetry (the rotation, or the translation in y for the plane's
Cartesian chart), so the curvature depends on t only and its derivative
along e2 vanishes.  The frame data of a
surface at a point is (f1, f2, a2, kappa), in closed form; it is all the
velocity fields, their first bracket and the rolling diagnostics read.  The
jet is the frame data, bit for bit, followed by the e1-derivatives of kappa
up to fourth order: one read gives everything the quartic invariant
formulas, the derived fields X4, X5 and the oracle's coframe consume.
`jet` and `frame_data` also take a stack of chart
points, a pair of 1-D coordinate arrays, and return fields that are 1-D
arrays; each point rounds as it does on its own.  Arithmetic-only
families evaluate a stack in one pass; the sphere, the hyperbolic plane and
`CustomRevolution` give frame data point by point, through the math module
(numpy's vectorised sinh and cosh can round differently).

Revolution-type families use coordinates (rho, psi) with metric
(beta + alpha rho^2)^2 drho^2 + rho^2 dpsi^2 and frame
e1 = (1/(beta + alpha rho^2)) d/drho, e2 = (1/rho) d/dpsi.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ChartOverflowError, DomainError, SpecParseError
from .taylor import TaylorJet

REVOLUTION_MARGIN = 1e-6  # keep |beta + alpha rho^2| away from the frame degeneracy


class FrameData(NamedTuple):
    """The surface at a chart point: the orthonormal frame e1 = f1 d/dt,
    e2 = f2 d/dpsi, its connection coefficient a2 ([e1, e2] = a2 e2) and the
    Gaussian curvature kappa."""

    f1: float
    f2: float
    a2: float
    kappa: float


class SurfaceJet(NamedTuple):
    """Pointwise jet: the frame data (f1, f2, a2, kappa), bit for bit those of
    `frame_data`, and the e1-derivatives of kappa up to fourth order.  The jet
    of a stack of points has a 1-D array in every field."""

    f1: float
    f2: float
    a2: float
    kappa: float
    kappa1: float
    kappa11: float
    kappa111: float
    kappa1111: float

    def scaled(self, s0):
        """Jet of the same chart point after multiplying the metric by s0^2:
        each field is divided by |s0| to its degree in inverse length."""
        s = abs(float(s0))
        if s == 0.0:
            raise ValueError("scale factor must be nonzero")
        return SurfaceJet(*(x / s**n for x, n in zip(self, (1, 1, 1, 2, 3, 4, 5, 6))))


class Surface:
    """Base class; concrete families implement frame data, jets and domains."""

    kind = "surface"
    is_constant_curvature = False

    def frame_data(self, p) -> FrameData:
        """(f1, f2, a2, kappa) at p, or at each point of a stack (see module
        doc); they are the first four fields of `jet`."""
        raise NotImplementedError

    def jet(self, p) -> SurfaceJet:
        """Jet at a chart point, or at each point of a stack (see module doc).
        This one is a constant-curvature family's: the frame data, with
        vanishing curvature derivatives."""
        d = self.frame_data(p)
        zero = np.zeros_like(d.kappa) if isinstance(d.kappa, np.ndarray) else 0.0
        return SurfaceJet(*d, zero, zero, zero, zero)

    def validate(self, p):
        """Raise DomainError if p lies outside the chart domain."""

    def scaled(self, s0) -> "Surface":
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def profile_range(self):
        """Default (lo, hi) for the profile coordinate, used by CLI grids."""
        raise NotImplementedError

    def chart_point(self, t):
        """Chart point with profile coordinate t and the symmetry angle fixed."""
        return (float(t), 0.0)

    def profile_grid(self, n, lo=None, hi=None):
        r0, r1 = self.profile_range()
        if lo is not None:
            r0 = lo
        if hi is not None:
            r1 = hi
        return [self.chart_point(t) for t in np.linspace(r0, r1, n)]


def _spec_number(x):
    """Shortest text that parses back to the float x: its repr, less a
    trailing '.0'."""
    return repr(float(x)).removesuffix(".0")


def _check_scale(s0):
    if s0 == 0.0:
        raise ValueError("scale factor must be nonzero")


def _is_stack(p):
    """True for a stack of chart points: a pair of 1-D coordinate arrays."""
    if isinstance(p, np.ndarray):
        return p.ndim == 2
    return isinstance(p, (tuple, list)) and isinstance(p[0], np.ndarray)


def _profile_coordinate(p):
    """First coordinate of a chart point; a bare number is that coordinate."""
    try:
        return p[0]
    except (TypeError, IndexError):
        return float(p)


def _each_point(p, fn):
    """fn of each point of the stack p, in order, as a pair of floats."""
    return [fn(q) for q in zip(*(np.asarray(c, dtype=float).tolist() for c in p))]


def _frames_of_each_point(surface, p):
    """Frame data of the stack p, one `frame_data` call per point, so each
    point rounds through the math module as it does on its own."""
    return FrameData(*np.array(_each_point(p, surface.frame_data)).reshape(-1, 4).T)


@dataclass(frozen=True)
class Plane(Surface):
    """Flat plane, Cartesian chart; `scale` multiplies the unit metric."""

    scale: float = 1.0

    kind = "plane"
    is_constant_curvature = True

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale) and math.isfinite(1.0 / self.scale)):
            raise ValueError("plane scale must be a positive number with a finite inverse")

    def frame_data(self, p):
        f = 1.0 / self.scale
        if _is_stack(p):
            m = len(p[0])
            return FrameData(np.full(m, f), np.full(m, f), np.zeros(m), np.zeros(m))
        return FrameData(f, f, 0.0, 0.0)

    def scaled(self, s0):
        _check_scale(s0)
        return Plane(scale=self.scale * abs(s0))

    def spec_string(self):
        return "plane" if self.scale == 1.0 else f"plane:scale={_spec_number(self.scale)}"

    def profile_range(self):
        return (-1.0, 1.0)


@dataclass(frozen=True)
class Sphere(Surface):
    """Round sphere of radius r, polar chart (theta, psi), theta in (0, pi)."""

    radius: float

    kind = "sphere"
    is_constant_curvature = True

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")

    def validate(self, p):
        theta = p[0]
        if not (1e-9 < theta < math.pi - 1e-9):
            raise DomainError(f"sphere polar chart requires 0 < theta < pi, got {theta}")

    def frame_data(self, p):
        if _is_stack(p):
            return _frames_of_each_point(self, p)
        self.validate(p)
        theta = p[0]
        r = self.radius
        rs = r * math.sin(theta)
        return FrameData(1.0 / r, 1.0 / rs, -math.cos(theta) / rs, 1.0 / r**2)

    def scaled(self, s0):
        _check_scale(s0)
        return Sphere(radius=self.radius * abs(s0))

    def spec_string(self):
        return f"sphere:r={_spec_number(self.radius)}"

    def profile_range(self):
        return (0.4, math.pi - 0.4)


@dataclass(frozen=True)
class Hyperbolic(Surface):
    """Hyperbolic plane of curvature -1/r^2, polar chart (theta, psi)."""

    radius: float

    kind = "hyperbolic"
    is_constant_curvature = True

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("hyperbolic radius must be positive")

    def validate(self, p):
        theta = p[0]
        if theta < 1e-9:
            raise DomainError(f"hyperbolic polar chart requires theta > 0, got {theta}")

    def frame_data(self, p):
        if _is_stack(p):
            return _frames_of_each_point(self, p)
        self.validate(p)
        theta = p[0]
        r = self.radius
        rs = r * math.sinh(theta)
        return FrameData(1.0 / r, 1.0 / rs, -math.cosh(theta) / rs, -1.0 / r**2)

    def scaled(self, s0):
        _check_scale(s0)
        return Hyperbolic(radius=self.radius * abs(s0))

    def spec_string(self):
        return f"hyperbolic:r={_spec_number(self.radius)}"

    def profile_range(self):
        return (0.3, 2.0)


class _RevolutionBase(Surface):
    """Shared machinery for metrics (beta + alpha rho^2)^2 drho^2 + rho^2 dpsi^2.

    Subclasses provide `alpha` and `beta` (fields or properties)."""

    _h_formula = "beta + alpha rho^2"  # named where the frame degenerates

    def h(self, rho):
        return self.beta + self.alpha * rho * rho

    def validate(self, p):
        rho = float(_profile_coordinate(p))  # a float overflows to inf without a warning
        if rho <= 0:
            raise DomainError(f"revolution chart requires rho > 0, got {rho}")
        h = self.h(rho)
        if not math.isfinite(h):
            raise ChartOverflowError(
                f"{self._h_formula} is not finite at rho = {rho} (float overflow)"
            )
        if not (math.isfinite(h * h * h) and math.isfinite(rho * h)):
            # kappa = 2 alpha / h^3 and a2 = -1 / (rho h) would round to 0
            raise ChartOverflowError(
                f"the cube of {self._h_formula} or its product with rho overflows at rho = {rho}"
                " (float overflow)"
            )
        if abs(h) < REVOLUTION_MARGIN:
            raise DomainError(f"frame degenerates where {self._h_formula} = 0 (rho = {rho})")

    def _inside(self, rho):
        """Where the profile coordinates rho may lie in the chart, elementwise;
        False at least wherever `validate` raises."""
        h = self.h(rho)
        finite = np.isfinite(h * h * h) & np.isfinite(rho * h)
        return (rho > 0) & finite & (np.abs(h) >= REVOLUTION_MARGIN)

    def _rho(self, p):
        """Profile coordinate of a valid chart point (a float), or of each
        point of a valid stack (an array)."""
        if _is_stack(p):
            rho = np.asarray(p[0], dtype=float)
            with np.errstate(all="ignore"):
                inside = self._inside(rho).all()
            if not inside:
                _each_point(p, self.validate)  # the first point outside raises
            return rho
        self.validate(p)
        return _profile_coordinate(p)

    def _frame(self, rho):
        """Frame data at the profile coordinate rho of a valid chart point, or
        at each entry of an array of them."""
        h = self.h(rho)
        # h*h*h rounds as TaylorJet's h**3 does: kappa is the value of the jet's series
        return FrameData(1.0 / h, 1.0 / rho, -1.0 / (rho * h), 2.0 * self.alpha / (h * h * h))

    def frame_data(self, p):
        return self._frame(self._rho(p))

    def jet(self, p):
        rho = self._rho(p)
        # exact Taylor arithmetic: kappa = 2 alpha / h^3 expanded to 4th order
        r = TaylorJet.variable(rho, 4)
        h = self.beta + self.alpha * r * r
        return SurfaceJet(*self._frame(rho), *_kappa_derivatives(2.0 * self.alpha / h**3, h))

    def profile_range(self):
        return (0.5, 2.0)


def _kappa_derivatives(kappa_series, h_series):
    """kappa1..kappa1111: the e1-derivative chain f -> f'(rho)/h applied
    four times to the curvature series."""
    derivs = []
    f = kappa_series
    for _ in range(4):
        f = f.derivative() / h_series.truncate(f.order - 1)
        derivs.append(f.value)
    return derivs


@dataclass(frozen=True)
class RevolutionProfile(_RevolutionBase):
    """General revolution family, of profile x = alpha rho^2 / 2 + beta log rho
    (up to a constant, which does not enter the metric)."""

    alpha: float
    beta: float

    kind = "profile"

    def __post_init__(self):
        if self.alpha == 0.0:
            raise ValueError("alpha = 0 gives a flat metric and is excluded")

    def scaled(self, s0):
        _check_scale(s0)
        return RevolutionProfile(self.alpha / s0**2, self.beta)

    def spec_string(self):
        return f"profile:alpha={_spec_number(self.alpha)},beta={_spec_number(self.beta)}"


@dataclass(frozen=True)
class G2Family(_RevolutionBase):
    """The three normal-form metrics (rho^2 + eps)^2 drho^2 + rho^2 dpsi^2."""

    eps: int

    kind = "g2"

    def __post_init__(self):
        if self.eps not in (-1, 0, 1):
            raise ValueError("eps must be -1, 0 or +1")

    @property
    def alpha(self):
        return 1.0

    @property
    def beta(self):
        return float(self.eps)

    def _inside(self, rho):
        return super()._inside(rho) & ((self.eps != -1) | (rho > 1.0))

    def validate(self, p):
        rho = _profile_coordinate(p)
        if self.eps == -1 and rho <= 1.0:
            raise DomainError(
                f"the eps=-1 family is restricted to rho > 1 (frame degenerates at 1), got {rho}"
            )
        super().validate(p)

    def scaled(self, s0):
        _check_scale(s0)
        return RevolutionProfile(1.0 / s0**2, float(self.eps))

    def spec_string(self):
        return f"g2:eps={self.eps}"

    def profile_range(self):
        if self.eps == -1:
            return (1.2, 3.0)
        if self.eps == 0:
            return (0.5, 3.0)
        return (0.1, 2.0)


class CustomRevolution(_RevolutionBase):
    """Revolution surface with a user-supplied metric factor h(rho).

    `h_func` must accept TaylorJet arguments (plain arithmetic plus the
    elementary functions TaylorJet provides); the order-4 jet of the
    curvature kappa = h'/(rho h^3) is evaluated through it.
    """

    kind = "custom"
    _h_formula = "h"

    def __init__(self, h_func, label="custom"):
        self._h = h_func
        self.label = label

    def h(self, rho):
        out = self._h(TaylorJet.constant(float(rho), 0))
        return out.value if isinstance(out, TaylorJet) else float(out)

    def _inside(self, rho):
        return np.zeros(np.shape(rho), dtype=bool)  # h takes one point: validate each

    def frame_data(self, p):
        if _is_stack(p):
            return _frames_of_each_point(self, p)
        return FrameData(*self.jet(p)[:4])

    def jet(self, p):
        rho = self._rho(p)
        r = TaylorJet.variable(rho, 5)
        h = self._h(r)
        if not isinstance(h, TaylorJet):
            h = TaylorJet.constant(float(h), 5)
        kappa = h.derivative() / (r * h**3).truncate(4)
        frame = (1.0 / h.value, 1.0 / rho, -1.0 / (rho * h.value), kappa.value)
        return SurfaceJet(*frame, *_kappa_derivatives(kappa, h.truncate(4)))

    def spec_string(self):
        return f"custom:{self.label}"


_SPEC_RE = re.compile(r"^(?P<kind>[a-zA-Z0-9_]+)(?::(?P<args>.*))?$")

_SPEC_KEYS = {
    "plane": ("scale",),
    "sphere": ("r",),
    "hyperbolic": ("r",),
    "profile": ("alpha", "beta"),
    "g2": ("eps",),
}


def parse_surface(spec):
    """Parse a surface spec string.

    Grammar: ``plane``, ``plane:scale=<v>``, ``sphere:r=<v>``,
    ``hyperbolic:r=<v>``, ``profile:alpha=<v>,beta=<v>``,
    ``g2:eps=<-1|0|1>``.  `Surface.spec_string` prints specs in this grammar
    that parse back to an equal surface.
    """
    m = _SPEC_RE.match(spec.strip())
    if not m:
        raise SpecParseError(f"unparseable surface spec {spec!r}", position=0)
    kind = m.group("kind")
    if kind not in _SPEC_KEYS:
        raise SpecParseError(f"unknown surface family {kind!r} in {spec!r}", position=0)
    allowed = _SPEC_KEYS[kind]
    kv = {}
    tokens = []  # (item, position, value) per key=value
    args = m.group("args")
    if args:
        pos = len(kind) + 1
        for item in args.split(","):
            if "=" not in item:
                raise SpecParseError(
                    f"expected key=value at position {pos} in {spec!r}", position=pos
                )
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in allowed:
                raise SpecParseError(
                    f"unknown key {key!r} for family {kind!r} at position {pos} in {spec!r}",
                    position=pos,
                )
            if key in kv:
                raise SpecParseError(
                    f"repeated key in {item!r} at position {pos} in {spec!r}", position=pos
                )
            try:
                kv[key] = float(val)
            except ValueError:
                raise SpecParseError(
                    f"bad numeric value {val!r} at position {pos} in {spec!r}", position=pos
                ) from None
            if not math.isfinite(kv[key]):
                raise SpecParseError(
                    f"non-finite value in {item!r} at position {pos} in {spec!r}", position=pos
                )
            tokens.append((item, pos, kv[key]))
            pos += len(item) + 1
    try:
        if kind == "plane":
            surface = Plane(kv.get("scale", 1.0))
        elif kind == "sphere":
            surface = Sphere(radius=kv["r"])
        elif kind == "hyperbolic":
            surface = Hyperbolic(radius=kv["r"])
        elif kind == "profile":
            surface = RevolutionProfile(kv["alpha"], kv["beta"])
        else:
            eps = kv["eps"]
            if eps != int(eps):
                raise ValueError("eps must be an integer")
            surface = G2Family(int(eps))
    except KeyError as exc:
        raise SpecParseError(f"missing key {exc.args[0]!r} in {spec!r}", position=0) from None
    except ValueError as exc:
        raise SpecParseError(f"invalid parameters in {spec!r}: {exc}", position=0) from None
    if tokens and kind != "plane" and not _curvature_representable(surface):
        # name the value of the largest binary exponent in magnitude
        item, pos, _ = max(tokens, key=lambda t: abs(math.frexp(t[2])[1]))
        msg = f"curvature overflows or underflows for {item!r} at position {pos} in {spec!r}"
        raise SpecParseError(msg, position=pos)
    return surface


def _curvature_representable(surface):
    """True iff the Gaussian curvature at the ends of the default profile
    range, where they lie in the chart, is a finite nonzero float."""
    for t in surface.profile_range():
        try:
            kappa = surface.frame_data(surface.chart_point(t)).kappa
        except ArithmeticError:  # OverflowError in 1 / r**2, ChartOverflowError, ZeroDivisionError
            return False
        except DomainError:
            continue
        if not (math.isfinite(kappa) and kappa != 0.0):
            return False
    return True
