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
points, a pair of 1-D coordinate arrays such as `profile_grid` builds, and
return fields that are 1-D arrays; each point rounds as it does on its own.
Every catalog family evaluates a stack in one pass: the sphere and the hyperbolic plane take
their sin/cos or sinh/cosh through the math module element by element
(numpy's vectorised ones can round differently) and do the rest in numpy
arithmetic.  Only `CustomRevolution`, whose h takes one point, gives frame
data point by point.  A stack with a point outside the chart raises the
error of its first such point.

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
        """The stack of the n chart points `chart_point(t)` with t evenly
        spaced from lo to hi (by default the ends of `profile_range`):
        (t, psi), two 1-D arrays, psi all 0.0."""
        r0, r1 = self.profile_range()
        return np.linspace(r0 if lo is None else lo, r1 if hi is None else hi, n), np.zeros(n)


def _spec_number(x):
    """Shortest text that parses back to the float x: its repr, less a
    trailing '.0'."""
    return repr(float(x)).removesuffix(".0")


def _check_scale(s0):
    if s0 == 0.0:
        raise ValueError("scale factor must be nonzero")


def _is_stack(p):
    """True for a stack of chart points: a pair of 1-D coordinate arrays."""
    return isinstance(p, (tuple, list)) and isinstance(p[0], np.ndarray)


def _each_point(p, fn):
    """fn of each point of the stack p, in order, as a pair of floats."""
    return [fn(q) for q in zip(*(np.asarray(c, dtype=float).tolist() for c in p))]


def _frames_of_each_point(surface, p):
    """Frame data of the stack p, one `frame_data` call per point, in order:
    the first failing point raises its own error."""
    return FrameData(*np.array(_each_point(p, surface.frame_data)).reshape(-1, 4).T)


def _polar_frame_data(surface, p, sin, cos, sign):
    """Frame data (1/r, 1/(r s), -c/(r s), sign/r^2) of a polar chart, with
    s, c = sin, cos (the sphere) or sinh, cosh (the hyperbolic plane) of the
    polar angle theta, at a point or at each point of a stack.  A stack is
    checked against the chart with one array comparison; s and c come from
    the math module element by element (numpy's vectorised sin, cos, sinh
    and cosh may round differently), and the rest is numpy arithmetic, which
    rounds each element as a float does.  So each point rounds as it does on
    its own.  A stack that fails anywhere is replayed point by point, so the
    first failing point raises its own error."""
    r = surface.radius
    if not _is_stack(p):
        surface.validate(p)
        rs = r * sin(p[0])
        return FrameData(1.0 / r, 1.0 / rs, -cos(p[0]) / rs, sign / r**2)
    theta = np.asarray(p[0], dtype=float)
    t = theta.tolist()
    try:
        kappa = sign / r**2
        with np.errstate(all="ignore"):  # a float overflows to inf without a warning
            rs = r * np.array(list(map(sin, t)))
            c = np.array(list(map(cos, t)))
            valid = (surface._inside(theta) & ~np.isinf(rs)).all()
            f2, a2 = 1.0 / rs, -c / rs
    except ArithmeticError:  # OverflowError of r**2, math.sinh or math.cosh
        valid = False
    if not valid:
        return _frames_of_each_point(surface, p)
    return FrameData(np.full(len(t), 1.0 / r), f2, a2, np.full(len(t), kappa))


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

    def _inside(self, theta):
        """Where the polar angles theta lie in the chart, elementwise."""
        return (1e-9 < theta) & (theta < math.pi - 1e-9)

    def frame_data(self, p):
        return _polar_frame_data(self, p, math.sin, math.cos, 1.0)

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
        try:
            rs = self.radius * math.sinh(theta)
        except OverflowError:
            rs = math.inf
        if math.isinf(rs):
            raise ChartOverflowError(
                f"sinh(theta) or its product with r overflows at theta = {theta} (float overflow)"
            )

    def _inside(self, theta):
        """Where the polar angles theta pass the angle test of `validate`,
        elementwise (its overflow test is made on r sinh(theta))."""
        return ~(theta < 1e-9)

    def frame_data(self, p):
        return _polar_frame_data(self, p, math.sinh, math.cosh, -1.0)

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
        rho = float(p[0])  # a float overflows to inf without a warning
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
        return p[0]

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
        rho = p[0]
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
        raise SpecParseError(f"unparseable surface spec {spec!r}")
    kind = m.group("kind")
    if kind not in _SPEC_KEYS:
        raise SpecParseError(f"unknown surface family {kind!r} in {spec!r}")
    allowed = _SPEC_KEYS[kind]
    kv = {}
    tokens = []  # (item, position, value) per key=value
    args = m.group("args")
    if args:
        pos = len(kind) + 1
        for item in args.split(","):
            if "=" not in item:
                raise SpecParseError(f"expected key=value at position {pos} in {spec!r}")
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in allowed:
                raise SpecParseError(
                    f"unknown key {key!r} for family {kind!r} at position {pos} in {spec!r}")
            if key in kv:
                raise SpecParseError(f"repeated key in {item!r} at position {pos} in {spec!r}")
            try:
                kv[key] = float(val)
            except ValueError:
                raise SpecParseError(
                    f"bad numeric value {val!r} at position {pos} in {spec!r}") from None
            if not math.isfinite(kv[key]):
                raise SpecParseError(
                    f"non-finite value in {item!r} at position {pos} in {spec!r}")
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
        raise SpecParseError(f"missing key {exc.args[0]!r} in {spec!r}") from None
    except ValueError as exc:
        raise SpecParseError(f"invalid parameters in {spec!r}: {exc}") from None
    if tokens and kind != "plane" and not _curvature_representable(surface):
        # name the value of the largest binary exponent in magnitude
        item, pos, _ = max(tokens, key=lambda t: abs(math.frexp(t[2])[1]))
        raise SpecParseError(
            f"curvature overflows or underflows for {item!r} at position {pos} in {spec!r}")
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
