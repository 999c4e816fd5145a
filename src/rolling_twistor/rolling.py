"""Kinematic integration of admissible rolling motions.

An admissible motion is a curve tangent to the velocity distribution:
ydot = c1 X1 + c2 X2 with time-dependent controls.  Integration is a fixed
step classical 4th-order scheme over the rows (X1, X2) of `field_rows`, one
frame read per surface per stage; the no-slip and no-twist diagnostics then
read the frame data of all samples in one stacked call per surface and
measure the constraint residuals of the sampled curve with high-order finite
differences, so the observed residuals converge at the integrator's order
instead of being swamped by measurement error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution5 import _as_point5, field_rows, validate_point
from .errors import DomainError, SpecParseError
from .finitediff import check_step, cumulative_integral, sampled_derivative


@dataclass(frozen=True)
class ControlCurve:
    """Time-sampled controls (c1, c2); interpolation is piecewise linear."""

    times: np.ndarray
    values: np.ndarray  # shape (n, 2)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != (len(t), 2):
            raise ValueError("controls need matching times (n,) and values (n, 2)")
        if len(t) >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("control times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, c1, c2, t_end=1.0):
        return cls(times=np.array([0.0, t_end]), values=np.array([[c1, c2], [c1, c2]]))

    @classmethod
    def from_file(cls, path):
        """Rows `t, c1, c2`; comma or whitespace delimited, '#' comments.
        Every entry must be a finite number and the times must increase."""
        times = []
        values = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [s for s in line.replace(",", " ").split() if s]
                if len(parts) != 3:
                    raise _control_error(path, lineno, f"expected 't, c1, c2', got {raw!r}")
                try:
                    t, c1, c2 = (float(s) for s in parts)
                except ValueError:
                    raise _control_error(path, lineno, f"non-numeric entry in {raw!r}") from None
                if not all(map(math.isfinite, (t, c1, c2))):
                    raise _control_error(path, lineno, f"non-finite entry in {raw!r}")
                if times and t <= times[-1]:
                    raise _control_error(path, lineno, f"time {t!r} does not increase on"
                                                       f" the previous row's {times[-1]!r}")
                times.append(t)
                values.append((c1, c2))
        if not times:
            raise SpecParseError(f"control file {path}: no data rows", position=0)
        return cls(times=np.array(times), values=np.array(values))

    def __call__(self, t):
        return np.array(
            [
                np.interp(t, self.times, self.values[:, 0]),
                np.interp(t, self.times, self.values[:, 1]),
            ]
        )


def _control_error(path, lineno, what):
    return SpecParseError(f"control file {path}: line {lineno}: {what}", position=lineno)


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled admissible motion; phi is kept continuous (unwrapped)."""

    times: np.ndarray
    points: np.ndarray  # shape (n, 5)
    control: ControlCurve | None
    dt: float

    def __len__(self):
        return len(self.times)

    @property
    def phi_winding(self):
        """Total change of the unwrapped fiber angle along the motion."""
        return float(self.points[-1, 4] - self.points[0, 4])


def integrate_fields(fields, start, ctrl, dt, t_end, validate=None):
    """Fixed-step RK4 for ydot = c1(t) X1(y) + c2(t) X2(y), where
    `fields(y)` returns the rows (X1(y), X2(y)).

    `validate`, when given, is called on each accepted sample; a DomainError
    aborts with the partial trajectory attached to the exception.
    """
    check_step(dt)
    y = _as_point5(start).copy()
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps  # land on t_end exactly
    times = [0.0]
    points = [y.copy()]

    def f(t, state):
        c = ctrl(t)
        rows = fields(state)
        return c[0] * rows[0] + c[1] * rows[1]

    t = 0.0
    for k in range(n_steps):
        try:
            k1 = f(t, y)
            k2 = f(t + dt / 2.0, y + dt / 2.0 * k1)
            k3 = f(t + dt / 2.0, y + dt / 2.0 * k2)
            k4 = f(t + dt, y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = (k + 1) * dt
            if validate is not None:
                validate(y)
        except DomainError as exc:
            partial = Trajectory(
                times=np.array(times), points=np.array(points), control=ctrl, dt=dt
            )
            exc.last_valid = partial
            raise
        times.append(t)
        points.append(y.copy())
    return Trajectory(times=np.array(times), points=np.array(points), control=ctrl, dt=dt)


def integrate(s1, s2, start, ctrl, dt, t_end):
    """Integrate an admissible rolling motion of s1 on s2: one `field_rows`
    evaluation, one frame read per surface, per RK4 stage."""
    return integrate_fields(lambda y: field_rows(s1, s2, y, 2), start, ctrl, dt, t_end,
                            validate=lambda y: validate_point(s1, s2, y))


class Diagnostics(NamedTuple):
    """Constraint residuals and contact-curve arc lengths of a trajectory.

    `no_slip` is the max norm of A_phi(velocity on surface 1) - (velocity on
    surface 2).  `no_twist` transports e1 in parallel along the first contact
    curve, rotates it by A_phi and takes the max norm of the covariant
    derivative of the image along the second.  `L1`, `L2` are the arc lengths
    of the two contact curves in their own metrics.
    """

    no_slip: float
    no_twist: float
    L1: float
    L2: float


def diagnostics(traj, s1, s2):
    """`Diagnostics` of the trajectory, from one stacked frame read per
    surface and one measurement of the sampled contact-curve velocities."""
    d1 = s1.frame_data((traj.points[:, 0], traj.points[:, 1]))
    d2 = s2.frame_data((traj.points[:, 2], traj.points[:, 3]))
    v1, v2 = _frame_velocities(traj, d1, d2)
    no_slip = 0.0
    for k in range(len(traj)):
        rotated = _rotation(traj.points[k, 4]) @ v1[k]
        no_slip = max(no_slip, float(np.linalg.norm(rotated - v2[k])))
    L1, L2 = (float(cumulative_integral(np.linalg.norm(v, axis=1), traj.dt)[-1]) for v in (v1, v2))
    # the connection form a2 v^2 along each contact curve
    gamma1, gamma2 = d1.a2 * v1[:, 1], d2.a2 * v2[:, 1]
    return Diagnostics(no_slip, _no_twist(traj, gamma1, gamma2), L1, L2)


def no_slip_residual(traj, s1, s2):
    return diagnostics(traj, s1, s2).no_slip


def no_twist_residual(traj, s1, s2):
    return diagnostics(traj, s1, s2).no_twist


def contact_arclengths(traj, s1, s2):
    return diagnostics(traj, s1, s2)[2:]


def _frame_velocities(traj, d1, d2):
    """Frame components of the sampled contact-curve velocities.

    `d1`, `d2` are the stacked frame data of each surface at the samples.
    Returns (v1, v2): arrays (n, 2) with the orthonormal-frame components of
    the chart velocities on each surface, measured by sixth-order finite
    differences of the samples.
    """
    vel = sampled_derivative(traj.points, traj.dt)
    return (vel[:, 0:2] / np.column_stack((d1.f1, d1.f2)),
            vel[:, 2:4] / np.column_stack((d2.f1, d2.f2)))


def _rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def _no_twist(traj, gamma1, gamma2):
    """The transport equation vdot = gamma1(t) J v (J the rotation generator)
    integrates in closed form to a rotation by the time integral of gamma1,
    which is evaluated with high-order quadrature of the sampled data."""
    theta = cumulative_integral(gamma1, traj.dt)
    v = np.einsum("kij,j->ki", np.array([_rotation(t) for t in theta]), np.array([1.0, 0.0]))
    w = np.einsum("kij,kj->ki", np.array([_rotation(p[4]) for p in traj.points]), v)
    wdot = sampled_derivative(w, traj.dt)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    resid = wdot - gamma2[:, None] * (w @ J.T)
    return float(np.max(np.linalg.norm(resid, axis=1)))


def export_trajectory(traj, fh):
    """Write `t, x, y, u, v, phi, c1, c2` rows (phi unwrapped) to the open
    text handle fh."""
    fh.write("# t,x,y,u,v,phi,c1,c2\n")
    for t, p in zip(traj.times, traj.points):
        c = traj.control(t) if traj.control is not None else (0.0, 0.0)
        row = [t, p[0], p[1], p[2], p[3], p[4], c[0], c[1]]
        fh.write(",".join(f"{val:.17g}" for val in row) + "\n")
