"""Kinematic integration of admissible rolling motions.

A configuration holds the two contact points and the angle phi of the
rotation A_phi identifying the tangent planes; in orthonormal frames A_phi
is multiplication by e^{i phi}.  An admissible motion is a curve tangent to
the velocity distribution, ydot = c1 X1 + c2 X2 with time-dependent
controls, and `integrate` is the one RK4 scheme that follows it.  The
diagnostics check, in complex frame components, that A_phi carries the
first contact velocity to the second (no slipping) and the first curve's
parallel-transported frame to the second curve's (no twisting).  They
measure the sampled velocities with high-order finite differences, so the
observed residuals converge at the integrator's order instead of being
swamped by measurement error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution5 import _as_point5, validate_point, velocity_rows
from .errors import DomainError, SpecParseError, StepSizeError
from .finitediff import check_step, cumulative_integral, sampled_derivative

MAX_STEPS = 10**6  # RK4 steps of one run; a `roll` at the cap takes about 30 s and 0.3 GB
EXPORT_ROWS = 4096  # trajectory rows formatted and written per block


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
        Every entry must be a finite number and the times must increase.  A
        path that cannot be opened for reading, or whose bytes are not UTF-8
        text, is a usage error naming it."""
        times = []
        values = []
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise SpecParseError(f"cannot read the control file {path!r}: {exc.strerror}") from None
        with fh:
            try:
                lines = list(fh)
            except UnicodeDecodeError as exc:  # decoded in chunks: no line number to give
                raise SpecParseError(f"control file {path}: not UTF-8 text ({exc.reason})") from None
            for lineno, raw in enumerate(lines, start=1):
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
            raise SpecParseError(f"control file {path}: no data rows")
        return cls(times=np.array(times), values=np.array(values))

    def __call__(self, t):
        return np.array([np.interp(t, self.times, v) for v in self.values.T])


def _control_error(path, lineno, what):
    return SpecParseError(f"control file {path}: line {lineno}: {what}")


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled admissible motion; phi is kept continuous (unwrapped)."""

    times: np.ndarray
    points: np.ndarray  # shape (n, 5)
    control: ControlCurve
    dt: float

    def __len__(self):
        return len(self.times)


def integrate(s1, s2, start, ctrl, dt, t_end):
    """Fixed-step RK4 of an admissible rolling motion of s1 on s2:
    ydot = c1(t) X1(y) + c2(t) X2(y) with the rows (X1, X2) of
    `velocity_rows`.  Each stage reads one frame per surface and works in
    Python floats, with the operations and their order of the array form
    c1 X1 + c2 X2 (the products with the zero entries included), so it
    rounds as that form does.  The controls are read in one array call at
    all stage times first, and converted to floats one step at a time.
    Each accepted sample is written into one preallocated (n + 1, 5) array
    and checked against both charts; a DomainError aborts with the partial
    trajectory attached as `last_valid`.  More than MAX_STEPS steps is a
    StepSizeError.
    """
    check_step(dt)
    steps = t_end / dt
    if not steps <= MAX_STEPS:
        raise StepSizeError(f"dt = {dt!r} divides T = {t_end!r} into {steps:.3g} steps,"
                            f" more than {MAX_STEPS}")
    n_steps = max(1, int(round(steps)))
    dt = t_end / n_steps  # land on t_end exactly
    times = np.arange(n_steps + 1) * dt
    t = times[:-1]  # controls[k]: (c1, c2) at t, t + dt/2 and t + dt of step k
    controls = ctrl(np.stack([t, t + dt / 2.0, t + dt])).T
    points = np.empty((n_steps + 1, 5))
    points[0] = _as_point5(start)
    y = points[0].tolist()
    half, sixth = dt / 2.0, dt / 6.0

    def f(c, q):
        x1, x2 = velocity_rows(s1.frame_data((q[0], q[1])), s2.frame_data((q[2], q[3])), q[4])
        c1, c2 = c
        return [c1 * a + c2 * b for a, b in zip(x1, x2)]

    for k in range(n_steps):
        c_start, c_mid, c_end = controls[k].tolist()
        try:
            k1 = f(c_start, y)
            k2 = f(c_mid, [a + half * b for a, b in zip(y, k1)])
            k3 = f(c_mid, [a + half * b for a, b in zip(y, k2)])
            k4 = f(c_end, [a + dt * b for a, b in zip(y, k3)])
            y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            points[k + 1] = y
            validate_point(s1, s2, points[k + 1])
        except DomainError as exc:
            exc.last_valid = Trajectory(times[: k + 1], points[: k + 1], ctrl, dt)
            raise
    return Trajectory(times=times, points=points, control=ctrl, dt=dt)


class Diagnostics(NamedTuple):
    """Constraint residuals and contact-curve arc lengths of a trajectory.

    `no_slip` is the max modulus of e^{i phi} v1 - v2, where v1, v2 are the
    contact velocities in each surface's orthonormal frame, as complex
    numbers.  `no_twist` transports e1 in parallel along the first contact
    curve, turns it by e^{i phi} and takes the max modulus of the covariant
    derivative of the image along the second.  `L1`, `L2` are the arc
    lengths of the two contact curves in their own metrics.
    """

    no_slip: float
    no_twist: float
    L1: float
    L2: float


def diagnostics(traj, s1, s2):
    """`Diagnostics` of the trajectory, from one stacked frame read per
    surface and one measurement of the sampled contact-curve velocities."""
    q, dt = traj.points, traj.dt
    d1 = s1.frame_data((q[:, 0], q[:, 1]))
    d2 = s2.frame_data((q[:, 2], q[:, 3]))
    vel = sampled_derivative(q, dt)
    v1 = vel[:, 0] / d1.f1 + 1j * (vel[:, 1] / d1.f2)
    v2 = vel[:, 2] / d2.f1 + 1j * (vel[:, 3] / d2.f2)
    turn = np.exp(1j * q[:, 4])  # A_phi
    no_slip = float(np.max(np.abs(turn * v1 - v2)))
    L1, L2 = (float(cumulative_integral(np.abs(v), dt)[-1]) for v in (v1, v2))
    # parallel transport turns e1 by the time integral of the connection
    # form a2 v^2 along the first curve; A_phi carries it to the second
    theta = cumulative_integral(d1.a2 * v1.imag, dt)
    w = turn * np.exp(1j * theta)
    wdot = sampled_derivative(w.view(float).reshape(-1, 2), dt).view(complex)[:, 0]
    no_twist = float(np.max(np.abs(wdot - 1j * (d2.a2 * v2.imag) * w)))
    return Diagnostics(no_slip, no_twist, L1, L2)


def no_slip_residual(traj, s1, s2):
    return diagnostics(traj, s1, s2).no_slip


def no_twist_residual(traj, s1, s2):
    return diagnostics(traj, s1, s2).no_twist


def contact_arclengths(traj, s1, s2):
    return diagnostics(traj, s1, s2)[2:]


def export_trajectory(traj, fh):
    """Write `t, x, y, u, v, phi, c1, c2` rows (phi unwrapped) to the open
    text handle fh, EXPORT_ROWS rows at a time (one control read per block),
    so the memory it holds does not grow with the trajectory."""
    row_text = ",".join(["%.17g"] * 8) + "\n"
    fh.write("# t,x,y,u,v,phi,c1,c2\n")
    for start in range(0, len(traj), EXPORT_ROWS):
        t = traj.times[start : start + EXPORT_ROWS]
        block = np.column_stack((t, traj.points[start : start + EXPORT_ROWS], traj.control(t).T))
        fh.writelines(row_text % tuple(row) for row in block.tolist())
