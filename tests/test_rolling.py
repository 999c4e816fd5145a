import math

import numpy as np
import pytest

from rolling_twistor.errors import DomainError, SpecParseError, StepSizeError
from rolling_twistor.rolling import (
    ControlCurve,
    Trajectory,
    contact_arclengths,
    export_trajectory,
    integrate,
    integrate_fields,
    no_slip_residual,
    no_twist_residual,
)
from rolling_twistor.surfaces import Plane, Sphere

SPHERE = Sphere(1.0)
PLANE = Plane()


class TestControlCurve:
    def test_constant(self):
        c = ControlCurve.constant(1.0, -0.5)
        assert np.allclose(c(0.3), [1.0, -0.5])

    def test_piecewise_linear_interpolation(self):
        c = ControlCurve(times=np.array([0.0, 1.0]), values=np.array([[0.0, 0.0], [2.0, 4.0]]))
        assert np.allclose(c(0.5), [1.0, 2.0])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "ctrl.csv"
        path.write_text("# t, c1, c2\n0.0, 1.0, 0.0\n1.0, 0.5, 0.5\n")
        c = ControlCurve.from_file(path)
        assert np.allclose(c.times, [0.0, 1.0])
        assert np.allclose(c(1.0), [0.5, 0.5])

    def test_malformed_file_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0, 1.0, 0.0\n0.5, oops\n")
        with pytest.raises(SpecParseError) as exc:
            ControlCurve.from_file(path)
        assert exc.value.position == 2

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            ControlCurve(times=np.array([1.0, 0.0]), values=np.zeros((2, 2)))


class TestIntegrate:
    def test_plane_on_plane_straight_roll(self):
        traj = integrate(PLANE, PLANE, np.zeros(5), ControlCurve.constant(1.0, 0.0), 1e-2, 1.0)
        end = traj.points[-1]
        assert end[0] == pytest.approx(1.0, abs=1e-12)
        assert end[2] == pytest.approx(1.0, abs=1e-12)  # u tracks x at phi = 0
        assert end[4] == pytest.approx(0.0, abs=1e-14)  # flat: phi constant

    def test_zero_control_is_constant(self):
        start = np.array([1.0, 0.2, 0.1, 0.0, 0.4])
        traj = integrate(SPHERE, PLANE, start, ControlCurve.constant(0.0, 0.0), 1e-2, 0.5)
        assert np.allclose(traj.points, start)

    def test_lands_exactly_on_final_time(self):
        traj = integrate(PLANE, PLANE, np.zeros(5), ControlCurve.constant(1.0, 0.0), 1e-3, math.pi)
        assert traj.times[-1] == pytest.approx(math.pi, abs=1e-12)

    def test_domain_exit_reports_partial_trajectory(self):
        # roll towards the sphere pole; the chart ends at theta = pi
        start = np.array([2.8, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(DomainError) as exc:
            integrate(SPHERE, PLANE, start, ControlCurve.constant(1.0, 0.0), 1e-2, 1.0)
        partial = exc.value.last_valid
        assert isinstance(partial, Trajectory)
        assert len(partial) >= 1

    def test_bad_dt(self):
        with pytest.raises(Exception):
            integrate(PLANE, PLANE, np.zeros(5), ControlCurve.constant(1, 0), 0.0, 1.0)


class TestNoSlip:
    def test_plane_on_plane_exact(self):
        traj = integrate(PLANE, PLANE, np.zeros(5), ControlCurve.constant(1.0, 0.3), 1e-2, 1.0)
        assert no_slip_residual(traj, PLANE, PLANE) < 1e-12

    def test_integrated_motion_residual_small(self):
        ctrl = ControlCurve(
            times=np.array([0.0, 1.0]), values=np.array([[1.0, 0.4], [0.6, 1.0]])
        )
        traj = integrate(SPHERE, PLANE, np.array([1.2, 0, 0, 0, 0]), ctrl, 0.005, 1.0)
        assert no_slip_residual(traj, SPHERE, PLANE) < 1e-9

    def test_hand_built_slipping_curve(self):
        # x moves, the second contact point stays frozen: residual = |xdot|
        dt = 1e-2
        times = np.arange(0.0, 1.0 + dt / 2, dt)
        points = np.zeros((len(times), 5))
        points[:, 0] = times  # x(t) = t on the plane, u frozen
        traj = Trajectory(times=times, points=points, control=None, dt=dt)
        assert no_slip_residual(traj, PLANE, PLANE) == pytest.approx(1.0, abs=1e-10)

    def test_fourth_order_convergence(self):
        ctrl = ControlCurve(
            times=np.array([0.0, 1.0]), values=np.array([[1.0, 0.4], [0.6, 1.0]])
        )
        start = np.array([1.2, 0, 0, 0, 0])
        res = []
        for dt in (0.02, 0.01):
            traj = integrate(SPHERE, PLANE, start, ctrl, dt, 1.0)
            res.append(no_slip_residual(traj, SPHERE, PLANE))
        ratio = res[0] / res[1]
        assert 13.0 <= ratio <= 19.0


class TestNoTwist:
    def test_plane_on_plane_exact(self):
        traj = integrate(PLANE, PLANE, np.zeros(5), ControlCurve.constant(0.7, 0.7), 1e-2, 1.0)
        assert no_twist_residual(traj, PLANE, PLANE) < 1e-12

    def test_integrated_motion_residual_small(self):
        ctrl = ControlCurve(
            times=np.array([0.0, 1.0]), values=np.array([[1.0, 0.4], [0.6, 1.0]])
        )
        traj = integrate(SPHERE, PLANE, np.array([1.2, 0, 0, 0, 0]), ctrl, 0.005, 1.0)
        assert no_twist_residual(traj, SPHERE, PLANE) < 1e-7

    def test_fourth_order_convergence(self):
        ctrl = ControlCurve(
            times=np.array([0.0, 1.0]), values=np.array([[1.0, 0.4], [0.6, 1.0]])
        )
        start = np.array([1.2, 0, 0, 0, 0])
        res = []
        for dt in (0.02, 0.01):
            traj = integrate(SPHERE, PLANE, start, ctrl, dt, 1.0)
            res.append(no_twist_residual(traj, SPHERE, PLANE))
        ratio = res[0] / res[1]
        assert 13.0 <= ratio <= 19.0

    def test_fiber_violating_curve_has_large_residual(self):
        # drop the fiber correction from the velocity fields: the motion
        # slides the contact frames against parallel transport
        from rolling_twistor.distribution5 import field_rows

        def bad(p):
            rows = field_rows(SPHERE, PLANE, p, 2)
            rows[:, 4] = 0.0
            return rows

        ctrl = ControlCurve.constant(0.0, 1.0)
        start = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        traj = integrate_fields(bad, start, ctrl, 1e-2, 1.0)
        # a2 = -cot(1) so the twist defect is order |a2| ~ 0.64
        assert no_twist_residual(traj, SPHERE, PLANE) > 0.1


class TestArclengths:
    def test_equator_roll_length_pi(self):
        traj = integrate(
            SPHERE,
            PLANE,
            np.array([math.pi / 2, 0.0, 0.0, 0.0, 0.0]),
            ControlCurve.constant(0.0, 1.0, t_end=math.pi),
            1e-3,
            math.pi,
        )
        L1, L2 = contact_arclengths(traj, SPHERE, PLANE)
        assert L1 == pytest.approx(math.pi, abs=1e-6)
        assert abs(L1 - L2) / L1 < 1e-6

    def test_lengths_agree_on_generic_motion(self):
        ctrl = ControlCurve(
            times=np.array([0.0, 1.0]), values=np.array([[1.0, 0.4], [0.6, 1.0]])
        )
        traj = integrate(SPHERE, PLANE, np.array([1.2, 0, 0, 0, 0]), ctrl, 1e-3, 1.0)
        L1, L2 = contact_arclengths(traj, SPHERE, PLANE)
        assert abs(L1 - L2) / L1 < 1e-6

    def test_zero_control(self):
        traj = integrate(SPHERE, PLANE, np.array([1.0, 0, 0, 0, 0]),
                         ControlCurve.constant(0.0, 0.0), 1e-2, 0.3)
        L1, L2 = contact_arclengths(traj, SPHERE, PLANE)
        assert L1 == pytest.approx(0.0, abs=1e-12)
        assert L2 == pytest.approx(0.0, abs=1e-12)


class TestHolonomy:
    def test_plane_loop_has_no_holonomy(self):
        y = np.zeros(5)
        for c in [(1, 0), (0, 1), (-1, 0), (0, -1)]:
            traj = integrate(PLANE, PLANE, y, ControlCurve.constant(*c), 1e-2, 1.0)
            y = traj.points[-1]
        assert abs(y[4]) < 1e-12

    def test_latitude_loop_holonomy(self):
        # rolling around the latitude circle theta0: the sphere contact curve
        # closes and the frame angle advances by 2 pi cos(theta0)
        theta0 = 1.0
        T = 2 * math.pi * math.sin(theta0)
        traj = integrate(
            SPHERE,
            PLANE,
            np.array([theta0, 0.0, 0.0, 0.0, 0.0]),
            ControlCurve.constant(0.0, 1.0, t_end=T),
            1e-3,
            T,
        )
        winding = traj.points[-1, 4] - traj.points[0, 4]  # phi is unwrapped
        assert winding == pytest.approx(2 * math.pi * math.cos(theta0), abs=1e-9)


class TestScalingInvariance:
    def test_scaled_system_runs_slower_by_the_factor(self):
        # fields scale by 1/s0, so the scaled motion at time s0*t matches the
        # original at time t (angle charts are scale-free)
        s0 = 2.0
        ctrl = ControlCurve.constant(1.0, 0.5, t_end=1.0)
        ctrl_slow = ControlCurve.constant(1.0, 0.5, t_end=s0 * 1.0)
        start = np.array([1.2, 0.0, 0.0, 0.0, 0.3])
        traj = integrate(SPHERE, PLANE, start, ctrl, 1e-3, 1.0)
        traj_s = integrate(SPHERE.scaled(s0), PLANE.scaled(s0), start, ctrl_slow, s0 * 1e-3, s0 * 1.0)
        assert np.allclose(traj_s.points[-1], traj.points[-1], atol=1e-10)


def test_export_format(tmp_path):
    traj = integrate(PLANE, PLANE, np.zeros(5), ControlCurve.constant(1.0, 0.0), 0.25, 1.0)
    out = tmp_path / "traj.csv"
    with open(out, "w", encoding="utf-8") as fh:
        export_trajectory(traj, fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "# t,x,y,u,v,phi,c1,c2"
    assert len(lines) == 1 + len(traj)
    row = lines[1].split(",")
    assert len(row) == 8


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -1e-3])
def test_unusable_dt_raises_step_error(dt):
    with pytest.raises(StepSizeError, match="step size must be a finite positive number"):
        integrate(PLANE, PLANE, np.zeros(5), ControlCurve.constant(1, 0), dt, 1.0)
