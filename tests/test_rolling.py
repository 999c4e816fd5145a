import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import integrate_by_arrays

from rolling_twistor import rolling
from rolling_twistor.errors import DomainError, SpecParseError, StepSizeError
from rolling_twistor.rolling import (
    ControlCurve,
    Trajectory,
    contact_arclengths,
    diagnostics,
    export_trajectory,
    integrate,
    no_slip_residual,
    no_twist_residual,
)
from rolling_twistor.surfaces import G2Family, Hyperbolic, Plane, RevolutionProfile, Sphere

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
        with pytest.raises(SpecParseError, match=r"bad\.csv: line 2: "):
            ControlCurve.from_file(path)

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            ControlCurve(times=np.array([1.0, 0.0]), values=np.zeros((2, 2)))

    @pytest.mark.parametrize("source", ["constant", "file"])
    def test_array_call_equals_scalar_calls_bit_for_bit(self, tmp_path, source):
        if source == "constant":
            c = ControlCurve.constant(0.7, -0.3, t_end=0.9)
        else:
            path = tmp_path / "ctrl.csv"
            path.write_text("0.0, 1.0, 0.0\n0.25, 0.9, 0.2\n0.3, -0.1, 0.7\n0.9, 0.8, 0.4\n")
            c = ControlCurve.from_file(path)
        # knots, points between them, and times outside the span
        t = np.concatenate([c.times, np.linspace(-0.2, 1.1, 263), [0.1 / 3.0, 0.9 - 1e-17]])
        got = c(t)
        assert got.shape == (2, len(t))
        for j, tj in enumerate(t.tolist()):
            assert got[:, j].tobytes() == c(tj).tobytes()


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

    def test_controls_read_once_at_the_stage_times_of_the_loop(self):
        calls = []
        ctrl = ControlCurve(times=np.array([0.0, 1.0]), values=np.array([[1.0, 0.4], [0.6, 1.0]]))

        def spy(t):
            calls.append(np.array(t))
            return ctrl(t)

        traj = integrate(SPHERE, PLANE, np.array([1.2, 0, 0, 0, 0]), spy, 0.013, 0.7)
        dt, n = traj.dt, len(traj) - 1
        stages, t = [], 0.0
        for k in range(n):  # the times the RK4 loop stepped through, formed as it formed them
            stages.append([t, t + dt / 2.0, t + dt])
            t = (k + 1) * dt
        assert len(calls) == 1
        assert calls[0].T.tolist() == stages
        assert traj.times.tolist() == [0.0] + [(k + 1) * dt for k in range(n)]

    def test_step_cap_checked_before_the_run(self, monkeypatch):
        monkeypatch.setattr(rolling, "MAX_STEPS", 10)
        ctrl = ControlCurve.constant(1.0, 0.0)
        assert len(integrate(PLANE, PLANE, np.zeros(5), ctrl, 0.1, 1.0)) == 11
        with pytest.raises(StepSizeError, match=r"dt = 0\.09 divides T = 1\.0 into 11\.1 steps, more than 10$"):
            integrate(PLANE, PLANE, np.zeros(5), ctrl, 0.09, 1.0)

    @pytest.mark.parametrize("dt, t_end, steps", [(1e-300, 1.0, "1e+300"), (5e-324, 1e300, "inf")])
    def test_huge_step_counts_raise_step_error(self, dt, t_end, steps):
        with pytest.raises(StepSizeError, match=re.escape(f"into {steps} steps, more than 1000000")):
            integrate(SPHERE, PLANE, np.array([1.2, 0, 0, 0, 0]), ControlCurve.constant(1, 0),
                      dt, t_end)


SURFACES = st.one_of(
    st.builds(Plane, st.floats(0.5, 2.0)),
    st.builds(Sphere, st.floats(0.5, 3.0)),
    st.builds(Hyperbolic, st.floats(0.5, 3.0)),
    st.builds(RevolutionProfile, st.floats(0.1, 2.0) | st.floats(-2.0, -0.1), st.floats(-1.0, 1.0)),
    st.builds(G2Family, st.sampled_from((-1, 0, 1))),
)
ANGLES = st.floats(-math.pi, math.pi)
SPEEDS = st.floats(-1.5, 1.5)


@st.composite
def chart_points(draw, surface):
    """A chart point whose profile coordinate lies in the surface's default
    range (which may still miss the chart of a profile surface)."""
    lo, hi = surface.profile_range()
    return [lo + draw(st.floats(0.0, 1.0)) * (hi - lo), draw(ANGLES)]


@st.composite
def rolls(draw):
    """(s1, s2, start, controls, dt, T): the controls are ("constant", c1, c2)
    or ("file", rows) with rows (c1, c2) at evenly spaced knots over [0, T]."""
    s1, s2 = draw(SURFACES), draw(SURFACES)
    start = draw(chart_points(s1)) + draw(chart_points(s2)) + [draw(ANGLES)]
    t_end, dt = draw(st.floats(0.05, 0.6)), draw(st.floats(2e-3, 5e-2))
    if draw(st.booleans()):
        controls = ("constant", draw(SPEEDS), draw(SPEEDS))
    else:
        controls = ("file", draw(st.lists(st.tuples(SPEEDS, SPEEDS), min_size=2, max_size=21)))
    return s1, s2, start, controls, dt, t_end


def _control_curve(controls, t_end, folder):
    if controls[0] == "constant":
        return ControlCurve.constant(*controls[1:], t_end=t_end)
    rows = controls[1]
    path = Path(folder) / "ctrl.csv"
    path.write_text("".join(f"{t_end * k / (len(rows) - 1)!r}, {c1!r}, {c2!r}\n"
                            for k, (c1, c2) in enumerate(rows)))
    return ControlCurve.from_file(path)


def _outcome(integrator, *args):
    """(trajectory, None) of a run, or (last_valid, (error type, message))
    of a run that leaves a chart."""
    try:
        return integrator(*args), None
    except DomainError as exc:
        return exc.last_valid, (type(exc), str(exc))


def _assert_same_trajectory(traj, ref):
    assert traj.times.tobytes() == ref.times.tobytes()
    assert traj.points.shape == ref.points.shape
    assert traj.points.tobytes() == ref.points.tobytes()
    assert traj.dt == ref.dt


class TestFloatStage:
    """The RK4 stage in Python floats rounds as the stage in numpy arrays."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(rolls())
    def test_trajectory_equals_array_stage_bit_for_bit(self, roll):
        s1, s2, start, controls, dt, t_end = roll
        with tempfile.TemporaryDirectory() as folder:
            ctrl = _control_curve(controls, t_end, folder)
            args = (s1, s2, np.array(start), ctrl, dt, t_end)
            traj, error = _outcome(integrate, *args)
            ref, ref_error = _outcome(integrate_by_arrays, *args)
        assert error == ref_error
        _assert_same_trajectory(traj, ref)

    def test_leaving_the_chart_stops_at_the_same_sample(self):
        # rolling toward the pole leaves the sphere's polar chart mid-run
        args = (SPHERE, PLANE, np.array([0.75, 0.2, 0.1, -0.3, 0.4]),
                ControlCurve.constant(-1.0, 0.3), 1e-3, 1.0)
        traj, error = _outcome(integrate, *args)
        ref, ref_error = _outcome(integrate_by_arrays, *args)
        assert error is not None and error == ref_error
        assert 500 < len(ref) < 1000
        _assert_same_trajectory(traj, ref)

    def test_math_cos_sin_round_as_numpy(self):
        # the hinge of the float stage: phi's cos and sin come from the math
        # module, where the array stage took numpy's, on scalars and arrays
        rng = np.random.default_rng(22)
        x = np.concatenate([rng.uniform(-50.0, 50.0, 100_000),  # the angles a roll meets
                            np.ldexp(rng.uniform(-1.0, 1.0, 100_000),  # every binade
                                     rng.integers(-1074, 1024, 100_000))])
        for f, g in ((math.cos, np.cos), (math.sin, np.sin)):
            exact = np.array([f(v) for v in x.tolist()])
            assert exact.tobytes() == g(x).tobytes()
            assert exact.tobytes() == np.array([g(v) for v in x]).tobytes()


class TestMemory:
    SAMPLES = 40_000

    def test_peak_bytes_per_sample(self):
        # tracemalloc peaks of a sphere/plane roll: the float stage writes
        # each sample into one (n + 1, 5) array (128 B per sample measured;
        # 289 B with the array stage's list of samples) and the diagnostics
        # gather their finite-difference windows in blocks (224 B measured;
        # 456 B with one gather over all samples)
        ctrl = ControlCurve.constant(0.3, 0.5)
        start = np.array([1.2, 0.0, 0.0, 0.0, 0.0])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            traj = integrate(SPHERE, PLANE, start, ctrl, 1.0 / self.SAMPLES, 1.0)
            held, peak = tracemalloc.get_traced_memory()
            integrate_bytes = peak - base
            tracemalloc.reset_peak()
            diagnostics(traj, SPHERE, PLANE)
            diagnostics_bytes = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert len(traj) == self.SAMPLES + 1
        assert integrate_bytes / len(traj) < 160.0
        assert diagnostics_bytes / len(traj) < 300.0

    def test_export_peak_does_not_grow_with_the_trajectory(self):
        # the rows are formatted and written EXPORT_ROWS at a time, so the
        # export's tracemalloc peak is flat (1.7 MB measured at both sizes,
        # against 400 B per sample when the whole table went through one
        # column_stack and tolist)
        rng = np.random.default_rng(7)
        ctrl = ControlCurve(times=np.array([0.0, 0.5, 1.0]),
                            values=np.array([[0.3, 0.5], [1.0, -0.2], [0.1, 0.4]]))
        peaks = []
        for n in (self.SAMPLES, 4 * self.SAMPLES):
            traj = Trajectory(np.arange(n) / n, rng.standard_normal((n, 5)), ctrl, 1.0 / n)
            with open(os.devnull, "w", encoding="utf-8") as fh:
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    export_trajectory(traj, fh)
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]


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
        traj = Trajectory(times=times, points=points, control=ControlCurve.constant(0.0, 0.0),
                          dt=dt)
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

    @pytest.mark.parametrize(
        "s1, s2, start",
        [(SPHERE, PLANE, [1.2, 0.0, 0.0, 0.0, 0.0]),
         (G2Family(-1), Hyperbolic(2.0), [1.5, 0.0, 0.7, 0.0, 1.0])],
        ids=["sphere-plane", "g2-hyperbolic"])
    def test_fourth_order_over_repeated_halvings(self, s1, s2, start):
        # |c| <= 1.17 is the contact speed, the size of both terms of the
        # residual; the rounding floor of comparing them is eps times that.
        # The stencils' own rounding, about eps * 28 / dt at the ends, is what
        # ends the sequence at dt = 0.0025, with the residuals still above it
        ctrl = ControlCurve(times=np.array([0.0, 1.0]), values=np.array([[1.0, 0.4], [0.6, 1.0]]))
        floor = np.finfo(float).eps * np.max(np.hypot(*ctrl.values.T))
        res = [no_twist_residual(integrate(s1, s2, np.array(start), ctrl, dt, 1.0), s1, s2)
               for dt in (0.02, 0.01, 0.005, 0.0025)]
        assert res[-1] > 1e3 * floor
        assert all(coarse / fine >= 12.0 for coarse, fine in zip(res, res[1:]))

    def test_fiber_violating_curve_has_large_residual(self, monkeypatch):
        # drop the fiber correction from the velocity fields: the motion
        # slides the contact frames against parallel transport
        velocity_rows = rolling.velocity_rows

        def bad(d1, d2, phi):
            return tuple(row[:4] + (0.0,) for row in velocity_rows(d1, d2, phi))

        monkeypatch.setattr(rolling, "velocity_rows", bad)
        ctrl = ControlCurve.constant(0.0, 1.0)
        start = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        traj = integrate(SPHERE, PLANE, start, ctrl, 1e-2, 1.0)
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
