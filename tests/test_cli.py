import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rolling_twistor
from rolling_twistor.cli import main


def subprocess_env():
    """The environment of a child Python that imports this package."""
    src = str(Path(rolling_twistor.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["-o", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestQuartic:
    def test_nine_to_one_spheres_all_zero(self, tmp_path):
        code, text = run(tmp_path, "quartic", "--s1", "sphere:r=1", "--s2", "sphere:r=3",
                         "--grid", "10")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(rows) == 10
        for row in rows:
            fields = row.split(",")
            assert fields[-1] == "zero"
            assert all(float(v) == 0.0 for v in fields[3:8])

    def test_g2_family_profile_grid(self, tmp_path):
        code, text = run(tmp_path, "quartic", "--s1", "g2:eps=0", "--s2", "plane",
                         "--rho", "0.5:3:50")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(rows) == 50
        assert all(r.split(",")[-1] == "zero" for r in rows)

    def test_unequal_spheres_double_double(self, tmp_path):
        code, text = run(tmp_path, "quartic", "--s1", "sphere:r=1", "--s2", "sphere:r=2",
                         "--grid", "10")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert all(r.endswith(",[2,2]") for r in rows)

    def test_parse_error_exit_code(self, tmp_path):
        code, _ = run(tmp_path, "quartic", "--s1", "sphere:radius=1", "--s2", "plane")
        assert code == 2

    def test_non_constant_second_surface_rejected(self, tmp_path):
        code, _ = run(tmp_path, "quartic", "--s1", "sphere:r=1", "--s2", "g2:eps=0")
        assert code == 2


class TestG2Check:
    def test_g2_family_affirmative(self, tmp_path):
        code, text = run(tmp_path, "g2check", "--s1", "g2:eps=-1", "--s2", "plane",
                         "--rho", "1.5:3:40")
        assert code == 0
        assert "# verdict: G2" in text

    def test_sphere_on_plane_negative(self, tmp_path):
        code, text = run(tmp_path, "g2check", "--s1", "sphere:r=1", "--s2", "plane")
        assert code == 1
        assert "# verdict: not-G2" in text

    def test_homothetic_profile_family(self, tmp_path):
        code, _ = run(tmp_path, "g2check", "--s1", "profile:alpha=1,beta=-5", "--s2", "plane",
                      "--rho", "0.5:1.9:30")
        assert code == 0

    def test_integrable_pair_numeric_error(self, tmp_path):
        code, _ = run(tmp_path, "g2check", "--s1", "sphere:r=1", "--s2", "sphere:r=1",
                      "--grid", "3")
        assert code == 3


class TestRoll:
    def test_plane_on_plane_summary(self, tmp_path):
        code, text = run(tmp_path, "roll", "--s1", "plane", "--s2", "plane",
                         "--start", "0,0,0,0,0", "--dt", "0.01", "--T", "1.0")
        assert code == 0
        summary = [l for l in text.splitlines() if "no_slip_residual=" in l][0]
        slip = float(summary.split("no_slip_residual=")[1].split()[0])
        twist = float(summary.split("no_twist_residual=")[1].split()[0])
        assert slip < 1e-12
        assert twist < 1e-12

    def test_control_file(self, tmp_path):
        ctrl = tmp_path / "ctrl.csv"
        ctrl.write_text("0.0, 0.0, 1.0\n3.2, 0.0, 1.0\n")
        code, text = run(tmp_path, "roll", "--s1", "sphere:r=1", "--s2", "plane",
                         "--control", str(ctrl), "--start", "1.5707963267948966,0,0,0,0",
                         "--dt", "0.001", "--T", "3.1415926535897931")
        assert code == 0
        summary = [l for l in text.splitlines() if "L1=" in l][0]
        L1 = float(summary.split("L1=")[1].split()[0])
        assert L1 == pytest.approx(np.pi, abs=1e-6)

    def test_malformed_control_file(self, tmp_path):
        ctrl = tmp_path / "bad.csv"
        ctrl.write_text("0.0, 1.0, 0.0\nnot a row\n")
        code, _ = run(tmp_path, "roll", "--s1", "plane", "--s2", "plane",
                      "--control", str(ctrl))
        assert code == 2

    def test_domain_exit_reported(self, tmp_path):
        code, _ = run(tmp_path, "roll", "--s1", "sphere:r=1", "--s2", "plane",
                      "--start", "3.0,0,0,0,0", "--dt", "0.01", "--T", "1.0")
        assert code == 3

    def test_header_prints_the_step_used(self, tmp_path):
        # 1 / 0.3 rounds to 3 steps of 1/3
        code, text = run(tmp_path, "roll", "--s1", "plane", "--s2", "plane",
                         "--start", "0,0,0,0,0", "--dt", "0.3", "--T", "1")
        assert code == 0
        assert text.splitlines()[1].endswith(" dt=0.33333333333333331 T=1")
        assert len([l for l in text.splitlines() if not l.startswith("#")]) == 4


class TestOracle:
    def test_sphere_on_plane_proportional(self, tmp_path):
        code, text = run(tmp_path, "oracle", "--s1", "sphere:r=1", "--s2", "plane",
                         "--points", "3", "--grid", "3")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(rows) == 3
        for row in rows:
            vals = row.split(",")
            prop_residual = float(vals[-2])
            assert 0.0 <= prop_residual < 1e-3

    def test_nine_to_one_both_paths_zero(self, tmp_path):
        code, text = run(tmp_path, "oracle", "--s1", "sphere:r=1", "--s2", "sphere:r=3",
                         "--points", "2", "--grid", "2")
        assert code == 0
        for row in [l for l in text.splitlines() if not l.startswith("#")]:
            vals = [float(v) for v in row.split(",")]
            weyl_norm, noise = vals[5], vals[-1]
            closed = vals[11:16]
            assert weyl_norm < 10 * max(noise, 1e-14)
            assert max(abs(c) for c in closed) < 1e-10

    def test_integrable_point_clean_error(self, tmp_path):
        code, _ = run(tmp_path, "oracle", "--s1", "sphere:r=1", "--s2", "sphere:r=1",
                      "--points", "1")
        assert code == 3


class TestEmbed:
    def test_mesh_written(self, tmp_path):
        code, text = run(tmp_path, "embed", "--family", "g2:eps=1",
                         "--rho-range", "0:2", "--nr", "8", "--nphi", "8")
        assert code == 0
        assert text.startswith("# family=g2 eps=1 nr=8 nphi=8")

    def test_domain_error_no_partial_file(self, tmp_path):
        out = tmp_path / "out.txt"
        code = main(["embed", "--family", "g2:eps=-1", "--rho-range", "1:2",
                     "--nr", "8", "--nphi", "8", "-o", str(out)])
        assert code == 3
        assert not out.exists()

    def test_figure_family(self, tmp_path):
        code, text = run(tmp_path, "embed", "--family", "profile:alpha=1,beta=-5",
                         "--rho-range", "0.5:1.9", "--nr", "12", "--nphi", "12")
        assert code == 0
        assert "family=profile" in text

    def test_negative_rho_rejected_for_profiles(self, tmp_path, capsys):
        # both ends have |h| >= 1, but h = beta + alpha rho^2 crosses (-1, 1)
        # near rho = 0, where no isometric height exists
        out = tmp_path / "out.txt"
        code = main(["embed", "--family", "profile:alpha=1,beta=-3", "--rho-range=-2.1:2.5",
                     "-o", str(out)])
        assert code == 3
        assert not out.exists()
        assert "-2.1" in capsys.readouterr().err

    @pytest.mark.parametrize("family,rho_range", [
        ("g2:eps=1", "0:1e300"),
        ("profile:alpha=1,beta=1", "0:1e200"),
        ("g2:eps=0", "1:1e200"),
    ])
    def test_overflowing_heights_rejected_before_output(self, tmp_path, capsys, family, rho_range):
        out = tmp_path / "out.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            code = main(["embed", "--family", family, "--rho-range", rho_range,
                         "-o", str(out)])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: no finite heights for {family} on rho range")

    @pytest.mark.parametrize("family,rho_range,z_last", [
        ("g2:eps=0", "1:1e80", 1e240 / 3.0),  # Z' ~ rho^2 = 1e160: h^2 - 1 overflows
        ("profile:alpha=1,beta=1", "0:1e100", 1e300 / 3.0),
    ])
    def test_large_finite_heights_are_written(self, tmp_path, family, rho_range, z_last):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(tmp_path, "embed", "--family", family, "--rho-range", rho_range,
                             "--nr", "6", "--nphi", "3")
        assert code == 0
        rows = [l.split() for l in text.splitlines() if l[0].isdigit()]
        assert float(rows[-1][4]) == pytest.approx(z_last, rel=1e-12)

    def test_eps_minus_one_within_the_slack_below_sqrt2(self, tmp_path):
        # lo may sit up to 1e-12 below sqrt(2); its height is clamped to 0, not nan
        code, text = run(tmp_path, "embed", "--family", "g2:eps=-1",
                         "--rho-range", "1.4142135623730:2", "--nr", "4", "--nphi", "4")
        assert code == 0
        assert "nan" not in text


class TestGrowth:
    def test_sphere_on_plane(self, tmp_path):
        code, text = run(tmp_path, "growth", "--s1", "sphere:r=1", "--s2", "plane",
                         "--grid", "4")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        for row in rows:
            assert row.split(",")[5:8] == ["2", "3", "5"]

    def test_equal_spheres_integrable(self, tmp_path):
        code, text = run(tmp_path, "growth", "--s1", "sphere:r=1", "--s2", "sphere:r=1",
                         "--grid", "3")
        assert code == 0
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        for row in rows:
            assert row.split(",")[5:8] == ["2", "2", "2"]


class TestDeterminismAndJobs:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        argv = ["quartic", "--s1", "g2:eps=1", "--s2", "plane", "--rho", "0.2:2:20"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROLLING_TWISTOR_JOBS", "2")
        code, _ = run(tmp_path, "quartic", "--s1", "sphere:r=1", "--s2", "plane", "--grid", "4")
        assert code == 0

    def test_bad_rho_spec(self, tmp_path):
        code, _ = run(tmp_path, "quartic", "--s1", "sphere:r=1", "--s2", "plane",
                      "--rho", "1:2")
        assert code == 2

    def test_usage_error(self, tmp_path):
        assert main(["quartic", "--s1", "sphere:r=1"]) == 2

    def test_numbers_use_17_significant_digits(self, tmp_path):
        code, text = run(tmp_path, "quartic", "--s1", "sphere:r=1", "--s2", "plane",
                         "--grid", "2")
        row = [l for l in text.splitlines() if not l.startswith("#")][0]
        # theta = 0.4 prints with full precision
        assert row.split(",")[0] == "0.40000000000000002"

    def test_stdout_when_no_output_file(self, capsys):
        assert main(["quartic", "--s1", "sphere:r=1", "--s2", "plane", "--grid", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# rolling-twistor quartic")

    def test_embed_to_stdout(self, capsys):
        assert main(["embed", "--family", "g2:eps=1", "--rho-range", "0:1",
                     "--nr", "4", "--nphi", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# family=g2 eps=1 nr=4 nphi=4")


class TestNonFiniteSpecs:
    @pytest.mark.parametrize(
        "spec, token, position",
        [
            ("sphere:r=nan", "r=nan", 7),
            ("sphere:r=inf", "r=inf", 7),
            ("profile:alpha=nan,beta=1", "alpha=nan", 8),
            # curvature 1/r^2 or 2 alpha/h^3 overflows or underflows
            ("sphere:r=1e308", "r=1e308", 7),
            ("hyperbolic:r=1e308", "r=1e308", 11),
            ("sphere:r=1e-200", "r=1e-200", 7),
            ("profile:alpha=1e308,beta=1", "alpha=1e308", 8),
            ("profile:beta=1,alpha=1e308", "alpha=1e308", 15),
            # a repeated key would silently keep the last value
            ("sphere:r=1,r=2", "r=2", 11),
        ],
    )
    def test_rejected_at_parse_time(self, capsys, spec, token, position):
        assert main(["g2check", "--s1", spec, "--s2", "plane", "--grid", "3"]) == 2
        err = capsys.readouterr().err
        assert repr(token) in err
        assert f"position {position}" in err


class TestOracleStep:
    def test_fd_step_is_not_an_option(self, capsys):
        # the step is fixed; the header still prints it
        assert main(["oracle", "--s1", "sphere:r=1", "--s2", "plane",
                     "--fd-step", "0.001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --fd-step" in captured.err


class TestOracleFlatRows:
    """Where both routes say the quartic vanishes, the proportionality
    residual would be a ratio of two noises; such rows print 0."""

    @pytest.mark.parametrize("s1, s2", [("g2:eps=1", "plane"), ("sphere:r=1", "sphere:r=3")])
    def test_flat_rows_print_zero_residual(self, tmp_path, s1, s2):
        code, text = run(tmp_path, "oracle", "--s1", s1, "--s2", s2, "--points", "5")
        assert code == 0
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
        assert len(rows) == 5
        assert [row[16] for row in rows] == ["0"] * 5


class TestColdStart:
    def test_embed_runs_without_scipy(self, tmp_path):
        env = subprocess_env()
        code = (
            "import sys\n"
            "import rolling_twistor.cli as cli\n"
            "rc = cli.main(['embed', '--family', 'g2:eps=0', '--rho-range', '1:2.5',\n"
            "              '--nr', '16', '--nphi', '8', '-o', sys.argv[1]])\n"
            "print(rc, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "mesh.txt")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 []\n"
        assert (tmp_path / "mesh.txt").read_text().startswith("# family=g2 eps=0 nr=16 nphi=8\n")

    def test_cli_loads_no_module_it_does_not_run(self):
        # no command runs the split-signature algebra of `split4`
        env = subprocess_env()
        code = "import sys, rolling_twistor.cli; print('rolling_twistor.split4' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["rolling_twistor", "rolling_twistor.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        env = subprocess_env()
        env.pop("ROLLING_TWISTOR_JOBS", None)
        proc = subprocess.run(
            [sys.executable, "-m", module, "g2check", "--s1", "sphere:r=1", "--s2", "plane",
             "--grid", "3"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout.startswith("# rolling-twistor g2check\n")
        assert "# verdict: not-G2" in proc.stdout

    def test_closed_stdout_ends_quietly(self):
        # 5001 rows, far more than a pipe buffer holds; the reader stops
        # after the first line
        env = subprocess_env()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rolling_twistor", "roll", "--s1", "sphere:r=1", "--s2",
             "plane", "--start", "1.5707963267948966,0,0,0,0", "--c1", "0", "--c2", "1",
             "--dt", "0.001", "--T", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"# rolling-twistor roll\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""


class TestSerialFrontEnd:
    def test_jobs_flag_is_a_usage_error(self, tmp_path):
        code, text = run(tmp_path, "quartic", "--s1", "sphere:r=1", "--s2", "plane",
                         "--jobs", "2")
        assert code == 2
        assert text == ""

    def test_jobs_env_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROLLING_TWISTOR_JOBS", "not-a-number")
        code, text = run(tmp_path, "quartic", "--s1", "sphere:r=1", "--s2", "plane", "--grid", "2")
        assert code == 0
        assert text.startswith("# rolling-twistor quartic")

    def test_one_g2_check_per_grid(self, tmp_path, monkeypatch):
        import rolling_twistor.cli as cli

        calls = []
        original = cli.ci.g2_check

        def spy(s1, lam, grid, tol):
            calls.append(len(grid))
            return original(s1, lam, grid, tol=tol)

        monkeypatch.setattr(cli.ci, "g2_check", spy)
        for command in ("quartic", "g2check"):
            run(tmp_path, command, "--s1", "sphere:r=1", "--s2", "sphere:r=2", "--grid", "7")
        assert calls == [7, 7]

    @pytest.mark.parametrize(
        "argv",
        [
            ["quartic", "--s1", "sphere:r=1", "--s2", "sphere:r=2", "--grid", "3"],
            ["g2check", "--s1", "g2:eps=-1", "--s2", "plane", "--rho", "1.5:3:4"],
            ["growth", "--s1", "sphere:r=1", "--s2", "plane", "--grid", "2"],
            ["roll", "--s1", "sphere:r=1", "--s2", "plane", "--start", "1.2,0,0,0,0",
             "--dt", "0.01", "--T", "0.2"],
            ["oracle", "--s1", "sphere:r=1", "--s2", "plane", "--points", "1"],
            ["embed", "--family", "g2:eps=1", "--rho-range", "0:1", "--nr", "4", "--nphi", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_stdout_equals_output_file(self, tmp_path, capsys, argv):
        out = tmp_path / "out.txt"
        code_file = main(argv + ["-o", str(out)])
        assert capsys.readouterr().out == ""
        code_stdout = main(argv)
        assert code_stdout == code_file
        assert capsys.readouterr().out.encode() == out.read_bytes()


class TestParserReuse:
    def test_options_do_not_leak_between_calls(self, tmp_path, capsys):
        # one parser serves every `main` call of a process
        argv = ["oracle", "--s1", "sphere:r=1", "--s2", "plane", "--points", "1"]
        out = tmp_path / "out.txt"
        assert main(argv + ["--phi", "1.0", "-o", str(out)]) == 0
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "fd_step=0.001\n" in printed
        row = [line for line in printed.splitlines() if not line.startswith("#")]
        assert float(row[0].split(",")[4]) == 0.3
        assert float(out.read_text().splitlines()[-1].split(",")[4]) == 1.0

    def test_a_usage_error_leaves_the_parser_usable(self, tmp_path, capsys):
        assert main(["growth", "--s1", "sphere:r=1"]) == 2
        code, text = run(tmp_path, "growth", "--s1", "sphere:r=1", "--s2", "plane", "--grid", "2")
        assert code == 0
        assert "points=2" in text


class TestRollDiagnostics:
    def test_roll_measures_the_velocities_once(self, tmp_path, monkeypatch):
        import rolling_twistor.rolling as rolling

        widths = []
        original = rolling.sampled_derivative

        def spy(values, dt, *args, **kwargs):
            widths.append(np.shape(values)[1])
            return original(values, dt, *args, **kwargs)

        monkeypatch.setattr(rolling, "sampled_derivative", spy)
        code, _ = run(tmp_path, "roll", "--s1", "sphere:r=1", "--s2", "plane",
                      "--start", "1.2,0,0,0,0", "--dt", "0.01", "--T", "0.2")
        assert code == 0
        # the contact velocities (5 coordinates), then the no-twist image (2)
        assert widths == [5, 2]


class TestFiniteNumbers:
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("s2", ["plane", "sphere:r=3"])
    def test_tol_must_be_finite_positive(self, tmp_path, capsys, tol, s2):
        code, text = run(tmp_path, "g2check", "--s1", "sphere:r=1", "--s2", s2, "--grid", "2",
                         f"--tol={tol}")
        assert code == 2
        assert text == ""
        assert "--tol must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, token",
        [
            (["roll", "--s1", "plane", "--s2", "plane", "--start", "1,0,0,0,nan"], "--start",
             "1,0,0,0,nan"),
            (["roll", "--s1", "plane", "--s2", "plane", "--start", "inf,0,0,0,0"], "--start",
             "inf,0,0,0,0"),
            (["roll", "--s1", "plane", "--s2", "plane", "--start", "1,0,0,0,x"], "--start",
             "1,0,0,0,x"),
            (["roll", "--s1", "plane", "--s2", "plane", "--c1", "nan"], "--c1", "nan"),
            (["roll", "--s1", "plane", "--s2", "plane", "--c2=-inf"], "--c2", "-inf"),
            (["growth", "--s1", "sphere:r=1", "--s2", "plane", "--phi", "inf"], "--phi", "inf"),
            (["oracle", "--s1", "sphere:r=1", "--s2", "plane", "--phi", "inf"], "--phi", "inf"),
            (["quartic", "--s1", "sphere:r=1", "--s2", "plane", "--rho", "0.5:inf:2"], "--rho",
             "0.5:inf:2"),
            (["embed", "--family", "g2:eps=1", "--rho-range", "0.5:inf"], "--rho-range",
             "0.5:inf"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_non_finite_numbers_name_the_flag(self, tmp_path, capsys, argv, flag, token):
        code, text = run(tmp_path, *argv)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert flag in err
        assert repr(token) in err
        assert "Traceback" not in err


class TestCountsAndSteps:
    @pytest.mark.parametrize("command", ["quartic", "g2check", "growth", "oracle"])
    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_must_be_positive(self, tmp_path, capsys, command, grid):
        code, text = run(tmp_path, command, "--s1", "sphere:r=1", "--s2", "sphere:r=3",
                         "--grid", grid)
        assert code == 2
        assert text == ""
        assert f"--grid needs a positive count, got {grid}" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_must_be_positive(self, tmp_path, capsys, points):
        code, text = run(tmp_path, "oracle", "--s1", "sphere:r=1", "--s2", "plane",
                         "--points", points, "--grid", "3")
        assert code == 2
        assert text == ""
        assert f"--points needs a positive count, got {points}" in capsys.readouterr().err


class TestQuarticOverflow:
    @pytest.mark.parametrize(
        "argv",
        [
            ["g2check", "--s1", "sphere:r=1e-100", "--s2", "plane", "--grid", "2"],
            ["g2check", "--s1", "sphere:r=1e-30", "--s2", "sphere:r=2e-30", "--grid", "2"],
            ["oracle", "--s1", "sphere:r=1e-100", "--s2", "plane", "--points", "1"],
        ],
    )
    def test_overflow_is_a_numeric_failure(self, tmp_path, capsys, argv):
        code, text = run(tmp_path, *argv)
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["g2check", "quartic", "oracle", "growth"])
    def test_overflowing_profile_coordinate_is_named(self, tmp_path, capsys, command):
        # h = 1 + rho^2 overflows at rho = 1e200: the chart ends there, and
        # the failure is not the integrable locus kappa = lambda = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            code, text = run(tmp_path, command, "--s1", "g2:eps=1", "--s2", "plane",
                             "--rho", "1e200:1e201:3")
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err == (
            "error: beta + alpha rho^2 is not finite at rho = 1e+200 (float overflow)\n"
        )

    @pytest.mark.parametrize("command", ["g2check", "quartic", "oracle", "growth"])
    def test_overflowing_frame_data_name_the_coordinate(self, tmp_path, capsys, command):
        # h = 1 + rho^2 is finite at rho = 1e60 but h^3 is not: kappa would
        # round to 0 and the run would blame the integrable locus
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            code, text = run(tmp_path, command, "--s1", "g2:eps=1", "--s2", "plane",
                             "--rho", "1e60:1e61:3")
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err == (
            "error: the cube of beta + alpha rho^2 or its product with rho overflows"
            " at rho = 1e+60 (float overflow)\n"
        )


class TestRollInputs:
    @pytest.mark.parametrize("T", ["-1", "0", "nan", "inf"])
    def test_final_time_must_be_finite_positive(self, tmp_path, capsys, T):
        code, text = run(tmp_path, "roll", "--s1", "plane", "--s2", "plane", f"--T={T}")
        assert code == 2
        assert text == ""
        assert "--T must be a finite positive number" in capsys.readouterr().err

    def test_control_file_must_cover_the_run(self, tmp_path, capsys):
        ctrl = tmp_path / "short.csv"
        ctrl.write_text("0.0, 1.0, 0.0\n0.5, 1.0, 0.0\n")
        code, text = run(tmp_path, "roll", "--s1", "plane", "--s2", "plane",
                         "--start", "0,0,0,0,0", "--control", str(ctrl), "--T", "2")
        assert code == 2
        assert text == ""
        assert "does not cover [0, --T 2.0]" in capsys.readouterr().err

    def test_control_file_starting_late_rejected(self, tmp_path):
        ctrl = tmp_path / "late.csv"
        ctrl.write_text("0.1, 1.0, 0.0\n1.0, 1.0, 0.0\n")
        code, _ = run(tmp_path, "roll", "--s1", "plane", "--s2", "plane",
                      "--start", "0,0,0,0,0", "--control", str(ctrl), "--T", "1")
        assert code == 2

    def test_control_file_ending_one_ulp_short_accepted(self, tmp_path):
        T = 0.10603948491860132
        last = T * 20 / 20  # rounds to the float just below T
        assert last < T
        ctrl = tmp_path / "ctrl.csv"
        ctrl.write_text(f"0.0, 1.0, 0.0\n{last!r}, 1.0, 0.0\n")
        code, _ = run(tmp_path, "roll", "--s1", "plane", "--s2", "plane", "--start", "0,0,0,0,0",
                      "--control", str(ctrl), "--dt", "0.01", f"--T={T!r}")
        assert code == 0

    def _roll_with_rows(self, tmp_path, capsys, rows):
        ctrl = tmp_path / "ctrl.csv"
        ctrl.write_text("# t, c1, c2\n" + "\n".join(rows) + "\n")
        code, text = run(tmp_path, "roll", "--s1", "sphere:r=1", "--s2", "plane",
                         "--start", "1.2,0,0,0,0", "--control", str(ctrl), "--dt", "0.01")
        return code, text, capsys.readouterr().err, ctrl

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_control_file_non_finite_time_names_the_line(self, tmp_path, capsys, t):
        rows = ["0.0, 1.0, 0.0", f"{t}, 1.0, 0.0", "1.0, 1.0, 0.0"]
        code, text, err, ctrl = self._roll_with_rows(tmp_path, capsys, rows)
        assert code == 2
        assert text == ""
        assert err == f"error: control file {ctrl}: line 3: non-finite entry in '{t}, 1.0, 0.0\\n'\n"

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_control_file_non_finite_control_names_the_line(self, tmp_path, capsys, c):
        rows = ["0.0, 1.0, 0.0", f"0.5, {c}, 0.0", "1.0, 1.0, 0.0"]
        code, text, err, ctrl = self._roll_with_rows(tmp_path, capsys, rows)
        assert code == 2
        assert text == ""
        assert err == f"error: control file {ctrl}: line 3: non-finite entry in '0.5, {c}, 0.0\\n'\n"

    def test_control_file_repeated_time_names_the_line(self, tmp_path, capsys):
        rows = ["0.0, 1.0, 0.0", "0.5, 1.0, 0.0", "0.5, 0.0, 1.0", "1.0, 1.0, 0.0"]
        code, text, err, ctrl = self._roll_with_rows(tmp_path, capsys, rows)
        assert code == 2
        assert text == ""
        assert err == (f"error: control file {ctrl}: line 4: time 0.5 does not increase"
                       " on the previous row's 0.5\n")

    def test_chart_exit_names_last_valid_time(self, tmp_path, capsys):
        code, text = run(tmp_path, "roll", "--s1", "sphere:r=1", "--s2", "plane",
                         "--start", "3.0,0,0,0,0", "--dt", "0.01", "--T", "1.0")
        assert code == 3
        assert text == ""
        assert "(integration stopped at t = 0.14)" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["0:2:3", "0", "a:b"])
    def test_embed_rho_range_names_flag_and_token(self, tmp_path, capsys, spec):
        code, _ = run(tmp_path, "embed", "--family", "g2:eps=1", "--rho-range", spec)
        assert code == 2
        assert f"--rho-range expects numeric lo:hi, got {spec!r}" in capsys.readouterr().err


class TestIntegrableThreshold:
    def test_nearly_equal_spheres_are_integrable(self, tmp_path, capsys):
        # |kappa - lambda| = 2e-13: inside the distribution's 1e-10 threshold,
        # where the quartic's coefficients are of size 1e-49
        code, text = run(tmp_path, "g2check", "--s1", "sphere:r=1", "--s2",
                         "sphere:r=1.0000000000001", "--grid", "2")
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: equal curvatures (kappa = 1.0, lambda = 0.99999999999980")
        assert "integrable" in err


class TestHugeCurvature:
    def test_growth_names_the_curvatures(self, tmp_path, capsys):
        code, text = run(tmp_path, "growth", "--s1", "sphere:r=1e-100", "--s2", "plane",
                         "--grid", "2")
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: no growth vector: the ranks (2, 1, 1) decrease")
        assert "kappa = 1e+200, lambda = 0.0" in err

    def test_oracle_names_the_curvatures(self, tmp_path, capsys):
        code, text = run(tmp_path, "oracle", "--s1", "sphere:r=1e-100", "--s2", "plane",
                         "--points", "1")
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert err == "error: the oracle coframe overflows at kappa = 1e+200, lambda = 0.0\n"
