import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rolling_twistor
from rolling_twistor.cli import main


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

    def test_jobs_flag_preserves_order_and_bytes(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        argv = ["quartic", "--s1", "g2:eps=1", "--s2", "plane", "--rho", "0.2:2:20"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["--jobs", "4", "-o", str(b)]) == 0
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
    @pytest.mark.parametrize("step", ["0", "-1e-3", "nan", "inf"])
    def test_unusable_fd_step_exits_3(self, tmp_path, capsys, step):
        code, text = run(tmp_path, "oracle", "--s1", "sphere:r=1", "--s2", "plane",
                         "--points", "1", f"--fd-step={step}")
        assert code == 3
        assert text == ""
        assert "step size must be a finite positive number" in capsys.readouterr().err


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["rolling_twistor", "rolling_twistor.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        src = str(Path(rolling_twistor.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        env.pop("ROLLING_TWISTOR_JOBS", None)
        proc = subprocess.run(
            [sys.executable, "-m", module, "g2check", "--s1", "sphere:r=1", "--s2", "plane",
             "--grid", "3"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout.startswith("# rolling-twistor g2check\n")
        assert "# verdict: not-G2" in proc.stdout


class TestSerialFrontEnd:
    def test_jobs_hidden_from_help(self, capsys):
        assert main(["quartic", "--help"]) == 0
        assert "--jobs" not in capsys.readouterr().out

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
                         "--points", points, "--grid", "3", "--fd-step", "0")
        assert code == 2
        assert text == ""
        assert f"--points needs a positive count, got {points}" in capsys.readouterr().err

    def test_fd_step_checked_before_any_point(self, tmp_path, monkeypatch):
        import rolling_twistor.cli as cli

        calls = []
        monkeypatch.setattr(cli.oracle_mod, "cartan_from_weyl",
                            lambda *a, **k: calls.append(a))
        code, _ = run(tmp_path, "oracle", "--s1", "sphere:r=1", "--s2", "plane",
                      "--points", "2", "--fd-step", "0")
        assert code == 3
        assert calls == []


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
