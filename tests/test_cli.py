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
