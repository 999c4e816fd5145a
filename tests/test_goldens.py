"""Golden outputs of the README command-line examples, plus growth sweeps,
rolls (one driven by a control file) and an oracle run on revolution and
hyperbolic surfaces.

Each example runs through `cli.main` with `-o` into a temporary file; the
sha256 of the exit code and the file bytes must match the recorded value.
A change that legitimately alters a table updates its hash here and says
why in CHANGES.md.  A roll golden has a second digest, of its trajectory
table alone (everything after the three summary lines): the RK4 samples,
which a change of the diagnostics' arithmetic must leave alone.
"""

import hashlib

import pytest

from rolling_twistor.cli import main

PI = "3.141592653589793"

README_EXAMPLES = {
    "g2check_spheres_9_to_1": (
        ["g2check", "--s1", "sphere:r=1", "--s2", "sphere:r=3", "--grid", "10"],
        "e3bc64ea33c430063de84601900b3da0f3b817a1cbc3ba93bca1688d7dd290c9",
    ),
    "g2check_g2_family": (
        ["g2check", "--s1", "g2:eps=-1", "--s2", "plane", "--rho", "1.5:3:40"],
        "cea7a584184a435dbab9038625c90b9cd9b2040893fd9283f33349d1d6c35658",
    ),
    "g2check_homothetic_profile": (
        ["g2check", "--s1", "profile:alpha=1,beta=-5", "--s2", "plane", "--rho", "0.5:1.9:30"],
        "f0e144732f0e2e48912abe60dbc77b2642717aa247adc3dd7297e49e2d0d3018",
    ),
    "quartic_generic_spheres": (
        ["quartic", "--s1", "sphere:r=1", "--s2", "sphere:r=2", "--grid", "10"],
        "5955fb0edcfffac67ef1d23752722b44516d5618b13168840875c056a6027486",
    ),
    "roll_sphere_equator": (
        ["roll", "--s1", "sphere:r=1", "--s2", "plane", "--start", "1.5707963267948966,0,0,0,0",
         "--c1", "0", "--c2", "1", "--dt", "0.001", "--T", PI],
        "95e2b1bfccf1fe4438ea650a4f240032013121e65a3b3a9293c58bdde88e0342",
    ),
    "oracle_sphere_plane": (
        ["oracle", "--s1", "sphere:r=1", "--s2", "plane", "--points", "5"],
        "0f37c4193919c0b63561f5981b2a90c8d758a5536db2ecc0f9933e5ecff0a09b",
    ),
    "embed_g2_plus": (
        ["embed", "--family", "g2:eps=1", "--rho-range", "0:2", "--nr", "32", "--nphi", "32"],
        "d853901f9cc886d673b5cadae75ee9da60af8f3fad6d39de7411c43e67f533c6",
    ),
}

# "{control}" stands for a control file holding CONTROL_ROWS, written per test
CONTROL_ROWS = "# t, c1, c2\n0.0, 1.0, 0.0\n0.25, 0.9, 0.2\n0.5, 0.8, 0.4\n"

MORE_EXAMPLES = {
    "growth_sphere_plane": (
        ["growth", "--s1", "sphere:r=1", "--s2", "plane", "--grid", "4"],
        "ed2990357f9da2dec4946fc9319cf5c5b968172a0dec6b1275e32ed2c474d8cf",
    ),
    "roll_control_file": (
        ["roll", "--s1", "sphere:r=1", "--s2", "plane", "--start", "1.2,0.1,0,0,0",
         "--control", "{control}", "--dt", "0.01", "--T", "0.5"],
        "1f5a0be93765be21d47025e471aa2ef113c0a9f6878683d77af8edab27144101",
    ),
    # revolution and hyperbolic frames in roll, the oracle and growth, away
    # from the sphere/plane pair above
    "roll_g2_minus_on_hyperbolic": (
        ["roll", "--s1", "g2:eps=-1", "--s2", "hyperbolic:r=2", "--start", "1.5,0,0.7,0,1",
         "--c1", "0.6", "--c2", "-0.8", "--dt", "0.01", "--T", "0.5"],
        "c678b7237a27a836782629683661e061b5c8dbdff7251fa4e57af547063dadb6",
    ),
    "oracle_profile_on_hyperbolic": (
        ["oracle", "--s1", "profile:alpha=1,beta=-5", "--s2", "hyperbolic:r=1",
         "--rho=0.5:1.9:3", "--points", "3", "--phi", "2"],
        "4846095a4f0465fe93bfa3ccdcd6f1b1305294b6fcc4550b10f22c538fe887c0",
    ),
    # both constant-curvature frames through a stencil of several points
    "oracle_sphere_on_hyperbolic": (
        ["oracle", "--s1", "sphere:r=1.3", "--s2", "hyperbolic:r=1.1", "--rho=0.4:2.5:4",
         "--points", "4", "--phi=0.7"],
        "20e23b230aa24ccd6ec99ec5d1869e3a3abf9b6e925028c8c1aab77a35758a3e",
    ),
    "growth_g2_zero_on_sphere": (
        ["growth", "--s1", "g2:eps=0", "--s2", "sphere:r=2", "--rho=0.6:2.5:6", "--phi", "4"],
        "13a51628f8bf3e9ed6bce5b0e8117baab58fce4d65ed3e7432953c272dded3ff",
    ),
    # a loud grid of about 200 distinct quartics, and a constant-curvature
    # grid whose 120 rows are one [2,2] quartic
    "g2check_profile_on_sphere": (
        ["g2check", "--s1", "profile:alpha=0.7,beta=-1.3", "--s2", "sphere:r=0.8",
         "--rho=1.6:3.1:200"],
        "cd925094105dac7b3cd8174e81636915cd3d1536ed3cc6f5cf627492e4179090",
    ),
    "quartic_hyperbolic_on_sphere": (
        ["quartic", "--s1", "hyperbolic:r=1.5", "--s2", "sphere:r=0.4", "--grid", "120"],
        "da95ecdc1a37ef86395841bb60b1013aab4be5fb7a2af1732493cfd3b95a2449",
    ),
    # a mesh of the size the benchmark's embed jobs write
    "embed_g2_minus_128x128": (
        ["embed", "--family", "g2:eps=-1", "--rho-range", "1.5:2.8", "--nr", "128",
         "--nphi", "128"],
        "e4d4619026cc0b50ecb96c8d0228c8a48ec17ad5e89db44ffab2d3917ac55035",
    ),
}


# sha256 of each roll golden's output after its three summary lines
ROLL_TRAJECTORIES = {
    "roll_control_file": "3da7b5210f4962cdf79072277416e2fe7a61fbd53daad0d13e24e2217afe1348",
    "roll_g2_minus_on_hyperbolic":
        "16f1c1e6d74ff87f2c2cdf966c3849615b1e3cdc70c5572034f8a5294d8552eb",
    "roll_sphere_equator": "c9f7134e909fa07093a2dab3630151bbad858279dde987105d823581437b17c7",
}


def run_example(name, tmp_path):
    """(exit code, output bytes) of one example, with "{control}" standing
    for a control file of CONTROL_ROWS."""
    argv, _ = {**README_EXAMPLES, **MORE_EXAMPLES}[name]
    control = tmp_path / "control.csv"
    control.write_text(CONTROL_ROWS)
    out = tmp_path / f"{name}.txt"
    code = main([str(control) if a == "{control}" else a for a in argv] + ["-o", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def golden_digest(name, tmp_path):
    code, data = run_example(name, tmp_path)
    return hashlib.sha256(f"{code}\n".encode() + data).hexdigest()


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_golden(name, tmp_path):
    assert golden_digest(name, tmp_path) == README_EXAMPLES[name][1]


@pytest.mark.parametrize("name", sorted(MORE_EXAMPLES))
def test_more_example_golden(name, tmp_path):
    assert golden_digest(name, tmp_path) == MORE_EXAMPLES[name][1]


@pytest.mark.parametrize("name", sorted(ROLL_TRAJECTORIES))
def test_roll_golden_trajectory_table(name, tmp_path):
    code, data = run_example(name, tmp_path)
    assert code == 0
    assert hashlib.sha256(data.split(b"\n", 3)[3]).hexdigest() == ROLL_TRAJECTORIES[name]
