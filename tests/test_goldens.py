"""Golden outputs of the README command-line examples, plus the growth
sweep and a roll driven by a control file.

Each example runs through `cli.main` with `-o` into a temporary file; the
sha256 of the exit code and the file bytes must match the recorded value.
A change that legitimately alters a table updates its hash here and says
why in CHANGES.md.
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
        "f8cfac6f38d9092e5ae02d1400d5f03b5ab98a3c8de3587266b89d83aa76bbd5",
    ),
    "g2check_homothetic_profile": (
        ["g2check", "--s1", "profile:alpha=1,beta=-5", "--s2", "plane", "--rho", "0.5:1.9:30"],
        "9740a1a1a009cc769ccf30548bf9b1ed08f60338af9be93920bf2bb787853a7e",
    ),
    "quartic_generic_spheres": (
        ["quartic", "--s1", "sphere:r=1", "--s2", "sphere:r=2", "--grid", "10"],
        "5955fb0edcfffac67ef1d23752722b44516d5618b13168840875c056a6027486",
    ),
    "roll_sphere_equator": (
        ["roll", "--s1", "sphere:r=1", "--s2", "plane", "--start", "1.5707963267948966,0,0,0,0",
         "--c1", "0", "--c2", "1", "--dt", "0.001", "--T", PI],
        "bbc569418813f8e9b0e5b7e7165f553a8e177f0c09c8b23c6a863a81edc3d01d",
    ),
    "oracle_sphere_plane": (
        ["oracle", "--s1", "sphere:r=1", "--s2", "plane", "--points", "5"],
        "83261353a483dca06a681aee653a33c3d9a68d098152c5a90a0bfcbe83465106",
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
        "36a1debdbaf44c33a098c3929230611ecc70e80c9cf25f8b66031dae41e3131d",
    ),
}


def golden_digest(argv, out):
    code = main(argv + ["-o", str(out)])
    data = out.read_bytes() if out.exists() else b""
    return hashlib.sha256(f"{code}\n".encode() + data).hexdigest()


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_golden(name, tmp_path):
    argv, expected = README_EXAMPLES[name]
    assert golden_digest(argv, tmp_path / f"{name}.txt") == expected


@pytest.mark.parametrize("name", sorted(MORE_EXAMPLES))
def test_more_example_golden(name, tmp_path):
    argv, expected = MORE_EXAMPLES[name]
    control = tmp_path / "control.csv"
    control.write_text(CONTROL_ROWS)
    argv = [str(control) if a == "{control}" else a for a in argv]
    assert golden_digest(argv, tmp_path / f"{name}.txt") == expected
