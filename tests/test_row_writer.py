"""The %.17g row writer of the grid tables (`cli._rows`) and what its
tables hold.

`_rows` formats a column that is the same on every row once; its lines
must be those of formatting every cell on its own (`references.rows_by_cells`),
whatever the values: signed zeros, NaNs, infinities, subnormals, and text
holding '%'.  A `quartic` table read back with `float` gives the bits of the
`G2Report` it was written from.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from references import rows_by_cells

from rolling_twistor import cartan_invariants as ci
from rolling_twistor import cli
from rolling_twistor.surfaces import parse_surface

NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]
NUMBERS = st.sampled_from([0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
                           5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308]) | st.floats()
TEXTS = st.sampled_from(["zero", "[2,2]", "[1,1,1,1]", "100% of %s"])


@st.composite
def tables(draw):
    """(table, text columns): 1-40 rows, 1-18 number columns and 0-2 text
    columns, each column one value on every row or drawn per row."""
    m = draw(st.integers(1, 40))

    def column(values):
        if draw(st.booleans()):
            return [draw(values)] * m
        return draw(st.lists(values, min_size=m, max_size=m))

    table = np.column_stack([column(NUMBERS) for _ in range(draw(st.integers(1, 18)))])
    return table, [column(TEXTS) for _ in range(draw(st.integers(0, 2)))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tables())
@example((np.array([[0.0], [-0.0]]), []))
@example((np.column_stack([[math.nan] * 3, [1.0, 2.0, 3.0]]), [["zero"] * 3]))
@example((np.array([[1e308, -0.0, 5e-324]]), [["100% of %s"], ["[2,2]"]]))
def test_rows_equal_formatting_every_cell(case):
    table, text = case
    assert cli._rows(table, *text) == rows_by_cells(table, *text)


def bits(x):
    return struct.pack("<d", x)


@pytest.mark.parametrize("s1, s2", [("sphere:r=3", "sphere:r=1"),  # 9:1: A1, A2 are -0.0
                                    ("sphere:r=1", "hyperbolic:r=2")])
def test_quartic_cells_read_back_as_the_report_bits(tmp_path, s1, s2):
    out = tmp_path / "quartic.txt"
    assert cli.main(["quartic", "--s1", s1, "--s2", s2, "--grid", "25", "-o", str(out)]) == 0
    surface = parse_surface(s1)
    lam = cli._constant_curvature(parse_surface(s2))
    report = ci.g2_check(surface, lam, surface.profile_grid(25))
    columns = [*report.points, report.kappa, *report.quartics.T, report.scaled]
    rows = [line.split(",", 9) for line in out.read_text().splitlines()
            if not line.startswith("#")]
    assert [row[9] for row in rows] == report.tags
    for j, column in enumerate(columns):
        assert [bits(float(row[j])) for row in rows] == [bits(x) for x in column.tolist()]


def test_the_nine_to_one_table_holds_negative_zeros(tmp_path):
    out = tmp_path / "quartic.txt"
    assert cli.main(["quartic", "--s1", "sphere:r=3", "--s2", "sphere:r=1", "--grid", "3",
                     "-o", str(out)]) == 0
    assert out.read_text().splitlines()[-1].split(",")[3:8] == ["-0", "-0", "0", "0", "0"]
