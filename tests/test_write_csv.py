"""write_csv against np.savetxt, byte for byte.

The oracle is numpy's own writer with the format write_csv promises:
np.savetxt(fmt="%.17g", delimiter=",", header=..., comments="").  Inputs
are hypothesis-drawn float64 blocks (nan, +-inf, -0.0 and subnormals
allowed, row counts on both sides of the writer's block size) and a
fixed table of the values where a decimal formatter goes wrong: powers
of ten and their neighbours, exact ties at the 17th significant digit,
the edges of '%.17g''s fixed notation and the extremes of float64.
"""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsakit.dynamics import _CSV_BLOCK, write_csv


def savetxt_text(names, data):
    buf = io.StringIO()
    np.savetxt(buf, data, fmt="%.17g", delimiter=",", header=",".join(names), comments="")
    return buf.getvalue()


def write_csv_text(names, data):
    buf = io.StringIO()
    write_csv(buf, names, data)
    return buf.getvalue()


def assert_same_as_savetxt(data):
    names = [f"c{i}" for i in range(data.shape[1])]
    got, expected = write_csv_text(names, data), savetxt_text(names, data)
    if got != expected:
        for g, e in zip(got.splitlines(), expected.splitlines()):
            assert g == e
    assert got == expected


def neighbours(x):
    return [x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, math.inf))]


def exact_ties():
    """Doubles that lie exactly halfway between two 17-digit decimals,
    for every decimal exponent E of the fixed notation but 16 (whose ulp
    is 2): x = r * 2**(E - 17) with r odd is r * 5**(16 - E) / 2 units
    of the 17th digit, a half-integer, and has 17 digits where that
    count is in [10**16, 10**17)."""
    ties = [1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.375, 1e14 + 0.125]
    for e10 in range(-4, 16):
        r0 = -(-2 * 10**16 // 5 ** (16 - e10)) | 1
        ties += [r * 2.0 ** (e10 - 17) for r in (r0, r0 + 2, r0 + 40) if r < 2**53]
    for x in ties:
        scaled = Fraction(x) / Fraction(10) ** (math.floor(math.log10(x)) - 16)
        assert scaled.denominator == 2 and 10**16 <= scaled < 10**17, x
    return ties


def hard_cases():
    values = []
    for k in range(-7, 19):
        values += neighbours(float(f"1e{k}"))
    values += exact_ties()
    for edge in (1e-4, 1e-5, 1e16, 1e17, 9.9999999999999995e-05, 99999999999999999.0):
        values += neighbours(edge)
    values += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, 1.0, 0.5]
    values = values + [-v for v in values] + [math.nan, math.inf, -math.inf]
    return np.array(values)


@pytest.mark.parametrize("cols", [1, 3, 7])
def test_hard_cases_match_savetxt(cols):
    values = hard_cases()
    assert np.signbit(values[values == 0.0]).any()  # -0.0 is in the table
    data = np.resize(values, (values.size // cols + 1, cols))
    assert_same_as_savetxt(data)


def test_ties_round_half_to_even():
    text = write_csv_text(["x"], np.array([[1e15 + 0.25], [1e15 + 0.75], [1e14 + 0.375]]))
    assert text.split() == ["x", "1000000000000000.2", "1000000000000000.8", "100000000000000.38"]


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=1e-6, max_value=1e18),
    st.floats(min_value=-1e18, max_value=-1e-6),
    st.sampled_from([0.0, -0.0, 1e-4, 1e16, 1e17]),
)
ROWS = st.one_of(
    st.sampled_from([1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 3]),
    st.integers(1, 3 * _CSV_BLOCK),
)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(FLOATS, min_size=1, max_size=48), rows=ROWS, cols=st.integers(1, 9))
def test_blocks_match_savetxt(values, rows, cols):
    assert_same_as_savetxt(np.resize(np.array(values, dtype=np.float64), (rows, cols)))


def test_columns_are_stacked_per_block():
    t = np.linspace(0.0, 3.0, 2 * _CSV_BLOCK + 5)
    pair = np.column_stack([np.sin(t), -np.cos(t)])
    buf = io.StringIO()
    write_csv(buf, ["t", "s", "c", "t2"], [t, pair, t * t])
    assert buf.getvalue() == savetxt_text(["t", "s", "c", "t2"], np.column_stack([t, pair, t * t]))


def test_empty_table_is_the_header():
    assert write_csv_text(["a", "b"], np.zeros((0, 2))) == "a,b\n"
