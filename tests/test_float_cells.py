"""The CSV's array formatter writes exactly CPython's ``%.17g``.

``output._format_cells`` lays out ``format(x, ".17g") + ","`` of every value
of an array as a fixed-width record padded with PAD bytes. Values with
1e-4 <= |x| < 1e17 are formatted on arrays, from an exponent read off
threshold doubles and a rounding made exact by Dekker's two-product; every
other value goes through ``format``. Each record, its PADs dropped, must be
``format``'s bytes: over hypothesis' floats, around every power of ten in
and near the exact range, and over random bit patterns.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbattery import output
from sqbattery.output import CELL, PAD, _format_cells
from reference import bit_patterns


def near_powers_of_ten(lo: int = -6, hi: int = 18, ulps: int = 2) -> list[float]:
    """Every double within ``ulps`` of the one nearest 10**j, lo <= j <= hi,
    and their negatives."""
    values = []
    for j in range(lo, hi + 1):
        nearest = float(Fraction(10) ** j)
        for step in range(-ulps, ulps + 1):
            x = nearest
            for _ in range(abs(step)):
                x = math.nextafter(x, math.copysign(math.inf, step))
            values += [x, -x]
    return values


def records(values) -> list[str]:
    """The formatter's records of ``values``, each without its PADs."""
    cells = _format_cells(np.array(values, dtype=np.float64))
    assert cells.shape == (len(values), CELL) and cells.dtype == np.uint8
    return [bytes(cell).translate(None, bytes([PAD])).decode("ascii") for cell in cells]


def assert_formats_like_cpython(values):
    expected = [format(x, ".17g") + "," for x in values]
    got = records(values)
    wrong = [(x, g, e) for x, g, e in zip(values, got, expected) if g != e]
    assert not wrong, wrong[:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_cells_are_format_17g_of_any_floats(values):
    assert_formats_like_cpython(values)


def test_cells_are_format_17g_within_two_ulps_of_powers_of_ten():
    # where the exponent steps: one read off log10 writes the double below
    # 1e-6, 9.9999999999999995e-07, as 1e-06
    values = near_powers_of_ten()
    assert 9.9999999999999995e-07 in values and 1e17 in values
    assert_formats_like_cpython(values)


def test_cells_are_format_17g_of_random_bit_patterns():
    values = bit_patterns()
    # 71 of the 2048 binary exponents are in the exact range
    assert sum(1e-4 <= abs(x) < 1e17 for x in values) > 3000
    assert_formats_like_cpython(values)


def test_decade_thresholds_are_the_least_doubles_at_or_above_the_powers():
    for j, threshold in zip(range(-4, 18), output._DECADES.tolist()):
        below = math.nextafter(threshold, -math.inf)
        assert Fraction(below) < Fraction(10) ** j <= Fraction(threshold)
        # 17 digits of the double below never round up to 10**j
        if j > -4:
            assert Fraction(below) * Fraction(10) ** (17 - j) <= 10 ** 17 - 8
    # the scales are exact powers of ten, so the products are exact
    for i, scale in enumerate(output._SCALES.tolist()[1:-1], 1):
        assert Fraction(scale) == Fraction(10) ** (21 - i)


def test_in_range_cells_never_go_through_format(monkeypatch):
    values = [1e-4, 0.1 * 3, -3.25, 1200.0, 2.0 ** 52, 99999999999999984.0, 0.99999999999999994]
    expected = [format(x, ".17g") + "," for x in values]

    def no_format(*args):
        raise AssertionError(f"format{args} called")

    monkeypatch.setattr("builtins.format", no_format)
    got = records(values)
    monkeypatch.undo()
    assert got == expected
