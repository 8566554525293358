"""`format_values` against Python's repr, and `write_grid`'s blocks."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rti import traceio
from rti.traceio import format_values, text_table, write_grid


def texts(rows: np.ndarray) -> list[str]:
    return [bytes(row[row != 0]).decode() for row in rows]


def assert_reprs(values) -> None:
    values = np.asarray(values, np.float64)
    expected = [repr(v) for v in values.tolist()]
    got = texts(format_values(values))
    bad = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not bad, bad[:10]


def neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


def edge_cases() -> list[float]:
    values = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [float(v) for v in np.nextafter(0.0, 1.0) * np.arange(1, 50)]  # subnormals
    for k in range(-1074, 1024):
        values += neighbours(2.0**k)
    for k in range(-30, 23):
        values += neighbours(10.0**k)
    values += [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e16 - 2, 1e16, 1e16 + 2]
    values += [float(k) for k in range(-2000, 2000)] + [k / 8 for k in range(-2000, 2000)]
    # At and near exact ties of the 17- and 16-digit roundings; for the
    # last four, both 16-digit neighbours read back.
    values += [2.0**50 + k / 4 for k in range(64)] + [1e15 + k / 8 for k in range(64)]
    values += [123456789012345.125, 921480.849853515625, 3.0000152587890625]
    values += [7e14 + 0.25, 7e14 + 0.75, 987654321098765.25, 999999999999.03125]
    return values + [-v for v in values]


def exact_ties(count: int) -> np.ndarray:
    """Values whose decimal expansion ends in 5 at the 18th significant
    digit, or at the 17th: the 17- or 16-digit rounding of each is a tie."""
    rng = np.random.default_rng(22)
    values = []
    for e10 in range(16):
        for digits in (18, 17):
            k = digits - 1 - e10  # binary and decimal places of the fraction
            whole = rng.integers(10**e10, 10**(e10 + 1), count)
            odd = 2 * rng.integers(0, 2 ** (k - 1), count) + 1
            a = whole + odd / 2.0**k
            values.append(a[(a - whole) * 2.0**k == odd])  # those held exactly
    return np.concatenate(values)


def test_matches_repr_on_edge_cases():
    assert_reprs(edge_cases())


def test_matches_repr_on_exact_ties():
    ties = exact_ties(2000)
    assert len(ties) > 50_000
    assert_reprs(np.concatenate((ties, -ties)))


def test_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_reprs(values[np.isfinite(values)])


def test_matches_repr_on_values_like_rss_and_on_short_decimals():
    rng = np.random.default_rng(21)
    rss = rng.normal(-55.0, 15.0, 100_000)
    wide = np.exp(rng.uniform(0.0, math.log(1e16), 100_000))
    # 16-digit roundings above 2**53: values whose digits start at 9007 or more.
    high = rng.uniform(9.0, 10.0, 50_000) * 10.0 ** rng.integers(0, 16, 50_000)
    short = (np.round(rss, 1), np.round(rss, 3), np.round(wide, 2))
    assert_reprs(np.concatenate((rss, wide, high, *short)))


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_matches_repr_on_any_finite_floats(values):
    assert_reprs(values)


def test_values_like_rss_rarely_go_through_repr(monkeypatch):
    # Only values the exact tests cannot settle do. Between -90 and -10 dBm
    # none; from -100 to -90.07 dBm, those whose 16-digit rounding is odd and
    # above 2**53, about half.
    calls = []
    monkeypatch.setattr(traceio, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    rng = np.random.default_rng(23)
    assert_reprs(rng.uniform(-90.0, -10.0, 10_000))
    assert calls == []
    assert_reprs(rng.uniform(-100.0, -90.1, 10_000))
    assert 4000 < len(calls) < 6000


def test_nan_gets_no_text_and_infinities_their_repr():
    assert texts(format_values([np.nan, np.inf, -np.inf, -52.5])) == ["", "inf", "-inf", "-52.5"]


def grid_lines(grid, first_tick=0) -> list[str]:
    fh = io.BytesIO()
    columns = text_table(f"<{c}>," for c in range(grid.shape[1]))
    write_grid(fh, grid, ["tick", b",", columns, ("", "nan"), "value", b"\n"], first_tick)
    return fh.getvalue().decode().splitlines()


@pytest.mark.parametrize("block_lines", [1, 2, 3, 7, 2048])
def test_grid_lines_are_tick_major_in_any_block_size(monkeypatch, block_lines):
    # Blocks of part of a tick, of one tick, and of several ticks.
    monkeypatch.setattr(traceio, "_BLOCK_LINES", block_lines)
    grid = np.arange(-20.0, 1.0).reshape(7, 3) * 1.25
    grid[2, 1] = np.nan
    expected = [
        f"{98 + t},<{c}>,{'nan' if np.isnan(v) else repr(float(v))}"
        for t, row in enumerate(grid)
        for c, v in enumerate(row)
    ]
    assert grid_lines(grid, first_tick=98) == expected


def test_grid_of_no_cells_writes_nothing():
    assert grid_lines(np.empty((0, 3))) == []
    assert grid_lines(np.empty((4, 0))) == []
