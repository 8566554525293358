"""`format_values` against Python's repr, `write_grid`'s blocks, and the
trace reader's decimal routine against Python's float()."""

from __future__ import annotations

import io
import math
import re
from decimal import Decimal

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
    digit, or at the 17th: the 17- or 16-digit rounding of each is a tie.
    Decimal exponents 0 to 15, then -4 to -1."""
    rng = np.random.default_rng(22)
    values = []
    for e10 in range(16):
        for digits in (18, 17):
            k = digits - 1 - e10  # binary and decimal places of the fraction
            whole = rng.integers(10**e10, 10**(e10 + 1), count)
            odd = 2 * rng.integers(0, 2 ** (k - 1), count) + 1
            a = whole + odd / 2.0**k
            values.append(a[(a - whole) * 2.0**k == odd])  # those held exactly
    for e10 in range(-4, 0):
        for digits in (18, 17):
            k = digits - 1 - e10
            # odd / 2**k in [10**e10, 10**(e10 + 1)), exact as odd < 2**53
            low, high = -(-(2**k) // 10**-e10), 2**k // 10 ** (-e10 - 1)
            values.append((2 * rng.integers(low // 2, high // 2, count) + 1) / 2.0**k)
    return np.concatenate(values)


def test_matches_repr_on_edge_cases():
    assert_reprs(edge_cases())


def test_matches_repr_on_exact_ties():
    ties = exact_ties(2000)
    assert len(ties) > 50_000
    below_one = ties[ties < 1.0]
    assert len(below_one) == 16_000 and below_one.min() >= 1e-4
    assert_reprs(np.concatenate((ties, -ties)))


def test_matches_repr_below_one():
    # The fast range's lower decades, [1e-4, 1), where repr still writes
    # fixed notation with up to 20 decimals; below 1e-4 it switches to an
    # exponent. Image values mostly lie here.
    rng = np.random.default_rng(24)
    small = np.exp(rng.uniform(math.log(1e-4), 0.0, 100_000))
    values = [small, rng.uniform(1e-4, 1.0, 100_000), np.round(small, 4), np.round(small, 9)]
    edges = []
    for k in range(-5, 1):
        edges += neighbours(10.0**k) + neighbours(2.5 * 10.0**k)
    for k in range(-15, 1):
        edges += neighbours(2.0**k)
    values.append(np.array(edges))
    values = np.concatenate(values)
    assert_reprs(np.concatenate((values, -values)))


def test_values_below_one_mostly_take_the_fast_path(monkeypatch):
    # Only exact ties go through repr, and random doubles hold none; those
    # whose 16-digit rounding is odd and above 2**53, a leading 9007 or
    # more, are settled by the exact test.
    calls = []
    monkeypatch.setattr(traceio, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    values = np.random.default_rng(25).uniform(1e-4, 1.0, 10_000)
    assert_reprs(values)
    assert calls == []


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
    # Only values the exact tests cannot settle do: none between -100 and
    # -10 dBm, where from -100 to -90.07 dBm about half have a 16-digit
    # rounding that is odd and above 2**53.
    calls = []
    monkeypatch.setattr(traceio, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    rng = np.random.default_rng(23)
    assert_reprs(rng.uniform(-90.0, -10.0, 10_000))
    assert_reprs(rng.uniform(-100.0, -90.1, 10_000))
    assert calls == []


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


DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def read_decimals(fields: list[str], lead: bytes = b"9" * 24):
    """`_decimals` and `_short_decimals` on the fields, each after a comma
    as an RSSI field is, in a buffer that starts with `lead` and has room
    for the reader's gathers."""
    # Digits after the last field: the routine reads no byte outside a field.
    text = lead + b"".join(b"," + field.encode() for field in fields)
    buf = np.frombuffer(text + b"9" * 64, np.uint8).copy()
    sizes = np.array([len(field) for field in fields])
    ends = len(lead) + np.cumsum(sizes + 1)
    values, ok = traceio._decimals(buf, ends - sizes, ends)
    short = traceio._short_decimals(buf, ends, sizes)
    return values, ok, short


def assert_reads_as_float(fields: list[str], lead: bytes = b"9" * 24) -> np.ndarray:
    """The reader's decimal routine accepts exactly the fields of the grammar
    that are finite, and reads each bit for bit as float() does, the sign of
    a zero included. Returns whether each took the exact fast path."""
    values, ok, (short_values, simple, exact) = read_decimals(fields, lead)
    for i, field in enumerate(fields):
        accepted = len(field) <= 32 and DECIMAL.fullmatch(field) is not None and math.isfinite(float(field))
        assert ok[i] == accepted, field
        if accepted:
            assert values[i].tobytes() == np.float64(float(field)).tobytes(), field
        if exact[i]:
            assert short_values[i].tobytes() == np.float64(float(field)).tobytes(), field
        if simple[i]:
            assert re.fullmatch(r"-?[0-9]+(\.[0-9]+)?", field) and len(field.strip("-.")) <= 18, field
    return exact


EDGES = {
    # field: whether it takes the fast path
    "9007199254740992": True,  # 2**53
    "9007199254740993": False,
    "-900719925474099.2": True,
    "-900719925474099.3": False,
    "12345678901234567": False,  # 17 digits, above 2**53
    "9123456.789012345": False,
    "1234567.890123456": True,
    "-0.0000000000000001": True,  # 17 digits, 16 decimals
    "123456789012345678": False,  # 18 digits
    "-0.00000000000000001": False,
    "0.0000000000000000000001": False,  # 22 decimals
    "1.0000000000000000000000": False,
    "0.00000000000000000000001": False,  # 23
    "-1.00000000000000000000000": False,
    "007": True,
    "-000.5": True,
    "00000000000000061.25": False,
    "0000000000000000000000000000001.5": False,  # 33 characters
    "-0": True,
    "-0.0": True,
    "0": True,
    "0.0": True,
    "-61.25": True,
    "-61.234567890123456": False,
    "1.": False,
    ".5": False,
    "-": False,
    "": False,
    "-.5": False,
    "1..2": False,
    "1.2.3": False,
    "12.3.4": False,
    "-123.45.6": False,
    "12-3": False,
    "--1": False,
    "5e3": False,
    "-1.5E-3": False,
    "1e400": False,
    "1e": False,
    "1e+": False,
    "e5": False,
    "1e5e5": False,
    "1.e5": False,
    "1e5.5": False,
    "+1e5": False,
    "1E+05": False,
    "+1": False,
    " 1": False,
    "1_0": False,
    "1,5": False,
    "1\x002": False,
    "nan": False,
    "inf": False,
}


def test_decimals_read_as_float_on_edge_cases():
    fields = list(EDGES)
    exact = assert_reads_as_float(fields)
    assert dict(zip(fields, exact.tolist())) == EDGES
    # Each edge alone too, and first in a buffer: a window that would
    # start before the buffer is never read, and the field is cast.
    for field in fields:
        assert assert_reads_as_float([field]).tolist() == [EDGES[field]]
        assert assert_reads_as_float([field], lead=b"").tolist() == [False]


DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=24)
SIMPLE = st.builds(
    lambda sign, whole, part: sign + whole + ("" if part is None else "." + part),
    st.sampled_from(["", "-"]),
    DIGITS,
    st.none() | DIGITS,
)


@settings(max_examples=500, deadline=None)
@given(st.lists(SIMPLE | st.text(alphabet="0123456789.-eE+", max_size=26), min_size=1, max_size=40))
def test_decimals_read_as_float_on_any_text(fields):
    assert_reads_as_float(fields)


def test_decimals_read_every_simulated_rssi_as_float():
    # The RSSI of a 7-node directional run, as the writer writes it: the
    # fast path takes about 72%; the rest have a 17-digit mantissa above
    # 2**53 and are cast.
    from dataclasses import replace

    from rti.presets import los_7node
    from rti.simulator import simulate

    scenario, params = los_7node(3)
    trace, _ = simulate(replace(scenario, mode="directional"), params)
    values = trace.rssi[~np.isnan(trace.rssi)]
    assert len(values) > 200_000
    fields = [repr(v) for v in values.tolist()]
    read, ok, (_, simple, exact) = read_decimals(fields)
    assert ok.all() and simple.all()
    assert read.tobytes() == values.tobytes()
    assert 0.6 < exact.mean() < 0.85


# The exact read of 17-digit decimals: `_short_decimals` values every
# `-?D+(\\.D+)?` field of at most 17 digits, its mantissa above 2**53 or not,
# so none of these reaches numpy's cast.


def fixed17(value) -> str:
    """A value of 1 or more, below 10**17, rounded to 17 significant digits
    (ties to even) and written in fixed notation."""
    value = Decimal(value)
    return format(value.quantize(Decimal(1).scaleb(len(str(int(value))) - 17)), "f")


def shifted(text: str, step: int) -> str:
    """The decimal text with `step` added to its last digit, its point and
    its digit count kept (clipped at 0 and at all nines)."""
    digits = text.replace(".", "")
    point = len(text) - text.index(".") - 1 if "." in text else 0
    m = str(min(max(int(digits) + step, 0), 10 ** len(digits) - 1)).zfill(len(digits))
    return m[: len(m) - point] + ("." + m[len(m) - point :] if point else "")


def midpoint_texts(x: float) -> list[str]:
    """17-digit texts at the midpoints of x and each neighbour, and one unit
    off them in their last digit, in both signs."""
    texts = []
    for y in (np.nextafter(x, -math.inf), np.nextafter(x, math.inf)):
        middle = fixed17((Decimal(x) + Decimal(float(y))) / 2)
        texts += [shifted(middle, step) for step in (-1, 0, 1)]
    return [sign + text for text in texts for sign in ("", "-")]


def assert_read_exactly(fields: list[str]) -> None:
    """Each field is valued by `_short_decimals`, bit for bit as float()."""
    values, ok, (_, simple, _) = read_decimals(fields)
    assert ok.all() and simple.all()
    bad = [(f, v) for f, v in zip(fields, values.tolist()) if np.float64(v).tobytes() != np.float64(float(f)).tobytes()]
    assert not bad, bad[:10]


def test_decimals_read_17_digit_midpoints_exactly():
    # Each text rounds at the edge between two doubles, so a quotient one
    # ulp off reads wrong; all their mantissas lie above 2**53.
    rng = np.random.default_rng(32)
    values = np.concatenate((rng.uniform(10.0, 100.0, 2000), np.exp(rng.uniform(0.0, math.log(1e17), 2000))))
    fields = [text for x in values.tolist() for text in midpoint_texts(x)]
    assert all(len(f.strip("-").replace(".", "")) == 17 for f in fields)
    assert_read_exactly(fields)


def test_decimals_read_exactly_next_to_powers_of_two():
    # Below a power of two the doubles are twice as dense, so the interval
    # that rounds to it is narrower below than above.
    fields = []
    for k in (4, 5, 6, 7, 53, 54, 55, 56):
        for y in (np.nextafter(2.0**k, 0.0), 2.0**k, np.nextafter(2.0**k, math.inf)):
            fields += midpoint_texts(float(y)) + [fixed17(float(y)), "-" + fixed17(float(y))]
    assert_read_exactly(fields)


def test_decimals_read_exact_ties_to_even():
    # Integers above 2**53 midway between two doubles, of 16 digits (also
    # with a leading 0 or a trailing `.0`) and of 17: each rounds to the
    # neighbour with an even mantissa, down for some and up for others.
    ties = [2**53 + 1, 2**53 + 3, 2**54 + 2, 2**54 + 6, 2**55 + 4, 2**55 + 12, 10**16 + 1, 10**16 + 3]
    ties += [2**56 + 8, 2**56 + 24, 99999999999999992, 99999999999999976]
    for m in ties:
        x = float(m)
        assert abs(int(x) - m) * 2 == np.spacing(x)  # a tie
    up = [m for m in ties if float(m) > m]
    assert 0 < len(up) < len(ties)
    fields = [text for m in ties for text in (str(m), f"-{m}")]
    fields += [text for m in ties if m < 10**16 for text in (f"0{m}", f"{m}.0", f"-0{m}")]
    assert_read_exactly(fields)


def test_decimals_read_integers_above_2_53_exactly():
    m = np.random.default_rng(33).integers(2**53 + 1, 10**17, 20_000)
    assert_read_exactly([str(v) for v in m.tolist()] + [f"-{v}" for v in m[:2000].tolist()])


# A 17-digit text near a double's, off by up to 60 units in its last digit.
PERTURBED = st.builds(
    lambda x, step, sign: sign + shifted(fixed17(x), step),
    st.floats(min_value=1.0, max_value=9.9e16),
    st.integers(-60, 60),
    st.sampled_from(["", "-"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(PERTURBED, min_size=1, max_size=40))
def test_decimals_read_perturbed_17_digit_texts_exactly(fields):
    assert_read_exactly(fields)
