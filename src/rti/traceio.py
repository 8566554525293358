"""CSV serialisation of RSS traces and ground-truth tracks.

Trace files carry one row per reception attempt, tick-major, with `seq`
equal to the tick. Fields that do not apply to the stream are left empty
(channel on omni rows, direction columns on multichannel rows, RSSI on lost
packets). Floats are written as repr writes them, so a write/read cycle is
exact.

The reader is the trace's ingest check: every row must be well formed, its
stream must be one of its mode's kinds, the file must share one mode and one
transmit power, and every (tick, stream) cell must appear exactly once.

Grammar
-------
Both readers accept the writers' grammar and nothing looser:

- lines end in `\\r\\n` or `\\n`, the last one may lack its line end, and
  blank lines are skipped;
- fields are unquoted and separated by single commas; a trace row has 11;
- integers (tick, ids, channel, directions, seq) are `-?[0-9]+` with at most
  18 digits, so a tick always fits an int64;
- decimals (transmit power, RSSI, truth coordinates) are
  `-?[0-9]+(\\.[0-9]+)?([eE][-+]?[0-9]+)?` of at most 32 characters; `nan`,
  `inf`, `-inf` and decimals that overflow are rejected as non-finite;
- `received` is lowercase `true` or `false`.

Anything else, such as `-5_0.0`, ` 0`, `+0`, `"0"` or `TRUE`, is rejected
with a message naming the line and the field.

Reading in blocks
-----------------
`read_trace_file` reads the file into one reused buffer, in blocks of
256 KiB cut at line ends, and checks each block with array operations.
Once a block's rows were in exact stream order (each the cell tick *
streams + column after the one before), the next block's rows are expected
to continue it, and each is compared with its cell's text a word at a time:
the 8 bytes at any offset of the buffer are one element of a uint64 view
with a stride of one byte. The tick, `%d,` below 10**7, is one masked word
at the row's start and again where `seq` starts; the column's known span is
a few words taken by column from a table of every span's words and masks;
then come `true,` and a decimal or `false,`. A block with any row that
differs goes whole to the general path, the only one that adds streams or
raises: newline and comma positions give every field. Tick and `seq` are
`-?[0-9]{1,18}` when the digits inside the field, counted by byte class in
the digit loop that values them, are all its bytes but a leading `-`. Each
distinct tx_id..tx_power_dbm span is looked up once; the new ones are
parsed as arrays, their ids, channel and directions by that digit loop,
their power by the RSSI routine below, and their mode and kind code from
small tables (spans that parse to the same stream share a column). Only if
one is bad are they parsed one at a time, in file order, up to it. A line
longer than the longest well-formed row is rejected once that many of its
bytes are read. The first row in file order that breaks a rule is worded
by one scalar row check.

Both paths read the received field and its RSSI by one routine, which
matches `true,` or `false,` as one little-endian word. An RSSI field
`-?D+(\\.D+)?` of at most 17 digits is checked by byte classes in the 24
bytes that end where it ends, which also give its digits as one integer,
eight digits a word by SWAR arithmetic: a few whole-array steps a block,
where a loop over the digit columns cost more than the cast it would save.
With that mantissa m at most 2**53, m / 10**k (k decimals) is float()'s
value bit for bit (Clinger's fast path): about 72% of simulated RSSI.
Above 2**53 the quotient c is within two ulps of it, and exact int64
arithmetic compares m - c * 10**k with half an ulp of c times 10**k (a
quarter below a power of two) to step c to the nearest double, ties to
even. Only other forms, such as exponents or more than 17 digits, are
cast by numpy once byte classes pass them: a valid file makes no Python
call per field.

Each block's rows are then scattered straight into one (ticks, streams)
RSSI array, beside an array of the line of each cell's first row. That
line names the earlier row of a repeated cell, and the cells never seen
give the first missing one. Both arrays are sized once the first tick is
complete, from its stream count and the file's size, and grow only for a
stream first heard later or a file longer than that estimate. A tick beyond
what a file of its size can hold complete is set aside, never sized for. A
pipe, which has no size, is read from a temporary copy.

Writing
-------
Every CSV artefact goes through `write_grid`: the trace and truth here,
`stats.csv`, `trajectory.csv` and the image CSVs elsewhere. It writes one
line per cell of a (ticks, columns) array, or of a (ticks, columns, k) one
of k values a cell, in blocks of at most 3,072 lines (whole ticks, or part
of one), each a NUL-padded (lines, width) byte array written without the
NULs. Floats come from `format_values`, which gives repr's text without a
Python call per value. For a finite x with 1e-4 <= |x| < 1e16 it finds the
shortest decimal that reads back as x with exact integer and double
arithmetic: Dekker's TwoProduct for the 17-digit mantissa, and one
correctly rounded division as the read-back test of each shorter one, or
the reader's exact test for a 16-digit candidate that is odd and above
2**53, so no double. Every other value, and each whose 17- or 16-digit
rounding is an exact tie, goes through repr: no simulated RSSI, and none
of 10,000 values spread evenly over [1e-4, 1). On a 160-tick, 1,512-stream
trace the writer peaks at about 0.41x the RSSI array under tracemalloc,
with two ticks a block.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import tempfile
from pathlib import Path
from stat import S_ISREG

import numpy as np

from .geometry import NUM_DIRECTIONS, PATTERN_PAIRS
from .linkstats import MODES, VALID_CHANNELS, RssTrace, format_stream, stream_kinds

TRACE_HEADER = [
    "tick",
    "tx_id",
    "rx_id",
    "mode",
    "channel",
    "tx_dir",
    "rx_dir",
    "tx_power_dbm",
    "seq",
    "received",
    "rssi_dbm",
]

TRUTH_HEADER = ["tick", "x", "y"]

_BLOCK_BYTES = 1 << 18
_INT_DIGITS = 18
_FLOAT_CHARS = 32
# No well-formed tx_id..tx_power_dbm span is longer: five signed integers,
# the longest mode, a decimal and six commas.
_SPAN_CHARS = 5 * (1 + _INT_DIGITS) + max(map(len, MODES)) + _FLOAT_CHARS + 6
# Nor a line, without its `\n`: seven signed integers, the longest mode, two
# decimals, `false`, ten commas and a `\r`.
_LINE_BYTES = 7 * (1 + _INT_DIGITS) + max(map(len, MODES)) + 2 * _FLOAT_CHARS + 5 + 10 + 1
_LONG_LINE = f"longer than {_LINE_BYTES} bytes, the most a well-formed row takes"
# Nor a truth line: a signed integer, two decimals, two commas and a `\r`.
_TRUTH_LINE_BYTES = 1 + _INT_DIGITS + 2 * _FLOAT_CHARS + 2 + 1
_LONG_TRUTH_LINE = f"longer than {_TRUTH_LINE_BYTES} bytes, the most a well-formed row takes"
# Nor is a row shorter than this one.
_SHORTEST_ROW = len(b"0,0,0,omni,,,,0,0,false,\n")
_NON_FINITE = ("nan", "inf", "-inf")
_NL, _CR, _COMMA, _MINUS = b"\n\r,-"
_TRUE_COMMA, _FALSE_COMMA = (int.from_bytes(word, "little") for word in (b"true,", b"false,"))


class TraceParseError(ValueError):
    """A trace or truth file does not follow the expected format."""


# The scalar checks match these patterns, as `_decimals` does once numpy's
# cast refuses a field; the array checks use byte classes.
_INTEGER_TEXT = re.compile(r"-?[0-9]+")
_DECIMAL_TEXT = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")
# The bytes of a decimal in any of its forms.
_DECIMAL_BYTE = np.frombuffer(bytes(byte in b"0123456789.eE+-" for byte in range(256)), bool)


def _integer(text: str, what: str) -> int:
    if len(text.removeprefix("-")) <= _INT_DIGITS and _INTEGER_TEXT.fullmatch(text):
        return int(text)
    raise ValueError(
        f"{what} must be an integer of at most {_INT_DIGITS} digits, got {text!r}"
    )


def _finite(text: str, what: str) -> float:
    if text in _NON_FINITE or (len(text) <= _FLOAT_CHARS and _DECIMAL_TEXT.fullmatch(text)):
        value = float(text)
        if math.isfinite(value):
            return value
        raise ValueError(f"non-finite {what} {text!r}")
    raise ValueError(
        f"{what} must be a decimal of at most {_FLOAT_CHARS} characters, got {text!r}"
    )


def _check_header(head: bytes, path: Path, expected: list[str], what: str) -> None:
    if not head:
        raise TraceParseError(f"{path}: empty {what} file")
    header = _split(head)
    if header != expected:
        raise TraceParseError(f"{path}: bad header {header!r}, expected {expected!r}")


def _split(line: bytes) -> list[str]:
    """Fields of one line without its line end; none for a blank line."""
    line = line.removesuffix(b"\n").removesuffix(b"\r")
    return line.decode(errors="replace").split(",") if line else []


# Lines a writer assembles at a time (two ticks of a 7-node directional
# trace); its arrays peak at about 260 bytes a line.
_BLOCK_LINES = 3072
_POW10 = 10.0 ** np.arange(23)  # each one exact
# 1e-4..0.1 each round up: a double is at least one iff at least its power.
_DECADES = np.concatenate(([1e-4, 1e-3, 1e-2, 0.1], _POW10[:17]))
_INT_POW10 = 10 ** np.arange(19, dtype=np.int64)
_TWO53 = 2**53
_ONE_UP = np.nextafter(1.0, 2.0)
_VELTKAMP = 2.0**27 + 1
# Text words: each 4-digit group, then a sign, a point and nothing.
_WORDS = np.concatenate(
    (
        np.arange(10_000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10 + 48,
        np.frombuffer(b"\0\0\0-" + b"\0\0\0." + b"\0" * 4, np.uint8).reshape(3, 4),
    )
).astype(np.uint8).view(np.uint32)[:, 0]
_MINUS_WORD, _POINT_WORD, _NO_WORD = 10_000, 10_001, 10_002
# A formatted value is eleven words: the sign, four of integer digits, the
# point and five of decimals, all right-aligned, as bytes padded with NUL. A
# repr, at most 24 characters, fits as well.
_VALUE_CHARS = 44
# Masks of those eleven words, by the count of integer digits (0-16) and
# decimals (0-20): the digits they keep, and the 0 of `x.0`. The last row
# blanks a value written some other way.
_KEEP = np.frombuffer(
    b"".join(
        b"\xff" * 4
        + b"\0" * (16 - whole) + b"\xff" * whole
        + b"\xff" * 4
        + b"\0" * (20 - max(part, 1)) + b"\xff" * max(part, 1)
        for whole in range(17)
        for part in range(21)
    )
    + b"\0" * _VALUE_CHARS,
    np.uint32,
).reshape(17 * 21 + 1, 11)
_BLANK = 17 * 21


def _put_quads(words: np.ndarray, n: np.ndarray) -> None:
    """Put the four 4-digit groups of each int64 n < 10**16, most
    significant first, in the four columns of `words`."""
    high = n // 100_000_000
    for k, half in enumerate((high, n - high * 100_000_000)):
        np.floor_divide(half, 10_000, out=words[:, 2 * k])
        words[:, 2 * k + 1] = half - words[:, 2 * k] * 10_000


def _halves(v: np.ndarray):
    """Veltkamp's split of v into two halves of 26 bits each."""
    t = v * _VELTKAMP
    high = t - (t - v)
    return high, v - high


def _two_product(a: np.ndarray, b: np.ndarray):
    """a * b as product + err exactly: Dekker's TwoProduct, as numpy has no
    fused multiply-add."""
    product = a * b
    a_high, a_low = _halves(a)
    b_high, b_low = _halves(b)
    err = ((a_high * b_high - product) + a_high * b_low + a_low * b_high) + a_low * b_low
    return product, err


def _round(m: np.ndarray, up: np.ndarray, unit: int):
    """m + r rounded to a multiple of `unit` (a power of ten), in units, and
    whether its remainder is exactly half a unit (a tie, if r is 0); m + r
    is exact, |r| <= 0.5 and `up` is r > 0."""
    head = m // unit
    twice = 2 * (m - head * unit)
    return head + (twice + up > unit), twice == unit


def _shortest(a: np.ndarray):
    """Mantissa, decimal count and decimal exponent of the shortest decimal
    that reads back as each a, 1e-4 <= a < 1e16, and whether the exact tests
    settled it.

    a * 10**(16 - e10) is held exactly as m + r, m its 17-digit mantissa;
    the scale is at most 10**20, still an exact double. The candidate with j
    digits fewer is m + r rounded at 10**j. If it is a double (at most
    2**53, or even below 2**54), it reads back as a iff its one correctly
    rounded division by a power of ten gives a; an odd 16-digit candidate
    above 2**53 is tested by `_side`. A value is left unsettled when m + r
    or its 16-digit rounding is an exact tie.

    A shorter candidate reads back only if every longer one does. From two
    digits fewer on, no test is needed: the interval that reads back as a is
    less than 23 units of m wide, so once a candidate of j >= 2 digits fewer
    reads back, the next does iff it is the same number with a trailing 0
    dropped."""
    e10 = np.searchsorted(_DECADES, a, "right") - 5  # 10**e10 <= a
    scale = _POW10.take(16 - e10)
    product, err = _two_product(a, scale)
    step = np.rint(err)
    r = err - step  # in [-0.5, 0.5], exactly
    m = product.astype(np.int64) + step.astype(np.int64)
    del product, err, step

    up = r > 0
    one, half = _round(m, up, 10)
    one_unsure = half & (r == 0)
    one_back = ~one_unsure & (one / (scale / 10) == a)
    # An odd integer above 2**53 is not a double: `_side` tests it exactly.
    odd = np.flatnonzero(~one_unsure & (one > _TWO53) & (one % 2 == 1))
    if odd.size:
        one_back[odd] = _side(one.take(odd), 15 - e10.take(odd), a.take(odd).view(np.int64)) == 0
    # A tie two digits shorter is 50 units from either candidate: it fails.
    two = _round(m, up, 100)[0]
    two_back = one_back & (e10 <= 14) & (two / (scale / 100) == a)
    settled = (np.abs(r) != 0.5) & ~one_unsure
    mantissa = np.where(one_back, one, m)
    decimals = 16 - e10 - one_back
    more = np.flatnonzero(two_back)
    if more.size:
        two = two.take(more)
        zeros = (two[:, None] % _INT_POW10[1:15] == 0).sum(axis=1)
        zeros = np.minimum(zeros, 14 - e10.take(more))  # x.0 keeps its point
        mantissa[more] = two // _INT_POW10.take(zeros)
        decimals[more] -= 1 + zeros
    return mantissa, decimals, e10, settled


def format_values(values) -> np.ndarray:
    """repr of each float64, as rows of an (n, 44) uint8 array padded with
    NUL: row i without its NULs is the ASCII text of repr(values[i]). NaN,
    which stands for no value, gets no text.

    Values with 1e-4 <= |x| < 1e16 are formatted by `_shortest` in fixed
    notation, as repr writes them there, with up to 16 integer digits and
    20 decimals. Every other value, and each one the exact tests leave
    unsettled, goes through repr itself."""
    x = np.asarray(values, np.float64).reshape(-1)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    # Others are formatted as 1.0000000000000002, which stops at 17 digits.
    a = np.where(fast, a, _ONE_UP)
    mantissa, decimals, e10, settled = _shortest(a)
    settled &= fast
    keep = np.where(settled, np.maximum(e10 + 1, 1) * 21 + decimals, _BLANK)

    # The shortest decimal and a have the same integer part: an integer
    # between them would read back as itself. A value of 1 or more has at
    # most 16 decimals.
    whole = a.astype(np.int64)
    part = mantissa - whole * _INT_POW10.take(np.minimum(decimals, 16))
    # Arrays are dropped once used: this is where the trace writer peaks.
    del mantissa, decimals, e10
    words = np.empty((len(x), 11), np.intp)
    words[:, 0] = np.where(x < 0, _MINUS_WORD, _NO_WORD)
    _put_quads(words[:, 1:5], whole)
    words[:, 5] = _POINT_WORD
    np.floor_divide(part, 10**16, out=words[:, 6])
    _put_quads(words[:, 7:], part - words[:, 6] * 10**16)
    del whole, part
    text = _WORDS.take(words)
    del words
    text &= _KEEP.take(keep, axis=0)
    out = text.view(np.uint8)
    slow = np.flatnonzero(~settled & ~np.isnan(x))
    if slow.size:
        reprs = np.array([repr(v) for v in x[slow].tolist()], np.bytes_)
        out[slow, : reprs.itemsize] = reprs.view(np.uint8).reshape(len(slow), -1)
    return out


def text_table(texts) -> np.ndarray:
    """The ASCII texts, from any iterable, as rows of a (len, width) uint8
    array padded with NUL."""
    table = np.array([text.encode() for text in texts], np.bytes_)
    return table.view(np.uint8).reshape(len(table), table.itemsize)


def write_grid(fh, grid: np.ndarray, fields, first_tick: int = 0) -> None:
    """Write one line per cell of `grid`, a (ticks, columns) float array or
    a (ticks, columns, k) one of k values a cell, tick-major, to the binary
    file `fh`.

    `fields` are a line's parts in order, joined as they are:
    - bytes: the same text on every line;
    - "tick": the cell's tick, first_tick plus its row;
    - "value": repr of the cell's next value, nothing for NaN;
    - a (columns, width) `text_table`: the text of each column;
    - a tuple of two str: the first if the next value is a number, else the second.

    A cell must have one value per "value" field, or ValueError is raised.
    Lines are assembled in blocks of at most `_BLOCK_LINES` (whole ticks,
    or part of one), as one NUL-padded (lines, width) byte array, and
    written without the NULs."""
    grid = np.atleast_3d(grid)
    ticks, columns, count = grid.shape
    wanted = sum(field == "value" for field in fields if isinstance(field, str))
    if count != wanted:
        raise ValueError(f"cells of {count} values for {wanted} value fields")
    if not grid.size:
        return
    per_tick = max(1, _BLOCK_LINES // columns)
    span = min(columns, _BLOCK_LINES)
    tables = [
        np.frombuffer(f, np.uint8) if isinstance(f, bytes)
        else text_table(f) if isinstance(f, tuple)
        else f if isinstance(f, np.ndarray)
        else None
        for f in fields
    ]
    for t0 in range(0, ticks, per_tick):
        tick = text_table(str(first_tick + t) for t in range(t0, min(t0 + per_tick, ticks)))[:, None]
        sizes = [
            table.shape[-1] if table is not None else tick.shape[-1] if field == "tick" else _VALUE_CHARS
            for field, table in zip(fields, tables)
        ]
        for c0 in range(0, columns, span):
            block = grid[t0 : t0 + per_tick, c0 : c0 + span]
            text = format_values(block).reshape(block.shape + (_VALUE_CHARS,))
            missing = np.isnan(block).view(np.uint8)
            lines = np.empty(block.shape[:2] + (sum(sizes),), np.uint8)
            at = value = 0
            for field, table, size in zip(fields, tables, sizes):
                part = lines[..., at : at + size]
                if isinstance(field, bytes):
                    part[...] = table
                elif isinstance(field, np.ndarray):
                    part[...] = table[c0 : c0 + span]
                elif isinstance(field, tuple):
                    part[...] = table.take(missing[..., value], axis=0)
                elif field == "tick":
                    part[...] = tick
                else:
                    part[...] = text[..., value, :]
                    value += 1
                at += size
            del text, missing
            fh.write(lines[lines != 0])


def write_trace_file(path, trace: RssTrace) -> None:
    # Every field is a number or a mode name, so none needs quoting.
    kinds = stream_kinds(trace.mode, VALID_CHANNELS)
    texts = [",".join("" if field is None else str(field) for field in kind) for kind in kinds]
    streams = text_table(
        f"{tx},{rx},{trace.mode},{texts[code]},{trace.tx_power_dbm!r},"
        for (tx, rx), code in zip(trace.links.tolist(), trace.kinds.tolist())
    )
    with open(path, "wb") as fh:
        fh.write(",".join(TRACE_HEADER).encode() + b"\r\n")
        fields = ["tick", b",", streams, "tick", (",true,", ",false,"), "value", b"\r\n"]
        write_grid(fh, trace.rssi, fields)


def _parse_stream(fields: list[str]) -> tuple[str, float, tuple[int, int, int]]:
    """Mode, transmit power and (tx_id, rx_id, kind code) of a row's seven
    fields from tx_id to tx_power_dbm; the kind must be one of the mode's."""
    tx, rx, mode, *kind, power = fields
    power = _finite(power, "tx power")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    link = (_integer(tx, "tx_id"), _integer(rx, "rx_id"))
    kind = channel, tx_dir, rx_dir = tuple(
        None if text == "" else _integer(text, what) for text, what in zip(kind, TRACE_HEADER[4:7])
    )
    has_pattern = tx_dir is not None or rx_dir is not None
    if channel is not None and has_pattern:
        raise ValueError("a stream cannot carry both channel and pattern fields")
    if channel is not None and channel not in VALID_CHANNELS:
        raise ValueError(f"channel {channel} outside supported set {VALID_CHANNELS}")
    if has_pattern and (tx_dir is None or rx_dir is None):
        raise ValueError("pattern streams need both tx_dir and rx_dir")
    if has_pattern and not (1 <= tx_dir <= NUM_DIRECTIONS and 1 <= rx_dir <= NUM_DIRECTIONS):
        raise ValueError(f"pattern directions must be in [1, {NUM_DIRECTIONS}]")
    own = "multichannel" if channel is not None else "directional" if has_pattern else "omni"
    if own != mode:
        raise ValueError(f"{format_stream(link, kind)} is not a stream of mode {mode!r}")
    code = PATTERN_PAIRS.index(kind[1:]) if has_pattern else stream_kinds(mode, VALID_CHANNELS).index(kind)
    return mode, power, (*link, code)


def _where(stream: str | None, tick: int | None) -> str:
    parts = [stream] if stream is not None else []
    if tick is not None:
        parts.append(f"tick {tick}")
    return " ".join(parts) + ": " if parts else ""


class _Streams:
    """The streams met so far: a column per (tx_id, rx_id, kind code), by
    the raw bytes of each distinct tx_id..tx_power_dbm span, and the cell
    (tick * streams + column) that the next row is expected at once a block
    was read in exact stream order."""

    def __init__(self) -> None:
        self.columns: dict[tuple[int, int, int], int] = {}
        self.known: dict[bytes, int] = {}
        self.spans: list[bytes] = []  # each column's first span, with its comma
        self.first: tuple[str, float] | None = None  # the first row's mode and tx power
        self.next: int | None = None  # the cell the next block is expected at
        self.table = None  # `_span_table` of `spans`, made when next needed

    def add(self, span: bytes, mode: str, power: float, key: tuple[int, int, int]) -> int:
        if self.first is None:
            self.first = (mode, power)
        elif (mode, power) != self.first:
            raise ValueError(
                f"mode {mode!r} and tx power {power!r} differ from "
                f"the first row's {self.first[0]!r} and {self.first[1]!r}"
            )
        if key not in self.columns:
            self.spans.append(span + b",")
            self.table = None
        self.known[span] = column = self.columns.setdefault(key, len(self.columns))
        return column

    def name(self, column: int) -> str:
        key = list(self.columns)[column]
        return format_stream(key, stream_kinds(self.first[0], VALID_CHANNELS)[key[2]])

    def expected(self, buf: np.ndarray, starts, ends):
        """Tick, column and RSSI of rows buf[starts:ends] that continue the
        expected stream order, each the text of its cell exactly: the tick,
        the column's known span, the tick as `seq`, then `true,` and a
        decimal or `false,`. None if any row is not, or if a tick takes
        more than one word."""
        if not 0 <= self.next < 2**62 - len(starts):  # cells that fit an int64
            return None
        tick, column = divmod(self.next + np.arange(len(starts)), len(self.columns))
        t0, t1 = int(tick[0]), int(tick[-1])
        if t1 >= 10**7:  # `%d,` is longer than a word
            return None
        if self.table is None:
            self.table = _span_table(self.spans)
        span_words, span_masks, span_sizes = self.table
        # The text, mask and size of each row's tick, by its offset from t0.
        texts = [b"%d," % t for t in range(t0, t1 + 1)]
        offset = tick - t0
        tick_word = np.array([int.from_bytes(t, "little") for t in texts], np.uint64).take(offset)
        tick_mask = np.array([(1 << 8 * len(t)) - 1 for t in texts], np.uint64).take(offset)
        tick_size = np.array([len(t) for t in texts]).take(offset)
        span_at = starts + tick_size
        seq_at = span_at + span_sizes.take(column)
        received_at = seq_at + tick_size
        # `false,` and nothing, or `true,` and a decimal: every word below
        # then ends within a span's width of the row.
        if not (ends - received_at >= 6).all():
            return None
        words = _word_view(buf)
        ok = (words[starts] & tick_mask) == tick_word
        ok &= (words[seq_at] & tick_mask) == tick_word
        for j in range(len(span_words)):
            ok &= (words[span_at + 8 * j] & span_masks[j].take(column)) == span_words[j].take(column)
        if not ok.all():
            return None
        values, ok = _received(buf, received_at, ends)
        if not ok.all():
            return None
        self.next += len(starts)
        return tick, column.astype(np.int32), values

    def columns_of(self, buf: np.ndarray, at) -> tuple[np.ndarray, int]:
        """Column of each row's span, from after its first comma to its
        eighth (its ten commas are a row of `at`), and the first row whose
        span is bad (len(at) if none); later rows get no column.

        Spans are padded with commas to one width before `np.unique`: a
        span holds exactly six, so padded spans are equal only if the spans
        are. A known span ends in its tx power's last digit, so it is its
        padded text without the trailing commas. New spans are parsed as
        arrays by `_parse_spans`; only if one is bad are they parsed one at
        a time, in file order, up to the first bad one."""
        starts, ends = at[:, 0] + 1, at[:, 7]
        sizes = ends - starts
        width = min(int(sizes.max()), _SPAN_CHARS + 1)
        text = np.where(np.arange(width) < sizes[:, None], _gather(buf, starts, width), _COMMA)
        spans, first, inverse = np.unique(
            text.view(f"V{width}").ravel(), return_index=True, return_inverse=True
        )
        padded = spans.tobytes()
        columns = np.array(
            [self.known.get(padded[i : i + width].rstrip(b","), -1) for i in range(0, len(padded), width)],
            np.int32,
        )
        new = np.flatnonzero(columns < 0)
        new = new[np.argsort(first[new])]  # in file order
        rows = first[new]
        parsed = self._parse_spans(buf, at[rows]) if new.size else None
        stop = len(starts)
        for i, (k, row) in enumerate(zip(new.tolist(), rows.tolist())):
            span = buf[starts[row] : ends[row]].tobytes()
            try:
                if parsed:
                    mode, power, keys = parsed
                    columns[k] = self.add(span, mode, power, keys[i])
                else:
                    columns[k] = self.add(span, *_parse_stream(span.decode(errors="replace").split(",")))
            except ValueError:
                stop = row
                break
        return columns[inverse], stop

    def _parse_spans(self, buf: np.ndarray, at):
        """The mode, tx power and (tx_id, rx_id, kind code) keys that
        `_parse_stream` gives the spans of the rows whose commas are `at`,
        if every one is a stream of the mode and tx power of the file's
        first row (or else of the first span); else None. Ids, channels and
        directions are `_integers`, the power is `_decimals`, and each
        kind's code is looked up in a table of the mode's kinds."""
        mode, power = self.first or (buf[at[0, 2] + 1 : at[0, 3]].tobytes().decode(errors="replace"), None)
        if mode not in MODES:
            return None
        fields = [0, 1, 3, 4, 5]  # tx_id, rx_id, channel, tx_dir, rx_dir
        ints, ok = _integers(buf, (at[:, fields] + 1).T.ravel(), at[:, [f + 1 for f in fields]].T.ravel())
        (tx, rx, *kind_fields), ok = ints.reshape(5, len(at)), ok.reshape(5, len(at))
        powers, good = _decimals(buf, at[:, 6] + 1, at[:, 7])
        power = powers[0] if power is None else power
        name = np.frombuffer(mode.encode(), np.uint8)
        good &= ok[0] & ok[1] & (powers == power) & (at[:, 3] - at[:, 2] - 1 == len(name))
        good &= (_gather(buf, at[:, 2] + 1, len(name)) == name).all(axis=1)
        # A kind field is slot 0 if empty, else its value + 1, or `top` if
        # that is no field of any of the mode's kinds.
        kinds = stream_kinds(mode, VALID_CHANNELS)
        top = max(v or 0 for kind in kinds for v in kind) + 2
        slots = []
        for f, value, field_ok in zip(fields[2:], kind_fields, ok[2:]):
            known = field_ok & (value >= 0) & (value < top - 1)
            slots.append(np.where(at[:, f + 1] == at[:, f] + 1, 0, np.where(known, value + 1, top)))
        codes = np.full((top + 1,) * 3, -1)
        for code, kind in enumerate(kinds):
            codes[tuple(0 if v is None else v + 1 for v in kind)] = code
        codes = codes[tuple(slots)]
        if not (good & (codes >= 0)).all():
            return None
        return mode, float(power), list(zip(tx.tolist(), rx.tolist(), codes.tolist()))

    def row_error(self, line: bytes) -> str:
        """The message for a flagged row, given without its `\\n`: the first
        rule it breaks, with its stream and tick where they are known."""
        if len(line) > _LINE_BYTES:
            return _LONG_LINE
        row = _split(line)
        if len(row) != len(TRACE_HEADER):
            return f"expected {len(TRACE_HEADER)} fields, got {len(row)}"
        stream = tick = None
        try:
            tick = _integer(row[0], "tick")
            mode, power, key = _parse_stream(row[1:8])
            stream = format_stream(key, stream_kinds(mode, VALID_CHANNELS)[key[2]])
            self.add(",".join(row[1:8]).encode(), mode, power, key)
            if tick < 0:
                raise ValueError("negative tick")
            if row[9] not in ("true", "false"):
                raise ValueError(f"received must be true or false, got {row[9]!r}")
            if row[9] == "true":
                if not row[10]:
                    raise ValueError("received row without rssi")
                _finite(row[10], "rssi")
            elif row[10]:
                raise ValueError("lost row must not carry rssi")
            if _integer(row[8], "seq") != tick:
                raise ValueError(f"seq {row[8]} differs from the tick")
        except ValueError as exc:
            return f"{_where(stream, tick)}{exc}"
        raise AssertionError(f"row {line!r} was flagged but breaks no rule")


def _span_table(spans: list[bytes]):
    """Each text of `spans`, none with a NUL, as little-endian 8-byte words
    padded with NUL, the masks of their bytes, both as (words, texts) uint64
    arrays, and the texts' sizes."""
    table = np.array(spans, np.bytes_)
    table = table.view(np.uint8).reshape(len(spans), table.itemsize)
    table = np.pad(table, ((0, 0), (0, -table.shape[1] % 8)))
    used = table != 0
    words = table.view("<u8").T.copy()
    masks = used.view("<u8").T * np.uint64(0xFF)
    return words, masks, used.sum(axis=1)


def _word_view(buf: np.ndarray) -> np.ndarray:
    """The 8 bytes from each offset of buf as one little-endian uint64."""
    return np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))


def _gather(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes from each start, one row each."""
    width = max(width, 1)
    return np.ndarray((len(buf) - width + 1, width), np.uint8, buf, strides=(1, 1))[starts]


def _integers(buf, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """Values of the integer fields buf[starts:ends], and whether each is
    `-?[0-9]{1,18}`: the digits inside the field, counted by byte class in
    the loop that values them, are all its bytes but a leading `-`. Values
    of fields that are not are meaningless."""
    sizes = ends - starts
    text = _gather(buf, starts, min(int(sizes.max()), _INT_DIGITS + 1))
    negative = text[:, 0] == _MINUS
    value, digits = np.zeros((2, len(text)), np.int64)
    for j in range(text.shape[1]):
        digit = (text[:, j] - np.uint8(ord("0")) < 10) & (j < sizes)
        digits += digit
        value = np.where(digit, value * 10 + text[:, j] - ord("0"), value)
    ok = (digits >= 1) & (digits <= _INT_DIGITS) & (digits + negative == sizes)
    return np.where(negative, -value, value), ok


# An RSSI field `-?D+(\\.D+)?` of at most 17 digits (and a sign and a point)
# is read from the 24 bytes, three words, that end where it ends.
_WINDOW = 24
_FIELD = np.arange(_WINDOW - 1, -1, -1) < np.arange(_WINDOW + 1)[:, None]  # the last s bytes, by s
_SWAR = ((8, 10, 0x00FF_00FF_00FF_00FF), (16, 100, 0x0000_FFFF_0000_FFFF), (32, 10_000, 0xFFFF_FFFF))


def _number(table: np.ndarray) -> np.ndarray:
    """What each row of a (rows, 24) uint8 table of digit values (not ASCII)
    writes, modulo 2**64: eight digits a word, by SWAR arithmetic."""
    words = table.view("<u8")
    for shift, scale, mask in _SWAR:
        words = ((words >> shift) + words * scale) & mask
    return (words[:, 0] * 10**8 + words[:, 1]) * 10**8 + words[:, 2]


def _count(mask: np.ndarray) -> np.ndarray:
    """The True bytes of each row of a (rows, 24) boolean mask."""
    words = mask.view("<u8")
    return ((words[:, 0] + words[:, 1] + words[:, 2]) * 0x0101_0101_0101_0101 >> 56).astype(np.int64)


def _short_decimals(buf, ends, sizes):
    """Values of the decimal fields of `sizes` bytes that end at `ends`;
    whether each is `-?D+(\\.D+)?` of at most 17 digits, and then valued as
    float() values it; and whether its mantissa m is at most 2**53. The
    digits write x, the point read as a 0, and m is x without the point.
    For m at most 2**53, m / 10**k for k decimals, one correctly rounded
    division of exact doubles, is float()'s value (Clinger's fast path);
    above it, `_nearest` corrects that quotient."""
    text = _gather(buf, np.maximum(ends - _WINDOW, 0), _WINDOW)
    shown = np.minimum(sizes, _WINDOW)  # the field's bytes in its window
    # Its first byte there, as an index into the flattened windows.
    negative = text.reshape(-1).take(np.arange(_WINDOW, text.size + 1, _WINDOW) - np.maximum(shown, 1)) == _MINUS
    field = _FIELD.take(shown, axis=0)
    point = (text == ord(".")) & field
    text -= np.uint8(ord("0"))
    digit = (text < 10) & field
    text *= digit
    digits, points = _count(digit), _count(point)
    del field, digit
    x = _number(text).astype(np.int64)
    # A lone point k bytes before the end has the mask 2**(8 * (23 - k)),
    # held exactly by a double across the three words.
    mask = point.view("<u8").astype(np.float64) @ np.array([1.0, 2.0**64, 2.0**128])
    k = _WINDOW - 1 - ((mask.view(np.int64) >> 52) - 1023 >> 3)
    del text, point
    simple = (
        (ends >= _WINDOW) & (digits >= 1) & (digits <= 17) & (digits + points + negative == sizes)
        # at most one point, with digits on both sides
        & ((points == 0) | ((points == 1) & (k >= 1) & (k < digits)))
    )
    k[~simple | (points == 0)] = 0
    scale = _INT_POW10.take(k)
    below = x % scale
    mantissa = np.where(k > 0, (x - below) // 10 + below, x)
    values = mantissa / scale
    clinger = mantissa <= _TWO53
    big = np.flatnonzero(simple & ~clinger)
    if big.size:
        values[big] = _nearest(mantissa.take(big), k.take(big), values.take(big))
    np.negative(values, out=values, where=negative)
    return values, simple, simple & clinger


def _nearest(m: np.ndarray, k: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The double nearest each m / 10**k, ties to even, for 2**53 < m <
    10**17 and k <= 16, given c = m / 10**k as numpy divides it: within two
    ulps, so a step or two by `_side` reaches it."""
    bits = c.view(np.int64)
    step = _side(m, k, bits)
    moved = np.flatnonzero(step)
    step = step.take(moved)
    while moved.size:
        bits[moved] += step  # the next double up or down: c > 0
        step = _side(m.take(moved), k.take(moved), bits.take(moved))
        keep = np.flatnonzero(step)
        moved, step = moved.take(keep), step.take(keep)
    return c


_FRACTION = (1 << 52) - 1


def _side(m: np.ndarray, k: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Where each m / 10**k lies against the positive normal double c whose
    bits are `bits`: 1 above the interval that rounds to c, -1 below it, 0
    in it (a tie goes to the even double).

    With c = f * 2**e, f of 53 bits, and t = e + k, the difference m - c *
    10**k is m * 2**(4 - t) - f * 5**k * 16 in units of 2**(t - 4), and half
    an ulp of c is 8 * 5**k of them, a quarter below a power of two. Those
    are int64 arithmetic that wraps, so they are exact while t <= 4 and the
    difference is below 2**62 units: both hold for a quotient within a few
    ulps of c, k <= 19 and m < 2**57."""
    fraction = bits & _FRACTION
    p5 = (5 ** np.arange(20, dtype=np.int64)).take(k)
    d = (m << (1079 - k - (bits >> 52))) - ((fraction | 1 << 52) * p5 << 4)
    odd = bits & 1
    half = p5 << 3
    above = d + odd > half
    below = d - odd < -(half >> (fraction == 0))
    return above.view(np.int8) - below.view(np.int8)


def _decimals(buf, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """Values of the RSSI fields buf[starts:ends], and whether each follows
    the grammar and is finite; values of fields that do not are meaningless.
    Fields `_short_decimals` does not value, such as exponents or more than
    17 digits, are cast by numpy, which reads what float() reads. Byte
    classes first refuse what float() reads but the grammar does not: a byte
    other than a digit, `.`, `e`, `E`, `+` or `-` (so `_`, spaces, `inf` and
    `nan`), a leading `+`, and a point without a digit on each side. Such a
    field is cast as "0", and the cast raises on the rest, such as `1e`,
    `1e5e5` or `--1`; only then is each field checked and read apart."""
    sizes = ends - starts
    values, ok, _ = _short_decimals(buf, ends, sizes)
    rest = np.flatnonzero(~ok)
    if rest.size:
        sizes = sizes[rest]
        text = _gather(buf, starts[rest], min(int(sizes.max()), _FLOAT_CHARS + 1))
        field = np.arange(text.shape[1]) < sizes[:, None]
        digit = np.pad((text - np.uint8(ord("0")) < 10) & field, 1)[1:-1]
        refused = (text == ord(".")) & ~(digit[:, :-2] & digit[:, 2:])  # a lone point
        refused |= ~_DECIMAL_BYTE.take(text)
        refused &= field
        good = (sizes <= _FLOAT_CHARS) & (text[:, 0] != ord("+")) & ~refused.any(axis=1)
        text = np.where(field & good[:, None], text, 0)
        text[~good, 0] = ord("0")
        texts = text.view(f"S{text.shape[1]}").ravel()
        try:
            cast = texts.astype(np.float64)
        except ValueError:
            cast = np.array([float(t) if _DECIMAL_TEXT.fullmatch(t.decode()) else np.nan for t in texts.tolist()])
        values[rest] = cast
        ok[rest] = good & np.isfinite(cast)
    return values, ok


def _received(buf, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """RSSI of the rows whose received field starts at `starts` and that end
    at `ends`, NaN for a lost packet, and whether each reads `true,` and a
    decimal or `false,` and nothing. The field's first eight bytes are read
    as one little-endian word, masked to the five of `true,` or the six of
    `false,`."""
    word = _word_view(buf)[starts]
    received = (word & 0xFF_FFFF_FFFF) == _TRUE_COMMA
    ok = received | (((word & 0xFFFF_FFFF_FFFF) == _FALSE_COMMA) & (ends - starts == 6))
    got = np.flatnonzero(received)
    rssi, ok[got] = _decimals(buf, starts[got] + 5, ends[got])
    values = np.full(len(starts), np.nan)
    values[got] = rssi
    return values, ok


def _read_block(buf: np.ndarray, size: int, first_line: int, streams: _Streams):
    """Tick, column, RSSI and line number of each row of the block
    buf[:size] of whole lines, and its line count: by `_Streams.expected` if
    the rows continue the stream order, else field by field. The first row
    that breaks a rule raises TraceParseError; `first_line` numbers the
    block's first line. Gathers start in the block and may read past it into
    the rest of `buf`."""
    block = buf[:size]
    newlines = np.flatnonzero(block == _NL)
    starts = np.concatenate(([0], newlines[:-1] + 1))
    ends = newlines - (block[newlines - 1] == _CR)
    rows = np.flatnonzero(ends != starts)
    starts, ends, line_ends = starts[rows], ends[rows], newlines[rows]
    if rows.size and streams.next is not None:
        read = streams.expected(buf, starts, ends)
        if read is not None:
            return *read, first_line + rows, len(newlines)

    commas = np.flatnonzero(block == _COMMA)
    lo = np.searchsorted(commas, starts)
    whole = (line_ends - starts <= _LINE_BYTES) & (
        np.searchsorted(commas, ends) - lo == len(TRACE_HEADER) - 1
    )
    stop = len(rows) if whole.all() else int(np.argmin(whole))  # the first bad row
    tick, columns, values = np.empty(0, np.int64), np.empty(0, np.int32), np.empty(0)
    if stop:
        # Up to the first row with a wrong field count, every row has ten
        # commas and no others lie between them.
        at = commas[lo[0] : lo[0] + 10 * stop].reshape(stop, 10)
        tick, columns, values, stop = _read_rows(buf, starts[:stop], ends[:stop], at, streams)
    if stop < len(rows):
        message = streams.row_error(buf[starts[stop] : line_ends[stop]].tobytes())
        raise TraceParseError(f"line {first_line + rows[stop]}: {message}")
    if stop:  # rows in exact stream order: expect the next block to continue them
        cell = tick * len(streams.columns) + columns
        streams.next = int(cell[-1]) + 1 if (np.diff(cell) == 1).all() else None
    return tick, columns, values, first_line + rows, len(newlines)


def _read_rows(buf, starts, ends, at, streams: _Streams):
    """Tick, column and RSSI of rows with eleven fields, whose commas are
    `at`, and the first row that breaks a rule (len(starts) if none)."""
    tick, ok = _integers(buf, starts, at[:, 0])
    seq, seq_ok = _integers(buf, at[:, 7] + 1, at[:, 8])
    values, received_ok = _received(buf, at[:, 8] + 1, ends)
    bad = ~ok | ~seq_ok | (tick < 0) | (seq != tick) | ~received_ok
    columns, stop = streams.columns_of(buf, at)
    flagged = np.flatnonzero(bad[:stop])
    return tick, columns, values, int(flagged[0]) if flagged.size else stop


class _Cells:
    """The (ticks, streams) RSSI array the rows are scattered into, beside
    the line of each cell's first row (-1 for a cell not yet seen).

    The arrays are sized once the first tick is complete, from the stream
    count and the bytes per row so far, and grow only for a stream first
    heard later or a file longer than that estimate. A tick the file is too
    small to hold complete is set aside with its row's column and line:
    such a file lacks some cell, and nothing is ever sized by its tick."""

    def __init__(self, size: int) -> None:
        self.size = size  # bytes of rows and blank lines
        # No file of `size` bytes holds more rows; its last may lack its line end.
        self.most_rows = (size + 1) // _SHORTEST_ROW
        self.line_type = np.int32 if size < 2**31 - 2 else np.int64
        self.rssi = self.first = None
        self.ticks = 0  # one past the highest tick placed
        self.rows = self.read = 0  # rows and bytes of the blocks so far
        self.pending: list[tuple] = []  # blocks before the first tick is complete
        self.tick0 = None  # the first row's tick
        self.far: list[tuple] = []  # (tick, column, line) of rows set aside
        self.duplicate: tuple | None = None  # (line, earlier line, column, tick)

    def add(self, tick, column, value, line, num_streams: int, read: int) -> None:
        """Place one block's rows; `read` is its size in bytes."""
        self.rows += len(tick)
        self.read += read
        if self.rssi is not None:
            self._place(tick, column, value, line, num_streams)
            return
        self.pending.append((tick, column, value, line))
        if self.tick0 is None and tick.size:
            self.tick0 = tick[0]
        if (tick != self.tick0).any():
            self._allocate(num_streams)

    def _estimate(self, num_streams: int) -> int:
        """Ticks the file holds at the bytes per row read so far."""
        return -(-self.size * self.rows // (self.read * num_streams))

    def _allocate(self, num_streams: int) -> None:
        ticks = min(self._estimate(num_streams), self.most_rows // num_streams)
        self.rssi = np.empty((ticks, num_streams))
        self.first = np.full((ticks, num_streams), -1, self.line_type)
        for block in self.pending:
            self._place(*block, num_streams)
        self.pending = []

    def _place(self, tick, column, value, line, num_streams: int) -> None:
        if self.duplicate is not None:
            return  # the first repeat is known; later rows cannot come before it
        if num_streams > self.rssi.shape[1]:
            self._widen(num_streams)
        if tick.size and tick.max() >= len(self.rssi):
            limit = self.most_rows // num_streams  # no complete file has a tick beyond
            grow = tick[tick < limit]
            if grow.size and grow.max() >= len(self.rssi):
                size = len(self.rssi)
                self._lengthen(min(limit, max(int(grow.max()) + 1, size + size // 8)))
            near = tick < len(self.rssi)
            if not near.all():
                self.far.append((tick[~near], column[~near], line[~near]))
                tick, column, value, line = tick[near], column[near], value[near], line[near]
        if not tick.size:
            return
        cell = tick * num_streams + column
        first = self.first.reshape(-1)
        earlier = first[cell]
        first[cell] = line
        # A row whose cell was seen in an earlier block, or whose line did
        # not land because another row of this block shares its cell.
        if (earlier >= 0).any() or (first[cell] != line).any():
            order = np.argsort(cell, kind="stable")
            repeat = earlier >= 0
            repeat[order[1:]] |= cell[order[1:]] == cell[order[:-1]]
            i = int(np.argmax(repeat))
            j = earlier[i] if earlier[i] >= 0 else line[int(np.argmax(cell == cell[i]))]
            self.duplicate = (int(line[i]), int(j), int(column[i]), int(tick[i]))
            return
        self.rssi.reshape(-1)[cell] = value
        self.ticks = max(self.ticks, int(tick.max()) + 1)

    def _lengthen(self, ticks: int) -> None:
        size = len(self.first)
        self.rssi.resize((ticks, self.rssi.shape[1]), refcheck=False)
        self.first.resize((ticks, self.first.shape[1]), refcheck=False)
        self.first[size:] = -1

    def _widen(self, num_streams: int) -> None:
        ticks = max(self.ticks, min(self._estimate(num_streams), self.most_rows // num_streams))
        for name, fill in (("rssi", np.nan), ("first", -1)):
            old = getattr(self, name)
            new = np.full((ticks, num_streams), fill, old.dtype)
            new[: self.ticks, : old.shape[1]] = old[: self.ticks]
            setattr(self, name, new)

    def trace(self, streams: _Streams, path: Path) -> np.ndarray:
        """The (ticks, streams) RSSI array, once every cell is known to
        appear exactly once."""
        num_streams = len(streams.columns)
        if self.rssi is None:
            self._allocate(num_streams)
        tick = column = line = np.empty(0, np.int64)
        if self.far:
            tick, column, line = map(np.concatenate, zip(*self.far))
            # lexsort is stable, so the rows of a repeated cell stay in file order.
            order = np.lexsort((column, tick))
            tick, column, line = tick[order], column[order], line[order]
            repeats = np.flatnonzero((tick[1:] == tick[:-1]) & (column[1:] == column[:-1])) + 1
            if repeats.size:
                i = int(repeats[np.argmin(line[repeats])])
                j = int(np.argmax((tick == tick[i]) & (column == column[i])))
                if self.duplicate is None or line[i] < self.duplicate[0]:
                    self.duplicate = (int(line[i]), int(line[j]), int(column[i]), int(tick[i]))
        if self.duplicate is not None:
            at, earlier, col, t = self.duplicate
            raise TraceParseError(f"line {at}: {_where(streams.name(col), t)}duplicate of line {earlier}")
        # The first missing cell is the first unseen one of the placed ticks,
        # or else the first cell past them that the rows set aside skip.
        unseen = (self.first[: self.ticks] < 0).reshape(-1)
        missing = int(np.argmax(unseen)) if unseen.any() else None
        if missing is None and tick.size:
            cell = self.ticks * num_streams + np.arange(len(tick))
            gaps = np.flatnonzero((tick != cell // num_streams) | (column != cell % num_streams))
            missing = int(cell[gaps[0]]) if gaps.size else int(cell[-1]) + 1
        if missing is not None:
            t, col = divmod(missing, num_streams)
            raise TraceParseError(f"{path}: no row for {streams.name(col)} tick {t}")
        self.first = None
        self.rssi.resize((self.ticks, num_streams), refcheck=False)
        return self.rssi


def read_trace_file(path) -> RssTrace:
    """Parse and check a trace file; any problem raises TraceParseError."""
    path = Path(path)
    with open(path, "rb") as fh:
        if S_ISREG(os.fstat(fh.fileno()).st_mode):
            return _read_trace(fh, path)
        # A pipe has no size to bound its ticks by, so it is read from a copy.
        with tempfile.TemporaryFile() as copy:
            shutil.copyfileobj(fh, copy)
            copy.seek(0)
            return _read_trace(copy, path)


def _read_trace(fh, path: Path) -> RssTrace:
    head = fh.readline(_LINE_BYTES + 1)
    _check_header(head, path, TRACE_HEADER, "trace")
    streams = _Streams()
    cells = _Cells(os.fstat(fh.fileno()).st_size - len(head))
    # One buffer for every block: a partial last line is moved to its front,
    # and gathers may read past a block's end.
    data = bytearray(_BLOCK_BYTES + _LINE_BYTES + _SPAN_CHARS + 1)
    buf = np.frombuffer(data, np.uint8)
    line, kept = 2, 0  # the next block's first line, and its bytes already read
    while True:
        read = fh.readinto(memoryview(data)[kept : kept + _BLOCK_BYTES])
        end = kept + read
        if not read:
            if not kept:
                break
            buf[end] = _NL  # the last line lacks its line end
            end += 1
        cut = data.rfind(b"\n", 0, end) + 1
        if cut:
            tick, column, value, lines, num_lines = _read_block(buf, cut, line, streams)
            cells.add(tick, column, value, lines, len(streams.columns), cut)
            line += num_lines
        kept = end - cut
        if kept > _LINE_BYTES:
            raise TraceParseError(f"line {line}: {_LONG_LINE}")
        buf[:kept] = buf[cut:end].copy()
    if not streams.columns:
        raise TraceParseError(f"{path}: trace file has no rows")
    keys = np.array(list(streams.columns), np.int64)
    return RssTrace(*streams.first, keys[:, :2], keys[:, 2], cells.trace(streams, path))


def write_truth_file(path, truth: np.ndarray, first_tick: int = 0) -> None:
    """Persist the walker's true position per tick. `truth` is (T, 2); row i
    is stamped with tick first_tick + i."""
    with open(path, "wb") as fh:
        fh.write(",".join(TRUTH_HEADER).encode() + b"\r\n")
        fields = ["tick"] + [b",", ("", "nan"), "value"] * 2 + [b"\r\n"]
        write_grid(fh, np.asarray(truth, dtype=float)[:, None], fields, first_tick)


def read_truth_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (ticks, positions) with positions shaped (T, 2). Each tick
    follows the previous one by 1 and every coordinate is finite. A line
    longer than the longest well-formed row is rejected without being read
    whole."""
    path = Path(path)
    ticks: list[int] = []
    rows: list[tuple[float, float]] = []
    with open(path, "rb") as fh:
        # Each line is read up to one byte past the longest well-formed row.
        lines = iter(lambda: fh.readline(_TRUTH_LINE_BYTES + 1), b"")
        _check_header(next(lines, b""), path, TRUTH_HEADER, "truth")
        for line, text in enumerate(lines, start=2):
            row = _split(text)
            if not row:
                continue
            try:
                if len(text.removesuffix(b"\n")) > _TRUTH_LINE_BYTES:
                    raise ValueError(_LONG_TRUTH_LINE)
                if len(row) != len(TRUTH_HEADER):
                    raise ValueError(f"expected {len(TRUTH_HEADER)} fields, got {len(row)}")
                tick = _integer(row[0], "tick")
                if ticks and tick != ticks[-1] + 1:
                    raise ValueError(f"tick {tick} does not follow tick {ticks[-1]}")
                rows.append((_finite(row[1], "x"), _finite(row[2], "y")))
            except ValueError as exc:
                raise TraceParseError(f"line {line}: {exc}") from exc
            ticks.append(tick)
    return np.asarray(ticks, dtype=int), np.asarray(rows, dtype=float).reshape(-1, 2)
