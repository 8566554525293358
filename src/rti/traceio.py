"""CSV serialisation of RSS traces and ground-truth tracks.

Trace files carry one row per reception attempt, tick-major, with `seq`
equal to the tick. Fields that do not apply to the stream are left empty
(channel on omni rows, direction columns on multichannel rows, RSSI on lost
packets). Floats are written with repr so a write/read cycle is exact.

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
`read_trace_file` reads the file in blocks of about 1 MiB cut at line ends
and checks each block with array operations: newline and comma positions
give every field, tick and `seq` are parsed by digit arithmetic, each
distinct tx_id..tx_power_dbm span is parsed once (spans that parse to the
same stream share a column), and RSSI text is cast by numpy after its bytes
pass the grammar. Only each row's tick, column and RSSI outlive the block.
The first row in file order that breaks a rule is worded by one scalar row
check. Duplicate and missing (tick, stream) cells are found from the sorted
cells once the whole file is read.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linkstats import MODES, RssTrace, StreamKey, check_stream, format_stream

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

_BLOCK_BYTES = 1 << 20
_INT_DIGITS = 18
_FLOAT_CHARS = 32
# No well-formed tx_id..tx_power_dbm span is longer: five signed integers,
# the longest mode, a decimal and six commas.
_SPAN_CHARS = 5 * (1 + _INT_DIGITS) + max(map(len, MODES)) + _FLOAT_CHARS + 6
_NON_FINITE = ("nan", "inf", "-inf")
_NL, _CR, _COMMA, _MINUS = b"\n\r,-"
_TRUE = np.frombuffer(b"true", np.uint8)
_FALSE = np.frombuffer(b"false", np.uint8)


class TraceParseError(ValueError):
    """A trace or truth file does not follow the expected format."""


def _grammar(states: list[dict[bytes, int]], accepting: list[int]):
    """Byte automaton: (transitions, accepting flag per state). The next
    state after `byte` is transitions[state << 8 | byte]. State 0 starts;
    every byte without an edge leads to an extra, dead state."""
    dead = len(states)
    table = bytearray([dead]) * ((dead + 1) << 8)
    for state, edges in enumerate(states):
        for chars, target in edges.items():
            for byte in chars:
                table[state << 8 | byte] = target
    return np.frombuffer(table, np.uint8), np.array([s in accepting for s in range(dead + 1)])


_DIGITS = b"0123456789"
# -?[0-9]+
_INTEGER = _grammar([{b"-": 1, _DIGITS: 2}, {_DIGITS: 2}, {_DIGITS: 2}], [2])
# -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?
_DECIMAL = _grammar(
    [
        {b"-": 1, _DIGITS: 2},
        {_DIGITS: 2},
        {_DIGITS: 2, b".": 3, b"eE": 5},
        {_DIGITS: 4},
        {_DIGITS: 4, b"eE": 5},
        {b"+-": 6, _DIGITS: 7},
        {_DIGITS: 7},
        {_DIGITS: 7},
    ],
    [2, 4, 7],
)


def _follows(grammar, text: str) -> bool:
    table, accepting = grammar
    state = 0
    for byte in text.encode():
        state = int(table[state << 8 | byte])
    return bool(accepting[state])


def _accepted(grammar, text: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Whether each row's first `sizes` bytes of `text` follow the grammar."""
    table, accepting = grammar
    state = np.zeros(len(text), np.uint16)
    for j in range(text.shape[1]):
        state = np.where(j < sizes, table.take(state << 8 | text[:, j]), state)
    return accepting[state]


def _integer(text: str, what: str) -> int:
    if len(text.removeprefix("-")) <= _INT_DIGITS and _follows(_INTEGER, text):
        return int(text)
    raise ValueError(
        f"{what} must be an integer of at most {_INT_DIGITS} digits, got {text!r}"
    )


def _finite(text: str, what: str) -> float:
    if text in _NON_FINITE or (len(text) <= _FLOAT_CHARS and _follows(_DECIMAL, text)):
        value = float(text)
        if math.isfinite(value):
            return value
        raise ValueError(f"non-finite {what} {text!r}")
    raise ValueError(
        f"{what} must be a decimal of at most {_FLOAT_CHARS} characters, got {text!r}"
    )


def _split(line: bytes) -> list[str]:
    """Fields of one line without its line end; none for a blank line."""
    line = line.removesuffix(b"\n").removesuffix(b"\r")
    return line.decode(errors="replace").split(",") if line else []


def _opt(value) -> str:
    return "" if value is None else str(value)


def write_trace_file(path, trace: RssTrace) -> None:
    # Rows are assembled by hand, with the CSV writer's line ending: every
    # field is a number or a mode name, none of which would need quoting.
    streams = [
        f"{tx},{rx},{trace.mode},{_opt(ch)},{_opt(td)},{_opt(rd)},{trace.tx_power_dbm!r},"
        for tx, rx, ch, td, rd in trace.streams
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        for tick, row in enumerate(trace.rssi.tolist()):
            fh.write(
                "".join(
                    f"{tick},{stream}{tick},false,\r\n"
                    if math.isnan(rssi)
                    else f"{tick},{stream}{tick},true,{rssi!r}\r\n"
                    for stream, rssi in zip(streams, row)
                )
            )


def _parse_stream(fields: list[str]) -> tuple[str, float, StreamKey]:
    """Mode, transmit power and stream key of a row's seven fields from
    tx_id to tx_power_dbm."""

    def opt_int(text: str, what: str) -> int | None:
        return None if text == "" else _integer(text, what)

    tx, rx, mode, channel, tx_dir, rx_dir, power = fields
    power = _finite(power, "tx power")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    key = (
        _integer(tx, "tx_id"),
        _integer(rx, "rx_id"),
        opt_int(channel, "channel"),
        opt_int(tx_dir, "tx_dir"),
        opt_int(rx_dir, "rx_dir"),
    )
    check_stream(key, mode)
    return mode, power, key


def _where(key: StreamKey | None, tick: int | None) -> str:
    parts = [format_stream(key)] if key is not None else []
    if tick is not None:
        parts.append(f"tick {tick}")
    return " ".join(parts) + ": " if parts else ""


class _Streams:
    """The streams met so far: a column per stream key, by the raw bytes of
    each distinct tx_id..tx_power_dbm span."""

    def __init__(self) -> None:
        self.columns: dict[StreamKey, int] = {}
        self.known: dict[bytes, int] = {}
        self.first: tuple[str, float] | None = None  # the first row's mode and tx power

    def add(self, span: bytes, mode: str, power: float, key: StreamKey) -> int:
        if self.first is None:
            self.first = (mode, power)
        elif (mode, power) != self.first:
            raise ValueError(
                f"mode {mode!r} and tx power {power!r} differ from "
                f"the first row's {self.first[0]!r} and {self.first[1]!r}"
            )
        self.known[span] = column = self.columns.setdefault(key, len(self.columns))
        return column

    def columns_of(self, block: bytes, padded, starts, ends) -> tuple[np.ndarray, int]:
        """Column of each row's span block[starts:ends], and the first row
        whose span is bad (len(starts) if none); later rows get no column.

        Spans are padded with commas to one width before `np.unique`: a
        span holds exactly six, so padded spans are equal only if the spans
        are."""
        sizes = ends - starts
        width = min(int(sizes.max()), _SPAN_CHARS + 1)
        text = np.where(np.arange(width) < sizes[:, None], _gather(padded, starts, width), _COMMA)
        spans = text.view(f"V{width}").ravel()
        _, first, inverse = np.unique(spans, return_index=True, return_inverse=True)
        order = np.argsort(first)
        found, stop = [], len(starts)
        rows = first[order]
        for row, a, b in zip(rows.tolist(), starts[rows].tolist(), ends[rows].tolist()):
            span = block[a:b]
            column = self.known.get(span)
            if column is None:
                try:
                    column = self.add(span, *_parse_stream(span.decode(errors="replace").split(",")))
                except ValueError:
                    stop = row
                    break
            found.append(column)
        columns = np.zeros(len(first), np.int32)
        columns[order[: len(found)]] = found
        return columns[inverse], stop

    def row_error(self, line: bytes) -> str:
        """The message for a flagged row: the first rule it breaks, with its
        stream and tick where they are known."""
        row = _split(line)
        if len(row) != len(TRACE_HEADER):
            return f"expected {len(TRACE_HEADER)} fields, got {len(row)}"
        key = tick = None
        try:
            tick = _integer(row[0], "tick")
            span = ",".join(row[1:8]).encode()
            column = self.known.get(span)
            if column is None:
                mode, power, key = _parse_stream(row[1:8])
                column = self.add(span, mode, power, key)
            key = list(self.columns)[column]
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
            return f"{_where(key, tick)}{exc}"
        raise AssertionError(f"row {line!r} was flagged but breaks no rule")


def _gather(padded: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes from each start, one row each."""
    return sliding_window_view(padded, max(width, 1))[starts]


def _integers(padded, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """Values of the integer fields padded[starts:ends], and whether each
    follows the grammar; values of fields that do not are meaningless."""
    sizes = ends - starts
    text = _gather(padded, starts, min(int(sizes.max()), _INT_DIGITS + 1))
    negative = text[:, 0] == _MINUS
    ok = (sizes - negative <= _INT_DIGITS) & _accepted(_INTEGER, text, sizes)
    value = np.zeros(len(text), np.int64)
    for j in range(text.shape[1]):
        digit = (j < sizes) & (j >= negative)
        value = np.where(digit, value * 10 + text[:, j] - ord("0"), value)
    return np.where(negative, -value, value), ok


def _read_block(block: bytes, first_line: int, streams: _Streams):
    """Tick, column and RSSI of each row of a block of whole lines, the
    indices of its blank lines, and its line count. The first row that
    breaks a rule raises TraceParseError; `first_line` numbers the block's
    first line."""
    padded = np.frombuffer(block + bytes(_SPAN_CHARS + 1), np.uint8)
    buf = padded[: len(block)]
    ends = np.flatnonzero(buf == _NL)
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= buf[ends - 1] == _CR
    empty = ends == starts
    lines = np.flatnonzero(~empty)
    starts, ends = starts[lines], ends[lines]

    commas = np.flatnonzero(buf == _COMMA)
    lo = np.searchsorted(commas, starts)
    whole = np.searchsorted(commas, ends) - lo == len(TRACE_HEADER) - 1
    stop = len(lines) if whole.all() else int(np.argmin(whole))  # the first bad row
    tick, columns, values = np.empty(0, np.int64), np.empty(0, np.int32), np.empty(0)
    if stop:
        # Up to the first row with a wrong field count, every row has ten
        # commas and no others lie between them.
        at = commas[lo[0] : lo[0] + 10 * stop].reshape(stop, 10)
        tick, columns, values, stop = _read_rows(block, padded, starts[:stop], ends[:stop], at, streams)
    if stop < len(lines):
        message = streams.row_error(block[starts[stop] : ends[stop]])
        raise TraceParseError(f"line {first_line + lines[stop]}: {message}")
    return tick, columns, values, np.flatnonzero(empty), len(empty)


def _read_rows(block, padded, starts, ends, at, streams: _Streams):
    """Tick, column and RSSI of rows with eleven fields, whose commas are
    `at`, and the first row that breaks a rule (len(starts) if none)."""
    tick, ok = _integers(padded, starts, at[:, 0])
    seq, seq_ok = _integers(padded, at[:, 7] + 1, at[:, 8])
    bad = ~ok | ~seq_ok | (tick < 0) | (seq != tick)

    word = _gather(padded, at[:, 8] + 1, 5)
    size = at[:, 9] - at[:, 8] - 1
    received = (size == 4) & (word[:, :4] == _TRUE).all(1)
    lost = (size == 5) & (word == _FALSE).all(1)
    sizes = ends - at[:, 9] - 1
    bad |= ~(received | lost) | (lost & (sizes > 0))

    got = np.flatnonzero(received)
    sizes = sizes[got]
    text = _gather(padded, at[got, 9] + 1, min(int(sizes.max(initial=0)), _FLOAT_CHARS + 1))
    ok = (sizes <= _FLOAT_CHARS) & _accepted(_DECIMAL, text, sizes)
    # The cast also takes `_`, spaces and `+`, so only text that passed the
    # grammar reaches it; the rest is cast as "0" and stays flagged.
    text = np.where((np.arange(text.shape[1]) < sizes[:, None]) & ok[:, None], text, 0)
    text[~ok, 0] = ord("0")
    rssi = text.view(f"S{text.shape[1]}").ravel().astype(np.float64)
    bad[got] |= ~ok | ~np.isfinite(rssi)
    values = np.full(len(starts), np.nan)
    values[got] = rssi

    columns, stop = streams.columns_of(block, padded, at[:, 0] + 1, at[:, 7])
    flagged = np.flatnonzero(bad[:stop])
    return tick, columns, values, int(flagged[0]) if flagged.size else stop


def _blocks(fh):
    """The rest of the file in blocks of whole lines, each ending in a newline."""
    rest = b""
    while chunk := fh.read(_BLOCK_BYTES):
        head, newline, rest = (rest + chunk).rpartition(b"\n")
        if newline:
            yield head + newline
    if rest:
        yield rest + b"\n"


def read_trace_file(path) -> RssTrace:
    """Parse and check a trace file; any problem raises TraceParseError."""
    path = Path(path)
    streams = _Streams()
    ticks: list[np.ndarray] = []  # per block
    columns: list[np.ndarray] = []
    values: list[np.ndarray] = []
    skipped: list[np.ndarray] = []  # rows before each blank line
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head:
            raise TraceParseError(f"{path}: empty trace file")
        header = _split(head)
        if header != TRACE_HEADER:
            raise TraceParseError(
                f"{path}: bad header {header!r}, expected {TRACE_HEADER!r}"
            )
        line, rows = 2, 0  # the block's first line, and the rows before it
        for block in _blocks(fh):
            tick, column, value, blank, num_lines = _read_block(block, line, streams)
            ticks.append(tick)
            columns.append(column)
            values.append(value)
            skipped.append(rows + blank - np.arange(len(blank)))
            line += num_lines
            rows += len(tick)
    if not rows:
        raise TraceParseError(f"{path}: trace file has no rows")
    ticks, columns, values, skipped = map(np.concatenate, (ticks, columns, values, skipped))

    def line_of(row: int) -> int:
        return row + 2 + int(np.searchsorted(skipped, row, side="right"))

    # Every (tick, stream) cell exactly once: that is what makes each stream
    # attempt one packet per tick. lexsort is stable, so the rows of a
    # repeated cell stay in file order.
    keys = list(streams.columns)
    num_streams = len(keys)
    order = np.lexsort((columns, ticks))
    tick, column = ticks[order], columns[order]
    repeats = order[1:][(tick[1:] == tick[:-1]) & (column[1:] == column[:-1])]
    if repeats.size:
        i = int(repeats.min())
        earlier = int(np.flatnonzero((ticks == ticks[i]) & (columns == columns[i]))[0])
        raise TraceParseError(
            f"line {line_of(i)}: {_where(keys[columns[i]], ticks[i])}"
            f"duplicate of line {line_of(earlier)}"
        )
    # Sorted and free of repeats, the cells are complete when the k-th is
    # cell k and the last tick is whole.
    cell = np.arange(rows)
    gaps = np.flatnonzero((tick != cell // num_streams) | (column != cell % num_streams))
    missing = int(gaps[0]) if gaps.size else rows
    if missing < rows or rows % num_streams:
        tick, col = divmod(missing, num_streams)
        raise TraceParseError(f"{path}: no row for {format_stream(keys[col])} tick {tick}")
    rssi = values[order].reshape(-1, num_streams)
    return RssTrace(streams.first[0], streams.first[1], tuple(keys), rssi)


def write_truth_file(path, truth: np.ndarray, first_tick: int = 0) -> None:
    """Persist the walker's true position per tick. `truth` is (T, 2); row i
    is stamped with tick first_tick + i."""
    truth = np.asarray(truth, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        for i, (x, y) in enumerate(truth):
            writer.writerow([first_tick + i, repr(float(x)), repr(float(y))])


def read_truth_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (ticks, positions) with positions shaped (T, 2). Each tick
    follows the previous one by 1 and every coordinate is finite."""
    path = Path(path)
    ticks: list[int] = []
    rows: list[tuple[float, float]] = []
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head:
            raise TraceParseError(f"{path}: empty truth file")
        header = _split(head)
        if header != TRUTH_HEADER:
            raise TraceParseError(
                f"{path}: bad header {header!r}, expected {TRUTH_HEADER!r}"
            )
        for line, text in enumerate(fh, start=2):
            row = _split(text)
            if not row:
                continue
            try:
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
