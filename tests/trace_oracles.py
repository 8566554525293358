"""The trace reader and the CSV writers that `rti.traceio` replaced, kept
as oracles.

The reader parses each row with the `csv` module and Python's `int` and
`float`, so it also lets through a few forms the shipped reader now rejects
(`-5_0.0`, ` 0`, `+0`, `"0"`, ` TRUE `). On every file it accepts or rejects
alike, the shipped reader must return the same trace or the same error.

The writers format every float with Python's repr, one `%r`, f-string or
`repr` call at a time: the trace and `stats.csv`, then the truth file,
`trajectory.csv` and an image's CSV, which went through `csv.writer` or a
join. The shipped writers, built on `format_values` and `write_grid`, must
write the same bytes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from rti.geometry import NUM_DIRECTIONS, VoxelGrid
from rti.imaging import ImageFrame
from rti.linkstats import MODES, VALID_CHANNELS, RssTrace
from rti.traceio import TRACE_HEADER, TRUTH_HEADER, TraceParseError
from rti.tracking import TRAJECTORY_HEADER
from stat_oracles import StreamKey, format_key, stream_keys, trace_from_keys


def _opt(value) -> str:
    return "" if value is None else str(value)


def write_trace_file(path, trace: RssTrace) -> None:
    # A tick is one `%` format of its row template, with NUL standing for
    # the tick and `%r` for each received RSSI.
    streams = [
        f"{tx},{rx},{trace.mode},{_opt(ch)},{_opt(td)},{_opt(rd)},{trace.tx_power_dbm!r},"
        for tx, rx, ch, td, rd in stream_keys(trace)
    ]
    received = np.array([f"\0,{stream}\0,true,%r\r\n" for stream in streams], dtype=object)
    lost = np.array([f"\0,{stream}\0,false,\r\n" for stream in streams], dtype=object)
    all_received = "".join(received)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        for tick, row in enumerate(trace.rssi):
            missing = np.isnan(row)
            if missing.any():
                template = "".join(np.where(missing, lost, received))
                row = row[~missing]
            else:
                template = all_received
            fh.write(template.replace("\0", str(tick)) % tuple(row.tolist()))


def write_stats_file(path, links, stats: np.ndarray, first_tick: int) -> None:
    """`stats.csv` of a run: one row per tick and link."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tick,tx_id,rx_id,stat\n")
        for t in range(stats.shape[0]):
            for i, (tx, rx) in enumerate(links):
                fh.write(f"{first_tick + t},{tx},{rx},{float(stats[t, i])!r}\n")


def write_truth_file(path, truth: np.ndarray, first_tick: int = 0) -> None:
    """Persist the walker's true position per tick. `truth` is (T, 2); row i
    is stamped with tick first_tick + i."""
    truth = np.asarray(truth, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        for i, (x, y) in enumerate(truth):
            writer.writerow([first_tick + i, repr(float(x)), repr(float(y))])


def write_trajectory(path, rows) -> None:
    """Rows of (tick, est_x, est_y, truth_x, truth_y, error_m)."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRAJECTORY_HEADER)
        for tick, ex, ey, tx, ty, err in rows:
            writer.writerow([tick, repr(float(ex)), repr(float(ey)),
                             repr(float(tx)), repr(float(ty)), repr(float(err))])


def frame_to_csv(frame: ImageFrame, grid: VoxelGrid) -> str:
    """Row-major CSV: one line per grid row, southernmost row first."""
    values = np.asarray(frame.values, dtype=float)
    rows = values.reshape(grid.height_voxels, grid.width_voxels).tolist()
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def check_stream(key: StreamKey, mode: str) -> None:
    """Raise ValueError unless ``key`` is a well-formed stream of a ``mode`` trace."""
    _tx, _rx, channel, tx_dir, rx_dir = key
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
        raise ValueError(f"{format_key(key)} is not a stream of mode {mode!r}")


def _parse_stream(row: list[str]) -> tuple[str, float, StreamKey]:
    """Mode, transmit power and stream key of one row."""

    def opt_int(text: str) -> int | None:
        return None if text == "" else int(text)

    mode, power = row[3], float(row[7])
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not math.isfinite(power):
        raise ValueError(f"non-finite tx power {row[7]!r}")
    key = (int(row[1]), int(row[2]), opt_int(row[4]), opt_int(row[5]), opt_int(row[6]))
    check_stream(key, mode)
    return mode, power, key


def _where(key: StreamKey | None, tick: int | None) -> str:
    parts = [format_key(key)] if key is not None else []
    if tick is not None:
        parts.append(f"tick {tick}")
    return " ".join(parts) + ": " if parts else ""


def read_trace_file(path) -> RssTrace:
    """Parse and check a trace file; any problem raises TraceParseError."""
    path = Path(path)
    known: dict[tuple[str, ...], tuple[int, StreamKey]] = {}  # raw fields -> stream
    columns: dict[StreamKey, int] = {}
    first: tuple[str, float] | None = None  # the first row's mode and tx power
    ticks: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    lines: list[int] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceParseError(f"{path}: empty trace file") from None
        if header != TRACE_HEADER:
            raise TraceParseError(
                f"{path}: bad header {header!r}, expected {TRACE_HEADER!r}"
            )
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRACE_HEADER):
                raise TraceParseError(
                    f"line {line}: expected {len(TRACE_HEADER)} fields, got {len(row)}"
                )
            key = tick = None
            try:
                tick = int(row[0])
                fields = tuple(row[1:8])
                stream = known.get(fields)
                if stream is None:
                    mode, power, key = _parse_stream(row)
                    if first is None:
                        first = (mode, power)
                    elif (mode, power) != first:
                        raise ValueError(
                            f"mode {mode!r} and tx power {power!r} differ from "
                            f"the first row's {first[0]!r} and {first[1]!r}"
                        )
                    stream = known[fields] = (columns.setdefault(key, len(columns)), key)
                col, key = stream
                if tick < 0:
                    raise ValueError("negative tick")
                received = row[9].strip().lower()
                if received not in ("true", "false"):
                    raise ValueError(f"received must be true or false, got {row[9]!r}")
                if received == "true":
                    if not row[10]:
                        raise ValueError("received row without rssi")
                    rssi = float(row[10])
                    if not math.isfinite(rssi):
                        raise ValueError(f"non-finite rssi {row[10]!r}")
                elif row[10]:
                    raise ValueError("lost row must not carry rssi")
                else:
                    rssi = math.nan
                if int(row[8]) != tick:
                    raise ValueError(f"seq {row[8]} differs from the tick")
            except ValueError as exc:
                raise TraceParseError(f"line {line}: {_where(key, tick)}{exc}") from exc
            ticks.append(tick)
            cols.append(col)
            values.append(rssi)
            lines.append(line)
    if first is None:
        raise TraceParseError(f"{path}: trace file has no rows")

    # Every (tick, stream) cell exactly once: that is what makes each stream
    # attempt one packet per tick.
    keys = list(columns)
    num_streams = len(keys)
    cells = np.asarray(ticks) * num_streams + np.asarray(cols)
    order = np.argsort(cells, kind="stable")
    repeats = order[1:][cells[order[1:]] == cells[order[:-1]]]
    if repeats.size:
        i = int(repeats.min())
        earlier = lines[int(np.flatnonzero(cells == cells[i])[0])]
        raise TraceParseError(
            f"line {lines[i]}: {_where(keys[cols[i]], ticks[i])}"
            f"duplicate of line {earlier}"
        )
    num_ticks = max(ticks) + 1
    if cells.size != num_ticks * num_streams:
        seen = np.zeros(num_ticks * num_streams, dtype=bool)
        seen[cells] = True
        tick, col = divmod(int(np.argmin(seen)), num_streams)
        raise TraceParseError(f"{path}: no row for {format_key(keys[col])} tick {tick}")
    rssi = np.empty(cells.size)
    rssi[cells] = values
    return trace_from_keys(first[0], first[1], keys, rssi.reshape(num_ticks, num_streams))
