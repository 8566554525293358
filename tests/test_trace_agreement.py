"""The block-streamed trace reader against the line-by-line reader it
replaced (`tests/trace_oracles.py`): the same trace from every file the
oracle accepts, and the same error from every file it rejects. And the
trace, truth, trajectory and image CSV writers against the repr writers
they replaced: the same bytes."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from rti import traceio
from rti.geometry import build_grid
from rti.imaging import ImageFrame, frame_to_csv
from rti.traceio import TraceParseError, read_trace_file, write_trace_file, write_truth_file
from rti.tracking import write_trajectory
from tests.test_traceio import simulated_trace
from rti.linkstats import RssTrace
from tests import trace_oracles
from tests.trace_oracles import read_trace_file as oracle_read_trace_file
from tests.trace_oracles import write_trace_file as oracle_write_trace_file
from stat_oracles import stream_keys

# Python's own wording of a bad number, which the oracle passes on and the
# reader replaces with the field's name and grammar.
CONVERSION = re.compile(r"invalid literal for int\(\) with base 10: |could not convert string to float: ")


def outcome(read, path):
    """The trace a reader returns, or the message of its TraceParseError."""
    try:
        return read(path)
    except TraceParseError as exc:
        return str(exc)


def assert_agrees(path):
    old, new = outcome(oracle_read_trace_file, path), outcome(read_trace_file, path)
    if isinstance(old, str):
        conversion = CONVERSION.search(old)
        if conversion is None:
            assert new == old
        else:
            prefix, text = old[: conversion.start()], old[conversion.end() :]
            assert isinstance(new, str) and new.startswith(prefix), (new, old)
            assert re.fullmatch(r"\w[\w ]* must be an? [^,]+, got " + re.escape(text), new[len(prefix) :]), (new, old)
        return old
    assert not isinstance(new, str), new
    assert (new.mode, new.tx_power_dbm, stream_keys(new)) == (old.mode, old.tx_power_dbm, stream_keys(old))
    assert np.array_equal(new.rssi, old.rssi, equal_nan=True)
    return old


def written_lines(tmp_path, rounds=12, ticks=None) -> list[bytes]:
    """Header and rows of a simulated directional trace, without line ends;
    only its first `ticks` ticks if given."""
    trace, _ = simulated_trace(sensitivity_dbm=-60.0, rounds=rounds)
    path = tmp_path / "written.csv"
    write_trace_file(path, trace)
    lines = path.read_bytes().split(b"\r\n")[:-1]
    return lines if ticks is None else lines[: 1 + ticks * len(trace.kinds)]


@pytest.mark.parametrize(
    "mode, sensitivity_dbm",
    [("omni", -64.0), ("multichannel", -64.0), ("directional", -60.0)],
)
def test_agrees_on_simulated_traces(tmp_path, mode, sensitivity_dbm):
    trace, _ = simulated_trace(mode, sensitivity_dbm)
    assert np.isnan(trace.rssi).any() and not np.isnan(trace.rssi).all()
    path = tmp_path / "trace.csv"
    write_trace_file(path, trace)
    loaded = assert_agrees(path)
    assert stream_keys(loaded) == stream_keys(trace)
    assert np.array_equal(loaded.rssi, trace.rssi, equal_nan=True)


def reshaped(lines: list[bytes], how: str) -> bytes:
    rng = np.random.default_rng(3)
    header, rows = lines[0], lines[1:]
    if how == "shuffled":
        rows = [rows[i] for i in rng.permutation(len(rows))]
    if how == "blank lines":
        for at in sorted(rng.choice(len(rows) + 1, 40), reverse=True):
            rows.insert(at, b"")
        rows = [b""] + rows + [b"", b""]
    if how == "mixed line ends":
        return b"".join(line + (b"\n" if i % 3 else b"\r\n") for i, line in enumerate([header] + rows))
    end = b"\n" if how == "lf" else b"\r\n"
    text = end.join([header] + rows)
    return text if how == "no final line end" else text + end


@pytest.mark.parametrize(
    "how", ["crlf", "lf", "mixed line ends", "shuffled", "blank lines", "no final line end"]
)
def test_agrees_on_reshaped_files(tmp_path, how):
    path = tmp_path / "trace.csv"
    path.write_bytes(reshaped(written_lines(tmp_path), how))
    assert_agrees(path)


@pytest.mark.parametrize("block_bytes", [40, 3000])
def test_agrees_across_blocks(tmp_path, monkeypatch, block_bytes):
    # Blocks shorter than a line, and blocks of many lines, on a file with
    # blank lines; then the same file with a bad row and a repeated row far
    # from the first, whose line numbers count lines of earlier blocks.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", block_bytes)
    lines = reshaped(written_lines(tmp_path, ticks=2), "blank lines").split(b"\r\n")
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\r\n".join(lines))
    assert_agrees(path)
    rows = [i for i, line in enumerate(lines) if line.count(b",") == 10]
    bad = list(lines)
    bad[rows[-5]] = bad[rows[-5]].replace(b",true,", b",yes,").replace(b",false,", b",yes,")
    path.write_bytes(b"\r\n".join(bad))
    assert "received must be true or false, got 'yes'" in assert_agrees(path)
    repeated = lines[: rows[-3]] + [lines[rows[2]]] + lines[rows[-3] :]
    path.write_bytes(b"\r\n".join(repeated))
    assert f"duplicate of line {rows[2] + 1}" in assert_agrees(path)


def test_agrees_on_a_file_of_several_blocks(tmp_path):
    lines = written_lines(tmp_path, rounds=700)
    text = reshaped(lines, "blank lines")
    assert len(text) > 2 * traceio._BLOCK_BYTES
    path = tmp_path / "trace.csv"
    path.write_bytes(text)
    assert_agrees(path)


# Replacement values per field, each one a form the oracle either rejects
# with the message the reader must keep, or reads as the reader must.
CORRUPTIONS = {
    0: ["x", "", "-1", "1.5", "0", "3", "99"],
    1: ["x", "", "1", "9", "01"],
    2: ["x", "", "0", "9", "01"],
    3: ["omni", "bogus", ""],
    4: ["11", "x", "-1"],
    5: ["", "x", "7", "1", "2", "01"],
    6: ["", "x", "7", "1", "2", "01"],
    7: ["3.0", "nan", "inf", "x", "", "0.00", "0"],
    8: ["x", "", "7", "-1"],
    9: ["maybe", "", "true", "false"],
    10: ["nan", "inf", "-inf", "x", "", "-61.25", "1e400", "-1e-05"],
}


def test_agrees_on_single_field_corruptions(tmp_path):
    lines = written_lines(tmp_path, ticks=2)
    rng = np.random.default_rng(2024)
    path = tmp_path / "trace.csv"
    outcomes = set()
    for _ in range(120):
        row = int(rng.integers(1, len(lines)))
        field = int(rng.integers(0, 11))
        fields = lines[row].split(b",")
        fields[field] = rng.choice(CORRUPTIONS[field]).encode()
        corrupted = list(lines)
        corrupted[row] = b",".join(fields)
        path.write_bytes(b"\r\n".join(corrupted) + b"\r\n")
        old = assert_agrees(path)
        outcomes.add("accepted" if not isinstance(old, str) else CONVERSION.sub("", old).split(": ")[-1][:20])
    assert len(outcomes) > 15


def path_counts(monkeypatch) -> dict[str, int]:
    """Blocks read by the expected-rows path and by the general path, as the
    reads go on."""
    counts = {"expected": 0, "general": 0}
    expected, read_rows = traceio._Streams.expected, traceio._read_rows

    def counted_expected(self, *args):
        read = expected(self, *args)
        counts["expected"] += read is not None
        return read

    def counted_read_rows(*args):
        counts["general"] += 1
        return read_rows(*args)

    monkeypatch.setattr(traceio._Streams, "expected", counted_expected)
    monkeypatch.setattr(traceio, "_read_rows", counted_read_rows)
    return counts


@pytest.mark.parametrize("block_bytes, general", [(None, 1), (3000, 2)])
def test_every_later_block_of_a_written_file_takes_the_expected_rows(tmp_path, monkeypatch, block_bytes, general):
    # The general path reads the blocks until the first tick is complete
    # (two blocks of 3000 bytes for 72 streams), then every block continues
    # the stream order. A silent fall-back would only slow the reader.
    if block_bytes:
        monkeypatch.setattr(traceio, "_BLOCK_BYTES", block_bytes)
    lines = written_lines(tmp_path, rounds=700 if block_bytes is None else 12)
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    counts = path_counts(monkeypatch)
    read_trace_file(path)
    blocks = counts["expected"] + counts["general"]
    assert counts["general"] == general and blocks > 2 + general
    assert blocks == -(-(path.stat().st_size - len(lines[0]) - 2) // traceio._BLOCK_BYTES) or block_bytes


def test_agrees_on_corruptions_in_later_blocks(tmp_path, monkeypatch):
    # Every corruption lands in a block that the expected-rows path reads
    # first; the block then goes whole to the general path, which words the
    # error as the oracle does, or reads it as the oracle reads it.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", 3000)
    lines = written_lines(tmp_path)
    path = tmp_path / "trace.csv"
    rng = np.random.default_rng(2025)
    counts = path_counts(monkeypatch)
    cases = fell_back = 0
    for field, values in CORRUPTIONS.items():
        for value in values:
            row = int(rng.integers(len(lines) // 2, len(lines)))
            fields = lines[row].split(b",")
            if fields[field] == value.encode():
                continue
            fields[field] = value.encode()
            path.write_bytes(b"\r\n".join(lines[:row] + [b",".join(fields)] + lines[row + 1 :]) + b"\r\n")
            counts["general"] = 0
            assert_agrees(path)
            cases += 1
            fell_back += counts["general"] > 2
    assert cases > 50 and fell_back > 0.9 * cases


def test_agrees_when_the_stream_order_changes_after_the_first_block(tmp_path, monkeypatch):
    # From tick 5 on, each tick lists its streams in another order: the
    # expected rows stop matching, and the general path places each row.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", 3000)
    lines = written_lines(tmp_path)
    streams = 72
    ticks = [lines[1 + t * streams : 1 + (t + 1) * streams] for t in range((len(lines) - 1) // streams)]
    rng = np.random.default_rng(4)
    for t in range(5, len(ticks)):
        ticks[t] = [ticks[t][i] for i in (rng.permutation(streams) if t % 2 else np.arange(streams)[::-1])]
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\r\n".join([lines[0]] + [row for tick in ticks for row in tick]) + b"\r\n")
    counts = path_counts(monkeypatch)
    assert_agrees(path)
    assert counts["expected"] > 0 and counts["general"] > 10


@pytest.mark.parametrize("where", ["last", "middle"])
def test_agrees_when_a_stream_is_first_heard_after_the_order_is_known(tmp_path, monkeypatch, where):
    # One stream's rows of the first ticks move to the end of the file, so
    # the order is known without it; it is first heard in a later block and
    # gets the last column. Then the same without one of the moved rows.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", 3000)
    lines = written_lines(tmp_path)
    streams, late = 72, 71 if where == "last" else 30
    moved = [1 + t * streams + late for t in range(4)]
    rows = [line for i, line in enumerate(lines) if i not in moved] + [lines[i] for i in moved]
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\r\n".join(rows) + b"\r\n")
    counts = path_counts(monkeypatch)
    assert_agrees(path)
    assert counts["expected"] > 0
    path.write_bytes(b"\r\n".join(rows[:-2] + rows[-1:]) + b"\r\n")
    assert "no row for" in assert_agrees(path)


def test_agrees_on_blank_lines_and_mixed_line_ends_in_later_blocks(tmp_path, monkeypatch):
    # Blank lines, `\r` alone, and LF or CRLF line ends do not stop the
    # expected rows: every block after the first tick takes them.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", 3000)
    lines = written_lines(tmp_path)
    rng = np.random.default_rng(8)
    text = [lines[0] + b"\r\n"]
    for line in lines[1:]:
        text.append(line + (b"\n" if rng.random() < 0.5 else b"\r\n"))
        if rng.random() < 0.1:
            text.append(rng.choice([b"\n", b"\r\n", b"\n\n", b"\r\n\r\n"]))
    path = tmp_path / "trace.csv"
    path.write_bytes(b"".join(text))
    counts = path_counts(monkeypatch)
    assert_agrees(path)
    assert counts["general"] == 2 and counts["expected"] > 10


def edge_rows(kind: str) -> list[str]:
    """Rows of a complete two-stream trace: the shortest received rows (one-
    digit ticks, 24 bytes), or long ones (18-digit ids and directions, a
    32-character tx power and RSSI) ending in the longest, whose tick and
    `seq` have 18 digits too."""
    if kind == "shortest":
        return [f"{t},{tx},{1 - tx},omni,,,,0,{t},true,{t}" for t in range(10) for tx in (0, 1)]
    ids, power = "{:018d}", "-0.00000000000000000000000000001"
    rssi = ["-61.0000000000000000000000000001", "-0.00000000000000000000000000001", "-61.25", "-5"]
    ticks = [str(t) for t in range(11)] + [ids.format(11)]
    return [
        f"{tick},{ids.format(tx)},{ids.format(1 - tx)},directional,,{ids.format(2)},{ids.format(5)},{power},{tick},"
        + (f"true,{rssi[(t + tx) % 4]}" if (t + tx) % 5 else "false,")
        for t, tick in enumerate(ticks)
        for tx in (0, 1)
    ]


@pytest.mark.parametrize("kind", ["shortest", "longest"])
@pytest.mark.parametrize("block_bytes", [40, 64, 100])
def test_gathers_stay_in_the_buffer_at_block_edges(tmp_path, monkeypatch, kind, block_bytes):
    # No gather of either path starts before the block or outside it, or
    # reaches past the buffer: a negative start would wrap silently. Rows of
    # the shortest form start blocks, where a right-aligned RSSI window
    # starts at the block's first byte; rows of the longest form end them.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", block_bytes)
    read_block, gather = traceio._read_block, traceio._gather
    block = {}

    def checked_read_block(buf, size, *args):
        block["size"] = size
        return read_block(buf, size, *args)

    def checked_gather(buf, starts, width):
        if len(starts):
            assert 0 <= starts.min() and starts.max() < block["size"]
            assert starts.max() + max(width, 1) <= len(buf)
            if width == traceio._WINDOW:
                block["window at 0"] = block.get("window at 0", False) or starts.min() == 0
        return gather(buf, starts, width)

    monkeypatch.setattr(traceio, "_read_block", checked_read_block)
    monkeypatch.setattr(traceio, "_gather", checked_gather)
    counts = path_counts(monkeypatch)
    rows = edge_rows(kind)
    assert len(rows[0]) == 24 if kind == "shortest" else len(rows[-1]) == max(map(len, rows)) == 197
    path = tmp_path / "trace.csv"
    # The rows; without one; with a bad flag near the end; with no tick in
    # the first row, a row of eleven fields one byte shorter; and with the
    # last row's numbers written without their leading zeros, so that it is
    # far shorter than the expected text of its cell.
    bad_flag = rows[:-3] + [rows[-3].replace(",true,", ",yes,")] + rows[-2:]
    short_last = rows[:-1] + [re.sub(r"(?<![^,])0+(?=[0-9])", "", rows[-1])]
    for rows in (rows, rows[:7] + rows[8:], bad_flag, [rows[0][1:]] + rows[1:], short_last):
        path.write_text("\r\n".join([",".join(traceio.TRACE_HEADER), *rows]) + "\r\n")
        assert_agrees(path)
    assert counts["expected"] > 5 and counts["general"] > 3
    assert block.get("window at 0") or kind == "longest"


def first_block_streams(text: bytes) -> int:
    """Streams in the rows that begin in the file's first block."""
    head = text[: traceio._BLOCK_BYTES].split(b"\n")[1:-1]
    return len({tuple(line.split(b",")[1:8]) for line in head if line.strip()})


def test_agrees_when_streams_are_first_heard_in_a_later_block(tmp_path, monkeypatch):
    # Shuffled rows: the array is sized from the first block's streams and
    # widened for each stream heard later; then the same file without one
    # row, and with one row twice.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", 3000)
    lines = written_lines(tmp_path)
    text = reshaped(lines, "shuffled")
    assert first_block_streams(text) < 72  # of the two links' 36 pattern pairs each
    path = tmp_path / "trace.csv"
    path.write_bytes(text)
    assert_agrees(path)
    rows = text.split(b"\r\n")
    path.write_bytes(b"\r\n".join(rows[:40] + rows[41:]))
    assert "no row for" in assert_agrees(path)
    path.write_bytes(b"\r\n".join(rows[:-20] + [rows[30]] + rows[-20:]))
    assert "duplicate of line 31" in assert_agrees(path)


def test_agrees_on_a_file_longer_than_its_first_ticks_suggest(tmp_path, monkeypatch):
    # The first ticks' RSSI is written long, so the bytes per row they show
    # undercount the ticks and the array is lengthened as later ticks come.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", 3000)
    lines = written_lines(tmp_path)
    rows = 2 * 72  # two ticks of 72 streams
    long = [line.replace(b",true,-", b",true,-000000000000") for line in lines[1 : 1 + rows]]
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\r\n".join([lines[0], *long, *lines[1 + rows :]]) + b"\r\n")
    assert_agrees(path)


def far_tick(line: bytes, tick: int) -> bytes:
    fields = line.split(b",")
    fields[0] = fields[8] = str(tick).encode()
    return b",".join(fields)


def test_agrees_on_a_far_tick_and_a_later_duplicate(tmp_path, monkeypatch):
    # A tick beyond what the file can hold is set aside in an early block;
    # a repeated row in a later block is still the error, as is a far row
    # repeated before it.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", 3000)
    lines = written_lines(tmp_path)
    path = tmp_path / "trace.csv"
    far = list(lines)
    far[5] = far_tick(far[5], 10**6)
    repeated = far[:-10] + [far[100]] + far[-10:]
    path.write_bytes(b"\r\n".join(repeated) + b"\r\n")
    assert "tick 1: duplicate of line 101" in assert_agrees(path)
    repeated = far[:300] + [far[5]] + repeated[300:]
    path.write_bytes(b"\r\n".join(repeated) + b"\r\n")
    assert "tick 1000000: duplicate of line 6" in assert_agrees(path)
    path.write_bytes(b"\r\n".join(far) + b"\r\n")
    assert assert_agrees(path).endswith("tick 0")  # the far row's own cell


def test_agrees_on_a_far_tick_in_a_small_file_without_sizing_by_it(tmp_path):
    # Tick 10**6 in a 2-stream file of 18 ticks: a missing cell, found
    # without allocating anything of ticks x streams, even one byte a cell.
    trace, _ = simulated_trace("omni", -64.0)
    path = tmp_path / "trace.csv"
    write_trace_file(path, trace)
    lines = path.read_bytes().split(b"\r\n")
    lines[-2] = far_tick(lines[-2], 10**6)
    path.write_bytes(b"\r\n".join(lines))
    tracemalloc.start()
    try:
        message = outcome(read_trace_file, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message == assert_agrees(path)
    assert message.endswith(f"no row for 1->0 omni tick {trace.num_ticks - 1}")
    assert peak < 10**6 * len(trace.kinds)


def test_agrees_on_a_far_tick_just_past_complete_ticks(tmp_path):
    # Rows of the shortest form: the file holds no more rows than it has, so
    # a row of tick 4 after four complete ticks of two streams is set aside,
    # and the missing cell is found beyond the placed ticks.
    rows = [f"{t},{tx},{1 - tx},omni,,,,0,{t},false," for t in range(4) for tx in (0, 1)]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join([",".join(traceio.TRACE_HEADER), *rows, "4,0,1,omni,,,,0,4,false,"]) + "\n")
    assert len(rows[0]) + 1 == traceio._SHORTEST_ROW
    assert assert_agrees(path).endswith("no row for 1->0 omni tick 4")
    path.write_text("\n".join([",".join(traceio.TRACE_HEADER), *rows, "4,1,0,omni,,,,0,4,false,"]) + "\n")
    assert assert_agrees(path).endswith("no row for 0->1 omni tick 4")


def assert_writes_alike(tmp_path, trace) -> bytes:
    """The bytes both writers write for `trace`."""
    write_trace_file(tmp_path / "new.csv", trace)
    oracle_write_trace_file(tmp_path / "old.csv", trace)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    return new


@pytest.mark.parametrize(
    "mode, sensitivity_dbm",
    [("omni", -64.0), ("multichannel", -64.0), ("directional", -60.0), ("directional", -90.0)],
)
def test_writer_writes_the_oracle_bytes_on_simulated_traces(tmp_path, mode, sensitivity_dbm):
    trace, _ = simulated_trace(mode, sensitivity_dbm, rounds=30)
    assert np.isnan(trace.rssi).any() or sensitivity_dbm < -80
    assert_writes_alike(tmp_path, trace)


def test_writer_writes_the_oracle_bytes_for_values_repr_writes_its_own_way(tmp_path, monkeypatch):
    # RSSI outside 1e-4 <= |x| < 1e16, and below 1 inside it, exact ties, 16-digit candidates above
    # 2**53, short decimals and integers, beside lost packets; blocks of
    # part of a tick and of several ticks.
    trace, _ = simulated_trace("multichannel", -64.0, rounds=30)
    rng = np.random.default_rng(5)
    specials = np.array(
        [-0.0, 0.0, 5e-324, -0.25, 0.999, 1e16, -1e16, 1.7976931348623157e308, -1e-5,
         2.0**50 + 0.25, 1e15 + 0.125, -9.123456789012345, -52.0, -52.5, 7.0, 1e22]
    )
    rssi = trace.rssi.copy()
    cells = rng.choice(rssi.size, rssi.size // 4, replace=False)
    rssi.reshape(-1)[cells] = rng.choice(specials, len(cells))
    trace = RssTrace(trace.mode, trace.tx_power_dbm, trace.links, trace.kinds, rssi)
    assert np.isnan(trace.rssi).any()
    for block_lines in (5, 2048):
        monkeypatch.setattr(traceio, "_BLOCK_LINES", block_lines)
        assert_writes_alike(tmp_path, trace)


@pytest.mark.parametrize("power", [0.0, -12.5, 3, np.float64(-7.25), np.int64(2)])
def test_writer_writes_the_oracle_bytes_for_any_tx_power(tmp_path, power):
    # The trace keeps its power as a Python float, so both write `3.0` for
    # 3 and `-7.25` for np.float64(-7.25); a write, read and write is a
    # fixed point.
    trace, _ = simulated_trace("omni", -64.0)
    trace = RssTrace(trace.mode, power, trace.links, trace.kinds, trace.rssi)
    written = assert_writes_alike(tmp_path, trace)
    assert f",{float(power)!r},".encode() in written.split(b"\r\n")[1]
    write_trace_file(tmp_path / "again.csv", read_trace_file(tmp_path / "new.csv"))
    assert (tmp_path / "again.csv").read_bytes() == written


def awkward_values() -> np.ndarray:
    """NaN, infinities, signed zeros, subnormals, the neighbours of 1e-4, 1
    and 1e16, and values like positions and image values, of both signs."""
    values = [np.nan, np.inf, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 0.5, 52.0]
    for x in (1e-4, 1.0, 1e16):
        values += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    rng = np.random.default_rng(26)
    values += list(rng.uniform(0.0, 6.0, 20)) + list(np.exp(rng.uniform(-12.0, 3.0, 40)))
    values = np.array(values)
    return np.concatenate((values, -values))


def shuffled(shape) -> np.ndarray:
    """The awkward values in random order, repeated to fill `shape`."""
    values = awkward_values()
    return np.random.default_rng(27).permutation(np.resize(values, int(np.prod(shape)))).reshape(shape)


@pytest.mark.parametrize("block_lines", [1, 3, 2048])
def test_truth_and_trajectory_writers_write_the_oracle_bytes(tmp_path, monkeypatch, block_lines):
    monkeypatch.setattr(traceio, "_BLOCK_LINES", block_lines)
    truth = shuffled((60, 2))
    write_truth_file(tmp_path / "truth.csv", truth, first_tick=40)
    trace_oracles.write_truth_file(tmp_path / "old_truth.csv", truth, first_tick=40)
    assert (tmp_path / "truth.csv").read_bytes() == (tmp_path / "old_truth.csv").read_bytes()
    track = shuffled((50, 5))
    write_trajectory(tmp_path / "trajectory.csv", track, 7)
    rows = [(7 + i, *row) for i, row in enumerate(track.tolist())]
    trace_oracles.write_trajectory(tmp_path / "old_trajectory.csv", rows)
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "old_trajectory.csv").read_bytes()


@pytest.mark.parametrize("width, height", [(1, 1), (1, 7), (30, 30), (61, 3)])
def test_frame_csv_writer_writes_the_oracle_bytes(width, height):
    grid = build_grid((0.0, 0.0), width * 0.5, height * 0.5, 0.5)
    frame = ImageFrame(time=0, values=shuffled(grid.num_voxels))
    assert frame_to_csv(frame, grid) == trace_oracles.frame_to_csv(frame, grid).encode()


def test_truth_and_trajectory_of_the_wrong_width_are_refused(tmp_path):
    # The old writers failed unpacking such a row; a grid writer would
    # write only the first values of each.
    with pytest.raises(ValueError, match="cells of 3 values for 2 value fields"):
        write_truth_file(tmp_path / "truth.csv", np.ones((4, 3)))
    with pytest.raises(ValueError, match="cells of 4 values for 5 value fields"):
        write_trajectory(tmp_path / "trajectory.csv", np.ones((4, 4)))
    with pytest.raises(ValueError):
        trace_oracles.write_truth_file(tmp_path / "old_truth.csv", np.ones((4, 3)))
