"""Trace and truth file format tests: exact round trips, line-numbered
parse errors, and the reader's ingest checks."""

from __future__ import annotations

import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from rti import traceio
from rti.geometry import PATTERN_PAIRS, build_grid
from rti.linkstats import RssTrace, pattern_stream
from rti.presets import ring_layout
from rti.simulator import PropagationParams, Scenario, Trajectory, simulate
from rti.traceio import (
    TRACE_HEADER,
    TraceParseError,
    read_trace_file,
    read_truth_file,
    write_trace_file,
    write_truth_file,
)
from tests.test_simulator import two_node_layout


def simulated_trace(mode="directional", sensitivity_dbm=-75.0, rounds=12):
    scenario = Scenario(
        two_node_layout(d=8.0),
        build_grid((0, 0), 1, 1, 0.2),
        mode,
        trajectory=Trajectory(((0.4, 0.5), (0.6, 0.5)), 0.02),
        seed=13,
        rounds=rounds,
        calibration_rounds=5,
    )
    # High sensitivity forces a mix of received and lost packets.
    params = PropagationParams(sensitivity_dbm=sensitivity_dbm)
    return simulate(scenario, params)


def test_trace_round_trip_exact(tmp_path):
    trace, _ = simulated_trace()
    assert trace.rssi.size > 1000
    assert np.isnan(trace.rssi).any()
    assert not np.isnan(trace.rssi).all()
    path = tmp_path / "trace.csv"
    write_trace_file(path, trace)
    loaded = read_trace_file(path)
    assert (loaded.mode, loaded.tx_power_dbm) == (trace.mode, trace.tx_power_dbm)
    assert loaded.streams == trace.streams
    np.testing.assert_array_equal(loaded.rssi, trace.rssi)
    assert np.array_equal(loaded.rssi, trace.rssi, equal_nan=True)


def test_trace_header_written(tmp_path):
    trace = RssTrace("omni", 0.0, ((0, 1, None, None, None),), np.array([[-40.0]]))
    path = tmp_path / "trace.csv"
    write_trace_file(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_HEADER)
    assert lines[1] == "0,0,1,omni,,,,0.0,0,true,-40.0"


def test_lost_packet_row_has_empty_rssi(tmp_path):
    trace = RssTrace(
        "multichannel", 0.0, ((1, 0, 15, None, None),), np.full((4, 1), np.nan)
    )
    path = tmp_path / "trace.csv"
    write_trace_file(path, trace)
    assert path.read_text().splitlines()[4] == "3,1,0,multichannel,15,,,0.0,3,false,"
    loaded = read_trace_file(path)
    assert loaded.streams == trace.streams
    assert np.isnan(loaded.rssi).all() and loaded.rssi.shape == (4, 1)


def test_trace_rejects_wrong_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("tick,tx,rx\n0,0,1\n")
    with pytest.raises(TraceParseError, match="header"):
        read_trace_file(path)


def test_trace_rejects_empty_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("")
    with pytest.raises(TraceParseError, match="empty"):
        read_trace_file(path)


def test_trace_error_names_line(tmp_path):
    trace, _ = simulated_trace()
    path = tmp_path / "trace.csv"
    write_trace_file(path, trace)
    lines = path.read_text().splitlines()
    lines[6] = lines[6].replace("true", "perhaps").replace("false", "perhaps")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="line 7"):
        read_trace_file(path)


def test_trace_error_on_short_row(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(",".join(TRACE_HEADER) + "\n0,0,1,omni\n")
    with pytest.raises(TraceParseError, match="line 2"):
        read_trace_file(path)


def test_trace_error_on_bad_number(tmp_path):
    path = tmp_path / "trace.csv"
    good = "0,0,1,omni,,,,0.0,0,true,-40.0"
    bad = "x,0,1,omni,,,,0.0,1,true,-40.0"
    path.write_text(",".join(TRACE_HEADER) + f"\n{good}\n{bad}\n")
    with pytest.raises(TraceParseError, match="line 3"):
        read_trace_file(path)


# ------------------------------------------------------- ingest checks
# Two pattern streams of link 0->1 over two ticks; each check below breaks
# one row of this file and pins the error, which names the line, the stream
# and the tick.

GOOD_ROWS = [
    "0,0,1,directional,,1,1,0.0,0,true,-50.0",
    "0,0,1,directional,,1,2,0.0,0,false,",
    "1,0,1,directional,,1,1,0.0,1,true,-51.0",
    "1,0,1,directional,,1,2,0.0,1,true,-52.5",
]


def write_rows(tmp_path, rows):
    path = tmp_path / "trace.csv"
    path.write_text(",".join(TRACE_HEADER) + "\n" + "\n".join(rows) + "\n")
    return path


def rejection(tmp_path, rows) -> str:
    with pytest.raises(TraceParseError) as info:
        read_trace_file(write_rows(tmp_path, rows))
    return str(info.value)


def replaced(line, row):
    rows = list(GOOD_ROWS)
    rows[line - 2] = row
    return rows


def test_reader_builds_columns_in_any_row_order(tmp_path):
    trace = read_trace_file(write_rows(tmp_path, GOOD_ROWS))
    assert trace.mode == "directional" and trace.tx_power_dbm == 0.0
    assert trace.streams == ((0, 1, None, 1, 1), (0, 1, None, 1, 2))
    np.testing.assert_array_equal(trace.rssi, [[-50.0, np.nan], [-51.0, -52.5]])
    shuffled = read_trace_file(write_rows(tmp_path, GOOD_ROWS[::-1]))
    assert set(shuffled.streams) == set(trace.streams)
    for key in trace.streams:
        np.testing.assert_array_equal(
            shuffled.rssi[:, shuffled.column[key]], trace.rssi[:, trace.column[key]]
        )


def test_reader_rejects_bad_received_flag(tmp_path):
    rows = replaced(4, "1,0,1,directional,,1,1,0.0,1,maybe,-51.0")
    assert rejection(tmp_path, rows) == (
        "line 4: 0->1 pair (1,1) tick 1: received must be true or false, got 'maybe'"
    )


def test_reader_rejects_received_without_rssi(tmp_path):
    rows = replaced(4, "1,0,1,directional,,1,1,0.0,1,true,")
    assert rejection(tmp_path, rows) == (
        "line 4: 0->1 pair (1,1) tick 1: received row without rssi"
    )


def test_reader_rejects_lost_with_rssi(tmp_path):
    rows = replaced(3, "0,0,1,directional,,1,2,0.0,0,false,-60.0")
    assert rejection(tmp_path, rows) == (
        "line 3: 0->1 pair (1,2) tick 0: lost row must not carry rssi"
    )


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_reader_rejects_non_finite_rssi(tmp_path, text):
    rows = replaced(5, f"1,0,1,directional,,1,2,0.0,1,true,{text}")
    assert rejection(tmp_path, rows) == (
        f"line 5: 0->1 pair (1,2) tick 1: non-finite rssi '{text}'"
    )


def test_reader_rejects_channel_and_pattern_together(tmp_path):
    rows = replaced(2, "0,0,1,directional,11,1,1,0.0,0,true,-50.0")
    assert rejection(tmp_path, rows) == (
        "line 2: tick 0: a stream cannot carry both channel and pattern fields"
    )


@pytest.mark.parametrize("dirs", ["7,1", "1,0"])
def test_reader_rejects_pattern_directions_outside_the_antenna(tmp_path, dirs):
    rows = replaced(2, f"0,0,1,directional,,{dirs},0.0,0,true,-50.0")
    assert rejection(tmp_path, rows) == (
        "line 2: tick 0: pattern directions must be in [1, 6]"
    )


def test_reader_rejects_a_channel_outside_the_supported_set(tmp_path):
    rows = [
        "0,0,1,multichannel,11,,,0.0,0,true,-50.0",
        "0,0,1,multichannel,99,,,0.0,0,true,-51.0",
    ]
    assert rejection(tmp_path, rows) == (
        "line 3: tick 0: channel 99 outside supported set (11, 15, 18, 21, 26)"
    )


def test_reader_rejects_half_pattern(tmp_path):
    rows = replaced(2, "0,0,1,directional,,1,,0.0,0,true,-50.0")
    assert rejection(tmp_path, rows) == (
        "line 2: tick 0: pattern streams need both tx_dir and rx_dir"
    )


def test_reader_rejects_mixed_mode_and_tx_power(tmp_path):
    rows = replaced(5, "1,0,1,omni,,,,0.0,1,true,-52.5")
    assert rejection(tmp_path, rows) == (
        "line 5: 0->1 omni tick 1: mode 'omni' and tx power 0.0 differ "
        "from the first row's 'directional' and 0.0"
    )
    rows = replaced(4, "1,0,1,directional,,1,1,3.0,1,true,-51.0")
    assert "tx power 3.0 differ" in rejection(tmp_path, rows)


@pytest.mark.parametrize(
    "line, row, message",
    [
        (3, "0,0,1,directional,11,,,0.0,0,true,-50.0",
         "line 3: tick 0: 0->1 channel 11 is not a stream of mode 'directional'"),
        (4, "1,0,1,directional,,,,0.0,1,true,-51.0",
         "line 4: tick 1: 0->1 omni is not a stream of mode 'directional'"),
        (5, "1,0,1,omni,,1,2,0.0,1,true,-52.5",
         "line 5: tick 1: 0->1 pair (1,2) is not a stream of mode 'omni'"),
    ],
)
def test_reader_rejects_a_stream_of_another_mode(tmp_path, line, row, message):
    assert rejection(tmp_path, replaced(line, row)) == message


def test_reader_rejects_channel_and_omni_streams_in_a_directional_file(tmp_path):
    rows = [
        "0,0,1,directional,11,,,0.0,0,true,-50.0",
        "0,0,1,directional,,,,0.0,0,false,",
        "1,0,1,directional,11,,,0.0,1,true,-51.0",
        "1,0,1,directional,,,,0.0,1,true,-52.5",
    ]
    assert rejection(tmp_path, rows) == (
        "line 2: tick 0: 0->1 channel 11 is not a stream of mode 'directional'"
    )
    assert rejection(tmp_path, rows[1::2]) == (
        "line 2: tick 0: 0->1 omni is not a stream of mode 'directional'"
    )


def test_reader_rejects_seq_other_than_tick(tmp_path):
    rows = replaced(4, "1,0,1,directional,,1,1,0.0,7,true,-51.0")
    assert rejection(tmp_path, rows) == (
        "line 4: 0->1 pair (1,1) tick 1: seq 7 differs from the tick"
    )


def test_reader_rejects_negative_tick(tmp_path):
    rows = replaced(2, "-1,0,1,directional,,1,1,0.0,-1,true,-50.0")
    assert rejection(tmp_path, rows) == "line 2: 0->1 pair (1,1) tick -1: negative tick"


def test_reader_rejects_duplicate_cell(tmp_path):
    rows = GOOD_ROWS + ["0,0,1,directional,,1,2,0.0,0,true,-49.0"]
    assert rejection(tmp_path, rows) == (
        "line 6: 0->1 pair (1,2) tick 0: duplicate of line 3"
    )


def test_reader_rejects_missing_cell(tmp_path):
    rows = GOOD_ROWS[:3]
    message = rejection(tmp_path, rows)
    assert message.endswith("trace.csv: no row for 0->1 pair (1,2) tick 1")


def test_reader_rejects_header_only_file(tmp_path):
    assert rejection(tmp_path, []).endswith("trace file has no rows")


# ------------------------------------------------------------- grammar
# The reader takes the writer's grammar only. Each form below got through
# Python's int(), float() or the received flag's strip().lower() before,
# except `NaN`, once rejected as non-finite, and a tick beyond int64.

NEWLY_REJECTED = [
    (5, "1,0,1,directional,,1,2,0.0,1,true,-5_2.5",
     "line 5: 0->1 pair (1,2) tick 1: rssi must be a decimal of at most 32 characters, got '-5_2.5'"),
    (5, "1,0,1,directional,,1,2,0.0,1,true, -52.5",
     "line 5: 0->1 pair (1,2) tick 1: rssi must be a decimal of at most 32 characters, got ' -52.5'"),
    (5, "1,0,1,directional,,1,2,0.0,1,true,+52.5",
     "line 5: 0->1 pair (1,2) tick 1: rssi must be a decimal of at most 32 characters, got '+52.5'"),
    (5, "1,0,1,directional,,1,2,0.0,1,true,-52.",
     "line 5: 0->1 pair (1,2) tick 1: rssi must be a decimal of at most 32 characters, got '-52.'"),
    (5, "1,0,1,directional,,1,2,0.0,1,true,NaN",
     "line 5: 0->1 pair (1,2) tick 1: rssi must be a decimal of at most 32 characters, got 'NaN'"),
    (5, "1,0,1,directional,,1,2,0.0,1,true,-5" + "0" * 31,
     "line 5: 0->1 pair (1,2) tick 1: rssi must be a decimal of at most 32 characters, "
     "got '-5" + "0" * 31 + "'"),
    (4, " 1,0,1,directional,,1,1,0.0,1,true,-51.0",
     "line 4: tick must be an integer of at most 18 digits, got ' 1'"),
    (4, "+1,0,1,directional,,1,1,0.0,1,true,-51.0",
     "line 4: tick must be an integer of at most 18 digits, got '+1'"),
    (4, '"1",0,1,directional,,1,1,0.0,1,true,-51.0',
     "line 4: tick must be an integer of at most 18 digits, got '\"1\"'"),
    (4, "1,0,1,directional,,1,1,0.0,+1,true,-51.0",
     "line 4: 0->1 pair (1,1) tick 1: seq must be an integer of at most 18 digits, got '+1'"),
    (4, "1,0,1,directional,,1,1,0.0,1, TRUE ,-51.0",
     "line 4: 0->1 pair (1,1) tick 1: received must be true or false, got ' TRUE '"),
    (4, "1,0,1,directional,,1,1,0.0,1,True,-51.0",
     "line 4: 0->1 pair (1,1) tick 1: received must be true or false, got 'True'"),
    (2, "0,0,1,directional,,1,1,+0.0,0,true,-50.0",
     "line 2: tick 0: tx power must be a decimal of at most 32 characters, got '+0.0'"),
    (2, "0,0,1,directional,, 1,1,0.0,0,true,-50.0",
     "line 2: tick 0: tx_dir must be an integer of at most 18 digits, got ' 1'"),
    # Beyond int64: this escaped as a bare ValueError from numpy.
    (4, f"{10**30},0,1,directional,,1,1,0.0,{10**30},true,-51.0",
     f"line 4: tick must be an integer of at most 18 digits, got '{10**30}'"),
]


@pytest.mark.parametrize("line, row, message", NEWLY_REJECTED)
def test_reader_rejects_forms_outside_the_writer_grammar(tmp_path, line, row, message):
    assert rejection(tmp_path, replaced(line, row)) == message


def test_reader_accepts_the_writer_grammar(tmp_path):
    rows = [
        "-0,0,1,directional,,1,1,0.0,0,true,-5.0e1",
        "0,0,1,directional,,01,2,0.00,0,false,",  # the same stream as (1,2)
        "1,0,1,directional,,1,1,0.0,1,true,-5" + "0" * 30,
        "001,0,1,directional,,1,2,0.0,1,true,-0.525E2",
    ]
    path = tmp_path / "trace.csv"
    header = ",".join(TRACE_HEADER)
    path.write_bytes(f"{header}\r\n\n{rows[0]}\n{rows[1]}\r\n\r\n{rows[2]}\n{rows[3]}".encode())
    trace = read_trace_file(path)
    assert trace.streams == ((0, 1, None, 1, 1), (0, 1, None, 1, 2))
    np.testing.assert_array_equal(trace.rssi, [[-50.0, np.nan], [-5e30, -52.5]])


def test_reader_reads_rssi_in_exponent_form(tmp_path, monkeypatch):
    # Blocks of a few dozen rows, so both reader paths meet the form.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", 2048)
    trace, _ = simulated_trace()
    fixed = tmp_path / "fixed.csv"
    write_trace_file(fixed, trace)
    rows = [row.split(",") for row in fixed.read_text().splitlines()[1:]]
    received = [i for i, row in enumerate(rows) if row[10]]
    for i in received:
        rows[i][10] = "%.17e" % float(rows[i][10])
    rows = [",".join(row) for row in rows]
    assert read_trace_file(write_rows(tmp_path, rows)).rssi.tobytes() == read_trace_file(fixed).rssi.tobytes()
    bad = received[-10]
    rows[bad] = rows[bad].rsplit(",", 1)[0] + ",1e5e5"
    message = rejection(tmp_path, rows)
    assert message.startswith(f"line {bad + 2}: ") and message.endswith("got '1e5e5'")


def test_reader_matches_stream_fields_byte_for_byte(tmp_path):
    # A span one trailing NUL longer than a known one is a different span.
    rows = replaced(5, "1,0,1,directional,,1,2,0.0\0,1,true,-52.5")
    assert rejection(tmp_path, rows) == (
        "line 5: tick 1: tx power must be a decimal of at most 32 characters, got '0.0\\x00'"
    )


def test_reader_rejects_a_19_digit_tick_that_continues_the_stream_order(tmp_path, monkeypatch):
    # Blocks of a row or two: rows in stream order up to tick 10**18 - 1
    # are read as expected rows; the next tick has 19 digits.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", 64)
    ticks = range(10**18 - 3, 10**18 + 1)
    rows = [f"{t},{tx},{1 - tx},omni,,,,0,{t},true,-5{tx}.5" for t in ticks for tx in (0, 1)]
    assert rejection(tmp_path, rows) == (
        f"line 8: tick must be an integer of at most 18 digits, got '{10**18}'"
    )


def test_reader_reports_a_far_tick_as_a_missing_cell(tmp_path):
    # A tick beyond what the file can hold is set aside, so a tick near the
    # int64 limit costs nothing sized ticks x streams.
    far = "9" * 18
    rows = replaced(4, f"{far},0,1,directional,,1,1,0.0,{far},true,-51.0")
    assert rejection(tmp_path, rows).endswith("trace.csv: no row for 0->1 pair (1,1) tick 1")


@pytest.mark.parametrize("where", ["within a block", "across blocks"])
def test_reader_rejects_a_line_longer_than_any_well_formed_row(tmp_path, monkeypatch, where):
    # One message whether the line ends inside a block or runs past it.
    if where == "across blocks":
        monkeypatch.setattr(traceio, "_BLOCK_BYTES", 100)
    longest = "-1" + "0" * 32
    assert len(longest) > traceio._FLOAT_CHARS
    rows = replaced(4, f"1,0,1,directional,,1,1,0.0,1,true,{longest * 6}")
    message = "line 4: longer than 225 bytes, the most a well-formed row takes"
    assert rejection(tmp_path, rows) == message
    assert rejection(tmp_path, replaced(5, GOOD_ROWS[3] + "," * 300)) == message.replace("4", "5")


def test_reader_rejects_an_overlong_line_without_holding_it(tmp_path):
    # A 4 MiB body with no line end is rejected after one block, so the
    # peak stays near the block buffer; the whole line read into memory
    # peaked at 5x its size.
    path = tmp_path / "trace.csv"
    path.write_bytes(",".join(TRACE_HEADER).encode() + b"\n" + b"0," * (2 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(TraceParseError) as info:
            read_trace_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "line 2: longer than 225 bytes, the most a well-formed row takes"
    assert peak <= 4 * traceio._BLOCK_BYTES


def test_reader_reads_a_pipe(tmp_path):
    # A pipe has no size to bound the ticks by, so it is read from a copy.
    trace, _ = simulated_trace(rounds=3)
    path = tmp_path / "trace.csv"
    write_trace_file(path, trace)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()))
    writer.start()
    try:
        loaded = read_trace_file(pipe)
    finally:
        writer.join()
    assert loaded.streams == trace.streams
    assert np.array_equal(loaded.rssi, trace.rssi, equal_nan=True)


def seven_node_directional_trace() -> RssTrace:
    """Random RSS with 20% lost packets, shaped like a 7-node directional
    run's trace: 160 ticks by 1,512 streams."""
    layout = ring_layout(7, 2.9, (3.0, 3.0))
    streams = tuple(pattern_stream(link, pair) for link in layout.links for pair in PATTERN_PAIRS)
    rng = np.random.default_rng(18)
    shape = (160, len(streams))
    rssi = np.where(rng.random(shape) < 0.2, np.nan, rng.normal(-55.0, 4.0, shape))
    return RssTrace("directional", 0.0, streams, rssi)


def test_writer_peak_memory_stays_below_half_the_trace(tmp_path):
    # The writer formats one tick at a time; the whole array as Python
    # floats peaked at 4.2x the trace.
    trace = seven_node_directional_trace()
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        write_trace_file(path, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * trace.rssi.nbytes


def test_reader_peak_memory_stays_near_the_trace(tmp_path, monkeypatch):
    # The reader holds the (ticks, streams) array, the first line of each
    # cell and one block's temporaries; keeping every row until the end of
    # the file peaked at 7.5x the trace.
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", 64 << 10)
    trace = seven_node_directional_trace()
    path = tmp_path / "trace.csv"
    write_trace_file(path, trace)
    tracemalloc.start()
    try:
        loaded = read_trace_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.rssi, trace.rssi, equal_nan=True)
    assert peak <= 2 * trace.rssi.nbytes + 16 * traceio._BLOCK_BYTES


@pytest.mark.parametrize(
    "routine, pattern, scalar",
    [
        (traceio._integers, r"-?[0-9]{1,18}", traceio._INTEGER_TEXT),
        (traceio._decimals, r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?", traceio._DECIMAL_TEXT),
    ],
)
def test_field_checks_match_their_patterns(routine, pattern, scalar):
    rng = np.random.default_rng(11)
    alphabet = np.frombuffer(b"0123456789-+.eE _x\r", np.uint8)
    weights = np.r_[np.full(10, 6.0), np.ones(len(alphabet) - 10)]
    text = rng.choice(alphabet, size=(5000, 9), p=weights / weights.sum())
    sizes = rng.integers(0, 10, len(text))
    strings = [bytes(row[:n]).decode() for row, n in zip(text, sizes)]
    matches = [re.fullmatch(pattern, s) is not None for s in strings]
    expected = [m and math.isfinite(float(s)) for m, s in zip(matches, strings)]
    assert 500 < sum(expected) < 4500
    # Each field after a comma, as in a row, with digits on both sides.
    buf = np.frombuffer(b"9" * 24 + b"".join(b"," + bytes(row[:n]) for row, n in zip(text, sizes)) + b"9" * 64, np.uint8)
    ends = 24 + np.cumsum(sizes + 1)
    values, ok = routine(buf.copy(), ends - sizes, ends)
    assert ok.tolist() == expected
    read = int if routine is traceio._integers else float
    assert values[ok].tolist() == [read(s) for s, good in zip(strings, expected) if good]
    # The scalar checks match the same pattern.
    assert [scalar.fullmatch(s) is not None for s in strings] == matches


def test_truth_round_trip(tmp_path):
    truth = np.array([[0.125, 2.5], [0.25, 2.75], [0.375, 3.0]])
    path = tmp_path / "truth.csv"
    write_truth_file(path, truth, first_tick=40)
    ticks, positions = read_truth_file(path)
    np.testing.assert_array_equal(ticks, [40, 41, 42])
    np.testing.assert_array_equal(positions, truth)


def test_truth_empty_track(tmp_path):
    path = tmp_path / "truth.csv"
    write_truth_file(path, np.empty((0, 2)))
    ticks, positions = read_truth_file(path)
    assert ticks.shape == (0,)
    assert positions.shape == (0, 2)


def test_truth_rejects_bad_header(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(TraceParseError, match="header"):
        read_truth_file(path)


def test_truth_error_names_line(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("tick,x,y\n40,1.0,2.0\n41,oops,2.0\n")
    with pytest.raises(TraceParseError, match="line 3"):
        read_truth_file(path)


def test_truth_reader_takes_the_longest_well_formed_row(tmp_path):
    # A 19-character tick, two 32-character decimals, two commas and `\r`.
    decimal = "-1." + "0" * 27 + "e0"
    row = f"-100000000000000000,{decimal},{decimal}\r\n"
    assert len(row) == traceio._TRUTH_LINE_BYTES + 1
    path = tmp_path / "truth.csv"
    path.write_bytes(b"tick,x,y\r\n" + row.encode())
    ticks, positions = read_truth_file(path)
    assert ticks.tolist() == [-10**17] and positions.tolist() == [[-1.0, -1.0]]
    path.write_bytes(b"tick,x,y\r\n" + row.replace(",", ",0", 1).encode())
    with pytest.raises(TraceParseError, match="^line 2: longer than 86 bytes, the most"):
        read_truth_file(path)


def test_truth_reader_rejects_an_overlong_line_in_bounded_memory(tmp_path):
    # A 16 MiB body without a line end; reading it as one line peaked at
    # 104 MB traced.
    path = tmp_path / "truth.csv"
    path.write_bytes(b"tick,x,y\n" + b"0," * (8 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(TraceParseError) as info:
            read_truth_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "line 2: longer than 86 bytes, the most a well-formed row takes"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "rows, message",
    [
        (["40,1.0,2.0,junk"], "line 2: expected 3 fields, got 4"),
        (["40,1.0,2.0", "41,nan,inf"], "line 3: non-finite x 'nan'"),
        (["40,1.0,2.0", "41,1.0,-inf"], "line 3: non-finite y '-inf'"),
        (["40,1.0,2.0", "41,1.0,2.0", "43,1.0,2.0"], "line 4: tick 43 does not follow tick 41"),
        (["40,1.0,2.0", "40,1.0,2.0"], "line 3: tick 40 does not follow tick 40"),
        (["40,1.0,2_0.0"], "line 2: y must be a decimal of at most 32 characters, got '2_0.0'"),
    ],
)
def test_truth_rejects_bad_rows(tmp_path, rows, message):
    path = tmp_path / "truth.csv"
    path.write_text("tick,x,y\n" + "\n".join(rows) + "\n")
    with pytest.raises(TraceParseError) as info:
        read_truth_file(path)
    assert str(info.value) == message
