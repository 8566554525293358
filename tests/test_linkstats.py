import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import stat_oracles
from rti.geometry import PATTERN_PAIRS, PatternPair
from rti.linkstats import (
    MODES,
    VALID_CHANNELS,
    InsufficientWindowError,
    RssTrace,
    batch_window_variance,
    calibration_deviation,
    carry_forward,
    first_heard,
    fn_fp_sweep,
    forward_fill,
    stream_columns,
    stream_kinds,
    window_variance,
)
from rti.presets import los_7node, nlos_7node, ring_layout
from rti.simulator import simulate
from rti.traceio import _parse_stream
from stat_oracles import (
    CalibrationTable,
    MissingCalibrationError,
    calibrate,
    channel_stream,
    classify_link_attenuation,
    fn_fp_sweep_broadcast,
    fn_fp_sweep_loop,
    crti_mean_stat,
    crti_var_stat,
    drti_mean_stat,
    drti_var_stat,
    mrti_stat,
    omni_stream,
    pattern_stream,
    stream_columns_loop,
    stream_keys,
    trace_from_keys,
    vrti_stat,
)


def omni_trace(rows, links=((0, 1),)):
    """A columnar omni trace: one row of RSS per tick, one column per link,
    None for a lost packet."""
    rssi = np.array(
        [[np.nan if v is None else v for v in row] for row in rows], dtype=float
    ).reshape(len(rows), len(links))
    return trace_from_keys("omni", 0.0, [omni_stream(link) for link in links], rssi)


def stream_code(key, mode: str) -> int:
    """The kind code the trace reader gives a stream key's fields in a row
    of a ``mode`` file; the reader's ValueError if they are not a stream of
    that mode."""
    fields = ["" if value is None else str(value) for value in key]
    return _parse_stream([*fields[:2], mode, *fields[2:], "0.0"])[2][2]


def two_pass_variance(values):
    """Independent two-pass sample variance reference."""
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / (len(values) - 1)


# ------------------------------------------------------------- records


def test_record_rejects_channel_and_pattern_together():
    with pytest.raises(ValueError, match="both channel and pattern"):
        stream_code((0, 1, 11, 1, 1), "directional")


def test_trace_rejects_infinite_rssi_and_names_the_cell():
    rssi = np.array([[-50.0, -51.0], [-50.0, -np.inf]])
    with pytest.raises(ValueError, match=r"1->0 omni tick 1: non-finite"):
        trace_from_keys("omni", 0.0, (omni_stream((0, 1)), omni_stream((1, 0))), rssi)


SHAPES = "links, kinds and rssi must be shaped (streams, 2), (streams,) and (ticks, streams)"


def test_trace_rejects_malformed_columns():
    links, kinds = np.array([[0, 1]]), np.array([0])
    with pytest.raises(ValueError) as info:
        RssTrace("omni", 0.0, links, kinds, np.zeros((3, 2)))
    assert str(info.value) == f"{SHAPES}, got (1, 2), (1,) and (3, 2)"
    with pytest.raises(ValueError) as info:
        RssTrace("omni", 0.0, links, kinds, np.zeros(3))
    assert str(info.value) == f"{SHAPES}, got (1, 2), (1,) and (3,)"
    with pytest.raises(ValueError, match="both tx_dir and rx_dir"):
        stream_code((0, 1, None, 1, None), "directional")
    with pytest.raises(ValueError) as info:
        RssTrace("omni", 0.0, np.array([[0, 1], [1, 0], [0, 1]]), np.zeros(3, int), np.zeros((3, 3)))
    assert str(info.value) == "duplicate stream 0->1 omni in trace"
    with pytest.raises(ValueError, match="mode"):
        RssTrace("radar", 0.0, links, kinds, np.zeros((3, 1)))
    with pytest.raises(ValueError, match="tx_power_dbm"):
        RssTrace("omni", math.nan, links, kinds, np.zeros((3, 1)))


def test_trace_names_the_first_repeated_stream():
    # Stream 2 repeats stream 1 and stream 3 stream 0: stream 2 is named.
    a, b = pattern_stream((0, 1), PatternPair(1, 2)), pattern_stream((5, 0), PatternPair(6, 6))
    with pytest.raises(ValueError) as info:
        trace_from_keys("directional", 0.0, [a, b, b, a], np.zeros((1, 4)))
    assert str(info.value) == "duplicate stream 5->0 pair (6,6) in trace"
    big = np.array([[2**62, -(2**62)], [-(2**62), 2**62], [2**62, -(2**62)]])
    with pytest.raises(ValueError, match=r"^duplicate stream 4611686018427387904->-4611686018427387904 omni"):
        RssTrace("omni", 0.0, big, np.zeros(3, int), np.zeros((1, 3)))


@pytest.mark.parametrize(
    "mode, links, kinds, message",
    [
        ("omni", [[0, 1], [1, 0]], [0, 1], "stream 1 (1->0): kind code 1 outside [0, 1) for mode 'omni'"),
        ("multichannel", [[0, 1]], [5], "stream 0 (0->1): kind code 5 outside [0, 5) for mode 'multichannel'"),
        ("directional", [[0, 1]], [-1], "stream 0 (0->1): kind code -1 outside [0, 36) for mode 'directional'"),
        ("omni", [[0, 1]], [[0]], f"{SHAPES}, got (1, 2), (1, 1) and (2, 1)"),
        ("omni", [0, 1], [0], f"{SHAPES}, got (2,), (1,) and (2, 1)"),
        ("omni", [[0, 1, 2]], [0], f"{SHAPES}, got (1, 3), (1,) and (2, 1)"),
    ],
)
def test_trace_rejects_stream_arrays_that_are_not_streams_of_its_mode(mode, links, kinds, message):
    with pytest.raises(ValueError) as info:
        RssTrace(mode, 0.0, links, kinds, np.zeros((2, len(kinds))))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "links, kinds",
    [([[0, 1]], [0.0]), ([[0.0, 1.0]], [0]), (np.array([[0, 1]], np.uint64), [0]), ([[0, 1]], ())],
)
def test_trace_refuses_stream_arrays_that_are_not_integers(links, kinds):
    with pytest.raises(TypeError, match="according to the rule 'safe'"):
        RssTrace("omni", 0.0, links, kinds, np.zeros((2, 1)))


@pytest.mark.parametrize(
    "links, kinds, name",
    [([[True, False]], [True], "links"), ([[1, 0]], [True], "kinds"), (np.ones((1, 2), bool), [0], "links")],
)
def test_trace_refuses_bool_stream_arrays(links, kinds, name):
    # numpy casts bool to int64 under casting="safe"; a trace refuses it,
    # as it refuses a bool tx power.
    with pytest.raises(ValueError, match=f"^{name} must be integers, got a bool array$"):
        RssTrace("directional", 0.0, links, kinds, np.zeros((1, 1)))


def test_trace_keeps_read_only_copies_of_its_stream_arrays():
    links, kinds = np.array([[0, 1], [1, 0]], np.int32), np.array([0, 0], np.int8)
    trace = RssTrace("omni", 0.0, links, kinds, np.zeros((2, 2)))
    links[0, 0] = kinds[0] = 5
    assert trace.links.tolist() == [[0, 1], [1, 0]] and trace.kinds.tolist() == [0, 0]
    assert trace.links.dtype == trace.kinds.dtype == np.int64
    assert not trace.links.flags.writeable and not trace.kinds.flags.writeable
    empty = RssTrace("omni", 0.0, np.empty((0, 2), int), np.empty(0, int), np.zeros((3, 0)))
    assert empty.links.shape == (0, 2) and empty.kinds.shape == (0,)
    assert np.array_equal(stream_columns(empty, ((0, 1),), stream_kinds("omni")), [[-1]])


@pytest.mark.parametrize("mode", MODES)
def test_kind_codes_index_the_modes_kind_table(mode):
    # A directional code is the pair's `PATTERN_PAIRS` index, the index
    # selection keeps for a pair.
    table = stream_kinds(mode, VALID_CHANNELS)
    assert [stream_code((0, 1, *kind), mode) for kind in table] == list(range(len(table)))
    if mode == "directional":
        assert [stream_code(pattern_stream((0, 1), pair), mode) for pair in PATTERN_PAIRS] == list(range(36))


@pytest.mark.parametrize(
    "power, kept",
    [(0, 0.0), (np.float64(-7.25), -7.25), (np.int64(3), 3.0), (np.float32(0.5), 0.5)],
)
def test_trace_keeps_its_tx_power_as_a_python_float(power, kept):
    trace = RssTrace("omni", power, [[0, 1]], [0], np.zeros((2, 1)))
    assert type(trace.tx_power_dbm) is float and trace.tx_power_dbm == kept


@pytest.mark.parametrize(
    "power, message",
    [
        (True, "must be a real number, got True"),
        (np.True_, "must be a real number, got np.True_"),
        ("0.0", "must be a real number, got '0.0'"),
        (None, "must be a real number, got None"),
        (np.inf, "must be finite, got inf"),
        (10**400, "must be finite"),
    ],
)
def test_trace_rejects_a_tx_power_that_is_not_a_finite_real(power, message):
    with pytest.raises(ValueError, match=r"^tx_power_dbm " + re.escape(message)):
        RssTrace("omni", power, [[0, 1]], [0], np.zeros((2, 1)))


@pytest.mark.parametrize("channel", [99, -5, 12])
def test_trace_rejects_channels_outside_the_supported_set(channel):
    assert stream_code((0, 1, 11, None, None), "multichannel") == 0
    with pytest.raises(ValueError) as info:
        stream_code((0, 1, channel, None, None), "multichannel")
    assert str(info.value) == f"channel {channel} outside supported set (11, 15, 18, 21, 26)"


def test_trace_rejects_pattern_directions_outside_the_antenna():
    for key in ((0, 1, None, 7, 1), (0, 1, None, 1, 0)):
        with pytest.raises(ValueError, match=r"^pattern directions must be in \[1, 6\]$"):
            stream_code(key, "directional")


def test_stream_columns_place_each_stream_by_link_and_kind():
    streams = (
        pattern_stream((2, 0), PatternPair(6, 6)),
        pattern_stream((0, 2), PatternPair(1, 2)),
        pattern_stream((5, 5), PatternPair(1, 1)),  # a link outside the list
        pattern_stream((0, 2), PatternPair(3, 1)),
    )
    trace = trace_from_keys("directional", 0.0, streams, np.zeros((2, len(streams))))
    links = ((0, 2), (2, 0), (0, 9))
    kinds = stream_kinds("directional")
    table = stream_columns(trace, links, kinds)
    expected = np.full((3, 36), -1)
    expected[0, 1], expected[0, 12], expected[1, 35] = 1, 3, 0
    assert np.array_equal(table, expected)
    assert stream_columns(trace, links, kinds) is table and not table.flags.writeable
    channels = stream_kinds("multichannel", (15, 11))
    assert channels == ((11, None, None), (15, None, None))
    assert np.array_equal(stream_columns(trace, links, channels), np.full((3, 2), -1))
    with pytest.raises(ValueError, match=r"^0->2 omni is not a stream of mode 'directional'$"):
        stream_code(omni_stream((0, 2)), "directional")


@pytest.mark.parametrize(
    "mode, key, message",
    [
        ("directional", (0, 1, 11, None, None), "0->1 channel 11 is not a stream of mode 'directional'"),
        ("directional", (0, 1, None, None, None), "0->1 omni is not a stream of mode 'directional'"),
        ("omni", (0, 1, None, 2, 3), "0->1 pair (2,3) is not a stream of mode 'omni'"),
        ("multichannel", (0, 1, None, None, None), "0->1 omni is not a stream of mode 'multichannel'"),
    ],
)
def test_trace_rejects_a_stream_of_another_mode(mode, key, message):
    with pytest.raises(ValueError) as info:
        stream_code(key, mode)
    assert str(info.value) == message


@st.composite
def traces_and_queries(draw):
    """A trace of any mode with some streams of a few nodes, in any order,
    and a query: distinct links in and out of the trace, and the kinds of a
    mode, the trace's or another (channels a subset of `VALID_CHANNELS`)."""
    mode = draw(st.sampled_from(MODES))
    table = stream_kinds(mode, VALID_CHANNELS)
    nodes = draw(st.lists(st.integers(-3, 2**40), min_size=2, max_size=4, unique=True))
    every = [(tx, rx, code) for tx in nodes for rx in nodes if tx != rx for code in range(len(table))]
    keys = draw(st.lists(st.sampled_from(every), unique=True, max_size=40).map(tuple))
    keys = draw(st.permutations(keys))
    links = draw(
        st.lists(st.sampled_from([(tx, rx) for tx in nodes + [7] for rx in nodes if tx != rx]), unique=True, max_size=8)
    )
    channels = draw(st.lists(st.sampled_from(VALID_CHANNELS), unique=True, min_size=1))
    kinds = stream_kinds(draw(st.sampled_from(MODES)), channels)
    keys = np.array(keys, np.int64).reshape(-1, 3)
    trace = RssTrace(mode, 0.0, keys[:, :2], keys[:, 2], np.zeros((1, len(keys))))
    return trace, tuple(links), kinds


@given(traces_and_queries())
def test_stream_columns_match_the_dict_loop(case):
    trace, links, kinds = case
    assert np.array_equal(stream_columns(trace, links, kinds), stream_columns_loop(trace, links, kinds))


@pytest.mark.parametrize("name", ["los_7node", "nlos_7node"])
@pytest.mark.parametrize("mode", MODES)
def test_stream_columns_match_the_dict_loop_on_shuffled_simulated_streams(name, mode):
    scenario, params = {"los_7node": los_7node, "nlos_7node": nlos_7node}[name](3)
    scenario = replace(scenario, mode=mode, channels=(26, 11, 18), rounds=2, calibration_rounds=1)
    trace, _ = simulate(scenario, params)
    order = np.random.default_rng(5).permutation(len(trace.kinds))
    shuffled = RssTrace(mode, 0.0, trace.links[order], trace.kinds[order], trace.rssi[:, order])
    links = tuple(scenario.layout.links[::2]) + ((0, 9), (9, 0))
    for kinds in (stream_kinds(mode, scenario.channels), stream_kinds(mode, (15, 21)), stream_kinds("omni")):
        table = stream_columns(shuffled, links, kinds)
        assert np.array_equal(table, stream_columns_loop(shuffled, links, kinds))
        placed = table >= 0
        assert [stream_keys(shuffled)[c][:2] for c in table[placed]] == [
            link for link, row in zip(links, placed) for hit in row if hit
        ]


# ----------------------------------------------------------- calibrate


def test_calibrate_means_per_stream():
    trace = omni_trace([[-50.0], [-52.0], [-48.0]])
    table = calibrate(trace, (0, 2))
    assert table.mean(omni_stream((0, 1))) == pytest.approx(-50.0)


def test_calibrate_ignores_records_outside_window():
    trace = omni_trace([[-50.0], [-50.0], [-90.0]])
    table = calibrate(trace, (0, 1))
    assert table.mean(omni_stream((0, 1))) == pytest.approx(-50.0)


def test_calibrate_skips_lost_packets_in_mean():
    trace = omni_trace([[-50.0], [None], [-54.0]])
    table = calibrate(trace, (0, 2))
    assert table.mean(omni_stream((0, 1))) == pytest.approx(-52.0)


def test_calibrate_raises_for_silent_stream_and_names_it():
    trace = omni_trace([[-50.0, None]], links=((0, 1), (1, 0)))
    with pytest.raises(MissingCalibrationError, match=r"1->0 omni"):
        calibrate(trace, (0, 0))


def test_calibrate_restricted_streams():
    trace = omni_trace([[-50.0, None]], links=((0, 1), (1, 0)))
    table = calibrate(trace, (0, 0), streams=[omni_stream((0, 1))])
    assert table.mean(omni_stream((0, 1))) == pytest.approx(-50.0)
    with pytest.raises(MissingCalibrationError):
        table.mean(omni_stream((1, 0)))


def test_calibrate_rejects_empty_window():
    with pytest.raises(ValueError):
        calibrate(omni_trace([[-50.0]]), (3, 1))


def test_calibrate_sums_in_tick_order():
    # The mean of a single long column equals a running total in tick order
    # bit for bit, the way a per-packet accumulator would compute it.
    rng = np.random.default_rng(7)
    values = rng.normal(-60.0, 5.0, 160)
    values[rng.random(160) < 0.2] = np.nan
    trace = omni_trace([[v] for v in values])
    total, count = 0.0, 0
    for v in values:
        if not math.isnan(v):
            total += float(v)
            count += 1
    assert calibrate(trace, (0, 159)).mean(omni_stream((0, 1))) == total / count


# ------------------------------------------------------------ statistics


def test_mrti_absolute_deviation():
    assert mrti_stat(-60.0, -50.0) == pytest.approx(10.0)
    assert mrti_stat(-45.0, -50.0) == pytest.approx(5.0)
    assert mrti_stat(-50.0, -50.0) == 0.0


def test_vrti_constant_window_is_zero():
    assert vrti_stat([-50.0, -50.0, -50.0]) == 0.0


def test_vrti_sample_variance_divisor():
    assert vrti_stat([-50.0, -52.0]) == pytest.approx(2.0)


def test_vrti_matches_two_pass_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        window = rng.normal(-55.0, 3.0, size=int(rng.integers(2, 12)))
        assert vrti_stat(window) == pytest.approx(
            two_pass_variance(list(window)), abs=1e-12
        )


def test_vrti_rejects_short_window():
    with pytest.raises(InsufficientWindowError):
        vrti_stat([-50.0])


@given(
    st.lists(st.floats(min_value=-90, max_value=-20), min_size=2, max_size=15),
    st.floats(min_value=-20, max_value=20),
)
def test_vrti_shift_invariance(window, shift):
    shifted = [v + shift for v in window]
    assert vrti_stat(shifted) == pytest.approx(vrti_stat(window), abs=1e-9)


def test_drti_mean_sums_pair_deviations():
    link = (0, 1)
    pairs = [PatternPair(1, 1), PatternPair(1, 2)]
    calibration = CalibrationTable(
        window=(0, 9),
        means={
            pattern_stream(link, pairs[0]): -50.0,
            pattern_stream(link, pairs[1]): -50.0,
        },
    )
    current = {pairs[0]: -60.0, pairs[1]: -55.0}
    assert drti_mean_stat(link, pairs, current, calibration) == pytest.approx(15.0)


def test_drti_mean_matches_loop_oracle():
    rng = np.random.default_rng(3)
    link = (2, 5)
    pairs = [PatternPair(t, r) for t in range(1, 7) for r in range(1, 7)]
    means = {pattern_stream(link, p): float(rng.normal(-55, 4)) for p in pairs}
    current = {p: float(rng.normal(-55, 6)) for p in pairs}
    calibration = CalibrationTable(window=(0, 9), means=means)
    expected = 0.0
    for p in pairs:
        expected += abs(current[p] - means[pattern_stream(link, p)])
    got = drti_mean_stat(link, pairs, current, calibration)
    assert got == pytest.approx(expected, abs=1e-12)


def test_drti_mean_missing_calibration():
    link = (0, 1)
    pair = PatternPair(3, 4)
    calibration = CalibrationTable(window=(0, 9), means={})
    with pytest.raises(MissingCalibrationError):
        drti_mean_stat(link, [pair], {pair: -50.0}, calibration)


def test_drti_var_sums_pair_variances():
    pairs = [PatternPair(1, 1), PatternPair(2, 2)]
    windows = {pairs[0]: [-50.0, -52.0], pairs[1]: [-40.0, -40.0, -46.0]}
    expected = two_pass_variance(windows[pairs[0]]) + two_pass_variance(windows[pairs[1]])
    assert drti_var_stat(pairs, windows) == pytest.approx(expected, abs=1e-12)


def test_singleton_drti_reduces_to_vrti_bitwise():
    rng = np.random.default_rng(17)
    pair = PatternPair(4, 2)
    for _ in range(1000):
        window = list(rng.normal(-60, 5, size=10))
        assert drti_var_stat([pair], {pair: window}) == vrti_stat(window)


def test_singleton_drti_mean_reduces_to_mrti_bitwise():
    rng = np.random.default_rng(19)
    link = (1, 2)
    pair = PatternPair(1, 6)
    for _ in range(1000):
        rssi = float(rng.normal(-60, 5))
        mean = float(rng.normal(-58, 5))
        calibration = CalibrationTable(
            window=(0, 9), means={pattern_stream(link, pair): mean}
        )
        assert drti_mean_stat(link, [pair], {pair: rssi}, calibration) == mrti_stat(rssi, mean)


def test_single_channel_crti_reduces_bitwise():
    rng = np.random.default_rng(23)
    link = (0, 3)
    for _ in range(1000):
        rssi = float(rng.normal(-60, 5))
        mean = float(rng.normal(-58, 5))
        window = list(rng.normal(-60, 5, size=10))
        calibration = CalibrationTable(
            window=(0, 9), means={channel_stream(link, 15): mean}
        )
        assert crti_mean_stat(link, [15], {15: rssi}, calibration) == mrti_stat(rssi, mean)
        assert crti_var_stat([15], {15: window}) == vrti_stat(window)


def test_crti_sums_over_channels():
    link = (0, 1)
    channels = [11, 15]
    calibration = CalibrationTable(
        window=(0, 9),
        means={channel_stream(link, 11): -50.0, channel_stream(link, 15): -60.0},
    )
    got = crti_mean_stat(link, channels, {11: -53.0, 15: -58.0}, calibration)
    assert got == pytest.approx(5.0)


# -------------------------------------------------------- classification


def test_classification_quadrants():
    assert classify_link_attenuation(5.0, 3.0, True) == "TP"
    assert classify_link_attenuation(2.0, 3.0, True) == "FN"
    assert classify_link_attenuation(5.0, 3.0, False) == "FP"
    assert classify_link_attenuation(2.0, 3.0, False) == "TN"


def test_sweep_matches_the_loop_oracle():
    rng = np.random.default_rng(23)
    stats = np.round(rng.exponential(2.0, size=(60, 7)), 1)
    obstructed = rng.random(stats.shape) < 0.3
    stats[0, 0] = np.nan
    stats[1, 1] = np.nan
    obstructed[0, 0] = True
    thresholds = [
        *np.unique(stats[~np.isnan(stats)])[::3],  # equal to a statistic
        *np.linspace(-1.0, 9.0, 17),
        -np.inf, np.inf, 2.5, 2.5, -0.0, 0.0,
    ]
    assert fn_fp_sweep(stats, obstructed, thresholds) == fn_fp_sweep_loop(
        stats, obstructed, thresholds
    )
    for stat in (0.0, 1.5, np.nan):
        for hit in (True, False):
            one = np.array([stat])
            taus = [1.5, 0.0, 3.0]
            assert fn_fp_sweep(one, [hit], taus) == fn_fp_sweep_loop(one, [hit], taus)
    assert fn_fp_sweep(stats, obstructed, []) == []


def test_sweep_counts_match_the_broadcast_oracle():
    # NaN observations are never detected; a NaN threshold detects nothing.
    rng = np.random.default_rng(29)
    for shape, nan_frac in (((105, 42), 0.0), ((105, 42), 0.05), ((100, 1560), 0.01), ((3, 1), 1.0)):
        stats = np.round(rng.exponential(2.0, size=shape), 2)
        stats[rng.random(shape) < nan_frac] = np.nan
        obstructed = rng.random(shape) < 0.2
        finite = stats[~np.isnan(stats)]
        lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 1.0)
        for thresholds in (
            np.unique(np.linspace(lo, hi, 50)),
            [np.nan, 1.0, -np.inf, np.inf, np.nan, 0.0, -0.0, *finite[:5]],
            [],
        ):
            rows = fn_fp_sweep(stats, obstructed, thresholds)
            expected = fn_fp_sweep_broadcast(stats, obstructed, thresholds)
            assert [r[1:] for r in rows] == [r[1:] for r in expected]
            assert np.array_equal([r[0] for r in rows], [r[0] for r in expected], equal_nan=True)
    rows = fn_fp_sweep([np.nan, 1.0, 2.0], [True, True, False], [np.nan, 1.5])
    assert rows[0] == (1.5, 2 / 3, 1 / 3)
    assert np.isnan(rows[1][0]) and rows[1][1:] == (2 / 3, 0.0)


def test_sweep_rejects_empty_and_mismatched_input():
    with pytest.raises(ValueError, match="no observations"):
        fn_fp_sweep(np.array([]), np.array([], dtype=bool), [1.0])
    with pytest.raises(ValueError, match="matching shapes"):
        fn_fp_sweep(np.ones(3), np.ones(2, dtype=bool), [1.0])


def test_threshold_boundary_is_not_detected():
    # stat == threshold counts as no detection
    assert classify_link_attenuation(3.0, 3.0, True) == "FN"


def test_sweep_perfect_separation():
    stats = np.array([5.0, 6.0, 7.0] + [1.0] * 7)
    obstructed = np.array([True, True, True] + [False] * 7)
    rows = fn_fp_sweep(stats, obstructed, [3.0])
    tau, fn, fp = rows[0]
    assert fn == 0.0 and fp == 0.0


def test_sweep_monotone_trade_off():
    rng = np.random.default_rng(5)
    stats = rng.exponential(2.0, size=400)
    obstructed = rng.random(400) < 0.3
    rows = fn_fp_sweep(stats, obstructed, np.linspace(0, 8, 33))
    fns = [r[1] for r in rows]
    fps = [r[2] for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(fns, fns[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(fps, fps[1:]))


@given(st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10), st.booleans())
def test_classification_is_exhaustive(stat, tau, obstructed):
    label = classify_link_attenuation(stat, tau, obstructed)
    assert label in {"TP", "FP", "TN", "FN"}
    if obstructed:
        assert label in {"TP", "FN"}
    else:
        assert label in {"FP", "TN"}


# ----------------------------------------------------- stream machinery


def test_forward_fill_carries_last_received():
    values = np.array([np.nan, -50.0, np.nan, np.nan, -60.0])
    filled = forward_fill(values)
    assert math.isnan(filled[0])
    assert list(filled[1:]) == [-50.0, -50.0, -50.0, -60.0]


def test_forward_fill_works_per_stream_column():
    values = np.array([[np.nan, -40.0], [-50.0, np.nan], [np.nan, -41.0]])
    filled = forward_fill(values)
    for col, want in zip(filled.T, values.T):
        np.testing.assert_array_equal(col, forward_fill(want))
    assert filled.flags.c_contiguous
    assert np.isnan(values[2, 0])  # the input is not filled in place


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_forward_fill_matches_the_index_array_fill():
    # Leading NaNs, streams never heard, and one or no tick.
    rng = np.random.default_rng(13)
    for ticks, streams in ((1, 5), (0, 3), (2, 1), (140, 300)):
        raw = rng.normal(-55.0, 4.0, (ticks, streams))
        raw[rng.random(raw.shape) < 0.3] = np.nan
        raw[:, ::7] = np.nan
        for col in range(1, streams, 5):
            raw[: rng.integers(0, ticks + 1), col] = np.nan
        assert same_bits(forward_fill(raw), stat_oracles.forward_fill(raw.T).T)
        for col in raw.T:
            assert same_bits(forward_fill(col), stat_oracles.forward_fill(col))


def test_stream_series_window_carry_forward():
    raw = np.array([-50.0, -52.0, np.nan, np.nan, -58.0, -58.0])
    var = batch_window_variance(forward_fill(raw)[:, None], 5)
    assert var[4, 0] == vrti_stat([-50.0, -52.0, -52.0, -52.0, -58.0])


def test_stream_series_window_before_first_reception():
    # The first full window starts at the first reception, tick 3.
    raw = np.array([np.nan, np.nan, np.nan, -50.0, np.nan, -51.0])
    var = batch_window_variance(forward_fill(raw)[:, None], 3)
    assert np.isnan(var[:5, 0]).all()
    assert var[5, 0] == vrti_stat([-50.0, -50.0, -51.0])


def test_stream_series_window_needs_room():
    var = batch_window_variance(np.full((3, 1), -50.0), 5)
    assert var.shape == (3, 1) and np.isnan(var).all()
    with pytest.raises(InsufficientWindowError):
        batch_window_variance(np.full((3, 1), -50.0), 1)


def test_trace_columns_group_by_stream():
    trace = omni_trace([[-50.0, -70.0], [-51.0, None]], links=((0, 1), (1, 0)))
    assert trace.links.tolist() == [[0, 1], [1, 0]] and trace.kinds.tolist() == [0, 0]
    assert stream_keys(trace) == (omni_stream((0, 1)), omni_stream((1, 0)))
    assert trace.rssi[1, 0] == -51.0
    assert math.isnan(trace.rssi[1, 1])


def test_batch_window_variance_columns_stand_alone():
    # Columns are computed in blocks; a column's variance must not depend on
    # which other columns share its block.
    rng = np.random.default_rng(31)
    filled = forward_fill(np.where(rng.random((50, 600)) < 0.1, np.nan,
                                   rng.normal(-55, 4, size=(50, 600))))
    batch = batch_window_variance(filled, 10)
    for col in (0, 63, 64, 127, 128, 129, 255, 256, 511, 512, 575, 576, 599):
        one = batch_window_variance(filled[:, col : col + 1], 10)[:, 0]
        assert np.array_equal(batch[:, col], one, equal_nan=True)


def oracle_window_variance(filled, v):
    """`stat_oracles.batch_window_variance` of a (ticks, streams) array."""
    return stat_oracles.batch_window_variance(np.ascontiguousarray(filled.T), v).T


@pytest.mark.parametrize("v", range(2, 34))
def test_batch_window_variance_matches_np_var_bit_for_bit(v):
    # Column counts around 64 and the 128-column block; tick counts where no
    # window, one window and two windows fit; leading NaNs of streams first
    # heard late.
    rng = np.random.default_rng(v)
    for columns in (1, 63, 64, 65, 127, 128, 129, 600):
        for ticks in (v - 1, v, v + 1):
            raw = rng.normal(-55.0, 4.0, (ticks, columns))
            raw[rng.random(raw.shape) < 0.2] = np.nan
            raw[: rng.integers(0, ticks + 1)] = np.nan
            filled = forward_fill(raw)
            assert same_bits(
                batch_window_variance(filled, v), oracle_window_variance(filled, v)
            ), (columns, ticks)


@pytest.mark.parametrize("v", [129, 136, 200, 300])
def test_batch_window_variance_matches_np_var_beyond_128_terms(v):
    # numpy splits a sum of more than 128 terms into two halves.
    rng = np.random.default_rng(v)
    filled = forward_fill(np.where(rng.random((v + 9, 65)) < 0.2, np.nan,
                                   rng.normal(-55.0, 4.0, (v + 9, 65))))
    assert same_bits(batch_window_variance(filled, v), oracle_window_variance(filled, v))


@pytest.mark.parametrize("factory", [los_7node, nlos_7node])
@pytest.mark.parametrize("mode", ["omni", "multichannel", "directional"])
def test_batch_window_variance_matches_np_var_on_simulated_traces(factory, mode):
    for seed in range(10):
        scenario, params = factory(seed)
        trace, _ = simulate(replace(scenario, mode=mode), params)
        filled = carry_forward(trace)
        for v in (2, 5, 10, 20, 40):
            assert same_bits(
                batch_window_variance(filled, v), oracle_window_variance(filled, v)
            ), (seed, v)


def ring12_directional_rssi(seed):
    """Random RSS with 10% lost packets, shaped like a 12-node directional
    ring's trace: 140 ticks by 4,752 streams."""
    rng = np.random.default_rng(seed)
    return np.where(rng.random((140, 4752)) < 0.1, np.nan, rng.normal(-55.0, 4.0, (140, 4752)))


def test_batch_window_variance_peak_memory_stays_near_the_output():
    # The blocks' temporaries stay small next to the output.
    filled = forward_fill(ring12_directional_rssi(5))
    batch_window_variance(filled[:, :2], 10)
    tracemalloc.start()
    try:
        out = batch_window_variance(filled, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes


def test_carry_forward_peak_memory_stays_near_the_trace():
    # The fill works in one copy of the trace's RSS, a tick at a time; the
    # index-array fill peaked near 3x.
    layout = ring_layout(12, 2.9, (3.0, 3.0))
    streams = tuple(pattern_stream(link, pair) for link in layout.links for pair in PATTERN_PAIRS)
    trace = trace_from_keys("directional", 0.0, streams, ring12_directional_rssi(7))
    forward_fill(trace.rssi[:2])
    tracemalloc.start()
    try:
        filled = carry_forward(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert filled.shape == trace.rssi.shape == (140, 4752)
    assert peak <= 1.2 * trace.rssi.nbytes


def test_batch_window_variance_matches_scalar():
    rng = np.random.default_rng(29)
    filled = rng.normal(-55, 4, size=(40, 6))
    v = 10
    batch = batch_window_variance(filled, v)
    for s in range(6):
        for t in range(40):
            if t < v - 1:
                assert math.isnan(batch[t, s])
            else:
                assert batch[t, s] == pytest.approx(
                    vrti_stat(filled[t - v + 1 : t + 1, s]), abs=1e-12
                )


def test_trace_window_iteration():
    trace = omni_trace([[-50.0 - t] for t in range(5)])
    np.testing.assert_array_equal(trace.window(1, 3)[:, 0], [-51.0, -52.0, -53.0])
    assert trace.window(3, 9).shape == (2, 1)
    assert trace.window(-5, -1).shape == (0, 1)
    assert trace.num_ticks == 5


# ------------------------------------------------ derived per-trace arrays


def test_trace_rssi_is_read_only():
    trace = omni_trace([[-50.0], [None]])
    with pytest.raises(ValueError, match="read-only"):
        trace.rssi[0, 0] = -40.0
    assert trace.rssi[0, 0] == -50.0


def test_trace_derived_arrays_match_the_per_stream_definitions():
    rng = np.random.default_rng(41)
    links = ((0, 1), (1, 0), (0, 2), (2, 0))
    rssi = rng.normal(-60.0, 4.0, (30, len(links)))
    rssi[rng.random(rssi.shape) < 0.3] = np.nan
    rssi[:12, 2] = np.nan  # first heard late
    rssi[:, 3] = np.nan  # never heard
    trace = trace_from_keys("omni", 0.0, [omni_stream(lk) for lk in links], rssi.copy())

    for col in range(len(links)):
        np.testing.assert_array_equal(carry_forward(trace)[:, col], forward_fill(rssi[:, col]))
        heard = np.flatnonzero(~np.isnan(rssi[:, col]))
        assert first_heard(trace)[col] == (heard[0] if heard.size else 30)
    for first_tick in (10, 20):
        deviation = calibration_deviation(trace, first_tick)
        for col, key in enumerate(stream_keys(trace)[:2]):
            mean = calibrate(trace, (0, first_tick - 1), streams=[key]).mean(key)
            expected = np.abs(forward_fill(rssi[:, col]) - mean)
            np.testing.assert_array_equal(deviation[:, col], expected)
        assert np.isnan(deviation[:, 3]).all()
    for window in (3, 10):
        np.testing.assert_array_equal(
            window_variance(trace, window), batch_window_variance(carry_forward(trace), window)
        )
    for derived in (carry_forward(trace), first_heard(trace), calibration_deviation(trace, 10),
                    window_variance(trace, 3)):
        assert not derived.flags.writeable


def test_trace_derived_arrays_are_computed_once_per_argument():
    trace = omni_trace([[-50.0], [-52.0], [None], [-49.0]])
    assert carry_forward(trace) is carry_forward(trace)
    assert calibration_deviation(trace, 2) is calibration_deviation(trace, 2)
    assert calibration_deviation(trace, 2)[0, 0] == 1.0  # mean -51
    assert calibration_deviation(trace, 4)[0, 0] == abs(-50.0 - (-50.0 - 52.0 - 49.0) / 3)
    assert window_variance(trace, 2) is window_variance(trace, 2)
    assert window_variance(trace, 2) is not window_variance(trace, 3)
    fresh = RssTrace(trace.mode, trace.tx_power_dbm, trace.links, trace.kinds, trace.rssi)
    assert calibration_deviation(fresh, 2) is not calibration_deviation(trace, 2)
