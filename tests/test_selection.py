import math
from dataclasses import replace

import numpy as np
import pytest

from rti.geometry import PATTERN_PAIRS, NetworkLayout, NodeSpec, PatternPair
from rti.linkstats import RssTrace
from rti.presets import los_7node, nlos_7node
from rti.simulator import simulate
from rti.selection import _top_levels, format_selection, pair_levels, select_for_layout
from api_oracles import parse_selection, select_prr
import select_oracles
from stat_oracles import pattern_stream, stream_keys, trace_from_keys


def facing_pair_layout(d=3.0):
    """Two nodes on the x axis whose direction 1 antennas face each other."""
    return NetworkLayout(
        [
            NodeSpec(0, 0.0, 0.0, antenna_zero_bearing=0.0),
            NodeSpec(1, d, 0.0, antenna_zero_bearing=math.pi),
        ]
    )


def pattern_trace(rows, tx_power=0.0):
    """A directional trace from one {(link, pair): rssi} dict per tick. A
    stream absent from a tick's dict, or mapped to None, lost that packet."""
    streams = sorted({pattern_stream(link, pair) for row in rows for link, pair in row})
    column = {key: i for i, key in enumerate(streams)}
    rssi = np.full((len(rows), len(streams)), np.nan)
    for tick, row in enumerate(rows):
        for (link, pair), value in row.items():
            if value is not None:
                rssi[tick, column[pattern_stream(link, pair)]] = value
    return trace_from_keys("directional", tx_power, streams, rssi)


def select_location(layout, link, n_transmitter, n_receiver):
    result = select_for_layout(
        layout, "location", n_transmitter=n_transmitter, n_receiver=n_receiver
    )
    return result.pairs_by_link[link]


def level(trace, window, link, pair):
    return pair_levels(trace, "fadelevel", window, (link,))[0, PATTERN_PAIRS.index(pair)]


def ranked(trace, window, link, k, method="fadelevel"):
    """One link's top-k pairs: the ranking `select_for_layout` applies to
    every link."""
    pairs = _top_levels(pair_levels(trace, method, window, (link,)), (link,), k)
    return tuple(PATTERN_PAIRS[i] for i in pairs[0])


# ------------------------------------------------------------- location


def test_location_facing_nodes_single_pair():
    layout = facing_pair_layout()
    assert select_location(layout, (0, 1), 1, 1) == (PatternPair(1, 1),)


def test_location_cartesian_product_counts():
    layout = facing_pair_layout()
    pairs = select_location(layout, (0, 1), 2, 2)
    assert len(pairs) == 4
    assert len(set(pairs)) == 4
    # Directions 2 and 6 tie at pi/3; index tie-break keeps 2 first.
    assert pairs == (
        PatternPair(1, 1), PatternPair(1, 2), PatternPair(2, 1), PatternPair(2, 2)
    )


def test_location_full_direction_ordering_with_ties():
    layout = facing_pair_layout()
    pairs = select_location(layout, (0, 1), 6, 1)
    tx_order = [p.tx_direction for p in pairs]
    # Angles 0, pi/3, pi/3, 2pi/3, 2pi/3, pi -> 1, 2, 6, 3, 5, 4.
    assert tx_order == [1, 2, 6, 3, 5, 4]


def test_location_is_geometry_only_and_deterministic():
    layout = NetworkLayout(
        [
            NodeSpec(0, 0.0, 0.0, antenna_zero_bearing=0.7),
            NodeSpec(1, 4.0, 1.0, antenna_zero_bearing=2.1),
        ]
    )
    first = select_location(layout, (0, 1), 3, 2)
    second = select_location(layout, (0, 1), 3, 2)
    assert first == second
    assert len(first) == 6


def test_location_validates_n():
    layout = facing_pair_layout()
    with pytest.raises(ValueError, match=r"^n must be in \[1, 6\], got 0$"):
        select_location(layout, (0, 1), 0, 1)
    with pytest.raises(ValueError, match=r"^n must be in \[1, 6\], got 7$"):
        select_location(layout, (0, 1), 1, 7)


# ----------------------------------------------------------- fade level


def test_fade_level_accumulates_normalised_rss():
    link = (0, 1)
    pair = PatternPair(1, 1)
    trace = pattern_trace([{(link, pair): -50.0}, {(link, pair): -60.0}])
    assert level(trace, (0, 1), link, pair) == pytest.approx(-110.0)


def test_fade_level_subtracts_tx_power():
    link = (0, 1)
    pair = PatternPair(2, 3)
    trace = pattern_trace([{(link, pair): -50.0}], tx_power=5.0)
    assert level(trace, (0, 0), link, pair) == pytest.approx(-55.0)


def test_fade_level_skips_lost_and_excludes_silent_pairs():
    link = (0, 1)
    heard = PatternPair(1, 1)
    silent = PatternPair(6, 6)
    trace = pattern_trace(
        [{(link, heard): -50.0, (link, silent): None}, {(link, silent): None}]
    )
    assert level(trace, (0, 1), link, heard) == -50.0
    assert np.isnan(level(trace, (0, 1), link, silent))


def test_fade_level_matches_reaccumulation_oracle():
    rng = np.random.default_rng(31)
    link = (2, 4)
    rows = []
    expected = {}
    for tick in range(20):
        row = {}
        for t in range(1, 7):
            for r in range(1, 7):
                pair = PatternPair(t, r)
                received = rng.random() > 0.2
                rssi = float(rng.normal(-60, 6)) if received else None
                row[(link, pair)] = rssi
                if received:
                    expected[pair] = expected.get(pair, 0.0) + rssi
        rows.append(row)
    levels = pair_levels(pattern_trace(rows), "fadelevel", (0, 19), (link,))[0]
    assert {PATTERN_PAIRS[i] for i in np.flatnonzero(~np.isnan(levels))} == set(expected)
    for pair, h in expected.items():
        assert levels[PATTERN_PAIRS.index(pair)] == h  # same sum, same tick order


def test_select_fade_level_max_and_order():
    link = (0, 1)
    trace = pattern_trace(
        [
            {
                (link, PatternPair(1, 1)): -40.0,
                (link, PatternPair(1, 2)): -55.0,
                (link, PatternPair(2, 1)): -40.0,
                (link, PatternPair(2, 2)): -40.0,
            }
        ]
    )
    assert ranked(trace, (0, 0), link, 1) == (PatternPair(1, 1),)
    # Ties at -40 resolve lexicographically; -55 ranks last.
    assert ranked(trace, (0, 0), link, 4) == (
        PatternPair(1, 1), PatternPair(2, 1), PatternPair(2, 2), PatternPair(1, 2)
    )


def test_select_fade_level_nestedness():
    rng = np.random.default_rng(37)
    link = (0, 1)
    trace = pattern_trace([{(link, pair): float(rng.normal(-60, 6)) for pair in PATTERN_PAIRS}])
    for k in range(1, 36):
        assert set(ranked(trace, (0, 0), link, k)) <= set(ranked(trace, (0, 0), link, k + 1))


def test_select_fade_level_rejects_oversized_k():
    link = (0, 1)
    trace = pattern_trace([{(link, PatternPair(1, 1)): -50.0}])
    with pytest.raises(ValueError, match=r"^k must be in \[1, 1\] for link 0->1, got 2$"):
        ranked(trace, (0, 0), link, 2)


# ------------------------------------------------------------------ prr


def test_prr_counts_match_independent_counter():
    rng = np.random.default_rng(41)
    link = (0, 1)
    rows = []
    sent = {}
    got = {}
    for tick in range(30):
        row = {}
        for pair in PATTERN_PAIRS:
            received = bool(rng.random() > 0.4)
            row[(link, pair)] = -55.0 if received else None
            sent[pair] = sent.get(pair, 0) + 1
            if received:
                got[pair] = got.get(pair, 0) + 1
        rows.append(row)
    trace = pattern_trace(rows)
    prr = {pair: got.get(pair, 0) / sent[pair] for pair in sent if pair in got}
    expected = [p for p, _ in sorted(prr.items(), key=lambda item: (-item[1], item[0]))]
    assert select_prr(trace, (0, 29), link, len(expected)) == expected
    assert ranked(trace, (0, 29), link, len(expected), "prr") == tuple(expected)


def test_prr_all_ties_resolve_lexicographically():
    link = (0, 1)
    trace = pattern_trace([{(link, pair): -50.0 for pair in PATTERN_PAIRS}])
    assert select_prr(trace, (0, 0), link, 9) == list(PATTERN_PAIRS[:9])
    assert ranked(trace, (0, 0), link, 9, "prr") == PATTERN_PAIRS[:9]


def test_prr_nestedness():
    rng = np.random.default_rng(43)
    link = (0, 1)
    trace = pattern_trace(
        [
            {(link, pair): -50.0 if rng.random() > 0.3 else None for pair in PATTERN_PAIRS}
            for _tick in range(25)
        ]
    )
    for k in (1, 5, 12, 35):
        assert set(ranked(trace, (0, 24), link, k, "prr")) <= set(
            ranked(trace, (0, 24), link, k + 1, "prr")
        )


def test_prr_excludes_never_received_pairs():
    link = (0, 1)
    trace = pattern_trace(
        [
            {(link, PatternPair(1, 1)): -50.0, (link, PatternPair(1, 2)): None},
            {(link, PatternPair(1, 2)): None},
        ]
    )
    with pytest.raises(ValueError, match=r"^k must be in \[1, 1\] for link 0->1, got 2$"):
        ranked(trace, (0, 1), link, 2, "prr")
    assert ranked(trace, (0, 1), link, 1, "prr") == (PatternPair(1, 1),)


def select_prr_per_link(trace, window, link, k):
    """Oracle: the one-link PRR selector that recounted the whole window and
    rescanned every stream for each link."""
    t1, t2 = window
    if t2 < t1:
        raise ValueError(f"empty PRR window ({t1}, {t2})")
    block = trace.window(t1, t2)
    got = np.count_nonzero(~np.isnan(block), axis=0)
    eligible = {
        PatternPair(tx_dir, rx_dir): int(got[col]) / len(block)
        for col, (tx, rx, _channel, tx_dir, rx_dir) in enumerate(stream_keys(trace))
        if tx_dir is not None and (tx, rx) == link and got[col]
    }
    if not eligible:
        raise ValueError(f"no eligible pairs for link {link[0]}->{link[1]}")
    if not 1 <= k <= len(eligible):
        raise ValueError(
            f"k must be in [1, {len(eligible)}] for link {link[0]}->{link[1]}, got {k}"
        )
    ranked = sorted(eligible.items(), key=lambda item: (-item[1], item[0]))
    return [pair for pair, _ in ranked[:k]]


@pytest.mark.parametrize("factory", [los_7node, nlos_7node])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_prr_layout_selection_matches_per_link_oracle(factory, seed):
    scenario, params = factory(seed)
    scenario = replace(scenario, mode="directional")
    trace, _ = simulate(scenario, params)
    window = (0, scenario.calibration_rounds - 1)
    for k in (1, 9):
        result = select_for_layout(scenario.layout, "prr", trace=trace, window=window, k=k)
        assert list(result.pairs_by_link) == scenario.layout.links
        for link in scenario.layout.links:
            expected = select_prr_per_link(trace, window, link, k)
            assert result.pairs_by_link[link] == tuple(expected)
            assert select_prr(trace, window, link, k) == expected


# ------------------------------------------------------------- file io


def test_selection_round_trip():
    layout = facing_pair_layout()
    result = select_for_layout(layout, "location", n_transmitter=2, n_receiver=1)
    text = format_selection(result)
    assert text.startswith("link 0 1 method location pairs (1,1) (2,1)")
    back = parse_selection(text)
    assert back.method == "location"
    assert back.pairs_by_link == {link: list(p) for link, p in result.pairs_by_link.items()}


def test_selection_parse_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 1"):
        parse_selection("link 0 1 pairs (1,1)\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_selection("link 0 1 method all pairs (1-1)\n")


def test_select_for_layout_all_pairs():
    layout = facing_pair_layout()
    result = select_for_layout(layout, "all")
    assert result.pairs_by_link[(0, 1)] == PATTERN_PAIRS
    assert result.pairs_by_link[(0, 1)] == tuple(select_oracles.all_pairs())
    assert len(result.pairs_by_link[(0, 1)]) == 36


def test_select_for_layout_unknown_method():
    with pytest.raises(ValueError):
        select_for_layout(facing_pair_layout(), "loudest")


# ------------------------------------------- index arrays against the dicts


def oracle_outcome(select, *args, **kwargs):
    """A selection's pairs per link as lists, or its ValueError message."""
    try:
        return {link: list(p) for link, p in select(*args, **kwargs).pairs_by_link.items()}
    except ValueError as exc:
        return str(exc)


def tied_trace(layout, seed, ticks=6, silent_link=None):
    """A directional trace whose RSS takes three values, so that fade levels
    and reception ratios tie often; packets are lost at random, some pairs
    are never heard, and ``silent_link`` hears nothing at all."""
    rng = np.random.default_rng(seed)
    rows = []
    for _tick in range(ticks):
        row = {}
        for link in layout.links:
            for pair in PATTERN_PAIRS:
                heard = link != silent_link and rng.random() < 0.6
                row[(link, pair)] = float(rng.choice([-50.0, -60.0, -70.0])) if heard else None
        rows.append(row)
    return pattern_trace(rows)


def triangle_layout():
    return NetworkLayout(
        [
            NodeSpec(0, 0.0, 0.0, antenna_zero_bearing=0.3),
            NodeSpec(5, 3.0, 0.5, antenna_zero_bearing=2.0),
            NodeSpec(2, 1.0, 2.5),
        ]
    )


@pytest.mark.parametrize("method", ["fadelevel", "prr"])
@pytest.mark.parametrize("seed", range(6))
def test_level_selection_matches_the_dict_oracle_with_ties(method, seed):
    layout = triangle_layout()
    trace = tied_trace(layout, seed)
    for window in ((0, 5), (1, 3), (4, 4)):
        for k in (0, 1, 2, 5, 9, 13, 20, 36, 37):
            new = oracle_outcome(select_for_layout, layout, method, trace=trace, window=window, k=k)
            old = oracle_outcome(
                select_oracles.select_for_layout, layout, method, trace=trace, window=window, k=k
            )
            assert new == old, (window, k)


@pytest.mark.parametrize("method", ["fadelevel", "prr"])
def test_silent_link_and_oversized_k_fail_as_the_dict_oracle_does(method):
    layout = triangle_layout()
    trace = tied_trace(layout, 7, ticks=2, silent_link=(5, 2))
    expected = {
        k: oracle_outcome(
            select_oracles.select_for_layout, layout, method, trace=trace, window=(0, 5), k=k
        )
        for k in (1, 34)
    }
    assert expected[1] == "no eligible pairs for link 5->2"
    assert expected[34].startswith("k must be in [1, 3") and expected[34].endswith(
        "] for link 0->5, got 34"
    )
    for k, message in expected.items():
        with pytest.raises(ValueError) as info:
            select_for_layout(layout, method, trace=trace, window=(0, 5), k=k)
        assert str(info.value) == message


@pytest.mark.parametrize("method", ["fadelevel", "prr"])
def test_window_errors_keep_their_messages(method):
    layout = triangle_layout()
    trace = tied_trace(layout, 8)
    what = "fade-level" if method == "fadelevel" else "PRR"
    with pytest.raises(ValueError, match=rf"^empty {what} window \(3, 2\)$"):
        select_for_layout(layout, method, trace=trace, window=(3, 2))
    with pytest.raises(ValueError, match=f"^{method} selection needs a calibration trace"):
        select_for_layout(layout, method, window=(0, 1))
    beyond = oracle_outcome(
        select_oracles.select_for_layout, layout, method, trace=trace, window=(10, 12)
    )
    assert oracle_outcome(select_for_layout, layout, method, trace=trace, window=(10, 12)) == beyond
    omni = RssTrace("omni", 0.0, [(0, 5)], [0], np.zeros((3, 1)))
    assert oracle_outcome(select_for_layout, layout, method, trace=omni, window=(0, 2)) == (
        oracle_outcome(select_oracles.select_for_layout, layout, method, trace=omni, window=(0, 2))
    )


@pytest.mark.parametrize("seed", range(4))
def test_location_matches_the_per_link_oracle(seed):
    rng = np.random.default_rng(seed)
    nodes = [
        NodeSpec(i * 3 + 1, float(x), float(y), antenna_zero_bearing=float(b))
        for i, (x, y, b) in enumerate(
            zip(rng.uniform(0, 6, 6), rng.uniform(0, 6, 6), rng.choice([0.0, math.pi / 6, 1.1], 6))
        )
    ]
    nodes.append(NodeSpec(0, 3.0, 3.0))  # on the same axis as other nodes' bearings
    layout = NetworkLayout(nodes)
    for n_transmitter in range(1, 7):
        for n_receiver in range(1, 7):
            new = oracle_outcome(
                select_for_layout, layout, "location",
                n_transmitter=n_transmitter, n_receiver=n_receiver,
            )
            old = oracle_outcome(
                select_oracles.select_for_layout, layout, "location",
                n_transmitter=n_transmitter, n_receiver=n_receiver,
            )
            assert new == old


def test_selection_arrays_are_read_only():
    result = select_for_layout(facing_pair_layout(), "location")
    assert result.pairs.shape == (2, 4)
    with pytest.raises(ValueError):
        result.pairs[0, 0] = 0
    with pytest.raises(TypeError):
        result.pairs_by_link[(0, 1)] = ()
