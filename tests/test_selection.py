import math
from dataclasses import replace

import numpy as np
import pytest

from rti.geometry import NetworkLayout, NodeSpec, PatternPair
from rti.linkstats import RssTrace, pattern_stream
from rti.presets import los_7node, nlos_7node
from rti.simulator import simulate
from rti.selection import (
    all_pairs,
    compute_fade_levels,
    format_selection,
    select_fade_level,
    select_for_layout,
    select_location,
    SelectionResult,
)
from api_oracles import parse_selection, select_prr


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
    return RssTrace("directional", tx_power, tuple(streams), rssi)


# ------------------------------------------------------------- location


def test_location_facing_nodes_single_pair():
    layout = facing_pair_layout()
    assert select_location(layout, (0, 1), 1, 1) == [PatternPair(1, 1)]


def test_location_cartesian_product_counts():
    layout = facing_pair_layout()
    pairs = select_location(layout, (0, 1), 2, 2)
    assert len(pairs) == 4
    assert len(set(pairs)) == 4
    # Directions 2 and 6 tie at pi/3; index tie-break keeps 2 first.
    assert pairs == [
        PatternPair(1, 1), PatternPair(1, 2), PatternPair(2, 1), PatternPair(2, 2)
    ]


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
    with pytest.raises(ValueError):
        select_location(layout, (0, 1), 0, 1)
    with pytest.raises(ValueError):
        select_location(layout, (0, 1), 1, 7)


# ----------------------------------------------------------- fade level


def test_fade_level_accumulates_normalised_rss():
    link = (0, 1)
    pair = PatternPair(1, 1)
    trace = pattern_trace([{(link, pair): -50.0}, {(link, pair): -60.0}])
    table = compute_fade_levels(trace, (0, 1))
    assert table.level(link, pair) == pytest.approx(-110.0)


def test_fade_level_subtracts_tx_power():
    link = (0, 1)
    pair = PatternPair(2, 3)
    trace = pattern_trace([{(link, pair): -50.0}], tx_power=5.0)
    table = compute_fade_levels(trace, (0, 0))
    assert table.level(link, pair) == pytest.approx(-55.0)


def test_fade_level_skips_lost_and_excludes_silent_pairs():
    link = (0, 1)
    heard = PatternPair(1, 1)
    silent = PatternPair(6, 6)
    trace = pattern_trace(
        [{(link, heard): -50.0, (link, silent): None}, {(link, silent): None}]
    )
    table = compute_fade_levels(trace, (0, 1))
    assert heard in table.levels[link]
    assert silent not in table.levels[link]


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
    table = compute_fade_levels(pattern_trace(rows), (0, 19))
    assert set(table.levels[link]) == set(expected)
    for pair, h in expected.items():
        assert table.level(link, pair) == h  # same sum, same tick order


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
    table = compute_fade_levels(trace, (0, 0))
    assert select_fade_level(table, link, 1) == [PatternPair(1, 1)]
    ranked = select_fade_level(table, link, 4)
    # Ties at -40 resolve lexicographically; -55 ranks last.
    assert ranked == [
        PatternPair(1, 1), PatternPair(2, 1), PatternPair(2, 2), PatternPair(1, 2)
    ]


def test_select_fade_level_nestedness():
    rng = np.random.default_rng(37)
    link = (0, 1)
    trace = pattern_trace([{(link, pair): float(rng.normal(-60, 6)) for pair in all_pairs()}])
    table = compute_fade_levels(trace, (0, 0))
    for k in range(1, 36):
        assert set(select_fade_level(table, link, k)) <= set(
            select_fade_level(table, link, k + 1)
        )


def test_select_fade_level_rejects_oversized_k():
    link = (0, 1)
    trace = pattern_trace([{(link, PatternPair(1, 1)): -50.0}])
    table = compute_fade_levels(trace, (0, 0))
    with pytest.raises(ValueError):
        select_fade_level(table, link, 2)


# ------------------------------------------------------------------ prr


def test_prr_counts_match_independent_counter():
    rng = np.random.default_rng(41)
    link = (0, 1)
    rows = []
    sent = {}
    got = {}
    for tick in range(30):
        row = {}
        for pair in all_pairs():
            received = bool(rng.random() > 0.4)
            row[(link, pair)] = -55.0 if received else None
            sent[pair] = sent.get(pair, 0) + 1
            if received:
                got[pair] = got.get(pair, 0) + 1
        rows.append(row)
    trace = pattern_trace(rows)
    ranked = select_prr(trace, (0, 29), link, 36)
    prr = {pair: got.get(pair, 0) / sent[pair] for pair in sent if pair in got}
    expected = [p for p, _ in sorted(prr.items(), key=lambda item: (-item[1], item[0]))]
    assert ranked == expected


def test_prr_all_ties_resolve_lexicographically():
    link = (0, 1)
    trace = pattern_trace([{(link, pair): -50.0 for pair in all_pairs()}])
    ranked = select_prr(trace, (0, 0), link, 9)
    assert ranked == all_pairs()[:9]


def test_prr_nestedness():
    rng = np.random.default_rng(43)
    link = (0, 1)
    trace = pattern_trace(
        [
            {(link, pair): -50.0 if rng.random() > 0.3 else None for pair in all_pairs()}
            for _tick in range(25)
        ]
    )
    for k in (1, 5, 12, 35):
        assert set(select_prr(trace, (0, 24), link, k)) <= set(
            select_prr(trace, (0, 24), link, k + 1)
        )


def test_prr_excludes_never_received_pairs():
    link = (0, 1)
    trace = pattern_trace(
        [
            {(link, PatternPair(1, 1)): -50.0, (link, PatternPair(1, 2)): None},
            {(link, PatternPair(1, 2)): None},
        ]
    )
    with pytest.raises(ValueError):
        select_prr(trace, (0, 1), link, 2)
    assert select_prr(trace, (0, 1), link, 1) == [PatternPair(1, 1)]


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
        for col, (tx, rx, _channel, tx_dir, rx_dir) in enumerate(trace.streams)
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
            assert result.pairs(link) == expected
            assert select_prr(trace, window, link, k) == expected


# ------------------------------------------------------------- file io


def test_selection_round_trip():
    layout = facing_pair_layout()
    result = select_for_layout(layout, "location", n_transmitter=2, n_receiver=1)
    text = format_selection(result)
    assert text.startswith("link 0 1 method location pairs (1,1) (2,1)")
    back = parse_selection(text)
    assert back.method == "location"
    assert back.pairs_by_link == result.pairs_by_link


def test_selection_parse_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 1"):
        parse_selection("link 0 1 pairs (1,1)\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_selection("link 0 1 method all pairs (1-1)\n")


def test_select_for_layout_all_pairs():
    layout = facing_pair_layout()
    result = select_for_layout(layout, "all")
    assert result.pairs_by_link[(0, 1)] == all_pairs()
    assert len(result.pairs_by_link[(0, 1)]) == 36


def test_select_for_layout_unknown_method():
    with pytest.raises(ValueError):
        select_for_layout(facing_pair_layout(), "loudest")
