"""The dict-of-lists pattern pair selection that `rti.selection`'s index
arrays replaced, kept unchanged as oracles: fade-level and PRR tables as
per-link dicts, per-link top-k sorts, and per-link-end location ranking.

All tie-breaks order pairs ascending lexicographically by
(tx_direction, rx_direction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from rti.geometry import NUM_DIRECTIONS, NetworkLayout, PatternPair, angle_to_link
from rti.linkstats import RssTrace, sum_over_ticks
from stat_oracles import stream_keys

Link = tuple[int, int]


@dataclass(frozen=True)
class FadeLevelTable:
    """Accumulated normalised RSS per (link, pattern pair).

    h is the sum over received packets in the window of (rssi - tx_power);
    larger h means a shallower fade. Pairs with zero receptions in the window
    carry no entry and are ineligible for selection.
    """

    window: tuple[int, int]
    levels: Mapping[Link, Mapping[PatternPair, float]]

    def level(self, link: Link, pair: PatternPair) -> float:
        return self.levels[link][pair]


@dataclass
class SelectionResult:
    """Selected pattern pairs per link, in selection-preference order."""

    method: str
    params: dict = field(default_factory=dict)
    pairs_by_link: dict[Link, list[PatternPair]] = field(default_factory=dict)

    def pairs(self, link: Link) -> list[PatternPair]:
        return self.pairs_by_link[link]


def _sorted_directions(node, other, n: int) -> list[int]:
    """The n directions with the smallest angle to the line toward ``other``.

    Angles are rounded to 1e-12 rad before comparison so that symmetric
    directions tie exactly and fall back to the lower direction index.
    """
    if not 1 <= n <= NUM_DIRECTIONS:
        raise ValueError(f"n must be in [1, {NUM_DIRECTIONS}], got {n}")
    keyed = [
        (round(angle_to_link(node, d, other), 12), d)
        for d in range(1, NUM_DIRECTIONS + 1)
    ]
    keyed.sort()
    return [d for _, d in keyed[:n]]


def select_location(
    layout: NetworkLayout,
    link: Link,
    n_transmitter: int,
    n_receiver: int,
) -> list[PatternPair]:
    """Geometry-only selection: the Cartesian product of the n_transmitter
    transmit directions and n_receiver receive directions best aligned with
    the link line. Needs no calibration traffic."""
    tx = layout.node(link[0])
    rx = layout.node(link[1])
    tx_dirs = _sorted_directions(tx, rx, n_transmitter)
    rx_dirs = _sorted_directions(rx, tx, n_receiver)
    return [PatternPair(t, r) for t in tx_dirs for r in rx_dirs]


def all_pairs() -> list[PatternPair]:
    """Every pattern pair in lexicographic order."""
    return [
        PatternPair(t, r)
        for t in range(1, NUM_DIRECTIONS + 1)
        for r in range(1, NUM_DIRECTIONS + 1)
    ]


def _pattern_columns(trace: RssTrace) -> list[tuple[Link, PatternPair, int]]:
    """(link, pair, column) of each of the trace's pattern streams."""
    return [
        ((tx, rx), PatternPair(tx_dir, rx_dir), col)
        for col, (tx, rx, _channel, tx_dir, rx_dir) in enumerate(stream_keys(trace))
        if tx_dir is not None
    ]


def compute_fade_levels(trace: RssTrace, window: tuple[int, int]) -> FadeLevelTable:
    """Accumulate per-pair normalised RSS over the calibration window."""
    t1, t2 = window
    if t2 < t1:
        raise ValueError(f"empty fade-level window ({t1}, {t2})")
    block = trace.window(t1, t2)
    columns = _pattern_columns(trace)
    if not columns or not len(block):
        raise ValueError("no directional records in fade-level window")
    heard = np.count_nonzero(~np.isnan(block), axis=0)
    h = sum_over_ticks(block - trace.tx_power_dbm)
    levels: dict[Link, dict[PatternPair, float]] = {}
    for link, pair, col in columns:
        if heard[col]:
            levels.setdefault(link, {})[pair] = float(h[col])
    return FadeLevelTable(window=(t1, t2), levels=levels)


def _top_k(
    eligible: Mapping[PatternPair, float] | None, link: Link, k: int
) -> list[PatternPair]:
    """The k pairs of highest level, descending; ties ascending lexicographic."""
    if not eligible:
        raise ValueError(f"no eligible pairs for link {link[0]}->{link[1]}")
    if not 1 <= k <= len(eligible):
        raise ValueError(
            f"k must be in [1, {len(eligible)}] for link {link[0]}->{link[1]}, got {k}"
        )
    ranked = sorted(eligible.items(), key=lambda item: (-item[1], item[0]))
    return [pair for pair, _ in ranked[:k]]


def select_fade_level(table: FadeLevelTable, link: Link, k: int) -> list[PatternPair]:
    """Top-k pairs by accumulated normalised RSS, descending; ties ascending
    lexicographic."""
    return _top_k(table.levels.get(link), link, k)


def reception_ratios(
    trace: RssTrace, window: tuple[int, int]
) -> dict[Link, dict[PatternPair, float]]:
    """Packet reception ratio of each pattern pair over the window, per link.

    PRR divides received packets by transmission attempts; every stream
    attempts one packet per tick. Pairs with zero receptions carry no entry.
    """
    t1, t2 = window
    if t2 < t1:
        raise ValueError(f"empty PRR window ({t1}, {t2})")
    block = trace.window(t1, t2)
    got = np.count_nonzero(~np.isnan(block), axis=0)
    ratios: dict[Link, dict[PatternPair, float]] = {}
    for link, pair, col in _pattern_columns(trace):
        if got[col]:
            ratios.setdefault(link, {})[pair] = int(got[col]) / len(block)
    return ratios


def select_for_layout(
    layout: NetworkLayout,
    method: str,
    *,
    trace: RssTrace | None = None,
    window: tuple[int, int] | None = None,
    n_transmitter: int = 2,
    n_receiver: int = 2,
    k: int = 9,
) -> SelectionResult:
    """Apply one selection method to every link of a layout."""
    pairs_by_link: dict[Link, list[PatternPair]] = {}
    if method == "all":
        params = {}
        for link in layout.links:
            pairs_by_link[link] = all_pairs()
    elif method == "location":
        params = {"n_transmitter": n_transmitter, "n_receiver": n_receiver}
        for link in layout.links:
            pairs_by_link[link] = select_location(layout, link, n_transmitter, n_receiver)
    elif method == "fadelevel":
        if trace is None or window is None:
            raise ValueError("fadelevel selection needs a calibration trace and window")
        params = {"k": k}
        table = compute_fade_levels(trace, window)
        for link in layout.links:
            pairs_by_link[link] = select_fade_level(table, link, k)
    elif method == "prr":
        if trace is None or window is None:
            raise ValueError("prr selection needs a calibration trace and window")
        params = {"k": k}
        ratios = reception_ratios(trace, window)
        for link in layout.links:
            pairs_by_link[link] = _top_k(ratios.get(link), link, k)
    else:
        raise ValueError(f"unknown selection method {method!r}")
    return SelectionResult(method=method, params=params, pairs_by_link=pairs_by_link)
