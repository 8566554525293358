"""Pattern pair selection: Location, Fade Level, and PRR methods.

A selection is a (links, k) array of indices into `PATTERN_PAIRS`, each row
one link's pairs in preference order. All tie-breaks order pairs ascending
lexicographically by (tx_direction, rx_direction), which is ascending index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .geometry import NUM_DIRECTIONS, PATTERN_PAIRS, NetworkLayout, PatternPair, angle_to_link
from .linkstats import RssTrace, per_trace, stream_columns, stream_kinds, sum_over_ticks

Link = tuple[int, int]


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Selected pattern pairs per link: row i of the read-only ``pairs``
    array holds the `PATTERN_PAIRS` indices of ``links[i]``, in
    selection-preference order."""

    method: str
    links: tuple[Link, ...]
    pairs: np.ndarray

    @cached_property
    def pairs_by_link(self) -> Mapping[Link, tuple[PatternPair, ...]]:
        """The same selection as a read-only mapping from link to pairs."""
        return MappingProxyType({
            link: tuple(PATTERN_PAIRS[i] for i in row)
            for link, row in zip(self.links, self.pairs.tolist())
        })


def _location_pairs(layout: NetworkLayout, n_transmitter: int, n_receiver: int) -> np.ndarray:
    """Geometry-only selection: the Cartesian product of the n_transmitter
    transmit directions and n_receiver receive directions best aligned with
    each link line. Needs no calibration traffic.

    Directions rank by their angle to the line toward the other node, once
    per ordered node pair. Angles are rounded to 1e-12 rad so that symmetric
    directions tie exactly and fall back to the lower direction index.
    """
    for n in (n_transmitter, n_receiver):
        if not 1 <= n <= NUM_DIRECTIONS:
            raise ValueError(f"n must be in [1, {NUM_DIRECTIONS}], got {n}")
    nodes = layout.nodes
    ranked = np.zeros((len(nodes), len(nodes), NUM_DIRECTIONS), dtype=np.intp)
    for i, node in enumerate(nodes):
        for j, other in enumerate(nodes):
            if i != j:
                angles = [round(angle_to_link(node, d + 1, other), 12) for d in range(NUM_DIRECTIONS)]
                ranked[i, j] = sorted(range(NUM_DIRECTIONS), key=lambda d: (angles[d], d))
    row = {node.id: i for i, node in enumerate(nodes)}
    tx, rx = np.array([(row[a], row[b]) for a, b in layout.links]).T
    pairs = NUM_DIRECTIONS * ranked[tx, rx, :n_transmitter, None] + ranked[rx, tx, None, :n_receiver]
    return pairs.reshape(len(tx), -1)


@per_trace
def pair_levels(
    trace: RssTrace, method: str, window: tuple[int, int], links: tuple[Link, ...]
) -> np.ndarray:
    """Each link's pattern pairs scored over a window, shaped (links, 36) in
    `PATTERN_PAIRS` order, once per trace, window and link list.

    ``fadelevel`` scores a pair by the sum over its received packets of
    (rssi - tx_power), added in tick order: a larger level is a shallower
    fade. ``prr`` scores it by received packets over attempts, one attempt
    per tick. A pair with no reception in the window is NaN: ineligible.
    """
    t1, t2 = window
    if t2 < t1:
        raise ValueError(f"empty {'fade-level' if method == 'fadelevel' else 'PRR'} window ({t1}, {t2})")
    block = trace.window(t1, t2)
    heard = np.count_nonzero(~np.isnan(block), axis=0)
    if method == "fadelevel":
        if not len(block) or not trace.kinds.size or trace.mode != "directional":
            raise ValueError("no directional records in fade-level window")
        level = np.where(heard > 0, sum_over_ticks(block - trace.tx_power_dbm), np.nan)
    else:
        level = np.where(heard > 0, heard, np.nan) / len(block)
    columns = stream_columns(trace, links, stream_kinds("directional"))
    return np.where(columns >= 0, level[columns], np.nan)


def _top_levels(levels: np.ndarray, links: tuple[Link, ...], k: int) -> np.ndarray:
    """Each link's k pairs of highest level, descending; ties ascending
    lexicographic. Ineligible (NaN) pairs sort last and are never chosen."""
    eligible = np.count_nonzero(~np.isnan(levels), axis=1)
    bad = np.flatnonzero((eligible == 0) | (k < 1) | (k > eligible))
    if bad.size:
        (tx, rx), count = links[bad[0]], eligible[bad[0]]
        if not count:
            raise ValueError(f"no eligible pairs for link {tx}->{rx}")
        raise ValueError(f"k must be in [1, {count}] for link {tx}->{rx}, got {k}")
    return np.argsort(-levels, axis=1, kind="stable")[:, :k]


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
    links = tuple(layout.links)
    if method == "all":
        pairs = np.tile(np.arange(len(PATTERN_PAIRS)), (len(links), 1))
    elif method == "location":
        pairs = _location_pairs(layout, n_transmitter, n_receiver)
    elif method in ("fadelevel", "prr"):
        if trace is None or window is None:
            raise ValueError(f"{method} selection needs a calibration trace and window")
        pairs = _top_levels(pair_levels(trace, method, window, links), links, k)
    else:
        raise ValueError(f"unknown selection method {method!r}")
    pairs.flags.writeable = False
    return SelectionResult(method=method, links=links, pairs=pairs)


# ------------------------------------------------------------ file format
# One line per link:
#   link <tx> <rx> method <name> pairs (t1,r1) (t2,r2) ...


def format_selection(result: SelectionResult) -> str:
    lines = []
    for (tx, rx), pairs in result.pairs_by_link.items():
        pair_text = " ".join(f"({p.tx_direction},{p.rx_direction})" for p in pairs)
        lines.append(f"link {tx} {rx} method {result.method} pairs {pair_text}")
    return "\n".join(lines) + "\n"
