"""RSS traces, calibration, and the stream machinery behind the link
statistics and the detection sweep.

Streams
-------
A stream is one RSS time series: an (ordered link, channel-or-pattern)
combination. Omni traffic has one stream per link, multichannel traffic one
per (link, channel), directional traffic one per (link, pattern pair).

A trace holds its streams as two int arrays: `links`, each stream's
(tx_id, rx_id), and `kinds`, each stream's kind code, its index in the
mode's table `stream_kinds(mode, VALID_CHANNELS)`. A directional code is
the pair's `PATTERN_PAIRS` index, as `selection` keeps it.

Traces
------
A trace is columnar: one RSS column per stream and one row per tick, with
NaN where a packet was lost. Every stream attempts one packet per tick, so
the array has no holes other than lost packets.

A trace's arrays are read-only, so the arrays derived from them are computed
once per trace and kept on it, shared by every config evaluated on it. They
are (ticks, streams) like the trace: column s of each is stream s.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import PATTERN_PAIRS

MODES = ("omni", "multichannel", "directional")
VALID_CHANNELS = (11, 15, 18, 21, 26)


class InsufficientWindowError(ValueError):
    """A statistic window holds fewer than two usable values."""


def stream_kinds(mode: str, channels: Sequence[int] = ()) -> tuple[tuple, ...]:
    """The (channel, tx_dir, rx_dir) kinds a link carries in a trace of
    ``mode``, in trace order: one omni kind, each channel ascending, or the
    pattern pairs in `PATTERN_PAIRS` order."""
    if mode == "omni":
        return ((None, None, None),)
    if mode == "multichannel":
        return tuple((channel, None, None) for channel in sorted(channels))
    return tuple((None, pair.tx_direction, pair.rx_direction) for pair in PATTERN_PAIRS)


def format_stream(link, kind) -> str:
    """The text of the stream of a link and (channel, tx_dir, rx_dir) kind
    in messages, such as `0->1 omni`, `0->1 channel 11` or `0->1 pair (1,2)`."""
    channel, tx_dir, rx_dir = kind
    tag = f"{link[0]}->{link[1]}"
    if channel is not None:
        return f"{tag} channel {channel}"
    if tx_dir is not None:
        return f"{tag} pair ({tx_dir},{rx_dir})"
    return f"{tag} omni"


def _link_keys(links: np.ndarray, num_kinds: int) -> np.ndarray:
    """An int64 per row of a (rows, 2) link array, equal iff the links are
    and a multiple of ``num_kinds``, so that adding a kind code keys a
    stream. Node ids enter by rank, so any int64 id fits."""
    ids, rank = np.unique(links, return_inverse=True)
    rank = rank.reshape(-1, 2)
    return (rank[:, 0] * len(ids) + rank[:, 1]) * num_kinds


@dataclass(frozen=True, eq=False)
class RssTrace:
    """Every reception attempt of a run, as one (ticks, streams) RSS array.

    ``rssi[t, s]`` is the RSS at tick t of the stream of link ``links[s]``
    and kind code ``kinds[s]``, NaN for a lost packet. All streams share
    one mode and one transmit power. The arrays are made read-only, so the
    arrays derived from them stay valid.
    """

    mode: str
    tx_power_dbm: float
    links: np.ndarray
    kinds: np.ndarray
    rssi: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # Kept as a Python float, so a trace file shows `0.0`, never `0` or
        # `np.float64(0.0)`; a bool is refused rather than taken as 0 or 1.
        power = self.tx_power_dbm
        if isinstance(power, bool) or not isinstance(power, numbers.Real):
            raise ValueError(f"tx_power_dbm must be a real number, got {power!r}")
        try:
            power = float(power)
        except OverflowError:
            power = math.inf
        if not math.isfinite(power):
            raise ValueError(f"tx_power_dbm must be finite, got {self.tx_power_dbm!r}")
        # Copies; an array that does not cast safely to int64 raises
        # TypeError, and a bool one, which numpy casts safely, ValueError.
        links, kinds = np.asarray(self.links), np.asarray(self.kinds)
        for name, array in (("links", links), ("kinds", kinds)):
            if array.dtype == bool:
                raise ValueError(f"{name} must be integers, got a bool array")
        links, kinds = links.astype(np.int64, casting="safe"), kinds.astype(np.int64, casting="safe")
        rssi = np.ascontiguousarray(self.rssi, dtype=float)
        if kinds.ndim != 1 or links.shape != (len(kinds), 2) or rssi.ndim != 2 or rssi.shape[1] != len(kinds):
            raise ValueError(
                "links, kinds and rssi must be shaped (streams, 2), (streams,) and (ticks, "
                f"streams), got {links.shape}, {kinds.shape} and {rssi.shape}"
            )
        table = stream_kinds(self.mode, VALID_CHANNELS)
        bad = np.flatnonzero((kinds < 0) | (kinds >= len(table)))
        if bad.size:
            s = bad[0]
            raise ValueError(
                f"stream {s} ({links[s, 0]}->{links[s, 1]}): kind code {kinds[s]} "
                f"outside [0, {len(table)}) for mode {self.mode!r}"
            )
        _, first = np.unique(_link_keys(links, len(table)) + kinds, return_index=True)
        if len(first) < len(kinds):
            s = np.setdiff1d(np.arange(len(kinds)), first)[0]  # the first repeat
            raise ValueError(f"duplicate stream {format_stream(links[s], table[kinds[s]])} in trace")
        bad = np.flatnonzero(np.isinf(rssi))
        if bad.size:
            tick, s = divmod(int(bad[0]), len(kinds))
            raise ValueError(f"{format_stream(links[s], table[kinds[s]])} tick {tick}: non-finite rssi")
        for name, array in (("links", links), ("kinds", kinds), ("rssi", rssi)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "tx_power_dbm", power)

    @property
    def num_ticks(self) -> int:
        return self.rssi.shape[0]

    def window(self, t1: int, t2: int) -> np.ndarray:
        """Rows of ticks t1..t2 (inclusive) that lie inside the trace."""
        return self.rssi[max(t1, 0) : max(t2 + 1, 0)]


def per_trace(fn):
    """Memoise ``fn(trace, *args)`` on the trace, shared and read-only."""

    @functools.wraps(fn)
    def cached(trace: RssTrace, *args):
        key = (fn, *args)
        if key not in trace._derived:
            value = trace._derived[key] = fn(trace, *args)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return trace._derived[key]

    return cached


@per_trace
def carry_forward(trace: RssTrace) -> np.ndarray:
    """Carry-forward RSS shaped (ticks, streams): a lost packet repeats the
    stream's last reception, NaN before the first one."""
    return forward_fill(trace.rssi)


@per_trace
def first_heard(trace: RssTrace) -> np.ndarray:
    """Tick of each stream's first reception; num_ticks if never heard."""
    heard = ~np.isnan(trace.rssi)
    return np.where(heard.any(axis=0), heard.argmax(axis=0), trace.num_ticks)


def sum_over_ticks(values: np.ndarray) -> np.ndarray:
    """Per-column sums of a (ticks, streams) block, NaN counting as zero.

    Ticks are added one at a time, in tick order. numpy's own reduction
    switches to pairwise summation for a single column, which would change
    the last bits of a mean.
    """
    total = np.zeros(values.shape[1:])
    for row in values:
        total += np.where(np.isnan(row), 0.0, row)
    return total


@per_trace
def calibration_deviation(trace: RssTrace, first_tick: int) -> np.ndarray:
    """|carry-forward RSS - calibration mean| per tick and stream, shaped
    (ticks, streams). The mean is over the receptions of ticks [0,
    first_tick), summed in tick order; NaN for a stream not heard there."""
    block = trace.rssi[:first_tick]
    with np.errstate(invalid="ignore"):
        means = sum_over_ticks(block) / np.count_nonzero(~np.isnan(block), axis=0)
    return np.abs(carry_forward(trace) - means)


@per_trace
def window_variance(trace: RssTrace, window: int) -> np.ndarray:
    """`batch_window_variance` of the carry-forward array, (ticks, streams)."""
    return batch_window_variance(carry_forward(trace), window)


@per_trace
def stream_columns(trace: RssTrace, links: tuple, kinds: tuple) -> np.ndarray:
    """Trace column of each link's stream of each (channel, tx_dir, rx_dir)
    kind, shaped (links, kinds); -1 where the trace has no such stream. One
    `np.searchsorted` finds the keys among the trace's sorted stream keys."""
    table = stream_kinds(trace.mode, VALID_CHANNELS)
    codes = np.array([table.index(kind) if kind in table else -1 for kind in kinds], np.int64)
    num_streams = len(trace.kinds)
    link_keys = _link_keys(np.concatenate((trace.links, np.reshape(links, (-1, 2)))), len(table))
    have, keys = link_keys[:num_streams] + trace.kinds, link_keys[num_streams:, None] + codes
    if not num_streams:
        return np.full(keys.shape, -1)
    order = np.argsort(have)
    found = order[np.minimum(np.searchsorted(have, keys, sorter=order), num_streams - 1)]
    return np.where((have[found] == keys) & (codes >= 0), found, -1)


# ------------------------------------------------------------ detection


def fn_fp_sweep(
    stats: np.ndarray,
    obstructed: np.ndarray,
    thresholds: Sequence[float],
) -> list[tuple[float, float, float]]:
    """Sweep a threshold over link observations.

    Returns (threshold, fn_rate, fp_rate) triples where both rates divide by
    the total number of observations. An observation is detected when it
    exceeds the threshold, so a NaN observation is never detected and a NaN
    threshold detects nothing. fn_rate is non-decreasing and fp_rate
    non-increasing in the threshold. The counts come from the sorted
    obstructed and clear observations, one `searchsorted` per class.
    """
    stats = np.asarray(stats, dtype=float).ravel()
    mask = np.asarray(obstructed, dtype=bool).ravel()
    if stats.shape != mask.shape:
        raise ValueError("stats and obstructed must have matching shapes")
    total = stats.size
    if total == 0:
        raise ValueError("no observations to sweep")
    taus = np.sort(np.asarray(thresholds, dtype=float).ravel(), kind="stable")
    defined = ~np.isnan(stats)

    def detected(values: np.ndarray) -> np.ndarray:
        values = np.sort(values)
        return len(values) - np.searchsorted(values, taus, side="right")

    fn = (np.count_nonzero(mask) - detected(stats[mask & defined])).tolist()
    fp = detected(stats[~mask & defined]).tolist()
    return [(tau, n / total, p / total) for tau, n, p in zip(taus.tolist(), fn, fp)]


# ------------------------------------------------------ stream machinery


def forward_fill(values: np.ndarray) -> np.ndarray:
    """A copy of ``values`` with each NaN replaced by the last non-NaN value
    above it along the first (tick) axis; leading NaNs stay NaN."""
    filled = np.array(values, dtype=float)
    rows = filled[:, None] if filled.ndim == 1 else filled
    for prev, row in zip(rows[:-1], rows[1:]):
        np.copyto(row, prev, where=np.isnan(row))
    return filled


# Columns per block in `batch_window_variance`. A block is copied out whole, so
# its shifted slices are contiguous, and its temporaries stay in cache.
VARIANCE_BLOCK_COLUMNS = 64


def batch_window_variance(filled: np.ndarray, v: int) -> np.ndarray:
    """Sample variance of the window ending at each tick, for each stream.

    filled: (T, S) carry-forward matrix. Output (T, S) with NaN where the
    window does not fit or contains unfilled values.

    The result is ``np.var(window, ddof=1)`` of every window bit for bit,
    computed from the v shifted (T - v + 1, columns) slices of a block of
    columns with np.var's float operations: the window sum in numpy's order
    (`_window_sum`) over v, the deviations from that mean, their squares,
    and their sum in the same order over v - 1.
    """
    if v < 2:
        raise InsufficientWindowError("window length must be >= 2")
    t, s = filled.shape
    out = np.full((t, s), np.nan)
    if t < v:
        return out
    w = t - v + 1
    for i in range(0, s, VARIANCE_BLOCK_COLUMNS):
        block = np.ascontiguousarray(filled[:, i : i + VARIANCE_BLOCK_COLUMNS])
        mean = _window_sum(lambda j: block[j : j + w], 0, v)
        mean /= v

        def square(j):
            deviation = block[j : j + w] - mean
            deviation *= deviation
            return deviation

        total = _window_sum(square, 0, v)
        np.divide(total, v - 1, out=out[v - 1 :, i : i + VARIANCE_BLOCK_COLUMNS])
    return out


def _window_sum(term, lo: int, n: int) -> np.ndarray:
    """``term(lo) + ... + term(lo + n - 1)``, n >= 2, in the order numpy's
    pairwise sum adds n contiguous values: in sequence below 8 terms; up to
    128 terms in eight running accumulators, combined as ((r0 + r1) +
    (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the leftover terms in
    sequence; beyond that, the two halves split at a multiple of 8, summed
    alike."""
    if n < 8:
        total = term(lo) + term(lo + 1)
        for j in range(lo + 2, lo + n):
            total += term(j)
        return total
    if n <= 128:
        acc = [term(lo + j).copy() for j in range(8)]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                acc[j] += term(i + j)
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for j in range(end, lo + n):
            total += term(j)
        return total
    half = n // 2
    half -= half % 8
    return _window_sum(term, lo, half) + _window_sum(term, lo + half, n - half)
