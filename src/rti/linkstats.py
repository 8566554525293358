"""RSS traces, calibration, and the stream machinery behind the link
statistics and the detection sweep.

Streams
-------
A stream is one RSS time series: an (ordered link, channel-or-pattern)
combination. Omni traffic has one stream per link, multichannel traffic one
per (link, channel), directional traffic one per (link, pattern pair).
Stream keys are tuples (tx_id, rx_id, channel, tx_dir, rx_dir) with None in
the unused slots: a link followed by one of its mode's `stream_kinds`.

Traces
------
A trace is columnar: one RSS column per stream and one row per tick, with
NaN where a packet was lost. Every stream attempts one packet per tick, so
the array has no holes other than lost packets.

A trace's RSS array is read-only, so the arrays derived from it are computed
once per trace and kept on it, shared by every config evaluated on it. They
are (ticks, streams) like the trace: column s of each is stream s.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import NUM_DIRECTIONS, PATTERN_PAIRS, PatternPair

StreamKey = tuple  # (tx_id, rx_id, channel | None, tx_dir | None, rx_dir | None)

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
        raise ValueError(f"{format_stream(key)} is not a stream of mode {mode!r}")


def omni_stream(link: tuple[int, int]) -> StreamKey:
    return (link[0], link[1], None, None, None)

def channel_stream(link: tuple[int, int], channel: int) -> StreamKey:
    return (link[0], link[1], channel, None, None)

def pattern_stream(link: tuple[int, int], pair: PatternPair) -> StreamKey:
    return (link[0], link[1], None, pair.tx_direction, pair.rx_direction)


def format_stream(stream: StreamKey) -> str:
    tx, rx, channel, tx_dir, rx_dir = stream
    tag = f"{tx}->{rx}"
    if channel is not None:
        return f"{tag} channel {channel}"
    if tx_dir is not None:
        return f"{tag} pair ({tx_dir},{rx_dir})"
    return f"{tag} omni"


@dataclass(frozen=True, eq=False)
class RssTrace:
    """Every reception attempt of a run, as one (ticks, streams) RSS array.

    ``rssi[t, s]`` is the RSS of ``streams[s]`` at tick t, NaN for a lost
    packet. All streams share one mode and one transmit power. The array is
    made read-only in place, so the arrays derived from it stay valid.
    """

    mode: str
    tx_power_dbm: float
    streams: tuple[StreamKey, ...]
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
        streams = tuple(tuple(key) for key in self.streams)
        for key in streams:
            check_stream(key, self.mode)
        if len(set(streams)) != len(streams):
            raise ValueError("duplicate streams in trace")
        rssi = np.ascontiguousarray(self.rssi, dtype=float)
        if rssi.ndim != 2 or rssi.shape[1] != len(streams):
            raise ValueError(
                f"rssi must be shaped (ticks, {len(streams)}), got {rssi.shape}"
            )
        bad = np.argwhere(np.isinf(rssi))
        if bad.size:
            tick, col = bad[0]
            raise ValueError(
                f"{format_stream(streams[col])} tick {tick}: non-finite rssi"
            )
        rssi.flags.writeable = False
        object.__setattr__(self, "tx_power_dbm", power)
        object.__setattr__(self, "streams", streams)
        object.__setattr__(self, "rssi", rssi)

    @property
    def num_ticks(self) -> int:
        return self.rssi.shape[0]

    @cached_property
    def column(self) -> dict[StreamKey, int]:
        """Column index of each stream."""
        return {key: i for i, key in enumerate(self.streams)}

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
    """Trace column of each link's stream of each kind, shaped (links,
    kinds); -1 where the trace has no such stream."""
    # One pass over the streams: lookups in `RssTrace.column` raised dRTI peak RSS.
    row = {link: i for i, link in enumerate(links)}
    at = {kind: j for j, kind in enumerate(kinds)}
    table = np.full((len(links), len(kinds)), -1)
    for col, (tx, rx, *kind) in enumerate(trace.streams):
        i, j = row.get((tx, rx)), at.get(tuple(kind))
        if i is not None and j is not None:
            table[i, j] = col
    return table


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
