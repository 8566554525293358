"""RSS traces, calibration, and the stream machinery behind the link
statistics and the detection sweep.

Streams
-------
A stream is one RSS time series: an (ordered link, channel-or-pattern)
combination. Omni traffic has one stream per link, multichannel traffic one
per (link, channel), directional traffic one per (link, pattern pair).
Stream keys are tuples (tx_id, rx_id, channel, tx_dir, rx_dir) with None in
the unused slots.

Traces
------
A trace is columnar: one RSS column per stream and one row per tick, with
NaN where a packet was lost. Every stream attempts one packet per tick, so
the array has no holes other than lost packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .geometry import PatternPair

StreamKey = tuple  # (tx_id, rx_id, channel | None, tx_dir | None, rx_dir | None)

MODES = ("omni", "multichannel", "directional")


class MissingCalibrationError(KeyError):
    """A required stream has no calibration mean."""


class InsufficientWindowError(ValueError):
    """A statistic window holds fewer than two usable values."""


def check_stream(key: StreamKey) -> None:
    """Raise ValueError unless ``key`` is a well-formed stream key."""
    _tx, _rx, channel, tx_dir, rx_dir = key
    has_pattern = tx_dir is not None or rx_dir is not None
    if channel is not None and has_pattern:
        raise ValueError("a stream cannot carry both channel and pattern fields")
    if has_pattern and (tx_dir is None or rx_dir is None):
        raise ValueError("pattern streams need both tx_dir and rx_dir")


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
    packet. All streams share one mode and one transmit power.
    """

    mode: str
    tx_power_dbm: float
    streams: tuple[StreamKey, ...]
    rssi: np.ndarray

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not math.isfinite(self.tx_power_dbm):
            raise ValueError(f"tx_power_dbm must be finite, got {self.tx_power_dbm!r}")
        streams = tuple(tuple(key) for key in self.streams)
        for key in streams:
            check_stream(key)
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


@dataclass(frozen=True)
class CalibrationTable:
    """Per-stream mean RSS over an empty-area calibration window."""

    window: tuple[int, int]
    means: Mapping[StreamKey, float]

    def mean(self, stream: StreamKey) -> float:
        try:
            return self.means[stream]
        except KeyError:
            raise MissingCalibrationError(
                f"no calibration mean for stream {format_stream(stream)}"
            ) from None


def calibrate(
    trace: RssTrace,
    window: tuple[int, int],
    streams: Sequence[StreamKey] | None = None,
) -> CalibrationTable:
    """Mean received RSS per stream over the calibration window.

    When ``streams`` is given only those streams are calibrated; otherwise
    every stream of the trace is. A candidate stream with zero received
    packets in the window raises MissingCalibrationError.
    """
    t1, t2 = window
    if t2 < t1:
        raise ValueError(f"empty calibration window ({t1}, {t2})")
    block = trace.window(t1, t2)
    wanted = list(trace.streams if streams is None else streams)
    if not wanted or not len(block):
        raise ValueError(f"no streams in calibration window ({t1}, {t2})")
    counts = np.count_nonzero(~np.isnan(block), axis=0)
    sums = sum_over_ticks(block)
    column = trace.column
    missing = [s for s in wanted if s not in column or counts[column[s]] == 0]
    if missing:
        raise MissingCalibrationError(
            "streams with zero received packets in calibration window: "
            + ", ".join(format_stream(s) for s in missing)
        )
    means = {s: float(sums[column[s]] / counts[column[s]]) for s in wanted}
    return CalibrationTable(window=(t1, t2), means=means)


# ------------------------------------------------------------ detection


def fn_fp_sweep(
    stats: np.ndarray,
    obstructed: np.ndarray,
    thresholds: Sequence[float],
) -> list[tuple[float, float, float]]:
    """Sweep a threshold over link observations.

    Returns (threshold, fn_rate, fp_rate) triples where both rates divide by
    the total number of observations. fn_rate is non-decreasing and fp_rate
    non-increasing in the threshold.
    """
    stats = np.asarray(stats, dtype=float).ravel()
    mask = np.asarray(obstructed, dtype=bool).ravel()
    if stats.shape != mask.shape:
        raise ValueError("stats and obstructed must have matching shapes")
    total = stats.size
    if total == 0:
        raise ValueError("no observations to sweep")
    out = []
    for tau in sorted(thresholds):
        detected = stats > tau
        fn = int(np.count_nonzero(~detected & mask))
        fp = int(np.count_nonzero(detected & ~mask))
        out.append((float(tau), fn / total, fp / total))
    return out


# ------------------------------------------------------ stream machinery


def forward_fill(values: np.ndarray) -> np.ndarray:
    """Propagate the last non-NaN value forward along the last axis; leading
    NaNs stay NaN."""
    values = np.asarray(values, dtype=float)
    idx = np.where(np.isnan(values), 0, np.arange(values.shape[-1]))
    np.maximum.accumulate(idx, axis=-1, out=idx)
    return np.take_along_axis(values, idx, axis=-1)


def batch_window_variance(filled: np.ndarray, v: int) -> np.ndarray:
    """Sample variance of the window ending at each tick, for stacked streams.

    filled: (S, T) carry-forward matrix. Output (S, T) with NaN where the
    window does not fit or contains unfilled values.
    """
    if v < 2:
        raise InsufficientWindowError("window length must be >= 2")
    s, t = filled.shape
    out = np.full((s, t), np.nan)
    if t >= v:
        windows = np.lib.stride_tricks.sliding_window_view(filled, v, axis=1)
        out[:, v - 1 :] = np.var(windows, axis=2, ddof=1)
    return out
