"""Scalar reference formulas for the link statistics and the metrics.

The pipeline computes every statistic in `rti.experiment.compute_stat_matrix`
over whole (ticks, streams) arrays, and the detection sweep and error CDF as
array counts. These per-observation formulas and loops are the definitions
those arrays must reproduce; tests use them as oracles. `calibrate` is the
per-stream calibration the pipeline used before each trace kept its own
calibration means. `forward_fill` and `batch_window_variance` are the
(streams, ticks) forms, an index-array fill and `np.var`, that
`rti.linkstats` replaced with tick-major ones; the shipped functions must
match them bit for bit on the transposed arrays. `fn_fp_sweep_broadcast` is the sweep that compared
every threshold with every observation, before the counts came from sorted
observations. `stream_columns_loop` is the dict pass over stream keys that
`stream_columns` replaced with a search over encoded keys.

A trace holds its streams as link and kind-code arrays. The key helpers
give each stream as the (tx_id, rx_id, channel, tx_dir, rx_dir) tuple the
oracles and tests name streams by, with None in the unused slots, and build
a trace from such keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from rti.geometry import PatternPair
from rti.linkstats import (
    VALID_CHANNELS,
    InsufficientWindowError,
    RssTrace,
    format_stream,
    per_trace,
    stream_kinds,
    sum_over_ticks,
)

StreamKey = tuple  # (tx_id, rx_id, channel | None, tx_dir | None, rx_dir | None)


def omni_stream(link: tuple[int, int]) -> StreamKey:
    return (link[0], link[1], None, None, None)


def channel_stream(link: tuple[int, int], channel: int) -> StreamKey:
    return (link[0], link[1], channel, None, None)


def pattern_stream(link: tuple[int, int], pair: PatternPair) -> StreamKey:
    return (link[0], link[1], None, pair.tx_direction, pair.rx_direction)


def kind_mode(kind) -> str:
    """The mode whose streams are of this (channel, tx_dir, rx_dir) kind."""
    return "multichannel" if kind[0] is not None else "directional" if kind[1] is not None else "omni"


def format_key(key: StreamKey) -> str:
    return format_stream(key, key[2:])


@per_trace
def stream_keys(trace: RssTrace) -> tuple[StreamKey, ...]:
    """Each stream of the trace as a key, in column order."""
    kinds = stream_kinds(trace.mode, VALID_CHANNELS)
    return tuple(
        (tx, rx, *kinds[code]) for (tx, rx), code in zip(trace.links.tolist(), trace.kinds.tolist())
    )


@per_trace
def key_columns(trace: RssTrace) -> dict[StreamKey, int]:
    """Column of each stream key of the trace."""
    return {key: i for i, key in enumerate(stream_keys(trace))}


def trace_from_keys(mode: str, power, keys, rssi) -> RssTrace:
    """The trace whose streams are ``keys``, in order. Each key's kind must
    be one of the mode's."""
    kinds = stream_kinds(mode, VALID_CHANNELS)
    keys = [tuple(key) for key in keys]
    links = np.array([key[:2] for key in keys], np.int64).reshape(-1, 2)
    codes = np.array([kinds.index(key[2:]) for key in keys], np.int64)
    return RssTrace(mode, power, links, codes, rssi)


def stream_columns_loop(trace: RssTrace, links, kinds) -> np.ndarray:
    """`stream_columns` by one dict pass over the trace's stream keys."""
    row = {link: i for i, link in enumerate(links)}
    at = {kind: j for j, kind in enumerate(kinds)}
    table = np.full((len(links), len(kinds)), -1)
    for col, (tx, rx, *kind) in enumerate(stream_keys(trace)):
        i, j = row.get((tx, rx)), at.get(tuple(kind))
        if i is not None and j is not None:
            table[i, j] = col
    return table


class MissingCalibrationError(KeyError):
    """A required stream has no calibration mean."""


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
                f"no calibration mean for stream {format_key(stream)}"
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
    wanted = list(stream_keys(trace) if streams is None else streams)
    if not wanted or not len(block):
        raise ValueError(f"no streams in calibration window ({t1}, {t2})")
    counts = np.count_nonzero(~np.isnan(block), axis=0)
    sums = sum_over_ticks(block)
    column = key_columns(trace)
    missing = [s for s in wanted if s not in column or counts[column[s]] == 0]
    if missing:
        raise MissingCalibrationError(
            "streams with zero received packets in calibration window: "
            + ", ".join(format_key(s) for s in missing)
        )
    means = {s: float(sums[column[s]] / counts[column[s]]) for s in wanted}
    return CalibrationTable(window=(t1, t2), means=means)


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
        # np.var's (rows, ticks, v) temporary is taken in blocks of rows to
        # bound memory; a row's variance does not depend on the others.
        for i in range(0, s, 256):
            out[i : i + 256, v - 1 :] = np.var(windows[i : i + 256], axis=2, ddof=1)
    return out


def fn_fp_sweep_loop(
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


def fn_fp_sweep_broadcast(
    stats: np.ndarray,
    obstructed: np.ndarray,
    thresholds: Sequence[float],
) -> list[tuple[float, float, float]]:
    """`fn_fp_sweep` comparing every threshold against every observation at
    once, as one (thresholds, observations) array."""
    stats = np.asarray(stats, dtype=float).ravel()
    mask = np.asarray(obstructed, dtype=bool).ravel()
    if stats.shape != mask.shape:
        raise ValueError("stats and obstructed must have matching shapes")
    total = stats.size
    if total == 0:
        raise ValueError("no observations to sweep")
    taus = np.sort(np.asarray(thresholds, dtype=float).ravel(), kind="stable")
    detected = stats > taus[:, None]  # one row per threshold
    fn = np.count_nonzero(~detected & mask, axis=1).tolist()
    fp = np.count_nonzero(detected & ~mask, axis=1).tolist()
    return [(tau, n / total, p / total) for tau, n, p in zip(taus.tolist(), fn, fp)]


def error_cdf_loop(
    errors: Sequence[float], levels: Sequence[float]
) -> list[tuple[float, float]]:
    """Empirical P(error <= level) for each requested level."""
    err = np.asarray(errors, dtype=float)
    if err.size == 0:
        raise ValueError("no errors to summarise")
    return [(float(l), float(np.mean(err <= l))) for l in levels]




def mrti_stat(rssi: float, mean_rssi: float) -> float:
    """Absolute RSS deviation from the calibration mean."""
    return abs(rssi - mean_rssi)


def vrti_stat(window: Sequence[float]) -> float:
    """Sample variance (divisor n-1) of a window of RSS values."""
    values = np.asarray(window, dtype=float)
    if values.size < 2 or np.isnan(values).any():
        raise InsufficientWindowError(
            f"variance window needs >= 2 usable values, got {values.size}"
        )
    return float(np.var(values, ddof=1))


def drti_mean_stat(
    link: tuple[int, int],
    pairs: Sequence[PatternPair],
    current: Mapping[PatternPair, float],
    calibration: CalibrationTable,
) -> float:
    """Sum over selected pattern pairs of |current RSS - calibration mean|."""
    if not pairs:
        raise ValueError("no pattern pairs selected")
    total = 0.0
    for pair in pairs:
        total += abs(current[pair] - calibration.mean(pattern_stream(link, pair)))
    return total


def drti_var_stat(
    pairs: Sequence[PatternPair],
    windows: Mapping[PatternPair, Sequence[float]],
) -> float:
    """Sum over selected pattern pairs of their window sample variances."""
    if not pairs:
        raise ValueError("no pattern pairs selected")
    return sum(vrti_stat(windows[pair]) for pair in pairs)


def crti_mean_stat(
    link: tuple[int, int],
    channels: Sequence[int],
    current: Mapping[int, float],
    calibration: CalibrationTable,
) -> float:
    """Sum over configured channels of the per-channel mean statistic."""
    if not channels:
        raise ValueError("no channels configured")
    total = 0.0
    for ch in channels:
        total += abs(current[ch] - calibration.mean(channel_stream(link, ch)))
    return total


def crti_var_stat(
    channels: Sequence[int],
    windows: Mapping[int, Sequence[float]],
) -> float:
    """Sum over configured channels of the per-channel window variance."""
    if not channels:
        raise ValueError("no channels configured")
    return sum(vrti_stat(windows[ch]) for ch in channels)


def classify_link_attenuation(stat: float, threshold: float, obstructed: bool) -> str:
    """TP/FP/TN/FN for one link observation against a detection threshold."""
    if stat > threshold:
        return "TP" if obstructed else "FP"
    return "FN" if obstructed else "TN"
