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
observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from rti.geometry import PatternPair
from rti.linkstats import (
    InsufficientWindowError,
    RssTrace,
    StreamKey,
    channel_stream,
    format_stream,
    pattern_stream,
    sum_over_ticks,
)


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
