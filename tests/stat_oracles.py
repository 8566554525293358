"""Scalar reference formulas for the link statistics.

The pipeline computes every statistic in `rti.experiment.compute_stat_matrix`
over whole (streams, ticks) arrays. These per-observation formulas are the
definitions those arrays must reproduce; tests use them as oracles.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from rti.geometry import PatternPair
from rti.linkstats import (
    CalibrationTable,
    InsufficientWindowError,
    channel_stream,
    pattern_stream,
)


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
