"""The per-config, per-tick evaluation that `rti.experiment.evaluate_method`
replaced, kept as oracles for its array stages.

`streams_for_method` lists each link's stream keys, and `compute_stat_matrix`
gathers, forward-fills, calibrates and takes the window variance of one
config's streams on every call. `argmax_positions` means each plateau row's
centres one row at a time. `track_per_tick` images one
tick at a time with `reconstruct`, then takes the argmax and runs the Kalman
filter with the per-tick code below, which computes the covariance and gain
at every step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from rti.experiment import PhaseError, _is_variance
from rti.geometry import VoxelGrid
from rti.imaging import ImageFrame, reconstruct
from rti.tracking import _H, KalmanParams
from stat_oracles import (
    StreamKey,
    batch_window_variance,
    calibrate,
    channel_stream,
    format_key,
    forward_fill,
    key_columns,
    omni_stream,
    pattern_stream,
)


def streams_for_method(
    layout, method: str, channels, selection
) -> dict[tuple[int, int], list[StreamKey]]:
    """The streams each link statistic aggregates, in deterministic order."""
    out: dict[tuple[int, int], list[StreamKey]] = {}
    for link in layout.links:
        if method in ("mRTI", "vRTI"):
            out[link] = [omni_stream(link)]
        elif method.startswith("cRTI"):
            out[link] = [channel_stream(link, ch) for ch in sorted(channels)]
        else:
            # Canonical pair order: the statistic is a set sum, so the
            # ranking order a selector chose must not leak into float
            # summation.
            pairs = sorted(
                selection.pairs_by_link[link],
                key=lambda p: (p.tx_direction, p.rx_direction),
            )
            out[link] = [pattern_stream(link, p) for p in pairs]
    return out


def compute_stat_matrix(
    trace,
    layout,
    method: str,
    streams_by_link: dict[tuple[int, int], list[StreamKey]],
    window: int,
    first_tick: int,
    num_ticks: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Link statistics per tracking tick, shaped (T, L), plus the per-link
    empty-room baseline.

    Mean methods subtract the calibration mean from the carry-forward RSS;
    variance methods take the sample variance of the trailing window. Either
    way the link statistic sums over the link's streams. The baseline is the
    statistic's mean over the calibration phase: a statistic built from
    noisy RSS has a positive floor even with nobody present, and the floor
    grows with the number of aggregated streams, so images are formed from
    the deviation above it rather than from the raw value.
    """
    ordered = list(
        dict.fromkeys(key for link in layout.links for key in streams_by_link[link])
    )
    column = key_columns(trace)
    missing = [k for k in ordered if k not in column]
    if missing:
        raise PhaseError(
            "statistics: trace has no records for streams "
            + ", ".join(format_key(k) for k in missing)
        )
    if trace.num_ticks < first_tick + num_ticks:
        raise PhaseError(
            f"statistics: trace has {trace.num_ticks} ticks, tracking needs "
            f"{first_tick + num_ticks}"
        )
    variance = _is_variance(method)
    raw = np.ascontiguousarray(trace.rssi[:, [column[k] for k in ordered]].T)
    # The statistic at tick t needs a reception by tick t - lag. A stream
    # whose statistic is undefined over the whole calibration region has no
    # baseline to measure change against; leave it out the way a deployment
    # survey would.
    lag = window - 1 if variance else 0
    alive = ~np.isnan(raw[:, : max(first_tick - lag, 0)]).all(axis=1)
    ordered = [key for key, ok in zip(ordered, alive) if ok]
    if not ordered:
        raise PhaseError("statistics: no stream has a defined statistic in calibration")
    row_of = {key: i for i, key in enumerate(ordered)}
    filled = forward_fill(raw[alive])

    if variance:
        per_stream = batch_window_variance(filled, window)
        cal_region = per_stream[:, window - 1 : first_tick]
    else:
        cal = calibrate(trace, (0, first_tick - 1), streams=ordered)
        means = np.array([cal.mean(key) for key in ordered])
        per_stream = np.abs(filled - means[:, None])
        cal_region = per_stream[:, :first_tick]

    region = per_stream[:, first_tick : first_tick + num_ticks]
    stats = np.zeros((num_ticks, layout.num_links))
    baseline = np.zeros(layout.num_links)
    for i, link in enumerate(layout.links):
        rows = [row_of[key] for key in streams_by_link[link] if key in row_of]
        if not rows:
            continue  # silent link: contributes no evidence
        stats[:, i] = region[rows].sum(axis=0)
        link_cal = cal_region[rows].sum(axis=0)
        valid = link_cal[~np.isnan(link_cal)]
        if valid.size == 0:
            raise PhaseError(
                f"statistics: no usable calibration ticks for link {link}"
            )
        baseline[i] = float(valid.mean())
    return stats, baseline


def argmax_positions(images: np.ndarray, grid: VoxelGrid) -> np.ndarray:
    """Centre of the brightest voxel of each image row, shaped (rows, 2);
    a plateau's centres are meaned one row at a time."""
    values = np.asarray(images)
    if values.ndim != 2 or values.shape[1] != grid.num_voxels:
        raise ValueError("frame size does not match grid")
    table = grid.centers()
    centres = table[values.argmax(axis=1)]
    tied = values == values.max(axis=1, keepdims=True)
    # A row with a plateau (or a NaN) breaks the count; only then look at
    # rows one by one. Each plateau mean sums a 1-D array, as np.mean does.
    if np.count_nonzero(tied) != len(values):
        counts = np.count_nonzero(tied, axis=1)
        for t in np.flatnonzero(counts > 1):
            xs, ys = table[tied[t]].T.copy()
            centres[t] = np.add.reduce(xs) / counts[t], np.add.reduce(ys) / counts[t]
    return centres


def argmax_voxel(frame: ImageFrame, grid: VoxelGrid) -> tuple[float, float]:
    """Centre of the brightest voxel.

    When several voxels tie for the maximum, the result is the mean of their
    centres. Voxels covered by the same set of links have equal weight
    columns and so exactly equal image values; the plateau's centre does not
    favour one corner of it.
    """
    values = np.asarray(frame.values)
    if values.shape != (grid.num_voxels,):
        raise ValueError("frame size does not match grid")
    best = values.argmax()
    peak = values[best]
    if np.count_nonzero(values == peak) < 2:
        return grid.voxel_center(int(best))
    ties = np.flatnonzero(values == peak)
    rows, cols = np.divmod(ties, grid.width_voxels)
    x0, y0 = grid.origin
    w = grid.voxel_width
    return (
        float(np.mean(x0 + (cols + 0.5) * w)),
        float(np.mean(y0 + (rows + 0.5) * w)),
    )


def kalman_step(
    state: tuple[np.ndarray, np.ndarray],
    measurement: Sequence[float],
    params: KalmanParams = KalmanParams(),
) -> tuple[np.ndarray, np.ndarray]:
    """One predict/update cycle of a (mean, covariance) state against a
    position measurement."""
    z = np.asarray(measurement, dtype=float)
    if z.shape != (2,):
        raise ValueError("measurement must be a 2-D position")
    F, F_T, Q, R, I4 = params.matrices
    mean, cov = state
    mean = F @ mean
    cov = F @ cov @ F_T + Q
    innovation = z - _H @ mean
    S = _H @ cov @ _H.T + R
    K = cov @ _H.T @ np.linalg.inv(S)
    mean = mean + K @ innovation
    cov = (I4 - K @ _H) @ cov
    cov = (cov + cov.T) / 2.0  # keep symmetry against float drift
    return mean, cov


class KalmanTracker:
    """Feeds per-tick position measurements through the filter, starting at
    the first measurement with zero velocity and covariance 10 I."""

    def __init__(self, params: KalmanParams = KalmanParams()):
        self.params = params
        self.state: tuple[np.ndarray, np.ndarray] | None = None

    def update(self, measurement: Sequence[float], time: int) -> tuple[float, float]:
        if self.state is None:
            mean = np.array([measurement[0], measurement[1], 0.0, 0.0])
            self.state = (mean, 10.0 * np.eye(4))
        else:
            self.state = kalman_step(self.state, measurement, self.params)
        mean = self.state[0]
        return (float(mean[0]), float(mean[1]))


def track_per_tick(reconstructor, change, grid, tracking, first_tick):
    """Images, argmax measurements and Kalman estimates, one tick at a time."""
    rounds = change.shape[0]
    tracker = KalmanTracker(KalmanParams(q=tracking.q, r=tracking.r))
    measurements = np.zeros((rounds, 2))
    estimates = np.zeros((rounds, 2))
    frames = []
    for t in range(rounds):
        frame = reconstruct(reconstructor, change[t], time=first_tick + t)
        frames.append(frame)
        measurements[t] = argmax_voxel(frame, grid)
        estimates[t] = tracker.update(measurements[t], time=first_tick + t)
    return np.array([f.values for f in frames]), measurements, estimates
