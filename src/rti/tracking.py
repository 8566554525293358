"""Target tracking over image argmax measurements and error metrics."""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


class InvalidStateError(ValueError):
    """Track state covariance is not usable (asymmetric or non-positive)."""


@dataclass(frozen=True)
class KalmanParams:
    """Constant-velocity filter noise levels: q drives the white-acceleration
    process noise, r the position measurement noise."""

    q: float = 0.05
    r: float = 0.5
    dt: float = 1.0

    def __post_init__(self) -> None:
        if self.q < 0 or self.r <= 0 or self.dt <= 0:
            raise ValueError("need q >= 0, r > 0, dt > 0")

    @cached_property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """(F, F.T, Q, r * I2, I4): the filter's constant matrices, built once
        per parameter set and read-only."""
        F = _transition(self.dt)
        Q = _process_noise(self.q, self.dt)
        matrices = (F, F.T, Q, self.r * np.eye(2), np.eye(4))
        for m in matrices:
            m.flags.writeable = False
        return matrices


@dataclass(frozen=True)
class TrackState:
    """Kalman state: [x, y, vx, vy] mean and covariance at one tick."""

    time: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (4,) or cov.shape != (4, 4):
            raise InvalidStateError("state needs a (4,) mean and (4, 4) covariance")
        _check_covariance(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def position(self) -> tuple[float, float]:
        return (float(self.mean[0]), float(self.mean[1]))


def _check_covariance(cov: np.ndarray) -> None:
    if np.max(np.abs(cov - cov.T)) > 1e-9:
        raise InvalidStateError("covariance is not symmetric")
    if np.any(np.diag(cov) <= 0):
        raise InvalidStateError("covariance diagonal must be positive")


def _transition(dt: float) -> np.ndarray:
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    return F


def _process_noise(q: float, dt: float) -> np.ndarray:
    # White-noise acceleration model.
    d4, d3, d2 = dt**4 / 4.0, dt**3 / 2.0, dt**2
    return q * np.array(
        [
            [d4, 0.0, d3, 0.0],
            [0.0, d4, 0.0, d3],
            [d3, 0.0, d2, 0.0],
            [0.0, d3, 0.0, d2],
        ]
    )

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def kalman_init(measurement: Sequence[float], time: int = 0) -> TrackState:
    """Start a track at the first measurement with zero velocity."""
    mean = np.array([measurement[0], measurement[1], 0.0, 0.0])
    return TrackState(time=time, mean=mean, cov=10.0 * np.eye(4))


def _covariance_update(cov: np.ndarray, params: KalmanParams) -> tuple[np.ndarray, np.ndarray]:
    """One predict/update cycle of the covariance: (next covariance, gain).
    Neither depends on the measurements."""
    F, F_T, Q, R, I4 = params.matrices
    cov = F @ cov @ F_T + Q
    S = _H @ cov @ _H.T + R
    K = cov @ _H.T @ np.linalg.inv(S)
    cov = (I4 - K @ _H) @ cov
    return (cov + cov.T) / 2.0, K  # keep symmetry against float drift


def _mean_update(mean: np.ndarray, z: np.ndarray, F: np.ndarray, K: np.ndarray) -> np.ndarray:
    mean = F @ mean
    return mean + K @ (z - _H @ mean)


def kalman_step(
    state: TrackState,
    measurement: Sequence[float],
    params: KalmanParams = KalmanParams(),
) -> TrackState:
    """One predict/update cycle against a position measurement."""
    z = np.asarray(measurement, dtype=float)
    if z.shape != (2,):
        raise ValueError("measurement must be a 2-D position")
    cov, K = _covariance_update(state.cov, params)
    mean = _mean_update(state.mean, z, params.matrices[0], K)
    return TrackState(time=state.time + 1, mean=mean, cov=cov)


@functools.lru_cache(maxsize=16)
def kalman_gains(params: KalmanParams, steps: int) -> np.ndarray:
    """The gains of ``steps`` `kalman_step` calls after `kalman_init`, shaped
    (steps, 4, 2): they do not depend on the measurements, so one checked,
    read-only sequence serves every track with these parameters."""
    cov = kalman_init((0.0, 0.0)).cov
    gains = np.empty((steps, 4, 2))
    for i in range(steps):
        cov, gains[i] = _covariance_update(cov, params)
        _check_covariance(cov)
    gains.flags.writeable = False
    return gains


def track(measurements: np.ndarray, params: KalmanParams = KalmanParams()) -> np.ndarray:
    """Filtered positions of a (T, 2) measurement sequence, bit-identical to
    `KalmanTracker.update` over it: the same mean update, precomputed gains."""
    z = np.asarray(measurements, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2 or not len(z):
        raise ValueError(f"measurements must be (T, 2) positions, got {z.shape}")
    mean = kalman_init(z[0]).mean
    out = [mean[:2]]
    for zt, gain in zip(z[1:], kalman_gains(params, len(z) - 1)):
        mean = _mean_update(mean, zt, params.matrices[0], gain)
        out.append(mean[:2])
    return np.array(out)


class KalmanTracker:
    """Feeds per-tick position measurements through the filter."""

    def __init__(self, params: KalmanParams = KalmanParams()):
        self.params = params
        self.state: TrackState | None = None

    def update(self, measurement: Sequence[float], time: int) -> tuple[float, float]:
        if self.state is None:
            self.state = kalman_init(measurement, time)
        else:
            self.state = kalman_step(self.state, measurement, self.params)
        return self.state.position


# ---------------------------------------------------------------- metrics


def rmse(
    estimates: np.ndarray,
    truth: np.ndarray,
    window: tuple[int, int] | None = None,
) -> float:
    """Root-mean-square position error.

    ``estimates`` and ``truth`` align tick-for-tick; ``window`` selects the
    half-open tick range [t_c, t_d), so the divisor equals the number of
    samples.
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape or est.ndim != 2 or est.shape[1] != 2:
        raise ValueError("estimates and truth must both be (T, 2) arrays")
    if window is not None:
        t_c, t_d = window
        if not 0 <= t_c < t_d <= est.shape[0]:
            raise ValueError(f"window ({t_c}, {t_d}) outside [0, {est.shape[0]}]")
        est = est[t_c:t_d]
        tru = tru[t_c:t_d]
    if est.shape[0] == 0:
        raise ValueError("empty evaluation window")
    errors = np.hypot(est[:, 0] - tru[:, 0], est[:, 1] - tru[:, 1])
    return float(np.sqrt(np.mean(errors**2)))


def error_cdf(
    errors: Sequence[float], levels: Sequence[float]
) -> list[tuple[float, float]]:
    """Empirical P(error <= level) for each requested level."""
    err = np.asarray(errors, dtype=float).ravel()
    if err.size == 0:
        raise ValueError("no errors to summarise")
    counts = np.count_nonzero(err <= np.asarray(levels, dtype=float)[:, None], axis=1)
    return [(float(l), n / err.size) for l, n in zip(levels, counts.tolist())]


# ------------------------------------------------------------ trajectory io

TRAJECTORY_HEADER = ["tick", "est_x", "est_y", "truth_x", "truth_y", "error_m"]


def write_trajectory(path, rows: Sequence[tuple]) -> None:
    """Rows of (tick, est_x, est_y, truth_x, truth_y, error_m)."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRAJECTORY_HEADER)
        for tick, ex, ey, tx, ty, err in rows:
            writer.writerow([tick, repr(float(ex)), repr(float(ey)),
                             repr(float(tx)), repr(float(ty)), repr(float(err))])
