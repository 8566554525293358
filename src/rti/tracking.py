"""Target tracking over image argmax measurements and error metrics."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .traceio import write_grid


class InvalidStateError(ValueError):
    """Track state covariance is not usable (asymmetric or non-positive)."""


@dataclass(frozen=True)
class KalmanParams:
    """Constant-velocity filter noise levels: q drives the white-acceleration
    process noise, r the position measurement noise. One step is one tick."""

    q: float = 0.05
    r: float = 0.5

    def __post_init__(self) -> None:
        for name, value in (("q", self.q), ("r", self.r)):
            # As in a JSON file: a finite int or float, but not a bool.
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and abs(value) <= float(np.finfo(float).max)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.q < 0 or self.r <= 0:
            raise ValueError("need q >= 0, r > 0")

    @cached_property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """(F, F.T, Q, r * I2, I4): the filter's constant matrices, built once
        per parameter set and read-only."""
        F = _transition()
        Q = _process_noise(self.q)
        matrices = (F, F.T, Q, self.r * np.eye(2), np.eye(4))
        for m in matrices:
            m.flags.writeable = False
        return matrices


def _check_covariance(cov: np.ndarray) -> None:
    if np.max(np.abs(cov - cov.T)) > 1e-9:
        raise InvalidStateError("covariance is not symmetric")
    if np.any(np.diag(cov) <= 0):
        raise InvalidStateError("covariance diagonal must be positive")


def _transition() -> np.ndarray:
    F = np.eye(4)
    F[0, 2] = 1.0
    F[1, 3] = 1.0
    return F


def _process_noise(q: float) -> np.ndarray:
    # White-noise acceleration model over one tick.
    return q * np.array(
        [
            [0.25, 0.0, 0.5, 0.0],
            [0.0, 0.25, 0.0, 0.5],
            [0.5, 0.0, 1.0, 0.0],
            [0.0, 0.5, 0.0, 1.0],
        ]
    )

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


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


@functools.lru_cache(maxsize=16)
def kalman_gains(params: KalmanParams, steps: int) -> np.ndarray:
    """The gains of the first ``steps`` updates after a track starts with
    covariance 10 I, shaped (steps, 4, 2): they do not depend on the
    measurements, so one checked, read-only sequence serves every track
    with these parameters."""
    cov = 10.0 * np.eye(4)
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
    mean = np.array([z[0, 0], z[0, 1], 0.0, 0.0])
    out = [mean[:2]]
    for zt, gain in zip(z[1:], kalman_gains(params, len(z) - 1)):
        mean = _mean_update(mean, zt, params.matrices[0], gain)
        out.append(mean[:2])
    return np.array(out)


class KalmanTracker:
    """Feeds one position measurement per tick through the filter `track`
    runs: the first starts the track at rest, each later one is a mean update
    with the next of the shared `kalman_gains`."""

    def __init__(self, params: KalmanParams = KalmanParams()):
        self.params = params
        self.mean: np.ndarray | None = None
        self.time: int | None = None
        self.steps = 0
        self.gains = np.empty((0, 4, 2))

    def update(self, measurement: Sequence[float], time: int) -> tuple[float, float]:
        """The filtered position after ``measurement`` at tick ``time``, which
        must follow the previous update's tick by one."""
        z = np.asarray(measurement, dtype=float)
        if z.shape != (2,):
            raise ValueError(f"measurement must be a 2-D position, got shape {z.shape}")
        if self.mean is None:
            self.mean = np.array([z[0], z[1], 0.0, 0.0])
        else:
            if time != self.time + 1:
                raise ValueError(f"tick {time} does not follow tick {self.time}")
            if self.steps == len(self.gains):
                self.gains = kalman_gains(self.params, max(64, 2 * len(self.gains)))
            F = self.params.matrices[0]
            self.mean = _mean_update(self.mean, z, F, self.gains[self.steps])
            self.steps += 1
        self.time = time
        return (float(self.mean[0]), float(self.mean[1]))


# ---------------------------------------------------------------- metrics


def rmse(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Root-mean-square position error of (T, 2) ``estimates`` against
    ``truth``, aligned tick for tick."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape or est.ndim != 2 or est.shape[1] != 2:
        raise ValueError("estimates and truth must both be (T, 2) arrays")
    if est.shape[0] == 0:
        raise ValueError("no positions to compare")
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


def write_trajectory(path, values: np.ndarray, first_tick: int = 0) -> None:
    """`values` is (T, 5): est_x, est_y, truth_x, truth_y and error_m per
    tick; row i is stamped with tick first_tick + i."""
    with open(path, "wb") as fh:
        fh.write(",".join(TRAJECTORY_HEADER).encode() + b"\n")
        fields = ["tick"] + [b",", ("", "nan"), "value"] * 5 + [b"\n"]
        write_grid(fh, np.asarray(values, dtype=float)[:, None], fields, first_tick)
