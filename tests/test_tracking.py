import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rti.tracking import (
    _H,
    InvalidStateError,
    KalmanParams,
    KalmanTracker,
    error_cdf,
    kalman_gains,
    rmse,
    track,
    write_trajectory,
    _check_covariance,
    _covariance_update,
    _process_noise,
    _transition,
)
from api_oracles import read_trajectory
from stat_oracles import error_cdf_loop


class ReferenceFilter:
    """Independent textbook constant-velocity filter (explicit inverses,
    Joseph-form covariance update)."""

    def __init__(self, z0, q, r, dt=1.0):
        self.x = np.array([z0[0], z0[1], 0.0, 0.0])
        self.P = np.eye(4) * 10.0
        self.F = np.array(
            [[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float
        )
        self.Q = q * np.array(
            [
                [dt**4 / 4, 0, dt**3 / 2, 0],
                [0, dt**4 / 4, 0, dt**3 / 2],
                [dt**3 / 2, 0, dt**2, 0],
                [0, dt**3 / 2, 0, dt**2],
            ]
        )
        self.H = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
        self.R = r * np.eye(2)

    def step(self, z):
        x = self.F @ self.x
        P = self.F @ self.P @ self.F.T + self.Q
        y = np.asarray(z) - self.H @ x
        S = self.H @ P @ self.H.T + self.R
        self.K = K = P @ self.H.T @ np.linalg.inv(S)
        self.x = x + K @ y
        ImKH = np.eye(4) - K @ self.H
        self.P = ImKH @ P @ ImKH.T + K @ self.R @ K.T  # Joseph form
        return self.x[:2].copy()


# ----------------------------------------------------------------- kalman


def test_first_update_starts_the_track_at_rest():
    tracker = KalmanTracker()
    assert tracker.update((2.0, 3.0), time=5) == (2.0, 3.0)
    assert np.array_equal(tracker.mean, [2.0, 3.0, 0.0, 0.0])
    assert tracker.steps == 0


def test_static_measurement_convergence():
    tracker = KalmanTracker(KalmanParams(q=0.0, r=1e-9))
    tracker.update((0.0, 0.0), time=0)
    target = (4.0, -2.0)
    for t in range(1, 51):
        position = tracker.update(target, time=t)
    assert position[0] == pytest.approx(target[0], abs=1e-6)
    assert position[1] == pytest.approx(target[1], abs=1e-6)


def test_huge_r_ignores_measurements():
    tracker = KalmanTracker(KalmanParams(q=0.01, r=1e12))
    tracker.update((1.0, 1.0), time=0)
    rng = np.random.default_rng(7)
    for t in range(1, 21):
        position = tracker.update(rng.normal(50.0, 1.0, size=2), time=t)
    # Prediction from a zero-velocity start stays near the initial position.
    assert abs(position[0] - 1.0) < 0.1
    assert abs(position[1] - 1.0) < 0.1


def test_matches_reference_filter():
    rng = np.random.default_rng(11)
    z0 = rng.normal(0, 1, 2)
    params = KalmanParams(q=0.05, r=0.5)
    ref = ReferenceFilter(z0, q=params.q, r=params.r)
    tracker = KalmanTracker(params)
    tracker.update(z0, time=0)
    for t in range(1, 101):
        z = rng.normal(0, 1, 2) + np.array([3.0, -1.0])
        expected = ref.step(z)
        position = tracker.update(z, time=t)
        assert np.max(np.abs(np.array(position) - expected)) < 1e-9
        assert np.max(np.abs(tracker.gains[t - 1] - ref.K)) < 1e-9


def test_covariance_stays_spd_along_run():
    cov = 10.0 * np.eye(4)
    params = KalmanParams()
    for _ in range(200):
        cov, _ = _covariance_update(cov, params)
        assert np.max(np.abs(cov - cov.T)) <= 1e-9
        np.linalg.cholesky(cov)  # raises if not positive definite


def kalman_step_rebuilding(state, measurement, params):
    """Oracle: one (mean, cov) predict/update cycle that rebuilds its
    constant matrices and its covariance and gain on every call."""
    mean, cov = state
    z = np.asarray(measurement, dtype=float)
    F = _transition()
    mean = F @ mean
    cov = F @ cov @ F.T + _process_noise(params.q)
    innovation = z - _H @ mean
    S = _H @ cov @ _H.T + params.r * np.eye(2)
    K = cov @ _H.T @ np.linalg.inv(S)
    mean = mean + K @ innovation
    cov = (np.eye(4) - K @ _H) @ cov
    cov = (cov + cov.T) / 2.0
    return mean, cov


@pytest.mark.parametrize(
    "params", [KalmanParams(), KalmanParams(q=0.3, r=2.0), KalmanParams(q=0.0)]
)
def test_tracker_is_bit_identical_to_the_per_step_filter(params):
    # 300 steps take the tracker's gains through 64, 128, 256 and 512.
    rng = np.random.default_rng(17)
    z0 = rng.normal(0, 1, 2)
    tracker = KalmanTracker(params)
    assert tracker.update(z0, time=0) == tuple(z0)
    expected = (np.array([z0[0], z0[1], 0.0, 0.0]), 10.0 * np.eye(4))
    lengths = set()
    for t in range(1, 301):
        z = rng.normal(0, 2, 2)
        position = tracker.update(z, time=t)
        expected = kalman_step_rebuilding(expected, z, params)
        assert np.array_equal(position, expected[0][:2])
        assert np.array_equal(tracker.mean, expected[0])
        lengths.add(len(tracker.gains))
    assert lengths == {64, 128, 256, 512}
    assert params.matrices is params.matrices
    assert not any(m.flags.writeable for m in params.matrices)


def test_tracker_needs_consecutive_ticks():
    tracker = KalmanTracker()
    tracker.update((0.0, 0.0), time=3)
    tracker.update((0.1, 0.0), time=4)
    for bad in (4, 6, 3):
        with pytest.raises(ValueError, match=f"tick {bad} does not follow tick 4"):
            tracker.update((0.2, 0.0), time=bad)
    # A rejected update leaves the track where it was.
    assert tracker.steps == 1
    expected = track([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])[-1]
    assert np.array_equal(tracker.update((0.2, 0.0), time=5), expected)


def test_tracker_rejects_a_measurement_that_is_not_a_position():
    tracker = KalmanTracker()
    for bad in ((1.0,), (1.0, 2.0, 3.0), [[1.0, 2.0]], 1.0):
        with pytest.raises(ValueError, match="measurement must be a 2-D position"):
            tracker.update(bad, time=0)
    tracker.update((1.0, 2.0), time=0)
    with pytest.raises(ValueError, match="measurement must be a 2-D position"):
        tracker.update(np.zeros(3), time=1)
    assert tracker.steps == 0


def test_check_covariance_rejects_unusable_covariances():
    _check_covariance(10.0 * np.eye(4))
    bad_cov = np.eye(4)
    bad_cov[0, 1] = 0.5  # asymmetric
    with pytest.raises(InvalidStateError, match="not symmetric"):
        _check_covariance(bad_cov)
    neg = np.eye(4)
    neg[2, 2] = -1.0
    with pytest.raises(InvalidStateError, match="diagonal must be positive"):
        _check_covariance(neg)


def test_params_validation():
    with pytest.raises(ValueError):
        KalmanParams(q=-0.1)
    with pytest.raises(ValueError):
        KalmanParams(r=0.0)


@pytest.mark.parametrize(
    "field, value",
    [("q", math.nan), ("q", math.inf), ("r", math.nan), ("q", True), ("q", "1"), ("r", 10**400)],
)
def test_params_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got {value!r}$"):
        KalmanParams(**{field: value})


def test_tracker_smooths_noisy_measurements():
    rng = np.random.default_rng(17)
    ticks = 120
    truth = np.column_stack([np.linspace(0, 6, ticks), np.linspace(0, 3, ticks)])
    measurements = truth + rng.normal(0, 0.6, size=(ticks, 2))
    tracker = KalmanTracker(KalmanParams(q=0.05, r=0.5))
    estimates = np.array([tracker.update(m, t) for t, m in enumerate(measurements)])
    assert rmse(estimates, truth) < rmse(measurements, truth)


# ------------------------------------------------------------------ rmse


def test_rmse_zero_for_exact_estimates():
    truth = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert rmse(truth, truth) == 0.0


def test_rmse_constant_offset_is_the_offset():
    truth = np.zeros((7, 2))
    estimates = truth + np.array([1.0, 0.0])
    assert rmse(estimates, truth) == pytest.approx(1.0)


def test_rmse_mixed_errors():
    truth = np.zeros((2, 2))
    estimates = np.array([[0.0, 0.0], [2.0, 0.0]])  # errors 0 and 2
    assert rmse(estimates, truth) == pytest.approx(math.sqrt(2.0))


def test_rmse_rejects_empty_input():
    with pytest.raises(ValueError, match="no positions"):
        rmse(np.zeros((0, 2)), np.zeros((0, 2)))


def test_rmse_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        rmse(np.zeros((3, 2)), np.zeros((4, 2)))


@given(st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=30))
def test_rmse_at_least_mean_error(errors):
    truth = np.zeros((len(errors), 2))
    estimates = np.column_stack([np.array(errors), np.zeros(len(errors))])
    assert rmse(estimates, truth) >= np.mean(errors) - 1e-9


# ------------------------------------------------------------------- cdf


def test_cdf_simple_counts():
    rows = error_cdf([0.1, 0.2, 0.3, 0.4], levels=[0.25])
    assert rows == [(0.25, 0.5)]


def test_cdf_reaches_one_at_max():
    errors = [0.5, 1.0, 2.0]
    rows = error_cdf(errors, levels=[2.0])
    assert rows[0][1] == 1.0


def test_cdf_matches_sort_oracle():
    rng = np.random.default_rng(19)
    errors = rng.exponential(0.8, size=200)
    levels = np.linspace(0.1, 3.0, 30)
    rows = error_cdf(errors, levels)
    sorted_err = np.sort(errors)
    for level, fraction in rows:
        expected = np.searchsorted(sorted_err, level, side="right") / errors.size
        assert fraction == pytest.approx(expected)


def test_cdf_matches_the_loop_oracle():
    rng = np.random.default_rng(29)
    errors = np.round(rng.exponential(0.8, size=120), 1)
    errors[5] = np.nan
    levels = [*np.unique(errors[~np.isnan(errors)]), 0.0, 3.0, 0.35, np.inf, -1.0]
    assert error_cdf(errors, levels) == error_cdf_loop(errors, levels)
    for one in ([0.5], [np.nan]):
        assert error_cdf(one, [0.5, 0.4, 0.6]) == error_cdf_loop(one, [0.5, 0.4, 0.6])
    assert error_cdf(errors, []) == []
    with pytest.raises(ValueError, match="no errors"):
        error_cdf([], [1.0])


@given(st.lists(st.floats(min_value=0, max_value=5), min_size=1, max_size=50))
def test_cdf_monotone_in_level(errors):
    levels = [0.5, 1.0, 1.5, 2.0, 2.5]
    rows = error_cdf(errors, levels)
    fractions = [f for _, f in rows]
    assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))


# --------------------------------------------------------------- file io


def test_trajectory_round_trip(tmp_path):
    rows = [
        (0, 1.0, 2.0, 1.1, 2.1, math.hypot(0.1, 0.1)),
        (1, 1.5, 2.5, 1.4, 2.4, math.hypot(0.1, 0.1)),
    ]
    path = tmp_path / "trajectory.csv"
    write_trajectory(path, np.array(rows)[:, 1:])
    back = read_trajectory(path)
    assert len(back) == 2
    for original, parsed in zip(rows, back):
        assert parsed[0] == original[0]
        assert parsed[1:] == pytest.approx(original[1:])


def test_trajectory_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("tick,x,y\n0,1,2\n")
    with pytest.raises(ValueError):
        read_trajectory(path)


# ------------------------------------------------------- batch tracking


def test_track_is_bit_identical_to_the_online_tracker():
    rng = np.random.default_rng(43)
    for q, r in ((0.05, 0.5), (0.4, 0.9), (0.0, 2.0)):
        params = KalmanParams(q=q, r=r)
        measurements = rng.normal(0.0, 2.0, (80, 2))
        tracker = KalmanTracker(params)
        online = np.array([tracker.update(z, time=t) for t, z in enumerate(measurements)])
        assert np.array_equal(track(measurements, params), online)
        assert np.array_equal(track(measurements[:1], params), measurements[:1])


def test_kalman_gains_are_shared_and_read_only():
    gains = kalman_gains(KalmanParams(q=0.3, r=0.7), 50)
    assert gains.shape == (50, 4, 2)
    assert kalman_gains(KalmanParams(q=0.3, r=0.7), 50) is gains
    assert not gains.flags.writeable
    # The first gains continue into a longer sequence unchanged.
    assert np.array_equal(kalman_gains(KalmanParams(q=0.3, r=0.7), 80)[:50], gains)


def test_track_rejects_malformed_measurements():
    for bad in (np.zeros((0, 2)), np.zeros((5, 3)), np.zeros(4)):
        with pytest.raises(ValueError, match="measurements must be"):
            track(bad)
