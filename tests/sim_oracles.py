"""Per-tick and per-stream reference loops for the simulator.

`rti.simulator` computes the ground-truth obstruction mask for every
(tick, link) at once. It takes each link's antenna gains from per-link
tables, draws each stream's series in two calls, and runs the physics and
the drift recursion over groups of whole links. These loops are the forms
they replaced, kept as oracles: one scalar `ellipse_contains` per cell, and
per stream its own gains, a generator seeded from the int list of the
seeding contract, five draw calls and a tick-by-tick drift.
`generate_trajectory` walks the path one tick at a time. The shipped code
must reproduce them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from rti.geometry import (
    NUM_DIRECTIONS,
    PatternPair,
    angle_to_link,
    ellipse_contains,
    segments_intersect,
)
from rti.simulator import Trajectory, reception_probability
from stat_oracles import trace_from_keys


def generate_trajectory(
    waypoints, speed: float, num_ticks: int
) -> np.ndarray:
    """Positions at ticks 0..num_ticks-1 along the waypoint path.

    The walker moves at constant speed along the polyline and holds the last
    waypoint once the path is exhausted.
    """
    traj = Trajectory(tuple((float(x), float(y)) for x, y in waypoints), speed)
    if num_ticks < 1:
        raise ValueError("num_ticks must be >= 1")
    points = np.asarray(traj.waypoints, dtype=float)
    if len(points) == 1 or speed == 0.0:
        return np.tile(points[0], (num_ticks, 1))
    seg = np.diff(points, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cumulative = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = float(cumulative[-1])
    out = np.empty((num_ticks, 2))
    for t in range(num_ticks):
        s = min(speed * t, total)
        i = int(np.searchsorted(cumulative, s, side="right") - 1)
        i = min(i, len(seg) - 1)
        if seg_len[i] == 0.0:
            out[t] = points[i]
        else:
            frac = (s - cumulative[i]) / seg_len[i]
            out[t] = points[i] + frac * seg[i]
    return out


def stream_kinds(scenario):
    """Each link's (channel, pattern pair) kinds, in trace order."""
    if scenario.mode == "omni":
        return [(None, None)]
    if scenario.mode == "multichannel":
        return [(ch, None) for ch in sorted(scenario.channels)]
    directions = range(1, NUM_DIRECTIONS + 1)
    return [(None, PatternPair(t, r)) for t in directions for r in directions]


def obstructed_mask(layout, truth, lam):
    """One scalar `ellipse_contains` call per (tick, link)."""
    ticks = truth.shape[0]
    mask = np.zeros((ticks, layout.num_links), dtype=bool)
    for i, (tx_id, rx_id) in enumerate(layout.links):
        tx = layout.node(tx_id)
        rx = layout.node(rx_id)
        for t in range(ticks):
            mask[t, i] = ellipse_contains(tx.position, rx.position, truth[t], lam)
    return mask


def stream_rng(seed, tx, rx, kind):
    """A stream's generator as the seeding contract states it: the
    SeedSequence of the int list (seed, tx, rx, kind code)."""
    channel, pair = kind
    if channel is not None:
        code = (1, channel, 0)
    elif pair is not None:
        code = (2, pair.tx_direction, pair.rx_direction)
    else:
        code = (0, 0, 0)
    return np.random.default_rng(np.random.SeedSequence([seed, tx, rx, *code]))


def ou_series(eps, std, corr):
    """One stream's AR(1) drift, one numpy-scalar step per tick, from its
    standard-normal draws ``eps``."""
    n = len(eps)
    if std == 0.0 or n == 0:
        return np.zeros(n)
    out = np.empty(n)
    out[0] = std * eps[0]
    sigma_inc = std * math.sqrt(1.0 - corr * corr)
    for t in range(1, n):
        out[t] = corr * out[t - 1] + sigma_inc * eps[t]
    return out


def ou_block(eps, std, corr):
    """`ou_series` on each column of a (ticks, streams) block of draws."""
    out = np.zeros(eps.shape)
    for k in range(eps.shape[1]):
        out[:, k] = ou_series(eps[:, k], std, corr)
    return out


def simulate(scenario, params):
    """The simulator as one loop over streams, each vectorised over ticks."""
    layout = scenario.layout
    total = scenario.total_ticks
    cal = scenario.calibration_rounds
    if scenario.trajectory is not None:
        positions = generate_trajectory(
            scenario.trajectory.waypoints, scenario.trajectory.speed, scenario.rounds
        )
        truth = positions.copy()
    else:
        positions = None
        truth = np.empty((0, 2))

    in_person = np.zeros((total, layout.num_links), dtype=bool)
    in_wide = np.zeros((total, layout.num_links), dtype=bool)
    if positions is not None:
        in_person[cal:] = obstructed_mask(layout, positions, params.person_lambda_m)
        in_wide[cal:] = obstructed_mask(layout, positions, params.agitation_lambda_m)

    rho = params.fading_directivity_coupling
    streams = []
    columns = []
    for link, (tx_id, rx_id) in enumerate(layout.links):
        tx = layout.node(tx_id)
        rx = layout.node(rx_id)
        d = layout.link_distance(tx_id, rx_id)
        path_loss = params.reference_loss_db + 10.0 * params.path_loss_exponent * math.log10(d)
        wall_loss = 0.0
        walls_crossed = 0
        for wall in scenario.walls:
            if segments_intersect(tx.position, rx.position, wall.p1, wall.p2):
                wall_loss += wall.loss_db if wall.loss_db is not None else params.wall_loss_db
                walls_crossed += 1
        shadow_scale = params.wall_shadow_factor ** walls_crossed
        for kind in stream_kinds(scenario):
            channel, pair = kind
            if pair is not None:
                g_tx = params.gain(angle_to_link(tx, pair.tx_direction, rx))
                g_rx = params.gain(angle_to_link(rx, pair.rx_direction, tx))
                directivity = params.directivity(g_tx, g_rx)
            else:
                g_tx = g_rx = directivity = 0.0
            sigma_eff = params.fading_std_db * (1.0 - rho * directivity)
            rng = stream_rng(scenario.seed, tx_id, rx_id, kind)
            fade = rng.normal(0.0, 1.0) * sigma_eff
            noise = rng.normal(0.0, 1.0, total) * params.noise_std_db
            agit_draws = rng.normal(0.0, 1.0, total)
            drift = ou_series(
                rng.normal(0.0, 1.0, total), params.drift_std_db, params.drift_corr
            )
            uniforms = rng.random(total)

            response = 1.0 / (1.0 - rho * directivity)
            damping = min(1.0, max(0.0, 1.0 + fade / params.fade_floor_db))
            shadow = params.person_loss_db * response * damping * shadow_scale
            agitation = params.agitation_std_db * (
                (1.0 - damping)
                + params.agitation_directivity_gain * (response - 1.0)
            )
            if params.fading_std_db == 0.0:
                agitation = 0.0

            p_rx = np.full(total, params.tx_power_dbm + g_tx + g_rx - path_loss - wall_loss + fade)
            p_rx -= shadow * in_person[:, link]
            p_rx += agitation * agit_draws * in_wide[:, link]
            p_rx += noise + drift
            received = uniforms < reception_probability(p_rx, params)
            streams.append((tx_id, rx_id, channel, *(pair or (None, None))))
            columns.append(np.where(received, p_rx, np.nan))

    rssi = np.stack(columns, axis=1)
    return trace_from_keys(scenario.mode, params.tx_power_dbm, streams, rssi), truth
