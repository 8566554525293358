"""RF trace simulator for tomographic link networks.

Received power composes transmit power, directional antenna gains,
log-distance path loss, wall shadowing, person shadowing, a static
per-stream fading draw, and per-packet noise. Reception is Bernoulli with a
sigmoid probability in the link margin.

Sensitivity phenomenology
-------------------------
Three stream-level couplings make directional pattern pairs react to an
obstruction more strongly and more reliably than omni links, which is the
point of measuring with directional antennas:

* response factor 1 / (1 - rho * D): the shadow of a person on the direct
  path is diluted by multipath; the higher the combined directivity D of a
  stream, the smaller its residual fading and the fuller its response.
* deep-fade damping clip(1 + F / fade_floor_db, 0, 1): a stream whose static
  fading draw F puts it in a deep fade barely reacts when the path is
  blocked (missed detections on omni links).
* deep-fade agitation: the same streams pick up motion noise whenever the
  person moves anywhere near the link (false alarms on omni links).

All three collapse to the plain additive model when sigma_f is zero, and the
response factor is exactly 1 for omni streams.

Structure
---------
`simulate` works at three levels. Per link it computes scalars: path loss,
wall loss, the shadow scale, and the gain of each of the six antenna
directions at either end. Per stream it only seeds the stream's own
generator and draws from it; the generators' seed states are computed for
all streams at once beforehand. The physics (fading, damping, shadow,
agitation, drift and reception) runs as arrays over groups of whole links,
at most `GROUP_STREAMS` streams at a time. Every value equals that of a
one-stream loop bit for bit; `tests/sim_oracles.py` keeps that loop.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .geometry import (
    NUM_DIRECTIONS,
    NetworkLayout,
    NodeSpec,
    VoxelGrid,
    angle_to_link,
    build_grid,
    ellipse_contains,
    segments_intersect,
)
from .linkstats import MODES, VALID_CHANNELS, RssTrace, stream_kinds

DEFAULT_CHANNELS = (11, 15, 18, 21)

# Streams per group in `simulate`: whole links are simulated together up to
# this many streams, so the per-tick drift recursion runs once per group
# while the group's temporaries stay small next to the trace itself.
GROUP_STREAMS = 256

# Scenario seeds and node ids are 32-bit: each is one word of a stream's
# SeedSequence entropy (seed, tx, rx, kind code).
SEED_LIMIT = 2**32

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_WORD = 0xFFFFFFFF


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int.
    return isinstance(value, int) and not isinstance(value, bool)


class ScenarioError(ValueError):
    """Scenario description is inconsistent or out of range."""


def _number(value, name: str, error=ScenarioError):
    """A finite JSON number, int or float but not bool, returned as given."""
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    ):
        return value
    raise error(f"{name} must be a finite number, got {value!r}")


def _check_fields(config, section: str, error) -> None:
    """Int fields hold ints and float fields finite numbers, as in a JSON
    file; the first field that does not is an `error` naming it."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and not _is_int(value):
            raise error(f"{section} {f.name} must be an integer, got {value!r}")
        if f.type == "float":
            _number(value, f"{section} {f.name}", error)


@dataclass(frozen=True)
class AntennaGainModel:
    """Raised-cosine directional gain between g_max (boresight) and g_min."""

    directional: bool = True
    g_max_db: float = 7.0
    g_min_db: float = -4.0

    def __post_init__(self) -> None:
        _check_fields(self, "AntennaGainModel", ValueError)
        if self.directional and self.g_max_db < self.g_min_db:
            raise ValueError("g_max_db must be >= g_min_db")

    def gain(self, angle: float) -> float:
        if not self.directional:
            return 0.0
        half = (1.0 + math.cos(angle)) / 2.0
        return self.g_min_db + (self.g_max_db - self.g_min_db) * half

    def directivity(self, g_tx: float, g_rx: float) -> float:
        """Combined directivity normalised to [0, 1]; 0 for omni."""
        if not self.directional or self.g_max_db == self.g_min_db:
            return 0.0
        return (g_tx + g_rx - 2.0 * self.g_min_db) / (
            2.0 * (self.g_max_db - self.g_min_db)
        )


@dataclass(frozen=True)
class PropagationParams:
    """Channel model knobs. Distances in metres, powers in dB(m)."""

    reference_loss_db: float = 40.0
    path_loss_exponent: float = 2.0
    tx_power_dbm: float = 0.0
    wall_loss_db: float = 5.0
    person_loss_db: float = 5.0
    fading_std_db: float = 6.0
    fading_directivity_coupling: float = 0.6  # rho
    noise_std_db: float = 0.7
    sensitivity_dbm: float = -90.0
    prr_slope: float = 1.0
    fade_floor_db: float = 9.0
    agitation_std_db: float = 1.5
    agitation_lambda_m: float = 3.0
    agitation_directivity_gain: float = 0.0
    person_lambda_m: float = 0.5
    drift_std_db: float = 0.0
    drift_corr: float = 0.97  # per-tick AR(1) memory of the drift
    wall_shadow_factor: float = 1.0  # person mean-shadow scaling per wall crossed
    gain_model: AntennaGainModel = AntennaGainModel()

    def __post_init__(self) -> None:
        _check_fields(self, "PropagationParams", ValueError)
        if self.path_loss_exponent < 1.0:
            raise ValueError("path_loss_exponent must be >= 1")
        if min(self.fading_std_db, self.noise_std_db, self.drift_std_db,
               self.agitation_std_db) < 0:
            raise ValueError("noise scales must be >= 0")
        if not 0.0 <= self.fading_directivity_coupling <= 1.0:
            raise ValueError("fading_directivity_coupling must be in [0, 1]")
        if not 0.0 <= self.drift_corr < 1.0:
            raise ValueError("drift_corr must be in [0, 1)")
        if not 0.0 <= self.wall_shadow_factor <= 1.0:
            raise ValueError("wall_shadow_factor must be in [0, 1]")
        if self.prr_slope <= 0:
            raise ValueError("prr_slope must be positive")
        if self.fade_floor_db <= 0:
            raise ValueError("fade_floor_db must be positive")
        if min(self.person_lambda_m, self.agitation_lambda_m) < 0:
            raise ValueError("ellipse excess widths must be >= 0")
        if self.agitation_directivity_gain < 0:
            raise ValueError("agitation_directivity_gain must be >= 0")


@dataclass(frozen=True)
class Wall:
    """A straight RF obstacle with a fixed crossing attenuation."""

    x1: float
    y1: float
    x2: float
    y2: float
    loss_db: float | None = None  # None -> PropagationParams.wall_loss_db

    @property
    def p1(self) -> tuple[float, float]:
        return (self.x1, self.y1)

    @property
    def p2(self) -> tuple[float, float]:
        return (self.x2, self.y2)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear waypoint path walked at constant speed."""

    waypoints: tuple[tuple[float, float], ...]
    speed: float  # metres per tick

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("trajectory needs at least one waypoint")
        if self.speed < 0:
            raise ValueError("speed must be >= 0")


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
    walked = np.minimum(speed * np.arange(num_ticks), cumulative[-1])
    i = np.minimum(np.searchsorted(cumulative, walked, side="right") - 1, len(seg) - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (walked - cumulative[i]) / seg_len[i]
    # A zero-length segment holds its start point.
    return np.where((seg_len[i] == 0.0)[:, None], points[i], points[i] + frac[:, None] * seg[i])


@dataclass(frozen=True)
class Scenario:
    """A full simulation setup: who is where, what is measured, for how long."""

    layout: NetworkLayout
    grid: VoxelGrid
    mode: str
    channels: tuple[int, ...] = DEFAULT_CHANNELS
    walls: tuple[Wall, ...] = ()
    trajectory: Trajectory | None = None
    seed: int = 0
    rounds: int = 100
    calibration_rounds: int = 40

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ScenarioError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "multichannel":
            if not self.channels:
                raise ScenarioError("multichannel scenario needs channels")
            bad = [c for c in self.channels if c not in VALID_CHANNELS]
            if bad:
                raise ScenarioError(
                    f"channels {bad} outside supported set {VALID_CHANNELS}"
                )
            if len(set(self.channels)) != len(self.channels):
                raise ScenarioError("duplicate channels")
        if not _is_int(self.seed) or not 0 <= self.seed < SEED_LIMIT:
            raise ScenarioError(f"seed must be an integer in [0, 2**32), got {self.seed!r}")
        for node in self.layout.nodes:
            if not 0 <= node.id < SEED_LIMIT:
                raise ScenarioError(f"node id must be in [0, 2**32), got {node.id!r}")
        for name in ("rounds", "calibration_rounds"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
        if self.rounds < 1 or self.calibration_rounds < 1:
            raise ScenarioError("rounds and calibration_rounds must be >= 1")
        if self.trajectory is not None:
            for point in self.trajectory.waypoints:
                if not self.grid.contains(point):
                    raise ScenarioError(
                        f"trajectory waypoint {point} leaves the area of interest"
                    )

    @property
    def total_ticks(self) -> int:
        return self.calibration_rounds + self.rounds


def reception_probability(p_rx_dbm, params: PropagationParams):
    """Sigmoid packet reception probability in the sensitivity margin."""
    x = (np.asarray(p_rx_dbm, dtype=float) - params.sensitivity_dbm) * params.prr_slope
    return 1.0 / (1.0 + np.exp(-np.clip(x, -700.0, 700.0)))


def _kind_code(kind) -> tuple[int, int, int]:
    channel, tx_dir, rx_dir = kind
    if channel is not None:
        return (1, channel, 0)
    if tx_dir is not None:
        return (2, tx_dir, rx_dir)
    return (0, 0, 0)


def _seed_words(seed: int, links, kinds) -> np.ndarray:
    """The (streams, 6) uint32 entropy words (seed, tx, rx, kind code) of
    every stream, in trace order: by link, then kind."""
    words = np.empty((len(links), len(kinds), 6), dtype=np.uint32)
    words[..., 0] = seed
    words[..., 1:3] = np.array(links, dtype=np.uint32).reshape(-1, 1, 2)
    words[..., 3:] = np.array([_kind_code(kind) for kind in kinds], dtype=np.uint32)
    return words.reshape(-1, 6)


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row of a
    (streams, n >= 4) uint32 word array, shaped (streams, 4).

    This is numpy's algorithm run on whole columns: hash the first four
    words into the pool, cross-mix the pool, mix in the remaining words,
    then hash the pool out into eight words, read as four little-endian
    uint64s. The hash constants do not depend on the data, so they are
    stepped as Python ints.
    """
    words = np.asarray(words, dtype=np.uint32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _WORD
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(words[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, words.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))

    state = np.empty((words.shape[0], 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _WORD
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state[:, 0::2].astype(np.uint64) | (state[:, 1::2].astype(np.uint64) << np.uint64(32))


@functools.cache
def _stream_generators():
    """The function from a `_seed_states` row to its stream's generator,
    ``Generator(PCG64(...))`` in the state that SeedSequence seeding gives.

    numpy.random is imported on the first call, so that importing rti does
    not load it.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        """Hands PCG64 a precomputed ``generate_state(4, np.uint64)``."""

        __slots__ = ("state",)

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return lambda state: Generator(PCG64(SeedState(state)))


def _ou_block(eps: np.ndarray, std: float, corr: float) -> np.ndarray:
    """Stationary mean-reverting (AR(1)) series with the given marginal std,
    one per column of the (ticks, streams) standard-normal draws ``eps``.

    The recursion runs once per tick across all columns, so each column gets
    exactly the float operations of a one-stream loop.
    """
    if std == 0.0 or eps.shape[0] == 0:
        return np.zeros(eps.shape)
    out = eps * (std * math.sqrt(1.0 - corr * corr))
    out[0] = std * eps[0]
    for prev, row in zip(out, out[1:]):
        row += corr * prev
    return out


def simulate(scenario: Scenario, params: PropagationParams) -> tuple[RssTrace, np.ndarray]:
    """Run the TDMA schedule and return (trace, truth).

    Ticks 0..calibration_rounds-1 observe an empty area; the person then
    walks the trajectory for the remaining `rounds` ticks. `truth` holds the
    person's position per tracking tick, shaped (rounds, 2); it is empty when
    the scenario has no trajectory.

    Every stream attempts one packet per tick. The trace's streams are
    ordered by link, then by the mode's `stream_kinds`.

    Each stream draws from its own generator, seeded by (seed, tx, rx, kind
    code), so its values do not depend on which other streams are simulated.
    The static fading draw of a stream depends only on (seed, stream), so
    calibration and tracking see the same propagation environment.

    The physics runs on groups of whole links, up to `GROUP_STREAMS` streams
    at a time, each stream one column of (ticks, streams) arrays.
    """
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

    directional = scenario.mode == "directional"
    model = params.gain_model if directional else AntennaGainModel(directional=False)
    kinds = stream_kinds(scenario.mode, scenario.channels)
    num_kinds = len(kinds)
    num_links = layout.num_links

    # Per-tick, per-link obstruction masks shared by all streams of the link.
    in_person = np.zeros((total, num_links), dtype=bool)
    in_wide = np.zeros((total, num_links), dtype=bool)
    if positions is not None:
        in_person[cal:] = obstructed_mask(layout, positions, params.person_lambda_m)
        in_wide[cal:] = obstructed_mask(layout, positions, params.agitation_lambda_m)

    # Per link, scalars: path loss, wall loss, the person-shadow scale, and
    # the gain of each antenna direction towards the other end, spread over
    # the link's streams as (links, kinds) tables.
    path_loss = np.empty((num_links, 1))
    wall_loss = np.empty((num_links, 1))
    shadow_scale = np.empty((num_links, 1))
    g_tx = np.zeros((num_links, num_kinds))
    g_rx = np.zeros((num_links, num_kinds))
    directions = range(1, NUM_DIRECTIONS + 1)
    for link, (tx_id, rx_id) in enumerate(layout.links):
        tx = layout.node(tx_id)
        rx = layout.node(rx_id)
        d = layout.link_distance(tx_id, rx_id)
        path_loss[link] = params.reference_loss_db + 10.0 * params.path_loss_exponent * math.log10(d)
        wall_total = 0.0
        walls_crossed = 0
        for wall in scenario.walls:
            if segments_intersect(tx.position, rx.position, wall.p1, wall.p2):
                wall_total += wall.loss_db if wall.loss_db is not None else params.wall_loss_db
                walls_crossed += 1
        wall_loss[link] = wall_total
        # A person next to a wall shifts a through-wall link's mean level far
        # less than a clear link's, yet their motion still agitates it.
        shadow_scale[link] = params.wall_shadow_factor ** walls_crossed
        if directional:
            tx_gains = [model.gain(angle_to_link(tx, dn, rx)) for dn in directions]
            rx_gains = [model.gain(angle_to_link(rx, dn, tx)) for dn in directions]
            g_tx[link] = [tx_gains[tx_dir - 1] for _, tx_dir, _ in kinds]
            g_rx[link] = [rx_gains[rx_dir - 1] for _, _, rx_dir in kinds]

    rho = params.fading_directivity_coupling
    streams = tuple((*link, *kind) for link in layout.links for kind in kinds)
    rssi = np.empty((total, num_links * num_kinds))
    states = _seed_states(_seed_words(scenario.seed, layout.links, kinds))
    generator = _stream_generators()
    per_group = max(1, GROUP_STREAMS // num_kinds)
    for lo in range(0, num_links, per_group):
        hi = min(lo + per_group, num_links)
        # Each stream keeps its own generator and draw order: the fading
        # draw, the noise, agitation and drift series, then the uniforms.
        draws = np.empty(((hi - lo) * num_kinds, 1 + 3 * total))
        uniforms = np.empty(((hi - lo) * num_kinds, total))
        for s, state in enumerate(states[lo * num_kinds:hi * num_kinds]):
            rng = generator(state)
            rng.standard_normal(out=draws[s])  # the values of normal(0, 1)
            rng.random(out=uniforms[s])
        noise = draws[:, 1:1 + total].T
        agit_draws = draws[:, 1 + total:1 + 2 * total].T
        eps = draws[:, 1 + 2 * total:].T

        # Stream constants as (links, kinds) arrays, with the float
        # operations of a one-stream loop.
        gt, gr = g_tx[lo:hi], g_rx[lo:hi]
        directivity = model.directivity(gt, gr)
        sigma_eff = params.fading_std_db * (1.0 - rho * directivity)
        fade = draws[:, 0].reshape(hi - lo, num_kinds) * sigma_eff
        response = 1.0 / (1.0 - rho * directivity)
        damping = np.minimum(1.0, np.maximum(0.0, 1.0 + fade / params.fade_floor_db))
        shadow = params.person_loss_db * response * damping * shadow_scale[lo:hi]
        # Deep-fade streams pick up motion noise; directional streams
        # flutter in proportion to how much of their energy rides the
        # direct path (response - 1 is zero for omni).
        agitation = params.agitation_std_db * (
            (1.0 - damping)
            + params.agitation_directivity_gain * (response - 1.0)
        )
        if params.fading_std_db == 0.0:
            agitation = np.zeros_like(damping)
        gains = params.tx_power_dbm + gt + gr - path_loss[lo:hi] - wall_loss[lo:hi] + fade

        p_rx = np.repeat(gains.reshape(1, -1), total, axis=0)
        p_rx -= shadow.ravel() * np.repeat(in_person[:, lo:hi], num_kinds, axis=1)
        p_rx += agitation.ravel() * agit_draws * np.repeat(in_wide[:, lo:hi], num_kinds, axis=1)
        p_rx += noise * params.noise_std_db + _ou_block(
            eps, params.drift_std_db, params.drift_corr
        )
        received = uniforms.T < reception_probability(p_rx, params)
        rssi[:, lo * num_kinds:hi * num_kinds] = np.where(received, p_rx, np.nan)

    return RssTrace(scenario.mode, params.tx_power_dbm, streams, rssi), truth


def obstructed_mask(
    layout: NetworkLayout,
    truth: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Ground-truth obstruction per (tracking tick, link): is the person's
    true position inside the link's ellipse, as `ellipse_contains` decides.

    All cells are computed at once. `np.hypot` and `math.hypot` can differ
    in the last bit, so any cell whose margin lies within a guard band of
    the ellipse boundary is decided again by `ellipse_contains` itself.
    """
    truth = np.asarray(truth, dtype=float)
    p1 = np.array([layout.node(tx_id).position for tx_id, _ in layout.links])
    p2 = np.array([layout.node(rx_id).position for _, rx_id in layout.links])
    x, y = truth[:, 0, None], truth[:, 1, None]
    reach = np.hypot(p2[:, 0] - p1[:, 0], p2[:, 1] - p1[:, 1]) + lam
    margin = reach - (
        np.hypot(x - p1[:, 0], y - p1[:, 1]) + np.hypot(x - p2[:, 0], y - p2[:, 1])
    )
    mask = margin > 0.0
    near = np.abs(margin) <= 1e-9 * (1.0 + reach)
    for t, i in zip(*np.nonzero(near)):
        mask[t, i] = ellipse_contains(p1[i], p2[i], truth[t], lam)
    return mask


# ------------------------------------------------------------ file format


def scenario_to_dict(scenario: Scenario, params: PropagationParams) -> dict:
    return {
        "mode": scenario.mode,
        "channels": list(scenario.channels),
        "grid": {
            "origin": list(scenario.grid.origin),
            "width_m": scenario.grid.width_m,
            "height_m": scenario.grid.height_m,
            "voxel_width": scenario.grid.voxel_width,
        },
        "nodes": [
            {
                "id": n.id,
                "x": n.x,
                "y": n.y,
                "bearing_deg": math.degrees(n.antenna_zero_bearing),
            }
            for n in scenario.layout.nodes
        ],
        "walls": [
            {
                "from": [w.x1, w.y1],
                "to": [w.x2, w.y2],
                **({"loss_db": w.loss_db} if w.loss_db is not None else {}),
            }
            for w in scenario.walls
        ],
        "trajectory": (
            {
                "waypoints": [list(p) for p in scenario.trajectory.waypoints],
                "speed": scenario.trajectory.speed,
            }
            if scenario.trajectory is not None
            else None
        ),
        "seed": scenario.seed,
        "rounds": scenario.rounds,
        "calibration_rounds": scenario.calibration_rounds,
        "params": {name: getattr(params, name) for name in _PARAM_FIELDS},
    }


def read_json_object(path, what: str, error) -> dict:
    """The JSON object in the file at ``path``, whose role ``what`` names.

    A file that is missing, unreadable, not UTF-8, not valid JSON, not an
    object or repeats a key in an object raises ``error`` naming the path.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except (OSError, UnicodeError) as exc:
        raise error(f"{path}: cannot read {what} file ({exc})") from exc

    def unique_keys(pairs):
        data = {}
        for key, value in pairs:
            if key in data:
                raise error(f"{path}: key {key!r} appears more than once in one object")
            data[key] = value
        return data
    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return data


def _object(value, name: str, keys, error) -> dict:
    """``value`` if it is a JSON object whose every key is one of ``keys``."""
    if not isinstance(value, dict):
        raise error(f"{name} must be an object, got {value!r}")
    for key in value:
        if key not in keys:
            raise error(f"{name} has unknown field {key!r}")
    return value


def _json_fields(cls) -> dict[str, str]:
    """A dataclass's float, int and str fields: name -> annotation."""
    return {f.name: f.type for f in fields(cls) if f.type in ("float", "int", "str")}


def _section(cls, spec, name: str, error):
    """``cls`` built from the JSON object ``spec``, every value type-checked.

    A float field takes a finite JSON number (an int is accepted), an int
    field a JSON int but not a bool, and a str field a string; values are
    passed on as given. A plain ValueError from the constructor is re-raised
    as ``error`` on ``name``.
    """
    types = _json_fields(cls)
    for key, value in _object(spec, name, types, error).items():
        label = f"{name}.{key}"
        if types[key] == "float":
            _number(value, label, error)
        elif types[key] == "int" and not _is_int(value):
            raise error(f"{label} must be an integer, got {value!r}")
        elif types[key] == "str" and not isinstance(value, str):
            raise error(f"{label} must be a string, got {value!r}")
    try:
        return cls(**spec)
    except ValueError as exc:
        if type(exc) is not ValueError:  # the constructor's own error names the field
            raise
        raise error(f"{name}: {exc}") from exc


# The propagation parameters a scenario file holds: every numeric field.
_PARAM_FIELDS = tuple(_json_fields(PropagationParams))


def _point(value, name: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError(f"{name} must be a pair of numbers, got {value!r}")
    return (float(_number(value[0], f"{name}[0]")), float(_number(value[1], f"{name}[1]")))


def _objects(value, name: str, keys) -> list[dict]:
    if not isinstance(value, list):
        raise ScenarioError(f"{name} must be a list of objects, got {value!r}")
    return [_object(item, f"{name}[{i}]", keys, ScenarioError) for i, item in enumerate(value)]


def _checked(name: str, build, *args, **kwargs):
    """``build(...)``, its ValueError re-raised as a ScenarioError on ``name``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


def scenario_from_dict(data: dict) -> tuple[Scenario, PropagationParams]:
    """Scenario and parameters from a scenario file's JSON object.

    Every field is type-checked, not coerced: a number must be a JSON int
    or float, an integer a JSON int. A bad, unknown or missing field raises
    a ScenarioError that names it.
    """
    _object(
        data,
        "scenario description",
        ("mode", "channels", "grid", "nodes", "walls", "trajectory", "seed", "rounds",
         "calibration_rounds", "params"),
        ScenarioError,
    )
    try:
        grid_spec = _object(
            data["grid"], "grid", ("origin", "width_m", "height_m", "voxel_width"), ScenarioError
        )
        grid = _checked(
            "grid",
            build_grid,
            _point(grid_spec["origin"], "grid.origin"),
            *(_number(grid_spec[key], f"grid.{key}") for key in ("width_m", "height_m", "voxel_width")),
        )
        nodes = []
        for i, n in enumerate(_objects(data["nodes"], "nodes", ("id", "x", "y", "bearing_deg"))):
            if not _is_int(n["id"]):
                raise ScenarioError(f"nodes[{i}].id must be an integer, got {n['id']!r}")
            x, y = (float(_number(n[key], f"nodes[{i}].{key}")) for key in ("x", "y"))
            bearing = _number(n.get("bearing_deg", 0.0), f"nodes[{i}].bearing_deg")
            nodes.append(NodeSpec(n["id"], x, y, math.radians(bearing)))
        walls = tuple(
            Wall(
                *_point(w["from"], f"walls[{i}].from"),
                *_point(w["to"], f"walls[{i}].to"),
                float(_number(w["loss_db"], f"walls[{i}].loss_db")) if "loss_db" in w else None,
            )
            for i, w in enumerate(_objects(data.get("walls", []), "walls", ("from", "to", "loss_db")))
        )
        traj_spec = data.get("trajectory")
        trajectory = None
        if traj_spec is not None:
            _object(traj_spec, "trajectory", ("waypoints", "speed"), ScenarioError)
            waypoints = traj_spec["waypoints"]
            if not isinstance(waypoints, list):
                raise ScenarioError(
                    f"trajectory.waypoints must be a list of points, got {waypoints!r}"
                )
            trajectory = _checked(
                "trajectory",
                Trajectory,
                tuple(_point(p, f"trajectory.waypoints[{i}]") for i, p in enumerate(waypoints)),
                float(_number(traj_spec["speed"], "trajectory.speed")),
            )
        params = _section(PropagationParams, data.get("params", {}), "params", ScenarioError)
        channels = data.get("channels", list(DEFAULT_CHANNELS))
        if not isinstance(channels, list) or not all(_is_int(c) for c in channels):
            raise ScenarioError(f"channels must be a list of integers, got {channels!r}")
        scenario = Scenario(
            layout=_checked("nodes", NetworkLayout, nodes),
            grid=grid,
            mode=data["mode"],
            channels=tuple(channels),
            walls=walls,
            trajectory=trajectory,
            seed=data.get("seed", 0),
            rounds=data["rounds"],
            calibration_rounds=data["calibration_rounds"],
        )
    except KeyError as exc:
        raise ScenarioError(f"scenario description missing field: {exc}") from exc
    return scenario, params


def read_scenario_file(path) -> tuple[Scenario, PropagationParams]:
    return scenario_from_dict(read_json_object(path, "scenario", ScenarioError))


def write_scenario_file(path, scenario: Scenario, params: PropagationParams) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(scenario_to_dict(scenario, params), fh, indent=2, sort_keys=True)
        fh.write("\n")
