"""Simulator tests.

The propagation trivia (pure path loss, person shadow, boresight gain) are
asserted against hand-computed dB budgets. Trajectory interpolation is
checked against an independent small-step walker. Statistical laws (fading
vs directivity, channel independence, reception vs margin) use fixed seeds
and generous margins.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rti.simulator
import sim_oracles
from rti.geometry import NetworkLayout, NodeSpec, PatternPair, build_grid, ellipse_contains
from rti.linkstats import stream_columns, stream_kinds
from rti.presets import los_7node, nlos_2node, nlos_7node, ring_layout
from rti.simulator import (
    AntennaGainModel,
    PropagationParams,
    Scenario,
    ScenarioError,
    Trajectory,
    Wall,
    _ou_block,
    _seed_states,
    _seed_words,
    _stream_generators,
    generate_trajectory,
    obstructed_mask,
    read_scenario_file,
    reception_probability,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
    write_scenario_file,
)
from rti.traceio import write_trace_file


def walk_oracle(waypoints, speed, num_ticks, step=1e-4):
    """Independent trajectory oracle: advance along the polyline in tiny
    steps, recording the position every time a full tick of distance has
    been covered."""
    points = [np.asarray(p, dtype=float) for p in waypoints]
    positions = [points[0].copy()]
    travelled = 0.0
    next_mark = speed
    seg = 0
    pos = points[0].copy()
    while len(positions) < num_ticks and seg < len(points) - 1:
        direction = points[seg + 1] - pos
        dist = float(np.hypot(*direction))
        if dist < step:
            pos = points[seg + 1].copy()
            seg += 1
            continue
        move = min(step, dist)
        pos = pos + direction / dist * move
        travelled += move
        while travelled >= next_mark - 1e-12 and len(positions) < num_ticks:
            positions.append(pos.copy())
            next_mark += speed
    while len(positions) < num_ticks:
        positions.append(points[-1].copy())
    return np.asarray(positions)


def two_node_layout(d=1.0, y=0.5, face=False):
    """Two nodes d apart on the horizontal line at height y. With face=True
    the antennas' first directions point straight at each other."""
    b0 = 0.0 if face else 0.0
    b1 = math.pi if face else 0.0
    return NetworkLayout(
        [NodeSpec(0, 0.0, y, b0), NodeSpec(1, d, y, b1)]
    )


def quiet_params(**overrides):
    """No fading, no noise: fully deterministic power budget."""
    base = dict(fading_std_db=0.0, noise_std_db=0.0)
    base.update(overrides)
    return PropagationParams(**base)


def circle_layout(n, radius=5.0, centre=(5.0, 5.0)):
    nodes = []
    for i in range(n):
        theta = 2 * math.pi * i / n
        x = centre[0] + radius * math.cos(theta)
        y = centre[1] + radius * math.sin(theta)
        bearing = math.atan2(centre[1] - y, centre[0] - x)
        nodes.append(NodeSpec(i, x, y, bearing))
    return NetworkLayout(nodes)


UNIT_GRID = build_grid((0.0, 0.0), 1.0, 1.0, 0.2)


def column(trace, tx, rx, channel=None, pair=None):
    """RSS series of one stream, NaN where the packet was lost."""
    key = (tx, rx, channel, *(pair or (None, None)))
    return trace.rssi[:, trace.column[key]]


# ------------------------------------------------------------ antenna gain


def test_gain_trivia():
    model = AntennaGainModel()
    assert model.gain(0.0) == pytest.approx(7.0)
    assert model.gain(math.pi) == pytest.approx(-4.0)
    assert model.gain(math.pi / 2) == pytest.approx(1.5)
    omni = AntennaGainModel(directional=False)
    for angle in (0.0, 0.3, math.pi):
        assert omni.gain(angle) == 0.0


@given(st.floats(0.0, math.pi))
def test_gain_bounds_and_symmetry(angle):
    model = AntennaGainModel()
    g = model.gain(angle)
    assert -4.0 - 1e-12 <= g <= 7.0 + 1e-12
    assert model.gain(-angle) == pytest.approx(g)


def test_gain_monotone_boresight_to_back():
    model = AntennaGainModel()
    angles = np.linspace(0.0, math.pi, 50)
    gains = [model.gain(a) for a in angles]
    assert all(a >= b for a, b in zip(gains, gains[1:]))


def test_directivity_extremes():
    model = AntennaGainModel()
    assert model.directivity(7.0, 7.0) == pytest.approx(1.0)
    assert model.directivity(-4.0, -4.0) == pytest.approx(0.0)
    assert model.directivity(7.0, -4.0) == pytest.approx(0.5)
    omni = AntennaGainModel(directional=False)
    assert omni.directivity(0.0, 0.0) == 0.0


# ------------------------------------------------------------ trajectory


def test_trajectory_single_waypoint_is_stationary():
    pos = generate_trajectory([(2.0, 3.0)], 0.7, 5)
    assert pos.shape == (5, 2)
    assert np.all(pos == [2.0, 3.0])


def test_trajectory_two_waypoints_fractions():
    pos = generate_trajectory([(0.0, 0.0), (1.0, 0.0)], 0.5, 4)
    np.testing.assert_allclose(
        pos, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.0]], atol=1e-12
    )


def test_trajectory_zero_speed_holds_start():
    pos = generate_trajectory([(1.0, 1.0), (4.0, 4.0)], 0.0, 3)
    assert np.all(pos == [1.0, 1.0])


def test_trajectory_holds_final_waypoint():
    pos = generate_trajectory([(0.0, 0.0), (0.0, 2.0)], 1.0, 10)
    assert np.all(pos[2:] == [0.0, 2.0])


def test_trajectory_matches_step_walker():
    waypoints = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.5), (0.5, 1.5)]
    speed = 0.37
    got = generate_trajectory(waypoints, speed, 16)
    expected = walk_oracle(waypoints, speed, 16)
    np.testing.assert_allclose(got, expected, atol=1e-3)


def test_trajectory_corner_exact():
    # Speeds landing exactly on a corner must not overshoot it.
    pos = generate_trajectory([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], 0.5, 5)
    np.testing.assert_allclose(pos[2], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pos[3], [1.0, 0.5], atol=1e-12)


def test_trajectory_matches_the_per_tick_loop_bit_for_bit():
    # Random polylines with repeated waypoints (zero-length segments),
    # zero speed and paths shorter and longer than the run.
    rng = np.random.default_rng(17)
    for case in range(300):
        points = rng.uniform(0.0, 6.0, (rng.integers(1, 7), 2)).round(rng.integers(1, 4))
        repeat = rng.random(len(points)) < 0.3
        waypoints = np.repeat(points, np.where(repeat, 2, 1), axis=0).tolist()
        speed = 0.0 if case % 25 == 0 else float(rng.uniform(0.0, 0.5))
        num_ticks = int(rng.integers(1, 401))
        got = generate_trajectory(waypoints, speed, num_ticks)
        want = sim_oracles.generate_trajectory(waypoints, speed, num_ticks)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), case


def test_trajectory_validation():
    with pytest.raises(ValueError):
        generate_trajectory([], 1.0, 3)
    with pytest.raises(ValueError):
        generate_trajectory([(0, 0)], -1.0, 3)
    with pytest.raises(ValueError):
        generate_trajectory([(0, 0)], 1.0, 0)


# ------------------------------------------------------------ scenario


def test_scenario_rejects_bad_mode():
    with pytest.raises(ScenarioError):
        Scenario(two_node_layout(), UNIT_GRID, "beamforming")


def test_scenario_rejects_bad_channels():
    with pytest.raises(ScenarioError, match="channels"):
        Scenario(two_node_layout(), UNIT_GRID, "multichannel", channels=(11, 99))
    with pytest.raises(ScenarioError):
        Scenario(two_node_layout(), UNIT_GRID, "multichannel", channels=())
    with pytest.raises(ScenarioError):
        Scenario(two_node_layout(), UNIT_GRID, "multichannel", channels=(11, 11))


def test_scenario_rejects_trajectory_outside_area():
    traj = Trajectory(((0.5, 0.5), (3.0, 0.5)), 0.1)
    with pytest.raises(ScenarioError, match="area of interest"):
        Scenario(two_node_layout(), UNIT_GRID, "omni", trajectory=traj)


def test_scenario_rejects_nonpositive_rounds():
    with pytest.raises(ScenarioError):
        Scenario(two_node_layout(), UNIT_GRID, "omni", rounds=0)
    with pytest.raises(ScenarioError):
        Scenario(two_node_layout(), UNIT_GRID, "omni", calibration_rounds=0)


@pytest.mark.parametrize(
    "seed, message",
    [
        (2**32, "seed must be an integer in [0, 2**32), got 4294967296"),
        (-1, "seed must be an integer in [0, 2**32), got -1"),
        (3.9, "seed must be an integer in [0, 2**32), got 3.9"),
        ("5", "seed must be an integer in [0, 2**32), got '5'"),
        (True, "seed must be an integer in [0, 2**32), got True"),
        (np.int64(5), f"seed must be an integer in [0, 2**32), got {np.int64(5)!r}"),
    ],
)
def test_scenario_rejects_seed_outside_32_bits(seed, message):
    with pytest.raises(ScenarioError) as info:
        Scenario(two_node_layout(), UNIT_GRID, "omni", seed=seed)
    assert str(info.value) == message


@pytest.mark.parametrize("node_id", [-1, 2**32])
def test_scenario_rejects_node_id_outside_32_bits(node_id):
    layout = NetworkLayout([NodeSpec(0, 0.0, 0.5, 0.0), NodeSpec(node_id, 1.0, 0.5, 0.0)])
    with pytest.raises(ScenarioError) as info:
        Scenario(layout, UNIT_GRID, "omni")
    assert str(info.value) == f"node id must be in [0, 2**32), got {node_id}"


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
@pytest.mark.parametrize("tx, rx", [(0, 1), (6, 5), (2**32 - 1, 0)])
@pytest.mark.parametrize("kind", [(None, None, None), (26, None, None), (None, 6, 1)])
def test_stream_rng_matches_the_int_list_seeding(seed, tx, rx, kind):
    states = _seed_states(_seed_words(seed, [(tx, rx)], [kind]))
    assert states.shape == (1, 4)
    got = _stream_generators()(states[0])
    channel, tx_dir, rx_dir = kind
    pair = PatternPair(tx_dir, rx_dir) if tx_dir is not None else None
    want = sim_oracles.stream_rng(seed, tx, rx, (channel, pair))
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.standard_normal(4), want.normal(0.0, 1.0, 4))
    assert np.array_equal(got.random(4), want.random(4))


def test_seed_words_follow_the_trace_order():
    kinds = [(None, 1, 2), (None, 6, 5)]
    words = _seed_words(7, [(0, 1), (2**32 - 1, 3)], kinds)
    assert words.dtype == np.uint32
    assert words.tolist() == [
        [7, 0, 1, 2, 1, 2],
        [7, 0, 1, 2, 6, 5],
        [7, 2**32 - 1, 3, 2, 1, 2],
        [7, 2**32 - 1, 3, 2, 6, 5],
    ]
    omni = _seed_words(0, [(4, 5)], [(None, None, None)])
    channel = _seed_words(0, [(4, 5)], [(26, None, None)])
    assert omni.tolist() == [[0, 4, 5, 0, 0, 0]]
    assert channel.tolist() == [[0, 4, 5, 1, 26, 0]]


def test_seed_states_match_seed_sequence_on_random_words():
    rng = np.random.default_rng(97)
    words = rng.integers(0, 2**32, size=(1000, 6), dtype=np.uint64).astype(np.uint32)
    words[rng.random(words.shape) < 0.1] = 0
    words[rng.random(words.shape) < 0.1] = 2**32 - 1
    words[0] = 0
    words[1] = 2**32 - 1
    states = _seed_states(words)
    generator = _stream_generators()
    assert states.dtype == np.uint64 and states.shape == (1000, 4)
    for row, state in zip(words, states):
        want = np.random.SeedSequence([int(w) for w in row])
        assert np.array_equal(state, want.generate_state(4, np.uint64))
        got, ref = generator(state), np.random.default_rng(want)
        assert got.bit_generator.state == ref.bit_generator.state
        assert got.random() == ref.random()


def test_importing_rti_leaves_numpy_random_unloaded():
    # The seeding class is built on the first simulate: numpy.random would
    # otherwise add to every import of the library.
    src = str(Path(rti.simulator.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import rti.experiment, rti.imaging, rti.presets, rti.traceio, rti.tracking; "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_seed_range_ends_give_distinct_traces():
    # Seeds used to be masked to 32 bits, so 0 and 2**32 (and -1 and
    # 2**32 - 1) gave the same trace under different recorded seeds.
    mk = lambda seed: Scenario(
        two_node_layout(), UNIT_GRID, "omni", seed=seed, rounds=2, calibration_rounds=1
    )
    params = PropagationParams()
    low = simulate(mk(0), params)[0].rssi
    high = simulate(mk(2**32 - 1), params)[0].rssi
    assert not np.array_equal(low, high, equal_nan=True)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", 3.9, "seed must be an integer in [0, 2**32), got 3.9"),
        ("seed", "5", "seed must be an integer in [0, 2**32), got '5'"),
        ("seed", True, "seed must be an integer in [0, 2**32), got True"),
        ("seed", 2**32, "seed must be an integer in [0, 2**32), got 4294967296"),
        ("seed", -1, "seed must be an integer in [0, 2**32), got -1"),
        ("rounds", 3.9, "rounds must be an integer, got 3.9"),
        ("rounds", "5", "rounds must be an integer, got '5'"),
        ("rounds", True, "rounds must be an integer, got True"),
        ("calibration_rounds", 2.0, "calibration_rounds must be an integer, got 2.0"),
        ("calibration_rounds", False, "calibration_rounds must be an integer, got False"),
    ],
)
def test_scenario_dict_checks_integer_field_types(field, value, message):
    data = scenario_to_dict(
        Scenario(two_node_layout(), UNIT_GRID, "omni"), PropagationParams()
    )
    data[field] = value
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    assert str(info.value) == message


def test_params_validation():
    with pytest.raises(ValueError):
        PropagationParams(path_loss_exponent=0.5)
    with pytest.raises(ValueError):
        PropagationParams(fading_std_db=-1.0)
    with pytest.raises(ValueError):
        PropagationParams(fading_directivity_coupling=1.5)
    with pytest.raises(ValueError):
        PropagationParams(prr_slope=0.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PropagationParams(noise_std_db=math.nan),
         "PropagationParams noise_std_db must be a finite number, got nan"),
        (lambda: PropagationParams(path_loss_exponent=math.nan),
         "PropagationParams path_loss_exponent must be a finite number, got nan"),
        (lambda: PropagationParams(person_lambda_m=math.inf),
         "PropagationParams person_lambda_m must be a finite number, got inf"),
        (lambda: PropagationParams(sensitivity_dbm=-math.inf),
         "PropagationParams sensitivity_dbm must be a finite number, got -inf"),
        (lambda: PropagationParams(noise_std_db=True),
         "PropagationParams noise_std_db must be a finite number, got True"),
        (lambda: PropagationParams(fading_std_db="9"),
         "PropagationParams fading_std_db must be a finite number, got '9'"),
        (lambda: AntennaGainModel(g_max_db=math.nan),
         "AntennaGainModel g_max_db must be a finite number, got nan"),
        (lambda: AntennaGainModel(g_min_db=-math.inf),
         "AntennaGainModel g_min_db must be a finite number, got -inf"),
        (lambda: AntennaGainModel(directional=False, g_min_db=False),
         "AntennaGainModel g_min_db must be a finite number, got False"),
        (lambda: AntennaGainModel(g_max_db="7"),
         "AntennaGainModel g_max_db must be a finite number, got '7'"),
    ],
)
def test_params_reject_at_construction_what_their_json_rejects(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


# ------------------------------------------------------------ power budget


def test_pure_path_loss_one_metre():
    # 0 dBm - (40 + 10*2*log10(1)) = -40 dBm on every record.
    scenario = Scenario(
        two_node_layout(), UNIT_GRID, "omni", rounds=3, calibration_rounds=2
    )
    trace, truth = simulate(scenario, quiet_params())
    assert truth.shape == (0, 2)
    assert trace.rssi.shape == (5, 2)  # ticks x directed links
    np.testing.assert_allclose(trace.rssi, -40.0)  # NaN (lost) would fail


def test_path_loss_follows_distance():
    scenario = Scenario(
        two_node_layout(d=10.0), UNIT_GRID, "omni", rounds=1, calibration_rounds=1
    )
    trace, _ = simulate(scenario, quiet_params())
    np.testing.assert_allclose(trace.rssi, -60.0)  # 40 + 20*log10(10)


def test_person_shadow_adds_five_db():
    traj = Trajectory(((0.5, 0.5),), 0.0)
    scenario = Scenario(
        two_node_layout(), UNIT_GRID, "omni",
        trajectory=traj, rounds=3, calibration_rounds=2,
    )
    trace, truth = simulate(scenario, quiet_params())
    assert truth.shape == (3, 2)
    expected = np.where(np.arange(5) >= 2, -45.0, -40.0)
    for series in trace.rssi.T:
        np.testing.assert_allclose(series, expected)


def test_person_outside_ellipse_leaves_link_untouched():
    # Nodes 1 m apart, person 0.6 m off the midpoint: d1+d2 ~ 1.56 > 1.5.
    traj = Trajectory(((0.5, 0.9),), 0.0)
    layout = NetworkLayout([NodeSpec(0, 0.0, 0.3, 0.0), NodeSpec(1, 1.0, 0.3, 0.0)])
    scenario = Scenario(
        layout, UNIT_GRID, "omni", trajectory=traj, rounds=2, calibration_rounds=1
    )
    trace, _ = simulate(scenario, quiet_params())
    np.testing.assert_allclose(trace.rssi, -40.0)


def test_boresight_pair_gains_fourteen_db_over_omni():
    layout = two_node_layout(face=True)
    mk = lambda mode: Scenario(layout, UNIT_GRID, mode, rounds=1, calibration_rounds=1)
    omni_trace, _ = simulate(mk("omni"), quiet_params())
    dir_trace, _ = simulate(mk("directional"), quiet_params())
    for col, (tx, rx, _channel, tx_dir, rx_dir) in enumerate(dir_trace.streams):
        base = column(omni_trace, tx, rx)[0]
        if (tx_dir, rx_dir) == (1, 1):
            assert dir_trace.rssi[0, col] == pytest.approx(base + 14.0)
        if (tx_dir, rx_dir) == (4, 4):
            assert dir_trace.rssi[0, col] == pytest.approx(base - 8.0)


def test_wall_scales_person_shadow_but_not_wall_loss():
    # One wall between the nodes, person parked on the path: the static wall
    # loss stays 5 dB while the person's mean shadow shrinks by the factor.
    traj = Trajectory(((0.5, 0.5),), 0.0)
    wall = Wall(0.3, 0.0, 0.3, 1.0)
    scenario = Scenario(
        two_node_layout(), UNIT_GRID, "omni", walls=(wall,),
        trajectory=traj, rounds=3, calibration_rounds=2,
    )
    trace, _ = simulate(scenario, quiet_params(wall_shadow_factor=0.4))
    expected = np.where(np.arange(5) < 2, -45.0, -45.0 - 5.0 * 0.4)
    for series in trace.rssi.T:
        np.testing.assert_allclose(series, expected)


def test_wall_shadow_factor_compounds_per_wall():
    traj = Trajectory(((0.5, 0.5),), 0.0)
    walls = (Wall(0.2, 0.0, 0.2, 1.0), Wall(0.8, 0.0, 0.8, 1.0))
    scenario = Scenario(
        two_node_layout(), UNIT_GRID, "omni", walls=walls,
        trajectory=traj, rounds=2, calibration_rounds=1,
    )
    trace, _ = simulate(scenario, quiet_params(wall_shadow_factor=0.5))
    assert trace.rssi[1, 0] == pytest.approx(-50.0 - 5.0 * 0.25)


def test_wall_crossing_attenuates():
    layout = two_node_layout()
    crossing = Wall(0.5, 0.0, 0.5, 1.0)
    missing = Wall(2.0, 0.0, 2.0, 1.0)
    custom = Wall(0.5, 0.0, 0.5, 1.0, loss_db=7.5)
    mk = lambda walls: Scenario(
        layout, UNIT_GRID, "omni", walls=walls, rounds=1, calibration_rounds=1
    )
    t1, _ = simulate(mk((crossing,)), quiet_params())
    t2, _ = simulate(mk((missing,)), quiet_params())
    t3, _ = simulate(mk((custom,)), quiet_params())
    t4, _ = simulate(mk((crossing, custom)), quiet_params())
    assert t1.rssi[0, 0] == pytest.approx(-45.0)
    assert t2.rssi[0, 0] == pytest.approx(-40.0)
    assert t3.rssi[0, 0] == pytest.approx(-47.5)
    assert t4.rssi[0, 0] == pytest.approx(-52.5)


# ------------------------------------------------------------ schedule


def test_record_order_and_seq(tmp_path):
    scenario = Scenario(
        two_node_layout(), UNIT_GRID, "multichannel", channels=(15, 11),
        rounds=2, calibration_rounds=1,
    )
    trace, _ = simulate(scenario, quiet_params())
    assert trace.mode == "multichannel"
    assert trace.rssi.shape == (3, 2 * 2)
    assert [key[:3] for key in trace.streams] == [
        (0, 1, 11), (0, 1, 15), (1, 0, 11), (1, 0, 15)
    ]
    path = tmp_path / "trace.csv"
    write_trace_file(path, trace)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 3 * 2 * 2
    assert [(r[0], r[1], r[2], r[4]) for r in rows[:5]] == [
        ("0", "0", "1", "11"), ("0", "0", "1", "15"),
        ("0", "1", "0", "11"), ("0", "1", "0", "15"), ("1", "0", "1", "11"),
    ]
    for row in rows:
        assert row[8] == row[0]
        assert row[3] == "multichannel"


def test_directional_emits_36_pairs_per_link():
    scenario = Scenario(
        two_node_layout(face=True), UNIT_GRID, "directional",
        rounds=1, calibration_rounds=1,
    )
    trace, _ = simulate(scenario, PropagationParams())
    pairs = {(key[3], key[4]) for key in trace.streams if key[:2] == (0, 1)}
    assert len(pairs) == 36
    assert pairs == {(t, x) for t in range(1, 7) for x in range(1, 7)}


# ------------------------------------------------------------ randomness


def test_simulation_is_deterministic():
    traj = Trajectory(((0.3, 0.5), (0.7, 0.5)), 0.05)
    scenario = Scenario(
        two_node_layout(), UNIT_GRID, "directional", trajectory=traj,
        seed=7, rounds=5, calibration_rounds=3,
    )
    t1, truth1 = simulate(scenario, PropagationParams())
    t2, truth2 = simulate(scenario, PropagationParams())
    assert t1.streams == t2.streams
    assert np.array_equal(t1.rssi, t2.rssi, equal_nan=True)
    np.testing.assert_array_equal(truth1, truth2)


def test_seed_changes_output():
    mk = lambda seed: Scenario(
        two_node_layout(), UNIT_GRID, "omni", seed=seed, rounds=2, calibration_rounds=1
    )
    t1, _ = simulate(mk(1), PropagationParams())
    t2, _ = simulate(mk(2), PropagationParams())
    r1 = t1.rssi[~np.isnan(t1.rssi)].tolist()
    r2 = t2.rssi[~np.isnan(t2.rssi)].tolist()
    assert r1 != r2


def test_fading_is_static_over_time():
    # No noise, no drift, empty area: each stream's RSS never moves, and the
    # calibration and tracking phases see the same value.
    scenario = Scenario(
        circle_layout(5), build_grid((0, 0), 10, 10, 0.5), "omni",
        seed=3, rounds=20, calibration_rounds=10,
    )
    trace, _ = simulate(scenario, PropagationParams(noise_std_db=0.0))
    assert not np.isnan(trace.rssi).any()
    assert len(trace.streams) == 20
    for series in trace.rssi.T:
        assert len(set(series.tolist())) == 1


def test_channels_fade_independently():
    layout = circle_layout(15, radius=4.0, centre=(5, 5))
    scenario = Scenario(
        layout, build_grid((0, 0), 10, 10, 0.5), "multichannel",
        channels=(11, 15), seed=11, rounds=1, calibration_rounds=1,
    )
    params = PropagationParams(noise_std_db=0.0)
    trace, _ = simulate(scenario, params)
    fades: dict[int, dict[tuple[int, int], float]] = {11: {}, 15: {}}
    for (tx, rx, channel, _t, _r), rssi in zip(trace.streams, trace.rssi[0]):
        if np.isnan(rssi):
            continue
        d = layout.link_distance(tx, rx)
        loss = params.reference_loss_db + 20.0 * math.log10(d)
        fades[channel][(tx, rx)] = rssi + loss
    links = sorted(fades[11])
    assert len(links) == 210
    f11 = np.array([fades[11][k] for k in links])
    f15 = np.array([fades[15][k] for k in links])
    assert abs(np.corrcoef(f11, f15)[0, 1]) < 0.2
    assert np.std(f11) == pytest.approx(6.0, abs=1.2)


def test_fading_spread_shrinks_with_directivity():
    layout = circle_layout(10, radius=4.0, centre=(5, 5))
    scenario = Scenario(
        layout, build_grid((0, 0), 10, 10, 0.5), "directional",
        seed=5, rounds=1, calibration_rounds=1,
    )
    params = PropagationParams(noise_std_db=0.0)
    trace, _ = simulate(scenario, params)
    model = params.gain_model
    fades: list[float] = []
    dirs: list[float] = []
    from rti.geometry import angle_to_link

    for (tx_id, rx_id, _channel, tx_dir, rx_dir), rssi in zip(trace.streams, trace.rssi[0]):
        if np.isnan(rssi):
            continue
        tx = layout.node(tx_id)
        rx = layout.node(rx_id)
        g_tx = model.gain(angle_to_link(tx, tx_dir, rx))
        g_rx = model.gain(angle_to_link(rx, rx_dir, tx))
        d = layout.link_distance(tx_id, rx_id)
        loss = params.reference_loss_db + 20.0 * math.log10(d)
        fades.append(rssi - g_tx - g_rx + loss)
        dirs.append(model.directivity(g_tx, g_rx))
    fades_arr = np.array(fades)
    dirs_arr = np.array(dirs)
    edges = [0.0, 0.25, 0.5, 0.75, 1.0 + 1e-9]
    stds = []
    for lo, hi in zip(edges, edges[1:]):
        sel = (dirs_arr >= lo) & (dirs_arr < hi)
        assert sel.sum() > 50
        stds.append(float(np.std(fades_arr[sel])))
    assert all(a > b for a, b in zip(stds, stds[1:]))


def test_reception_probability_trivia_and_monotonicity():
    params = PropagationParams()
    assert reception_probability(params.sensitivity_dbm, params) == pytest.approx(0.5)
    assert reception_probability(0.0, params) == pytest.approx(1.0, abs=1e-9)
    assert reception_probability(-1e6, params) == pytest.approx(0.0, abs=1e-9)
    grid = np.linspace(-120.0, -60.0, 200)
    probs = reception_probability(grid, params)
    assert np.all(np.diff(probs) > 0)


def test_closer_link_receives_more():
    layout = NetworkLayout(
        [NodeSpec(0, 0.0, 0.5, 0.0), NodeSpec(1, 1.0, 0.5, 0.0), NodeSpec(2, 0.0, 20.5, 0.0)]
    )
    scenario = Scenario(
        layout, UNIT_GRID, "omni", seed=2, rounds=80, calibration_rounds=20
    )
    params = quiet_params(sensitivity_dbm=-60.0, noise_std_db=0.7)
    trace, _ = simulate(scenario, params)
    got = {link: np.count_nonzero(~np.isnan(column(trace, *link))) for link in ((0, 1), (0, 2))}
    # link 0->1: margin +20 dB, should be near lossless; 0->2: ~ -66 dBm.
    assert got[(0, 1)] > 95
    assert got[(0, 2)] < 40


def test_lost_records_have_no_rssi():
    scenario = Scenario(
        two_node_layout(d=30.0), UNIT_GRID, "omni", seed=4,
        rounds=30, calibration_rounds=10,
    )
    trace, _ = simulate(scenario, quiet_params(sensitivity_dbm=-60.0, noise_std_db=3.0))
    lost = np.isnan(trace.rssi)
    assert lost.any()
    assert np.isfinite(trace.rssi[~lost]).all()


def test_drift_wanders_slowly_around_the_static_level():
    # Mean-reverting drift: the marginal spread matches drift_std_db, and
    # consecutive ticks are strongly correlated.
    scenario = Scenario(
        two_node_layout(), UNIT_GRID, "omni", seed=9, rounds=800, calibration_rounds=1
    )
    params = PropagationParams(noise_std_db=0.0, drift_std_db=1.0, drift_corr=0.9)
    trace, _ = simulate(scenario, params)
    series = column(trace, 0, 1)
    drift = series - np.mean(series)
    assert np.std(drift) == pytest.approx(1.0, rel=0.25)
    lag1 = np.corrcoef(drift[:-1], drift[1:])[0, 1]
    assert lag1 == pytest.approx(0.9, abs=0.05)
    # Steps are much smaller than the spread: a slow wander, not white noise.
    assert np.std(np.diff(series)) < 0.7 * np.std(series) * math.sqrt(2.0)


def test_drift_is_independent_per_stream():
    scenario = Scenario(
        two_node_layout(), UNIT_GRID, "multichannel", channels=(11, 15, 26),
        seed=3, rounds=400, calibration_rounds=1,
    )
    params = PropagationParams(
        noise_std_db=0.0, fading_std_db=0.0, drift_std_db=1.0, drift_corr=0.9
    )
    trace, _ = simulate(scenario, params)
    fwd = np.array([column(trace, 0, 1, channel=ch) for ch in (11, 15, 26)])
    fwd -= fwd.mean(axis=1, keepdims=True)
    assert abs(np.corrcoef(fwd[0], fwd[1])[0, 1]) < 0.35
    assert abs(np.corrcoef(fwd[0], fwd[2])[0, 1]) < 0.35


def test_aligned_pairs_flutter_with_directivity_gain():
    # Near-zero fading keeps every stream anti-fade, so the only agitation
    # left is the directivity-coupled flutter: boresight pairs wobble, the
    # back-to-back pair (zero combined directivity) stays still.
    layout = two_node_layout(d=4.0, face=True)
    grid = build_grid((0, 0), 5, 2, 0.5)
    traj = Trajectory(((2.0, 0.5),), 0.0)
    scenario = Scenario(
        layout, grid, "directional", trajectory=traj,
        seed=11, rounds=200, calibration_rounds=1,
    )
    params = PropagationParams(
        noise_std_db=0.0, fading_std_db=0.01, agitation_std_db=2.0,
        agitation_directivity_gain=0.5,
    )
    trace, _ = simulate(scenario, params)
    series = {pair: column(trace, 0, 1, pair=pair)[1:] for pair in ((1, 1), (4, 4))}
    rho = params.fading_directivity_coupling
    model = params.gain_model
    aligned = np.std(np.array(series[(1, 1)]))
    response = 1.0 / (1.0 - rho * model.directivity(model.gain(0.0), model.gain(0.0)))
    assert aligned == pytest.approx(2.0 * 0.5 * (response - 1.0), rel=0.15)
    assert np.std(np.array(series[(4, 4)])) < 0.05


def test_deep_fade_streams_pick_up_motion_noise():
    # Learn each stream's fading draw from an empty run, then park a person
    # in the wide ellipse ring: streams in a fade wobble, the rest stay flat.
    layout = circle_layout(8, radius=2.0, centre=(2.5, 2.5))
    grid = build_grid((0, 0), 5, 5, 0.25)
    empty = Scenario(layout, grid, "omni", seed=21, rounds=1, calibration_rounds=1)
    params = PropagationParams(noise_std_db=0.0)
    trace0, _ = simulate(empty, params)
    def tick0_fade(trace):
        out = {}
        for (tx, rx, *_kind), rssi in zip(trace.streams, trace.rssi[0]):
            d = layout.link_distance(tx, rx)
            out[(tx, rx)] = rssi + params.reference_loss_db + 20.0 * math.log10(d)
        return out

    fade = tick0_fade(trace0)
    traj = Trajectory(((2.5, 2.5),), 0.0)
    busy = Scenario(
        layout, grid, "omni", seed=21, trajectory=traj,
        rounds=40, calibration_rounds=5,
    )
    trace1, _ = simulate(busy, params)
    series = {}
    for (tx, rx, *_kind), values in zip(trace1.streams, trace1.rssi[5:].T):
        heard = values[~np.isnan(values)]
        if heard.size:
            series[(tx, rx)] = heard
    wobbled = flat = 0
    for link, values in series.items():
        tx = layout.node(link[0])
        rx = layout.node(link[1])
        from rti.geometry import ellipse_contains

        in_person = ellipse_contains(tx.position, rx.position, (2.5, 2.5), 0.5)
        in_wide = ellipse_contains(tx.position, rx.position, (2.5, 2.5), 3.0)
        if in_person or not in_wide:
            continue
        spread = float(np.std(values))
        if fade[link] < -1e-9:
            assert spread > 1e-9
            wobbled += 1
        else:
            assert spread == 0.0
            flat += 1
    assert wobbled >= 5 and flat >= 5
    # The same (seed, stream) pair drew the same fading value in both runs.
    base = tick0_fade(trace1)
    for link in fade:
        assert base[link] == pytest.approx(fade[link], abs=1e-9)


def test_obstruction_response_scales_with_directivity():
    # Same geometry, no fading: a boresight pattern pair must lose more
    # power to the person than the omni link does.
    layout = two_node_layout(d=4.0, y=2.0, face=True)
    grid = build_grid((0, 0), 4, 4, 0.2)
    traj = Trajectory(((2.0, 2.0),), 0.0)
    mk = lambda mode: Scenario(
        layout, grid, mode, trajectory=traj, rounds=1, calibration_rounds=1
    )
    omni_trace, _ = simulate(mk("omni"), quiet_params())
    dir_trace, _ = simulate(mk("directional"), quiet_params())
    omni = column(omni_trace, 0, 1)
    drop_omni = omni[0] - omni[1]
    assert drop_omni == pytest.approx(5.0)
    best = column(dir_trace, 0, 1, pair=(1, 1))
    drop_dir = best[0] - best[1]
    # rho=0.6, D=1: response factor 1 / (1 - 0.6) = 2.5.
    assert drop_dir == pytest.approx(12.5)


def test_obstructed_mask_matches_ellipse():
    layout = two_node_layout(d=4.0, y=2.0)
    truth = np.array([[2.0, 2.0], [2.0, 3.9], [0.1, 0.1]])
    mask = obstructed_mask(layout, truth, 0.5)
    assert mask.shape == (3, layout.num_links)
    assert mask[0].all()
    assert not mask[1].any()
    assert not mask[2].any()


# ------------------------------------------------------------ oracles
# obstructed_mask, _ou_block and simulate must equal the loops in
# sim_oracles bit for bit.

RING20 = ring_layout(20, 2.9, (3.0, 3.0))


@pytest.mark.parametrize(
    "layout",
    [los_7node()[0].layout, nlos_7node()[0].layout, RING20],
    ids=["los_7node", "nlos_7node", "ring20"],
)
@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 3.0])
def test_obstructed_mask_matches_loop_on_random_truths(layout, lam):
    rng = np.random.default_rng(7)
    truth = rng.uniform(-0.5, 6.5, size=(300, 2))
    mask = obstructed_mask(layout, truth, lam)
    assert mask.dtype == bool
    assert np.array_equal(mask, sim_oracles.obstructed_mask(layout, truth, lam))


def boundary_points(layout, lam, rng, per_link=4):
    """Points on or within a few ulps of each link's ellipse boundary
    d1 + d2 = d + lam; for lam = 0, points on the link segment."""
    points = []
    for tx_id, rx_id in layout.links:
        p1 = np.array(layout.node(tx_id).position)
        p2 = np.array(layout.node(rx_id).position)
        if lam == 0.0:
            on = p1 + rng.uniform(0.0, 1.0, per_link)[:, None] * (p2 - p1)
        else:
            d = math.hypot(*(p2 - p1))
            u = (p2 - p1) / d
            v = np.array([-u[1], u[0]])
            a = (d + lam) / 2.0
            b = math.sqrt(a * a - d * d / 4.0)
            theta = rng.uniform(0.0, 2.0 * math.pi, per_link)
            on = (p1 + p2) / 2.0 + np.outer(a * np.cos(theta), u) + np.outer(b * np.sin(theta), v)
        for point in on:
            for ulps in range(-3, 4):
                y = point[1]
                for _ in range(abs(ulps)):
                    y = np.nextafter(y, math.copysign(math.inf, ulps))
                points.append((point[0], y))
    return np.array(points)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_obstructed_mask_decides_boundary_cells_like_ellipse_contains(lam, monkeypatch):
    layout = los_7node()[0].layout
    truth = boundary_points(layout, lam, np.random.default_rng(3))
    rechecked = []

    def counting(*args):
        rechecked.append(args)
        return ellipse_contains(*args)

    monkeypatch.setattr(rti.simulator, "ellipse_contains", counting)
    mask = obstructed_mask(layout, truth, lam)
    # Every cell of a link's own boundary points lies in the guard band.
    assert len(rechecked) >= len(truth)
    assert np.array_equal(mask, sim_oracles.obstructed_mask(layout, truth, lam))


@pytest.mark.parametrize("n", [0, 1, 240])
@pytest.mark.parametrize("std", [0.0, 3.0])
@pytest.mark.parametrize("streams", [1, 36])
def test_ou_block_matches_per_stream_loop(n, std, streams):
    eps = np.random.default_rng(11).normal(0.0, 1.0, (n, streams))
    drift = _ou_block(eps, std, 0.97)
    assert drift.shape == (n, streams)
    assert np.array_equal(drift, sim_oracles.ou_block(eps, std, 0.97))


def assert_same_trace(got, want):
    (trace, truth), (ref_trace, ref_truth) = got, want
    assert trace.mode == ref_trace.mode
    assert trace.tx_power_dbm == ref_trace.tx_power_dbm
    assert trace.streams == ref_trace.streams
    assert np.array_equal(trace.rssi, ref_trace.rssi, equal_nan=True)
    assert np.array_equal(truth, ref_truth)


ORACLE_RUNS = [
    pytest.param(factory, seed, mode, id=f"{factory.__name__}-{seed}-{mode}")
    for factory in (los_7node, nlos_7node)
    for seed in (0, 1)
    for mode in ("omni", "multichannel", "directional")
]


@pytest.mark.parametrize("factory, seed, mode", ORACLE_RUNS)
def test_simulate_with_loop_oracles_patched_in_is_identical(factory, seed, mode, monkeypatch):
    scenario, params = factory(seed)
    scenario = replace(scenario, mode=mode)
    shipped = simulate(scenario, params)
    monkeypatch.setattr(rti.simulator, "obstructed_mask", sim_oracles.obstructed_mask)
    monkeypatch.setattr(rti.simulator, "_ou_block", sim_oracles.ou_block)
    assert_same_trace(shipped, simulate(scenario, params))


def ring9(seed):
    """72 links: directional groups of 7 links and multichannel groups of
    64 leave a partial last group; drift is on."""
    scenario, params = los_7node(seed)
    scenario = replace(
        scenario, layout=ring_layout(9, 2.9, (3.0, 3.0)), rounds=20, calibration_rounds=10
    )
    return scenario, replace(params, drift_std_db=1.5)


def no_fading(seed):
    """fading_std_db = 0 forces agitation to zero."""
    scenario, params = nlos_7node(seed)
    return replace(scenario, rounds=20), replace(params, fading_std_db=0.0)


def flat_gain(seed):
    """A directional model with g_max_db == g_min_db has zero directivity."""
    scenario, params = los_7node(seed)
    flat = AntennaGainModel(g_max_db=2.0, g_min_db=2.0)
    return replace(scenario, rounds=20), replace(params, gain_model=flat)


GROUP_ORACLE_RUNS = [
    pytest.param(factory, 3, mode, id=f"{factory.__name__}-3-{mode}")
    for factory, modes in (
        (ring9, ("omni", "multichannel", "directional")),
        (nlos_2node, ("omni", "multichannel", "directional")),
        (no_fading, ("directional",)),
        (flat_gain, ("directional",)),
    )
    for mode in modes
]


@pytest.mark.parametrize("factory, seed, mode", ORACLE_RUNS + GROUP_ORACLE_RUNS)
def test_simulate_matches_per_stream_oracle(factory, seed, mode):
    scenario, params = factory(seed)
    scenario = replace(scenario, mode=mode)
    assert_same_trace(simulate(scenario, params), sim_oracles.simulate(scenario, params))


@pytest.mark.parametrize("mode", ["omni", "multichannel", "directional"])
def test_simulated_streams_are_each_link_times_the_mode_kinds(mode):
    scenario, params = nlos_2node(0)
    scenario = replace(scenario, mode=mode, channels=(21, 11, 26), rounds=3, calibration_rounds=2)
    trace, _ = simulate(scenario, params)
    links = tuple(scenario.layout.links)
    kinds = stream_kinds(mode, scenario.channels)
    assert trace.streams == tuple((*link, *kind) for link in links for kind in kinds)
    table = stream_columns(trace, links, kinds)
    assert np.array_equal(table, np.arange(len(links) * len(kinds)).reshape(len(links), -1))


def test_simulate_peak_memory_stays_near_the_trace():
    # 132 links x 36 pairs = 4,752 streams; the physics runs in groups, so
    # its temporaries stay a fraction of the trace it fills.
    scenario, params = los_7node(0)
    scenario = replace(scenario, layout=ring_layout(12, 2.9, (3.0, 3.0)), rounds=40)
    simulate(replace(scenario, layout=ring_layout(3, 2.9, (3.0, 3.0))), params)
    tracemalloc.start()
    try:
        trace, _ = simulate(scenario, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.streams) == 4752
    assert peak <= 2 * trace.rssi.nbytes


# ------------------------------------------------------------ file format


def test_scenario_round_trip(tmp_path):
    layout = NetworkLayout(
        [NodeSpec(0, 0.25, 0.5, 0.1), NodeSpec(1, 1.0, 0.75, -2.5)]
    )
    traj = Trajectory(((0.3, 0.4), (0.8, 0.9)), 0.125)
    scenario = Scenario(
        layout, UNIT_GRID, "multichannel", channels=(26, 11),
        walls=(Wall(0.5, 0.0, 0.5, 1.0), Wall(0.1, 0.1, 0.9, 0.9, loss_db=2.25)),
        trajectory=traj, seed=42, rounds=55, calibration_rounds=12,
    )
    params = PropagationParams(drift_std_db=0.12, fading_std_db=4.5)
    path = tmp_path / "scenario.json"
    write_scenario_file(path, scenario, params)
    loaded, loaded_params = read_scenario_file(path)
    assert loaded_params == params
    assert loaded.mode == scenario.mode
    assert loaded.channels == scenario.channels
    assert loaded.walls == scenario.walls
    assert loaded.trajectory == scenario.trajectory
    assert (loaded.seed, loaded.rounds, loaded.calibration_rounds) == (42, 55, 12)
    assert loaded.grid == scenario.grid
    for got, want in zip(loaded.layout.nodes, layout.nodes):
        assert (got.id, got.x, got.y) == (want.id, want.x, want.y)
        assert got.antenna_zero_bearing == pytest.approx(want.antenna_zero_bearing)
    # Round-tripping the loaded scenario again is byte-stable.
    path2 = tmp_path / "again.json"
    write_scenario_file(path2, loaded, loaded_params)
    assert path.read_bytes() == path2.read_bytes()


def test_scenario_dict_missing_field_raises():
    data = scenario_to_dict(
        Scenario(two_node_layout(), UNIT_GRID, "omni"), PropagationParams()
    )
    del data["rounds"]
    with pytest.raises(ScenarioError, match="rounds"):
        scenario_from_dict(data)


def _set(data, path, value):
    *parents, last = path
    for key in parents:
        data = data[key]
    data[last] = value


BAD_SCENARIO_FIELDS = [
    (("channels",), 5, "channels must be a list of integers, got 5"),
    (("channels",), ["11"], "channels must be a list of integers, got ['11']"),
    (("channels",), [11.0], "channels must be a list of integers, got [11.0]"),
    (("nodes",), 5, "nodes must be a list of objects, got 5"),
    (("nodes", 3), [3, 1.0, 2.0], "nodes[3] must be an object, got [3, 1.0, 2.0]"),
    (("nodes", 0, "id"), "0", "nodes[0].id must be an integer, got '0'"),
    (("nodes", 0, "id"), 1.0, "nodes[0].id must be an integer, got 1.0"),
    (("nodes", 0, "x"), "1.5", "nodes[0].x must be a finite number, got '1.5'"),
    (("nodes", 1, "y"), True, "nodes[1].y must be a finite number, got True"),
    (("nodes", 2, "bearing_deg"), None, "nodes[2].bearing_deg must be a finite number, got None"),
    (("nodes", 1, "id"), 0, "nodes: duplicate node ids in layout"),
    (("grid",), [6.0], "grid must be an object, got [6.0]"),
    (("grid", "origin"), [0.0], "grid.origin must be a pair of numbers, got [0.0]"),
    (("grid", "origin"), [0.0, "1"], "grid.origin[1] must be a finite number, got '1'"),
    (("grid", "width_m"), "6", "grid.width_m must be a finite number, got '6'"),
    (("grid", "voxel_width"), float("inf"), "grid.voxel_width must be a finite number, got inf"),
    (("grid", "voxel_width"), 0, "grid: grid dimensions and voxel width must be positive"),
    (("walls",), {}, "walls must be a list of objects, got {}"),
    (("walls", 0, "from"), 3.0, "walls[0].from must be a pair of numbers, got 3.0"),
    (("walls", 1, "to"), [1.0, "2"], "walls[1].to[1] must be a finite number, got '2'"),
    (("walls", 0, "loss_db"), "3", "walls[0].loss_db must be a finite number, got '3'"),
    (("trajectory",), [], "trajectory must be an object, got []"),
    (("trajectory", "waypoints"), 3, "trajectory.waypoints must be a list of points, got 3"),
    (("trajectory", "waypoints", 1), [1.0, None],
     "trajectory.waypoints[1][1] must be a finite number, got None"),
    (("trajectory", "waypoints"), [], "trajectory: trajectory needs at least one waypoint"),
    (("trajectory", "speed"), "0.1", "trajectory.speed must be a finite number, got '0.1'"),
    (("trajectory", "speed"), -1, "trajectory: speed must be >= 0"),
    (("params",), [], "params must be an object, got []"),
    (("params", "noise_std_db"), True, "params.noise_std_db must be a finite number, got True"),
    (("params", "fading_std_db"), "6", "params.fading_std_db must be a finite number, got '6'"),
    (("params", "drift_std_db"), float("nan"), "params.drift_std_db must be a finite number, got nan"),
    (("params", "sensitivity_dbm"), 10**400, "params.sensitivity_dbm must be a finite number, got " + repr(10**400)),
    (("params", "gain_model"), {}, "params has unknown field 'gain_model'"),
    (("params", "noise_std"), 0.5, "params has unknown field 'noise_std'"),
    (("params", "noise_std_db"), -1, "params: noise scales must be >= 0"),
]


@pytest.mark.parametrize(
    "path, value, message", BAD_SCENARIO_FIELDS, ids=[m for _, _, m in BAD_SCENARIO_FIELDS]
)
def test_scenario_dict_names_the_bad_field(path, value, message):
    data = scenario_to_dict(*nlos_7node(0))
    _set(data, path, value)
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    assert str(info.value) == message


def test_scenario_dict_must_be_an_object():
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict([1, 2])
    assert str(info.value) == "scenario description must be an object, got [1, 2]"


def test_scenario_dict_takes_json_ints_for_numbers():
    scenario, params = nlos_7node(0)
    data = scenario_to_dict(scenario, params)
    whole = scenario_to_dict(scenario, params)
    _set(whole, ("nodes", 0, "x"), 5)
    _set(whole, ("walls", 0, "from"), [3, 1.6])
    _set(whole, ("trajectory", "speed"), 1)
    _set(whole, ("params", "noise_std_db"), 1)
    _set(data, ("nodes", 0, "x"), 5.0)
    _set(data, ("trajectory", "speed"), 1.0)
    _set(data, ("params", "noise_std_db"), 1.0)
    got, got_params = scenario_from_dict(whole)
    want, want_params = scenario_from_dict(data)
    assert got.layout.nodes == want.layout.nodes
    assert got.walls == want.walls and got.trajectory == want.trajectory
    assert got_params == want_params
    assert_same_trace(simulate(got, got_params), simulate(want, want_params))


def test_scenario_file_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="JSON"):
        read_scenario_file(path)


UNKNOWN_SCENARIO_KEYS = [
    (("layout_file",), "scenario description has unknown field 'layout_file'"),
    (("seeds",), "scenario description has unknown field 'seeds'"),
    (("grid", "voxel"), "grid has unknown field 'voxel'"),
    (("nodes", 2, "bearing"), "nodes[2] has unknown field 'bearing'"),
    (("walls", 1, "loss"), "walls[1] has unknown field 'loss'"),
    (("trajectory", "speed_m"), "trajectory has unknown field 'speed_m'"),
    (("params", "noise_std"), "params has unknown field 'noise_std'"),
]


@pytest.mark.parametrize(
    "path, message", UNKNOWN_SCENARIO_KEYS, ids=[m for _, m in UNKNOWN_SCENARIO_KEYS]
)
def test_scenario_dict_rejects_unknown_keys(path, message):
    data = scenario_to_dict(*nlos_7node(0))
    _set(data, path, 1.0)
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    assert str(info.value) == message


def test_scenario_dict_takes_null_trajectory_and_omitted_optional_fields():
    data = scenario_to_dict(*nlos_7node(0))
    data["trajectory"] = None
    for key in ("channels", "walls", "seed", "params"):
        del data[key]
    del data["nodes"][0]["bearing_deg"]
    scenario, params = scenario_from_dict(data)
    assert scenario.trajectory is None and scenario.walls == () and scenario.seed == 0
    assert scenario.channels == (11, 15, 18, 21) == Scenario.channels
    assert params == PropagationParams()
    assert scenario.layout.nodes[0].antenna_zero_bearing == 0.0


def round_trip_scenario(name):
    scenario, params = nlos_7node(3)
    walls = (scenario.walls[0], Wall(0.5, 0.5, 2.5, 0.5, loss_db=12.5))
    if name == "omni":
        return replace(scenario, mode="omni", walls=walls), params
    if name == "multichannel":
        return replace(scenario, mode="multichannel", channels=(26, 11, 18)), params
    if name == "directional":
        return replace(scenario, walls=walls), replace(params, drift_std_db=0.3)
    return replace(scenario, trajectory=None), params


@pytest.mark.parametrize("name", ["omni", "multichannel", "directional", "no-trajectory"])
def test_scenario_writer_output_reads_back(name):
    scenario, params = round_trip_scenario(name)
    data = json.loads(json.dumps(scenario_to_dict(scenario, params)))
    loaded, loaded_params = scenario_from_dict(data)
    assert loaded_params == params
    assert loaded.grid == scenario.grid
    assert (loaded.mode, loaded.channels, loaded.walls, loaded.trajectory) == (
        scenario.mode, scenario.channels, scenario.walls, scenario.trajectory
    )
    assert (loaded.seed, loaded.rounds, loaded.calibration_rounds) == (
        scenario.seed, scenario.rounds, scenario.calibration_rounds
    )
    for got, want in zip(loaded.layout.nodes, scenario.layout.nodes, strict=True):
        assert (got.id, got.x, got.y) == (want.id, want.x, want.y)
        assert got.antenna_zero_bearing == pytest.approx(want.antenna_zero_bearing, abs=1e-12)


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "scenario file not found: {path}"),
        ("dir", "{path}: cannot read scenario file ("),
        (b"{\"mode\": \"omni\xff\"}", "{path}: cannot read scenario file ("),
        (b"{nope", "{path}: not valid JSON ("),
        (b"[1, 2]", "{path}: scenario must be a JSON object"),
    ],
    ids=["missing", "directory", "not-utf8", "invalid-json", "not-an-object"],
)
def test_scenario_file_problems_name_the_path(tmp_path, content, message):
    path = tmp_path / "scenario.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(ScenarioError) as info:
        read_scenario_file(path)
    assert str(info.value).startswith(message.format(path=path))
