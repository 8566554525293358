import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rti.experiment as experiment
import rti.imaging
import rti.linkstats
import rti.traceio
import rti.tracking
from rti.experiment import (
    ConfigError,
    ExperimentConfig,
    ImagingConfig,
    PhaseError,
    SelectionConfig,
    TrackingConfig,
    compare,
    config_from_dict,
    evaluate_method,
    mode_for_method,
    phase,
    read_config_file,
    compute_stat_matrix,
    run_experiment,
    streams_for_method,
    write_evaluation,
)
from rti.geometry import PATTERN_PAIRS, NetworkLayout, NodeSpec, build_grid, build_weight_matrix
from rti.imaging import build_reconstructor
from rti.presets import (
    COMPARISON_IMAGING,
    COMPARISON_TRACKING,
    comparison_config,
    comparison_configs,
    los_7node,
    nlos_2node,
    nlos_7node,
    ring_layout,
)
from rti.linkstats import (
    RssTrace,
    calibration_deviation,
    first_heard,
    fn_fp_sweep,
    window_variance,
)
from rti.selection import select_for_layout
from rti.simulator import (
    PropagationParams,
    Scenario,
    Trajectory,
    Wall,
    obstructed_mask,
    read_scenario_file,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
    write_scenario_file,
)
from rti.traceio import read_trace_file, read_truth_file

import eval_oracles
import trace_oracles
from stat_oracles import (
    channel_stream,
    key_columns,
    omni_stream,
    pattern_stream,
    stream_keys,
    trace_from_keys,
)

QUIET = PropagationParams(
    fading_std_db=0.0, noise_std_db=0.0, agitation_std_db=0.0
)


def square_layout() -> NetworkLayout:
    corners = [(0.3, 0.3), (2.7, 0.3), (2.7, 2.7), (0.3, 2.7)]
    nodes = []
    for i, (x, y) in enumerate(corners):
        bearing = math.atan2(1.5 - y, 1.5 - x)
        nodes.append(NodeSpec(i, x, y, bearing))
    return NetworkLayout(nodes)


def square_scenario(mode="omni", rounds=15, cal=12, seed=0, trajectory=None) -> Scenario:
    if trajectory is None:
        trajectory = Trajectory(waypoints=((1.5, 1.5),), speed=0.0)
    return Scenario(
        layout=square_layout(),
        grid=build_grid((0.0, 0.0), 3.0, 3.0, 0.2),
        mode=mode,
        trajectory=trajectory,
        seed=seed,
        rounds=rounds,
        calibration_rounds=cal,
    )


def make_config(tmp_path, scenario, params, method="mRTI", **kwargs) -> ExperimentConfig:
    scen_path = tmp_path / "scenario.json"
    write_scenario_file(scen_path, scenario, params)
    return ExperimentConfig(
        scenario=scen_path, method=method, out_dir=tmp_path / "out", **kwargs
    )


# ------------------------------------------------------------ configuration


def test_rejects_unknown_method(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario=tmp_path, method="xRTI", out_dir=tmp_path)


def test_rejects_tiny_window(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario=tmp_path, method="mRTI", out_dir=tmp_path, window=1)


def test_selection_only_applies_to_pattern_methods(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(
            scenario=tmp_path,
            method="mRTI",
            out_dir=tmp_path,
            selection=SelectionConfig(method="fadelevel", k=9),
        )


def test_selection_config_bounds():
    with pytest.raises(ConfigError):
        SelectionConfig(method="prr", k=37)
    with pytest.raises(ConfigError):
        SelectionConfig(method="location", n_transmitter=0)
    with pytest.raises(ConfigError):
        SelectionConfig(method="best")


def test_imaging_and_tracking_config_bounds():
    with pytest.raises(ConfigError):
        ImagingConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        ImagingConfig(regularizer="ridge")
    with pytest.raises(ConfigError):
        ImagingConfig(ellipse_excess_m=-0.1)
    with pytest.raises(ConfigError):
        TrackingConfig(q=0.0)
    with pytest.raises(ConfigError):
        TrackingConfig(r=-1.0)


def test_config_from_dict_resolves_relative_paths():
    cfg = config_from_dict(
        {"scenario": "scen.json", "method": "mRTI", "out_dir": "runs/a"},
        base_dir=Path("/base"),
    )
    assert cfg.scenario == Path("/base/scen.json")
    assert cfg.out_dir == Path("/base/runs/a")


def test_config_from_dict_keeps_absolute_paths():
    cfg = config_from_dict(
        {"scenario": "/abs/scen.json", "method": "vRTI", "out_dir": "/abs/out"},
        base_dir=Path("/base"),
    )
    assert cfg.scenario == Path("/abs/scen.json")


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        config_from_dict(
            {"scenario": "s", "method": "mRTI", "out_dir": "o", "alpha": 5}
        )


def test_config_from_dict_requires_core_fields():
    with pytest.raises(ConfigError, match="missing required field"):
        config_from_dict({"method": "mRTI", "out_dir": "o"})


def test_config_from_dict_rejects_bad_subsection_keys():
    with pytest.raises(ConfigError, match="bad config field"):
        config_from_dict(
            {
                "scenario": "s",
                "method": "dRTI-mean",
                "out_dir": "o",
                "selection": {"method": "all", "bogus": 1},
            }
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("window", 12.7),
        ("window", "abc"),
        ("window", True),
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", False),
        ("write_images", "false"),
        ("write_images", 1),
    ],
)
def test_config_from_dict_checks_field_types(field, value):
    data = {"scenario": "s", "method": "mRTI", "out_dir": "o", field: value}
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "seed must be in [0, 2**32), got -1"),
        (2**32, "seed must be in [0, 2**32), got 4294967296"),
    ],
)
def test_config_seed_must_fit_32_bits(seed, message):
    data = {"scenario": "s", "method": "mRTI", "out_dir": "o", "seed": seed}
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value) == message
    cfg = config_from_dict({**data, "seed": 2**32 - 1})
    assert cfg.seed == 2**32 - 1


def test_config_from_dict_keeps_typed_fields():
    cfg = config_from_dict(
        {"scenario": "s", "method": "vRTI", "out_dir": "o",
         "window": 12, "seed": 3, "write_images": True}
    )
    assert (cfg.window, cfg.seed, cfg.write_images) == (12, 3, True)
    cfg = config_from_dict({"scenario": "s", "method": "vRTI", "out_dir": "o", "seed": None})
    assert (cfg.window, cfg.seed, cfg.write_images) == (10, None, False)


def test_read_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        read_config_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        read_config_file(bad)
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        read_config_file(lst)


BAD_CONFIG_SECTIONS = [
    ({"selection": {"method": "all", "voxel": 1}}, "selection has unknown field 'voxel'"),
    ({"imaging": {"lambda": 0.8}}, "imaging has unknown field 'lambda'"),
    ({"tracking": {"q": 0.3, "R": 0.5}}, "tracking has unknown field 'R'"),
    ({"selection": 5}, "selection must be an object, got 5"),
    ({"tracking": [0.3, 0.5]}, "tracking must be an object, got [0.3, 0.5]"),
    ({"imaging": {"alpha": "25"}}, "imaging.alpha must be a finite number, got '25'"),
    ({"selection": {"k": 2.5}}, "selection.k must be an integer, got 2.5"),
    ({"selection": {"n_receiver": True}}, "selection.n_receiver must be an integer, got True"),
    ({"selection": {"method": 3}}, "selection.method must be a string, got 3"),
    ({"tracking": {"q": True}}, "tracking.q must be a finite number, got True"),
    ({"imaging": {"alpha": math.nan}}, "imaging.alpha must be a finite number, got nan"),
    ({"imaging": {"alpha": math.inf}}, "imaging.alpha must be a finite number, got inf"),
    ({"tracking": {"r": math.nan}}, "tracking.r must be a finite number, got nan"),
    ({"tracking": {"r": -math.inf}}, "tracking.r must be a finite number, got -inf"),
    ({"imaging": {"ellipse_excess_m": math.nan}},
     "imaging.ellipse_excess_m must be a finite number, got nan"),
    ({"imaging": {"ellipse_excess_m": math.inf}},
     "imaging.ellipse_excess_m must be a finite number, got inf"),
    ({"imaging": {"regularizer": None}}, "imaging.regularizer must be a string, got None"),
]


@pytest.mark.parametrize(
    "extra, message", BAD_CONFIG_SECTIONS, ids=[m for _, m in BAD_CONFIG_SECTIONS]
)
def test_config_sections_name_the_bad_field(extra, message):
    data = {"scenario": "s", "method": "dRTI-mean", "out_dir": "o", **extra}
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value) == f"bad config field: {message}"


def test_config_sections_keep_their_range_messages_and_json_ints():
    data = {"scenario": "s", "method": "dRTI-mean", "out_dir": "o"}
    with pytest.raises(ConfigError) as info:
        config_from_dict({**data, "selection": {"k": 37}})
    assert str(info.value) == "selection k must be in [1, 36]"
    cfg = config_from_dict({**data, "imaging": {"alpha": 25}, "tracking": {"q": 1, "r": 2}})
    assert cfg.imaging == ImagingConfig(alpha=25.0) and cfg.tracking == TrackingConfig(1.0, 2.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ImagingConfig(alpha=math.nan), "imaging alpha must be a finite number, got nan"),
        (lambda: ImagingConfig(ellipse_excess_m=math.inf),
         "imaging ellipse_excess_m must be a finite number, got inf"),
        (lambda: TrackingConfig(q=math.nan), "tracking q must be a finite number, got nan"),
        (lambda: TrackingConfig(r=math.inf), "tracking r must be a finite number, got inf"),
        (lambda: TrackingConfig(q=True), "tracking q must be a finite number, got True"),
        (lambda: SelectionConfig(k=2.5), "selection k must be an integer, got 2.5"),
        (lambda: SelectionConfig(n_transmitter=2.0),
         "selection n_transmitter must be an integer, got 2.0"),
        (lambda: SelectionConfig(n_receiver=True),
         "selection n_receiver must be an integer, got True"),
    ],
)
def test_config_sections_reject_at_construction_what_their_json_rejects(make, message):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == message


def test_config_from_dict_passes_only_the_fields_present(monkeypatch):
    passed = []

    class Capturing(ExperimentConfig):
        def __init__(self, **kwargs):
            passed.append(sorted(kwargs))
            super().__init__(**kwargs)

    monkeypatch.setattr(experiment, "ExperimentConfig", Capturing)
    data = {"scenario": "s", "method": "vRTI", "out_dir": "o"}
    cfg = config_from_dict(data)
    assert (cfg.window, cfg.seed, cfg.write_images) == (10, None, False)
    config_from_dict({**data, "window": 4, "imaging": {}})
    assert passed == [["method", "out_dir", "scenario"],
                      ["imaging", "method", "out_dir", "scenario", "window"]]


@pytest.mark.parametrize("field", ["scenario", "out_dir"])
def test_config_paths_must_be_strings(field):
    data = {"scenario": "s", "method": "mRTI", "out_dir": "o", field: 5}
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value) == f"{field} must be a path, got 5"


def test_compare_needs_a_trajectory():
    scenario = replace(square_scenario(), trajectory=None)
    with pytest.raises(ConfigError) as info:
        compare(scenario, QUIET, [comparison_config("mRTI")])
    assert str(info.value) == "experiment scenarios need a trajectory to track"


def test_mode_follows_method():
    assert mode_for_method("mRTI") == "omni"
    assert mode_for_method("vRTI") == "omni"
    assert mode_for_method("cRTI-mean") == "multichannel"
    assert mode_for_method("cRTI-var") == "multichannel"
    assert mode_for_method("dRTI-mean") == "directional"
    assert mode_for_method("dRTI-var") == "directional"


# ------------------------------------------------------------ pipeline


def test_stationary_person_lights_up_the_link_midpoint(tmp_path):
    # Noise-free omni run with the person parked at the crossing point of
    # the two diagonal links: every argmax lands within the ellipse excess
    # of that spot.
    scenario = square_scenario()
    config = make_config(tmp_path, scenario, QUIET)
    result = run_experiment(config)
    midpoint = np.array([1.5, 1.5])
    dist = np.hypot(*(result.measurements - midpoint).T)
    assert (dist <= 1.5).all()
    assert result.metrics["rmse_kalman_m"] < 1.5


def test_seed_override_reaches_the_simulation(tmp_path):
    scenario = square_scenario(seed=0)
    config = make_config(tmp_path, scenario, QUIET, seed=7)
    result = run_experiment(config)
    assert result.metrics["seed"] == 7


def test_variance_window_must_fit_calibration(tmp_path):
    scenario = square_scenario(cal=5)
    config = make_config(tmp_path, scenario, QUIET, method="vRTI")
    with pytest.raises(ConfigError, match="window"):
        run_experiment(config)
    assert not config.out_dir.exists()
    trace, truth = simulate(scenario, QUIET)
    with pytest.raises(ConfigError, match="window"):
        evaluate_method(config, scenario, QUIET, trace, truth)


def test_experiment_writes_the_full_artefact_set(tmp_path):
    scenario = square_scenario(mode="directional", rounds=6, cal=4)
    config = make_config(
        tmp_path,
        scenario,
        QUIET,
        method="dRTI-mean",
        write_images=True,
    )
    run_experiment(config)
    out = config.out_dir
    for name in ("trace.csv", "truth.csv", "stats.csv", "trajectory.csv",
                 "metrics.json", "selection.txt"):
        assert (out / name).exists(), name
    frames = sorted((out / "images").iterdir())
    # one csv and one pgm per tracking tick
    assert len(frames) == 2 * scenario.rounds
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["method"] == "dRTI-mean"
    assert metrics["selection"] == {"method": "all", "pairs_per_link": 36}
    block = metrics["reconstructor"]
    assert (block["links"], block["voxels"]) == (
        scenario.layout.num_links,
        scenario.grid.num_voxels,
    )
    # a->b and b->a share a weight row, so each distinct row serves two links
    assert block["distinct_rows"] * 2 == block["links"]
    assert 0.0 <= block["residual"] <= 1e-6


def test_rerun_is_byte_identical(tmp_path):
    scenario = square_scenario(rounds=8, cal=4)
    names = ("trace.csv", "truth.csv", "stats.csv", "trajectory.csv", "metrics.json")
    blobs = []
    for tag in ("a", "b"):
        scen_path = tmp_path / f"scen_{tag}.json"
        write_scenario_file(scen_path, scenario, QUIET)
        config = ExperimentConfig(
            scenario=scen_path, method="mRTI", out_dir=tmp_path / tag
        )
        run_experiment(config)
        blobs.append({n: (config.out_dir / n).read_bytes() for n in names})
    assert blobs[0] == blobs[1]


def test_stats_csv_matches_in_memory_statistics(tmp_path):
    scenario = square_scenario(rounds=5, cal=4)
    config = make_config(tmp_path, scenario, QUIET)
    result = run_experiment(config)
    lines = (config.out_dir / "stats.csv").read_text().strip().splitlines()
    assert lines[0] == "tick,tx_id,rx_id,stat"
    assert len(lines) == 1 + scenario.rounds * scenario.layout.num_links
    tick, tx, rx, stat = lines[1].split(",")
    assert int(tick) == scenario.calibration_rounds
    link_index = scenario.layout.links.index((int(tx), int(rx)))
    assert float(stat) == result.stats[0, link_index]


@pytest.mark.parametrize("mode, method", [("omni", "mRTI"), ("directional", "dRTI-var")])
def test_stats_csv_is_the_repr_writers_bytes(tmp_path, mode, method):
    scenario = square_scenario(mode, rounds=6, cal=12)
    config = make_config(tmp_path, scenario, PropagationParams(), method)
    result = run_experiment(config)
    oracle = tmp_path / "oracle.csv"
    trace_oracles.write_stats_file(oracle, scenario.layout.links, result.stats, scenario.calibration_rounds)
    assert (config.out_dir / "stats.csv").read_bytes() == oracle.read_bytes()


def test_stats_csv_writes_nan_and_values_repr_writes_its_own_way(tmp_path, monkeypatch):
    # Blocks of part of a tick and of several ticks.
    scenario = square_scenario(rounds=5, cal=4)
    rng = np.random.default_rng(8)
    specials = [np.nan, np.inf, -0.0, 0.0, 1e-9, 0.5, 3.0, 1e16, 2.0**50 + 0.25, -12.345]
    stats = rng.choice(specials, (7, scenario.layout.num_links))
    stats[:, 0] = rng.normal(2.0, 1.0, 7)
    oracle = tmp_path / "oracle.csv"
    trace_oracles.write_stats_file(oracle, scenario.layout.links, stats, 998)
    for block_lines in (3, 2048):
        monkeypatch.setattr(rti.traceio, "_BLOCK_LINES", block_lines)
        experiment._write_stats(tmp_path / "stats.csv", scenario, stats, 998)
        assert (tmp_path / "stats.csv").read_bytes() == oracle.read_bytes()


def test_trajectory_file_agrees_with_reported_rmse(tmp_path):
    scenario = square_scenario(rounds=10, cal=4)
    config = make_config(tmp_path, scenario, QUIET)
    result = run_experiment(config)
    rows = [
        line.split(",")
        for line in (config.out_dir / "trajectory.csv").read_text().strip().splitlines()[1:]
    ]
    err = np.array([float(r[-1]) for r in rows])
    assert math.sqrt(np.mean(err**2)) == pytest.approx(
        result.metrics["rmse_kalman_m"], abs=1e-12
    )
    cdf_1m = float(np.mean(err <= 1.0))
    assert result.metrics["error_cdf"]["1.0"] == pytest.approx(cdf_1m)


def test_full_pattern_set_equals_fade_level_with_all_pairs(tmp_path):
    # Ranking 36 of 36 pairs by fade level selects everything, so the
    # pipeline must produce the same numbers; only the selection echo in
    # the report may differ.
    scenario = square_scenario(mode="directional", rounds=8, cal=10, seed=3)
    params = PropagationParams(fading_std_db=4.0)
    trace, truth = simulate(scenario, params)
    results = {}
    for sel in (SelectionConfig(), SelectionConfig(method="fadelevel", k=36)):
        config = ExperimentConfig(
            scenario=Path("unused"),
            method="dRTI-mean",
            out_dir=Path("unused"),
            selection=sel,
        )
        ev = evaluate_method(config, scenario, params, trace, truth)
        results[sel.method] = ev
    all_metrics = dict(results["all"].metrics)
    fade_metrics = dict(results["fadelevel"].metrics)
    assert all_metrics.pop("selection") == {"method": "all", "pairs_per_link": 36}
    assert fade_metrics.pop("selection") == {"method": "fadelevel", "pairs_per_link": 36}
    assert all_metrics == fade_metrics
    assert np.array_equal(results["all"].stats, results["fadelevel"].stats)


def test_method_must_match_trace_contents():
    scenario = square_scenario(rounds=5, cal=4)
    trace, truth = simulate(scenario, QUIET)
    config = ExperimentConfig(
        scenario=Path("unused"), method="cRTI-mean", out_dir=Path("unused")
    )
    multi = replace(scenario, mode="multichannel")
    with pytest.raises(PhaseError, match="statistics: trace has no records"):
        evaluate_method(config, multi, QUIET, trace, truth)


def test_a_trace_of_another_mode_is_one_short_phase_error():
    # 42 links x 36 pairs: listing every missing stream took 25,747 characters.
    scenario, params = los_7node(0)
    scenario = replace(scenario, mode="omni", rounds=5, calibration_rounds=4)
    trace, truth = simulate(scenario, params)
    config = ExperimentConfig(scenario=Path("unused"), method="dRTI-mean", out_dir=Path("unused"))
    directional = replace(scenario, mode="directional")
    with pytest.raises(PhaseError) as info:
        evaluate_method(config, directional, params, trace, truth)
    assert str(info.value) == (
        "statistics: trace has no records for dRTI-mean, which needs mode "
        "'directional'; the trace's mode is 'omni'"
    )


def test_metrics_report_the_mode_of_the_trace():
    scenario = square_scenario(mode="directional", rounds=5, cal=4)
    trace, truth = simulate(scenario, QUIET)
    config = ExperimentConfig(scenario=Path("unused"), method="dRTI-mean", out_dir=Path("unused"))
    ev = evaluate_method(config, replace(scenario, mode="omni"), QUIET, trace, truth)
    assert ev.metrics["mode"] == "directional"


def test_missing_streams_past_the_first_ten_are_counted():
    layout = square_layout()
    trace = random_trace(layout, "omni", 10, seed=3)
    selection = select_for_layout(layout, "all")
    named = ", ".join(f"0->1 pair ({t},{r})" for t, r in PATTERN_PAIRS[:10])
    with pytest.raises(PhaseError) as info:
        streams_for_method(trace, layout, "dRTI-var", (), selection)
    assert str(info.value) == (
        f"statistics: trace has no records for streams {named} "
        f"and {layout.num_links * 36 - 10} more"
    )
    full = random_trace(layout, "multichannel", 10, seed=3)
    keep = [i for i, key in enumerate(stream_keys(full)) if key[2] != 15 or key[:2] == (3, 0)]
    trace = RssTrace("multichannel", 0.0, full.links[keep], full.kinds[keep], full.rssi[:, keep])
    with pytest.raises(PhaseError) as info:
        streams_for_method(trace, layout, "cRTI-mean", (11, 15), None)
    links = [link for link in layout.links if link != (3, 0)]
    assert str(info.value) == (
        "statistics: trace has no records for streams "
        + ", ".join(f"{tx}->{rx} channel 15" for tx, rx in links[:10])
        + " and 1 more"
    )


def test_failure_after_simulation_leaves_trace_on_disk(tmp_path):
    # Two crossing walls block every link, so no stream calibrates; the
    # already-simulated trace must survive the failure.
    scenario = square_scenario(rounds=5, cal=4)
    scenario = replace(
        scenario,
        walls=(
            Wall(1.5, -1.0, 1.5, 4.0, loss_db=200.0),
            Wall(-1.0, 1.5, 4.0, 1.5, loss_db=200.0),
        ),
    )
    config = make_config(tmp_path, scenario, QUIET)
    with pytest.raises(PhaseError, match="statistics"):
        run_experiment(config)
    assert (config.out_dir / "trace.csv").exists()
    assert (config.out_dir / "truth.csv").exists()
    assert not (config.out_dir / "metrics.json").exists()


def test_selection_failure_names_the_phase(tmp_path):
    scenario = square_scenario(mode="directional", rounds=5, cal=4)
    scenario = replace(
        scenario,
        walls=(
            Wall(1.5, -1.0, 1.5, 4.0, loss_db=200.0),
            Wall(-1.0, 1.5, 4.0, 1.5, loss_db=200.0),
        ),
    )
    config = make_config(
        tmp_path,
        scenario,
        QUIET,
        method="dRTI-mean",
        selection=SelectionConfig(method="prr", k=9),
    )
    with pytest.raises(PhaseError, match="selection"):
        run_experiment(config)


def test_silent_link_contributes_no_evidence(tmp_path):
    # One wall blocks only the left edge pair; those streams never arrive,
    # their links are pruned, and the rest of the network still images.
    scenario = square_scenario(rounds=5, cal=4)
    scenario = replace(scenario, walls=(Wall(0.0, 1.5, 0.6, 1.5, loss_db=200.0),))
    config = make_config(tmp_path, scenario, QUIET)
    result = run_experiment(config)
    blocked = {(0, 3), (3, 0)}
    for link in blocked:
        idx = scenario.layout.links.index(link)
        assert (result.stats[:, idx] == 0.0).all()
    alive = scenario.layout.links.index((0, 2))
    assert result.stats[:, alive].max() > 0.0
    assert np.isfinite(result.metrics["rmse_kalman_m"])


def test_tracking_failure_names_the_phase():
    # Process noise this large overflows the filter's covariance.
    scenario = square_scenario(rounds=3, cal=4)
    trace, truth = simulate(scenario, QUIET)
    config = ExperimentConfig(
        scenario=Path("unused"), method="mRTI", out_dir=Path("unused"),
        tracking=TrackingConfig(q=1e308),
    )
    with pytest.raises(PhaseError, match="^tracking: "):
        evaluate_method(config, scenario, QUIET, trace, truth)


@pytest.mark.parametrize("stage", ["reconstruct_images", "argmax_positions"])
def test_imaging_failure_names_the_phase(monkeypatch, stage):
    def failing(*args):
        raise ValueError("no image")

    monkeypatch.setattr(experiment, stage, failing)
    scenario = square_scenario(rounds=3, cal=4)
    trace, truth = simulate(scenario, QUIET)
    config = ExperimentConfig(scenario=Path("unused"), method="mRTI", out_dir=Path("unused"))
    with pytest.raises(PhaseError, match="^imaging: no image$"):
        evaluate_method(config, scenario, QUIET, trace, truth)


def square_reconstructor(
    scenario, layout=None, grid=None, alpha=5.0, regularizer="difference", lam=1.5
):
    """A reconstructor for the square scenario at the default imaging
    settings, or for another layout, grid, alpha, regularizer or ellipse."""
    grid = grid or scenario.grid
    weights = build_weight_matrix(grid, layout or scenario.layout, lam)
    return build_reconstructor(weights, alpha, regularizer, grid=grid)


@pytest.mark.parametrize(
    "mismatch, message",
    [
        ({"layout": NetworkLayout(square_layout().nodes[:3])}, "links 6, the run has 12"),
        ({"grid": build_grid((0.0, 0.0), 3.0, 3.0, 0.3)}, "voxels 100, the run has 225"),
        ({"alpha": 1.0}, "alpha 1.0, the run has 5.0"),
        ({"regularizer": "identity"}, "regularizer 'identity', the run has 'difference'"),
        ({"lam": 0.8}, "ellipse_excess_m 0.8, the run has 1.5"),
    ],
)
def test_prebuilt_reconstructor_must_match_the_run(monkeypatch, mismatch, message):
    scenario = square_scenario(mode="directional", rounds=3, cal=4)
    trace, truth = simulate(scenario, QUIET)
    reconstructor = square_reconstructor(scenario, **mismatch)
    config = in_memory("dRTI-mean", selection=SelectionConfig(method="fadelevel"))

    def no_phase(*args, **kwargs):
        raise AssertionError("a phase ran before the reconstructor was checked")

    monkeypatch.setattr(experiment, "select_for_layout", no_phase)
    with pytest.raises(PhaseError, match="^imaging: prebuilt reconstructor has " + message):
        evaluate_method(config, scenario, QUIET, trace, truth, reconstructor)


def test_a_reconstructor_from_a_bare_array_is_rejected_on_the_run_path():
    scenario = square_scenario(rounds=3, cal=4)
    trace, truth = simulate(scenario, QUIET)
    weights = build_weight_matrix(scenario.grid, scenario.layout, 1.5)
    bare = build_reconstructor(weights.entries, 5.0, "difference", grid=scenario.grid)
    with pytest.raises(PhaseError) as info:
        evaluate_method(in_memory("mRTI"), scenario, QUIET, trace, truth, bare)
    assert str(info.value) == (
        "imaging: prebuilt reconstructor has ellipse_excess_m None, the run has 1.5"
    )


def test_phase_names_a_failure_once():
    failure = PhaseError("statistics: no stream")
    with pytest.raises(PhaseError) as info, phase("imaging"):
        raise failure
    assert info.value is failure
    with pytest.raises(PhaseError) as info, phase("output"), phase("simulate"):
        raise ValueError("radio on fire")
    assert str(info.value) == "simulate: radio on fire"
    assert isinstance(info.value.__cause__, ValueError)
    with pytest.raises(PhaseError) as info, phase("output"):
        raise KeyError("x")
    assert str(info.value) == "output: 'x'"
    assert isinstance(info.value.__cause__, KeyError)


def test_an_output_failure_of_any_kind_names_the_phase(tmp_path, monkeypatch):
    def failing(*args):
        raise ValueError("no room")

    monkeypatch.setattr(experiment, "write_trajectory", failing)
    scenario = square_scenario(rounds=3, cal=4)
    with pytest.raises(PhaseError, match="^output: no room$"):
        run_experiment(make_config(tmp_path, scenario, QUIET))
    assert (tmp_path / "out" / "trace.csv").exists()


@pytest.mark.parametrize("selector", ["all", "fadelevel"])
def test_stream_first_heard_late_in_calibration_is_left_out(selector):
    # On this through-wall seed, stream 5->0 pair (3,5) is first heard at
    # tick 39 of 40 calibration ticks: its 10-tick variance is undefined over
    # the whole calibration region, so it has no baseline and is dropped
    # like a stream never heard at all.
    scenario, params = nlos_7node(4275914066)
    scenario = replace(scenario, mode="directional")
    trace, truth = simulate(scenario, params)
    config = ExperimentConfig(
        scenario=Path("unused"),
        method="dRTI-var",
        out_dir=Path("unused"),
        selection=SelectionConfig(method=selector),
        imaging=COMPARISON_IMAGING,
        tracking=COMPARISON_TRACKING,
    )
    ev = evaluate_method(config, scenario, params, trace, truth)
    assert np.isfinite(ev.stats).all()
    assert np.isfinite(ev.metrics["rmse_kalman_m"])

    late = (5, 0, None, 3, 5)
    cal = scenario.calibration_rounds
    first = np.flatnonzero(~np.isnan(trace.rssi[:, key_columns(trace)[late]]))[0]
    assert cal - 10 < first < cal
    streams = eval_oracles.streams_for_method(scenario.layout, "dRTI-var", (), ev.selection)
    assert late in streams[(5, 0)]
    streams[(5, 0)] = [key for key in streams[(5, 0)] if key != late]
    stats, baseline = eval_oracles.compute_stat_matrix(
        trace, scenario.layout, "dRTI-var", streams, 10, cal, scenario.rounds
    )
    assert np.array_equal(stats, ev.stats)
    assert np.array_equal(baseline, ev.baseline)


def random_trace(layout, mode, ticks, seed, channels=(11, 15, 18, 21)):
    """A trace with 30% packet loss, some streams first heard late, some
    never, and link 0->1 silent."""
    rng = np.random.default_rng(seed)
    if mode == "omni":
        streams = [omni_stream(lk) for lk in layout.links]
    elif mode == "multichannel":
        streams = [channel_stream(lk, ch) for lk in layout.links for ch in channels]
    else:
        streams = [pattern_stream(lk, p) for lk in layout.links for p in PATTERN_PAIRS]
    rssi = rng.normal(-60.0, 5.0, (ticks, len(streams)))
    rssi[rng.random(rssi.shape) < 0.3] = np.nan
    late = rng.random(len(streams)) < 0.2
    rssi[: rng.integers(1, ticks), late] = np.nan
    rssi[:, rng.random(len(streams)) < 0.05] = np.nan
    rssi[:, [s[:2] == (0, 1) for s in streams]] = np.nan
    return trace_from_keys(mode, 0.0, streams, rssi)


STAT_CASES = [
    ("mRTI", "all"), ("vRTI", "all"), ("cRTI-mean", "all"), ("cRTI-var", "all"),
    ("dRTI-mean", "all"), ("dRTI-var", "all"), ("dRTI-mean", "location"),
    ("dRTI-var", "location"),
]


@pytest.mark.parametrize("method, selector", STAT_CASES)
@pytest.mark.parametrize(
    "first_tick, num_ticks, window",
    [(12, 15, 5), (12, 1, 5), (5, 3, 5), (1, 4, 2), (1, 1, 2)],
)
def test_stat_matrix_matches_the_per_link_oracle(method, selector, first_tick, num_ticks, window):
    # Silent links, dead streams among live ones, and one-tick regions:
    # (5, 3, 5) gives a variance calibration region of one tick and
    # first_tick 1 a mean one; numpy sums a one-tick gather pairwise.
    layout = square_layout()
    mode = experiment.mode_for_method(method)
    if method.endswith("var") or method == "vRTI":
        first_tick = max(first_tick, window)
    trace = random_trace(layout, mode, first_tick + num_ticks, seed=first_tick * 100 + num_ticks)
    selection = select_for_layout(layout, selector) if mode == "directional" else None
    columns = streams_for_method(trace, layout, method, (15, 11, 21, 18), selection)
    streams = eval_oracles.streams_for_method(layout, method, (15, 11, 21, 18), selection)
    expected = eval_oracles.compute_stat_matrix(
        trace, layout, method, streams, window, first_tick, num_ticks
    )
    stats, baseline = compute_stat_matrix(
        trace, layout, method, columns, window, first_tick, num_ticks
    )
    assert stats.flags.c_contiguous and stats.shape == (num_ticks, layout.num_links)
    assert np.array_equal(stats, expected[0], equal_nan=True)
    assert np.array_equal(baseline, expected[1])
    assert not stats[:, 0].any() and baseline[0] == 0.0  # the silent link 0->1


@pytest.mark.parametrize(
    "mode, method, missing, named",
    [
        ("directional", "dRTI-mean", [(2, 1, None, 1, 1), (0, 1, None, 2, 3)],
         "0->1 pair (2,3), 2->1 pair (1,1)"),
        ("omni", "vRTI", [(3, 0, None, None, None)], "3->0 omni"),
        ("multichannel", "cRTI-mean", [(1, 2, 18, None, None), (1, 2, 11, None, None)],
         "1->2 channel 11, 1->2 channel 18"),
    ],
)
def test_missing_stream_is_a_phase_error_naming_it(mode, method, missing, named):
    layout = square_layout()
    full = random_trace(layout, mode, 10, seed=3)
    keep = [i for i, key in enumerate(stream_keys(full)) if key not in missing]
    trace = RssTrace(mode, 0.0, full.links[keep], full.kinds[keep], full.rssi[:, keep])
    selection = select_for_layout(layout, "all") if mode == "directional" else None
    message = f"statistics: trace has no records for streams {named}"
    with pytest.raises(PhaseError) as info:
        streams_for_method(trace, layout, method, (11, 15, 18, 21), selection)
    assert str(info.value) == message
    streams = eval_oracles.streams_for_method(layout, method, (11, 15, 18, 21), selection)
    with pytest.raises(PhaseError) as info:
        eval_oracles.compute_stat_matrix(trace, layout, method, streams, 3, 5, 5)
    assert str(info.value) == message


@pytest.mark.parametrize("method", ["dRTI-mean", "dRTI-var"])
def test_stat_matrix_peak_memory_stays_near_the_gathered_block(method):
    # A 12-node directional ring (132 links, 4,752 streams), fade-level
    # selection of 9 pairs per link. With the per-trace arrays computed
    # first, the statistics may hold at most twice the (links, 9, ticks)
    # block of the rows they sum; a padded copy of the whole (streams, ticks)
    # array would be 4.8x that block.
    layout = ring_layout(12, 2.9, (3.0, 3.0))
    first_tick, num_ticks, window = 20, 100, 10
    trace = random_trace(layout, "directional", first_tick + num_ticks, seed=9)
    trace = RssTrace(  # no silent link: fade-level selection needs every link heard
        "directional", 0.0, trace.links, trace.kinds,
        np.where(np.isnan(trace.rssi).all(axis=0), -70.0, trace.rssi),
    )
    selection = select_for_layout(layout, "fadelevel", trace=trace, window=(0, first_tick - 1))
    columns = streams_for_method(trace, layout, method, (), selection)
    first_heard(trace)
    if method == "dRTI-var":
        window_variance(trace, window)
    else:
        calibration_deviation(trace, first_tick)
    block = layout.num_links * 9 * num_ticks * 8
    tracemalloc.start()
    try:
        compute_stat_matrix(trace, layout, method, columns, window, first_tick, num_ticks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * block


# ------------------------------------------------------------ comparison


def in_memory(method, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        scenario=Path("unused"), method=method, out_dir=Path("unused"), **kwargs
    )


@pytest.fixture()
def count_simulations(monkeypatch):
    modes = []

    def counting(scenario, params):
        modes.append(scenario.mode)
        return simulate(scenario, params)

    monkeypatch.setattr(experiment, "simulate", counting)
    return modes


def test_compare_matches_evaluate_method_per_config(count_simulations):
    scenario = square_scenario(mode="omni", rounds=8, cal=12, seed=5)
    params = PropagationParams(fading_std_db=4.0)
    configs = [
        in_memory("mRTI"),
        in_memory("dRTI-mean", selection=SelectionConfig(method="fadelevel", k=9)),
        in_memory("vRTI", imaging=COMPARISON_IMAGING),
        in_memory("cRTI-var", tracking=COMPARISON_TRACKING),
        in_memory("dRTI-var"),
    ]
    evaluations = compare(scenario, params, configs)
    assert count_simulations == ["omni", "directional", "multichannel"]
    assert len(evaluations) == len(configs)
    for config, ev in zip(configs, evaluations):
        moded = replace(scenario, mode=mode_for_method(config.method))
        trace, truth = simulate(moded, params)
        expected = evaluate_method(config, moded, params, trace, truth)
        assert ev.metrics == expected.metrics
        assert np.array_equal(ev.estimates, expected.estimates)


def test_compare_builds_one_reconstructor_per_imaging_config(monkeypatch):
    built = []

    def counting(weights, alpha, regularizer, grid=None):
        built.append((alpha, regularizer))
        return build_reconstructor(weights, alpha, regularizer, grid=grid)

    monkeypatch.setattr(experiment, "build_reconstructor", counting)
    scenario = square_scenario(rounds=3, cal=4)
    configs = [
        in_memory("mRTI"),
        in_memory("mRTI", imaging=COMPARISON_IMAGING),
        in_memory("mRTI", tracking=COMPARISON_TRACKING),
    ]
    compare(scenario, QUIET, configs)
    assert built == [(5.0, "difference"), (25.0, "identity")]
    built.clear()
    reconstructor = build_reconstructor(
        build_weight_matrix(scenario.grid, scenario.layout, 0.8), 25.0, "identity"
    )
    compare(scenario, QUIET, [replace(c, imaging=COMPARISON_IMAGING) for c in configs],
            reconstructor)
    assert built == []


def test_compare_checks_a_prebuilt_reconstructor_before_simulating(count_simulations):
    scenario = square_scenario(rounds=3, cal=4)
    reconstructor = square_reconstructor(scenario)
    configs = [in_memory("mRTI"), in_memory("cRTI-mean", imaging=COMPARISON_IMAGING)]
    with pytest.raises(PhaseError, match="imaging: .*alpha 5.0, the run has 25.0"):
        compare(scenario, QUIET, configs, reconstructor)
    assert count_simulations == []


def test_compare_simulates_a_shared_mode_once(count_simulations):
    scenario = square_scenario(mode="omni", rounds=3, cal=12)
    configs = [
        in_memory("dRTI-mean", selection=SelectionConfig(method=method))
        for method in ("all", "location", "fadelevel", "prr")
    ] + [in_memory("dRTI-var"), in_memory("dRTI-var", window=4)]
    evaluations = compare(scenario, QUIET, configs)
    assert count_simulations == ["directional"]
    assert [ev.metrics["mode"] for ev in evaluations] == ["directional"] * 6


def test_compare_computes_the_truth_mask_once_per_truth(monkeypatch):
    # Every mode's simulation walks the same truth, so the twelve-config
    # comparison needs the obstruction mask once, not once per config.
    masks = []

    def counting(layout, truth, lam):
        masks.append(lam)
        return obstructed_mask(layout, truth, lam)

    monkeypatch.setattr(experiment, "obstructed_mask", counting)
    scenario = square_scenario(mode="omni", rounds=4, cal=12, seed=7)
    configs = [in_memory(m) for m in ("mRTI", "vRTI", "cRTI-mean", "dRTI-mean", "dRTI-var")]
    evaluations = compare(scenario, QUIET, configs)
    assert masks == [QUIET.person_lambda_m]
    _, truth = simulate(scenario, QUIET)
    mask = obstructed_mask(scenario.layout, truth, QUIET.person_lambda_m)
    for ev in evaluations:
        thresholds = [row["threshold"] for row in ev.metrics["fn_fp"]]
        expected = fn_fp_sweep(ev.stats, mask, np.array(thresholds))
        assert ev.metrics["fn_fp"] == [
            {"threshold": tau, "fn_rate": fn, "fp_rate": fp} for tau, fn, fp in expected
        ]


def test_truth_mask_is_built_once_per_compare_and_found_for_an_equal_layout():
    # `_truth_mask` is cached by layout, truth and lambda. Layouts compare by
    # their nodes, so a layout read back from its scenario dict finds the
    # mask the first compare built.
    scenario = square_scenario(mode="omni", rounds=4, cal=12, seed=7)
    configs = [in_memory(m) for m in ("mRTI", "vRTI", "cRTI-mean", "dRTI-mean", "dRTI-var")]
    experiment._truth_mask.cache_clear()
    compare(scenario, QUIET, configs)
    info = experiment._truth_mask.cache_info()
    assert (info.misses, info.hits) == (1, len(configs) - 1)
    again, params = scenario_from_dict(scenario_to_dict(scenario, QUIET))
    assert again.layout is not scenario.layout and again == scenario
    compare(again, params, configs[:1])
    info = experiment._truth_mask.cache_info()
    assert (info.misses, info.hits) == (1, len(configs))


def test_compare_checks_every_window_before_simulating(count_simulations):
    scenario, params = nlos_2node()
    scenario = replace(scenario, calibration_rounds=8)
    configs = [in_memory("mRTI"), in_memory("dRTI-mean"), in_memory("vRTI", window=10)]
    with pytest.raises(ConfigError, match="window"):
        compare(scenario, params, configs)
    assert count_simulations == []


def test_compare_names_the_simulate_phase(monkeypatch):
    def failing(scenario, params):
        raise ValueError("radio on fire")

    monkeypatch.setattr(experiment, "simulate", failing)
    with pytest.raises(PhaseError, match="simulate: radio on fire"):
        compare(square_scenario(rounds=3, cal=4), QUIET, [in_memory("mRTI")])


def test_run_experiment_simulates_once_through_the_shared_step(tmp_path, count_simulations):
    scenario = square_scenario(rounds=3, cal=4)
    run_experiment(make_config(tmp_path, scenario, QUIET, method="dRTI-mean"))
    assert count_simulations == ["directional"]


@pytest.mark.parametrize(
    "factory, config",
    [
        (los_7node, replace(
            comparison_config("dRTI-mean", SelectionConfig(method="fadelevel")),
            write_images=True,
        )),
        (nlos_2node, comparison_config("mRTI")),
        (nlos_2node, comparison_config("cRTI-var")),
        (nlos_2node, comparison_config("dRTI-var", SelectionConfig(method="prr"))),
    ],
    ids=["los_7node-dRTI-mean-fadelevel", "nlos_2node-mRTI", "nlos_2node-cRTI-var",
         "nlos_2node-dRTI-var-prr"],
)
def test_a_run_directory_reanalyses_to_itself_byte_for_byte(tmp_path, factory, config):
    scen_path = tmp_path / "scenario.json"
    write_scenario_file(scen_path, *factory(0))
    run = tmp_path / "run"
    run_experiment(replace(config, scenario=scen_path, out_dir=run))

    scenario, params = read_scenario_file(scen_path)
    scenario = replace(scenario, mode=mode_for_method(config.method))
    trace = read_trace_file(run / "trace.csv")
    _ticks, truth = read_truth_file(run / "truth.csv")
    again = tmp_path / "again"
    evaluation = evaluate_method(config, scenario, params, trace, truth)
    write_evaluation(again, config, scenario, evaluation, truth)

    recorded = {p.relative_to(run) for p in run.rglob("*") if p.is_file()}
    written = {p.relative_to(again) for p in again.rglob("*") if p.is_file()}
    assert written == recorded - {Path("trace.csv"), Path("truth.csv")}
    frames = [p for p in written if p.parts[0] == "images"]
    assert len(frames) == (2 * scenario.rounds if config.write_images else 0)
    for name in sorted(written):
        assert (again / name).read_bytes() == (run / name).read_bytes(), name


# ------------------------------------------------------------ array stages


def los_mrti():
    scenario, params = los_7node(0)
    scenario = replace(scenario, mode="omni")
    trace, truth = simulate(scenario, params)
    return comparison_config("mRTI"), scenario, params, trace, truth


def test_truth_of_the_wrong_shape_is_a_truth_phase_error():
    config, scenario, params, trace, truth = los_mrti()
    with pytest.raises(PhaseError, match=r"truth: expected shape \(120, 2\), got \(115, 2\)"):
        evaluate_method(config, scenario, params, trace, truth[:115])


def test_non_finite_truth_is_a_truth_phase_error():
    config, scenario, params, trace, truth = los_mrti()
    with pytest.raises(PhaseError, match=r"truth: row 0 \(tick 40\) is not finite: \[nan, nan\]"):
        evaluate_method(config, scenario, params, trace, np.full_like(truth, np.nan))
    truth = truth.copy()
    truth[7, 1] = np.inf
    with pytest.raises(PhaseError, match=r"truth: row 7 \(tick 47\) is not finite"):
        evaluate_method(config, scenario, params, trace, truth)


@pytest.mark.parametrize("extra_rounds", [20, -10])
def test_a_trace_of_another_length_is_rejected_naming_both_counts(extra_rounds):
    scenario, params = nlos_2node()
    longer = replace(scenario, rounds=scenario.rounds + extra_rounds)
    trace, truth = simulate(longer, params)
    ticks = scenario.total_ticks + extra_rounds
    with pytest.raises(PhaseError) as info:
        evaluate_method(in_memory("dRTI-mean"), scenario, params, trace, truth)
    assert str(info.value) == f"trace: {ticks} ticks, the scenario has {scenario.total_ticks}"


def test_a_trace_with_channels_the_scenario_does_not_list_is_rejected(monkeypatch):
    scenario, params = nlos_2node()
    scenario = replace(scenario, mode="multichannel")
    trace, truth = simulate(scenario, params)
    assert scenario.channels == (11, 15, 18, 21)

    def no_phase(*args, **kwargs):
        raise AssertionError("a phase ran")

    monkeypatch.setattr(experiment, "streams_for_method", no_phase)
    with pytest.raises(PhaseError) as info:
        evaluate_method(
            in_memory("cRTI-mean"), replace(scenario, channels=(11,)), params, trace, truth
        )
    assert str(info.value) == "trace: stream 0->1 channel 15 is not a stream of the scenario"


def test_a_trace_with_streams_on_links_the_layout_lacks_is_rejected(monkeypatch):
    scenario, params = nlos_2node()
    scenario = replace(scenario, mode="omni")
    trace, truth = simulate(scenario, params)
    extra = RssTrace(
        mode=trace.mode,
        tx_power_dbm=trace.tx_power_dbm,
        links=np.concatenate((trace.links, [(0, 7), (7, 0)])),
        kinds=np.concatenate((trace.kinds, [0, 0])),
        rssi=np.column_stack([trace.rssi, trace.rssi[:, :2]]),
    )

    def no_phase(*args, **kwargs):
        raise AssertionError("a phase ran")

    monkeypatch.setattr(experiment, "streams_for_method", no_phase)
    with pytest.raises(PhaseError) as info:
        evaluate_method(in_memory("mRTI"), scenario, params, extra, truth)
    assert str(info.value) == "trace: stream 0->7 omni is not a stream of the scenario"


def _same_evaluation(a, b) -> None:
    assert a.metrics == b.metrics
    for name in ("stats", "baseline", "images", "measurements", "estimates", "errors"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_a_shared_trace_gives_the_results_of_a_fresh_one():
    # The derived arrays a trace keeps must depend on the window and
    # calibration length they were computed for, and on nothing else.
    scenario, params = nlos_2node(1)
    configs = [
        in_memory("dRTI-var", window=4),
        in_memory("dRTI-var"),
        in_memory("dRTI-mean", selection=SelectionConfig(method="prr", k=5)),
        in_memory("dRTI-mean", selection=SelectionConfig(method="fadelevel", k=3)),
        in_memory("dRTI-var", window=4),
    ]
    for cal in (20, 12):
        moded = replace(scenario, calibration_rounds=cal)
        shared, truth = simulate(moded, params)
        for config in configs:
            once = evaluate_method(config, moded, params, shared, truth)
            fresh = evaluate_method(config, moded, params, *simulate(moded, params))
            _same_evaluation(once, fresh)
            _same_evaluation(evaluate_method(config, moded, params, shared, truth), once)


def test_compare_prepares_each_trace_once(monkeypatch):
    calls = {"forward_fill": 0, "batch_window_variance": 0}
    for name in calls:
        original = getattr(rti.linkstats, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rti.linkstats, name, counting)

    def per_tick(*args, **kwargs):
        raise AssertionError("per-tick call in evaluate_method")

    monkeypatch.setattr(rti.imaging, "reconstruct", per_tick)
    monkeypatch.setattr(rti.imaging, "argmax_voxel", per_tick)
    monkeypatch.setattr(rti.tracking.KalmanTracker, "update", per_tick)
    configs = list(comparison_configs().values())
    assert len(configs) == 12
    scenario, params = nlos_2node(2)
    compare(scenario, params, configs)
    # One carry-forward array per trace (omni, multichannel, directional),
    # one window variance per (trace, window).
    assert calls == {"forward_fill": 3, "batch_window_variance": 3}


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "tick, message",
    [
        (50, "statistics: link 0->1 tick 50 has a non-finite statistic inf"),
        (20, "statistics: link 0->1 has a non-finite baseline inf"),
    ],
)
def test_non_finite_link_statistics_fail_loudly(tick, message):
    # A finite RSSI of 1e160, which the trace reader accepts, overflows
    # dRTI-var's window variance in tracking or in calibration. dRTI-mean's
    # deviations stay finite, so it still evaluates.
    scenario, params = los_7node(3)
    scenario = replace(scenario, mode="directional")
    trace, truth = simulate(scenario, params)
    rssi = trace.rssi.copy()
    rssi[tick, 0] = 1e160
    trace = RssTrace(trace.mode, trace.tx_power_dbm, trace.links, trace.kinds, rssi)
    with pytest.raises(PhaseError) as info:
        evaluate_method(in_memory("dRTI-var"), scenario, params, trace, truth)
    assert str(info.value) == message
    evaluation = evaluate_method(in_memory("dRTI-mean"), scenario, params, trace, truth)
    assert np.isfinite(evaluation.stats).all() and np.isfinite(evaluation.baseline).all()
