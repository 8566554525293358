"""The array stages of `evaluate_method` against the per-config, per-tick
oracles in `eval_oracles`, `select_oracles` and `stat_oracles`, on the
comparison's own check set: los_7node and nlos_7node seeds 0-9, all twelve
comparison configs.

Selections, stream columns, statistics, baselines, argmax measurements,
Kalman estimates and the fn/fp sweep must be bit-identical. Images come from
one matrix product instead of one per tick, so they only agree to rounding:
within 1e-12 absolute.
"""

import numpy as np
import pytest

import rti.experiment as experiment
from rti.experiment import (
    compare,
    mode_for_method,
    scenario_reconstructor,
    streams_for_method,
)
from rti.presets import COMPARISON_IMAGING, comparison_configs, los_7node, nlos_7node
from rti.simulator import obstructed_mask
import eval_oracles
import select_oracles
from stat_oracles import fn_fp_sweep_broadcast, key_columns

PRESETS = {"los_7node": los_7node, "nlos_7node": nlos_7node}
CONFIGS = list(comparison_configs().values())
IMAGE_TOLERANCE = 1e-12


CHECK_SET = [(preset, seed) for preset in PRESETS for seed in range(10)]


@pytest.fixture(scope="module")
def reconstructors():
    return {}


@pytest.fixture(scope="module", params=CHECK_SET, ids=[f"{p}-{s}" for p, s in CHECK_SET])
def evaluated(request, reconstructors):
    """One `compare` per (preset, seed), with the traces it simulated. Tests
    run grouped by seed, so only one seed's results are held at a time."""
    preset, seed = request.param
    scenario, params = PRESETS[preset](seed)
    if preset not in reconstructors:
        reconstructors[preset] = scenario_reconstructor(scenario, COMPARISON_IMAGING)
    runs = {}
    simulate = experiment.simulate

    def recording(moded, params):
        runs[moded.mode] = (moded, *simulate(moded, params))
        return runs[moded.mode][1:]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "simulate", recording)
        evaluations = compare(scenario, params, CONFIGS, reconstructors[preset])
    return runs, evaluations, reconstructors[preset], params


def test_statistics_and_selection_match_the_per_config_oracle(evaluated):
    runs, evaluations, _, _ = evaluated
    for config, ev in zip(CONFIGS, evaluations):
        scenario, trace, _truth = runs[mode_for_method(config.method)]
        cal = scenario.calibration_rounds
        label = f"{config.method}/{config.selection.method}"
        expected = None
        if ev.selection is not None:
            expected = select_oracles.select_for_layout(
                scenario.layout, config.selection.method, trace=trace,
                window=(0, cal - 1), k=config.selection.k,
                n_transmitter=config.selection.n_transmitter,
                n_receiver=config.selection.n_receiver,
            )
            assert ev.selection.links == tuple(scenario.layout.links)
            assert {
                link: list(pairs) for link, pairs in ev.selection.pairs_by_link.items()
            } == expected.pairs_by_link, label
        streams = eval_oracles.streams_for_method(
            scenario.layout, config.method, scenario.channels, expected
        )
        columns = streams_for_method(
            trace, scenario.layout, config.method, scenario.channels, ev.selection
        )
        assert columns.tolist() == [
            [key_columns(trace)[key] for key in streams[link]] for link in scenario.layout.links
        ], label
        stats, baseline = eval_oracles.compute_stat_matrix(
            trace, scenario.layout, config.method, streams, config.window, cal,
            scenario.rounds,
        )
        assert np.array_equal(ev.stats, stats), label
        assert np.array_equal(ev.baseline, baseline), label


def test_images_and_tracks_match_the_per_tick_oracle(evaluated):
    runs, evaluations, reconstructor, params = evaluated
    for config, ev in zip(CONFIGS, evaluations):
        scenario, _trace, truth = runs[mode_for_method(config.method)]
        images, measurements, estimates = eval_oracles.track_per_tick(
            reconstructor, ev.stats - ev.baseline, scenario.grid, config.tracking,
            scenario.calibration_rounds,
        )
        label = f"{config.method}/{config.selection.method}"
        assert np.max(np.abs(ev.images - images)) <= IMAGE_TOLERANCE, label
        assert np.array_equal(ev.measurements, measurements), label
        assert np.array_equal(
            eval_oracles.argmax_positions(ev.images, scenario.grid), ev.measurements
        ), label
        assert np.array_equal(ev.estimates, estimates), label
        obstructed = obstructed_mask(scenario.layout, truth, params.person_lambda_m)
        thresholds = np.unique(np.linspace(ev.stats.min(), ev.stats.max(), 50))
        sweep = fn_fp_sweep_broadcast(ev.stats, obstructed, thresholds)
        assert ev.metrics["fn_fp"] == [
            {"threshold": tau, "fn_rate": fn, "fp_rate": fp} for tau, fn, fp in sweep
        ], label
