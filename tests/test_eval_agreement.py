"""The array stages of `evaluate_method` against the per-config, per-tick
oracles in `eval_oracles`, on the comparison's own check set: los_7node and
nlos_7node seeds 0-9, all twelve comparison configs.

Statistics, baselines, selections, argmax measurements and Kalman estimates
must be bit-identical. Images come from one matrix product instead of one
per tick, so they only agree to rounding: within 1e-12 absolute.
"""

import numpy as np
import pytest

import rti.experiment as experiment
from rti.experiment import (
    METHODS,
    SELECTION_METHODS,
    SelectionConfig,
    compare,
    mode_for_method,
    scenario_reconstructor,
    streams_for_method,
)
from rti.linkstats import RssTrace
from rti.selection import select_for_layout
from rti.presets import COMPARISON_IMAGING, comparison_config, los_7node, nlos_7node
from eval_oracles import compute_stat_matrix, track_per_tick

PRESETS = {"los_7node": los_7node, "nlos_7node": nlos_7node}
CONFIGS = [
    comparison_config(method, SelectionConfig(method=selector))
    for method in METHODS
    for selector in (SELECTION_METHODS if method.startswith("dRTI") else ("all",))
]
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
    return runs, evaluations, reconstructors[preset]


def test_statistics_and_selection_match_the_per_config_oracle(evaluated):
    runs, evaluations, _ = evaluated
    for config, ev in zip(CONFIGS, evaluations):
        scenario, trace, _truth = runs[mode_for_method(config.method)]
        cal = scenario.calibration_rounds
        if ev.selection is not None:
            # A fresh trace object shares no cached tables with the one the
            # comparison evaluated.
            fresh = RssTrace(trace.mode, trace.tx_power_dbm, trace.streams, trace.rssi)
            expected = select_for_layout(
                scenario.layout, config.selection.method, trace=fresh,
                window=(0, cal - 1), k=config.selection.k,
                n_transmitter=config.selection.n_transmitter,
                n_receiver=config.selection.n_receiver,
            )
            assert ev.selection.pairs_by_link == expected.pairs_by_link
        streams = streams_for_method(
            scenario.layout, config.method, scenario.channels, ev.selection
        )
        stats, baseline = compute_stat_matrix(
            trace, scenario.layout, config.method, streams, config.window, cal,
            scenario.rounds,
        )
        assert np.array_equal(ev.stats, stats), config.method
        assert np.array_equal(ev.baseline, baseline), config.method


def test_images_and_tracks_match_the_per_tick_oracle(evaluated):
    runs, evaluations, reconstructor = evaluated
    for config, ev in zip(CONFIGS, evaluations):
        scenario = runs[mode_for_method(config.method)][0]
        images, measurements, estimates = track_per_tick(
            reconstructor, ev.stats - ev.baseline, scenario.grid, config.tracking,
            scenario.calibration_rounds,
        )
        label = f"{config.method}/{config.selection.method}"
        assert np.max(np.abs(ev.images - images)) <= IMAGE_TOLERANCE, label
        assert np.array_equal(ev.measurements, measurements), label
        assert np.array_equal(ev.estimates, estimates), label
