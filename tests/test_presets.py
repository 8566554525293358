from pathlib import Path

import pytest

from rti.experiment import SelectionConfig
from rti.presets import PRESETS, comparison_config, comparison_configs, ring_layout
from rti.simulator import read_scenario_file

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


def test_ring_layout_geometry():
    layout = ring_layout(7, 2.9, (3.0, 3.0))
    assert len(layout.nodes) == 7
    for node in layout.nodes:
        r = ((node.x - 3.0) ** 2 + (node.y - 3.0) ** 2) ** 0.5
        assert r == pytest.approx(2.9, abs=1e-5)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_builds_and_trajectory_stays_inside(name):
    scenario, params = PRESETS[name](seed=4)
    assert scenario.seed == 4
    assert scenario.trajectory is not None
    for point in scenario.trajectory.waypoints:
        assert scenario.grid.contains(point)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_checked_in_scenario_files_match_presets(name):
    scenario, params = PRESETS[name](seed=0)
    from_file = read_scenario_file(SCENARIO_DIR / f"{name}.json")
    assert from_file == (scenario, params)


def test_comparison_configs_are_the_twelve_labelled_configs():
    configs = comparison_configs()
    drti = [f"{m}-{s}" for m in ("dRTI-mean", "dRTI-var") for s in ("all", "location", "fadelevel", "prr")]
    assert list(configs) == ["mRTI", "vRTI", "cRTI-mean", "cRTI-var", *drti]
    for label, config in configs.items():
        method, selector = config.method, config.selection.method
        assert config == comparison_config(method, SelectionConfig(method=selector))
        assert label == (f"{method}-{selector}" if method.startswith("dRTI") else method)
        assert selector == "all" or method.startswith("dRTI")
