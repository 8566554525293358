"""Canned scenarios mirroring the experiment deployments.

Three setups, each a factory taking a seed:

* ``los_7node``: seven nodes ringing an open 6 x 6 m area, a person walking
  a closed loop. The line-of-sight comparison ground.
* ``nlos_7node``: the same ring with two interior walls at 5 dB, a person
  touring the rooms through the doorway gaps. Through-wall links keep only a
  quarter of the person's mean shadow, pattern pairs flutter with their
  directivity, and stream baselines wander slowly: the through-wall
  comparison ground.
* ``nlos_2node``: a single through-wall link with a person crossing it
  repeatedly, for stream-level obstruction response measurements.
"""

from __future__ import annotations

import math
from pathlib import Path

from .experiment import METHODS, SELECTION_METHODS, ExperimentConfig, ImagingConfig
from .experiment import SelectionConfig, TrackingConfig
from .geometry import NetworkLayout, NodeSpec, build_grid
from .simulator import DEFAULT_CHANNELS, PropagationParams, Scenario, Trajectory, Wall

# Settings every method-comparison run shares. The reconstruction ellipse is
# deliberately narrower than the simulator's obstruction ellipses so the
# inversion never sees data generated by its own forward model.
COMPARISON_IMAGING = ImagingConfig(
    alpha=25.0, regularizer="identity", ellipse_excess_m=0.8
)
COMPARISON_TRACKING = TrackingConfig(q=0.3, r=0.5)


def comparison_config(
    method: str, selection: SelectionConfig = SelectionConfig()
) -> ExperimentConfig:
    """A method at the comparison settings, for `experiment.compare`.

    Its scenario and out_dir are placeholders: `compare` reads and writes
    no files.
    """
    return ExperimentConfig(
        scenario=Path("in-memory"),
        method=method,
        out_dir=Path("unused"),
        selection=selection,
        imaging=COMPARISON_IMAGING,
        tracking=COMPARISON_TRACKING,
    )


def comparison_configs() -> dict[str, ExperimentConfig]:
    """The twelve configs of a method comparison, by label, in order: each
    method, and each dRTI method under every selector as `method-selector`."""
    return {
        f"{method}-{selector}" if method.startswith("dRTI") else method:
            comparison_config(method, SelectionConfig(method=selector))
        for method in METHODS
        for selector in (SELECTION_METHODS if method.startswith("dRTI") else ("all",))
    }


def ring_layout(
    num_nodes: int,
    radius: float,
    centre: tuple[float, float],
    angle_offset: float = 0.0,
) -> NetworkLayout:
    """Nodes evenly spaced on a circle, antennas pointing at the centre."""
    nodes = []
    for i in range(num_nodes):
        theta = 2.0 * math.pi * i / num_nodes + angle_offset
        x = centre[0] + radius * math.cos(theta)
        y = centre[1] + radius * math.sin(theta)
        bearing = math.atan2(centre[1] - y, centre[0] - x)
        nodes.append(NodeSpec(i, round(x, 6), round(y, 6), round(bearing, 6)))
    return NetworkLayout(nodes)


def _ring_7() -> NetworkLayout:
    return ring_layout(7, 2.9, (3.0, 3.0), angle_offset=math.pi / 7)


def los_7node(seed: int = 0) -> tuple[Scenario, PropagationParams]:
    grid = build_grid((0.0, 0.0), 6.0, 6.0, 0.2)
    trajectory = Trajectory(
        waypoints=((1.2, 4.8), (4.8, 4.8), (1.2, 1.2), (4.8, 1.2), (1.2, 4.8)),
        speed=0.15,
    )
    scenario = Scenario(
        layout=_ring_7(),
        grid=grid,
        mode="directional",
        channels=DEFAULT_CHANNELS,
        walls=(),
        trajectory=trajectory,
        seed=seed,
        rounds=120,
        calibration_rounds=40,
    )
    params = PropagationParams(
        fading_std_db=9.0,
        fade_floor_db=6.0,
        agitation_std_db=3.5,
    )
    return scenario, params


def nlos_7node(seed: int = 0) -> tuple[Scenario, PropagationParams]:
    grid = build_grid((0.0, 0.0), 6.0, 6.0, 0.2)
    # Doorway gaps at the south end of the vertical wall and the east end
    # of the horizontal one; the tour passes through both.
    walls = (
        Wall(3.0, 1.6, 3.0, 6.0),
        Wall(3.0, 3.0, 5.2, 3.0),
    )
    trajectory = Trajectory(
        waypoints=(
            (1.2, 4.8), (1.2, 1.2), (5.6, 1.2),
            (5.6, 4.8), (3.4, 4.8), (4.6, 3.4),
        ),
        speed=0.15,
    )
    scenario = Scenario(
        layout=_ring_7(),
        grid=grid,
        mode="directional",
        channels=DEFAULT_CHANNELS,
        walls=walls,
        trajectory=trajectory,
        seed=seed,
        rounds=105,
        calibration_rounds=40,
    )
    params = PropagationParams(
        fading_std_db=9.0,
        fade_floor_db=6.0,
        agitation_std_db=3.5,
        agitation_lambda_m=1.0,
        agitation_directivity_gain=0.9,
        drift_std_db=3.0,
        drift_corr=0.97,
        wall_shadow_factor=0.25,
    )
    return scenario, params


def nlos_2node(seed: int = 0) -> tuple[Scenario, PropagationParams]:
    layout = NetworkLayout(
        [NodeSpec(0, 0.5, 1.5, 0.0), NodeSpec(1, 3.5, 1.5, math.pi)]
    )
    grid = build_grid((0.0, 0.0), 4.0, 3.0, 0.2)
    walls = (Wall(1.2, 0.0, 1.2, 3.0),)
    # Oscillate across the link so variance windows keep straddling
    # obstructed and clear samples.
    lo, hi = (2.0, 0.4), (2.0, 2.6)
    trajectory = Trajectory(waypoints=(lo, hi, lo, hi, lo, hi), speed=0.2)
    scenario = Scenario(
        layout=layout,
        grid=grid,
        mode="directional",
        channels=DEFAULT_CHANNELS,
        walls=walls,
        trajectory=trajectory,
        seed=seed,
        rounds=60,
        calibration_rounds=20,
    )
    params = PropagationParams(noise_std_db=0.5)
    return scenario, params


PRESETS = {
    "los_7node": los_7node,
    "nlos_7node": nlos_7node,
    "nlos_2node": nlos_2node,
}
