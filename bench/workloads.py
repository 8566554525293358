"""The three benchmark workloads: inputs, one-time set-up, one operation, checks.

Each workload puts most of its time into the layers a later change is likely
to optimise on one side, and almost none on the other, so that a gain in one
layer shows on one workload and the prediction on another is "no change":

================  ========================================  =======================
workload          loads                                     bypasses
================  ========================================  =======================
los_drti_run      simulator, trace CSV write and read,      reconstructor build
                  linkstats: 242k per-record trace rows     beyond N=900 (< 2%)
nlos_compare      simulator with walls and drift, all six   CSV I/O, per-operation
                  statistics, all four selectors (prr)      reconstructor build
ring20_online     N x N reconstructor build (set-up), per-  every trace layer
                  frame reconstruct, argmax and Kalman
================  ========================================  =======================

Every input is generated here from the workload seed. An operation returns
its timings (seconds, library calls only) and the list of failed checks.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from rti.experiment import (
    METHODS,
    SELECTION_METHODS,
    ExperimentConfig,
    ImagingConfig,
    SelectionConfig,
    TrackingConfig,
    mode_for_method,
)
from rti.geometry import build_grid
from rti.presets import (
    COMPARISON_IMAGING,
    COMPARISON_TRACKING,
    los_7node,
    nlos_7node,
    ring_layout,
)
from rti.simulator import scenario_to_dict
from rti.tracking import KalmanParams

from harness import median, supported_percentile

# A repeated evaluation of the same inputs must reproduce the RMSE recorded
# the first time; the pipeline is deterministic, so this only absorbs
# last-digit float noise.
RMSE_TOLERANCE_M = 1e-9
# Six antenna directions at each end of a link.
PATTERN_PAIRS_PER_LINK = 36


def scenario_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# The through-wall comparison's own scenario seeds: acceptance criteria 05-07
# and scripts/run_nlos_comparison.py evaluate nlos_7node on seeds 0-9.
# Arbitrary seeds are not used there because the library raises PhaseError on
# some of them (about one in 30): dRTI-var with the `all` or `fadelevel`
# selector keeps a stream first heard in the last ticks of calibration, whose
# variance window is still undefined when tracking starts. That is a library
# defect for the project's tests to pin, not a cost for this benchmark to time.
NLOS_COMPARISON_SEEDS = tuple(range(10))


def comparison_seeds(seed: int, count: int) -> list[int]:
    """`count` of the comparison seeds, chosen and ordered by the workload seed."""
    order = np.random.default_rng(seed).permutation(len(NLOS_COMPARISON_SEEDS))
    return [NLOS_COMPARISON_SEEDS[k] for k in order[:count]]


class References:
    """RMSE per evaluated input, recorded the first time the input is seen."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}

    def check(self, key: str, rmse: float) -> list[str]:
        if not math.isfinite(rmse):
            return [f"{key}: RMSE is {rmse}"]
        ref = self.values.setdefault(key, rmse)
        if abs(rmse - ref) > RMSE_TOLERANCE_M:
            return [f"{key}: RMSE {rmse!r} differs from the reference {ref!r}"]
        return []

    def mean(self) -> float:
        return float(np.mean(list(self.values.values())))


class Workload:
    name = ""
    setup_repeats = 0  # one-time library calls, repeated to report a median
    warmup_ops = 1     # checked but untimed operations before timing starts
    min_ops = 1        # timed operations a run completes, however long they take
    block = 1          # consecutive operations that share traced/untraced mode

    def __init__(self, seed: int, workdir: Path):
        self.refs = References()

    def setup(self, lib) -> None:
        pass

    def prepare(self, lib) -> None:
        """Untimed work after set-up and before the first operation."""

    def operation(self, lib, i: int) -> tuple[dict[str, float], list[str]]:
        raise NotImplementedError

    def named_metrics(self, timings: list[dict[str, float]]) -> dict[str, tuple[float, str, str]]:
        """The workload's own end-to-end names: value, unit, note."""
        raise NotImplementedError

    def op_ms(self, t: dict[str, float]) -> float:
        return 1e3 * sum(t.values())

    def rmse_m(self) -> float:
        return self.refs.mean()


def _median_of(timings, key: str) -> tuple[float, int]:
    return median([t[key] for t in timings]), len(timings)


class LosDrtiRun(Workload):
    """The paper's headline configuration on the user's path.

    Operation: `read_config_file` + `run_experiment` into a run directory,
    then re-analysis of what it wrote: `read_trace_file` + `read_truth_file`
    + `evaluate_method` with the same config. Two scenario seeds alternate.
    """

    name = "los_drti_run"
    min_ops = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.configs = []
        for s in scenario_seeds(seed, self.min_ops):
            scenario, params = los_7node(s)
            (workdir / f"scenario-{s}.json").write_text(
                json.dumps(scenario_to_dict(scenario, params), indent=2, sort_keys=True)
            )
            config = {
                "scenario": f"scenario-{s}.json",
                "method": "dRTI-mean",
                "out_dir": f"run-{s}",
                "selection": {"method": "fadelevel", "k": 9},
                "imaging": asdict(COMPARISON_IMAGING),
                "tracking": asdict(COMPARISON_TRACKING),
            }
            path = workdir / f"config-{s}.json"
            path.write_text(json.dumps(config, indent=2))
            rows = (
                scenario.layout.num_links * PATTERN_PAIRS_PER_LINK
                * (scenario.calibration_rounds + scenario.rounds)
            )
            self.configs.append((s, path, workdir / f"run-{s}", rows))

    def operation(self, lib, i):
        s, path, out_dir, rows = self.configs[i % len(self.configs)]
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        config = lib.read_config_file(path)
        result = lib.run_experiment(config)
        t1 = time.perf_counter()
        trace = lib.read_trace_file(out_dir / "trace.csv")
        _ticks, truth = lib.read_truth_file(out_dir / "truth.csv")
        scenario, params = lib.read_scenario_file(config.scenario)
        scenario = replace(scenario, mode=mode_for_method(config.method))
        again = lib.evaluate_method(config, scenario, params, trace, truth)
        t2 = time.perf_counter()

        problems = []
        with open(out_dir / "trace.csv", "rb") as fh:
            written = sum(1 for _ in fh) - 1
        if written != rows:
            problems.append(f"trace.csv holds {written} rows, expected {rows} (streams x ticks)")
        if again.metrics != result.metrics:
            differ = sorted(
                k for k in result.metrics if again.metrics.get(k) != result.metrics[k]
            )
            problems.append(f"re-analysis metrics differ from the run's: {differ}")
        problems += self.refs.check(f"seed {s}", result.metrics["rmse_kalman_m"])
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"run_s": t1 - t0, "reanalyse_s": t2 - t1}, problems

    def named_metrics(self, timings):
        run, n = _median_of(timings, "run_s")
        reanalyse, _ = _median_of(timings, "reanalyse_s")
        return {
            "run_s": (run, "s", f"median of {n}"),
            "reanalyse_s": (reanalyse, "s", f"median of {n}"),
        }


class NlosCompare(Workload):
    """One seed of the through-wall comparison, all in memory.

    Operation: simulate `nlos_7node` in the omni, multichannel and
    directional modes, then twelve `evaluate_method` calls: mRTI, vRTI,
    cRTI-mean, cRTI-var, and dRTI-mean and dRTI-var under each selector. All
    share one reconstructor built in set-up. Three of the comparison's
    scenario seeds, chosen by the workload seed, take turns.
    """

    name = "nlos_compare"
    setup_repeats = 5
    min_ops = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.scenarios = [(s, *nlos_7node(s)) for s in comparison_seeds(seed, self.min_ops)]
        self.configs = []
        for method in METHODS:
            selectors = SELECTION_METHODS if method.startswith("dRTI") else ("all",)
            for sel in selectors:
                config = ExperimentConfig(
                    scenario=Path("in-memory"),
                    method=method,
                    out_dir=Path("unused"),
                    selection=SelectionConfig(method=sel),
                    imaging=COMPARISON_IMAGING,
                    tracking=COMPARISON_TRACKING,
                )
                self.configs.append((f"{method}/{sel}", config))

    def setup(self, lib):
        _, scenario, _ = self.scenarios[0]
        weights = lib.build_weight_matrix(
            scenario.grid, scenario.layout, COMPARISON_IMAGING.ellipse_excess_m
        )
        self.reconstructor = lib.build_reconstructor(
            weights,
            COMPARISON_IMAGING.alpha,
            COMPARISON_IMAGING.regularizer,
            grid=scenario.grid,
        )

    def operation(self, lib, i):
        s, scenario, params = self.scenarios[i % len(self.scenarios)]
        t0 = time.perf_counter()
        traces = {
            mode: lib.simulate(replace(scenario, mode=mode), params)
            for mode in ("omni", "multichannel", "directional")
        }
        results = []
        for label, config in self.configs:
            mode = mode_for_method(config.method)
            trace, truth = traces[mode]
            ev = lib.evaluate_method(
                config, replace(scenario, mode=mode), params, trace, truth,
                self.reconstructor,
            )
            results.append((label, ev.metrics["rmse_kalman_m"]))
        t1 = time.perf_counter()
        problems = []
        for label, rmse in results:
            problems += self.refs.check(f"seed {s} {label}", rmse)
        return {"seed_s": t1 - t0}, problems

    def named_metrics(self, timings):
        seed_s, n = _median_of(timings, "seed_s")
        return {"seed_s": (seed_s, "s", f"median of {n}")}


def loop_positions(waypoints, speed: float, count: int) -> np.ndarray:
    """Positions at ticks 0..count-1 of a walker looping a closed polyline."""
    points = np.asarray(waypoints, dtype=float)
    seg = np.diff(points, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    ends = np.cumsum(seg_len)
    s = (speed * np.arange(count)) % ends[-1]
    i = np.minimum(np.searchsorted(ends, s, side="right"), len(seg) - 1)
    frac = (s - (ends[i] - seg_len[i])) / seg_len[i]
    return points[i] + frac[:, None] * seg[i]


class Ring20Online(Workload):
    """Online imaging on a 20-node ring at 0.1 m voxels (L=380, N=3600).

    Set-up: `build_weight_matrix` + `build_reconstructor` with the library's
    default difference regulariser. Operation: one frame, i.e. `reconstruct`
    -> `argmax_voxel` -> `KalmanTracker.update`. Frame statistics come from a
    walker looping the `los_7node` path: a link is shadowed while the walker
    is inside its 0.5 m ellipse, plus seeded noise. The shadow depth is the
    same on every link so that the seed moves only the noise, and the track
    RMSE stays comparable across seeds. A pass over the frames
    starts a fresh track; every frame's estimate must match the reference
    pass made before timing.
    """

    name = "ring20_online"
    setup_repeats = 3
    warmup_ops = 0  # the reference pass warms up instead
    frames = 3000
    block = frames
    min_ops = frames
    shadow_excess_m = 0.5
    shadow_db = 3.0
    noise_db = 2.0
    imaging = ImagingConfig(alpha=25.0, ellipse_excess_m=0.5)
    tracking = TrackingConfig()

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.layout = ring_layout(20, 2.9, (3.0, 3.0))
        self.grid = build_grid((0.0, 0.0), 6.0, 6.0, 0.1)
        path, _ = los_7node(0)
        self.truth = loop_positions(
            path.trajectory.waypoints, path.trajectory.speed, self.frames
        )
        tx = np.array([self.layout.node(a).position for a, _ in self.layout.links])
        rx = np.array([self.layout.node(b).position for _, b in self.layout.links])
        p = self.truth[:, None, :]
        excess = (
            np.hypot(*(p - tx).transpose(2, 0, 1))
            + np.hypot(*(p - rx).transpose(2, 0, 1))
            - np.hypot(*(tx - rx).T)
        )
        rng = np.random.default_rng(seed)
        self.stats = np.where(excess < self.shadow_excess_m, self.shadow_db, 0.0) + rng.normal(
            0.0, self.noise_db, size=excess.shape
        )
        self.params = KalmanParams(q=self.tracking.q, r=self.tracking.r)

    def setup(self, lib):
        weights = lib.build_weight_matrix(
            self.grid, self.layout, self.imaging.ellipse_excess_m
        )
        self.reconstructor = lib.build_reconstructor(
            weights, self.imaging.alpha, self.imaging.regularizer, grid=self.grid
        )

    def _frame(self, lib, i):
        frame = lib.reconstruct(self.reconstructor, self.stats[i], time=i)
        measurement = lib.argmax_voxel(frame, self.grid)
        return self.tracker.update(measurement, time=i)

    def _track_rmse(self, estimates) -> float:
        return float(np.sqrt(np.mean(np.sum((estimates - self.truth) ** 2, axis=1))))

    def prepare(self, lib):
        self.tracker = lib.KalmanTracker(self.params)
        self.reference = np.array([self._frame(lib, i) for i in range(self.frames)])
        self.refs.check("reference pass", self._track_rmse(self.reference))
        self.estimates = np.zeros_like(self.reference)

    def operation(self, lib, i):
        k = i % self.frames
        if k == 0:
            self.tracker = lib.KalmanTracker(self.params)
        t0 = time.perf_counter()
        estimate = self._frame(lib, k)
        t1 = time.perf_counter()
        self.estimates[k] = estimate
        problems = []
        if np.max(np.abs(self.estimates[k] - self.reference[k])) > RMSE_TOLERANCE_M:
            problems.append(
                f"frame {k}: estimate {estimate} differs from the reference "
                f"{tuple(self.reference[k])}"
            )
        if k == self.frames - 1:
            problems += self.refs.check("reference pass", self._track_rmse(self.estimates))
        return {"frame_s": t1 - t0}, problems

    def named_metrics(self, timings):
        ms = [1e3 * t["frame_s"] for t in timings]
        p99, beyond = supported_percentile(ms, 99)
        return {
            "frame_ms_p50": (median(ms), "ms", f"{len(ms)} frames"),
            "frame_ms_p99": (p99, "ms", f"{len(ms)} frames, {beyond} beyond"),
        }


WORKLOADS = {w.name: w for w in (LosDrtiRun, NlosCompare, Ring20Online)}
