"""End-to-end experiment pipeline: simulate, select, calibrate, image, track.

`run_experiment` drives one method over one scenario: `record_run`
simulates and writes the trace and truth, `evaluate_method` evaluates, and
`write_evaluation` writes every other artefact into the output directory.
`compare` evaluates several methods on one scenario in memory, simulating
each radio mode once. `check_config` and `check_trace` hold a run's
preconditions; past them, `phase` raises any failure as a `PhaseError` that
names the phase. All outputs are deterministic for a fixed config.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .geometry import NUM_DIRECTIONS, build_weight_matrix
from .imaging import (
    ImageFrame,
    argmax_positions,
    build_reconstructor,
    frame_to_csv,
    frame_to_pgm,
    reconstruct_images,
)
from .linkstats import (
    VALID_CHANNELS,
    _window_sum,
    calibration_deviation,
    first_heard,
    fn_fp_sweep,
    format_stream,
    stream_columns,
    stream_kinds,
    window_variance,
)
from .selection import SelectionResult, format_selection, select_for_layout
from .simulator import (
    SEED_LIMIT,
    PropagationParams,
    Scenario,
    _check_fields,
    _is_int,
    _section,
    obstructed_mask,
    read_json_object,
    read_scenario_file,
    simulate,
)
from .tracking import KalmanParams, error_cdf, rmse, track, write_trajectory
from .traceio import text_table, write_grid, write_trace_file, write_truth_file

METHODS = ("mRTI", "vRTI", "cRTI-mean", "cRTI-var", "dRTI-mean", "dRTI-var")
SELECTION_METHODS = ("all", "location", "fadelevel", "prr")
CDF_LEVELS = tuple(round(0.1 * i, 1) for i in range(1, 31))


class ConfigError(ValueError):
    """Experiment configuration is invalid."""


class PhaseError(RuntimeError):
    """A pipeline phase failed; the message names the phase."""


@contextmanager
def phase(name: str):
    """Raise any failure inside as a PhaseError naming the phase; a
    PhaseError, from a nested phase say, passes through unchanged."""
    try:
        yield
    except PhaseError:
        raise
    except Exception as exc:
        raise PhaseError(f"{name}: {exc}") from exc


def mode_for_method(method: str) -> str:
    if method in ("mRTI", "vRTI"):
        return "omni"
    if method.startswith("cRTI"):
        return "multichannel"
    return "directional"


def _is_variance(method: str) -> bool:
    return method.endswith("var") or method == "vRTI"


@dataclass(frozen=True)
class SelectionConfig:
    method: str = "all"
    n_transmitter: int = 2
    n_receiver: int = 2
    k: int = 9

    def __post_init__(self) -> None:
        _check_fields(self, "selection", ConfigError)
        if self.method not in SELECTION_METHODS:
            raise ConfigError(
                f"selection method must be one of {SELECTION_METHODS}, got {self.method!r}"
            )
        n = NUM_DIRECTIONS
        if not 1 <= self.n_transmitter <= n or not 1 <= self.n_receiver <= n:
            raise ConfigError(
                f"selection n_transmitter and n_receiver must be in [1, {n}]"
            )
        if not 1 <= self.k <= n * n:
            raise ConfigError(f"selection k must be in [1, {n * n}]")


@dataclass(frozen=True)
class ImagingConfig:
    alpha: float = 5.0
    regularizer: str = "difference"
    ellipse_excess_m: float = 1.5

    def __post_init__(self) -> None:
        _check_fields(self, "imaging", ConfigError)
        if self.alpha <= 0:
            raise ConfigError("imaging alpha must be positive")
        if self.regularizer not in ("identity", "difference"):
            raise ConfigError(f"unknown regularizer {self.regularizer!r}")
        if self.ellipse_excess_m < 0:
            raise ConfigError("ellipse_excess_m must be >= 0")


@dataclass(frozen=True)
class TrackingConfig:
    q: float = 0.05
    r: float = 0.5

    def __post_init__(self) -> None:
        _check_fields(self, "tracking", ConfigError)
        if self.q <= 0 or self.r <= 0:
            raise ConfigError("tracking q and r must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Path
    method: str
    out_dir: Path
    selection: SelectionConfig = SelectionConfig()
    imaging: ImagingConfig = ImagingConfig()
    tracking: TrackingConfig = TrackingConfig()
    window: int = 10
    seed: int | None = None
    write_images: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not _is_int(self.window) or self.window < 2:
            raise ConfigError(f"window must be an integer >= 2, got {self.window!r}")
        if self.seed is not None and not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer or null, got {self.seed!r}")
        if self.seed is not None and not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must be in [0, 2**32), got {self.seed!r}")
        if not isinstance(self.write_images, bool):
            raise ConfigError(
                f"write_images must be true or false, got {self.write_images!r}"
            )
        if self.selection.method != "all" and not self.method.startswith("dRTI"):
            raise ConfigError(
                "pattern pair selection only applies to dRTI methods, "
                f"got selection {self.selection.method!r} with {self.method}"
            )


def _bad_field(message: str) -> ConfigError:
    return ConfigError(f"bad config field: {message}")


def config_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """An experiment config from a config file's JSON object; a bad field
    is a ConfigError that names it."""

    def resolve(key: str) -> Path:
        if not isinstance(data[key], str):
            raise ConfigError(f"{key} must be a path, got {data[key]!r}")
        path = Path(data[key])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return path

    try:
        scenario = resolve("scenario")
        method = data["method"]
        out_dir = resolve("out_dir")
    except KeyError as exc:
        raise ConfigError(f"config missing required field: {exc}") from exc
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    # Only the fields present are passed: the dataclass holds the defaults.
    sections = {"selection": SelectionConfig, "imaging": ImagingConfig, "tracking": TrackingConfig}
    values = {
        key: _section(sections[key], value, key, _bad_field) if key in sections else value
        for key, value in data.items()
    }
    values.update(scenario=scenario, method=method, out_dir=out_dir)
    return ExperimentConfig(**values)


def read_config_file(path) -> ExperimentConfig:
    path = Path(path)
    return config_from_dict(read_json_object(path, "config", ConfigError), base_dir=path.parent)


# ------------------------------------------------------------ statistics


def streams_for_method(
    trace, layout, method: str, channels, selection: SelectionResult | None
) -> np.ndarray:
    """Trace columns of the streams each link statistic aggregates, shaped
    (links, k): every kind of the method's mode, or the selected pattern
    pairs, in `stream_kinds` order. The statistic is a set sum, so the order
    a selector ranked pairs in must not leak into float summation. Streams
    the trace lacks are a PhaseError naming the first 10 of them."""
    links = tuple(layout.links)
    kinds = stream_kinds(mode_for_method(method), channels)
    table = stream_columns(trace, links, kinds)
    if method.startswith("dRTI"):
        index = np.sort(selection.pairs, axis=1)
    else:
        index = np.broadcast_to(np.arange(len(kinds)), table.shape)
    columns = np.take_along_axis(table, index, axis=1)
    missing = np.argwhere(columns < 0)
    if missing.size:
        named = [format_stream(links[i], kinds[index[i, j]]) for i, j in missing[:10]]
        more = len(missing) - len(named)
        raise PhaseError(
            "statistics: trace has no records for streams " + ", ".join(named)
            + (f" and {more} more" if more else "")
        )
    return columns


def _link_sums(region: np.ndarray, columns: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """Each link's sum over its live columns of a (ticks, streams) region,
    shaped (ticks, links), in the order numpy sums a link's gathered
    (live streams, ticks) rows along axis 0: in sequence, or pairwise when
    the region is one tick long.

    Each link's live columns come first. Slot j of every link is gathered as
    one (ticks, links) array with its dead entries zeroed; adding those is
    exact, because every value is >= 0 or NaN. Gathering slot by slot keeps
    no (ticks, links, k) block alive.
    """
    def term(j, links=slice(None)):
        part = np.take(region, columns[links, j], axis=1)
        part[:, dead[links, j]] = 0.0
        return part

    if region.shape[0] != 1:
        total = term(0)
        for j in range(1, columns.shape[1]):
            total += term(j)
        return total
    sums = term(0)
    counts = np.count_nonzero(~dead, axis=1)
    for count in np.unique(counts[counts > 1]):
        links = np.flatnonzero(counts == count)
        sums[:, links] = _window_sum(lambda j: term(j, links), 0, count)
    return sums


def compute_stat_matrix(
    trace,
    layout,
    method: str,
    columns: np.ndarray,
    window: int,
    first_tick: int,
    num_ticks: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Link statistics per tracking tick, shaped (T, L), plus the per-link
    empty-room baseline, from `streams_for_method`'s (links, k) columns.

    Mean methods subtract the calibration mean from the carry-forward RSS;
    variance methods take the sample variance of the trailing window. Either
    way the link statistic sums over the link's streams. The baseline is the
    statistic's mean over the calibration phase: a statistic built from
    noisy RSS has a positive floor even with nobody present, and the floor
    grows with the number of aggregated streams, so images are formed from
    the deviation above it rather than from the raw value.
    """
    if trace.num_ticks < first_tick + num_ticks:
        raise PhaseError(
            f"statistics: trace has {trace.num_ticks} ticks, tracking needs "
            f"{first_tick + num_ticks}"
        )
    # The statistic at tick t needs a reception by tick t - lag. A stream
    # whose statistic is undefined over the whole calibration region has no
    # baseline to measure change against; leave it out the way a deployment
    # survey would.
    variance = _is_variance(method)
    lag = window - 1 if variance else 0
    alive = first_heard(trace)[columns] < max(first_tick - lag, 0)
    if not alive.any():
        raise PhaseError("statistics: no stream has a defined statistic in calibration")
    order = np.argsort(~alive, axis=1, kind="stable")
    columns = np.take_along_axis(columns, order, axis=1)
    dead = ~np.take_along_axis(alive, order, axis=1)

    # The trace keeps its per-stream statistic for every column.
    if variance:
        per_stream = window_variance(trace, window)
    else:
        per_stream = calibration_deviation(trace, first_tick)
    stats = _link_sums(per_stream[first_tick : first_tick + num_ticks], columns, dead)
    # A silent link sums zeroed slots only: no evidence, and a zero baseline.
    cal = _link_sums(per_stream[lag:first_tick], columns, dead)
    baseline = np.zeros(layout.num_links)
    for i in range(layout.num_links):
        link_cal = cal[:, i]
        valid = link_cal[~np.isnan(link_cal)]
        if valid.size == 0:
            raise PhaseError(
                f"statistics: no usable calibration ticks for link {layout.links[i]}"
            )
        baseline[i] = float(valid.mean())
        if not np.isfinite(baseline[i]):
            tx, rx = layout.links[i]
            raise PhaseError(f"statistics: link {tx}->{rx} has a non-finite baseline {baseline[i]}")
    # RSSI that is finite but huge, such as 1e160, can overflow a statistic.
    bad = np.argwhere(~np.isfinite(stats))
    if bad.size:
        t, i = bad[0]
        tx, rx = layout.links[i]
        raise PhaseError(
            f"statistics: link {tx}->{rx} tick {first_tick + t} has a non-finite statistic {stats[t, i]}"
        )
    return stats, baseline


# ------------------------------------------------------------ pipeline


@dataclass
class Evaluation:
    """In-memory result of one method applied to one simulated trace."""

    metrics: dict
    selection: SelectionResult | None
    stats: np.ndarray         # raw link statistics, (rounds, num_links)
    baseline: np.ndarray      # per-link empty-room statistic floor, (num_links,)
    images: np.ndarray        # voxel image per tracking tick, (rounds, num_voxels)
    measurements: np.ndarray  # raw argmax positions, (rounds, 2)
    estimates: np.ndarray     # tracked positions, (rounds, 2)
    errors: np.ndarray        # per-tick tracking error, (rounds,)


def check_config(config: ExperimentConfig, scenario: Scenario, reconstructor=None) -> None:
    """What a config needs of a scenario before anything is simulated: a
    trajectory to track, a variance window that fits in the calibration
    rounds and, if one is passed, a reconstructor built for the scenario's
    layout and grid with the config's imaging settings."""
    if scenario.trajectory is None:
        raise ConfigError("experiment scenarios need a trajectory to track")
    cal = scenario.calibration_rounds
    if _is_variance(config.method) and cal < config.window:
        raise ConfigError(
            f"variance window {config.window} does not fit in {cal} calibration rounds"
        )
    if reconstructor is None:
        return
    imaging = config.imaging
    compared = (
        ("links", reconstructor.num_links, scenario.layout.num_links),
        ("voxels", reconstructor.num_voxels, scenario.grid.num_voxels),
        ("alpha", reconstructor.alpha, imaging.alpha),
        ("regularizer", reconstructor.regularizer, imaging.regularizer),
        ("ellipse_excess_m", reconstructor.lam, imaging.ellipse_excess_m),
    )
    wrong = [f"{key} {got!r}, the run has {want!r}" for key, got, want in compared if got != want]
    if wrong:
        raise PhaseError("imaging: prebuilt reconstructor has " + "; ".join(wrong))


def check_trace(method: str, scenario: Scenario, trace, truth) -> np.ndarray:
    """The truth, as a float array, once the trace and truth fit the method
    and scenario: the trace is in the method's mode, spans the scenario's
    ticks and has only streams of the scenario's layout and channels, and
    the truth has one finite position per tracking tick."""
    mode = mode_for_method(method)
    if trace.mode != mode:
        raise PhaseError(
            f"statistics: trace has no records for {method}, which needs "
            f"mode {mode!r}; the trace's mode is {trace.mode!r}"
        )
    if trace.num_ticks != scenario.total_ticks:
        raise PhaseError(
            f"trace: {trace.num_ticks} ticks, the scenario has {scenario.total_ticks}"
        )
    # `streams_for_method` reads the same memoised table.
    table = stream_columns(
        trace, tuple(scenario.layout.links), stream_kinds(mode, scenario.channels)
    )
    placed = np.isin(np.arange(len(trace.kinds)), table)
    if not placed.all():
        s = int(np.argmin(placed))
        name = format_stream(trace.links[s], stream_kinds(mode, VALID_CHANNELS)[trace.kinds[s]])
        raise PhaseError(f"trace: stream {name} is not a stream of the scenario")
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (scenario.rounds, 2):
        raise PhaseError(f"truth: expected shape {(scenario.rounds, 2)}, got {truth.shape}")
    bad = np.flatnonzero(~np.isfinite(truth).all(axis=1))
    if bad.size:
        row, tick = bad[0], scenario.calibration_rounds + bad[0]
        raise PhaseError(f"truth: row {row} (tick {tick}) is not finite: {truth[row].tolist()}")
    return truth


def scenario_reconstructor(scenario: Scenario, imaging: ImagingConfig):
    """The Tikhonov map for a scenario's grid and layout."""
    with phase("imaging"):
        weights = build_weight_matrix(scenario.grid, scenario.layout, imaging.ellipse_excess_m)
        return build_reconstructor(weights, imaging.alpha, imaging.regularizer, grid=scenario.grid)


@functools.lru_cache(maxsize=1)
def _truth_mask(layout, truth: bytes, lam: float) -> np.ndarray:
    """`obstructed_mask` of a truth given by its float64 bytes, computed once
    per (layout, truth, lam): every config of a `compare` shares one truth,
    so the last one is all that is kept. The cached mask is read-only."""
    mask = obstructed_mask(layout, np.frombuffer(truth).reshape(-1, 2), lam)
    mask.flags.writeable = False
    return mask


def evaluate_method(
    config: ExperimentConfig,
    scenario: Scenario,
    params: PropagationParams,
    trace,
    truth: np.ndarray,
    reconstructor=None,
) -> Evaluation:
    """The pure pipeline: selection, statistics, imaging, tracking, metrics.

    `check_config` and `check_trace` run first, so a bad input stops the
    run before any phase; the trace's mode must be the method's, and the
    scenario's is not read. A prebuilt reconstructor for the scenario's
    layout and grid and the config's imaging settings may be passed to skip
    the solve. A phase that fails raises a PhaseError naming it.
    """
    check_config(config, scenario, reconstructor)
    truth = check_trace(config.method, scenario, trace, truth)
    cal = scenario.calibration_rounds
    selection = None
    if config.method.startswith("dRTI"):
        with phase("selection"):
            selection = select_for_layout(
                scenario.layout,
                config.selection.method,
                trace=trace,
                window=(0, cal - 1),
                n_transmitter=config.selection.n_transmitter,
                n_receiver=config.selection.n_receiver,
                k=config.selection.k,
            )

    columns = streams_for_method(
        trace, scenario.layout, config.method, scenario.channels, selection
    )
    stats, baseline = compute_stat_matrix(
        trace, scenario.layout, config.method, columns, config.window, cal, scenario.rounds
    )
    if reconstructor is None:
        reconstructor = scenario_reconstructor(scenario, config.imaging)
    with phase("imaging"):
        images = reconstruct_images(reconstructor, stats - baseline)
        measurements = argmax_positions(images, scenario.grid)
    with phase("tracking"):
        estimates = track(measurements, KalmanParams(config.tracking.q, config.tracking.r))

    errors = np.hypot(*(estimates - truth).T)
    obstructed = _truth_mask(scenario.layout, truth.tobytes(), params.person_lambda_m)
    lo, hi = float(stats.min()), float(stats.max())
    thresholds = np.unique(np.linspace(lo, hi, 50))
    sweep = fn_fp_sweep(stats, obstructed, thresholds)

    metrics = {
        "method": config.method,
        "mode": trace.mode,
        "seed": scenario.seed,
        "rounds": scenario.rounds,
        "calibration_rounds": cal,
        "num_links": scenario.layout.num_links,
        "num_voxels": scenario.grid.num_voxels,
        "window": config.window,
        "selection": {
            "method": config.selection.method if selection else None,
            "pairs_per_link": selection.pairs.shape[1] if selection else None,
        },
        "imaging": asdict(config.imaging),
        "reconstructor": {
            "links": reconstructor.num_links,
            "voxels": reconstructor.num_voxels,
            "distinct_rows": reconstructor.distinct_rows,
            "residual": reconstructor.residual,
        },
        "tracking": asdict(config.tracking),
        "rmse_kalman_m": rmse(estimates, truth),
        "rmse_argmax_m": rmse(measurements, truth),
        "p90_error_m": float(np.percentile(errors, 90)),
        "mean_error_m": float(np.mean(errors)),
        "error_cdf": {f"{lvl:.1f}": frac for lvl, frac in error_cdf(errors, CDF_LEVELS)},
        "fn_fp": [{"threshold": tau, "fn_rate": fn, "fp_rate": fp} for tau, fn, fp in sweep],
    }
    return Evaluation(
        metrics, selection, stats, baseline, images, measurements, estimates, errors
    )


def record_run(scenario: Scenario, params: PropagationParams, out_dir):
    """`simulate`, then `trace.csv` and `truth.csv` in `out_dir` before
    anything else runs, so a later failure leaves them on disk."""
    out_dir = Path(out_dir)
    with phase("output"):
        out_dir.mkdir(parents=True, exist_ok=True)
        with phase("simulate"):
            trace, truth = simulate(scenario, params)
        write_trace_file(out_dir / "trace.csv", trace)
        write_truth_file(out_dir / "truth.csv", truth, first_tick=scenario.calibration_rounds)
    return trace, truth


def compare(
    scenario: Scenario,
    params: PropagationParams,
    configs: list[ExperimentConfig],
    reconstructor=None,
) -> list[Evaluation]:
    """Evaluate each config on one scenario, in memory, in order.

    Each radio mode the configs need is simulated once, in the order the
    configs first need it, and shared by every config of that mode. Without
    a prebuilt reconstructor, one is built per distinct imaging config.
    Every config is checked, also against a prebuilt reconstructor, before
    anything is simulated.
    """
    for config in configs:
        check_config(config, scenario, reconstructor)
    runs = {}
    reconstructors = {}
    evaluations = []
    for config in configs:
        mode = mode_for_method(config.method)
        if mode not in runs:
            with phase("simulate"):
                runs[mode] = simulate(replace(scenario, mode=mode), params)
        if reconstructor is None and config.imaging not in reconstructors:
            reconstructors[config.imaging] = scenario_reconstructor(scenario, config.imaging)
        rec = reconstructors.get(config.imaging, reconstructor)
        evaluations.append(evaluate_method(config, scenario, params, *runs[mode], rec))
    return evaluations


def run_experiment(config: ExperimentConfig) -> Evaluation:
    """Simulate the config's scenario in the method's mode, evaluate the
    method on it and write every artefact into `config.out_dir`."""
    # A missing, unreadable or malformed scenario file is a configuration
    # problem: it propagates as a ScenarioError, not a PhaseError.
    scenario, params = read_scenario_file(config.scenario)
    scenario = replace(scenario, mode=mode_for_method(config.method))
    if config.seed is not None:
        scenario = replace(scenario, seed=config.seed)
    check_config(config, scenario)
    trace, truth = record_run(scenario, params, config.out_dir)
    evaluation = evaluate_method(config, scenario, params, trace, truth)
    write_evaluation(config.out_dir, config, scenario, evaluation, truth)
    return evaluation


def write_evaluation(
    out_dir, config: ExperimentConfig, scenario: Scenario, evaluation: Evaluation, truth
) -> None:
    """An evaluation's artefacts in `out_dir`: `selection.txt` (dRTI),
    `stats.csv`, `trajectory.csv`, `images/` (if the config asks for them)
    and `metrics.json`, written last so that it marks a complete run."""
    out_dir = Path(out_dir)
    cal = scenario.calibration_rounds
    with phase("output"):
        out_dir.mkdir(parents=True, exist_ok=True)
        if evaluation.selection is not None:
            (out_dir / "selection.txt").write_bytes(format_selection(evaluation.selection).encode())
        _write_stats(out_dir / "stats.csv", scenario, evaluation.stats, cal)
        trajectory = np.column_stack((evaluation.estimates, truth, evaluation.errors))
        write_trajectory(out_dir / "trajectory.csv", trajectory, cal)
        if config.write_images:
            img_dir = out_dir / "images"
            img_dir.mkdir(exist_ok=True)
            for t, values in enumerate(evaluation.images):
                frame = ImageFrame(time=cal + t, values=values)
                stem = f"frame_{cal + t:04d}"
                (img_dir / f"{stem}.csv").write_bytes(frame_to_csv(frame, scenario.grid))
                (img_dir / f"{stem}.pgm").write_bytes(frame_to_pgm(frame, scenario.grid))
        metrics = json.dumps(evaluation.metrics, indent=2, sort_keys=True) + "\n"
        (out_dir / "metrics.json").write_bytes(metrics.encode())


def _write_stats(path, scenario: Scenario, stats: np.ndarray, first_tick: int) -> None:
    with open(path, "wb") as fh:
        fh.write(b"tick,tx_id,rx_id,stat\n")
        links = text_table(f",{tx},{rx}," for tx, rx in scenario.layout.links)
        write_grid(fh, stats, ["tick", links, ("", "nan"), "value", b"\n"], first_tick)
