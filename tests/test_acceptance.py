"""Acceptance gate: ten end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Tolerances, seed fractions, and runtime budgets are pinned
in the individual tests; scenario operating points live in rti.presets.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from rti.experiment import (
    ExperimentConfig,
    SelectionConfig,
    compare,
    compute_stat_matrix,
    run_experiment,
    scenario_reconstructor,
)
from rti.geometry import (
    LayoutError,
    NetworkLayout,
    NodeSpec,
    PatternPair,
    build_grid,
    build_weight_matrix,
)
from rti.imaging import build_reconstructor
from rti.linkstats import batch_window_variance, forward_fill
from rti.presets import (
    COMPARISON_IMAGING,
    COMPARISON_TRACKING,
    comparison_config,
    los_7node,
    nlos_2node,
    nlos_7node,
)
from rti.simulator import obstructed_mask, simulate, write_scenario_file
from rti.tracking import KalmanParams, KalmanTracker, error_cdf, rmse
from stat_oracles import (
    CalibrationTable,
    channel_stream,
    crti_mean_stat,
    crti_var_stat,
    drti_mean_stat,
    drti_var_stat,
    key_columns,
    mrti_stat,
    omni_stream,
    pattern_stream,
    trace_from_keys,
    vrti_stat,
)

SEEDS = range(10)
MEAN_METHODS = ("mRTI", "cRTI-mean", "dRTI-mean")
VAR_METHODS = ("vRTI", "cRTI-var", "dRTI-var")

_CACHE: dict = {"reconstructor": None, "nlos_curves": {}}


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _compare(scenario, params, configs):
    """`compare` with one reconstructor for every seed. Both ring presets
    share the grid and layout, so the map is the same for all of them."""
    if _CACHE["reconstructor"] is None:
        _CACHE["reconstructor"] = scenario_reconstructor(scenario, COMPARISON_IMAGING)
    return compare(scenario, params, configs, _CACHE["reconstructor"])


def _comparison_rmse(factory, seed):
    """All six methods on one seed of a ring scenario; returns rmse dict
    and the raw-statistic threshold sweep per method."""
    methods = MEAN_METHODS + VAR_METHODS
    evaluations = _compare(*factory(seed), [comparison_config(m) for m in methods])
    values = {m: ev.metrics["rmse_kalman_m"] for m, ev in zip(methods, evaluations)}
    curves = {
        m: [(p["threshold"], p["fn_rate"], p["fp_rate"]) for p in ev.metrics["fn_fp"]]
        for m, ev in zip(methods, evaluations)
    }
    return values, curves


# --------------------------------------------------- 1. weight model oracle


def test_criterion_01_weight_model_matches_brute_force():
    rng = np.random.default_rng(20260819)
    start = time.monotonic()
    checked = 0
    while checked < 20:
        n_nodes = int(rng.integers(3, 8))
        nodes = [
            NodeSpec(i, float(rng.uniform(0.0, 8.0)), float(rng.uniform(0.0, 8.0)))
            for i in range(n_nodes)
        ]
        try:
            layout = NetworkLayout(nodes)
        except LayoutError:
            continue
        grid = build_grid((0.0, 0.0), 8.0, 8.0, 0.25)  # 32 x 32 voxels
        lam = float(rng.uniform(0.3, 2.0))
        wm = build_weight_matrix(grid, layout, lam)
        expected = np.zeros((layout.num_links, grid.num_voxels))
        for li, (tx_id, rx_id) in enumerate(layout.links):
            tx, rx = layout.node(tx_id), layout.node(rx_id)
            d = math.dist(tx.position, rx.position)
            for vi in range(grid.num_voxels):
                c = grid.voxel_center(vi)
                d1 = math.dist(c, tx.position)
                d2 = math.dist(c, rx.position)
                if d1 + d2 < d + lam:
                    expected[li, vi] = 1.0 / math.sqrt(d)
        assert np.array_equal(wm.entries, expected)
        checked += 1
    elapsed = time.monotonic() - start
    _report(1, elapsed < 5.0, f"20 layouts exact, {elapsed:.2f}s < 5s")


# ------------------------------------------------------- 2. solver oracle


def _difference_penalty(height: int, width: int) -> np.ndarray:
    rows = []
    n = height * width
    for r in range(height):
        for c in range(width - 1):
            row = np.zeros(n)
            row[r * width + c] = -1.0
            row[r * width + c + 1] = 1.0
            rows.append(row)
    for r in range(height - 1):
        for c in range(width):
            row = np.zeros(n)
            row[r * width + c] = -1.0
            row[(r + 1) * width + c] = 1.0
            rows.append(row)
    L = np.array(rows)
    return L.T @ L


def test_criterion_02_regularized_inverse_matches_direct_solve():
    rng = np.random.default_rng(414243)
    start = time.monotonic()
    worst = 0.0
    for trial in range(50):
        height = int(rng.integers(3, 8))
        width = int(rng.integers(3, 8))
        grid = build_grid((0.0, 0.0), width * 0.5, height * 0.5, 0.5)
        n = grid.num_voxels
        m = int(rng.integers(4, 13))
        A = rng.normal(0.0, 1.0, (m, n))
        alpha = float(rng.uniform(0.5, 30.0))
        if trial % 2 == 0:
            Q = np.eye(n)
            rec = build_reconstructor(A, alpha, regularizer="identity")
        else:
            Q = _difference_penalty(grid.height_voxels, grid.width_voxels)
            rec = build_reconstructor(A, alpha, regularizer="difference", grid=grid)
        expected = np.linalg.inv(A.T @ A + alpha * Q) @ A.T
        worst = max(worst, float(np.max(np.abs(rec.pi - expected))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(2, ok, f"50 systems, max |diff| {worst:.2e} <= 1e-9, {elapsed:.2f}s < 5s")


# ------------------------------------------- 3. single-stream reductions


def test_criterion_03_single_stream_statistics_collapse_to_omni():
    rng = np.random.default_rng(31415)
    link = (0, 1)
    pair = PatternPair(3, 5)
    channel = 15
    for _ in range(1000):
        mean = float(rng.normal(-60.0, 5.0))
        rssi = float(rng.normal(-60.0, 8.0))
        window = rng.normal(-60.0, 4.0, 10)
        table = CalibrationTable(
            window=(0, 9),
            means={
                pattern_stream(link, pair): mean,
                channel_stream(link, channel): mean,
            },
        )
        omni_mean = mrti_stat(rssi, mean)
        omni_var = vrti_stat(window)
        assert drti_mean_stat(link, [pair], {pair: rssi}, table) == omni_mean
        assert drti_var_stat([pair], {pair: window}) == omni_var
        assert crti_mean_stat(link, [channel], {channel: rssi}, table) == omni_mean
        assert crti_var_stat([channel], {channel: window}) == omni_var

    # The same reduction through the pipeline's statistics: one RSS column
    # per directed link, with lost packets, read as an omni, a one-pair and
    # a one-channel trace.
    layout = NetworkLayout([NodeSpec(0, 0.0, 0.0), NodeSpec(1, 3.0, 0.0)])
    first_tick, num_ticks, window = 20, 40, 10
    readings = (
        ("omni", omni_stream, ("mRTI", "vRTI")),
        ("directional", lambda lk: pattern_stream(lk, pair), ("dRTI-mean", "dRTI-var")),
        ("multichannel", lambda lk: channel_stream(lk, channel), ("cRTI-mean", "cRTI-var")),
    )
    for _ in range(20):
        rssi = rng.normal(-60.0, 6.0, (first_tick + num_ticks, layout.num_links))
        rssi[rng.random(rssi.shape) < 0.1] = np.nan
        results = []
        for mode, key, methods in readings:
            trace = trace_from_keys(mode, 0.0, [key(lk) for lk in layout.links], rssi)
            columns = np.array([[key_columns(trace)[key(lk)]] for lk in layout.links])
            results.append([
                compute_stat_matrix(
                    trace, layout, method, columns, window, first_tick, num_ticks
                )
                for method in methods
            ])
        omni, *others = results
        for other in others:
            for (stats, baseline), (omni_stats, omni_baseline) in zip(other, omni):
                assert np.array_equal(stats, omni_stats)
                assert np.array_equal(baseline, omni_baseline)
    _report(
        3,
        True,
        "1000 windows and 20 pipeline traces, dRTI/cRTI single-stream == "
        "mRTI/vRTI bit for bit",
    )


# ------------------------------------------- 4. sensitivity amplification


def test_criterion_04_directional_variance_response_outgrows_omni():
    start = time.monotonic()
    wins = 0
    ratios = []
    for seed in SEEDS:
        scenario, params = nlos_2node(seed)
        assert params.fading_directivity_coupling == 0.6
        per_mode = {}
        for mode in ("directional", "omni"):
            scn = replace(scenario, mode=mode)
            trace, truth = simulate(scn, params)
            mask = obstructed_mask(scenario.layout, truth, params.person_lambda_m)
            obstructed = mask[:, scenario.layout.links.index((0, 1))]
            cols = np.flatnonzero((trace.links == (0, 1)).all(axis=1))
            var = batch_window_variance(forward_fill(trace.rssi[:, cols]), 10)
            tracking = var[scenario.calibration_rounds :]
            per_mode[mode] = float(np.nanmean(tracking[obstructed]))
        ratio = per_mode["directional"] / per_mode["omni"]
        ratios.append(ratio)
        wins += ratio > 1.5
    elapsed = time.monotonic() - start
    ok = wins >= 8 and elapsed < 30.0
    _report(
        4,
        ok,
        f"36-pair variance response > 1.5x omni in {wins}/10 seeds, "
        f"median ratio {np.median(ratios):.2f}, {elapsed:.1f}s < 30s",
    )


# ------------------------------------------------- 5. open-area ordering


def test_criterion_05_open_area_method_ordering():
    start = time.monotonic()
    mean_wins = var_wins = 0
    med = {m: [] for m in MEAN_METHODS + VAR_METHODS}
    for seed in SEEDS:
        values, _ = _comparison_rmse(los_7node, seed)
        for m, v in values.items():
            med[m].append(v)
        mean_wins += values["dRTI-mean"] < values["cRTI-mean"] < values["mRTI"]
        var_wins += values["dRTI-var"] < values["cRTI-var"] < values["vRTI"]
    elapsed = time.monotonic() - start
    ok = mean_wins >= 8 and var_wins >= 8 and elapsed < 120.0
    detail = (
        f"mean ordering {mean_wins}/10, var ordering {var_wins}/10, "
        f"medians d/c/omni mean {np.median(med['dRTI-mean']):.2f}/"
        f"{np.median(med['cRTI-mean']):.2f}/{np.median(med['mRTI']):.2f} m "
        f"var {np.median(med['dRTI-var']):.2f}/{np.median(med['cRTI-var']):.2f}/"
        f"{np.median(med['vRTI']):.2f} m; "
        "reference deployment magnitudes 0.52/0.79/0.91 m and 0.43/0.56/0.72 m; "
        f"{elapsed:.1f}s < 120s"
    )
    _report(5, ok, detail)


# ----------------------------------------------- 6. through-wall ordering


def test_criterion_06_through_wall_ordering_and_variance_advantage():
    mean_wins = var_wins = var_beats_mean = 0
    for seed in SEEDS:
        values, curves = _comparison_rmse(nlos_7node, seed)
        _CACHE["nlos_curves"][seed] = curves
        mean_wins += values["dRTI-mean"] < values["cRTI-mean"] < values["mRTI"]
        var_wins += values["dRTI-var"] < values["cRTI-var"] < values["vRTI"]
        var_beats_mean += (
            values["vRTI"] < values["mRTI"]
            and values["cRTI-var"] < values["cRTI-mean"]
            and values["dRTI-var"] < values["dRTI-mean"]
        )
    ok = mean_wins >= 8 and var_wins >= 8 and var_beats_mean >= 8
    _report(
        6,
        ok,
        f"mean ordering {mean_wins}/10, var ordering {var_wins}/10, "
        f"variance beats mean in every class {var_beats_mean}/10",
    )


# ------------------------------------------------ 7. selection convergence


def test_criterion_07_selection_converges_to_full_pattern_set():
    configs = [
        comparison_config("dRTI-mean"),
        comparison_config("dRTI-mean", SelectionConfig(method="fadelevel", k=9)),
        comparison_config(
            "dRTI-mean",
            SelectionConfig(method="location", n_transmitter=2, n_receiver=2),
        ),
    ]
    fade_wins = loc_wins = 0
    for seed in SEEDS:
        base, fade, loc = _compare(*los_7node(seed), configs)
        full = base.metrics["rmse_kalman_m"]
        fade_wins += fade.metrics["rmse_kalman_m"] <= 1.15 * full
        loc_wins += loc.metrics["rmse_kalman_m"] <= 2.0 * full
    ok = fade_wins >= 8 and loc_wins >= 8
    _report(
        7,
        ok,
        f"fade level k=9 within 15% of the full set in {fade_wins}/10 seeds, "
        f"location n=2 within 2x in {loc_wins}/10",
    )


# --------------------------------------------------- 8. detection sweep


def _achievable_fp(curve, fn_budget):
    fps = [fp for _, fn, fp in curve if fn <= fn_budget + 1e-12]
    return min(fps) if fps else float("inf")


def test_criterion_08_directional_detection_curve_is_non_dominated():
    if not _CACHE["nlos_curves"]:
        for seed in SEEDS:
            _, curves = _comparison_rmse(nlos_7node, seed)
            _CACHE["nlos_curves"][seed] = curves
    non_dominated = 0
    for seed in SEEDS:
        curves = _CACHE["nlos_curves"][seed]
        for method, curve in curves.items():
            fns = [fn for _, fn, _ in curve]
            fps = [fp for _, _, fp in curve]
            assert all(b >= a for a, b in zip(fns, fns[1:])), method
            assert all(b <= a for a, b in zip(fps, fps[1:])), method
        dominated = any(
            _achievable_fp(curves["dRTI-mean"], fn)
            > min(
                _achievable_fp(curves["mRTI"], fn),
                _achievable_fp(curves["cRTI-mean"], fn),
            )
            for _, fn, _ in curves["dRTI-mean"]
        )
        non_dominated += not dominated
    ok = non_dominated >= 8
    _report(
        8,
        ok,
        f"every sweep exactly monotone; attenuation-change curve "
        f"non-dominated at all sampled FN levels in {non_dominated}/10 seeds",
    )


# ------------------------------------------------------ 9. metric exactness


class _ReferenceFilter:
    """Textbook constant-velocity filter with explicit inverses."""

    def __init__(self, z0, q, r, dt=1.0):
        self.x = np.array([z0[0], z0[1], 0.0, 0.0])
        self.P = np.eye(4) * 10.0
        self.q = q
        self.R = r * np.eye(2)
        self.H = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        self.F = np.array(
            [[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float
        )
        self.Q = q * np.array(
            [
                [dt**4 / 4, 0, dt**3 / 2, 0],
                [0, dt**4 / 4, 0, dt**3 / 2],
                [dt**3 / 2, 0, dt**2, 0],
                [0, dt**3 / 2, 0, dt**2],
            ]
        )

    def step(self, z):
        x = self.F @ self.x
        P = self.F @ self.P @ self.F.T + self.Q
        innovation = np.asarray(z) - self.H @ x
        S = self.H @ P @ self.H.T + self.R
        K = P @ self.H.T @ np.linalg.inv(S)
        self.x = x + K @ innovation
        ImKH = np.eye(4) - K @ self.H
        self.P = ImKH @ P @ ImKH.T + K @ self.R @ K.T
        return self.x[:2].copy()


def test_criterion_09_metrics_match_hand_values_and_reference_filter():
    est = np.array([[0.0, 0.0], [3.0, 4.0]])
    truth = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert rmse(est, truth) == math.sqrt(12.5)
    assert rmse(truth, truth) == 0.0
    cdf = error_cdf(np.array([0.2, 0.7, 1.4]), (0.5, 1.0, 1.5))
    assert cdf == [(0.5, 1 / 3), (1.0, 2 / 3), (1.5, 1.0)]

    rng = np.random.default_rng(99)
    q, r = 0.4, 0.9
    z0 = rng.normal(0.0, 1.0, 2)
    tracker = KalmanTracker(KalmanParams(q=q, r=r))
    reference = _ReferenceFilter(z0, q, r)
    worst = float(np.max(np.abs(tracker.update(z0, time=0) - z0)))
    for t in range(1, 100):
        z = rng.normal(0.0, 2.0, 2)
        ours = tracker.update(z, time=t)
        theirs = reference.step(z)
        worst = max(worst, float(np.max(np.abs(ours - theirs))))
    ok = worst <= 1e-9
    _report(
        9,
        ok,
        f"rmse and error_cdf exact; filter vs reference max |diff| {worst:.2e} <= 1e-9",
    )


# --------------------------------------------------------- 10. determinism


def test_criterion_10_rerun_is_byte_identical(tmp_path):
    scenario, params = nlos_2node(3)
    outputs = []
    for tag in ("first", "second"):
        scen_path = tmp_path / f"scenario_{tag}.json"
        write_scenario_file(scen_path, scenario, params)
        config = ExperimentConfig(
            scenario=scen_path,
            method="dRTI-mean",
            out_dir=tmp_path / tag,
            imaging=COMPARISON_IMAGING,
            tracking=COMPARISON_TRACKING,
            write_images=True,
        )
        run_experiment(config)
        files = sorted(
            p.relative_to(config.out_dir)
            for p in config.out_dir.rglob("*")
            if p.is_file()
        )
        outputs.append({str(p): (config.out_dir / p).read_bytes() for p in files})
    same = outputs[0] == outputs[1]
    names = sorted(outputs[0])
    ok = same and "trace.csv" in names and "metrics.json" in names
    _report(
        10,
        ok,
        f"{len(names)} files (trace, images, trajectory, report) byte-identical",
    )
