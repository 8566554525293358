"""Smoke tests: the comparison scripts run and report what `compare` gives."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rti.experiment import METHODS, SelectionConfig, compare
from rti.presets import comparison_config, los_7node, nlos_7node

ROOT = Path(__file__).parent.parent


def run_script(name, *args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == returncode, done.stderr
    return done


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_comparison_script_reports_compare_rmse(tmp_path):
    out = tmp_path / "nlos.csv"
    stdout = run_script(
        "run_comparison.py", "--scenario", "nlos_7node", "--seeds", "1", "--out", str(out)
    ).stdout
    assert "directional detection curve dominated in" in stdout
    evaluations = compare(*nlos_7node(0), [comparison_config(m) for m in METHODS])
    expected = [
        {"seed": "0", "method": m, "rmse_kalman_m": repr(ev.metrics["rmse_kalman_m"])}
        for m, ev in zip(METHODS, evaluations)
    ]
    assert read_rows(out) == expected


def test_selection_sweep_reports_compare_rmse(tmp_path):
    out = tmp_path / "sweep.csv"
    run_script("run_selection_sweep.py", "--seeds", "1", "--ks", "9", "--out", str(out))
    selections = [
        ("all", SelectionConfig()),
        ("fadelevel k=9", SelectionConfig(method="fadelevel", k=9)),
        ("location n=2", SelectionConfig(method="location", n_transmitter=2, n_receiver=2)),
        ("prr k=9", SelectionConfig(method="prr", k=9)),
    ]
    evaluations = compare(
        *los_7node(0), [comparison_config("dRTI-mean", s) for _, s in selections]
    )
    expected = [
        {"seed": "0", "selection": label, "rmse_kalman_m": repr(ev.metrics["rmse_kalman_m"])}
        for (label, _), ev in zip(selections, evaluations)
    ]
    assert read_rows(out) == expected


@pytest.mark.parametrize(
    "args",
    [
        ("run_comparison.py", "--scenario", "los_7node"),
        ("run_selection_sweep.py", "--ks", "9"),
    ],
    ids=["comparison", "sweep"],
)
@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_scripts_reject_fewer_than_one_seed(args, seeds, tmp_path):
    out = tmp_path / "out.csv"
    done = run_script(*args, "--seeds", seeds, "--out", str(out), returncode=2)
    assert "--seeds must be at least 1" in done.stderr
    assert not out.exists()


def test_digest_runs_is_reproducible():
    args = ("digest_runs.py", "--presets", "nlos_2node", "--seeds", "0")
    first = run_script(*args).stdout
    assert run_script(*args).stdout == first
    lines = first.splitlines()
    names = [line.split("  ", 1)[1] for line in lines]
    assert names == sorted(names)
    assert "nlos_2node/0/scenario.json" in names
    assert "nlos_2node/0/dRTI-mean-fadelevel/images/frame_0020.pgm" in names
    assert "nlos_2node/0/dRTI-mean-fadelevel/trace.csv (read)" in names
    assert sum(name.endswith("/trace.csv (read)") for name in names) == 12
    assert len({name.split("/")[2] for name in names if name.count("/") > 2}) == 12
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)


def test_probe_read_prints_one_line_per_form():
    lines = run_script("probe_read.py", "--preset", "nlos_2node", "--repeats", "1").stdout.splitlines()
    assert lines[0].split() == ["form", "rows", "min_ms", "median_ms", "peak_mib"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [[form, "5760"] for form in ("stream", "shuffled", "exponent")]
    for row in rows:
        low, median, peak = map(float, row[2:])
        assert 0.0 < low <= median and peak > 0.0


def test_probe_build_prints_one_line_per_part():
    lines = run_script("probe_build.py", "--cases", "7:1.0").stdout.splitlines()
    assert lines[0].split() == [
        "nodes", "voxel_m", "links", "voxels", "part", "distinct_rows", "time_s", "peak_mib",
        "rss_mib",
    ]
    rows = [line.split() for line in lines[1:]]
    assert [row[:6] for row in rows] == [
        ["7", "1.0", "42", "36", part, "21"]
        for part in ("weights", "identity", "difference")
    ]
    for row in rows:
        seconds, peak, rss = map(float, row[6:])
        assert seconds >= 0.0 and peak > 0.0 and rss > peak


def test_probe_import_prints_the_import_and_each_module():
    lines = run_script("probe_import.py", "--repeats", "1").stdout.splitlines()
    assert lines[0].split() == ["repeats", "min_ms", "median_ms"]
    repeats, low, median = lines[1].split()
    assert repeats == "1" and 0.0 < float(low) == float(median)
    assert lines[2].split() == ["module", "median_self_ms"]
    rows = dict(line.split() for line in lines[3:])
    assert {"rti", "rti.experiment", "rti.simulator", "rti.traceio", "rti.tracking"} <= set(rows)
    assert all(name == "rti" or name.startswith("rti.") for name in rows)
    assert all(float(ms) >= 0.0 for ms in rows.values())
