import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rti.experiment
from rti.cli import EXIT_CONFIG, EXIT_OK, EXIT_PIPE, EXIT_RUNTIME, main
from rti.geometry import NetworkLayout, NodeSpec, build_grid
from rti.simulator import (
    PropagationParams,
    Scenario,
    Trajectory,
    Wall,
    write_scenario_file,
)

QUIET = PropagationParams(fading_std_db=0.0, noise_std_db=0.0, agitation_std_db=0.0)


def small_scenario(seed=0, walls=()) -> Scenario:
    corners = [(0.3, 0.3), (2.7, 0.3), (2.7, 2.7), (0.3, 2.7)]
    nodes = [
        NodeSpec(i, x, y, math.atan2(1.5 - y, 1.5 - x))
        for i, (x, y) in enumerate(corners)
    ]
    return Scenario(
        layout=NetworkLayout(nodes),
        grid=build_grid((0.0, 0.0), 3.0, 3.0, 0.2),
        mode="omni",
        walls=walls,
        trajectory=Trajectory(waypoints=((1.5, 1.5),), speed=0.0),
        seed=seed,
        rounds=6,
        calibration_rounds=4,
    )


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    write_scenario_file(path, small_scenario(), QUIET)
    return path


def write_config(tmp_path, scenario_file, **extra):
    data = {
        "scenario": scenario_file.name,  # exercise path resolution
        "method": "mRTI",
        "out_dir": "out",
        **extra,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


# ------------------------------------------------------------ simulate


def test_simulate_writes_trace_and_truth(tmp_path, scenario_file, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "trace.csv").exists()
    assert (out / "truth.csv").exists()
    stdout = capsys.readouterr().out
    assert "mode: omni" in stdout
    assert "ticks: 10 (4 calibration)" in stdout


def test_simulate_failure_exits_3_naming_the_phase(tmp_path, scenario_file, monkeypatch, capsys):
    def failing(scenario, params):
        raise ValueError("radio on fire")

    monkeypatch.setattr(rti.experiment, "simulate", failing)
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "sim")])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: simulate: radio on fire\n"


@pytest.mark.parametrize("blocked", ["out", "trace.csv"])
def test_simulate_output_failure_exits_3_naming_the_phase(tmp_path, scenario_file, blocked, capsys):
    # An existing file where the run directory goes, or a directory where
    # trace.csv goes.
    out = tmp_path / "sim"
    if blocked == "out":
        out.write_text("")
    else:
        (out / "trace.csv").mkdir(parents=True)
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error: output: ")


def test_simulate_missing_scenario_is_a_config_error(tmp_path, capsys):
    code = main(
        ["simulate", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": []}')
    code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


# ------------------------------------------------------------ run


def test_run_reports_metrics_and_writes_outputs(tmp_path, scenario_file, capsys):
    config = write_config(tmp_path, scenario_file)
    code = main(["run", "--config", str(config)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "method: mRTI (mode omni, seed 0)" in stdout
    assert "rmse_kalman_m:" in stdout
    assert (tmp_path / "out" / "metrics.json").exists()


def test_run_bad_config_exits_2(tmp_path, scenario_file, capsys):
    config = write_config(tmp_path, scenario_file, window=1)
    assert main(["run", "--config", str(config)]) == EXIT_CONFIG
    config = write_config(tmp_path, scenario_file, bogus=True)
    assert main(["run", "--config", str(config)]) == EXIT_CONFIG
    capsys.readouterr()
    config = write_config(tmp_path, scenario_file, window="abc")
    assert main(["run", "--config", str(config)]) == EXIT_CONFIG
    assert "window must be an integer" in capsys.readouterr().err


def test_run_pipeline_failure_exits_3(tmp_path, capsys):
    blocked = small_scenario(
        walls=(
            Wall(1.5, -1.0, 1.5, 4.0, loss_db=200.0),
            Wall(-1.0, 1.5, 4.0, 1.5, loss_db=200.0),
        )
    )
    scen = tmp_path / "blocked.json"
    write_scenario_file(scen, blocked, QUIET)
    config = write_config(tmp_path, scen)
    code = main(["run", "--config", str(config)])
    assert code == EXIT_RUNTIME
    assert "statistics" in capsys.readouterr().err


# ------------------------------------------------------------ seeds


def run_and_read_metrics(tmp_path, scenario_file, out_name, argv_extra=()):
    data = {
        "scenario": scenario_file.name,
        "method": "mRTI",
        "out_dir": out_name,
    }
    config = tmp_path / f"config_{out_name}.json"
    config.write_text(json.dumps(data))
    code = main(["run", "--config", str(config), *argv_extra])
    assert code == EXIT_OK
    return (tmp_path / out_name / "metrics.json").read_bytes()


def test_seed_flag_and_env_agree(tmp_path, scenario_file, monkeypatch, capsys):
    by_flag = run_and_read_metrics(tmp_path, scenario_file, "flag", ("--seed", "5"))
    monkeypatch.setenv("RTI_SEED", "5")
    by_env = run_and_read_metrics(tmp_path, scenario_file, "env")
    assert by_flag == by_env
    assert json.loads(by_env)["seed"] == 5


def test_seed_flag_beats_environment(tmp_path, scenario_file, monkeypatch, capsys):
    monkeypatch.setenv("RTI_SEED", "7")
    out = run_and_read_metrics(tmp_path, scenario_file, "both", ("--seed", "5"))
    assert json.loads(out)["seed"] == 5


def test_env_seed_must_be_an_integer(tmp_path, scenario_file, monkeypatch, capsys):
    monkeypatch.setenv("RTI_SEED", "many")
    config = write_config(tmp_path, scenario_file)
    assert main(["run", "--config", str(config)]) == EXIT_CONFIG
    assert "RTI_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize(
    "flag, env, message",
    [
        ("--seed=-1", None, "error: --seed must be in [0, 2**32), got -1\n"),
        ("--seed=4294967296", None, "error: --seed must be in [0, 2**32), got 4294967296\n"),
        (None, "-1", "error: RTI_SEED must be in [0, 2**32), got '-1'\n"),
        (None, "4294967296", "error: RTI_SEED must be in [0, 2**32), got '4294967296'\n"),
    ],
)
def test_seed_outside_32_bits_is_a_config_error(
    tmp_path, scenario_file, monkeypatch, capsys, command, flag, env, message
):
    if env is not None:
        monkeypatch.setenv("RTI_SEED", env)
    if command == "run":
        argv = ["run", "--config", str(write_config(tmp_path, scenario_file))]
    else:
        argv = ["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "sim")]
    assert main(argv + ([flag] if flag else [])) == EXIT_CONFIG
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists() and not (tmp_path / "sim").exists()


def test_blank_env_seed_is_ignored(tmp_path, scenario_file, monkeypatch, capsys):
    monkeypatch.setenv("RTI_SEED", "")
    config = write_config(tmp_path, scenario_file)
    assert main(["run", "--config", str(config)]) == EXIT_OK


# ------------------------------------------------------------ report


def test_report_text_and_csv(tmp_path, scenario_file, capsys):
    config = write_config(tmp_path, scenario_file)
    assert main(["run", "--config", str(config)]) == EXIT_OK
    capsys.readouterr()

    assert main(["report", "--dir", str(tmp_path / "out")]) == EXIT_OK
    text = capsys.readouterr().out
    assert "rmse_kalman_m" in text
    assert "error_cdf.1.0" in text

    assert main(["report", "--dir", str(tmp_path / "out"), "--format", "csv"]) == EXIT_OK
    csv_out = capsys.readouterr().out.splitlines()
    assert csv_out[0] == "metric,value"
    assert any(line.startswith("rmse_kalman_m,") for line in csv_out)
    assert any(".fn_rate," in line for line in csv_out)


def report_with_stdout(tmp_path, stdout, metrics: int) -> subprocess.Popen:
    """`rti report --format csv` of `metrics` metrics, in a subprocess."""
    (tmp_path / "metrics.json").write_text(json.dumps({f"m{i}": i for i in range(metrics)}))
    src = Path(rti.experiment.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "rti.cli", "report", "--dir", str(tmp_path), "--format", "csv"]
    return subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_report_into_a_closed_pipe_exits_1_without_a_message(tmp_path):
    # The reader of the pipe has gone before the first line is written.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = report_with_stdout(tmp_path, write_end, metrics=3)
    finally:
        os.close(write_end)
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (EXIT_PIPE, b"")


def test_report_into_a_pipe_closed_after_one_line_exits_1_without_a_message(tmp_path):
    # As `rti report ... | head -1`, with more output than a pipe buffers.
    child = report_with_stdout(tmp_path, subprocess.PIPE, metrics=50_000)
    assert child.stdout.readline() == b"metric,value\n"
    child.stdout.close()
    err = child.stderr.read()
    assert (child.wait(timeout=60), err) == (EXIT_PIPE, b"")


def test_report_without_metrics_exits_2(tmp_path, capsys):
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_CONFIG
    assert "metrics.json" in capsys.readouterr().err


def test_report_on_empty_metrics_exits_2(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    path.write_text("{}\n")
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path}: no metrics to report\n"


# ------------------------------------------------------------ bad files

BAD_FILES = {
    "missing": None,
    "directory": "dir",
    "not-utf8": b'{"method": "mRTI\xff"}',
    "invalid-json": b'{"method": ',
    "not-an-object": b'["mRTI"]',
    "duplicate-key": b'{"method": "mRTI", "method": "vRTI"}',
}


def put_bad_file(path, content):
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)


@pytest.mark.parametrize("command", ["simulate", "run", "run-scenario", "report"])
@pytest.mark.parametrize("content", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_bad_json_files_exit_2_naming_the_path(tmp_path, scenario_file, capsys, command, content):
    if command == "simulate":
        path = tmp_path / "bad.json"
        argv = ["simulate", "--scenario", str(path), "--out", str(tmp_path / "sim")]
    elif command == "run":
        path = tmp_path / "bad.json"
        argv = ["run", "--config", str(path)]
    elif command == "run-scenario":
        path = tmp_path / "bad.json"
        argv = ["run", "--config", str(write_config(tmp_path, path))]
    else:
        path = tmp_path / "metrics.json"
        argv = ["report", "--dir", str(tmp_path)]
    put_bad_file(path, content)
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not (tmp_path / "sim").exists() and not (tmp_path / "out").exists()


def test_duplicate_keys_name_the_file_and_the_key(tmp_path, scenario_file, capsys):
    # A repeated key in a nested object: a config's selection section...
    config = write_config(tmp_path, scenario_file)
    text = config.read_text()
    config.write_text(text[:-1] + ', "selection": {"k": 2, "k": 9}}')
    assert main(["run", "--config", str(config)]) == EXIT_CONFIG
    expected = f"error: {config}: key 'k' appears more than once in one object\n"
    assert capsys.readouterr().err == expected
    # ...and a scenario node's coordinate.
    text = scenario_file.read_text()
    scenario_file.write_text(text.replace('"x": 0.3,', '"x": 0.3, "x": 9.0,', 1))
    argv = ["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "sim")]
    assert main(argv) == EXIT_CONFIG
    expected = f"error: {scenario_file}: key 'x' appears more than once in one object\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "sim").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "fn_fp",
    [5, "ab", {"threshold": 1.0}, [5], [{"fn_rate": 0.1, "fp_rate": 0.2}]],
    ids=["int", "string", "object", "int-entry", "no-threshold"],
)
def test_report_on_malformed_fn_fp_exits_2(tmp_path, capsys, fn_fp):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"rmse_kalman_m": 0.5, "fn_fp": fn_fp}))
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    expected = f"error: {path}: fn_fp must be a list of {{threshold, fn_rate, fp_rate}}\n"
    assert captured.err == expected and captured.out == ""
