"""Command line front end.

    rti simulate --scenario S.json --out DIR [--seed N]
    rti run --config C.json [--seed N]
    rti report --dir DIR [--format text|csv]

Exit codes: 0 success, 1 standard output closed before all of it was
written (a broken pipe, as in `rti report ... | head`; no message), 2
configuration problem, 3 runtime failure. The RTI_SEED environment variable
overrides the seed from scenario and config files; an explicit --seed flag
beats both.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .experiment import ConfigError, PhaseError, read_config_file, record_run, run_experiment
from .simulator import SEED_LIMIT, ScenarioError, read_json_object, read_scenario_file

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _env_seed() -> int | None:
    raw = os.environ.get("RTI_SEED")
    if raw is None or raw == "":
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"RTI_SEED must be an integer, got {raw!r}") from None
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"RTI_SEED must be in [0, 2**32), got {raw!r}")
    return seed


def _effective_seed(flag_seed: int | None) -> int | None:
    if flag_seed is None:
        return _env_seed()
    if not 0 <= flag_seed < SEED_LIMIT:
        raise ConfigError(f"--seed must be in [0, 2**32), got {flag_seed}")
    return flag_seed


def _cmd_simulate(args) -> int:
    scenario, params = read_scenario_file(args.scenario)
    seed = _effective_seed(args.seed)
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    out_dir = Path(args.out)
    trace, _truth = record_run(scenario, params, out_dir)
    received = int(np.count_nonzero(~np.isnan(trace.rssi)))
    print(f"mode: {scenario.mode}")
    print(f"ticks: {scenario.total_ticks} ({scenario.calibration_rounds} calibration)")
    print(f"records: {trace.rssi.size} ({received} received)")
    print(f"wrote {out_dir / 'trace.csv'}")
    print(f"wrote {out_dir / 'truth.csv'}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = read_config_file(args.config)
    seed = _effective_seed(args.seed)
    if seed is not None:
        config = replace(config, seed=seed)
    metrics = run_experiment(config).metrics
    print(f"method: {metrics['method']} (mode {metrics['mode']}, seed {metrics['seed']})")
    print(f"links: {metrics['num_links']}, rounds: {metrics['rounds']}")
    print(f"rmse_kalman_m: {metrics['rmse_kalman_m']:.4f}")
    print(f"rmse_argmax_m: {metrics['rmse_argmax_m']:.4f}")
    print(f"p90_error_m: {metrics['p90_error_m']:.4f}")
    print(f"outputs in {config.out_dir}")
    return EXIT_OK


def _flatten(metrics: dict, path: Path) -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key in sorted(metrics):
        value = metrics[key]
        if key == "fn_fp":
            if not isinstance(value, list) or not all(
                isinstance(e, dict) and {"threshold", "fn_rate", "fp_rate"} <= e.keys() for e in value
            ):
                raise ConfigError(f"{path}: fn_fp must be a list of {{threshold, fn_rate, fp_rate}}")
            for entry in value:
                tag = f"fn_fp[{entry['threshold']!r}]"
                rows.append((tag + ".fn_rate", entry["fn_rate"]))
                rows.append((tag + ".fp_rate", entry["fp_rate"]))
        elif isinstance(value, dict):
            for sub in sorted(value):
                rows.append((f"{key}.{sub}", value[sub]))
        else:
            rows.append((key, value))
    return rows


def _cmd_report(args) -> int:
    path = Path(args.dir) / "metrics.json"
    rows = _flatten(read_json_object(path, "metrics", ConfigError), path)
    if not rows:
        raise ConfigError(f"{path}: no metrics to report")
    if args.format == "csv":
        print("metric,value")
        for key, value in rows:
            print(f"{key},{value}")
    else:
        width = max(len(key) for key, _ in rows)
        for key, value in rows:
            print(f"{key:<{width}}  {value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rti",
        description="Radio tomographic imaging: simulate link traces, run "
        "imaging and tracking experiments, report metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a trace from a scenario file")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_sim.set_defaults(func=_cmd_simulate)

    p_run = sub.add_parser("run", help="run a full experiment from a config file")
    p_run.add_argument("--config", required=True, help="experiment config JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("report", help="render metrics.json from a run directory")
    p_rep.add_argument("--dir", required=True, help="experiment output directory")
    p_rep.add_argument("--format", choices=("text", "csv"), default="text")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # The reader of standard output has gone. As in the recipe of
        # Python's signal docs, stdout is pointed at devnull so that the
        # flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ConfigError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - last resort
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
