"""SHA-256 of every artefact the twelve comparison configs write.

For each preset and seed, writes the scenario file, then runs
`run_experiment` for mRTI, vRTI, cRTI-mean, cRTI-var, and dRTI-mean and
dRTI-var under each selector, at the comparison settings, in a temporary
directory; dRTI-mean with fade-level selection also writes its images. Prints
one `sha256  preset/seed/config/file` line per file, and one
`sha256  preset/seed/config/trace.csv (read)` line per run for the trace
`read_trace_file` returns (its mode, tx power and stream keys, then its RSSI
bytes), sorted by path, so two trees that should give byte-identical runs,
and read them back alike, can be compared with `diff`.

    python scripts/digest_runs.py --presets los_7node nlos_7node --seeds 3
"""

import argparse
import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

from rti.experiment import run_experiment
from rti.linkstats import VALID_CHANNELS, stream_kinds
from rti.presets import PRESETS, comparison_configs
from rti.simulator import write_scenario_file
from rti.traceio import read_trace_file


def stream_keys(trace) -> tuple:
    """Each stream as a (tx_id, rx_id, channel, tx_dir, rx_dir) tuple, with
    None in the slots its kind does not use."""
    kinds = stream_kinds(trace.mode, VALID_CHANNELS)
    return tuple((tx, rx, *kinds[code]) for (tx, rx), code in zip(trace.links.tolist(), trace.kinds.tolist()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", nargs="+", required=True, choices=sorted(PRESETS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="scenario seeds")
    args = parser.parse_args()

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for preset in args.presets:
            for seed in args.seeds:
                run_dir = root / preset / str(seed)
                run_dir.mkdir(parents=True, exist_ok=True)
                scenario_path = run_dir / "scenario.json"
                write_scenario_file(scenario_path, *PRESETS[preset](seed))
                for label, config in comparison_configs().items():
                    config = replace(config, scenario=scenario_path, out_dir=run_dir / label)
                    run_experiment(replace(config, write_images=label == "dRTI-mean-fadelevel"))
        for path in root.rglob("*"):
            if path.is_file():
                name = path.relative_to(root).as_posix()
                digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("trace.csv"):
            trace = read_trace_file(path)
            read = repr((trace.mode, trace.tx_power_dbm, stream_keys(trace))).encode() + trace.rssi.tobytes()
            digests[f"{path.relative_to(root).as_posix()} (read)"] = hashlib.sha256(read).hexdigest()
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")


if __name__ == "__main__":
    main()
