"""The benchmark's contract with the library, checked without running it.

`bench/tracing.Library` skips a library name it cannot find, so a deleted or
renamed entry point would otherwise show only as failed benchmark operations.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

# Every name the benchmark workloads call through `tracing.Library()`.
WORKLOAD_CALLS = (
    "read_config_file",
    "run_experiment",
    "read_trace_file",
    "read_truth_file",
    "read_scenario_file",
    "evaluate_method",
    "simulate",
    "build_weight_matrix",
    "build_reconstructor",
    "reconstruct",
    "argmax_voxel",
    "KalmanTracker",
)


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_bench_selftest_passes():
    done = run_python(str(ROOT / "bench" / "selftest.py"))
    assert done.returncode == 0, done.stderr


def test_library_resolves_every_name_the_workloads_call():
    probe = (
        "import sys, tracing\n"
        "lib = tracing.Library()\n"
        "print(sorted(name for name in sys.argv[1:] if not callable(getattr(lib, name, None))))\n"
    )
    done = run_python("-c", probe, *WORKLOAD_CALLS)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_pair_counter_reads_a_real_selection():
    # The benchmark counts selected pairs from `SelectionResult.pairs_by_link`;
    # a counter that cannot read it would report 0 pairs per link silently.
    probe = (
        "import tracing\n"
        "from rti.presets import nlos_7node\n"
        "from rti.selection import select_for_layout\n"
        "from rti.simulator import simulate\n"
        "from dataclasses import replace\n"
        "scenario, params = nlos_7node(3)\n"
        "scenario = replace(scenario, mode='directional')\n"
        "trace, _ = simulate(scenario, params)\n"
        "counts = {}\n"
        "class Stub:\n"
        "    def add(self, key, value):\n"
        "        counts[key] = counts.get(key, 0) + value\n"
        "for method, k in (('fadelevel', 9), ('prr', 5), ('location', 4), ('all', 36)):\n"
        "    result = select_for_layout(scenario.layout, method, trace=trace,\n"
        "                               window=(0, scenario.calibration_rounds - 1), k=k)\n"
        "    counts.clear()\n"
        "    tracing._count_pairs(Stub(), result, {})\n"
        "    print(method, counts['selection.pairs'], counts['selection.links'])\n"
    )
    done = run_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:4] == [
        "fadelevel 378 42", "prr 210 42", "location 168 42", "all 1512 42"
    ]


# The library functions `rti.experiment` calls through its own module
# globals, which `tracing.Library.installed` swaps for traced ones.
PIPELINE_GLOBALS = (
    "simulate",
    "select_for_layout",
    "build_weight_matrix",
    "build_reconstructor",
    "compute_stat_matrix",
    "fn_fp_sweep",
    "obstructed_mask",
    "write_trace_file",
    "write_truth_file",
)


def test_the_pipeline_calls_every_traced_name_through_its_module_globals():
    import rti.experiment as experiment

    missing = [name for name in PIPELINE_GLOBALS if not callable(getattr(experiment, name, None))]
    assert missing == []
