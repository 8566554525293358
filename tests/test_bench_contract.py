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
