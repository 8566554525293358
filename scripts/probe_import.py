"""Import time of the library, one fresh interpreter per repeat.

Each repeat spawns `python -X importtime` with one BLAS thread, as the
benchmark does, and imports the modules the benchmark imports. The child
times that import with `perf_counter`; `-X importtime` gives the self time
of every module it loads. The script prints two tables:

- `repeats min_ms median_ms`: the wall time of the import;
- `module median_self_ms`: for each `rti` module, the median of its self
  time, the time spent in its own code and compiling it, without the
  modules it imports.

From a checkout, put the sources on the path, as the spawned interpreters
import `rti` too (or install the package):

    PYTHONPATH=src python scripts/probe_import.py --repeats 21
"""

import argparse
import os
import statistics
import subprocess
import sys

MODULES = ("rti.experiment", "rti.imaging", "rti.presets", "rti.traceio", "rti.tracking")
CHILD = (
    "import time; t = time.perf_counter(); "
    f"import {', '.join(MODULES)}; print(time.perf_counter() - t)"
)


def run_once(env: dict) -> tuple[float, dict[str, float]]:
    """The import's wall time and each rti module's self time, in ms."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", CHILD],
        env=env, capture_output=True, text=True, check=True,
    )
    own = {}
    for line in done.stderr.splitlines():
        # import time: <self us> | <cumulative us> | <nested module name>
        if line.startswith("import time:"):
            self_us, _, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "rti" or name.startswith("rti."):
                own[name] = int(self_us) / 1000
    return 1000 * float(done.stdout), own


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=11, help="fresh interpreters to run")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    runs = [run_once(env) for _ in range(args.repeats)]
    times = [wall for wall, _ in runs]
    print("repeats min_ms median_ms")
    print(args.repeats, f"{min(times):.1f}", f"{statistics.median(times):.1f}")
    print("module median_self_ms")
    for name in sorted({name for _, own in runs for name in own}):
        print(name, f"{statistics.median(own.get(name, 0.0) for _, own in runs):.1f}")


if __name__ == "__main__":
    main()
