"""Read time of one simulated directional trace, written in three forms.

Simulates the preset in directional mode and writes its trace three ways:

- `stream`: as `write_trace_file` writes it, rows in stream order, so every
  block after the first tick is compared with the rows it is expected to hold;
- `shuffled`: the same rows in an order fixed by one seed, so every block
  takes the reader's general path;
- `exponent`: rows in stream order, every RSSI written as `%.17e`, a form
  the writer never produces.

For each form it times `read_trace_file` `--repeats` times in this process,
then reads it once more under tracemalloc, and prints one `form rows min_ms
median_ms peak_mib` line: peak_mib is that read's traced peak in MiB. Every
read must equal the simulated trace, stream by stream, or the script stops
with an error.

    PYTHONPATH=src python scripts/probe_read.py --preset los_7node --seed 3 --repeats 7
"""

import argparse
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from rti.presets import PRESETS
from rti.simulator import simulate
from rti.traceio import read_trace_file, write_trace_file


def forms(path: Path) -> dict[str, bytes]:
    """The bytes of each form, from the file `write_trace_file` wrote."""
    head, *rows = path.read_bytes().splitlines(keepends=True)
    shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    exponent = []
    for row in rows:
        fields = row.rstrip(b"\r\n").split(b",")
        if fields[10]:
            fields[10] = b"%.17e" % float(fields[10])
        exponent.append(b",".join(fields) + b"\r\n")
    return {
        "stream": head + b"".join(rows),
        "shuffled": head + b"".join(shuffled),
        "exponent": head + b"".join(exponent),
    }


def check(read, trace, form: str) -> None:
    # Each read stream's column in the simulated trace, matched by (tx, rx, kind code).
    keys = [np.column_stack((t.links, t.kinds)) for t in (read, trace)]
    order = [np.lexsort(k.T) for k in keys]
    same = (
        (read.mode, read.tx_power_dbm) == (trace.mode, trace.tx_power_dbm)
        and keys[0].shape == keys[1].shape
        and np.array_equal(keys[0][order[0]], keys[1][order[1]])
        and np.array_equal(read.rssi[:, order[0]], trace.rssi[:, order[1]], equal_nan=True)
    )
    if not same:
        raise SystemExit(f"{form}: the trace read differs from the trace written")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="los_7node", choices=sorted(PRESETS))
    parser.add_argument("--seed", type=int, default=3, help="scenario seed")
    parser.add_argument("--repeats", type=int, default=7, help="reads of each form")
    args = parser.parse_args()

    scenario, params = PRESETS[args.preset](args.seed)
    trace, _ = simulate(replace(scenario, mode="directional"), params)
    print("form rows min_ms median_ms peak_mib")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_file(path, trace)
        for form, data in forms(path).items():
            path.write_bytes(data)
            times = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                read = read_trace_file(path)
                times.append(1000 * (time.perf_counter() - start))
                check(read, trace, form)
            tracemalloc.start()
            try:
                read = read_trace_file(path)
                peak = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            check(read, trace, form)
            low, median = min(times), statistics.median(times)
            print(form, data.count(b"\n") - 1, f"{low:.1f}", f"{median:.1f}", f"{peak:.2f}", flush=True)


if __name__ == "__main__":
    main()
