"""Time and memory of the reconstructor set-up, one fresh process per line.

Each case is a ring of nodes of radius 2.9 m in a 6 x 6 m area at one voxel
width, with ellipse excess 0.5 m and alpha 25. For each case it prints one
line for `build_weight_matrix` and one for `build_reconstructor` with each
regulariser. Every line comes from its own spawned interpreter with one BLAS
thread, which builds the weights (untraced, for the two builds) and then
times one call under tracemalloc:

- `distinct_rows`: the distinct weight rows G, which the weights store and
  the reconstructor solves on;
- `time_s`: wall time of the call, traced;
- `peak_mib`: the tracemalloc peak during the call, counting what was held
  when it started (the weights, for the builds);
- `rss_mib`: the interpreter's `ru_maxrss` after the call.

From a checkout, put the sources on the path, as the spawned interpreters
import `rti` too (or install the package):

    PYTHONPATH=src python scripts/probe_build.py                # ring20, ring40 at 0.1 m; ring40 at 0.05 m
    PYTHONPATH=src python scripts/probe_build.py --cases 7:1.0  # a 7-node ring at 1 m voxels
"""

import argparse
import multiprocessing
import os
import resource
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

PARTS = ("weights", "identity", "difference")
COLUMNS = ("nodes", "voxel_m", "links", "voxels", "part", "distinct_rows", "time_s", "peak_mib",
           "rss_mib")


def probe(nodes: int, voxel: float, part: str) -> tuple:
    """One line's figures, measured in this process."""
    from rti.geometry import build_grid, build_weight_matrix
    from rti.imaging import build_reconstructor
    from rti.presets import ring_layout

    grid = build_grid((0.0, 0.0), 6.0, 6.0, voxel)
    layout = ring_layout(nodes, 2.9, (3.0, 3.0))
    tracemalloc.start()
    if part == "weights":
        start = time.perf_counter()
        weights = build_weight_matrix(grid, layout, 0.5)
        seconds = time.perf_counter() - start
        distinct = len(weights.rows)
    else:
        weights = build_weight_matrix(grid, layout, 0.5)
        tracemalloc.reset_peak()
        start = time.perf_counter()
        rec = build_reconstructor(weights, 25.0, part, grid=grid)
        seconds = time.perf_counter() - start
        distinct = rec.distinct_rows
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (nodes, voxel, layout.num_links, grid.num_voxels, part, distinct,
            f"{seconds:.3f}", f"{peak / 2**20:.2f}", f"{rss_kib / 1024:.1f}")


def case(text: str) -> tuple[int, float]:
    nodes, voxel = text.split(":")
    return int(nodes), float(voxel)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cases", type=case, nargs="+", default=[(20, 0.1), (40, 0.1), (40, 0.05)],
        help="NODES:VOXEL_M pairs",
    )
    args = parser.parse_args()
    # Inherited by the spawned interpreters before they import numpy.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    spawn = multiprocessing.get_context("spawn")
    print(" ".join(COLUMNS))
    for nodes, voxel in args.cases:
        for part in PARTS:
            with ProcessPoolExecutor(1, mp_context=spawn) as pool:
                print(" ".join(map(str, pool.submit(probe, nodes, voxel, part).result())), flush=True)


if __name__ == "__main__":
    main()
