"""Pattern-pair selection sweep on the open-area scenario.

Evaluates dRTI-mean with the full 36-pair set against fade-level selection
over a range of k, location selection, and packet-reception-rate selection.
Fade level should approach the full set by k = 9 or so.

    python scripts/run_selection_sweep.py --seeds 5 --ks 1 2 4 9 18 36
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from rti.experiment import SelectionConfig, compare, scenario_reconstructor
from rti.presets import COMPARISON_IMAGING, comparison_config, los_7node


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds")
    parser.add_argument(
        "--ks", type=int, nargs="+", default=[1, 2, 4, 9, 18, 36],
        help="fade-level pair counts to sweep",
    )
    parser.add_argument("--out", type=Path, default=None, help="optional CSV path")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    selections = [("all", SelectionConfig())]
    selections += [
        (f"fadelevel k={k}", SelectionConfig(method="fadelevel", k=k))
        for k in args.ks
    ]
    selections += [
        ("location n=2", SelectionConfig(method="location", n_transmitter=2, n_receiver=2)),
        ("prr k=9", SelectionConfig(method="prr", k=9)),
    ]

    reconstructor = scenario_reconstructor(los_7node(0)[0], COMPARISON_IMAGING)
    configs = [comparison_config("dRTI-mean", selection) for _, selection in selections]

    rows = []
    rmse = {label: [] for label, _ in selections}
    for seed in range(args.seeds):
        evaluations = compare(*los_7node(seed), configs, reconstructor)
        for (label, _), ev in zip(selections, evaluations):
            value = ev.metrics["rmse_kalman_m"]
            rmse[label].append(value)
            rows.append({"seed": seed, "selection": label, "rmse_kalman_m": value})

    base = np.median(rmse["all"])
    print(f"{'selection':>15}  median rmse  vs all-pairs")
    for label, _ in selections:
        med = np.median(rmse[label])
        print(f"{label:>15}  {med:11.3f}  {med / base:10.2f}x")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["seed", "selection", "rmse_kalman_m"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
