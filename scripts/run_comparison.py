"""Compare all six imaging methods on the open-area or through-wall ring.

Simulates one trace per antenna mode and seed, evaluates every method on
its matching trace, and prints per-seed and median RMSE. Expected outcomes:
dRTI < cRTI < omni within each statistic family; through walls, variance
methods also beat mean methods. The detection column says whether the
directional mean-change curve is beaten on a false-negative /
false-positive threshold sweep.

    python scripts/run_comparison.py --scenario los_7node --seeds 10
    python scripts/run_comparison.py --scenario nlos_7node --seeds 10
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from rti.experiment import METHODS, compare, scenario_reconstructor
from rti.presets import COMPARISON_IMAGING, PRESETS, comparison_config


def achievable_fp(curve, fn_budget):
    """Best false-positive rate among sweep points within the FN budget."""
    fps = [p["fp_rate"] for p in curve if p["fn_rate"] <= fn_budget + 1e-12]
    return min(fps) if fps else float("inf")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario", required=True, choices=("los_7node", "nlos_7node"),
        help="ring preset to compare on",
    )
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds")
    parser.add_argument("--out", type=Path, default=None, help="optional CSV path")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    factory = PRESETS[args.scenario]
    reconstructor = scenario_reconstructor(factory(0)[0], COMPARISON_IMAGING)
    configs = [comparison_config(method) for method in METHODS]

    rows = []
    rmse = {m: [] for m in METHODS}
    dominated_seeds = 0
    print("seed  " + "  ".join(f"{m:>9}" for m in METHODS) + "  detection")
    for seed in range(args.seeds):
        evaluations = compare(*factory(seed), configs, reconstructor)
        line = [f"{seed:>4}"]
        curves = {}
        for method, ev in zip(METHODS, evaluations):
            value = ev.metrics["rmse_kalman_m"]
            rmse[method].append(value)
            curves[method] = ev.metrics["fn_fp"]
            rows.append({"seed": seed, "method": method, "rmse_kalman_m": value})
            line.append(f"{value:9.3f}")

        # Mean-change detection: is the directional curve ever beaten?
        dominated = any(
            achievable_fp(curves["dRTI-mean"], p["fn_rate"])
            > min(
                achievable_fp(curves["mRTI"], p["fn_rate"]),
                achievable_fp(curves["cRTI-mean"], p["fn_rate"]),
            )
            for p in curves["dRTI-mean"]
        )
        dominated_seeds += dominated
        line.append("dominated" if dominated else "non-dominated")
        print("  ".join(line))

    print("med   " + "  ".join(f"{np.median(rmse[m]):9.3f}" for m in METHODS))
    print(f"directional detection curve dominated in {dominated_seeds}/{args.seeds} seeds")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["seed", "method", "rmse_kalman_m"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
