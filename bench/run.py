"""End-to-end and per-layer benchmark of the RTI pipeline.

    python3 bench/run.py --workload los_drti_run --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one process each
    python3 bench/selftest.py                         # the harness's own tests

One process runs one workload as a closed loop: the next operation starts
when the previous one has returned, with no pools and one BLAS thread.
Every input is generated from `--seed`. After one warm-up
operation, which is checked but not timed (ring20_online warms up with its
reference pass instead), the run measures for `--seconds`, starting no new
operation after that but always completing the workload's minimum. It checks
every operation's outputs and prints its metrics by name and unit. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics, the same four on every workload:

* `setup_s`: the median time of `import rti` (in this process and in four
  fresh interpreters) plus the median of the workload's repeated one-time
  library calls (the reconstructor build in nlos_compare and ring20_online).
  Input generation by the benchmark is not included.
* `op_ms_p50`: median wall time of one operation (los_drti_run: run plus
  re-analysis; nlos_compare: one comparison seed; ring20_online: one frame).
* `peak_rss_mb`: `ru_maxrss` of this process.
* `rmse_m`: mean tracked RMSE over the distinct evaluations of the run, a
  guard that a speed-up does not buy a worse track.

Each workload also prints its own names: `run_s` and `reanalyse_s`
(los_drti_run), `seed_s` (nlos_compare), `frame_ms_p50` and `frame_ms_p99`
(ring20_online), and `failed_frac` on all.

`--trace 1` is a separate run for the per-layer metrics. Operations
alternate untraced and traced, in blocks; spans are recorded around calls
into the library's public functions (see tracing.py), kept in memory and
written to `.bench_out/` at the end. Times are per operation, self times
exclude child spans, and the tracing overhead is the traced minus the
untraced median operation time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from harness import Outcomes, Tracer, median

# One BLAS thread, set before numpy is imported: on a host of two shared CPUs
# a second BLAS thread makes the linear algebra wait on the scheduler, and
# the frame and build times spread about twice as much as with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("los_drti_run", "nlos_compare", "ring20_online")


RTI_MODULES = ("rti.experiment", "rti.imaging", "rti.presets", "rti.traceio", "rti.tracking")
IMPORT_REPEATS = 5  # this process's import, then fresh interpreters'


def import_rti() -> float:
    """Import the library from this checkout's sources.

    Returns the median time of `import rti` (numpy comes with it) over this
    process's import and those of fresh interpreters, so that one slow read
    from disk does not set the figure.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        for module in RTI_MODULES:
            importlib.import_module(module)
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import rti from {src}: {exc}")
    times = [time.perf_counter() - start]
    if not Path(sys.modules["rti.experiment"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: rti was imported from outside {src}")
    probe = (
        f"import sys, time; sys.path.insert(0, {str(src)!r}); t = time.perf_counter(); "
        f"import {', '.join(RTI_MODULES)}; print(time.perf_counter() - t)"
    )
    for _ in range(IMPORT_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        times.append(float(proc.stdout))
    return median(times)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Outcomes]:
    import_s = import_rti()
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")

    from tracing import Library, PER_LAYER, per_layer_metrics
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = WORKLOADS[name](seed, workdir)
        tracer = Tracer() if trace else None
        plain = Library()
        traced = Library(tracer) if trace else None

        setup_times = []
        for k in range(workload.setup_repeats):
            if tracer:
                tracer.op = f"setup#{k}"
            start = time.perf_counter()
            workload.setup(traced or plain)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + (median(setup_times) if setup_times else 0.0)
        workload.prepare(plain)

        outcomes = Outcomes()
        first = workload.warmup_ops
        for i in range(first):
            outcomes.record(f"op#{i}", lambda i=i: workload.operation(plain, i)[1])
        timings: list[tuple[bool, dict]] = []
        blocks = 2 if trace else 1  # a traced run needs an untraced and a traced block
        start = time.perf_counter()
        i = first
        while (
            i - first < max(workload.min_ops, blocks * workload.block)
            or time.perf_counter() - start < seconds
        ):
            is_traced = trace and ((i - first) // workload.block) % 2 == 1
            lib = traced if is_traced else plain
            with lib.installed() if is_traced else nullcontext():
                for i in range(i, i + workload.block):
                    if is_traced:
                        tracer.op = f"op#{i}"

                    def call(i=i, lib=lib, is_traced=is_traced):
                        t, problems = workload.operation(lib, i)
                        timings.append((is_traced, t))
                        return problems

                    outcomes.record(f"op#{i}", call)
            i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        untraced = [t for is_traced, t in timings if not is_traced]
        untraced_ms = [workload.op_ms(t) for t in untraced]
        named = {
            "setup_s": (setup_s, "s", f"median import {import_s:.4f} s + median of "
                        f"{len(setup_times)} set-up repeats"),
            **workload.named_metrics(untraced),
            "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss"),
            "rmse_m": (workload.rmse_m(), "m", f"{len(workload.refs.values)} evaluations"),
            "failed_frac": (outcomes.failed_frac, "ratio",
                            f"{outcomes.failed}/{outcomes.attempted} operations"),
        }
        if trace:
            traced_ms = [workload.op_ms(t) for is_traced, t in timings if is_traced]
            metrics = {
                key: (value, PER_LAYER[key][0])
                for key, value in per_layer_metrics(
                    tracer, len(setup_times), traced_ms, untraced_ms
                ).items()
            }
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_ms_p50": (median(untraced_ms), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "rmse_m": (workload.rmse_m(), "m"),
            }
        for key, (value, unit, note) in named.items():
            print(f"metric {key} {value:.6g} {unit}  ({note})")
        if trace:
            for key, (value, unit) in metrics.items():
                print(f"layer {key} {value:.6g} {unit}")
            for label, message in tracer.warnings.items():
                print(f"warning: counter at {label} not recorded: {message}", file=sys.stderr)
            _report_shares(metrics, untraced_ms, setup_s if setup_times else None)
        for failure in outcomes.first_failures:
            print(f"failure {failure}", file=sys.stderr)

        stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
            "attempted": outcomes.attempted, "failed": outcomes.failed,
            "failures": outcomes.first_failures,
            "operations": [{"traced": is_traced, **t} for is_traced, t in timings],
            "named": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in named.items()},
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
        if tracer:
            _write_spans(stem.with_suffix(".spans.csv"), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, outcomes


def _report_shares(metrics: dict, untraced_ms: list[float], setup_s: float | None) -> None:
    op_s = median(untraced_ms) / 1e3
    trace_layers = sum(
        metrics[f"{layer}.self_s"][0] for layer in ("simulator", "traceio", "linkstats")
    )
    print(f"share simulator+traceio+linkstats self time / untraced op time: {trace_layers / op_s:.3f}")
    if setup_s is not None:
        build = metrics["imaging.build_reconstructor_s"][0]
        print(f"share imaging.build_reconstructor_s / setup_s: {build / setup_s:.3f}")


def _write_spans(path: Path, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start,end,parent,op\n")
        for i, s in enumerate(tracer.spans):
            fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.op}\n")


def run_all(args) -> int:
    """Each workload in its own process, one after another; a summary at the end."""
    summary = {}
    attempted = failed = 0
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited with code {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        ok = ok and result["correct"]
        for key, m in result["metrics"].items():
            summary[f"{name}.{key}"] = m
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0 if ok and attempted else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    metrics, outcomes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
