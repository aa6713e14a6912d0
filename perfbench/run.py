"""Delta benchmark for qmcgreeks.

Runs one workload (or all three) of the ten-asset, 64-date benchmark
market, checks every delta against the recorded reference, and prints
each metric by name and unit. The last line is a JSON summary.

    python3 perfbench/run.py --workload asian_call --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload best_of --trace 1   # per-layer numbers
    python3 perfbench/run.py --smoke                        # every workload, tiny size
    python3 perfbench/run.py --record-reference             # rewrite reference.json

With --trace 0 the metrics are the end-to-end ones, measured without
tracing: setup_s (import, market, stream and LT build; median of
SETUP_SAMPLES fresh processes), deltas_s (median wall time of one pass
of `estimate` calls) and peak_rss_mb (of the measuring process). With
--trace 1 they are the per-layer numbers of spans.layer_metrics,
averaged over the traced passes.

Every workload runs in a child process of its own, with OpenBLAS
pinned so that workers x BLAS threads <= nproc. Smoke mode runs two
replications of 256 points for wiring checks; its numbers are never
used for a claim.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench
import spans

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
TIME_LIMIT = 170.0   # seconds for all processes of one workload

COUNTS = set(spans.COUNT_METRICS) | {"estimator.rejected_paths"}


class ChildFailed(RuntimeError):
    pass


def child(mode: str, name: str, seed: int | None, deadline: float,
          seconds: float = 0.0, trace: int = 0, smoke: bool = False) -> dict:
    """Run bench.py in a fresh process and return its JSON result.

    The process is killed if it is still running at `deadline`
    (a time.monotonic() value).
    """
    workload = bench.WORKLOADS[name]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(bench.blas_threads_for(workload)))
    command = [sys.executable, str(HERE / "bench.py"), mode, "--workload", name,
               "--seconds", repr(seconds), "--trace", str(trace)]
    if seed is not None:
        command += ["--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{name}: {mode} process ran past the "
                          f"{TIME_LIMIT:g} s limit") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{name}: {mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def metrics_of(out: dict, setups: list[float], trace: int) -> dict:
    """Metric name -> (value, unit) from a child's result."""
    if not trace:
        return {"setup_s": (statistics.median(setups), "s"),
                "deltas_s": (statistics.median(out["walls"]), "s"),
                "peak_rss_mb": (out["peak_rss_mb"], "MB")}
    metrics = {}
    for key, value in sorted(out["layers"].items()):
        if key in COUNTS:
            metrics[key] = (round(value), "count")
        else:
            metrics[key] = (value, "share" if key == "estimator.thread_busy" else "s")
    return metrics


def run_workload(name: str, seed: int | None, seconds: float, trace: int,
                 smoke: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    samples = SETUP_SAMPLES if not (trace or smoke) else 1
    setups = [child("setup", name, seed, deadline, smoke=smoke)["setup_s"]
              for _ in range(samples - 1)]
    out = child("run", name, seed, deadline, seconds, trace, smoke)
    setups.append(out["setup_s"])
    metrics = metrics_of(out, setups, trace)

    machine = out["machine"]
    print(f"workload {name}: seed {machine['seed']}, {out['replications']} replications "
          f"x {out['points']} points, workers {machine['workers']}, "
          f"{len(out['walls'])} untraced passes"
          + (f", {len(out['traced_walls'])} traced" if trace else "")
          + (" (smoke size: wiring check only, never a claim)" if smoke else ""))
    print("machine " + json.dumps(machine))
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    # reported on every run, never bounded: both depend on the seed
    print(f"stderr_max {out['stderr_max']!r} 1")
    print(f"failed_share {out['failed'] / out['attempted']!r} share")
    print(f"max_drift {out.get('max_drift', math.nan)!r} 1 (diagnostic: largest "
          f"|delta - reference delta|; band_ratio {out.get('band_ratio', math.nan):.3f} "
          f"of the gate's allowance)")
    if trace:
        wall = statistics.median(out["traced_walls"])
        print(f"traced deltas_s {wall!r} s; layer self times account for "
              f"{spans.accounted_share(out['layers'], wall):.4f} of it "
              f"(x workers {machine['workers']} when threaded)")
    for failure in out["failures"]:
        print(f"FAILED {failure}")
    summary = {"correct": out["failed"] == 0,
               "attempted": out["attempted"],
               "failed": out["failed"],
               "metrics": {key: {"value": value, "unit": unit}
                           for key, (value, unit) in metrics.items()}}
    print(json.dumps(summary), flush=True)
    return out


def record_reference() -> None:
    """Rewrite reference.json from one pass per workload at the default seed."""
    table: dict = {}
    for smoke in (False, True):
        size = table.setdefault("smoke" if smoke else "full", {})
        for name in bench.WORKLOADS:
            out = child("run", name, None, time.monotonic() + TIME_LIMIT, smoke=smoke)
            if any(isinstance(call, str) for call in out["calls"]):
                raise ChildFailed(f"{name}: {out['calls']}")
            size[name] = [{"deltas": call["deltas"], "stderrs": call["stderrs"]}
                          for call in out["calls"]]
            table["seed"] = out["machine"]["seed"]
    bench.REFERENCE.write_text(json.dumps(table, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: presets.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure passes for this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size, one pass: wiring check only")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (bench.SRC / "qmcgreeks" / "__init__.py").is_file():
        print(f"no qmcgreeks package under {bench.SRC}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
            return 0
        seconds = 0.0 if args.smoke else args.seconds
        for name in [args.workload] if args.workload else list(bench.WORKLOADS):
            run_workload(name, args.seed, seconds, args.trace, args.smoke)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
