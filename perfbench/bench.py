"""One benchmark workload in its own process.

`run.py` starts this script once per set-up sample and once for the
measured run, so import time is paid afresh each time and the peak
resident memory belongs to the workload alone. The last line of
standard output is one JSON object with the results.

    python3 perfbench/bench.py setup --workload best_of --seed 42
    python3 perfbench/bench.py run --workload best_of --seed 42 --seconds 20 --trace 0

Only the public API is called: `presets`, `lt.build_lt_matrix`,
`estimator.estimate` and `PayoffSpec`. The seed reaches the package
through `presets.standard_stream(seed=...)` and nowhere else.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

POINTS = 2048
LSS_BLOCK = 50
SMOKE_POINTS = 256
SMOKE_REPLICATIONS = 2
GATE_SIGMAS = 5.0


@dataclass(frozen=True)
class Workload:
    kind: str
    strikes: tuple[float, ...]
    method: str
    parallel: bool       # workers = nproc instead of 1
    replications: int    # per `estimate` call at full size


# Why these three: see BENCHMARK.json. table3 (floating) and table4
# (digital) run the same qmc/market/weights path as asian_call at
# about the same cost per replication, so they are left out.
WORKLOADS = {
    "asian_call": Workload("call", (100.0,), "adaptive", False, 16),
    "best_of": Workload("best_of", (100.0,), "adaptive", False, 12),
    "fd_sweep": Workload("call", (90.0, 95.0, 100.0, 105.0, 110.0), "fd",
                         True, 12),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workers_for(workload: Workload) -> int:
    return nproc() if workload.parallel else 1


def blas_threads_for(workload: Workload) -> int:
    """OpenBLAS threads such that workers x BLAS threads <= nproc."""
    return max(1, nproc() // workers_for(workload))


def import_package():
    """Import qmcgreeks from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import qmcgreeks
    origin = Path(qmcgreeks.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"qmcgreeks imported from {origin}, not from {SRC}")
    return qmcgreeks


@dataclass
class Context:
    package: object
    market: object
    stream: object
    specs: list
    lt_build: object
    workload: Workload


def set_up(workload: Workload, seed: int | None, smoke: bool) -> Context:
    """Everything before the first `estimate` call: import, market,
    stream and the LT rotation, which every strike shares. seed None
    means presets.DEFAULT_SEED."""
    package = import_package()
    from qmcgreeks import lt, presets
    if seed is None:
        seed = presets.DEFAULT_SEED
    market = presets.ladder_market()
    stream = presets.standard_stream(
        points=SMOKE_POINTS if smoke else POINTS,
        replications=SMOKE_REPLICATIONS if smoke else workload.replications,
        block=LSS_BLOCK, seed=seed)
    specs = [package.PayoffSpec(workload.kind, strike) for strike in workload.strikes]
    lt_build = lt.build_lt_matrix(market, specs[0])
    return Context(package, market, stream, specs, lt_build, workload)


def run_pass(ctx: Context) -> tuple[float, list]:
    """One `estimate` call per strike; wall seconds and reports.

    A call that raises yields its exception in place of a report.
    """
    estimate = ctx.package.estimator.estimate
    workers = workers_for(ctx.workload)
    results = []
    start = time.perf_counter()
    for spec in ctx.specs:
        try:
            results.append(estimate(ctx.market, spec, ctx.stream,
                                    ctx.workload.method, workers=workers,
                                    lt_build=ctx.lt_build))
        except Exception as exc:  # a failed call is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            results.append(exc)
    return time.perf_counter() - start, results


def summarize(result) -> dict | str:
    """Deltas, stderrs and rejections of one call, or why it failed."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    deltas = [float(x) for x in result.deltas]
    stderrs = [float(x) for x in result.stderrs]
    if not all(math.isfinite(x) for x in deltas + stderrs):
        return "non-finite delta or stderr"
    return {"deltas": deltas, "stderrs": stderrs,
            "rejected": int(result.rejected_by_component.sum())}


def band_ratios(call: dict, reference: dict) -> list[float]:
    """|delta - reference delta| over the allowed band, per component."""
    ratios = []
    for d, s, rd, rs in zip(call["deltas"], call["stderrs"],
                            reference["deltas"], reference["stderrs"]):
        band = GATE_SIGMAS * math.hypot(s, rs)
        ratios.append(abs(d - rd) / band if band > 0 else math.inf * (d != rd))
    return ratios


def gate(call: dict, reference: dict | None) -> str | None:
    """Why a call misses the reference band, or None when it passes.

    Each delta must lie within GATE_SIGMAS * hypot(stderr, reference
    stderr) of the reference delta: wide enough for an independent
    seed, and indifferent to last-bit drift.
    """
    if reference is None:
        return "no reference recorded"
    misses = [k for k, ratio in enumerate(band_ratios(call, reference)) if ratio > 1.0]
    if not misses:
        return None
    k = misses[0]
    return (f"component {k + 1}: delta {call['deltas'][k]!r} is outside "
            f"{reference['deltas'][k]!r} +- {GATE_SIGMAS:g}*hypot("
            f"{call['stderrs'][k]!r}, {reference['stderrs'][k]!r})")


def load_reference(name: str, smoke: bool) -> list | None:
    try:
        table = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return None
    return table.get("smoke" if smoke else "full", {}).get(name)


def machine_record(workload: Workload, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "workers": workers_for(workload),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths, key=lambda path: "numpy" not in path):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def measure(ctx: Context, name: str, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Repeat passes until `seconds` have gone by; in a traced run,
    alternate untraced and traced passes so both are measured."""
    reference = load_reference(name, smoke)
    walls: list[float] = []
    traced_walls: list[float] = []
    layer_totals: dict[str, float] = {}
    first: list | None = None
    attempted = failed = 0
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(walls) > len(traced_walls)
        if traced:
            with Tracer(ctx.package) as tracer:
                wall, results = run_pass(ctx)
            traced_walls.append(wall)
            layers = layer_metrics(tracer.spans, workers_for(ctx.workload), wall)
            for key, value in layers.items():
                layer_totals[key] = layer_totals.get(key, 0.0) + value
        else:
            wall, results = run_pass(ctx)
            walls.append(wall)
        calls = [summarize(result) for result in results]
        if first is None:
            first = calls
        for i, call in enumerate(calls):
            attempted += 1
            if isinstance(call, str):
                problem = call
            elif call != first[i]:
                problem = "differs from the first pass at the same seed"
            else:
                problem = gate(call, reference[i] if reference else None)
            if problem:
                failed += 1
                failures.append(f"strike {ctx.specs[i].strike:g}: {problem}")
        if time.perf_counter() >= deadline and (not trace or traced_walls):
            break
    result = {
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(failures)),
        "calls": first,
    }
    good = [call for call in first if isinstance(call, dict)]
    result["stderr_max"] = max((max(c["stderrs"]) for c in good), default=math.nan)
    result["rejected_paths"] = sum(c["rejected"] for c in good)
    if reference:
        checked = [(call, ref) for call, ref in zip(first, reference)
                   if isinstance(call, dict)]
        result["max_drift"] = max((abs(d - rd) for call, ref in checked
                                   for d, rd in zip(call["deltas"], ref["deltas"])),
                                  default=math.nan)
        result["band_ratio"] = max((ratio for call, ref in checked
                                    for ratio in band_ratios(call, ref)),
                                   default=math.nan)
    if trace:
        result["traced_walls"] = traced_walls
        result["layers"] = {key: value / len(traced_walls)
                            for key, value in layer_totals.items()}
    return result


def trace_lt_build(ctx: Context) -> dict:
    """LT-build layer numbers from one extra, traced build."""
    with Tracer(ctx.package) as tracer:
        ctx.package.lt.build_lt_matrix(ctx.market, ctx.specs[0])
    layers = layer_metrics(tracer.spans, 1, 0.0)
    return {key: layers[key] for key in ("lt.build_s", "lt.build_sim_calls")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    workload = WORKLOADS[args.workload]
    ctx = set_up(workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - start
    out = {"setup_s": setup_s}
    if args.mode == "run":
        out.update(measure(ctx, args.workload, args.seconds, bool(args.trace),
                           args.smoke))
        if args.trace:
            out["layers"].update(trace_lt_build(ctx))
            out["layers"]["estimator.rejected_paths"] = out["rejected_paths"]
            out["layers"]["trace_overhead_s"] = (statistics.median(out["traced_walls"])
                                                 - statistics.median(out["walls"]))
        out["machine"] = machine_record(workload, ctx.stream.seed)
        out["replications"] = ctx.stream.replications
        out["points"] = ctx.stream.points_per_replication
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
