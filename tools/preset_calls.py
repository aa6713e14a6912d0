"""Time one full-protocol `estimate` call per preset, each in a fresh process.

    python3 tools/preset_calls.py > calls.json
    python3 tools/preset_calls.py --presets table1 table4 --workers 2
    python3 tools/preset_calls.py --small --presets table1

For each preset (table1 and table3-table5 unless --presets names some)
and each worker count (1 and nproc unless --workers names some), a
child process imports the package and runs
`estimate(ladder_market(), preset(name), standard_stream(), workers=w)`
once, with the default method, on the full protocol (32 replications
of 2048 points, seed 42) or, under --small, on 4 replications of 256
points for wiring checks. Each child pins OPENBLAS_NUM_THREADS to
nproc // w, so that workers x BLAS threads <= nproc, as perfbench
does. The tool prints a JSON list with one record per run: the preset,
workers, BLAS threads, the call's wall seconds, the child's peak RSS
in MB (`ru_maxrss`, which counts the imports and the LT build too) and
`simulated_paths`.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qmcgreeks.estimator import estimate  # noqa: E402
from qmcgreeks.presets import PRESETS, ladder_market, preset, standard_stream  # noqa: E402

SMALL = {"points": 256, "replications": 4}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def one_call(name: str, workers: int, small: bool) -> dict:
    """Run the preset's call in this process and describe it."""
    qmc = standard_stream(**(SMALL if small else {}))
    start = time.perf_counter()
    report = estimate(ladder_market(), preset(name), qmc, workers=workers)
    seconds = time.perf_counter() - start
    return {"preset": name, "workers": workers, "seconds": seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "simulated_paths": report.simulated_paths}


def run_child(name: str, workers: int, small: bool) -> dict:
    """One preset call in a fresh process with OpenBLAS pinned."""
    threads = max(1, nproc() // workers)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    command = [sys.executable, __file__, "--child", name, str(workers)]
    proc = subprocess.run(command + (["--small"] if small else []), env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name} at workers={workers} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return dict(json.loads(proc.stdout), blas_threads=threads)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", nargs="+", choices=PRESETS, default=PRESETS)
    parser.add_argument("--workers", nargs="+", type=int,
                        help="worker counts to run (default: 1 and nproc)")
    parser.add_argument("--small", action="store_true",
                        help="4 replications of 256 points instead of 32 of 2048")
    parser.add_argument("--child", nargs=2, metavar=("PRESET", "WORKERS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(one_call(args.child[0], int(args.child[1]), args.small)))
        return 0
    if args.workers and min(args.workers) < 1:
        parser.error(f"--workers counts must be at least 1; got {min(args.workers)}")
    counts = args.workers or sorted({1, nproc()})
    runs = [run_child(name, workers, args.small)
            for name in args.presets for workers in counts]
    json.dump(runs, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
