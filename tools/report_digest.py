"""Digest the preset reports of this checkout, or compare two digests.

    python3 tools/report_digest.py > parent.json
    python3 tools/report_digest.py --small > quick.json
    python3 tools/report_digest.py --compare parent.json change.json

The first form runs `estimate` on table1-table5 with each method
(adaptive, loc, fd) at workers 1 and 2 on `ladder_market()`, with the
full `standard_stream()` protocol (32 replications of 2048 points, seed
42), or with 4 replications of 256 points under --small. It prints JSON with, per report, one sha256 over
the deltas, stderrs, replication means, localization widths, rejections
by component, simulated path count and settings, and the raw deltas.
--compare prints the reports whose digests differ, or that only one
file has, and the largest absolute delta difference over the reports
both have; it exits 1 when any report differs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from qmcgreeks.estimator import METHODS, estimate  # noqa: E402
from qmcgreeks.presets import (PRESETS, ladder_market, preset,  # noqa: E402
                               standard_stream)

WORKERS = (1, 2)


def report_digest(report) -> str:
    digest = hashlib.sha256()
    for array in (report.deltas, report.stderrs, report.replication_means,
                  report.localization_widths, report.rejected_by_component):
        digest.update(b"none" if array is None else np.ascontiguousarray(array).tobytes())
    digest.update(str(report.simulated_paths).encode())
    digest.update(json.dumps(report.settings, sort_keys=True).encode())
    return digest.hexdigest()


def digest_reports(small: bool) -> dict:
    reports = {}
    market = ladder_market()
    qmc = standard_stream(points=256, replications=4) if small else standard_stream()
    for name in PRESETS:
        for method in METHODS:
            for workers in WORKERS:
                report = estimate(market, preset(name), qmc, method, workers=workers)
                reports[f"{name}/{method}/workers={workers}"] = {
                    "sha256": report_digest(report), "deltas": report.deltas.tolist()}
    return reports


def compare(parent: dict, change: dict) -> int:
    differing = sorted(key for key in parent.keys() | change.keys()
                       if parent.get(key, {}).get("sha256")
                       != change.get(key, {}).get("sha256"))
    for key in differing:
        print(f"differs: {key}")
    gap = max((float(np.max(np.abs(np.subtract(parent[key]["deltas"],
                                               change[key]["deltas"]))))
               for key in parent.keys() & change.keys()), default=0.0)
    print(f"{len(differing)} differing reports of {len(parent.keys() | change.keys())}; "
          f"max |delta difference| = {gap:g}")
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true",
                        help="4 replications of 256 points instead of 32 of 2048")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two digest files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        parent, change = (json.loads(Path(path).read_text(encoding="utf-8"))
                          for path in args.compare)
        return compare(parent, change)
    json.dump(digest_reports(args.small), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
