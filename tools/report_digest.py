"""Digest the preset reports of this checkout, or compare two digests.

    python3 tools/report_digest.py > parent.json
    python3 tools/report_digest.py --small > quick.json
    python3 tools/report_digest.py --compare parent.json change.json

The first form runs `estimate` on table1 and table3-table5 with each
method (adaptive, loc, fd) at workers 1 and 2 on `ladder_market()`,
with the full `standard_stream()` protocol (32 replications of 2048
points, seed 42), or with 4 replications of 256 points under --small.
Adaptive and fd also run on the other draw branches: table1 and table5
on pseudo-random draws, and all four presets on scrambled Sobol draws
without the rotation (the unrotated path build). It prints JSON with,
per report, one sha256 over the deltas, stderrs, replication means,
localization widths, rejections by component, simulated path count
and settings, and the raw deltas, stderrs, replication means and
localization widths (null for fd). It also runs the CLI, through
`cli.run`, on `--sweep 90:110:5` with `--debug-replications` for
table1, table4 and table5 with each method at workers 2, and keys one
sha256 over the bytes of both CSVs, with the deltas and stderrs
columns of the CSV and the means column of the dump, flat in file
order, under `sweep/`.
--compare prints the reports whose digests differ, or that only one
file has, and the largest absolute difference of deltas, of stderrs
and of replication means over the reports both have, each on its own;
a statistic that an older digest lacks is skipped. It also prints the
largest absolute width difference over the reports whose digests both
carry widths, which fd reports, sweep entries and older digests do not,
and the largest |delta difference| / stderr, in the first file's
stderrs, so a change that moves last bits on purpose reads its move
in standard errors. When the reports both files have span two or more
presets, further lines give the largest absolute delta difference and
the largest |delta difference| / stderr per preset, so a change that
moves some payoff kinds' last bits shows which.
It exits 1 when any report differs, and 2, naming the file, when a file
cannot be read, holds no digest object or holds an empty one.

Reports are bit-identical across worker counts, and across OpenBLAS
thread counts: the path product, a float32 sgemm on fixed blocks of
256 draws by d + 2 * assets columns, unpadded, gave the same full
digest at 1 and 2 threads, as did ragged and sub-block replications.
That was checked against one host's sgemm kernel only, so run as a script
the tool still sets OPENBLAS_NUM_THREADS=1 in its own process before
numpy loads; digests made on any host thread setting then compare
clean.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from qmcgreeks import cli  # noqa: E402
from qmcgreeks.estimator import METHODS, estimate  # noqa: E402
from qmcgreeks.presets import (PRESETS, ladder_market, preset,  # noqa: E402
                               standard_stream)

WORKERS = (1, 2)
# key suffix -> (stream settings, use_lt, presets) of the other draw branches
VARIANTS = {
    "sampler=pseudo_random": ({"mode": "pseudo_random"}, True, ("table1", "table5")),
    "lt=off": ({}, False, PRESETS),
}
VARIANT_METHODS = ("adaptive", "fd")
SWEEP = "90:110:5"
SWEEP_PRESETS = ("table1", "table4", "table5")
SWEEP_WORKERS = 2
# report field -> its name in --compare's gaps
STATISTICS = {"deltas": "delta", "stderrs": "stderr",
              "replication_means": "replication mean"}
WIDTHS = "localization_widths"


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
    size = {"points": 256, "replications": 4} if small else {}
    runs = [(name, method, "", {}, True) for name in PRESETS for method in METHODS]
    runs += [(name, method, f"/{suffix}", stream, use_lt)
             for suffix, (stream, use_lt, names) in VARIANTS.items()
             for name in names for method in VARIANT_METHODS]
    for name, method, suffix, stream, use_lt in runs:
        qmc = standard_stream(**size, **stream)
        for workers in WORKERS:
            report = estimate(market, preset(name), qmc, method, use_lt=use_lt,
                              workers=workers)
            widths = report.localization_widths
            reports[f"{name}/{method}/workers={workers}{suffix}"] = {
                "sha256": report_digest(report),
                **{field: getattr(report, field).tolist() for field in STATISTICS},
                WIDTHS: None if widths is None else widths.tolist()}
    flags = ["--points", "256", "--reps", "4"] if small else []
    for name in SWEEP_PRESETS:
        for method in METHODS:
            reports[f"sweep/{name}/{method}/workers={SWEEP_WORKERS}"] = sweep_digest(
                ["--preset", name, "--method", method, "--workers", str(SWEEP_WORKERS),
                 "--sweep", SWEEP, *flags])
    return reports


def sweep_digest(flags: list[str]) -> dict:
    """sha256 over the sweep CSV and its replication dump, plus the
    deltas, stderrs and replication means they hold."""
    with tempfile.TemporaryDirectory() as tmp:
        out, dump = Path(tmp) / "sweep.csv", Path(tmp) / "replications.csv"
        code = cli.run(flags + ["--output", str(out), "--debug-replications", str(dump)])
        if code != 0:
            raise SystemExit(f"qmcgreeks {' '.join(flags)} exited {code}")
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        with open(dump, newline="", encoding="utf-8") as handle:
            means = [float(row["mean"]) for row in csv.DictReader(handle)]
        digest = hashlib.sha256(out.read_bytes() + dump.read_bytes()).hexdigest()
    return {"sha256": digest, "deltas": [float(row["delta"]) for row in rows],
            "stderrs": [float(row["stderr"]) for row in rows], "replication_means": means}


def compare(parent: dict, change: dict) -> int:
    differing = sorted(key for key in parent.keys() | change.keys()
                       if parent.get(key, {}).get("sha256")
                       != change.get(key, {}).get("sha256"))
    for key in differing:
        print(f"differs: {key}")
    shared = parent.keys() & change.keys()
    known = [field for field in STATISTICS
             if all(field in report for report in (*parent.values(), *change.values()))]
    gaps = [f"max |{STATISTICS[field]} difference| = "
            f"{largest_gap(parent, change, field, shared):g}" for field in known]
    with_widths = [key for key in shared if parent[key].get(WIDTHS) is not None
                   and change[key].get(WIDTHS) is not None]
    if with_widths:
        gaps.append(f"max |width difference| = "
                    f"{largest_gap(parent, change, WIDTHS, with_widths):g}")
    with_stderrs = {"deltas", "stderrs"} <= set(known)
    if with_stderrs:
        gaps.append(f"max |delta difference| / stderr = "
                    f"{largest_ratio(parent, change, shared):g}")
    print("; ".join([f"{len(differing)} differing reports of "
                     f"{len(parent.keys() | change.keys())}", *gaps]))
    by_preset = {}
    for key in shared:
        by_preset.setdefault(key.removeprefix("sweep/").split("/")[0], []).append(key)
    if len(by_preset) > 1 and all("deltas" in reports[key]
                                  for reports in (parent, change) for key in shared):
        print("max |delta difference| per preset: " + "; ".join(
            f"{name} = {largest_gap(parent, change, 'deltas', keys):g}"
            for name, keys in sorted(by_preset.items())))
        if with_stderrs:
            print("max |delta difference| / stderr per preset: " + "; ".join(
                f"{name} = {largest_ratio(parent, change, keys):g}"
                for name, keys in sorted(by_preset.items())))
    return 1 if differing else 0


def largest_gap(parent: dict, change: dict, field: str, keys) -> float:
    """Largest absolute difference of `field` over the reports `keys`."""
    return max((float(np.max(np.abs(np.subtract(parent[key][field], change[key][field]))))
                for key in keys), default=0.0)


def largest_ratio(parent: dict, change: dict, keys) -> float:
    """Largest |delta difference| / stderr over the reports `keys`, in
    the parent's stderrs; a moved delta whose stderr is 0 reads inf."""
    ratios = [0.0]
    for key in keys:
        gap = np.abs(np.subtract(parent[key]["deltas"], change[key]["deltas"]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(gap > 0, gap / np.asarray(parent[key]["stderrs"]), 0.0)
        ratios.append(float(ratio.max(initial=0.0)))
    return max(ratios)


def load_digest(parser: argparse.ArgumentParser, path: str) -> dict:
    """The digest in `path`; an unreadable file, a value that is not a
    digest object and an empty digest are argparse errors naming it."""
    try:
        reports = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read digest {path}: {exc}")
    if not isinstance(reports, dict) or not all(
            isinstance(report, dict) and "sha256" in report for report in reports.values()):
        parser.error(f"{path} holds no report digest")
    if not reports:
        parser.error(f"{path} is an empty digest")
    return reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true",
                        help="4 replications of 256 points instead of 32 of 2048")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two digest files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*(load_digest(parser, path) for path in args.compare))
    json.dump(digest_reports(args.small), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
