"""Command-line front end for delta estimation runs.

Configuration comes from three layers, each overriding the previous:
a named preset's payoff and strike, an INI-style config file, and
command-line flags. `_SETTINGS` holds each run setting's default, file
key and parser; the sampling, method and market defaults are the
library's. The first `estimate` of a sweep builds the rotation that
every later strike reuses. Results go to a CSV with one row per
component (per strike when sweeping), serialized at full double
precision so parsing the file recovers the report exactly.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import inspect
import os
import sys

import numpy as np

from .estimator import METHODS, MIN_ADAPTIVE_POINTS, EstimationError, estimate
from .market import MarketConfig
from .payoffs import FAMILIES, PayoffSpec
from .presets import PRESETS, equicorrelated_market, ladder_market, preset, standard_stream
from .qmc import MODES

PAYOFF_NAMES = {
    "asian-fixed": "call",
    "asian-floating": "floating",
    "digital": "digital",
    "exotic": "best_of",
}

EXIT_CONFIG = 2
EXIT_ESTIMATION = 3

_MARKET_KEYS = ("assets", "spots", "vols", "rate", "maturity", "dates",
                "correlation")

_STREAM = standard_stream()
_ESTIMATE = {name: parameter.default
             for name, parameter in inspect.signature(estimate).parameters.items()}
# run field -> (default, INI section, INI key, text parser); a flag sets the
# field of the same name, and a choice flag's text parses like the file's
_SETTINGS = {
    "kind": ("call", "payoff", "kind", PAYOFF_NAMES.__getitem__),
    "strike": (100.0, "payoff", "strike", float),
    "points": (_STREAM.points_per_replication, "qmc", "points", int),
    "reps": (_STREAM.replications, "qmc", "replications", int),
    "lss_block": (_STREAM.lss_block_dimension, "qmc", "block", int),
    "seed": (_STREAM.seed, "qmc", "seed", int),
    "mode": (_STREAM.mode, "qmc", "mode", dict(zip(MODES, MODES)).__getitem__),
    "method": (_ESTIMATE["method"], "run", "method",
               dict(zip(METHODS, METHODS)).__getitem__),
    "lt": (_ESTIMATE["use_lt"], "run", "lt", {"on": True, "off": False}.__getitem__),
    "loc_delta": (_ESTIMATE["loc_fraction"], "run", "loc_delta", float),
    "fd_bump": (_ESTIMATE["fd_bump"], "run", "fd_bump", float),
    "workers": (_ESTIMATE["workers"], "run", "workers", int),
    "output": (None, "run", "output", str),
}
# every (section, key) a config file may set
_FILE_KEYS = ({("market", key) for key in _MARKET_KEYS}
              | {(section, key) for _, section, key, _ in _SETTINGS.values()})


class ConfigurationError(Exception):
    """Unusable configuration; the message names the offending field."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _floats(text: str) -> list[float]:
    return [float(token) for token in text.replace(",", " ").split()]


def _convert(section: str, key: str, text: str, conv):
    try:
        return conv(text)
    except (KeyError, ValueError):
        raise ConfigurationError(
            f"invalid value for {key} in [{section}]: {text!r}") from None


def _count(field: str, count: int) -> int:
    """An asset or date count, refused below 1 under its own name."""
    if count < 1:
        raise ConfigurationError(f"{field} must be at least 1; got {count}")
    return count


def _market_from_section(sect) -> MarketConfig:
    for name in ("rate", "maturity", "dates", "correlation"):
        if name not in sect:
            raise ConfigurationError(f"missing {name} entry in [market]")
    if "spots" in sect or "vols" in sect:
        for name in ("spots", "vols"):
            if name not in sect:
                raise ConfigurationError(f"missing {name} entry in [market]")
        if "assets" in sect:
            raise ConfigurationError(
                "assets cannot be combined with spots and vols in [market]")
        spots = _convert("market", "spots", sect["spots"], _floats)
        vols = _convert("market", "vols", sect["vols"], _floats)
    elif "assets" in sect:
        count = _count("assets", _convert("market", "assets", sect["assets"], int))
        ladder = ladder_market(count, 1)
        spots, vols = ladder.spots, ladder.vols
    else:
        raise ConfigurationError("missing assets (or spots and vols) entry in [market]")
    rate = _convert("market", "rate", sect["rate"], float)
    maturity = _convert("market", "maturity", sect["maturity"], float)
    dates = _count("dates", _convert("market", "dates", sect["dates"], int))
    rho = _convert("market", "correlation", sect["correlation"], float)
    return equicorrelated_market(spots, vols, rate=rate, correlation=rho,
                                 maturity=maturity, n_dates=dates)


def _load_file(path: str) -> tuple[MarketConfig | None, dict]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigurationError(f"config file parse error: {exc}") from None

    for section in parser.sections():
        if section not in {known_section for known_section, _ in _FILE_KEYS}:
            raise ConfigurationError(f"unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in _FILE_KEYS:
                raise ConfigurationError(f"unknown key {key!r} in [{section}]")

    market = _market_from_section(parser["market"]) if parser.has_section("market") else None
    updates = {field: _convert(section, key, parser[section][key], parse)
               for field, (_, section, key, parse) in _SETTINGS.items()
               if parser.has_option(section, key)}
    return market, updates


def _parse_sweep(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError("sweep must be lo:hi:step")
    try:
        low, high, step = (float(part) for part in parts)
    except ValueError:
        raise ConfigurationError(f"sweep must be numeric, got {text!r}") from None
    if not np.isfinite([low, high, step]).all():
        raise ConfigurationError("sweep bounds must be finite")
    if step <= 0 or high < low:
        raise ConfigurationError("sweep needs step > 0 and hi >= lo")
    # hi stays in when whole steps reach it up to rounding; a partial step adds none
    strikes = np.arange(low, high + 1e-9 * step, step)
    if (strikes <= 0).any():
        raise ConfigurationError("sweep strikes must be positive")
    return strikes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmcgreeks",
        description="Estimate per-asset deltas of path-average basket options.")
    parser.add_argument("--config", help="INI config file (market/payoff/qmc/run sections)")
    parser.add_argument("--preset", choices=PRESETS, help="named benchmark run")
    parser.add_argument("--payoff", choices=sorted(PAYOFF_NAMES), dest="kind")
    parser.add_argument("--strike", type=float)
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--loc-delta", type=float, dest="loc_delta",
                        help="localization width as a fraction of the strike level")
    parser.add_argument("--fd-bump", type=float, dest="fd_bump",
                        help="relative spot bump for finite differences")
    parser.add_argument("--assets", type=int, help="ladder-market asset count")
    parser.add_argument("--steps", type=int, help="number of monitoring dates")
    parser.add_argument("--points", type=int, help="points per replication")
    parser.add_argument("--reps", type=int, help="number of replications")
    parser.add_argument("--lt", choices=("on", "off"),
                        help="dimension-reducing rotation of the draws")
    parser.add_argument("--lss-block", type=int, dest="lss_block",
                        help="supercube block dimension")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--sweep", help="strike sweep lo:hi:step")
    parser.add_argument("--workers", type=int, help="replication worker threads")
    parser.add_argument("--output", help="CSV output path (default stdout)")
    parser.add_argument("--debug-replications", dest="debug_replications",
                        metavar="PATH", help="also dump per-replication means")
    return parser


def _resolve(args) -> dict:
    values = {field: default for field, (default, *_) in _SETTINGS.items()}
    market: MarketConfig | None = None

    if args.preset:
        chosen = preset(args.preset)
        values.update(kind=chosen.kind, strike=chosen.strike)
    if args.config:
        file_market, updates = _load_file(args.config)
        if file_market is not None:
            market = file_market
        values.update(updates)
    if args.sweep and args.strike is not None:
        raise ConfigurationError(
            "--strike cannot be combined with --sweep, which sets every strike")

    for field, (*_, parse) in _SETTINGS.items():
        flag = getattr(args, field, None)
        if flag is not None:
            values[field] = parse(flag)
    geometry = {}
    if args.assets is not None:
        geometry["n_assets"] = _count("assets", args.assets)
    if args.steps is not None:
        geometry["n_dates"] = _count("steps", args.steps)
    if geometry or market is None:
        market = ladder_market(**geometry)

    values["market"] = market
    values["debug_replications"] = args.debug_replications
    _check_run(values)
    values["qmc"] = standard_stream(points=values["points"], replications=values["reps"],
                                    block=values["lss_block"], seed=values["seed"],
                                    mode=values["mode"])
    strikes = values["strikes"] = _parse_sweep(args.sweep) if args.sweep else None
    values["specs"] = [PayoffSpec(kind=values["kind"], strike=float(strike))
                       for strike in ([values["strike"]] if strikes is None else strikes)]
    if strikes is not None and not values["specs"][0].family.fixed_strike:
        raise ConfigurationError(
            f"sweep needs a fixed-strike payoff; {values['kind']} has no strike")
    return values


def _check_run(values: dict) -> None:
    """Refuse run settings that estimation would reject, before it starts."""
    if values["workers"] < 1:
        raise ConfigurationError(
            f"workers must be at least 1; got {values['workers']}")
    if values["reps"] < 2:
        raise ConfigurationError(
            f"replications must be at least 2 for a standard error; "
            f"got {values['reps']}")
    for field, method, upper in (("loc_delta", "loc", np.inf), ("fd_bump", "fd", 1.0)):
        if values["method"] == method and not 0.0 < values[field] < upper:
            raise ConfigurationError(
                f"{field} must lie in (0, {upper:g}); got {values[field]}")
    if values["method"] == "adaptive" and values["points"] < MIN_ADAPTIVE_POINTS:
        raise ConfigurationError(
            f"points must be at least {MIN_ADAPTIVE_POINTS} for the adaptive "
            f"method; got {values['points']}")
    for field in ("output", "debug_replications"):
        path = values[field]
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigurationError(
                f"{field}: directory of {path!r} does not exist")
    dump = values["debug_replications"]
    if (values["output"] is not None and dump is not None
            and os.path.realpath(values["output"]) == os.path.realpath(dump)):
        raise ConfigurationError(
            f"debug_replications: {dump!r} would overwrite the output file")
    dates, needed = values["market"].n_dates, FAMILIES[values["kind"]].min_dates
    if values["method"] != "fd" and dates < needed:
        name = {kind: name for name, kind in PAYOFF_NAMES.items()}[values["kind"]]
        raise ConfigurationError(
            f"steps (monitoring dates) must be at least {needed} for the {name} "
            f"payoff; got {dates}")


def _execute(values: dict) -> tuple[list[list], list[list]]:
    market = values["market"]
    qmc = values["qmc"]
    specs = values["specs"]
    sweeping = values["strikes"] is not None

    lt_build = None
    rows: list[list] = []
    replication_rows: list[list] = []
    for spec in specs:
        report = estimate(market, spec, qmc, values["method"],
                          use_lt=values["lt"],
                          loc_fraction=values["loc_delta"],
                          fd_bump=values["fd_bump"],
                          workers=values["workers"],
                          lt_build=lt_build)
        lt_build = report.lt_build
        prefix = [_fmt(spec.strike)] if sweeping else []
        for k in range(market.n_assets):
            rows.append(prefix + [k + 1, _fmt(report.deltas[k]),
                                  _fmt(report.stderrs[k]), report.method,
                                  int(report.rejected_by_component[k])])
        if values["debug_replications"]:
            for r in range(qmc.replications):
                for k in range(market.n_assets):
                    replication_rows.append(
                        prefix + [r + 1, k + 1,
                                  _fmt(report.replication_means[r, k])])
    return rows, replication_rows


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    if path is None:
        csv.writer(sys.stdout).writerows([header] + rows)
        return
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([header] + rows)


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = _resolve(args)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows, replication_rows = _execute(values)
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION

    prefix = ["strike"] if values["strikes"] is not None else []
    try:
        _write_csv(values["output"], prefix + ["component", "delta", "stderr",
                                               "method", "rejected_paths"], rows)
        if values["debug_replications"]:
            _write_csv(values["debug_replications"],
                       prefix + ["replication", "component", "mean"],
                       replication_rows)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


def main() -> None:
    sys.exit(run())
