import csv
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmcgreeks import cli, estimator
from qmcgreeks.estimator import EstimationError, estimate, estimate_sweep
from qmcgreeks.lt import build_lt_matrix
from qmcgreeks.payoffs import PayoffSpec
from qmcgreeks.presets import PRESETS, ladder_market, preset, standard_stream

FAST = ["--assets", "2", "--steps", "2", "--points", "64", "--reps", "4",
        "--method", "loc"]


def _read(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_run_writes_csv_that_round_trips_exactly(tmp_path):
    out = tmp_path / "deltas.csv"
    assert cli.run(FAST + ["--output", str(out)]) == 0
    rows = _read(out)
    assert [row["component"] for row in rows] == ["1", "2"]
    assert all(row["method"] == "loc" for row in rows)

    market = ladder_market(2, 2)
    report = estimate(market, PayoffSpec(kind="call", strike=100.0),
                      standard_stream(points=64, replications=4), method="loc")
    for k, row in enumerate(rows):
        assert float(row["delta"]) == report.deltas[k]
        assert float(row["stderr"]) == report.stderrs[k]
        assert int(row["rejected_paths"]) == report.rejected_by_component[k]


def test_sweep_emits_one_row_per_strike_and_component(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.run(["--assets", "4", "--steps", "2", "--points", "32",
                    "--reps", "2", "--method", "loc",
                    "--sweep", "80:120:5", "--output", str(out)])
    assert code == 0
    rows = _read(out)
    assert len(rows) == 9 * 4
    strikes = sorted({float(row["strike"]) for row in rows})
    assert strikes == [80.0 + 5.0 * i for i in range(9)]
    assert list(rows[0]) == ["strike", "component", "delta", "stderr",
                             "method", "rejected_paths"]


@pytest.mark.parametrize("text, strikes", [
    ("90:110:5", [90.0, 95.0, 100.0, 105.0, 110.0]),
    # a partial last step adds no strike past hi
    ("90:110:7", [90.0, 97.0, 104.0]),
    # hi is kept when whole steps reach it up to rounding
    ("0.1:0.3:0.1", [0.1, 0.2, 0.3]),
])
def test_sweep_strikes_stay_inside_their_bounds(text, strikes):
    assert cli._parse_sweep(text).tolist() == pytest.approx(strikes, rel=1e-12)


def test_fd_runs_the_exotic_payoff_on_one_date(tmp_path):
    # the one-date refusal belongs to the Malliavin weights, not the bump contrast
    out = tmp_path / "fd.csv"
    assert cli.run(["--payoff", "exotic", "--assets", "2", "--steps", "1",
                    "--points", "32", "--reps", "2", "--method", "fd",
                    "--output", str(out)]) == 0
    rows = _read(out)
    assert [row["component"] for row in rows] == ["1", "2"]
    assert all(np.isfinite(float(row["delta"])) for row in rows)


def test_lss_block_wider_than_the_market_is_one_block(tmp_path):
    wide, exact = tmp_path / "wide.csv", tmp_path / "exact.csv"
    assert cli.run(FAST + ["--lss-block", "21201", "--output", str(wide)]) == 0
    assert cli.run(FAST + ["--lss-block", "4", "--output", str(exact)]) == 0
    assert wide.read_bytes() == exact.read_bytes()


def test_debug_replication_dump(tmp_path):
    out = tmp_path / "deltas.csv"
    debug = tmp_path / "reps.csv"
    code = cli.run(FAST + ["--output", str(out),
                           "--debug-replications", str(debug)])
    assert code == 0
    rows = _read(debug)
    assert len(rows) == 4 * 2
    assert list(rows[0]) == ["replication", "component", "mean"]
    means = np.array([float(row["mean"]) for row in rows]).reshape(4, 2)
    assert np.isfinite(means).all()


def test_bad_inputs_exit_with_config_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[market]\nrate = 0.05\n")
    assert cli.run(["--config", str(bad)]) == cli.EXIT_CONFIG
    assert "missing maturity entry" in capsys.readouterr().err

    assert cli.run(["--sweep", "0:100:10"]) == cli.EXIT_CONFIG
    assert "positive" in capsys.readouterr().err

    unknown = tmp_path / "unknown.ini"
    unknown.write_text("[simulation]\npoints = 10\n")
    assert cli.run(["--config", str(unknown)]) == cli.EXIT_CONFIG
    assert "unknown section" in capsys.readouterr().err

    assert cli.run(["--payoff", "digital", "--strike", "-5"]) == cli.EXIT_CONFIG
    assert "positive strike" in capsys.readouterr().err

    # values are read literally, so a % is just a bad number
    percent = tmp_path / "percent.ini"
    percent.write_text("[run]\nloc_delta = 1%\n")
    assert cli.run(["--config", str(percent)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid value for loc_delta in [run]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, field", [
    (["--workers", "0"], "workers"),
    (["--method", "loc", "--loc-delta", "-1"], "loc_delta"),
    (["--method", "fd", "--fd-bump", "0"], "fd_bump"),
    (["--payoff", "exotic", "--steps", "1"], "steps"),
    (["--reps", "1"], "replications"),
    (["--points", "15"], "points"),
    (["--payoff", "digital", "--points", "1"], "points"),
    # nan fails every ordered comparison, so each check must test finiteness
    (["--strike", "nan"], "strike"),
    (["--strike", "inf"], "strike"),
    (["--method", "loc", "--loc-delta", "nan"], "loc_delta"),
    (["--method", "loc", "--loc-delta", "inf"], "loc_delta"),
    (["--method", "fd", "--fd-bump", "nan"], "fd_bump"),
    (["--assets", "0"], "assets"),
    (["--steps", "0"], "steps"),
    (["--sweep", "nan:110:5"], "sweep"),
    # the floating payoff has no strike, so every sweep row would repeat one run
    (["--payoff", "asian-floating", "--sweep", "90:100:5"], "sweep"),
    # the sweep sets every strike, so an explicit strike would be dropped
    (["--sweep", "90:110:5", "--strike", "120", "--assets", "2", "--steps", "2",
      "--points", "32", "--reps", "2", "--method", "loc"], "strike"),
    # two spellings of one file: the dump would overwrite the deltas
    (["--output", "deltas.csv", "--debug-replications", "./deltas.csv"],
     "debug_replications"),
    # the Sobol table caps the configured block, not only the one the market uses
    (["--lss-block", "21202"], "lss_block_dimension"),
    # the down scenario scales the spots by 1 - fd_bump
    (["--method", "fd", "--fd-bump", "1"], "fd_bump"),
])
def test_invalid_run_arguments_exit_before_estimation(monkeypatch, capsys,
                                                      flags, field):
    def unreachable(*args, **kwargs):
        raise AssertionError("estimation started")

    # estimate itself refuses its arguments, so every piece of its work is fenced
    for name in ("vol_loadings", "build_lt_matrix", "path_generator", "_pilot_widths",
                 "_replication_means", "_replication_sample"):
        monkeypatch.setattr(estimator, name, unreachable)
    monkeypatch.setattr(PayoffSpec, "weight_matrix", unreachable)
    assert cli.run(flags) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


_MARKET = {"spots": "100 100", "vols": "0.2 0.3", "rate": "0.05",
           "maturity": "1.0", "dates": "4", "correlation": "0.5"}


@pytest.mark.parametrize("entries, field", [
    ({"correlation": "1.5"}, "correlation"),
    ({"rate": "nan"}, "rate"),
    ({"rate": "inf"}, "rate"),
    ({"maturity": "nan"}, "maturity"),
    ({"maturity": "inf"}, "maturity"),
    ({"spots": "100 nan"}, "spots"),
    ({"vols": "0.2 inf"}, "vols"),
    ({"dates": "0"}, "dates"),
    ({"spots": None, "vols": None, "assets": "0"}, "assets"),
    # spots and vols set the asset count, so a count next to them is ambiguous
    ({"assets": "3"}, "assets"),
])
def test_invalid_market_entries_exit_before_estimation(monkeypatch, capsys, tmp_path,
                                                       entries, field):
    def unreachable(*args, **kwargs):
        raise AssertionError("estimation started")

    monkeypatch.setattr(cli, "estimate_sweep", unreachable)
    market = {key: text for key, text in {**_MARKET, **entries}.items()
              if text is not None}
    config = tmp_path / "market.ini"
    config.write_text("[market]\n" + "".join(f"{key} = {text}\n"
                                             for key, text in market.items()))
    assert cli.run(["--config", str(config)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, file_entry, message", [
    (["--points", "0"], "points = 0",
     "error: points: points_per_replication must be at least 1; got 0"),
    (["--reps", "0"], "replications = 0",
     "error: reps: replications must be at least 1; got 0"),
    (["--lss-block", "0"], "block = 0",
     "error: lss_block: lss_block_dimension must be at least 1; got 0"),
    (["--lss-block", "21202"], "block = 21202",
     "error: lss_block: lss_block_dimension 21202 exceeds the supported Sobol table"),
    (["--seed", "-1"], "seed = -1", "error: seed: seed must be at least 0; got -1"),
    (["--points", "4294967296"], "points = 4294967296",
     "error: points: points_per_replication 4294967296 exceeds the 32-bit Sobol net"),
])
def test_sampling_plan_refusals_name_the_run_field(monkeypatch, capsys, tmp_path,
                                                   flags, file_entry, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("estimation started")

    monkeypatch.setattr(cli, "estimate_sweep", unreachable)
    ini = tmp_path / "run.ini"
    ini.write_text(f"[qmc]\n{file_entry}\n")
    for argv in (flags, ["--config", str(ini)]):
        assert cli.run(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(message)


def test_pseudo_random_points_pass_the_sobol_net_cap(monkeypatch, tmp_path):
    class Reached(Exception):
        pass

    def reached(market, specs, qmc, *args, **kwargs):
        raise Reached(qmc.points_per_replication)

    monkeypatch.setattr(cli, "estimate_sweep", reached)
    ini = tmp_path / "run.ini"
    ini.write_text("[qmc]\nmode = pseudo_random\npoints = 4294967296\n")
    with pytest.raises(Reached, match="^4294967296$"):
        cli.run(["--config", str(ini)])


@pytest.mark.parametrize("flag, field", [("--output", "output"),
                                         ("--debug-replications",
                                          "debug_replications")])
def test_missing_output_directory_exits_before_estimation(monkeypatch, capsys,
                                                          tmp_path, flag, field):
    def unreachable(*args, **kwargs):
        raise AssertionError("estimation started")

    monkeypatch.setattr(cli, "estimate_sweep", unreachable)
    missing = tmp_path / "no-such-dir" / "out.csv"
    assert cli.run(FAST + [flag, str(missing)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def test_unwritable_output_exits_with_config_code(capsys, tmp_path):
    # the path names an existing directory, refused before any work
    assert cli.run(FAST + ["--output", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot write" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["output", "debug_replications"])
def test_an_output_path_that_is_a_directory_is_refused_before_any_work(
        monkeypatch, capsys, tmp_path, field):
    def unreachable(*args, **kwargs):
        raise AssertionError("estimate_sweep ran before the refusal")

    monkeypatch.setattr(cli, "estimate_sweep", unreachable)
    flag = "--" + field.replace("_", "-")
    assert cli.run(FAST + [flag, str(tmp_path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field}: cannot write" in captured.err
    assert "Traceback" not in captured.err


def test_a_write_that_fails_after_the_run_exits_with_config_code(monkeypatch, capsys,
                                                                 tmp_path):
    # a write can still fail once the run is done, on a full disk say
    def refuse(path, header, rows):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_csv", refuse)
    assert cli.run(FAST + ["--output", str(tmp_path / "out.csv")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error: cannot write output" in err
    assert "Traceback" not in err


def test_estimation_failure_exits_with_run_code(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise EstimationError("too many degenerate paths")

    monkeypatch.setattr(cli, "estimate_sweep", explode)
    assert cli.run(FAST) == cli.EXIT_ESTIMATION
    assert "too many degenerate paths" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["1e200", "1e306"])
def test_overflowing_localization_exits_with_run_code(capsys, delta):
    flags = ["--assets", "2", "--steps", "2", "--points", "32", "--reps", "2",
             "--method", "loc", "--loc-delta", delta]
    assert cli.run(flags) == cli.EXIT_ESTIMATION
    err = capsys.readouterr().err
    assert "overflowed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section, key, text, field, expected, flag, bad", [
    ("payoff", "kind", "exotic", "kind", "best_of", ["--payoff", "exotic"], "asian"),
    ("payoff", "strike", "95.5", "strike", 95.5, ["--strike", "95.5"], "abc"),
    ("qmc", "points", "512", "points", 512, ["--points", "512"], "1.5"),
    ("qmc", "replications", "5", "reps", 5, ["--reps", "5"], "many"),
    ("qmc", "block", "20", "lss_block", 20, ["--lss-block", "20"], "x"),
    ("qmc", "seed", "7", "seed", 7, ["--seed", "7"], "4e2"),
    ("qmc", "mode", "pseudo_random", "mode", "pseudo_random", None, "sobol"),
    ("run", "method", "fd", "method", "fd", ["--method", "fd"], "quadrature"),
    ("run", "lt", "off", "lt", False, ["--lt", "off"], "yes"),
    ("run", "loc_delta", "0.05", "loc_delta", 0.05, ["--loc-delta", "0.05"], "wide"),
    ("run", "fd_bump", "0.002", "fd_bump", 0.002, ["--fd-bump", "0.002"], "small"),
    ("run", "workers", "3", "workers", 3, ["--workers", "3"], "two"),
    # every text is a path, so only a missing directory is refused
    ("run", "output", "out.csv", "output", "out.csv", ["--output", "out.csv"], None),
    # no % interpolation: the file's text is the path
    ("run", "output", "100%.csv", "output", "100%.csv", ["--output", "100%.csv"], None),
])
def test_every_config_key_round_trips(monkeypatch, capsys, tmp_path, section, key,
                                      text, field, expected, flag, bad):
    ini = tmp_path / "one.ini"
    ini.write_text(f"[{section}]\n{key} = {text}\n")
    values = cli._resolve(cli.build_parser().parse_args(["--config", str(ini)]))
    assert values[field] == expected
    assert type(values[field]) is type(expected)
    if flag is not None:
        assert cli._resolve(cli.build_parser().parse_args(flag))[field] == expected
    if bad is not None:
        def unreachable(*args, **kwargs):
            raise AssertionError("estimation started")

        monkeypatch.setattr(cli, "estimate_sweep", unreachable)
        ini.write_text(f"[{section}]\n{key} = {bad}\n")
        assert cli.run(["--config", str(ini)]) == cli.EXIT_CONFIG
        assert f"invalid value for {key} in [{section}]" in capsys.readouterr().err


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"^\| `\[(\w+)\] (\w+)` \|", readme, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == cli._FILE_KEYS


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme,
                     flags=re.MULTILINE | re.DOTALL).group(1)
    namespace = {}
    exec(code, namespace)
    report = namespace["report"]
    assert report.deltas.shape == (4,)
    assert np.isfinite(report.deltas).all() and np.isfinite(report.stderrs).all()


def test_flags_override_config_file_and_preset(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("\n".join([
        "[market]",
        "assets = 3",
        "rate = 0.02",
        "maturity = 2.0",
        "dates = 4",
        "correlation = 0.3",
        "[payoff]",
        "kind = digital",
        "strike = 95",
        "[qmc]",
        "points = 128",
        "replications = 6",
        "[run]",
        "method = loc",
        "lt = off",
    ]))
    args = cli.build_parser().parse_args(
        ["--preset", "table3", "--config", str(ini), "--strike", "120",
         "--payoff", "asian-fixed"])
    values = cli._resolve(args)
    assert values["kind"] == "call"          # flag beats file beats preset
    assert values["strike"] == 120.0
    assert values["method"] == "loc"
    assert values["lt"] is False
    assert values["market"].n_assets == 3
    assert values["market"].rate == 0.02
    assert values["market"].maturity == 2.0
    assert values["qmc"].points_per_replication == 128
    assert values["qmc"].replications == 6


def test_market_geometry_flags_replace_file_market(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[market]\nassets = 3\nrate = 0.02\nmaturity = 2.0\n"
                   "dates = 4\ncorrelation = 0.3\n")
    args = cli.build_parser().parse_args(
        ["--config", str(ini), "--assets", "5", "--steps", "8"])
    values = cli._resolve(args)
    assert values["market"].n_assets == 5
    assert values["market"].n_dates == 8
    assert values["market"].rate == 0.05   # back to the ladder default


def test_explicit_spot_and_vol_lists(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[market]\nspots = 90 100\nvols = 0.1, 0.3\nrate = 0.05\n"
                   "maturity = 1.0\ndates = 2\ncorrelation = 0.5\n")
    args = cli.build_parser().parse_args(["--config", str(ini)])
    values = cli._resolve(args)
    assert values["market"].spots.tolist() == [90.0, 100.0]
    assert values["market"].vols.tolist() == [0.1, 0.3]


def test_presets_are_complete_and_consistent():
    kinds = {"table1": "call", "table3": "floating", "table4": "digital",
             "table5": "best_of"}
    assert set(PRESETS) == set(kinds)
    for name in PRESETS:
        assert preset(name).kind == kinds[name]
        values = cli._resolve(cli.build_parser().parse_args(["--preset", name]))
        assert values["market"].n_assets == 10
        assert values["market"].n_dates == 64
        assert values["method"] == "adaptive"
    with pytest.raises(ValueError, match="unknown preset"):
        preset("table9")


def test_unset_settings_are_the_library_defaults():
    values = cli._resolve(cli.build_parser().parse_args([]))
    assert dataclasses.asdict(values["qmc"]) == dataclasses.asdict(standard_stream())
    defaults = {name: parameter.default for name, parameter
                in inspect.signature(estimate_sweep).parameters.items()}
    assert (values["method"], values["lt"], values["loc_delta"], values["fd_bump"],
            values["workers"]) == (defaults["method"], defaults["use_lt"],
                                   defaults["loc_fraction"], defaults["fd_bump"],
                                   defaults["workers"])
    market, ladder = values["market"], ladder_market()
    assert (market.n_assets, market.n_dates) == (10, 64)
    for field in ("spots", "vols", "correlation", "monitoring_times"):
        assert np.array_equal(getattr(market, field), getattr(ladder, field))
    assert (market.rate, market.maturity) == (ladder.rate, ladder.maturity)


@pytest.mark.parametrize("lt", ["on", "off"])
def test_a_sweep_is_one_estimate_sweep_call(monkeypatch, tmp_path, lt):
    calls, builds = [], []

    def recording(market, specs, *args, **kwargs):
        calls.append([spec.strike for spec in specs])
        return estimate_sweep(market, specs, *args, **kwargs)

    def counted(*args):
        builds.append(args)
        return build_lt_matrix(*args)

    monkeypatch.setattr(cli, "estimate_sweep", recording)
    monkeypatch.setattr(estimator, "build_lt_matrix", counted)
    flags = ["--assets", "2", "--steps", "2", "--points", "32", "--reps", "2",
             "--method", "loc", "--lt", lt]
    out = tmp_path / "sweep.csv"
    assert cli.run(flags + ["--sweep", "90:110:10", "--output", str(out)]) == 0
    assert calls == [[90.0, 100.0, 110.0]]
    assert len(builds) == (1 if lt == "on" else 0)
    # each strike's rows are the rows of a run at that strike alone
    rows = _read(out)
    for strike in (90, 100, 110):
        alone = tmp_path / f"{strike}.csv"
        assert cli.run(flags + ["--strike", str(strike), "--output", str(alone)]) == 0
        assert [row for row in rows if float(row["strike"]) == strike] == [
            {"strike": cli._fmt(strike), **row} for row in _read(alone)]


@pytest.mark.parametrize("text", ["1:1e12:1", "90:110:1e-7", "-1e308:1e308:1"])
def test_a_sweep_past_the_strike_cap_is_refused_before_allocating(monkeypatch, capsys,
                                                                  text):
    def unreachable(*args, **kwargs):
        raise AssertionError("estimation started")

    class NoArange:
        def __getattr__(self, name):
            if name == "arange":
                raise AssertionError("sweep strikes allocated")
            return getattr(np, name)

    monkeypatch.setattr(cli, "np", NoArange())
    monkeypatch.setattr(cli, "estimate_sweep", unreachable)
    # hi - lo overflows to inf in the last case
    assert cli.run([f"--sweep={text}"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sweep" in err and str(cli.MAX_SWEEP_STRIKES) in err
    assert "Traceback" not in err


def test_the_strike_cap_admits_a_sweep_of_exactly_its_size():
    cap = cli.MAX_SWEEP_STRIKES
    assert cli._parse_sweep(f"1:{cap}:1").size == cap
    with pytest.raises(cli.ConfigurationError, match="sweep"):
        cli._parse_sweep(f"1:{cap + 1}:1")


@pytest.mark.parametrize("flags, field", [([], "dates"), (["--steps", "1"], "steps")])
def test_a_one_date_refusal_names_the_entry_that_set_the_dates(monkeypatch, capsys,
                                                               tmp_path, flags, field):
    ini = tmp_path / "one-date.ini"
    ini.write_text("[market]\nassets = 2\nrate = 0.05\nmaturity = 1.0\n"
                   "dates = 1\ncorrelation = 0.5\n[payoff]\nkind = exotic\n")
    def unreachable(*args, **kwargs):
        raise AssertionError("estimation started")

    for name in ("build_lt_matrix", "_replication_means"):
        monkeypatch.setattr(estimator, name, unreachable)
    assert cli.run(["--config", str(ini), "--points", "32", "--reps", "2"]
                   + flags) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: best_of weights need at least 2 "
                          "monitoring dates; the market has 1")


@pytest.mark.parametrize("payoff, delta, code", [
    # the call, the default payoff, keeps the short ids
    pytest.param("asian-fixed", "1e-310", 0, id="1e-310-0"),
    pytest.param("asian-fixed", "1e200", cli.EXIT_ESTIMATION, id="1e200-3"),
    *[(payoff, "1e-310", 0) for payoff in ("asian-floating", "digital", "exotic")],
    ("asian-floating", "1e200", cli.EXIT_ESTIMATION),
    ("exotic", "1e200", cli.EXIT_ESTIMATION),
    # the Laplace kernel at a huge bandwidth is flat, not overflowing
    ("digital", "1e200", 0),
])
def test_extreme_localization_prints_no_numpy_warning(payoff, delta, code):
    # the discarded ramp branches overflow; only a column that really
    # overflowed may fail the run, and then by name, not by a numpy warning
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-m", "qmcgreeks", "--assets", "2", "--steps", "2",
         "--points", "32", "--reps", "2", "--payoff", payoff, "--method", "loc",
         "--loc-delta", delta],
        capture_output=True, text=True, env=env, check=False)
    assert done.returncode == code
    assert "RuntimeWarning" not in done.stderr
