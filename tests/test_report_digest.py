import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(sha, deltas):
    return {"sha256": sha, "deltas": deltas}


PARENT = {"table1/adaptive/workers=1": _report("a", [0.1, 0.2]),
          "table1/fd/workers=1": _report("b", [0.3, -0.4])}


def test_equal_digests_compare_clean(digest, capsys):
    assert digest.compare(PARENT, json.loads(json.dumps(PARENT))) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 differing reports of 2; max |delta difference| = 0"]


def test_a_changed_report_is_named_with_the_largest_delta_gap(digest, capsys):
    change = dict(PARENT, **{"table1/fd/workers=1": _report("c", [0.3, -0.65])})
    assert digest.compare(PARENT, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: table1/fd/workers=1",
        "1 differing reports of 2; max |delta difference| = 0.25"]


def test_a_report_in_one_file_only_differs(digest, capsys):
    extra = dict(PARENT, **{"table5/fd/workers=2/lt=off": _report("d", [9.0])})
    for parent, change in ((PARENT, extra), (extra, PARENT)):
        assert digest.compare(parent, change) == 1
        # the gap runs over the reports both files have
        assert capsys.readouterr().out.splitlines() == [
            "differs: table5/fd/workers=2/lt=off",
            "1 differing reports of 3; max |delta difference| = 0"]


@pytest.mark.parametrize("text, message", [
    ("{}", "is an empty digest"),
    ("[]", "holds no report digest"),
    ('{"table1/fd/workers=1": 1}', "holds no report digest"),
    ('{"table1/fd/workers=1": {"deltas": [0.3]}}', "holds no report digest"),
    ("{", "cannot read digest"),
    (None, "cannot read digest"),
    ("directory", "cannot read digest"),
])
def test_compare_refuses_a_file_that_is_no_digest(digest, tmp_path, capsys, text, message):
    # an empty digest would compare clean against another; each refusal,
    # of a missing file or a directory too, is an argparse error naming
    # the file, on either side
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(PARENT), encoding="utf-8")
    if text == "directory":
        bad.mkdir()
    elif text is not None:
        bad.write_text(text, encoding="utf-8")
    for pair in ((bad, good), (good, bad)):
        with pytest.raises(SystemExit) as refusal:
            digest.main(["--compare", *map(str, pair)])
        assert refusal.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}" in captured.err and message in captured.err


def test_compare_reads_two_digest_files(digest, tmp_path, capsys):
    paths = []
    for name, reports in (("parent.json", PARENT),
                          ("change.json", dict(PARENT, **{"new": _report("e", [1.0])}))):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(reports), encoding="utf-8")
    assert digest.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert digest.main(["--compare", *map(str, paths)]) == 1
    assert "differs: new" in capsys.readouterr().out


def _full(sha, deltas, stderrs, means):
    return {"sha256": sha, "deltas": deltas, "stderrs": stderrs,
            "replication_means": means}


def test_each_statistic_gap_is_printed_on_its_own(digest, capsys):
    parent = {"table5/adaptive/workers=1": _full("a", [0.1, 0.2], [0.01, 0.02],
                                                 [[0.1, 0.2], [0.1, 0.2]])}
    # one replication mean moves by 2**-55 (a last bit) while the deltas do not
    change = {"table5/adaptive/workers=1": _full("b", [0.1, 0.2], [0.01, 0.02],
                                                 [[0.1, 0.2], [0.1, 0.2 + 2.0 ** -55]])}
    assert digest.compare(parent, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: table5/adaptive/workers=1",
        "1 differing reports of 1; max |delta difference| = 0; "
        "max |stderr difference| = 0; "
        f"max |replication mean difference| = {2.0 ** -55:g}; "
        "max |delta difference| / stderr = 0"]


def test_the_delta_gap_is_read_in_the_parents_stderrs(digest, capsys):
    # table1's second delta moves by half its parent stderr, which the change
    # doubles; table5's by a tenth of its stderr
    parent = {"table1/adaptive/workers=1": _full("a", [0.1, 0.2], [0.01, 0.02],
                                                 [[0.1, 0.2]]),
              "table5/loc/workers=1": _full("b", [0.7, 0.8], [0.5, 1.0], [[0.7, 0.8]])}
    change = {"table1/adaptive/workers=1": _full("c", [0.1, 0.21], [0.01, 0.04],
                                                 [[0.1, 0.2]]),
              "table5/loc/workers=1": _full("d", [0.7, 0.9], [0.5, 1.0], [[0.7, 0.8]])}
    assert digest.compare(parent, change) == 1
    table1, table5 = (0.21 - 0.2) / 0.02, (0.9 - 0.8) / 1.0
    assert capsys.readouterr().out.splitlines() == [
        "differs: table1/adaptive/workers=1",
        "differs: table5/loc/workers=1",
        f"2 differing reports of 2; max |delta difference| = {0.9 - 0.8:g}; "
        f"max |stderr difference| = {0.04 - 0.02:g}; "
        f"max |replication mean difference| = 0; "
        f"max |delta difference| / stderr = {max(table1, table5):g}",
        f"max |delta difference| per preset: table1 = {0.21 - 0.2:g}; "
        f"table5 = {0.9 - 0.8:g}",
        f"max |delta difference| / stderr per preset: table1 = {table1:g}; "
        f"table5 = {table5:g}"]
    # a zero stderr reads 0 when its delta stays and inf when it moves
    still = {"table4/fd/workers=1": _full("e", [0.1, 0.2], [0.0, 0.0], [[0.1, 0.2]])}
    moved = {"table4/fd/workers=1": _full("f", [0.1, 0.3], [0.0, 0.0], [[0.1, 0.2]])}
    assert digest.compare(still, still) == 0
    assert capsys.readouterr().out.endswith("max |delta difference| / stderr = 0\n")
    assert digest.compare(still, moved) == 1
    assert capsys.readouterr().out.endswith("max |delta difference| / stderr = inf\n")


def test_a_statistic_an_older_digest_lacks_is_skipped(digest, capsys):
    newer = {key: _full(report["sha256"], report["deltas"], [0.0, 0.0],
                        [report["deltas"]]) for key, report in PARENT.items()}
    for parent, change in ((PARENT, newer), (newer, PARENT)):
        assert digest.compare(parent, change) == 0
        assert capsys.readouterr().out.splitlines() == [
            "0 differing reports of 2; max |delta difference| = 0"]


def _widths(sha, widths):
    return {"sha256": sha, "deltas": [0.1, 0.2], "localization_widths": widths}


WIDTHS = {"table1/adaptive/workers=1": _widths("a", [5.0, 2.0]),
          "table1/loc/workers=1": _widths("b", [1.0, 1.0])}


def test_equal_widths_print_a_zero_width_gap(digest, capsys):
    assert digest.compare(WIDTHS, json.loads(json.dumps(WIDTHS))) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 differing reports of 2; max |delta difference| = 0; "
        "max |width difference| = 0"]


def test_a_moved_width_prints_its_gap(digest, capsys):
    change = dict(WIDTHS, **{"table1/adaptive/workers=1": _widths("c", [5.0, 10.0])})
    assert digest.compare(WIDTHS, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: table1/adaptive/workers=1",
        "1 differing reports of 2; max |delta difference| = 0; "
        "max |width difference| = 8"]


def test_fd_and_older_digests_without_widths_are_skipped(digest, capsys):
    # fd carries null widths, an older digest none; only the loc report
    # has widths on both sides, and its moved width is the gap
    parent = dict(WIDTHS, **{"table1/fd/workers=1": _widths("d", None)})
    change = {"table1/adaptive/workers=1": _report("a", [0.1, 0.2]),
              "table1/loc/workers=1": _widths("e", [1.0, 1.5]),
              "table1/fd/workers=1": _widths("d", None)}
    assert digest.compare(parent, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: table1/loc/workers=1",
        "1 differing reports of 3; max |delta difference| = 0; "
        "max |width difference| = 0.5"]
    # with no report carrying widths on both sides, no width gap is printed
    older = {key: _report(report["sha256"], report["deltas"])
             for key, report in WIDTHS.items()}
    assert digest.compare(WIDTHS, older) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 differing reports of 2; max |delta difference| = 0"]


PRESETS = {"table1/adaptive/workers=1": _report("a", [0.1, 0.2]),
           "table3/fd/workers=2/lt=off": _report("b", [0.3, -0.4]),
           "sweep/table1/loc/workers=2": _report("c", [0.5, 0.6]),
           "table5/loc/workers=1": _report("d", [0.7, 0.8])}


def test_the_delta_gap_is_printed_per_preset(digest, capsys):
    # table1's sweep entry moves a last bit and table5 a larger step; the
    # sweep entry counts under its preset, and table3 reads 0
    change = dict(PRESETS, **{
        "sweep/table1/loc/workers=2": _report("e", [0.5, 0.6 + 2.0 ** -53]),
        "table5/loc/workers=1": _report("f", [0.7, 0.85])})
    assert digest.compare(PRESETS, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: sweep/table1/loc/workers=2",
        "differs: table5/loc/workers=1",
        f"2 differing reports of 4; max |delta difference| = {0.85 - 0.8:g}",
        f"max |delta difference| per preset: table1 = {2.0 ** -53:g}; table3 = 0; "
        f"table5 = {0.85 - 0.8:g}"]
    # the breakdown runs over the reports both files have
    assert digest.compare(PRESETS, {key: PRESETS[key] for key in
                                    ("table1/adaptive/workers=1",
                                     "sweep/table1/loc/workers=2")}) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 differing reports of 4; max |delta difference| = 0")


def test_a_sweep_digest_covers_both_csvs_and_keeps_the_deltas(digest):
    # and the stderrs and replication means, for --compare's gaps
    flags = ["--assets", "2", "--steps", "2", "--points", "32", "--reps", "2",
             "--method", "loc", "--sweep", "90:110:10"]
    first = digest.sweep_digest(flags)
    assert len(first["deltas"]) == len(first["stderrs"]) == 3 * 2
    assert len(first["replication_means"]) == 3 * 2 * 2 and len(first["sha256"]) == 64
    # the deltas are the means of each strike's replication means
    means = np.reshape(first["replication_means"], (3, 2, 2))
    np.testing.assert_allclose(first["deltas"], means.mean(axis=1).ravel(),
                               rtol=1e-14, atol=0)
    assert digest.sweep_digest(flags) == first
    # another seed moves both CSVs, so the digest must move too
    assert digest.sweep_digest(flags + ["--seed", "8"])["sha256"] != first["sha256"]
    with pytest.raises(SystemExit, match="exited 2"):
        digest.sweep_digest(flags + ["--reps", "1"])
