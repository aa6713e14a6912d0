import importlib.util
import json
from pathlib import Path

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


def test_compare_reads_two_digest_files(digest, tmp_path, capsys):
    paths = []
    for name, reports in (("parent.json", PARENT),
                          ("change.json", dict(PARENT, **{"new": _report("e", [1.0])}))):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(reports), encoding="utf-8")
    assert digest.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert digest.main(["--compare", *map(str, paths)]) == 1
    assert "differs: new" in capsys.readouterr().out


def test_a_sweep_digest_covers_both_csvs_and_keeps_the_deltas(digest):
    flags = ["--assets", "2", "--steps", "2", "--points", "32", "--reps", "2",
             "--method", "loc", "--sweep", "90:110:10"]
    first = digest.sweep_digest(flags)
    assert len(first["deltas"]) == 3 * 2 and len(first["sha256"]) == 64
    assert digest.sweep_digest(flags) == first
    # another seed moves both CSVs, so the digest must move too
    assert digest.sweep_digest(flags + ["--seed", "8"])["sha256"] != first["sha256"]
    with pytest.raises(SystemExit, match="exited 2"):
        digest.sweep_digest(flags + ["--reps", "1"])
