import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "preset_calls.py"


def test_a_small_run_prints_one_record_per_worker_count():
    run = subprocess.run([sys.executable, str(TOOL), "--small", "--presets", "table1",
                          "--workers", "1", "2"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    records = json.loads(run.stdout)
    assert [(record["preset"], record["workers"]) for record in records] == [
        ("table1", 1), ("table1", 2)]
    for record in records:
        assert set(record) == {"preset", "workers", "blas_threads", "seconds",
                               "peak_rss_mb", "simulated_paths"}


@pytest.mark.parametrize("count", ["0", "-1"])
def test_a_worker_count_below_one_is_refused_by_name(count):
    run = subprocess.run([sys.executable, str(TOOL), "--small", "--workers", "1", count],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and not run.stdout
    assert f"--workers counts must be at least 1; got {count}" in run.stderr
    assert "Traceback" not in run.stderr
