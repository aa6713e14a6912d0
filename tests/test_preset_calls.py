import json
import subprocess
import sys
from pathlib import Path

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
