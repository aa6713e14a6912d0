import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_times.py"


def test_a_small_run_prints_every_stage_and_build_time():
    run = subprocess.run([sys.executable, str(TOOL), "--small", "--presets", "table1"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["lt"] == "on" and result["points"] == 256 and result["repeats"] == 3
    assert list(result["presets"]) == ["table1"]
    times = result["presets"]["table1"]
    assert set(times) == {"stages_ms", "once_ms", "peaks_kb"}
    stages = {"uniforms", "inverse_normal", "paths", "evaluate", "basket_jets", "weights"}
    assert set(times["stages_ms"]) == stages | {"replication"}
    assert set(times["once_ms"]) == {"lt_build", "generator"}
    assert set(times["peaks_kb"]) == stages
    assert all(value > 0.0 for group in times.values() for value in group.values())
    # the jets hold six (2, 256, 10) derivative planes and values, at least
    # 6 * 3 * 256 * 10 float64s, however little else a stage allocates
    assert times["peaks_kb"]["basket_jets"] >= 6 * 3 * 256 * 10 * 8 / 1024
