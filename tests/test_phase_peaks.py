import json
import os
import subprocess
import sys

from sdtdl import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "phase_peaks.py")


def test_each_phase_of_a_small_fit_reports_its_peak(tmp_path):
    data = str(tmp_path / "data")
    assert cli.main([
        "synth", "--classes", "2", "--dims", "5,4", "--ranks", "2,2", "--n-source", "6",
        "--n-target", "6", "--noise", "0.05", "--shift", "0.3", "--out", data,
    ]) == 0
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run(
        [sys.executable, TOOL, data, "--", "--ranks", "2,2", "--max-iters", "3"],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    *phases, overall = rows
    assert overall["phase"] == "sdtdl fit" and overall["exit_code"] == 0
    count = {}
    for row in phases:
        assert row["index"] == count.get(row["phase"], 0)
        count[row["phase"]] = row["index"] + 1
        assert 0 < row["peak_mib"] <= overall["peak_mib"]
        assert row["seconds"] >= 0
    # one source and one target update per block pass and at init, and a
    # pass at init, before the first block pass and after each
    passes = count["class_jobs"]
    assert passes >= 1
    assert count == {
        "init_class": 1,
        "class_jobs": passes,
        "source_update": passes + 1,
        "target_update": passes + 1,
        "prediction_pass": passes + 2,
    }
    # sdtdl fit's own line goes to stderr
    assert '"n_selected"' in done.stderr
