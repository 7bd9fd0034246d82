import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sdtdl import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "compare_fits.py")

spec = importlib.util.spec_from_file_location("compare_fits", TOOL)
compare_fits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_fits)

TOLERANCES = {"conf_max_abs": 1e-15, "projector_max": 1e-12, "objective_max_rel": 1e-12}


def test_one_tree_against_itself_reports_no_change(tmp_path):
    data = str(tmp_path / "data")
    assert cli.main([
        "synth", "--classes", "2", "--dims", "5,4", "--ranks", "2,2", "--n-source", "6",
        "--n-target", "6", "--noise", "0.05", "--shift", "0.3", "--out", data,
    ]) == 0
    src = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, TOOL, src, src, data, "--", "--ranks", "2,2", "--max-iters", "3"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r.get("route") for r in rows] == ["eigen-phi", "exact", None]
    for row in rows:
        assert row["pass"] is True
        assert row["files_identical"] is True
        assert all(row[k] == 0.0 for k in compare_fits.DELTAS)
    assert all(r["labels_equal"] and r["masks_equal"] for r in rows[:2])


def fake_fit(rng):
    q = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    return {
        "labels": np.array([1, 2, 2, 1]),
        "selected": np.array([True, True, False, True]),
        "conf": np.array([0.9, 0.8, 0.6, 0.7]),
        "objective": np.array([10.0, 8.0, np.nan]),
        "factor:u_source/0": q,
        "factor:w/0/0": q.copy(),
        **{"sha256:" + name: np.array("0" * 64) for name in compare_fits.FILES},
    }


@pytest.mark.parametrize(
    "key,change,failing",
    [
        ("labels", lambda v: 3 - v, "labels_equal"),
        ("selected", lambda v: ~v, "masks_equal"),
        ("conf", lambda v: v + 1e-14, "conf_max_abs"),
        ("objective", lambda v: v * (1 + 1e-11), "objective_max_rel"),
        ("objective", lambda v: v[:2].copy(), "objective_max_rel"),
        ("factor:w/0/0", lambda v: np.linalg.qr(v + 1e-6)[0], "projector_max"),
    ],
)
def test_each_change_fails_its_tolerance(key, change, failing):
    a = fake_fit(np.random.default_rng(0))
    b = {k: v.copy() for k, v in a.items()}
    assert compare_fits.within(compare_fits.compare(a, b), TOLERANCES)
    b[key] = change(b[key])
    diff = compare_fits.compare(a, b)
    assert not compare_fits.within(diff, TOLERANCES)
    wrong = {k for k in TOLERANCES if diff[k] > TOLERANCES[k]}
    wrong |= {k for k in ("labels_equal", "masks_equal") if not diff[k]}
    assert wrong == {failing}
