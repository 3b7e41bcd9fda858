"""Smoke tests of the runnable scripts under scripts/, run as a user
runs them, in a fresh interpreter."""

import csv
import os
import pathlib
import subprocess
import sys

import survbench

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path(survbench.__file__).resolve().parent.parent


def test_seed_sweep_writes_its_summary(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = tmp_path / "sweep"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "seed_sweep.py"), "--seeds", "1",
         "--n", "150", "--models", "cox,mtlr", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"summary written to {out / 'sweep.csv'}" in proc.stdout
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "mean_test_cindex", "sd_test_cindex", "runs"]
    assert [(r[0], r[2], r[3]) for r in rows[1:]] == [("cox", "0", "1"), ("mtlr", "0", "1")]
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows[1:])
    assert (out / "seed_0" / "report.csv").exists()
