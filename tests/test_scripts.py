"""Smoke tests of the experiment scripts: each runs with small arguments,
exits 0 and writes CSV files with the documented header."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def csv_header(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(",")


def test_reproduce_error_tables(tmp_path):
    proc = run_script("reproduce_error_tables.py", "--outdir", tmp_path)
    assert proc.returncode == 0, proc.stderr
    for n in (2, 4, 8):
        assert csv_header(tmp_path / f"table_n{n}.csv") == ["t", "eps1", "eps2"]


def test_convergence_study(tmp_path):
    out = tmp_path / "study.csv"
    proc = run_script("convergence_study.py", "--Ns", "2,4", "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert csv_header(out) == ["N", "K", "M", "max_eps1", "max_eps2", "wall_time_s"]


def test_baseline_contrast(tmp_path):
    out = tmp_path / "baseline.csv"
    proc = run_script("baseline_contrast.py", "--steps", "50,100", "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert csv_header(out) == ["steps", "max_eps1", "max_eps2", "wall_time_s"]
