"""Smoke tests of the scripts: the experiment script runs with small
arguments, exits 0 and writes a CSV file with the documented header; the
line counter counts a fixture and every file of src/."""

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


def test_baseline_contrast(tmp_path):
    out = tmp_path / "baseline.csv"
    proc = run_script("baseline_contrast.py", "--steps", "50,100", "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert csv_header(out) == ["steps", "max_eps1", "max_eps2", "wall_time_s"]


FIXTURE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves the line code

# a comment


def f():
    """One line."""
    x = """an assigned string
is code"""
    "a bare string"
    return x
'''


def line_counts(stdout):
    """The (lines, code, docs, blank, comments) of each row of ``src_lines.py``'s output, by file."""
    rows = [line.split(maxsplit=5) for line in stdout.splitlines()[1:]]
    return {row[5]: tuple(map(int, row[:5])) for row in rows}


def test_src_lines_counts_a_fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    proc = run_script("src_lines.py", path)
    assert proc.returncode == 0, proc.stderr
    assert line_counts(proc.stdout) == {str(path): (14, 5, 4, 4, 1), "total": (14, 5, 4, 4, 1)}


def test_src_lines_sums_to_each_file_of_src():
    proc = run_script("src_lines.py")
    assert proc.returncode == 0, proc.stderr
    counts = line_counts(proc.stdout)
    total = counts.pop("total")
    assert len(counts) == len(list((ROOT / "src").rglob("*.py"))) > 0
    for name, (lines, *kinds) in counts.items():
        assert lines == sum(kinds) == len((ROOT / name).read_text().splitlines())
    assert total == tuple(map(sum, zip(*counts.values())))
