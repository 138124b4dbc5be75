"""Set-up time of one workload, measured in a fresh interpreter.

Times the import of ``duhamelcheb`` and the build of the workload's problem
objects, then the calibration loop, and prints both: the seconds the set-up
took and the calibration milliseconds.  ``run.py`` starts it several times
per run, rescales each set-up time by its calibration and reports the
median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
elapsed = time.perf_counter() - START

import calibration  # noqa: E402

print(elapsed, calibration.calibration_ms())
