"""Peak memory of one march of the many-modes shape and of one many-slabs
CLI solve.

The reference problem at N = 12, K = 4, M = 4096 marched and evaluated
(``march`` plus ``compute_errors``) under ``tracemalloc``.  Before the
constant-family shortcut the peak was 26 081 636 bytes (numpy 2.4.6,
x86-64), and the bound allows 5% above that.  Assembly temporaries of
shape (N, ., M) break it: scaling beta for all subintervals at once, with
two (N, N + 1, M) temporaries, raises the peak to 35.2 MB.

The CLI ``solve --N 16 --K 32 --M 128``, stdout captured in memory, peaked
at 7 219 681 bytes with one ``repr`` per CSV cell, and the same 5% bound
applies.  Rendering each distinct value once reads 7 242 021; the same
rendering with Python lists for the cell strings and inverse indices
reads 9 629 847 and fails.
"""

import contextlib
import gc
import io
import tracemalloc

from duhamelcheb import SolverConfig, build_reference_example, cli, compute_errors, march

MEASURED_PEAK_BYTES = 26_081_636
MEASURED_CLI_PEAK_BYTES = 7_219_681


def test_many_modes_march_peak_stays_within_five_percent():
    problem = build_reference_example(M=4096)
    config = SolverConfig(N=12, K=4, M=4096)
    march(problem, config)  # first use builds the shared Gauss tables
    gc.collect()
    tracemalloc.start()
    try:
        compute_errors(march(problem, config), problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * MEASURED_PEAK_BYTES, f"peak {peak / 1e6:.2f} MB"


def test_many_slabs_cli_solve_peak_stays_within_five_percent():
    def solve():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", "--N", "16", "--K", "32", "--M", "128"]) == 0

    solve()  # first use builds the shared Gauss tables
    gc.collect()
    tracemalloc.start()
    try:
        solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * MEASURED_CLI_PEAK_BYTES, f"peak {peak / 1e6:.2f} MB"
