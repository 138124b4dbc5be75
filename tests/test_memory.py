"""Peak memory of one march of the many-modes shape, of one many-slabs
CLI solve, and of the CSV of a table whose values are all distinct.

The reference problem at N = 12, K = 4, M = 4096 marched and evaluated
(``march`` plus ``compute_errors``) under ``tracemalloc``.  Before the
constant-family shortcut the peak was 26 081 636 bytes (numpy 2.4.6,
x86-64), and the bound allows 5% above that.  Assembly temporaries of
shape (N, ., M) break it: scaling beta for all subintervals at once, with
two (N, N + 1, M) temporaries, raises the peak to 35.2 MB.

The CLI ``solve --N 16 --K 32 --M 128``, stdout captured in memory, peaked
at 7 219 681 bytes with one ``repr`` per CSV cell and at 7 242 021 with
one ``repr`` per distinct value of the whole table as Python lists.  With
the trace kept as one float array and rendered in row blocks it peaks at
5 592 448, and the bound allows 5% above that.

A random 513 × 131 array table must render within 1.1 times the peak of
the per-cell renderer on the same table, measured in the same test: about
3.99 MB on both sides.  Deduplicating the whole table at once took 8.3 MB.
"""

import contextlib
import gc
import io
import tracemalloc

import numpy as np

from duhamelcheb import SolverConfig, Table, build_reference_example, cli, compute_errors, march

MEASURED_PEAK_BYTES = 26_081_636
MEASURED_CLI_PEAK_BYTES = 5_592_448


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


def test_all_distinct_array_table_csv_peak_stays_near_per_cell_rendering(per_cell_csv):
    rows = np.random.default_rng(513).standard_normal((513, 131))
    table = Table("random", {}, [f"c{i}" for i in range(131)], rows)

    def peak(render):
        gc.collect()
        tracemalloc.start()
        try:
            render(table)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_cell = peak(per_cell_csv)
    blocked = peak(Table.to_csv)
    assert blocked <= 1.1 * per_cell, f"peak {blocked / 1e6:.2f} MB against {per_cell / 1e6:.2f} MB"


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
