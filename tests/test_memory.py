"""Peak memory of one march of the many-modes shape, of one march of a
varying family, of one many-slabs CLI solve, of the CSV of a table whose
values are all distinct and of the Neumann trace, and of a solve written
to a file.

The reference problem at N = 12, K = 4, M = 4096 marched and evaluated
(``march`` plus ``compute_errors``) under ``tracemalloc``.  Before the
constant-family shortcut the peak was 26 081 636 bytes (numpy 2.4.6,
x86-64), and 25 687 514 with the dense (N, N + 1, M) boundary coupling
built and swept on every slab.  The factored constant-family solve builds
no array of that shape, not even the zero alpha, and peaked at 11 563 220
bytes.  With the block system reduced to the coefficients and b at the
nodes, so that no (N, M) copy of E, alpha's column 0 or the trace is kept
per slab, it peaked at 10 383 556, and with the maps stored
mode-contiguous and the stage solve summed in place it peaks at
10 006 525; the bound allows 5% above that, so one (N, N + 1, M) array
(5.1 MB) breaks it.

The varying manufactured problem at N = 12, K = 8, M = 128 marched and
evaluated the same way takes the batched LU path, whose right-hand side is
the one (N, N + 1, M) array a solve builds (160 kB).  With Phi and every
D w applied through the maps it peaked at 1 083 808 bytes, against
1 083 134 with both read off the dense coupling, and with the block
system reading its blocks from the coefficients it peaked at 1 045 720.
With the coefficients and the block system one object it peaks at
1 027 448; the bound allows 5% above that, so one more (N, N + 1, M) or
(N, N, M) array breaks it.

The CLI ``solve --N 16 --K 32 --M 128``, stdout captured in memory, peaked
at 7 219 681 bytes with one ``repr`` per CSV cell and at 7 242 021 with
one ``repr`` per distinct value of the whole table as Python lists.  With
the trace kept as one float array and rendered in row blocks it peaked at
5 592 448.  The peak is set by the CSV text, not by the march: after the
factored constant-family solve it reads 5 594 164, because the values'
reprs are 562 characters longer in all (4 bytes each in the captured
``io.StringIO``).  Written to stdout a row block at a time, with no
string of the whole CSV, it peaks at 2 792 328; the bound allows 5% above
that, and the streaming itself is guarded by the CLI tests, which bound
the longest write.

A random 513 × 131 array table must render within 1.1 times the peak of
the per-cell renderer on the same table, measured in the same test: about
3.99 MB for the per-cell renderer, 3.99 MB in blocks of 8192 cells and
2.65 MB in blocks of 4096.  Deduplicating the whole table at once took
8.3 MB.  The Neumann (12, 1, 128) trace, 49 × 131 cells of which 6 418 are
distinct, is smaller than one 8192-cell block and rendered at 0.819 MB
against 0.444 MB per cell (1.85 times); in blocks of 4096 cells it reads
0.519 MB (1.17 times), and the bound is 1.25 times.

``solve --N 16 --K 32 --M 512 --out`` writes 5.8 MB of CSV after a march
that peaks at 4.0 MB on its own.  Rendered as one string and written at
once it peaked at 21.9 MB; written a block at a time it peaks at 6.6 MB,
and the bound is the march's peak plus the bytes written.

``solve --N 16 --K 32 --M 1024 --format structured --out`` writes 15.3 MB
of JSON.  Built as one document, a Python float per cell and one string
of all of it, it peaked at 86 979 182 bytes; written a block of rows at a
time it peaks at 13 100 761, what the CSV of the same solve reads, so the
peak is set by the march and its trace table.  The bound allows 5% above
that.
"""

import contextlib
import gc
import io
import tracemalloc

import numpy as np

from duhamelcheb import (
    SolverConfig,
    Table,
    build_neumann_example,
    build_reference_example,
    cli,
    compute_errors,
    march,
)
from problems import varying_manufactured_problem

MEASURED_PEAK_BYTES = 10_006_525
MEASURED_VARYING_PEAK_BYTES = 1_027_448
MEASURED_CLI_PEAK_BYTES = 2_792_328
MEASURED_STRUCTURED_PEAK_BYTES = 13_100_761


def march_peak(problem, config) -> int:
    """Traced peak of one march plus compute_errors, after a warm-up march."""
    march(problem, config)  # first use builds the shared Gauss tables
    gc.collect()
    tracemalloc.start()
    try:
        compute_errors(march(problem, config), problem)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_many_modes_march_peak_stays_within_five_percent():
    peak = march_peak(build_reference_example(M=4096), SolverConfig(N=12, K=4, M=4096))
    assert peak <= 1.05 * MEASURED_PEAK_BYTES, f"peak {peak / 1e6:.2f} MB"


def test_varying_family_march_peak_stays_within_five_percent():
    peak = march_peak(varying_manufactured_problem(M=128), SolverConfig(N=12, K=8, M=128))
    assert peak <= 1.05 * MEASURED_VARYING_PEAK_BYTES, f"peak {peak / 1e6:.3f} MB"


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


def traced_peak(run) -> int:
    """Traced peak of ``run()``, after a warm-up call that builds the shared tables."""
    run()
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_neumann_trace_csv_peak_stays_near_per_cell_rendering(per_cell_csv):
    problem = build_neumann_example(M=128)
    table = cli._trace_table(march(problem, SolverConfig(N=12, K=1, M=128)), problem)
    assert table.rows.shape == (49, 131)
    per_cell = traced_peak(lambda: per_cell_csv(table))
    blocked = traced_peak(table.to_csv)
    assert blocked <= 1.25 * per_cell, f"peak {blocked / 1e6:.3f} MB against {per_cell / 1e6:.3f} MB"


def test_solve_to_file_peaks_below_the_march_plus_the_bytes_written(tmp_path):
    problem = build_reference_example(M=512)
    config = SolverConfig(N=16, K=32, M=512)
    out = tmp_path / "t.csv"
    argv = ["solve", "--N", "16", "--K", "32", "--M", "512", "--out", str(out)]
    solve_peak = traced_peak(lambda: cli.main(argv))
    march_only = traced_peak(lambda: march(problem, config))
    written = out.stat().st_size + (tmp_path / "t_errors.csv").stat().st_size
    assert solve_peak <= march_only + written, (
        f"peak {solve_peak / 1e6:.1f} MB against {march_only / 1e6:.1f} + {written / 1e6:.1f} MB"
    )


def test_structured_solve_to_file_peaks_within_five_percent(tmp_path):
    argv = ["solve", "--N", "16", "--K", "32", "--M", "1024", "--format", "structured",
            "--out", str(tmp_path / "t.json")]
    peak = traced_peak(lambda: cli.main(argv))
    assert peak <= 1.05 * MEASURED_STRUCTURED_PEAK_BYTES, f"peak {peak / 1e6:.2f} MB"
