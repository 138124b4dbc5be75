"""Peak memory of one march of the many-modes shape.

The reference problem at N = 12, K = 4, M = 4096 marched and evaluated
(``march`` plus ``compute_errors``) under ``tracemalloc``.  Before the
constant-family shortcut the peak was 26 081 636 bytes (numpy 2.4.6,
x86-64), and the bound allows 5% above that.  Assembly temporaries of
shape (N, ., M) break it: scaling beta for all subintervals at once, with
two (N, N + 1, M) temporaries, raises the peak to 35.2 MB.
"""

import gc
import tracemalloc

from duhamelcheb import SolverConfig, build_reference_example, compute_errors, march

MEASURED_PEAK_BYTES = 26_081_636


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
