"""Reproduce the single-slab error tables for the reference rod.

Runs the marcher at degrees 2, 4, and 8 on one slab and writes one CSV
per degree with the boundary and midpoint errors at the collocation
node times.  The printed summary reports the max boundary error next to
the magnitude window it is expected to land in.
"""

import argparse
import pathlib
import time

from duhamelcheb import (
    SolverConfig,
    build_reference_example,
    compute_errors,
    march,
)

WINDOWS = {2: (1e-3, 1e-1), 4: (0.0, 5e-3), 8: (0.0, 1e-6)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--M", type=int, default=128, help="retained eigenmodes")
    parser.add_argument("--T", type=float, default=1.0, help="final time")
    parser.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("results"))
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    problem = build_reference_example(M=args.M, T=args.T)
    for n, (lo, hi) in WINDOWS.items():
        start = time.perf_counter()
        trace = march(problem, SolverConfig(N=n, K=1, M=args.M, T=args.T))
        report = compute_errors(trace, problem)
        elapsed = time.perf_counter() - start
        path = args.outdir / f"table_n{n}.csv"
        notes = (
            f"single slab, degree N={n}, M={args.M} modes, T={args.T}",
            "rows are the non-initial collocation node times",
        )
        path.write_text(report.table(include_initial=False, notes=notes).to_csv())
        status = "in" if lo <= report.max_eps1 <= hi else "OUTSIDE"
        print(
            f"n={n}: max eps1 = {report.max_eps1:.6e} "
            f"({status} window [{lo:g}, {hi:g}]), "
            f"max eps2 = {report.max_eps2:.6e}, {elapsed:.2f}s -> {path}"
        )


if __name__ == "__main__":
    main()
