"""Sweep collocation degree and slab count on the reference rod.

Writes the study table as CSV and prints the fitted decay rates: the
spectral slope of log10(max eps1) per unit degree at the first slab
count, and the algebraic order in the slab count at the first degree.
"""

import argparse
import pathlib

from duhamelcheb import build_reference_example, fit_rates, run_convergence_study


def int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--Ns", type=int_list, default=[2, 4, 8, 12])
    parser.add_argument("--Ks", type=int_list, default=[1])
    parser.add_argument("--M", type=int, default=128)
    parser.add_argument("--T", type=float, default=1.0)
    parser.add_argument("--mode", choices=("direct", "fixed_point"), default="direct")
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results/study.csv"))
    args = parser.parse_args()

    problem = build_reference_example(M=args.M, T=args.T)
    result = run_convergence_study(problem, args.Ns, args.Ks, mode=args.mode)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(result.table(notes=(f"reference rod, M={args.M}, T={args.T}",)).to_csv())

    for row in result.rows:
        print(
            f"N={row.N:3d} K={row.K:3d}: max eps1 = {row.max_eps1:.6e}, "
            f"max eps2 = {row.max_eps2:.6e}, solve {row.wall_time_s * 1e3:.2f} ms"
        )
    rates = fit_rates(result)
    if rates.spectral_slope_log10 is not None:
        print(f"spectral slope: {rates.spectral_slope_log10:.4f} log10 per unit N")
    if rates.algebraic_order is not None:
        print(f"algebraic order in K: {rates.algebraic_order:.4f}")
    print(f"table -> {args.out}")


if __name__ == "__main__":
    main()
