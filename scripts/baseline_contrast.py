"""Contrast the collocation solver with backward Euler at equal solve time.

Runs backward Euler over a doubling ladder of step counts, fits its
order, then finds the step count whose wall time first reaches the N=8
collocation solve time and reports the error ratio at that budget.
"""

import argparse
import pathlib

import numpy as np

from duhamelcheb import (
    SolverConfig,
    baseline_sweep,
    build_reference_example,
    compute_errors,
    equal_budget_baseline,
    march,
)


def int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int_list, default=[50, 100, 200, 400])
    parser.add_argument("--N", type=int, default=8, help="collocation degree")
    parser.add_argument("--M", type=int, default=128)
    parser.add_argument("--T", type=float, default=1.0)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results/baseline.csv"))
    args = parser.parse_args()

    problem = build_reference_example(M=args.M, T=args.T)
    table = baseline_sweep(problem, args.steps)
    for steps, eps1, _, wall in table.rows:
        print(f"euler steps={steps:5d}: max eps1 = {eps1:.6e}, wall {wall * 1e3:.2f} ms")
    if len(table.rows) >= 2:
        hs = np.log([args.T / r[0] for r in table.rows])
        es = np.log([r[1] for r in table.rows])
        order = float(np.polyfit(hs, es, 1)[0])
        print(f"fitted euler order: {order:.3f}")

    trace = march(problem, SolverConfig(N=args.N, K=1, M=args.M, T=args.T))
    colloc_err = compute_errors(trace, problem).max_eps1
    budget = trace.solve_seconds
    print(f"collocation N={args.N}: max eps1 = {colloc_err:.6e}, solve {budget * 1e3:.2f} ms")

    report = equal_budget_baseline(problem, budget)
    ratio = report.max_eps1 / colloc_err
    print(
        f"equal-budget euler ({report.config['steps']} steps, "
        f"{report.config['wall_time_s'] * 1e3:.2f} ms): "
        f"max eps1 = {report.max_eps1:.6e}, ratio {ratio:.3g}x"
    )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("w") as fh:
        fh.writelines(table.csv_chunks())
    print(f"table -> {args.out}")


if __name__ == "__main__":
    main()
