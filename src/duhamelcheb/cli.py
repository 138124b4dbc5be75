"""Command-line front end.

Subcommands: tables (single-slab error tables for the reference rod),
solve (march one configuration and write the trace plus error report),
convergence (sweep N and K), baseline (backward Euler at given step
counts), kernels (tabulate the boundary kernels with truncation bounds).

Exit codes: 0 on success, 2 on configuration errors, 3 on solver failures.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .collocation import (
    FixedPointDivergenceError,
    NonFiniteStageError,
    SlabContractionError,
    SolverConfig,
    march,
)
from .harness import baseline_sweep, run_convergence_study
from .heat import (
    HeatProblem,
    Table,
    build_decay_example,
    build_neumann_example,
    build_reference_example,
    build_zero_example,
    compute_errors,
)
from .kernels import KernelSeries
from .operators import heat_basis

__all__ = ["main", "load_structured"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_BUILDERS = {
    "reference": build_reference_example,
    "neumann": build_neumann_example,
    "zero": build_zero_example,
    "decay": build_decay_example,
}


def _parts(text: str) -> list[str]:
    """Non-blank comma-separated parts; argparse exits 2 naming the flag when there are none."""
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"expected a non-empty comma-separated list, got {text!r}")
    return parts


def _int_list(text: str) -> list[int]:
    return [int(part) for part in _parts(text)]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in _parts(text)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duhamelcheb",
        description="Chebyshev slab collocation for Robin-boundary evolution problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_solver=True):
        p.add_argument("--M", type=int, default=128, help="retained eigenmodes")
        p.add_argument("--T", type=float, default=1.0, help="final time")
        p.add_argument("--out", type=str, default=None, help="output path (stdout when omitted)")
        p.add_argument(
            "--format",
            choices=("csv", "structured"),
            default="csv",
            help="csv or a structured JSON document with config echo",
        )
        if with_solver:
            p.add_argument("--mode", choices=("direct", "picard"), default="direct",
                           help="stage solver: direct elimination or fixed-point sweep")
            p.add_argument("--fp-tol", type=float, default=1e-12)
            p.add_argument("--fp-max-iter", type=int, default=400)

    p_tables = sub.add_parser("tables", help="single-slab error table for the reference rod")
    p_tables.add_argument("--n", type=int, required=True, choices=(2, 4, 8),
                          help="collocation degree (table size)")
    add_common(p_tables, with_solver=False)

    p_solve = sub.add_parser("solve", help="march one configuration")
    p_solve.add_argument("--problem", choices=sorted(_BUILDERS), default="reference")
    p_solve.add_argument("--N", type=int, default=8, help="collocation degree per slab")
    p_solve.add_argument("--K", type=int, default=1, help="number of slabs")
    p_solve.add_argument("--errors-out", type=str, default=None,
                         help="error-report path (derived from --out when omitted)")
    add_common(p_solve)

    p_conv = sub.add_parser("convergence", help="sweep collocation degrees and slab counts")
    p_conv.add_argument("--Ns", type=_int_list, default=[2, 4, 8])
    p_conv.add_argument("--Ks", type=_int_list, default=[1])
    add_common(p_conv)

    p_base = sub.add_parser("baseline", help="backward-Euler error at given step counts")
    p_base.add_argument("--steps", type=_int_list, default=[100, 200])
    add_common(p_base, with_solver=False)

    p_kern = sub.add_parser("kernels", help="tabulate boundary kernels K and K1")
    p_kern.add_argument("--t", type=_float_list, default=[0.1, 0.5, 1.0])
    p_kern.add_argument("--x", type=float, default=0.5, help="field-kernel probe point")
    add_common(p_kern, with_solver=False)
    return parser


def _emit(table: Table, fmt: str, out: str | None) -> None:
    payload = table.to_csv() if fmt == "csv" else json.dumps(table.to_structured(), indent=2) + "\n"
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w") as fh:
            fh.write(payload)


def load_structured(text_or_path: str) -> dict:
    """Parse a structured document emitted with --format structured.

    Accepts either the JSON text itself or a path to a file holding it.
    """
    text = text_or_path
    if not text_or_path.lstrip().startswith("{"):
        with open(text_or_path) as fh:
            text = fh.read()
    doc = json.loads(text)
    for key in ("kind", "config", "columns", "rows"):
        if key not in doc:
            raise ValueError(f"structured document missing field {key!r}")
    return doc


def _cmd_tables(args) -> int:
    config = SolverConfig(N=args.n, K=1, M=args.M, T=args.T)
    problem = build_reference_example(M=args.M, T=args.T)
    trace = march(problem, config)
    notes = (
        f"single slab, degree N={args.n}, M={args.M} modes, T={args.T}",
        "rows are the non-initial collocation node times",
        "compare error magnitudes; tabulated abscissae depend on the node family",
    )
    report = compute_errors(trace, problem)
    _emit(report.table(include_initial=False, notes=notes), args.format, args.out)
    return EXIT_OK


def _trace_table(trace, problem: HeatProblem) -> Table:
    modes = trace.node_modes()
    u1 = modes @ problem.basis.boundary_trace
    rows = np.column_stack([trace.node_times(), trace.node_boundary_values(), u1, modes]).tolist()
    columns = ["t", "y", "u1"] + [f"mode_{i + 1}" for i in range(modes.shape[1])]
    config = {
        "N": trace.config.N,
        "K": trace.partition.K,
        "M": trace.config.M,
        "T": trace.config.T,
        "mode": trace.config.mode,
        "problem": problem.name,
        "refinements": trace.refinements,
        "contraction_max": trace.contraction_max,
        "solve_seconds": trace.solve_seconds,
    }
    return Table("solution_trace", config, columns, rows)


def _cmd_solve(args) -> int:
    mode = "fixed_point" if args.mode == "picard" else args.mode
    config = SolverConfig(
        N=args.N, K=args.K, M=args.M, T=args.T,
        mode=mode, fp_tol=args.fp_tol, fp_max_iter=args.fp_max_iter,
    )
    problem = _BUILDERS[args.problem](M=args.M, T=args.T)
    trace = march(problem, config)
    _emit(_trace_table(trace, problem), args.format, args.out)
    errors_out = args.errors_out
    if errors_out is None and args.out is not None:
        stem, dot, suffix = args.out.rpartition(".")
        errors_out = f"{stem}_errors.{suffix}" if dot else f"{args.out}_errors"
    _emit(compute_errors(trace, problem).table(), args.format, errors_out)
    return EXIT_OK


def _cmd_convergence(args) -> int:
    mode = "fixed_point" if args.mode == "picard" else args.mode
    problem = build_reference_example(M=args.M, T=args.T)
    result = run_convergence_study(
        problem, args.Ns, args.Ks, mode=mode, fp_tol=args.fp_tol, fp_max_iter=args.fp_max_iter
    )
    _emit(result.table(), args.format, args.out)
    return EXIT_OK


def _cmd_baseline(args) -> int:
    problem = build_reference_example(M=args.M, T=args.T)
    _emit(baseline_sweep(problem, args.steps), args.format, args.out)
    return EXIT_OK


def _cmd_kernels(args) -> int:
    series = KernelSeries(heat_basis(args.M))
    rows = [[t, float(series.K(t)), float(series.K1(t, args.x))] for t in args.t]
    config = {"M": args.M, "x": args.x, **series.truncation_report(delta=min(args.t))}
    _emit(Table("kernels", config, ["t", "K", "K1_at_x"], rows), args.format, args.out)
    return EXIT_OK


_COMMANDS = {
    "tables": _cmd_tables,
    "solve": _cmd_solve,
    "convergence": _cmd_convergence,
    "baseline": _cmd_baseline,
    "kernels": _cmd_kernels,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SlabContractionError, FixedPointDivergenceError, NonFiniteStageError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
