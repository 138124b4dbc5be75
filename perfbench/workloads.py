"""The benchmark's four workloads.

Every workload defines one *operation*, the unit that is timed and gated:

* ``many-slabs``: the CLI ``solve --problem reference --N 16 --K 32 --M 128``
  in process, stdout captured in memory.  Stresses per-slab data sampling
  (scalar g/b calls, map_to_slab) and CSV formatting; the constant-family
  cache builds the interior maps once, so exp_sigma_moments barely runs.
* ``many-modes``: library ``march`` + ``compute_errors`` of the reference
  problem at (N, K, M) = (12, 4, 4096).  Dominated by the stage solve
  (batched LU and the per-column ``_imsc`` loop); no CLI formatting.
* ``varcoef-forced``: library ``march`` + ``compute_errors`` at (12, 8, 128)
  of the manufactured variable-coefficient problem in ``varcoef``.  The only
  workload with uncached interior assembly, forcing sampling and a nonzero
  interior coupling, i.e. the bypass case for constant-family shortcuts.
* ``paper-sweep``: the paper-reproduction mix through the CLI: a
  convergence sweep, a fixed-point solve, a Neumann solve that refines
  twice, and the backward-Euler baseline.  The only workload that runs the
  fixed-point solver, the restart path and the baseline, and whose errors
  sit away from roundoff.

The program only ever sees the generated inputs.  The seed feeds the
varcoef-forced parameters; the other workloads are fixed configurations
from the paper, so their inputs are the same for every seed.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import duhamelcheb as dc
from duhamelcheb import cli

import gate
import varcoef

ACCURACY_FLOOR = 1e-15
"""Errors are floored here before taking -log10, so roundoff jitter does not register."""


def accuracy_digits(errors: list[float]) -> float:
    """Mean of -log10(max(err, ACCURACY_FLOOR)) over the operation's collocation errors."""
    return sum(-math.log10(max(e, ACCURACY_FLOOR)) for e in errors) / len(errors)


def run_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    """``duhamelcheb`` CLI in process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def mask_wall_times(text: str) -> str:
    """The CSV text with every ``wall_time_s`` column blanked.

    Wall times differ between two runs of the same computation; every other
    printed byte must not.
    """
    out, drop = [], None
    for line in text.splitlines():
        fields = line.split(",")
        if gate.is_header(line):
            drop = fields.index("wall_time_s") if "wall_time_s" in fields else None
        elif drop is not None:
            fields[drop] = ""
        out.append(",".join(fields))
    return "\n".join(out)


@dataclass(frozen=True)
class CliStep:
    """One CLI invocation and the gate for its output.

    ``check(rc, text)`` returns (problems, collocation errors); baseline
    errors are gated but are not collocation errors, so that step returns
    none for the accuracy metric.
    """

    argv: tuple[str, ...]
    check: Callable[[int, str], tuple[list[str], list[float]]]


def _solve_step(problem: str, N: int, K: int, mode: str = "direct", M: int = 128) -> CliStep:
    argv = ("solve", "--problem", problem, "--N", str(N), "--K", str(K), "--M", str(M))
    if mode == "picard":
        argv += ("--mode", "picard")
    limit = gate.ceiling((problem, N, K, mode))

    def check(rc, text):
        problems, err = gate.check_cli_solve(rc, text, N, K, 1.0, limit)
        return problems, [err]

    return CliStep(argv, check)


def _convergence_step(Ns: tuple[int, ...]) -> CliStep:
    argv = ("convergence", "--Ns", ",".join(map(str, Ns)), "--Ks", "1")
    columns = ["N", "K", "M", "max_eps1", "max_eps2", "wall_time_s"]
    limits = {N: gate.ceiling(("reference", N, 1, "direct")) for N in Ns}
    return CliStep(argv, lambda rc, text: gate.check_cli_table(rc, text, columns, "N", limits))


def _baseline_step(steps: int) -> CliStep:
    argv = ("baseline", "--steps", str(steps))
    columns = ["steps", "max_eps1", "max_eps2", "wall_time_s"]
    limits = {steps: gate.ceiling(("baseline", steps))}

    def check(rc, text):
        problems, _ = gate.check_cli_table(rc, text, columns, "steps", limits)
        return problems, []

    return CliStep(argv, check)


class CliWorkload:
    """An operation made of CLI invocations run back to back."""

    def __init__(self, name: str, why: str, steps: list[CliStep]):
        self.name = name
        self.why = why
        self.steps = steps

    def prepare(self, seed: int) -> tuple[CliStep, ...]:
        return tuple(self.steps)

    def operate(self, state) -> list[tuple[int, str]]:
        return [run_cli(step.argv) for step in state]

    def check(self, state, outputs) -> tuple[list[str], list[float]]:
        problems, errors = [], []
        for step, (rc, text) in zip(state, outputs):
            p, e = step.check(rc, text)
            problems += p
            errors += e
        return problems, errors

    def fingerprint(self, outputs) -> tuple:
        return tuple((rc, mask_wall_times(text)) for rc, text in outputs)

    def bytes_out(self, outputs) -> int:
        return sum(len(text.encode()) for _, text in outputs)


class MarchWorkload:
    """An operation that is one library ``march`` plus ``compute_errors``."""

    def __init__(self, name: str, why: str, build: Callable[[int], object], N: int, K: int, M: int):
        self.name = name
        self.why = why
        self.build = build
        self.N, self.K, self.M = N, K, M

    def prepare(self, seed: int):
        problem = self.build(seed)
        config = dc.SolverConfig(N=self.N, K=self.K, M=self.M, T=problem.T)
        return problem, config

    def operate(self, state):
        problem, config = state
        trace = dc.march(problem, config)
        return trace, dc.compute_errors(trace, problem)

    def check(self, state, outputs) -> tuple[list[str], list[float]]:
        problem, _ = state
        trace, report = outputs
        limit = gate.ceiling((problem.name, self.N, self.K, "direct"))
        problems, err = gate.check_march(trace, report, self.N, self.K, problem.T, limit)
        return problems, [err]

    def fingerprint(self, outputs) -> tuple:
        trace, report = outputs
        return (
            report.max_eps1,
            trace.node_modes().tobytes(),
            trace.node_boundary_values().tobytes(),
            report.eps1.tobytes(),
            report.eps2.tobytes(),
        )

    def bytes_out(self, outputs) -> int:
        return 0


def _varcoef(seed: int):
    return varcoef.build_varcoef_problem(**varcoef.draw_params(seed))


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            "many-slabs",
            "CLI solve at N=16, K=32: per-slab data sampling and CSV formatting dominate",
            [_solve_step("reference", 16, 32)],
        ),
        MarchWorkload(
            "many-modes",
            "library march at M=4096: the batched stage solve dominates",
            lambda seed: dc.build_reference_example(M=4096),
            N=12, K=4, M=4096,
        ),
        MarchWorkload(
            "varcoef-forced",
            "variable-coefficient forced problem: uncached interior assembly and moment recurrences",
            _varcoef,
            N=12, K=8, M=128,
        ),
        CliWorkload(
            "paper-sweep",
            "paper mix via the CLI: convergence, fixed-point, Neumann restarts, Euler baseline",
            [
                _convergence_step((2, 4, 8, 12, 16)),
                _solve_step("reference", 8, 2, mode="picard"),
                _solve_step("neumann", 12, 1),
                _baseline_step(1024),
            ],
        ),
    )
}
