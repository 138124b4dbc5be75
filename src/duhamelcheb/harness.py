"""Convergence studies, rate fitting, and a first-order baseline.

The baseline is backward Euler with the same boundary-lift splitting as
the collocation solver: each step solves the frozen implicit system in the
eigenbasis and recovers the boundary value through the closed-form lift
profile, so the comparison isolates the time discretization.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .collocation import SolverConfig, march
from .heat import ErrorReport, HeatProblem, Table, compute_errors

__all__ = [
    "StudyRow",
    "StudyResult",
    "RateSummary",
    "run_convergence_study",
    "baseline_backward_euler",
    "baseline_sweep",
    "equal_budget_baseline",
    "fit_rates",
]


@dataclass(frozen=True)
class StudyRow:
    N: int
    K: int
    M: int
    max_eps1: float
    max_eps2: float
    wall_time_s: float


@dataclass(frozen=True)
class StudyResult:
    rows: list[StudyRow]
    config: dict

    def table(self, notes: tuple[str, ...] = ()) -> Table:
        return Table(
            "study", self.config, [f.name for f in fields(StudyRow)],
            [list(astuple(r)) for r in self.rows], tuple(notes),
        )


def run_convergence_study(
    problem: HeatProblem,
    Ns,
    Ks,
    mode: str = "direct",
    fp_tol: float = 1e-12,
    fp_max_iter: int = 400,
    probe_x: float = 0.5,
) -> StudyResult:
    """March the problem for every (N, K) pair and collect max errors.

    Wall time per row covers the stage solves only, so rows are comparable
    across N at fixed assembly cost.
    """
    M = problem.basis.M
    rows = []
    for N in Ns:
        for K in Ks:
            config = SolverConfig(
                N=int(N), K=int(K), M=M, T=problem.T, mode=mode,
                fp_tol=fp_tol, fp_max_iter=fp_max_iter,
            )
            trace = march(problem, config)
            report = compute_errors(trace, problem, probe_x=probe_x)
            rows.append(
                StudyRow(
                    N=int(N),
                    K=trace.partition.K,
                    M=M,
                    max_eps1=report.max_eps1,
                    max_eps2=report.max_eps2,
                    wall_time_s=trace.solve_seconds,
                )
            )
    return StudyResult(
        rows=rows,
        config={"problem": problem.name, "T": problem.T, "M": M, "mode": mode, "probe_x": probe_x},
    )


@dataclass(frozen=True)
class RateSummary:
    """Fitted convergence rates from a study.

    spectral_slope: least-squares slope of ln(max_eps1) against N at the
    first row's K (negative for convergence; natural log per unit N).
    algebraic_order: least-squares order p in max_eps1 ~ K^{-p} at the
    first row's N.  Either is None when the study lacks that sweep.
    """

    spectral_slope: float | None
    algebraic_order: float | None

    @property
    def spectral_slope_log10(self) -> float | None:
        if self.spectral_slope is None:
            return None
        return self.spectral_slope / np.log(10.0)


def fit_rates(result: StudyResult) -> RateSummary:
    rows = [r for r in result.rows if r.max_eps1 > 0]
    spectral = None
    algebraic = None
    if rows:
        k0 = rows[0].K
        sweep = [(r.N, r.max_eps1) for r in rows if r.K == k0]
        ns = sorted({n for n, _ in sweep})
        if len(ns) >= 2:
            xs = np.array([n for n, _ in sweep], dtype=float)
            ys = np.log(np.array([e for _, e in sweep]))
            spectral = float(np.polyfit(xs, ys, 1)[0])
        n0 = rows[0].N
        sweep_k = [(r.K, r.max_eps1) for r in rows if r.N == n0]
        ks = sorted({k for k, _ in sweep_k})
        if len(ks) >= 2:
            xs = np.log(np.array([k for k, _ in sweep_k], dtype=float))
            ys = np.log(np.array([e for _, e in sweep_k]))
            algebraic = float(-np.polyfit(xs, ys, 1)[0])
    return RateSummary(spectral_slope=spectral, algebraic_order=algebraic)


def baseline_backward_euler(
    problem: HeatProblem, steps: int, probe_x: float = 0.5
) -> ErrorReport:
    """Backward Euler march with per-step lift splitting.

    Each step freezes the operator at the new time level, solves the
    implicit system modewise, and closes the scalar boundary equation with
    the exact lift trace.  Boundary and probe values are recorded from the
    split representation (interior series plus closed-form lift), so the
    reported errors measure the time discretization rather than series
    truncation.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    if problem.exact is None:
        raise ValueError("baseline error report needs an exact solution")
    family = problem.family
    basis = family.basis
    h = problem.T / steps
    trace1 = basis.boundary_trace
    phi_probe = basis.eigenfunctions(probe_x)
    lift1 = basis.lift_boundary_value
    lift_probe = float(basis.lift_profile(probe_x))
    mu0 = basis.mu
    b_lift = basis.lift_coeffs

    u = problem.u0.copy()
    times = np.empty(steps + 1)
    vals1 = np.empty(steps + 1)
    valsp = np.empty(steps + 1)
    times[0] = 0.0
    vals1[0] = float(u @ trace1)
    valsp[0] = float(u @ phi_probe)

    t0 = time.perf_counter()
    for m in range(steps):
        t_new = (m + 1) * h
        mu_t = family.frozen_eigenvalues(t_new)
        c_t = float(family.c(t_new))
        denom = 1.0 + h * mu_t
        rhs = u
        if problem.forcing is not None:
            rhs = u + h * np.asarray(problem.forcing(t_new), dtype=float)
        p = rhs / denom
        q = (1.0 + h * c_t) * b_lift / denom
        P = float(p @ trace1)
        Q = float(q @ trace1)
        b_t = float(problem.b(t_new))
        g_t = float(problem.g(t_new))
        y = (g_t - b_t * P) / (1.0 + b_t * (lift1 - Q))
        u = p + (b_lift - q) * y
        times[m + 1] = t_new
        vals1[m + 1] = P - Q * y + lift1 * y
        valsp[m + 1] = float(p @ phi_probe) - float(q @ phi_probe) * y + lift_probe * y
    wall = time.perf_counter() - t0

    exact1 = np.asarray(problem.exact.boundary_value(times), dtype=float)
    exactp = np.asarray(problem.exact(probe_x, times), dtype=float)
    return ErrorReport(
        times=times,
        eps1=np.abs(exact1 - vals1),
        eps2=np.abs(exactp - valsp),
        config={
            "method": "backward_euler",
            "steps": steps,
            "M": basis.M,
            "T": problem.T,
            "problem": problem.name,
            "probe_x": probe_x,
            "wall_time_s": wall,
        },
    )


def baseline_sweep(problem: HeatProblem, steps_list) -> Table:
    """Backward-Euler max errors and stepping wall time at each step count."""
    rows = []
    for steps in steps_list:
        report = baseline_backward_euler(problem, steps)
        rows.append([int(steps), report.max_eps1, report.max_eps2, report.config["wall_time_s"]])
    config = {"problem": problem.name, "M": problem.basis.M, "T": problem.T, "method": "backward_euler"}
    return Table("baseline", config, ["steps", "max_eps1", "max_eps2", "wall_time_s"], rows)


def equal_budget_baseline(problem: HeatProblem, budget: float) -> ErrorReport:
    """Backward Euler at the first step count whose wall time reaches ``budget``.

    Step counts double from 16; at 2**16 steps the search stops and that
    report is returned whether or not it reached the budget.
    """
    steps = 16
    report = baseline_backward_euler(problem, steps)
    while report.config["wall_time_s"] < budget and steps < 2**16:
        steps *= 2
        report = baseline_backward_euler(problem, steps)
    return report
