"""Convergence studies, rate fitting, and a first-order baseline.

The baseline is backward Euler with the same boundary-lift splitting as
the collocation solver: each step solves the frozen implicit system in the
eigenbasis and recovers the boundary value through the closed-form lift
profile, so the comparison isolates the time discretization.  It samples
its data once per sweep and, for a constant family, builds the frozen step
operator once; its wall time counts that sampling.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .collocation import SolverConfig, march
from .heat import ErrorReport, HeatProblem, Table, compute_errors
from .kernels import check_probe, sample_data, sample_forcing
from .mesh import check_count

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
        """The rows as a table, whose config adds the fitted rates of :func:`fit_rates`."""
        rates = fit_rates(self)
        config = {
            **self.config,
            "spectral_slope_log10": rates.spectral_slope_log10,
            "algebraic_order": rates.algebraic_order,
        }
        return Table(
            "study", config, [f.name for f in fields(StudyRow)],
            [list(astuple(r)) for r in self.rows], tuple(notes),
        )


def _counts(name: str, values) -> list[int]:
    """``values`` as Python ints; ``ValueError`` if empty or if one is not an integer >= 1."""
    values = list(values)
    if not values:
        raise ValueError(f"need at least one value of {name}, got an empty list")
    for value in values:
        check_count(name, value)
    return [int(value) for value in values]


def run_convergence_study(
    problem: HeatProblem,
    Ns,
    Ks,
    mode: str = SolverConfig.mode,
    fp_tol: float = SolverConfig.fp_tol,
    fp_max_iter: int = SolverConfig.fp_max_iter,
    probe_x: float = 0.5,
) -> StudyResult:
    """March the problem for every (N, K) pair and collect max errors.

    Wall time per row covers the stage solves only, so rows are comparable
    across N at fixed assembly cost.  ``Ns`` and ``Ks`` must be non-empty
    lists of integers >= 1 (see :func:`~duhamelcheb.mesh.check_count`) and
    ``probe_x`` a point of [0, 1], or ``ValueError`` is raised before
    anything is marched.
    """
    Ns, Ks = _counts("N", Ns), _counts("K", Ks)
    check_probe(probe_x)
    M = problem.basis.M
    rows = []
    for N in Ns:
        for K in Ks:
            config = SolverConfig(
                N=N, K=K, M=M, T=problem.T, mode=mode,
                fp_tol=fp_tol, fp_max_iter=fp_max_iter,
            )
            trace = march(problem, config)
            report = compute_errors(trace, problem, probe_x=probe_x)
            rows.append(
                StudyRow(
                    N=N,
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


def _sweep_slope(rows: list[StudyRow], x: str, fixed: str, log_x: bool) -> float | None:
    """Least-squares slope of ln(max_eps1) against ``x`` (or ln x) over the
    rows that share the first row's ``fixed``; None with fewer than two
    distinct values of ``x``."""
    sweep = [r for r in rows if getattr(r, fixed) == getattr(rows[0], fixed)]
    xs = np.array([getattr(r, x) for r in sweep], dtype=float)
    if len(set(xs)) < 2:
        return None
    ys = np.log(np.array([r.max_eps1 for r in sweep]))
    return float(np.polyfit(np.log(xs) if log_x else xs, ys, 1)[0])


def fit_rates(result: StudyResult) -> RateSummary:
    rows = [r for r in result.rows if r.max_eps1 > 0]
    if not rows:
        return RateSummary(spectral_slope=None, algebraic_order=None)
    slope = _sweep_slope(rows, "K", "N", log_x=True)
    return RateSummary(
        spectral_slope=_sweep_slope(rows, "N", "K", log_x=False),
        algebraic_order=None if slope is None else -slope,
    )


def baseline_backward_euler(
    problem: HeatProblem, steps: int, probe_x: float = 0.5
) -> ErrorReport:
    """Backward Euler march with per-step lift splitting.

    Each step freezes the operator at the new time level, solves the
    implicit system modewise, and closes the scalar boundary equation with
    the exact lift trace.  Boundary and probe values are recorded from the
    split representation (interior series plus closed-form lift), so the
    reported errors measure the time discretization rather than series
    truncation; the report keeps them as ``boundary_values`` and
    ``probe_values``.

    The data are sampled once per sweep: a(t) and c(t) at all step times in
    one array call each, and b and g through
    :func:`~duhamelcheb.kernels.sample_data` (one array call for an
    ``ExpDecay``).  A constant family builds the frozen step operator once;
    the forcing is called once per step.  ``wall_time_s`` covers the
    sampling and the stepping.  ``steps`` must be an integer >= 1 and
    ``probe_x`` a point of [0, 1], or ``ValueError`` is raised; a problem
    without an exact solution raises it once the steps are taken
    (:meth:`ErrorReport.measured`).
    """
    check_count("steps", steps)
    check_probe(probe_x)
    family = problem.family
    basis = family.basis
    h = problem.T / steps
    trace1 = basis.boundary_trace
    phi_probe = basis.eigenfunctions(probe_x)
    lift1 = basis.lift_boundary_value
    lift_probe = float(basis.lift_profile(probe_x))
    b_lift = basis.lift_coeffs

    u = problem.u0.copy()
    times = np.empty(steps + 1)
    vals1 = np.empty(steps + 1)
    valsp = np.empty(steps + 1)
    times[0] = 0.0
    vals1[0] = float(u @ trace1)
    valsp[0] = float(u @ phi_probe)

    t0 = time.perf_counter()
    times[1:] = np.arange(1, steps + 1) * h
    step_data = zip(
        times[1:].tolist(),
        family.a(times[1:]).tolist(),
        family.c(times[1:]).tolist(),
        sample_data(problem.b, times[1:]).tolist(),
        sample_data(problem.g, times[1:]).tolist(),
    )
    rebuild = not family.is_constant
    for m, (t_new, a_t, c_t, b_t, g_t) in enumerate(step_data):
        if m == 0 or rebuild:
            denom = 1.0 + h * (a_t * basis.mu + c_t)
            q = (1.0 + h * c_t) * b_lift / denom
            Q = float(q @ trace1)
            Q_probe = float(q @ phi_probe)
            lift_rest = b_lift - q
        rhs = u
        if problem.forcing is not None:
            rhs = u + h * sample_forcing(problem.forcing, np.array(t_new), basis.M)
        p = rhs / denom
        P = float(p @ trace1)
        y = (g_t - b_t * P) / (1.0 + b_t * (lift1 - Q))
        u = p + lift_rest * y
        vals1[m + 1] = P - Q * y + lift1 * y
        valsp[m + 1] = float(p @ phi_probe) - Q_probe * y + lift_probe * y
    wall = time.perf_counter() - t0

    config = {
        "method": "backward_euler",
        "steps": int(steps),
        "M": basis.M,
        "T": problem.T,
        "problem": problem.name,
        "probe_x": probe_x,
        "wall_time_s": wall,
    }
    return ErrorReport.measured(problem, times, vals1, valsp, probe_x, config)


def baseline_sweep(problem: HeatProblem, steps_list) -> Table:
    """Backward-Euler max errors and stepping wall time at each step count.

    ``steps_list`` must be a non-empty list of integers >= 1, or
    ``ValueError`` is raised before any sweep runs.
    """
    rows = []
    for steps in _counts("steps", steps_list):
        report = baseline_backward_euler(problem, steps)
        rows.append([steps, report.max_eps1, report.max_eps2, report.config["wall_time_s"]])
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
