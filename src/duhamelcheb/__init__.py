"""Chebyshev slab collocation for evolution equations with time-dependent
Robin boundary conditions.

The solver rewrites du/dt + A(t)u = f with boundary condition
d1(u) + b(t) d0(u) = g as a Volterra system via the variation-of-constants
formula and a stationary boundary lift, then collocates each time slab at
Chebyshev-Gauss-Lobatto nodes.  Coefficient integrals are evaluated to
roundoff by Gauss rules, so the error decays exponentially in the number of
nodes per slab.
"""

from .mesh import CGLGrid, TimePartition, build_grid, interpolate, lagrange_eval, lebesgue_constant
from .operators import EigenBasis, OperatorFamily, heat_basis, constant_family, verify_assumptions
from .kernels import KernelSeries, MomentTable, moment_integrals, kernel_K, kernel_K1, homogeneous_v
from .collocation import (
    SolverConfig,
    BlockSystem,
    StageSolution,
    SolutionTrace,
    SlabContractionError,
    FixedPointDivergenceError,
    NonFiniteStageError,
    assemble_coefficients,
    assemble_block_system,
    solve_stage_direct,
    solve_stage_fixed_point,
    march,
)
from .heat import (
    HeatProblem,
    SeparableSolution,
    Table,
    ExpDecay,
    ErrorReport,
    IntegralResidual,
    build_reference_example,
    build_neumann_example,
    build_zero_example,
    build_decay_example,
    compute_errors,
    residual_of_exact_in_integral_equations,
    residual_tail_bound,
)
from .harness import (
    StudyResult,
    RateSummary,
    run_convergence_study,
    baseline_backward_euler,
    baseline_sweep,
    equal_budget_baseline,
    fit_rates,
)

__all__ = [
    "CGLGrid",
    "TimePartition",
    "build_grid",
    "interpolate",
    "lagrange_eval",
    "lebesgue_constant",
    "EigenBasis",
    "OperatorFamily",
    "heat_basis",
    "constant_family",
    "verify_assumptions",
    "KernelSeries",
    "MomentTable",
    "moment_integrals",
    "kernel_K",
    "kernel_K1",
    "homogeneous_v",
    "SolverConfig",
    "BlockSystem",
    "StageSolution",
    "SolutionTrace",
    "SlabContractionError",
    "FixedPointDivergenceError",
    "NonFiniteStageError",
    "assemble_coefficients",
    "assemble_block_system",
    "solve_stage_direct",
    "solve_stage_fixed_point",
    "march",
    "HeatProblem",
    "SeparableSolution",
    "Table",
    "ExpDecay",
    "ErrorReport",
    "IntegralResidual",
    "build_reference_example",
    "build_neumann_example",
    "build_zero_example",
    "build_decay_example",
    "compute_errors",
    "residual_of_exact_in_integral_equations",
    "residual_tail_bound",
    "StudyResult",
    "RateSummary",
    "run_convergence_study",
    "baseline_backward_euler",
    "baseline_sweep",
    "equal_budget_baseline",
    "fit_rates",
]
