"""Acceptance suite: one test per shipping requirement.

Each test states its requirement in the docstring and enforces the agreed
tolerance directly, so `pytest -v tests/test_acceptance.py` reads as a
pass/fail checklist.  Nothing here is approximate bookkeeping: every
number is recomputed from scratch against an oracle or a closed form.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from duhamelcheb import (
    SolverConfig,
    assemble_block_system,
    assemble_coefficients,
    baseline_backward_euler,
    build_decay_example,
    build_grid,
    build_neumann_example,
    build_reference_example,
    compute_errors,
    constant_family,
    equal_budget_baseline,
    fit_rates,
    heat_basis,
    march,
    moment_integrals,
    residual_of_exact_in_integral_equations,
    run_convergence_study,
)
from duhamelcheb.collocation import block_matrix_inf_norm
from duhamelcheb.kernels import SMALL_ARGUMENT
from duhamelcheb.mesh import TimePartition
from duhamelcheb.operators import (
    apply_exponential,
    lift_derivative_trace,
)


def test_criterion_1_table_magnitudes():
    """Single-slab boundary errors for the reference rod land in the
    agreed windows: n=2 in [1e-3, 1e-1], n=4 at or below 5e-3, n=8 at or
    below 1e-6, each run under ten seconds with at least 100 modes."""
    problem = build_reference_example(M=128)
    windows = {2: (1e-3, 1e-1), 4: (0.0, 5e-3), 8: (0.0, 1e-6)}
    for n, (lo, hi) in windows.items():
        start = time.perf_counter()
        trace = march(problem, SolverConfig(N=n, K=1, M=128))
        report = compute_errors(trace, problem)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert lo <= report.max_eps1 <= hi


def test_criterion_2_exponential_convergence_in_degree():
    """log10 of the boundary error drops by at least 0.6 per unit of
    collocation degree across N in {2, 4, 8, 12} on a single slab,
    with the whole sweep finishing inside sixty seconds."""
    problem = build_reference_example(M=128)
    start = time.perf_counter()
    result = run_convergence_study(problem, Ns=(2, 4, 8, 12), Ks=(1,))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    slope = fit_rates(result).spectral_slope_log10
    assert slope is not None
    assert slope <= -0.6


def test_criterion_3_moment_recurrence_oracle():
    """Twenty randomized moment tables agree with adaptive quadrature to
    1e-10 absolute, and the Taylor branch agrees with the analytic branch
    to 1e-12 relative at the switchover argument."""
    rng = np.random.default_rng(20240816)
    for _ in range(20):
        mu = 10.0 ** rng.uniform(-3.0, 3.0)
        lo = rng.uniform(0.0, 2.0)
        hi = lo + rng.uniform(1e-3, 2.0)
        s_max = int(rng.integers(0, 7))
        table = moment_integrals(mu, lo, hi, s_max)
        for s in range(s_max + 1):
            oracle, _ = quad(
                lambda lam: np.exp(-mu * (hi - lam)) * lam**s,
                lo,
                hi,
                epsabs=1e-13,
                epsrel=1e-13,
                limit=200,
            )
            assert abs(table.value(s) - oracle) <= 1e-10

    delta = 0.5
    nu = SMALL_ARGUMENT / delta
    m = nu * delta
    analytic = -np.expm1(-m) / nu
    taylor = delta * (1.0 - m / 2.0 + m * m / 6.0 - m**3 / 24.0)
    assert abs(analytic - taylor) <= 1e-12 * abs(analytic)


@pytest.mark.parametrize("N", [4, 8, 16])
def test_criterion_4_block_inverse_identity(N):
    """The explicit inverse of the lower-bidiagonal stage matrix multiplies
    back to the block identity to better than 1e-12 in the block infinity
    norm for N in {4, 8, 16}."""
    problem = build_reference_example(M=128)
    grid = build_grid(N)
    partition = TimePartition(problem.T, 1)
    coeffs = assemble_coefficients(
        problem.family, grid, partition, l=1, g=problem.g, b=problem.b
    )
    system = assemble_block_system(coeffs, problem.family, problem.b)
    prod = np.einsum(
        "ikm,kjm->ijm", system.s_tilde_inverse_blocks(), system.s_tilde_blocks()
    )
    eye = np.zeros_like(prod)
    eye[np.arange(N), np.arange(N)] = 1.0
    assert block_matrix_inf_norm(prod - eye) < 1e-12


def test_criterion_5_direct_and_fixed_point_agree():
    """Direct elimination and the fixed-point sweep produce the same
    stage solution to 1e-10 at N=8, K=2; all sweep contraction ratios
    stay below one and the settled ratio shrinks when K doubles."""
    problem = build_reference_example(M=128)
    direct = march(problem, SolverConfig(N=8, K=2, M=128))
    fixed = march(problem, SolverConfig(N=8, K=2, M=128, mode="fixed_point"))
    for sd, sf in zip(direct.stages, fixed.stages):
        assert np.abs(sd.x - sf.x).max() <= 1e-10
        assert np.abs(sd.y - sf.y).max() <= 1e-10

    settled = {}
    for K in (1, 2, 4):
        trace = march(problem, SolverConfig(N=8, K=K, M=128, mode="fixed_point"))
        for stage in trace.stages:
            assert float(stage.fp_ratios.max()) < 1.0
        settled[K] = max(float(s.fp_ratios[-1]) for s in trace.stages)
    assert settled[2] <= settled[1]
    assert settled[4] <= settled[2]


def test_criterion_6_exact_solution_residual_pins_kernel_sign():
    """With 200 modes the closed-form solutions sit inside the documented
    tail bound of the integral-equation residual at t in {0.25, 0.5, 1},
    and the boundary-kernel sign is observable: on the instance with a
    nonvanishing flux exactly one of the two candidate signs passes."""
    times = (0.25, 0.5, 1.0)

    reference = build_reference_example(M=200)
    res = residual_of_exact_in_integral_equations(reference, times)
    assert res.max_field <= res.bound
    assert res.max_boundary <= res.bound

    flux_bearing = build_neumann_example(M=200)
    verdicts = []
    for sign in (1.0, -1.0):
        r = residual_of_exact_in_integral_equations(flux_bearing, times, sign=sign)
        verdicts.append(r.max_field <= r.bound and r.max_boundary <= r.bound)
    assert verdicts == [True, False]


def test_criterion_7_semigroup_and_lift_identities():
    """Semigroup law to 1e-14 (measured against the input's sup norm,
    since the propagators are contractions), exact lift trace identity,
    and lift coefficients matching quadrature projections to 1e-10 for
    the first twenty modes."""
    basis = heat_basis(64)
    family = constant_family(basis)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(64)
    for s, t in ((0.3, 0.45), (0.05, 0.9), (0.2, 0.2)):
        both = apply_exponential(family, 0.5, apply_exponential(family, 0.5, v, t), s)
        one = apply_exponential(family, 0.5, v, s + t)
        assert np.abs(one - both).max() <= 1e-14 * np.abs(v).max()

    for y in (-2.0, -0.3, 0.0, 0.7, 3.0):
        assert lift_derivative_trace(basis, y) == y

    omega = np.sqrt(basis.mu)
    for n in range(20):
        oracle, _ = quad(
            lambda x: 2.0 * x * np.sin(omega[n] * x), 0.0, 1.0,
            epsabs=1e-14, epsrel=1e-13, limit=200,
        )
        assert abs(basis.lift_coeffs[n] - oracle) <= 1e-10


def test_criterion_8_collocation_beats_backward_euler():
    """Backward Euler converges with fitted order in [0.8, 1.2]; granted
    a solve-time budget at least as large as the N=8 collocation solve,
    its error is still at least 100 times larger."""
    problem = build_reference_example(M=128)
    errs = {}
    for steps in (50, 100, 200, 400):
        errs[steps] = baseline_backward_euler(problem, steps).max_eps1
    hs = np.log([problem.T / s for s in errs])
    order = float(np.polyfit(hs, np.log(list(errs.values())), 1)[0])
    assert 0.8 <= order <= 1.2

    trace = march(problem, SolverConfig(N=8, K=1, M=128))
    colloc_err = compute_errors(trace, problem).max_eps1
    budget = trace.solve_seconds

    report = equal_budget_baseline(problem, budget)
    steps = report.config["steps"]
    assert report.config["wall_time_s"] >= budget or steps >= 2**16
    assert report.max_eps1 >= 100.0 * colloc_err


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_criterion_9_pure_decay(K):
    """With no boundary data and the first eigenmode as initial state the
    marched modes equal exp(-mu_1 t) u0 at every node to 1e-12 for any
    degree, here swept over N in {1, 2, 3, 5, 8, 12}."""
    problem = build_decay_example(M=64)
    mu1 = float(problem.basis.mu[0])
    for N in (1, 2, 3, 5, 8, 12):
        trace = march(problem, SolverConfig(N=N, K=K, M=64))
        times = trace.node_times()
        expect = problem.u0[None, :] * np.exp(-mu1 * times)[:, None]
        assert np.abs(trace.node_modes() - expect).max() <= 1e-12
