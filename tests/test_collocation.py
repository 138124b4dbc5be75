"""Coefficient assembly, the block system, and both stage solvers.

The beta oracle integrates the assembled integrand directly with adaptive
quadrature, mode by mode, so any sign or scaling slip in the assembly's
Gauss rules shows up immediately.
"""

import dataclasses
import functools
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from duhamelcheb import (
    ExpDecay,
    FixedPointDivergenceError,
    HeatProblem,
    NonFiniteStageError,
    SeparableSolution,
    SlabContractionError,
    SolverConfig,
    assemble_block_system,
    assemble_coefficients,
    build_decay_example,
    build_grid,
    build_neumann_example,
    build_reference_example,
    build_zero_example,
    compute_errors,
    constant_family,
    heat_basis,
    lagrange_eval,
    march,
    solve_stage_direct,
    solve_stage_fixed_point,
)
from duhamelcheb import collocation
from duhamelcheb.collocation import CoefficientAssembler, block_matrix_inf_norm
from duhamelcheb.kernels import sample_data
from duhamelcheb.mesh import TimePartition, interpolate
from duhamelcheb.operators import OperatorFamily


def beta_quadrature_oracle(family, grid, partition, l, k, j, n):
    """-(tau/2) a(t_k) mu_n b_n int_{s_{k-1}}^{s_k} e^{-nu_n (s_k - eta)} L_j(eta) deta."""
    tau = partition.tau
    tk = partition.map_to_slab(l, grid.nodes[k])
    nu = 0.5 * tau * family.frozen_eigenvalues(tk)[n]
    sk, skm1 = grid.nodes[k], grid.nodes[k - 1]
    val, _ = quad(
        lambda eta: np.exp(-nu * (sk - eta)) * lagrange_eval(grid, j, eta),
        skm1,
        sk,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    mu0_n = family.basis.mu[n]
    b_n = family.basis.lift_coeffs[n]
    return -0.5 * tau * family.a(tk) * mu0_n * b_n * val


def alpha_quadrature_oracle(family, grid, partition, l, k, j, n):
    """(tau/2) int (mu0_n da + dc) e^{-nu_n (s_k - eta)} L_j(eta) deta."""
    tau = partition.tau
    tk = partition.map_to_slab(l, grid.nodes[k])
    nu = 0.5 * tau * family.frozen_eigenvalues(tk)[n]
    sk, skm1 = grid.nodes[k], grid.nodes[k - 1]
    mu0_n = family.basis.mu[n]

    def integrand(eta):
        t_eta = partition.map_to_slab(l, eta)
        da = family.a(tk) - family.a(t_eta)
        dc = family.c(tk) - family.c(t_eta)
        return (
            (mu0_n * da + dc)
            * np.exp(-nu * (sk - eta))
            * lagrange_eval(grid, j, eta)
        )

    val, _ = quad(integrand, skm1, sk, epsabs=1e-13, epsrel=1e-13, limit=200)
    return 0.5 * tau * val


@pytest.fixture(scope="module")
def small_setup():
    basis = heat_basis(30)
    family = constant_family(basis)
    grid = build_grid(4)
    partition = TimePartition(1.0, 2)
    return family, grid, partition


def test_alpha_vanishes_for_constant_family(small_setup):
    family, grid, partition = small_setup
    coeffs = assemble_coefficients(family, grid, partition, l=1)
    assert np.array_equal(coeffs.alpha, np.zeros_like(coeffs.alpha))


def test_beta_against_quadrature(small_setup):
    family, grid, partition = small_setup
    coeffs = assemble_coefficients(family, grid, partition, l=2)
    for k in (1, 3, 4):
        for j in (0, 2, 4):
            for n in (0, 1, 7, 29):
                oracle = beta_quadrature_oracle(family, grid, partition, 2, k, j, n)
                assert abs(coeffs.beta_weighted[k - 1, j, n] - oracle) <= 1e-9


@pytest.mark.parametrize("N", [32, 40, 48])
def test_beta_against_quadrature_at_high_degree(small_setup, N):
    """The same oracle at degrees where a monomial route to the kernel
    integrals loses digits."""
    family, _, partition = small_setup
    grid = build_grid(N)
    coeffs = assemble_coefficients(family, grid, partition, l=2)
    for k in (1, N // 2, N):
        for j in (0, N // 2, N):
            for n in (0, 1, 7, 29):
                oracle = beta_quadrature_oracle(family, grid, partition, 2, k, j, n)
                assert abs(coeffs.beta_weighted[k - 1, j, n] - oracle) <= 1e-9


def test_beta_weighted_reduces_to_beta_for_unit_multiplier(small_setup):
    family, grid, partition = small_setup
    bare = assemble_coefficients(family, grid, partition, l=1)
    unit = assemble_coefficients(family, grid, partition, l=1, b=lambda t: 1.0)
    scale = np.abs(bare.beta_weighted).max()
    assert np.abs(unit.beta_weighted - bare.beta_weighted).max() <= 1e-12 * scale


def test_beta_weighted_against_quadrature(small_setup):
    """The multiplier rides inside the integrand."""
    family, grid, partition = small_setup
    b = lambda t: np.exp(-0.8 * t)
    coeffs = assemble_coefficients(family, grid, partition, l=1, b=b)
    tau = partition.tau
    for k, j, n in ((1, 1, 0), (2, 0, 3), (4, 4, 12)):
        tk = partition.map_to_slab(1, grid.nodes[k])
        nu = 0.5 * tau * family.frozen_eigenvalues(tk)[n]
        sk, skm1 = grid.nodes[k], grid.nodes[k - 1]
        val, _ = quad(
            lambda eta: np.exp(-nu * (sk - eta))
            * b(partition.map_to_slab(1, eta))
            * lagrange_eval(grid, j, eta),
            skm1,
            sk,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=200,
        )
        expect = -0.5 * tau * family.a(tk) * family.basis.mu[n] * family.basis.lift_coeffs[n] * val
        assert abs(coeffs.beta_weighted[k - 1, j, n] - expect) <= 1e-9


def test_alpha_against_quadrature_varying_family():
    basis = heat_basis(20)
    family = OperatorFamily(
        basis=basis, a_coeffs=np.array([1.0, 0.5]), c_coeffs=np.array([0.3, 0.0, 0.2])
    )
    grid = build_grid(3)
    partition = TimePartition(1.0, 2)
    coeffs = assemble_coefficients(family, grid, partition, l=2)
    for k in (1, 3):
        for j in (0, 3):
            for n in (0, 5, 19):
                oracle = alpha_quadrature_oracle(family, grid, partition, 2, k, j, n)
                assert abs(coeffs.alpha[k - 1, j, n] - oracle) <= 1e-9


def test_phi_constant_boundary_data_closed_form(small_setup):
    """g == 1, f == 0: mode n of phi_k is b_n (1 - e^{-mu_n (tau/2) theta_k})."""
    family, grid, partition = small_setup
    coeffs = assemble_coefficients(family, grid, partition, l=1, g=lambda t: 1.0)
    tau = partition.tau
    mu = family.basis.mu
    b = family.basis.lift_coeffs
    for k in range(1, grid.N + 1):
        theta = grid.spacings[k - 1]
        expect = b * (1.0 - np.exp(-mu * 0.5 * tau * theta))
        assert np.abs(coeffs.phi[k - 1] - expect).max() <= 1e-13


def test_phi_polynomial_forcing_exact(small_setup):
    """Forcing quadratic in t integrates exactly through the local fits."""
    family, grid, partition = small_setup
    M = family.basis.M
    direction = np.zeros(M)
    direction[2] = 1.0
    f = lambda t: (1.0 + 2.0 * t - 3.0 * t**2) * direction
    coeffs = assemble_coefficients(family, grid, partition, l=2, f=f)
    tau = partition.tau
    for k in (1, 4):
        tk = partition.map_to_slab(2, grid.nodes[k])
        nu = 0.5 * tau * family.frozen_eigenvalues(tk)[2]
        sk, skm1 = grid.nodes[k], grid.nodes[k - 1]
        oracle, _ = quad(
            lambda eta: np.exp(-nu * (sk - eta))
            * (1.0 + 2.0 * partition.map_to_slab(2, eta) - 3.0 * partition.map_to_slab(2, eta) ** 2),
            skm1,
            sk,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        assert coeffs.phi[k - 1, 2] == pytest.approx(0.5 * tau * oracle, abs=1e-13)
        others = np.delete(coeffs.phi[k - 1], 2)
        assert np.abs(others).max() == 0.0


def test_data_degree_floor_validated(small_setup):
    """The alpha integrands have degree N + deg(a, c); a lower data degree is rejected."""
    family, grid, partition = small_setup
    varying = OperatorFamily(basis=family.basis, c_coeffs=np.array([0.3, 0.0, 0.2]))
    for fam, floor in ((family, 4), (varying, 6)):
        with pytest.raises(ValueError, match=f"data degree {floor - 1} .* {floor}"):
            CoefficientAssembler(fam, grid, partition, data_degree=floor - 1)
        assert CoefficientAssembler(fam, grid, partition, data_degree=floor).data_degree == floor


@pytest.mark.parametrize("data_degree", [12.7, 14.0, np.float64(14.0), "13", True], ids=repr)
def test_data_degree_must_be_an_integer(small_setup, data_degree):
    family, grid, partition = small_setup
    with pytest.raises(ValueError, match=f"^data degree must be an integer >= 1, got {re.escape(repr(data_degree))}$"):
        CoefficientAssembler(family, grid, partition, data_degree=data_degree)
    assert CoefficientAssembler(family, grid, partition, data_degree=np.int64(14)).data_degree == 14


def test_negative_frozen_eigenvalues_rejected(small_setup):
    family, grid, partition = small_setup
    growing = constant_family(family.basis, c=-10.0)
    with pytest.raises(ValueError, match="not positive"):
        assemble_coefficients(growing, grid, partition, l=1)


def varying_manufactured_problem(M=128):
    """Manufactured solution e^{-kappa t} sin(pi x / 2) under a = 1 + 0.5 t,
    c = 0.3 t, kappa = 2.5: mode 1 carries the forcing, g = b u(1, .)."""
    kappa, rate_b = 2.5, np.pi**2 / 2.0
    basis = heat_basis(M)
    family = OperatorFamily(basis=basis, a_coeffs=np.array([1.0, 0.5]), c_coeffs=np.array([0.0, 0.3]))
    u0 = np.zeros(M)
    u0[0] = 1.0

    def forcing(t):
        out = np.zeros(M)
        out[0] = (family.frozen_eigenvalues(t)[0] - kappa) * np.exp(-kappa * t)
        return out

    return HeatProblem(
        family=family,
        b=ExpDecay(1.0, rate_b),
        g=ExpDecay(1.0, rate_b + kappa),
        u0=u0,
        T=1.0,
        forcing=forcing,
        exact=SeparableSolution(
            rate=kappa,
            profile=lambda x: np.sin(0.5 * np.pi * np.asarray(x, dtype=float)),
            dprofile_at_1=0.0,
        ),
        name="varying-manufactured",
    )


@pytest.mark.parametrize("N", [16, 24, 32])
def test_varying_family_marches_to_roundoff(N):
    """The frozen-operator defect must be integrated as accurately as the
    data at every degree."""
    prob = varying_manufactured_problem()
    trace = march(prob, SolverConfig(N=N, K=8, M=128), auto_refine=False)
    assert compute_errors(trace, prob).max_eps1 <= 1e-13


@pytest.mark.parametrize("N", [32, 40, 48, 64])
def test_reference_problem_reaches_roundoff_at_high_degree(reference_problem, N):
    """One slab, no refinement: the kernel integrals must stay accurate at
    every degree, not only where a monomial route still holds."""
    trace = march(reference_problem, SolverConfig(N=N, K=1, M=128), auto_refine=False)
    assert compute_errors(trace, reference_problem).max_eps1 <= 1e-13


@pytest.mark.parametrize("N", [4, 8, 16])
def test_s_tilde_explicit_inverse(N):
    basis = heat_basis(40)
    family = constant_family(basis)
    grid = build_grid(N)
    partition = TimePartition(1.0, 1)
    coeffs = assemble_coefficients(family, grid, partition, l=1)
    system = assemble_block_system(coeffs, family, lambda t: 1.0)
    S = system.s_tilde_blocks()
    Sinv = system.s_tilde_inverse_blocks()
    prod = np.einsum("ikm,kjm->ijm", Sinv, S)
    eye = np.zeros_like(prod)
    eye[np.arange(N), np.arange(N)] = 1.0
    assert block_matrix_inf_norm(prod - eye) < 1e-12


def test_s_tilde_inverse_varying_family():
    basis = heat_basis(24)
    family = OperatorFamily(basis=basis, a_coeffs=np.array([1.0, 0.5]), c_coeffs=np.zeros(1))
    grid = build_grid(8)
    partition = TimePartition(1.0, 2)
    coeffs = assemble_coefficients(family, grid, partition, l=2)
    system = assemble_block_system(coeffs, family, lambda t: 1.0)
    prod = np.einsum(
        "ikm,kjm->ijm", system.s_tilde_inverse_blocks(), system.s_tilde_blocks()
    )
    eye = np.zeros_like(prod)
    eye[np.arange(8), np.arange(8)] = 1.0
    assert block_matrix_inf_norm(prod - eye) < 1e-12


def test_s_tilde_inverse_norm_growth():
    """Row-sum norm of the explicit inverse grows at most linearly in N."""
    basis = heat_basis(40)
    family = constant_family(basis)
    partition = TimePartition(1.0, 1)
    norms = {}
    for N in (8, 16):
        grid = build_grid(N)
        coeffs = assemble_coefficients(family, grid, partition, l=1)
        system = assemble_block_system(coeffs, family, lambda t: 1.0)
        norms[N] = block_matrix_inf_norm(system.s_tilde_inverse_blocks())
    assert norms[16] / norms[8] <= 2.5


def test_single_node_system_is_identity_block():
    basis = heat_basis(10)
    family = constant_family(basis)
    grid = build_grid(1)
    partition = TimePartition(0.5, 1)
    coeffs = assemble_coefficients(family, grid, partition, l=1)
    system = assemble_block_system(coeffs, family, lambda t: 0.0)
    S = system.s_tilde_blocks()
    assert S.shape == (1, 1, 10)
    assert np.array_equal(S[0, 0], np.ones(10))


def test_zero_data_zero_stage_direct():
    prob = build_zero_example(M=16)
    trace = march(prob, SolverConfig(N=4, K=2, M=16, T=prob.T))
    for stage in trace.stages:
        assert np.array_equal(stage.x, np.zeros_like(stage.x))
        assert np.array_equal(stage.y, np.zeros_like(stage.y))
        assert np.array_equal(stage.boundary_traces, np.zeros_like(stage.boundary_traces))


def test_zero_data_fixed_point_single_sweep():
    prob = build_zero_example(M=16)
    trace = march(prob, SolverConfig(N=4, K=1, M=16, T=prob.T, mode="fixed_point"))
    assert trace.stages[0].fp_iterations == 1
    assert np.array_equal(trace.stages[0].x, np.zeros((5, 16)))


def test_direct_residual_bound(reference_problem):
    cfg = SolverConfig(N=8, K=2, M=128)
    trace = march(reference_problem, cfg)
    data_norm = 1.0  # sup |g| on [0, 1]
    for stage in trace.stages:
        assert stage.residual < 1e-11 * (1.0 + data_norm)


def test_direct_and_fixed_point_agree(reference_problem):
    cfg_d = SolverConfig(N=8, K=2, M=128)
    cfg_f = SolverConfig(N=8, K=2, M=128, mode="fixed_point")
    td = march(reference_problem, cfg_d)
    tf = march(reference_problem, cfg_f)
    for sd, sf in zip(td.stages, tf.stages):
        assert np.abs(sd.x - sf.x).max() <= 1e-10
        assert np.abs(sd.y - sf.y).max() <= 1e-10


def test_fixed_point_ratios_shrink_with_slab_count(reference_problem):
    """The settled per-sweep ratio estimates the contraction factor, which
    shrinks as slabs get shorter.  Early sweeps can be transient, so only
    the last ratio of each stage is compared."""
    worst = {}
    for K in (1, 2, 4):
        trace = march(
            reference_problem, SolverConfig(N=8, K=K, M=128, mode="fixed_point")
        )
        assert all(float(s.fp_ratios.max()) < 1.0 for s in trace.stages)
        worst[K] = max(float(s.fp_ratios[-1]) for s in trace.stages)
    assert worst[2] <= worst[1]
    assert worst[4] <= worst[2]


def test_march_continuity_is_copied(reference_problem):
    trace = march(reference_problem, SolverConfig(N=4, K=3, M=128))
    for prev, nxt in zip(trace.stages, trace.stages[1:]):
        assert np.array_equal(prev.x[-1], nxt.x[0])
        assert prev.boundary_traces[-1] == nxt.boundary_traces[0]
        assert prev.y[-1] == nxt.y[0]


def test_pure_decay_matches_closed_form():
    prob = build_decay_example(M=12)
    mu = prob.basis.mu
    for N in (1, 2, 5):
        for K in (1, 4):
            trace = march(prob, SolverConfig(N=N, K=K, M=12, T=prob.T))
            times = trace.node_times()
            expect = prob.u0[None, :] * np.exp(-np.outer(times, mu))
            assert np.abs(trace.node_modes() - expect).max() <= 1e-12
            assert np.abs(trace.node_boundary_values()).max() == 0.0


def test_pipeline_linearity(reference_problem):
    """Scaling g and u0 jointly by kappa scales the whole solution by kappa."""
    kappa = 3.7
    base = reference_problem
    scaled = HeatProblem(
        family=base.family,
        b=base.b,
        g=lambda t: kappa * base.g(t),
        u0=kappa * base.u0,
        T=base.T,
        name="scaled",
    )
    cfg = SolverConfig(N=6, K=1, M=128)
    t1 = march(base, cfg)
    t2 = march(scaled, cfg)
    m1, m2 = t1.node_modes(), t2.node_modes()
    assert np.abs(m2 - kappa * m1).max() <= 1e-13 * np.abs(m2).max()
    y1, y2 = t1.node_boundary_values(), t2.node_boundary_values()
    assert np.abs(y2 - kappa * y1).max() <= 1e-13 * max(np.abs(y2).max(), 1e-30)


def test_exact_on_polynomially_resolved_data():
    """Mode coefficients polynomial in t of degree <= N are reproduced
    to roundoff: interpolation of the trace is exact, the data fits are
    exact, and the two boundary contributions cancel node for node."""
    M, N = 10, 5
    basis = heat_basis(M)
    family = constant_family(basis)
    pcoeffs = np.zeros((M, 4))
    pcoeffs[0] = [1.0, -0.5, 0.25, 0.1]
    pcoeffs[1] = [0.3, 0.2, 0.0, -0.05]
    pcoeffs[4] = [0.0, 1.0, -1.0, 0.2]

    def modes_at(t):
        return np.array([np.polyval(c[::-1], t) for c in pcoeffs])

    def modes_dt(t):
        dcoeffs = pcoeffs[:, 1:] * np.arange(1, 4)
        return np.array([np.polyval(c[::-1], t) for c in dcoeffs])

    trace_vec = basis.boundary_trace

    prob = HeatProblem(
        family=family,
        b=lambda t: 1.0,
        g=lambda t: float(modes_at(t) @ trace_vec),
        u0=modes_at(0.0),
        T=1.0,
        forcing=lambda t: modes_dt(t) + basis.mu * modes_at(t),
        name="resolved",
    )
    trace = march(prob, SolverConfig(N=N, K=1, M=M), auto_refine=False)
    times = trace.node_times()
    expect = np.stack([modes_at(t) for t in times])
    assert np.abs(trace.node_modes() - expect).max() <= 1e-10
    expect_w = expect @ trace_vec
    assert np.abs(trace.node_boundary_traces() - expect_w).max() <= 1e-10


def test_zero_order_term_via_exponential_shift():
    """If u solves the plain problem then exp(-ct) u solves the family
    shifted by the constant zero-order coefficient c, with g scaled by
    exp(-ct).  The marched solution must track that closed form through
    spectral accuracy, which exercises the zero-order part of the frozen
    exponent and of the boundary kernel end to end."""
    M, c = 128, 2.0
    basis = heat_basis(M)
    family = constant_family(basis, a=1.0, c=c)
    u0 = np.zeros(M)
    u0[0] = 1.0
    exact = SeparableSolution(
        rate=np.pi**2 / 4.0 + c,
        profile=lambda x: np.sin(0.5 * np.pi * np.asarray(x, dtype=float)),
        dprofile_at_1=0.0,
    )
    prob = HeatProblem(
        family=family,
        b=ExpDecay(1.0, np.pi**2 / 2.0),
        g=ExpDecay(1.0, 3.0 * np.pi**2 / 4.0 + c),
        u0=u0,
        T=1.0,
        exact=exact,
        name="shifted",
    )
    assert prob.compatibility_defect() <= 1e-12
    errs = []
    for N in (4, 8, 12):
        report = compute_errors(march(prob, SolverConfig(N=N, K=1, M=M)), prob)
        errs.append(report.max_eps1)
    assert errs[1] < errs[0] / 50.0
    assert errs[2] < errs[1] / 50.0
    assert errs[2] <= 1e-10


def test_contraction_error_raised_for_strong_coupling():
    basis = heat_basis(64)
    family = constant_family(basis)
    prob = HeatProblem(
        family=family,
        b=lambda t: 40.0,
        g=lambda t: 1.0,
        u0=np.zeros(64),
        T=1.0,
        name="stiff-robin",
    )
    with pytest.raises(SlabContractionError) as exc:
        march(prob, SolverConfig(N=8, K=1, M=64), auto_refine=False)
    assert exc.value.norm >= 1.0
    assert "slab" in str(exc.value)


def test_auto_refine_splits_slabs():
    basis = heat_basis(64)
    family = constant_family(basis)
    prob = HeatProblem(
        family=family,
        b=lambda t: 2.0,
        g=lambda t: np.exp(-t),
        u0=np.zeros(64),
        T=1.0,
        name="medium-robin",
    )
    trace = march(prob, SolverConfig(N=8, K=1, M=64))
    assert trace.refinements >= 1
    assert trace.partition.K > 1
    assert trace.contraction_max < 1.0


def test_fixed_point_iteration_cap_raises(reference_problem):
    cfg = SolverConfig(N=8, K=1, M=128, mode="fixed_point", fp_tol=1e-30, fp_max_iter=3)
    with pytest.raises(FixedPointDivergenceError) as exc:
        march(reference_problem, cfg)
    assert exc.value.iterations == 3
    assert exc.value.slab == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(N=0)
    with pytest.raises(ValueError):
        SolverConfig(mode="secant")
    with pytest.raises(ValueError):
        SolverConfig(fp_tol=0.0)
    for bad_tol in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(fp_tol=bad_tol)
    for field in ("N", "K", "M", "fp_max_iter"):
        for bad in (2.5, 2.0, "4", True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SolverConfig(**{field: bad})
        assert getattr(SolverConfig(**{field: np.int64(3)}), field) == 3


def test_march_validates_problem_shape(reference_problem):
    with pytest.raises(ValueError):
        march(reference_problem, SolverConfig(N=4, K=1, M=64))  # M mismatch
    bad_T = SolverConfig(N=4, K=1, M=128, T=2.0)
    with pytest.raises(ValueError):
        march(reference_problem, bad_T)


def dense_stage_solve(system, x0, w0):
    """Solve the coupled (N M + N) stage system of one slab densely.

    Unknowns are x~ (block k, mode m at k M + m) and the traces w_1..w_N:
        x~ = (I - A) x~ + D w + Phi,
        w  = Lambda ((I - A) x~ + D w + Phi),
    with I - A = C~ plus the subdiagonal blocks, all read straight from the
    assembled blocks rather than through the solver's helpers.
    """
    N, M = system.N, system.M
    n = N * M
    ImA = np.zeros((n, n))
    Dmat = np.zeros((n, N))
    Lam = np.zeros((N, n))
    for k in range(N):
        for m in range(M):
            row = k * M + m
            for j in range(N):
                ImA[row, j * M + m] += system.Cmat[k, j, m]
                Dmat[row, j] = system.D[k, j, m]
            if k > 0:
                ImA[row, (k - 1) * M + m] += system.subdiag[k, m]
            Lam[k, row] = system.lam_weights[k, m]
    Phi = (system.F_x * x0[None, :] + system.F_y * w0 + system.f_x).ravel()
    big = np.zeros((n + N, n + N))
    big[:n, :n] = np.eye(n) - ImA
    big[:n, n:] = -Dmat
    big[n:, :n] = -Lam @ ImA
    big[n:, n:] = np.eye(N) - Lam @ Dmat
    sol = np.linalg.solve(big, np.concatenate([Phi, Lam @ Phi]))
    return sol[:n].reshape(N, M), sol[n:]


@pytest.mark.parametrize(
    "a_coeffs, c_coeffs, sweep",
    [([1.0], [0.0], True), ([1.0, 0.5], [0.0, 0.3], False)],
    ids=["constant-sweep", "varying-lu"],
)
def test_direct_solve_matches_dense_coupled_system(a_coeffs, c_coeffs, sweep):
    M, N = 6, 8
    ref = build_reference_example(M=M)
    family = OperatorFamily(
        basis=ref.family.basis, a_coeffs=np.array(a_coeffs), c_coeffs=np.array(c_coeffs)
    )
    grid = build_grid(N)
    partition = TimePartition(1.0, 2)
    coeffs = CoefficientAssembler(family, grid, partition).slab(2, ref.g, None, ref.b)
    system = assemble_block_system(coeffs, family, ref.b)
    assert system.Cmat.any() != sweep
    x0 = np.random.default_rng(7).standard_normal(M)
    w0 = float(x0 @ family.basis.boundary_trace)
    stage = solve_stage_direct(system, x0, w0)
    xt, w = dense_stage_solve(system, x0, w0)
    assert np.abs(stage.x[1:] - xt).max() <= 1e-13
    assert np.abs(stage.boundary_traces[1:] - w).max() <= 1e-13
    assert stage.boundary_traces[0] == w0


@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
def test_non_finite_boundary_data_names_the_slab(reference_problem, mode):
    prob = HeatProblem(
        family=reference_problem.family,
        b=reference_problem.b,
        g=lambda t: np.nan if t > 0.5 else 1.0,
        u0=reference_problem.u0,
        T=1.0,
        name="nan-data",
    )
    with pytest.raises(NonFiniteStageError) as exc:
        march(prob, SolverConfig(N=8, K=4, M=128, mode=mode))
    assert exc.value.slab == 3
    assert "slab 3" in str(exc.value)


@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
def test_non_finite_final_time_rejected(T):
    with pytest.raises(ValueError, match="T="):
        SolverConfig(T=T)
    with pytest.raises(ValueError, match="T="):
        TimePartition(T, 2)


@pytest.mark.parametrize(
    "controls, name",
    [
        ({"tol": np.nan}, "tol"),
        ({"tol": np.inf}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": -1.0}, "tol"),
        ({"max_iter": 0}, "max_iter"),
    ],
    ids=["tol-nan", "tol-inf", "tol-zero", "tol-negative", "max_iter-zero"],
)
def test_fixed_point_rejects_bad_controls(reference_problem, controls, name):
    """Called directly, the fixed-point solver validates what SolverConfig would."""
    family = reference_problem.family
    coeffs = CoefficientAssembler(family, build_grid(8), TimePartition(1.0, 2)).slab(
        1, reference_problem.g, None, reference_problem.b
    )
    system = assemble_block_system(coeffs, family, reference_problem.b)
    x0 = reference_problem.u0
    with pytest.raises(ValueError, match=f"^{name} must be"):
        solve_stage_fixed_point(system, x0, float(x0 @ family.basis.boundary_trace), **controls)


@dataclasses.dataclass(frozen=True)
class MathExpDecay(ExpDecay):
    """An ExpDecay evaluated through math.exp point by point, recording the
    shape of the times it is called with."""

    shapes: list = dataclasses.field(default_factory=list, compare=False)

    def __call__(self, t):
        self.shapes.append(np.shape(t))
        arg = -self.rate * np.asarray(t, dtype=float)
        return self.coef * np.array([math.exp(v) for v in arg.ravel()]).reshape(arg.shape)


def test_expdecay_data_is_sampled_once_per_slab():
    """An ExpDecay g and b take one array call per slab each, plus one for
    the nodal b values, and no scalar call; a scalar-only callable with the
    same values marches to the same bytes point by point."""
    N, K, M = 16, 32, 128
    ref = build_reference_example(M)
    g, b = MathExpDecay(ref.g.coef, ref.g.rate), MathExpDecay(ref.b.coef, ref.b.rate)
    config = SolverConfig(N=N, K=K, M=M)
    trace = march(dataclasses.replace(ref, g=g, b=b), config)
    assert trace.refinements == 0
    samples = (N, 17)  # (N, data_degree + 1) local sample times, data_degree = max(12, N)
    assert g.shapes == [samples] * K
    assert b.shapes == [samples, (N + 1,)] * K

    def scalar_only(profile):
        return lambda t: profile.coef * math.exp(-profile.rate * t)

    with pytest.raises(TypeError):
        scalar_only(g)(np.array([0.0, 0.5]))
    scalar = march(dataclasses.replace(ref, g=scalar_only(g), b=scalar_only(b)), config)
    assert scalar.node_modes().tobytes() == trace.node_modes().tobytes()
    assert scalar.node_boundary_values().tobytes() == trace.node_boundary_values().tobytes()


@pytest.mark.parametrize(
    "build, N, K",
    [
        (build_reference_example, 16, 32),
        (build_neumann_example, 12, 1),
        (varying_manufactured_problem, 12, 8),
    ],
    ids=["reference", "neumann", "varcoef-forced"],
)
def test_expdecay_array_sampling_matches_scalar_calls(build, N, K):
    """The one array call per slab must give the scalar calls' values bit for
    bit at every time march samples g and b (Neumann refines to K=4 here).
    Traced and untraced runs take the two paths, so their outputs are
    byte-identical only while this holds."""
    problem = build()
    times = []

    def recorded(fn):
        def sample(t):
            times.append(t)
            return fn(t)

        return sample

    recording = dataclasses.replace(problem, g=recorded(problem.g), b=recorded(problem.b))
    march(recording, SolverConfig(N=N, K=K, M=128))
    times = np.array(times)
    for fn in (problem.g, problem.b):
        array = sample_data(fn, times)
        scalar = np.array([fn(t) for t in times])
        differ = np.flatnonzero(array.view(np.uint64) != scalar.view(np.uint64))
        assert differ.size == 0, (
            f"{fn!r}: np.exp on an array differs from the scalar call at {differ.size} of "
            f"{times.size} times, first t={times[differ[0]]!r}: {array[differ[0]]!r} != "
            f"{scalar[differ[0]]!r}; the array and point-by-point sampling paths no longer agree"
        )


def test_sample_checks_the_shape_of_an_array_call():
    class Flat(ExpDecay):
        def __call__(self, t):
            return super().__call__(np.ravel(t))

    with pytest.raises(ValueError, match=r"shape \(6,\) for times of shape \(2, 3\)"):
        sample_data(Flat(1.0, 1.0), np.zeros((2, 3)))


@pytest.mark.parametrize(
    "build, N, K",
    [(build_reference_example, 8, 3), (build_reference_example, 16, 32), (build_neumann_example, 12, 1)],
    ids=["reference-8-3", "reference-16-32", "neumann-refined"],
)
def test_node_times_equal_per_slab_map_to_slab(build, N, K):
    """node_times is one array expression; it must give the per-slab
    map_to_slab times bit for bit (Neumann refines to K=4 here)."""
    trace = march(build(), SolverConfig(N=N, K=K, M=128))
    slabs = [trace.partition.map_to_slab(l, trace.grid.nodes)[1:] for l in range(1, trace.partition.K + 1)]
    expected = np.concatenate([[0.0]] + slabs)
    assert trace.node_times().tobytes() == expected.tobytes()


def test_assemblers_of_one_data_degree_share_read_only_tables(reference_problem):
    """Grids of degree 4 and 8 both assemble at data degree 12: the second
    assembler reuses the first one's Gauss tables, which nobody may write."""
    family = reference_problem.family
    first = CoefficientAssembler(family, build_grid(4), TimePartition(1.0, 2))
    second = CoefficientAssembler(family, build_grid(8), TimePartition(1.0, 3))
    assert first.data_degree == second.data_degree == 12
    assert second._qgrid is first._qgrid
    assert second._legendre is first._legendre
    assert second._laguerre is first._laguerre
    qgrid = first._qgrid
    tables = [qgrid.nodes, qgrid.spacings, qgrid.barycentric_weights, *first._legendre, first._laguerre]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 1.0


@pytest.mark.parametrize(
    "build, N, K",
    [(build_reference_example, 8, 2), (varying_manufactured_problem, 12, 3)],
    ids=["reference", "varying"],
)
def test_shared_tables_assemble_the_same_bits_as_fresh_ones(build, N, K, monkeypatch):
    problem = build()
    grid, partition = build_grid(N), TimePartition(problem.T, K)
    cached = CoefficientAssembler(problem.family, grid, partition)
    monkeypatch.setattr(collocation, "_gauss_tables", collocation._gauss_tables.__wrapped__)
    fresh = CoefficientAssembler(problem.family, grid, partition)
    assert fresh._laguerre is not cached._laguerre
    data = (problem.g, problem.forcing, problem.b)
    for l in range(1, K + 1):
        a, b = cached.slab(l, *data), fresh.slab(l, *data)
        for name in ("t_star", "mu_frozen", "E", "alpha", "beta_weighted", "phi"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (l, name)


def test_neumann_restarts_build_the_gauss_tables_once(monkeypatch):
    """Neumann at (12, 1, 128) refines twice, and so assembles on three
    partitions at data degree 12; only the first computes a Gauss-Legendre
    rule."""
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(deg):
        calls.append(deg)
        return leggauss(deg)

    collocation._gauss_tables.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    trace = march(build_neumann_example(M=128), SolverConfig(N=12, K=1, M=128))
    assert (trace.refinements, trace.partition.K) == (2, 4)
    assert calls == [52]


def test_importing_the_package_builds_no_gauss_tables():
    """The tables are built on first use, so ``import duhamelcheb`` stays cheap."""
    src = pathlib.Path(collocation.__file__).parents[1]
    code = "import duhamelcheb.collocation as c; print(c._gauss_tables.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "0"


def dense_contraction_norm(system) -> float:
    """||Lambda D||_inf contracted from the materialised D, mode by mode."""
    return float(np.abs(np.einsum("km,kjm->kj", system.lam_weights, system.D)).sum(axis=1).max())


def assert_few_ulps(rho, dense, ulps=8):
    """The factored and the dense contraction sum the same products in
    another order: they agree within a few ulps of the norm."""
    assert abs(rho - dense) <= ulps * np.spacing(dense), (rho, dense)


def test_lambda_d_is_computed_once_per_system(reference_problem, monkeypatch):
    """march reads ||Lambda D|| and both stage solvers read Lambda D again:
    one factored contraction H V per system serves them all, read-only,
    within a few ulps of the dense norm."""
    calls = []
    original = collocation.BlockSystem.__dict__["_lambda_d"].func

    def counting(system):
        calls.append(system)
        return original(system)

    counted = functools.cached_property(counting)
    counted.__set_name__(collocation.BlockSystem, "_lambda_d")
    monkeypatch.setattr(collocation.BlockSystem, "_lambda_d", counted)
    for mode in ("direct", "fixed_point"):
        calls.clear()
        systems = []
        solve = getattr(collocation, f"solve_stage_{mode}")

        def recording(system, *args, solve=solve, **kwargs):
            systems.append(system)
            return solve(system, *args, **kwargs)

        monkeypatch.setattr(collocation, f"solve_stage_{mode}", recording)
        trace = march(reference_problem, SolverConfig(N=8, K=2, M=128, mode=mode))
        assert len(systems) == 2
        assert [id(system) for system in calls] == [id(system) for system in systems]
        for system, stage in zip(systems, trace.stages):
            assert stage.contraction == system.contraction_norm()
            assert system.lambda_d_matrix() is system.lambda_d_matrix()
            with pytest.raises(ValueError, match="read-only"):
                system.lambda_d_matrix()[0, 0] = 1.0
            assert_few_ulps(stage.contraction, dense_contraction_norm(system))
        assert len(calls) == 2


def constant_forced_problem(M=16):
    """A constant family with forcing in two modes and plain-callable b and g."""
    basis = heat_basis(M)
    direction = np.zeros(M)
    direction[[0, 3]] = [1.0, -0.5]
    return HeatProblem(
        family=constant_family(basis, a=1.2, c=0.3),
        b=lambda t: 0.5 + 0.25 * math.cos(3.0 * t),
        g=lambda t: math.sin(2.0 * t) - 0.5,
        u0=np.linspace(1.0, -1.0, M) / np.arange(1, M + 1),
        T=1.0,
        forcing=lambda t: math.exp(-t) * direction,
        name="constant-forced",
    )


@pytest.mark.parametrize(
    "build, N, K, l",
    [
        (lambda: build_reference_example(M=6), 1, 1, 1),
        (lambda: build_reference_example(M=6), 8, 2, 2),
        (constant_forced_problem, 6, 3, 2),
        (constant_forced_problem, 1, 2, 2),
        (lambda: dataclasses.replace(build_neumann_example(M=6), b=lambda t: 1.0, g=lambda t: 0.0), 5, 1, 1),
    ],
    ids=["reference-N1", "reference", "forced-plain-callables", "forced-N1", "neumann-plain-callables"],
)
def test_factored_direct_solve_matches_dense_coupled_system(build, N, K, l):
    """A constant family's direct solve reads only the factored coupling;
    the dense solve of the same system's materialised arrays agrees with it,
    and so does ||Lambda D|| contracted from the materialised D."""
    problem = build()
    family = problem.family
    assert family.is_constant
    assembler = CoefficientAssembler(family, build_grid(N), TimePartition(problem.T, K))
    system = assemble_block_system(assembler.slab(l, problem.g, problem.forcing, problem.b), family, problem.b)
    assert system.has_interior_coupling is False
    x0 = np.random.default_rng(N).standard_normal(family.basis.M)
    w0 = float(x0 @ family.basis.boundary_trace)
    stage = solve_stage_direct(system, x0, w0)
    assert "beta_weighted" not in system.coeffs.__dict__
    xt, w = dense_stage_solve(system, x0, w0)
    scale = max(1.0, np.abs(xt).max())
    assert np.abs(stage.x[1:] - xt).max() <= 1e-13 * scale
    assert np.abs(stage.boundary_traces[1:] - w).max() <= 1e-13 * scale
    assert stage.boundary_traces[0] == w0
    assert stage.residual <= 1e-13 * scale
    assert_few_ulps(stage.contraction, dense_contraction_norm(system))


def test_neumann_contraction_matches_the_dense_norm_on_every_restart():
    """Neumann at (12, 1) sits above the refinement threshold at K = 1 and
    2 (0.72 and 0.51) and below it at K = 4 (0.36); the factored norm must
    make the same decisions as the dense one, so the march still refines
    exactly twice."""
    problem = build_neumann_example(M=128)
    grid = build_grid(12)
    for K, refines in ((1, True), (2, True), (4, False)):
        assembler = CoefficientAssembler(problem.family, grid, TimePartition(1.0, K))
        for l in range(1, K + 1):
            coeffs = assembler.slab(l, problem.g, problem.forcing, problem.b)
            system = assemble_block_system(coeffs, problem.family, problem.b)
            dense = dense_contraction_norm(system)
            assert_few_ulps(system.contraction_norm(), dense)
            if l == 1:
                assert (dense >= collocation.CONTRACTION_REFINE) == refines
    trace = march(problem, SolverConfig(N=12, K=1, M=128))
    assert (trace.refinements, trace.partition.K) == (2, 4)


@pytest.mark.parametrize(
    "build, N, K, M",
    [
        (build_reference_example, 12, 4, 4096),
        (build_neumann_example, 12, 1, 128),
        (build_decay_example, 4, 2, 12),
        (constant_forced_problem, 6, 3, 16),
    ],
    ids=["many-modes", "neumann-refined", "decay", "forced-plain-callables"],
)
def test_constant_family_direct_march_never_multiplies_out_the_coupling(build, N, K, M, monkeypatch):
    """Neither beta_weighted nor the zero alpha of a constant family is
    built in a direct march: no (N, N + 1, M) array, only the factors."""

    def refuse(self):
        raise AssertionError("the dense coupling was multiplied out")

    monkeypatch.setattr(collocation.CollocationCoefficients, "coupling", refuse)
    monkeypatch.setattr(collocation.CollocationCoefficients, "alpha", property(refuse))
    problem = build(M=M)
    trace = march(problem, SolverConfig(N=N, K=K, M=M, T=problem.T))
    assert len(trace.stages) == trace.partition.K
    assert all(np.isfinite(stage.residual) for stage in trace.stages)


def per_subinterval_oracle(assembler, l, g=None, f=None, b=None):
    """E, alpha, beta_weighted and phi of slab ``l`` by the earlier loop:
    alpha integrated for every family with the frozen eigenvalues sampled
    per subinterval, beta built as a transposed product scaled out of place."""
    family, grid, partition = assembler.family, assembler.grid, assembler.partition
    N, M, Q, split = grid.N, family.basis.M, assembler.data_degree, assembler._split
    tau = partition.tau
    t_star = partition.slab_times(l, grid)
    t_loc = partition.map_to_slab(l, assembler._s_loc)
    mu_frozen = family.frozen_eigenvalues(t_star[1:, None])
    nu = 0.5 * tau * mu_frozen
    E = np.exp(-nu * grid.spacings[:, None])
    alpha = np.empty((N, N + 1, M))
    maps = np.empty((N, M, Q + 1))
    z, w_lag = assembler._legendre
    for k in range(N):
        half = 0.5 * grid.spacings[k]
        lam = half * nu[k]
        fast = lam > split
        R = maps[k]
        R[~fast] = half * (np.exp(-lam[~fast, None] * (1.0 + z)) @ w_lag)
        h = 1.0 / lam[fast]
        R[fast] = (half * h)[:, None] * interpolate(assembler._qgrid, assembler._laguerre, 2.0 * split * h - 1.0)
        mu_q = family.frozen_eigenvalues(t_loc[k][:, None])
        alpha[k] = 0.5 * tau * (assembler._lag_loc[k] @ (R.T * (mu_frozen[k] - mu_q)))
    mu0, lift = family.basis.mu, family.basis.lift_coeffs
    a_star = family.a(t_star[1:])
    g_loc = None if g is None else sample_data(g, t_loc)
    b_loc = None if b is None else sample_data(b, t_loc)
    phi = np.zeros((N, M))
    beta_weighted = np.empty((N, N + 1, M))
    for k in range(1, N + 1):
        R = maps[k - 1]
        kernel_scale = a_star[k - 1] * mu0 * lift
        if g is not None:
            phi[k - 1] += 0.5 * tau * kernel_scale * (R @ g_loc[k - 1])
        if f is not None:
            f_loc = np.stack([np.asarray(f(t), dtype=float) for t in t_loc[k - 1]])
            phi[k - 1] += 0.5 * tau * np.einsum("mq,qm->m", R, f_loc)
        lag = assembler._lag_loc[k - 1]
        if b is not None:
            lag = lag * b_loc[k - 1][None, :]
        beta_weighted[k - 1] = -0.5 * tau * (R @ lag.T).T * kernel_scale[None, :]
    return E, alpha, beta_weighted, phi


@pytest.mark.parametrize(
    "build, N, K, M",
    [
        (build_reference_example, 16, 32, 128),
        (build_reference_example, 12, 4, 4096),
        (build_reference_example, 8, 3, 128),
        (build_neumann_example, 12, 4, 128),
        (varying_manufactured_problem, 12, 8, 128),
        (varying_manufactured_problem, 12, 3, 128),
    ],
    ids=["reference-16-32", "reference-12-4-4096", "reference-8-3", "neumann", "varcoef-forced", "varcoef-forced-3"],
)
def test_slab_matches_the_per_subinterval_oracle(build, N, K, M):
    """In-place rows, the constant-family zeros and the per-slab sampling of
    a(t) and c(t) must give the earlier loop's coefficients bit for bit, on
    every slab (a constant family's slabs after the first reuse the cache).
    With K = 3 the slab width is not a power of two, so the order of the two
    in-place scalings shows."""
    problem = build(M=M)
    assembler = CoefficientAssembler(problem.family, build_grid(N), TimePartition(problem.T, K))
    data = (problem.g, problem.forcing, problem.b)
    for l in range(1, K + 1):
        coeffs = assembler.slab(l, *data)
        expected = per_subinterval_oracle(assembler, l, *data)
        for name, want in zip(("E", "alpha", "beta_weighted", "phi"), expected):
            assert getattr(coeffs, name).tobytes() == want.tobytes(), (l, name)


def count_interior_contractions(monkeypatch) -> list:
    calls = []
    einsum = np.einsum

    def counting(subscripts, *operands, **kwargs):
        if subscripts == "kjm,jm->km":
            calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    return calls


@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
def test_constant_family_skips_the_interior_coupling(reference_problem, mode, monkeypatch):
    """alpha is exact zeros, computed without sampling the family at the
    sample times; the system flags C~ as absent, and neither stage solver
    contracts it."""
    family = reference_problem.family
    frozen_shapes = []
    frozen = OperatorFamily.frozen_eigenvalues

    def recording(self, t):
        frozen_shapes.append(np.shape(t))
        return frozen(self, t)

    monkeypatch.setattr(OperatorFamily, "frozen_eigenvalues", recording)
    assembler = CoefficientAssembler(family, build_grid(8), TimePartition(1.0, 2))
    coeffs = assembler.slab(1, reference_problem.g, None, reference_problem.b)
    assert frozen_shapes == [(8, 1)]
    assert not coeffs.alpha.any() and not np.signbit(coeffs.alpha).any()
    system = assemble_block_system(coeffs, family, reference_problem.b)
    assert system.has_interior_coupling is False
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.has_interior_coupling = True

    calls = count_interior_contractions(monkeypatch)
    trace = march(reference_problem, SolverConfig(N=8, K=2, M=128, mode=mode))
    assert compute_errors(trace, reference_problem).max_eps1 <= 1e-10
    assert calls == []


@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
def test_varying_family_keeps_the_interior_coupling(mode, monkeypatch):
    problem = varying_manufactured_problem()
    assembler = CoefficientAssembler(problem.family, build_grid(12), TimePartition(1.0, 8))
    coeffs = assembler.slab(1, problem.g, problem.forcing, problem.b)
    assert assemble_block_system(coeffs, problem.family, problem.b).has_interior_coupling is True

    calls = count_interior_contractions(monkeypatch)
    trace = march(problem, SolverConfig(N=12, K=8, M=128, mode=mode))
    assert compute_errors(trace, problem).max_eps1 <= 1e-13
    assert len(calls) >= trace.partition.K


def test_neumann_restarts_build_the_sample_tables_once(monkeypatch):
    """Neumann at (12, 1, 128) refines twice to K = 4.  The local sample
    points and their Lagrange values depend on the grid alone, so one march
    builds them once; the refined march still gives the bits of a march
    started at K = 4."""
    grids = []
    interp = collocation.interpolate

    def recording(grid, values, s):
        grids.append(grid)
        return interp(grid, values, s)

    monkeypatch.setattr(collocation, "interpolate", recording)
    problem = build_neumann_example(M=128)
    trace = march(problem, SolverConfig(N=12, K=1, M=128))
    assert (trace.refinements, trace.partition.K) == (2, 4)
    assert sum(grid is trace.grid for grid in grids) == 1
    started = march(problem, SolverConfig(N=12, K=4, M=128))
    assert started.refinements == 0
    assert trace.node_modes().tobytes() == started.node_modes().tobytes()
    assert trace.node_boundary_values().tobytes() == started.node_boundary_values().tobytes()
