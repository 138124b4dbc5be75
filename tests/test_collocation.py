"""Coefficient assembly, the block system, and both stage solvers.

The beta oracle integrates the assembled integrand directly with adaptive
quadrature, mode by mode, so any sign or scaling slip in the assembly's
Gauss rules shows up immediately.
"""

import ast
import contextlib
import dataclasses
import decimal
import functools
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import weakref

import numpy as np
from numpy.polynomial import polynomial as P
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
from duhamelcheb import cli, collocation, operators
from duhamelcheb.collocation import CoefficientAssembler, block_matrix_inf_norm
from duhamelcheb.kernels import sample_data
from duhamelcheb.mesh import TimePartition, interpolate
from duhamelcheb.operators import OperatorFamily
from problems import (
    WRONG_SHAPE_IDS,
    WRONG_SHAPES,
    varying_manufactured_problem,
    varying_neumann_problem,
    wrong_shape_message,
)


def data_term(coeffs) -> np.ndarray:
    """f_x, the full data term of the stage rows: the forcing minus s R g,
    with s R g formed through ``interior.modes`` from the slab's g samples."""
    term = -coeffs.interior.modes(coeffs.g_loc)
    if coeffs.forcing is not None:
        term += coeffs.forcing
    return term


def count_coupling_calls(monkeypatch) -> list:
    """The slab of every ``BlockSystem.coupling()`` call from now on."""
    calls = []
    coupling = collocation.BlockSystem.coupling

    def counting(self):
        calls.append(self.slab)
        return coupling(self)

    monkeypatch.setattr(collocation.BlockSystem, "coupling", counting)
    return calls


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


@pytest.fixture(scope="module")
def small_setup():
    basis = heat_basis(30)
    family = constant_family(basis)
    grid = build_grid(4)
    partition = TimePartition(1.0, 2)
    return family, grid, partition


def test_beta_against_quadrature(small_setup):
    family, grid, partition = small_setup
    beta = assemble_coefficients(family, grid, partition, l=2).coupling()
    for k in (1, 3, 4):
        for j in (0, 2, 4):
            for n in (0, 1, 7, 29):
                oracle = beta_quadrature_oracle(family, grid, partition, 2, k, j, n)
                assert abs(beta[k - 1, j, n] - oracle) <= 1e-9


@pytest.mark.parametrize("N", [32, 40, 48])
def test_beta_against_quadrature_at_high_degree(small_setup, N):
    """The same oracle at degrees where a monomial route to the kernel
    integrals loses digits."""
    family, _, partition = small_setup
    grid = build_grid(N)
    beta = assemble_coefficients(family, grid, partition, l=2).coupling()
    for k in (1, N // 2, N):
        for j in (0, N // 2, N):
            for n in (0, 1, 7, 29):
                oracle = beta_quadrature_oracle(family, grid, partition, 2, k, j, n)
                assert abs(beta[k - 1, j, n] - oracle) <= 1e-9


def test_beta_weighted_reduces_to_beta_for_unit_multiplier(small_setup):
    family, grid, partition = small_setup
    bare = assemble_coefficients(family, grid, partition, l=1).coupling()
    unit = assemble_coefficients(family, grid, partition, l=1, b=lambda t: 1.0).coupling()
    assert np.abs(unit - bare).max() <= 1e-12 * np.abs(bare).max()


def test_beta_weighted_against_quadrature(small_setup):
    """The multiplier rides inside the integrand."""
    family, grid, partition = small_setup
    b = lambda t: np.exp(-0.8 * t)
    beta = assemble_coefficients(family, grid, partition, l=1, b=b).coupling()
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
        assert abs(beta[k - 1, j, n] - expect) <= 1e-9


def test_phi_constant_boundary_data_closed_form(small_setup):
    """g == 1, f == 0: mode n of the data term f_x of row k is b_n (1 - e^{-mu_n (tau/2) theta_k})."""
    family, grid, partition = small_setup
    coeffs = assemble_coefficients(family, grid, partition, l=1, g=lambda t: 1.0)
    tau = partition.tau
    mu = family.basis.mu
    b = family.basis.lift_coeffs
    for k in range(1, grid.N + 1):
        theta = grid.spacings[k - 1]
        expect = b * (1.0 - np.exp(-mu * 0.5 * tau * theta))
        assert np.abs(data_term(coeffs)[k - 1] - expect).max() <= 1e-13


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
        phi = data_term(coeffs)
        assert phi[k - 1, 2] == pytest.approx(0.5 * tau * oracle, abs=1e-13)
        others = np.delete(phi[k - 1], 2)
        assert np.abs(others).max() == 0.0


def test_data_degree_floor_validated(small_setup):
    """The data degree is max(12, N), so it never falls below that floor."""
    family, _, partition = small_setup
    for N, degree in ((4, 12), (16, 16)):
        assert CoefficientAssembler(family, build_grid(N), partition).data_degree == degree


def test_negative_frozen_eigenvalues_rejected(small_setup):
    family, grid, partition = small_setup
    growing = constant_family(family.basis, c=-10.0)
    with pytest.raises(ValueError, match="not positive"):
        assemble_coefficients(growing, grid, partition, l=1)


@pytest.mark.parametrize(
    "N, a1",
    [pytest.param(N, 0.5, id=f"{N}") for N in (16, 24, 32)]
    + [pytest.param(N, 0.0, id=f"{N}-a=1") for N in (16, 24, 32)],
)
def test_varying_family_marches_to_roundoff(N, a1):
    """The varying family, solved in its clock, reaches max_eps1 <= 1e-13
    at every N, also with a = 1 under the drifting c = 0.3 t, whose clock
    is the identity."""
    prob = varying_manufactured_problem(a1=a1)
    trace = march(prob, SolverConfig(N=N, K=8, M=128))
    assert trace.refinements == 0
    assert compute_errors(trace, prob).max_eps1 <= 1e-13


@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
def test_a_drift_of_c_past_the_range_of_exp_marches_to_roundoff(mode):
    """c = 3 t on [0, 25]: int_0^T (c - c(0) a / a(0)) reaches 937, past
    the 709 where e^x overflows, while u = sin(pi x / 2) stays O(1) (g and
    the forcing carry the drift).  Each slab freezes the family at its
    midpoint and anchors C^ at its left junction, so the scale stays near 1
    over a slab: the march carries u bit for bit across each junction and
    reaches max_eps1 <= 1e-12 (it reads 3.8e-14).  Anchored once at t = 0,
    e^{C^} overflowed on slab 28."""
    problem = dataclasses.replace(varying_manufactured_problem(c1=3.0, kappa=0.0), T=25.0)
    trace = march(problem, SolverConfig(N=16, K=32, M=128, T=25.0, mode=mode))
    assert trace.refinements == 0
    assert np.isfinite(trace.node_modes()).all()
    for before, after in zip(trace.stages, trace.stages[1:]):  # the march carries u, unscaled
        assert after.x[0].tobytes() == before.x[-1].tobytes()
    assert compute_errors(trace, problem).max_eps1 <= 1e-12


def test_varying_neumann_self_converges_in_its_clock():
    """Varying-Neumann's trace at T at (N, K, M) = (16, 4, 128) against
    (32, 16, 128): both march the same M modes, so the mode tail, which
    keeps its error against the exact solution at 5e-3, cancels.  With the
    operator frozen per node the difference stayed at 7e-4; solved in its
    clock it reads 1.1e-10."""
    problem = varying_neumann_problem()
    coarse = march(problem, SolverConfig(N=16, K=4, M=128))
    fine = march(problem, SolverConfig(N=32, K=16, M=128))
    assert coarse.refinements == fine.refinements == 0
    assert abs(coarse.node_boundary_traces()[-1] - fine.node_boundary_traces()[-1]) <= 1e-9


@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
def test_a_dip_of_a_between_its_samples_is_named(mode):
    """a = 1 + 5e4 (t - 0.3) (t - 0.31) is positive at t = 0, 1/2 and 1 and
    negative on (0.3028, 0.3072).  The march names a and the first time it
    fails, a root of a, instead of failing on a slab later."""
    problem = dataclasses.replace(
        build_reference_example(M=32),
        family=OperatorFamily(basis=heat_basis(32), a_coeffs=np.array([4651.0, -30500.0, 5e4])),
    )
    message = r"^operator coefficient a\(t\) must be positive on \[0, T=1.0\], but a\(0\.302763932"
    with pytest.raises(ValueError, match=message):
        march(problem, SolverConfig(N=8, K=4, M=32, mode=mode))


@pytest.mark.parametrize("N", [32, 40, 48, 64])
def test_reference_problem_reaches_roundoff_at_high_degree(reference_problem, N):
    """One slab, no refinement: the kernel integrals must stay accurate at
    every degree, not only where a monomial route still holds."""
    trace = march(reference_problem, SolverConfig(N=N, K=1, M=128))
    assert trace.refinements == 0
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
    # ||Lambda D|| is 0.89 at K = 1 and 0.63 at K = 2, so march would refine to K = 4
    trace = march(prob, SolverConfig(N=N, K=4, M=M))
    assert trace.refinements == 0
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
    coeffs = assemble_coefficients(family, build_grid(8), TimePartition(1.0, 1), 1, prob.g, None, prob.b)
    system = assemble_block_system(coeffs, family, prob.b)
    with pytest.raises(SlabContractionError) as exc:
        solve_stage_direct(system, prob.u0, 0.0)
    assert exc.value.norm >= 1.0
    assert "on slab 1:" in str(exc.value)


def test_fixed_point_solve_raises_on_a_coupling_that_does_not_contract():
    """The reference rod with b = 20 couples its one slab at (8, 1, 128)
    with ||Lambda D|| = 16.1: the fixed-point solve, called on that slab
    directly, raises before it sweeps."""
    problem = dataclasses.replace(build_reference_example(M=128), b=ExpDecay(20.0, 0.0))
    assembler = CoefficientAssembler(problem.family, build_grid(8), TimePartition(problem.T, 1))
    system = assembler.slab(1, problem.g, problem.forcing, problem.b)
    w0 = float(problem.u0 @ problem.basis.boundary_trace)
    with pytest.raises(SlabContractionError, match=r"^boundary coupling norm 16\.1 on slab 1: slab too long; increase K$") as exc:
        solve_stage_fixed_point(system, problem.u0, w0)
    assert exc.value.slab == 1 and exc.value.norm == system.contraction_norm()


def test_fixed_point_solve_raises_on_growing_successive_differences(monkeypatch):
    """With the contraction check patched to pass, the fixed-point sweep of
    the exact b = 20 problem, u = e^{-pi^2 t/4} sin(pi x/2) with
    g = 20 e^{-pi^2 t/4}, at (16, 1, 128) grows: its differences rise three
    sweeps running, past the first, and it raises after 4 sweeps with
    ratio 1.2."""
    base = build_reference_example(M=128)
    problem = dataclasses.replace(base, b=ExpDecay(20.0, 0.0), g=ExpDecay(20.0, np.pi**2 / 4.0))
    assert problem.compatibility_defect() <= 1e-15
    monkeypatch.setattr(collocation.BlockSystem, "contraction_norm", lambda self: 0.0)
    message = r"^fixed-point iteration diverged on slab 1 after 4 sweeps \(estimated ratio 1\.2\): growing successive differences$"
    with pytest.raises(FixedPointDivergenceError, match=message) as exc:
        march(problem, SolverConfig(N=16, K=1, M=128, mode="fixed_point"))
    assert (exc.value.iterations, exc.value.slab) == (4, 1)


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


def test_fixed_point_iteration_cap_raises(reference_problem, monkeypatch):
    monkeypatch.setattr(collocation, "FP_TOL", 1e-30)
    monkeypatch.setattr(collocation, "FP_MAX_ITER", 3)
    cfg = SolverConfig(N=8, K=1, M=128, mode="fixed_point")
    with pytest.raises(FixedPointDivergenceError) as exc:
        march(reference_problem, cfg)
    assert exc.value.iterations == 3
    assert exc.value.slab == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(N=0)
    with pytest.raises(ValueError):
        SolverConfig(mode="secant")
    for field in ("N", "K", "M"):
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
        x~ = (I - S~) x~ + D w + Phi,
        w  = Lambda ((I - S~) x~ + D w + Phi),
    with I - S~ the subdiagonal blocks, all read straight from the slab's
    coefficients rather than through the solver's helpers: the
    subdiagonal and F_x (E[0] in row 1) from E, Lambda from the trace
    functional, f_x from ``data_term``, and D and F_y from columns 1..N
    and 0 of the multiplied-out ``coupling()``.
    """
    N, M = system.N, system.M
    coeffs = system
    E, trace = coeffs.E, coeffs.interior.trace
    beta = coeffs.coupling()
    D, F_y = beta[:, 1:], beta[:, 0]
    n = N * M
    ImA = np.zeros((n, n))
    Dmat = np.zeros((n, N))
    Lam = np.zeros((N, n))
    for k in range(N):
        for m in range(M):
            row = k * M + m
            for j in range(N):
                Dmat[row, j] = D[k, j, m]
            if k > 0:
                ImA[row, (k - 1) * M + m] += E[k, m]
            Lam[k, row] = trace[m]
    Phi = F_y * w0 + data_term(coeffs)
    Phi[0] += E[0] * x0
    Phi = Phi.ravel()
    big = np.zeros((n + N, n + N))
    big[:n, :n] = np.eye(n) - ImA
    big[:n, n:] = -Dmat
    big[n:, :n] = -Lam @ ImA
    big[n:, n:] = np.eye(N) - Lam @ Dmat
    sol = np.linalg.solve(big, np.concatenate([Phi, Lam @ Phi]))
    return sol[:n].reshape(N, M), sol[n:]


@pytest.mark.parametrize(
    "a_coeffs, c_coeffs", [([1.0], [0.0]), ([1.0, 0.5], [0.0, 0.3])], ids=["constant-sweep", "varying-sweep"]
)
def test_direct_solve_matches_dense_coupled_system(a_coeffs, c_coeffs):
    M, N = 6, 8
    ref = build_reference_example(M=M)
    family = OperatorFamily(
        basis=ref.family.basis, a_coeffs=np.array(a_coeffs), c_coeffs=np.array(c_coeffs)
    )
    grid = build_grid(N)
    partition = TimePartition(1.0, 2)
    coeffs = CoefficientAssembler(family, grid, partition).slab(2, ref.g, None, ref.b)
    system = assemble_block_system(coeffs, family, ref.b)
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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_initial_mode_is_named(reference_problem, value):
    """A NaN mode used to raise NonFiniteStageError blaming g, b and f, and
    an infinite one warned from the solver first."""
    u0 = reference_problem.u0.copy()
    u0[[3, 7]] = value
    problem = dataclasses.replace(reference_problem, u0=u0)
    with pytest.raises(ValueError, match=rf"^initial mode vector is not finite: u0\[3\] = {value}$"):
        march(problem, SolverConfig(N=8, K=2, M=128))


@pytest.mark.parametrize("shape", [(127,), (129,), (128, 1)], ids=["(M-1,)", "(M+1,)", "(M,1)"])
def test_initial_mode_vector_of_another_shape_is_named(reference_problem, shape):
    problem = dataclasses.replace(reference_problem, u0=np.zeros(shape))
    expected = re.escape(f"initial mode vector has shape {shape}, expected (128,)")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        march(problem, SolverConfig(N=8, K=2, M=128))


@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
def test_non_finite_final_time_rejected(T):
    with pytest.raises(ValueError, match="T="):
        SolverConfig(T=T)
    with pytest.raises(ValueError, match="T="):
        TimePartition(T, 2)


@dataclasses.dataclass(frozen=True)
class MathExpDecay(ExpDecay):
    """An ExpDecay evaluated through math.exp point by point, recording the
    shape of the times it is called with."""

    shapes: list = dataclasses.field(default_factory=list, compare=False)

    def __call__(self, t):
        self.shapes.append(np.shape(t))
        arg = -self.rate * np.asarray(t, dtype=float)
        return self.coef * np.array([math.exp(v) for v in arg.ravel()]).reshape(arg.shape)


@pytest.mark.parametrize(
    "build", [build_reference_example, varying_manufactured_problem], ids=["reference", "varying"]
)
def test_expdecay_data_is_sampled_once_per_slab(build):
    """An ExpDecay g and b take one array call per slab each, plus one for
    the nodal b values, and no scalar call, at the clock's times for a
    varying family too; a scalar-only callable with the same values marches
    to the same bytes point by point."""
    N, K, M = 16, 32, 128
    ref = build(M)
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
        for name, want in materialised(b).items():
            assert np.array_equal(materialised(a)[name], want), (l, name)


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


def materialised(coeffs) -> dict:
    """A slab's coefficients as arrays: the boundary coupling multiplied
    out and the data term f_x."""
    return {"t_star": coeffs.t_star, "E": coeffs.E, "beta": coeffs.coupling(), "phi": data_term(coeffs)}


def dense_contraction_norm(system) -> float:
    """||Lambda D||_inf contracted from the materialised D, mode by mode."""
    D = system.coupling()[:, 1:]
    return float(np.abs(np.einsum("m,kjm->kj", system.interior.trace, D)).sum(axis=1).max())


def assert_few_ulps(rho, dense, ulps=8):
    """The factored and the dense contraction sum the same products in
    another order: they agree within a few ulps of the norm."""
    assert abs(rho - dense) <= ulps * np.spacing(dense), (rho, dense)


def test_lambda_d_is_computed_once_per_system(reference_problem, monkeypatch):
    """march reads ||Lambda D|| and both stage solvers read Lambda D again:
    one factored contraction H V per system serves them all, read-only,
    within a few ulps of the dense norm."""
    calls = []
    original = collocation.BlockSystem.__dict__["lambda_d"].func

    def counting(system):
        calls.append(system)
        return original(system)

    counted = functools.cached_property(counting)
    counted.__set_name__(collocation.BlockSystem, "lambda_d")
    monkeypatch.setattr(collocation.BlockSystem, "lambda_d", counted)
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
            assert system.lambda_d is system.lambda_d
            with pytest.raises(ValueError, match="read-only"):
                system.lambda_d[0, 0] = 1.0
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
def test_factored_direct_solve_matches_dense_coupled_system(build, N, K, l, monkeypatch):
    """A constant family's direct solve reads only the factored coupling
    (it never calls ``coupling()``); the dense solve of the same system's
    materialised arrays agrees with it, and so does ||Lambda D|| contracted
    from the materialised D."""
    problem = build()
    family = problem.family
    assert family.is_constant
    assembler = CoefficientAssembler(family, build_grid(N), TimePartition(problem.T, K))
    system = assemble_block_system(assembler.slab(l, problem.g, problem.forcing, problem.b), family, problem.b)
    x0 = np.random.default_rng(N).standard_normal(family.basis.M)
    w0 = float(x0 @ family.basis.boundary_trace)
    couplings = count_coupling_calls(monkeypatch)
    stage = solve_stage_direct(system, x0, w0)
    assert couplings == []
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
@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
def test_constant_family_march_never_multiplies_out_the_coupling(build, N, K, M, mode, monkeypatch):
    """A constant family's march, direct or fixed-point, never multiplies
    the coupling out: no (N, N + 1, M) array, only the factors, and never
    the quasi-static maps: no (N, Q+1, M) array, only C_k and B."""

    def refuse(self):
        raise AssertionError("the dense coupling or maps were multiplied out")

    monkeypatch.setattr(collocation.BlockSystem, "coupling", refuse)
    monkeypatch.setattr(collocation.SlabInterior, "dense_maps", refuse)
    problem = build(M=M)
    trace = march(problem, SolverConfig(N=N, K=K, M=M, T=problem.T, mode=mode))
    assert len(trace.stages) == trace.partition.K
    assert all(np.isfinite(stage.residual) for stage in trace.stages)


@functools.cache
def nodal_laguerre_table(Q, split):
    """The Gauss-Laguerre table sum_i omega_i l_q(u_i h - 1) at the degree-Q
    CGL points of h in [0, 1 / split], on the degree-Q grid of l_q."""
    qgrid = build_grid(Q)
    u, omega = np.polynomial.laguerre.laggauss(Q // 2 + 1)
    h = (1.0 + qgrid.nodes) / (2.0 * split)
    return qgrid, omega @ interpolate(qgrid, np.eye(Q + 1), u * h[:, None] - 1.0)


def barycentric_map(assembler, k, nu_k):
    """R_k of the 0-based subinterval ``k`` for modes of rate ``nu_k``:
    Gauss-Legendre up to the split, beyond it the nodal Gauss-Laguerre
    table interpolated barycentrically, one mode at a time."""
    Q, split = assembler.data_degree, assembler._split
    qgrid, laguerre = nodal_laguerre_table(Q, split)
    z, w_lag = assembler._legendre
    half = 0.5 * assembler.grid.spacings[k]
    lam = half * nu_k
    fast = lam > split
    R = np.empty((lam.size, Q + 1))
    R[~fast] = half * (np.exp(-lam[~fast, None] * (1.0 + z)) @ w_lag)
    h = 1.0 / lam[fast]
    R[fast] = (half * h)[:, None] * interpolate(qgrid, laguerre, 2.0 * split * h - 1.0)
    return R


def clock_times(assembler, l, r):
    """The clock length of slab ``l``, frozen at its midpoint, and the times
    of its clock coordinates ``r`` and e^{C^} there, both shaped as ``r``."""
    partition = assembler.partition
    centre = np.array([partition.map_to_slab(l, 0.0)])
    mean, xi, log_scale = assembler.family.slab_clocks(centre, 0.5 * partition.tau, np.ravel(r))
    times = partition.map_to_slab(l, xi[0]).reshape(np.shape(r))
    return partition.tau * mean[0], times, np.exp(P.polyval(xi[0], log_scale[:, 0])).reshape(np.shape(r))


def per_subinterval_oracle(assembler, l, g=None, f=None, b=None):
    """E, the coupling and phi of slab ``l`` by the earlier loop, in the
    slab's clock: the maps of :func:`barycentric_map`, g and f sampled at
    the clock's times and scaled point by point, e^{C^} g and
    e^{C^} f / rho with the family frozen at the slab's midpoint and C^
    anchored at its left junction, and beta built as a transposed product
    scaled out of place."""
    family, grid = assembler.family, assembler.grid
    N, M, Q = grid.N, family.basis.M, assembler.data_degree
    tau, t_loc, scale = clock_times(assembler, l, assembler._s_loc)
    t_m = assembler.partition.map_to_slab(l, 0.0)
    nu = 0.5 * tau * family.frozen_eigenvalues(t_m)
    E = np.exp(-nu * grid.spacings[:, None])
    maps = np.stack([barycentric_map(assembler, k, nu) for k in range(N)])
    kernel_scale = family.a(t_m) * family.basis.mu * family.basis.lift_coeffs
    g_loc = None if g is None else sample_data(g, t_loc) * scale
    b_loc = None if b is None else sample_data(b, t_loc)
    phi = np.zeros((N, M))
    beta = np.empty((N, N + 1, M))
    for k in range(1, N + 1):
        R = maps[k - 1]
        if g is not None:
            phi[k - 1] += 0.5 * tau * kernel_scale * (R @ g_loc[k - 1])
        if f is not None:
            weights = scale[k - 1] * family.a(t_m) / family.a(t_loc[k - 1])
            f_loc = np.stack([np.asarray(f(t), dtype=float) * w for t, w in zip(t_loc[k - 1], weights)])
            phi[k - 1] += 0.5 * tau * np.einsum("mq,qm->m", R, f_loc)
        lag = assembler._lag_loc[k - 1]
        if b is not None:
            lag = lag * b_loc[k - 1][None, :]
        beta[k - 1] = -0.5 * tau * (R @ lag.T).T * kernel_scale[None, :]
    return E, beta, phi


@pytest.mark.parametrize(
    "build, N, K, M",
    [
        (build_reference_example, 16, 32, 128),
        (build_reference_example, 12, 4, 4096),
        (build_reference_example, 8, 3, 128),
        (build_neumann_example, 12, 4, 128),
        (varying_manufactured_problem, 12, 8, 128),
        (varying_manufactured_problem, 12, 3, 128),
        (varying_manufactured_problem, 13, 2, 128),
        (varying_manufactured_problem, 12, 2, 1024),
    ],
    ids=[
        "reference-16-32", "reference-12-4-4096", "reference-8-3", "neumann", "varcoef-forced", "varcoef-forced-3",
        "varcoef-forced-blocks-4-4-4-1", "varcoef-forced-blocks-of-one",
    ],
)
def test_slab_matches_the_per_subinterval_oracle(build, N, K, M):
    """In-place rows and the per-slab clock must give the earlier loop's
    coefficients on every slab (a constant family's slabs after the first
    reuse the cache).  With K = 3 the slab width is not a power of two, so
    the order of the two in-place scalings shows.  At (13, 2, 128) the map
    blocks hold 4, 4, 4 and 1 subintervals, and at M = 1024 each holds
    one.  E must match bit for bit.  The assembler evaluates the
    Gauss-Laguerre table from its Chebyshev coefficients, which rounds
    differently from the oracle's barycentric interpolation, and it
    interpolates a resolved forcing from its slab-wide grid, so the
    coupling and phi must match within 4e-15 of the largest |.| of each
    row (the mode axis)."""
    problem = build(M=M)
    assembler = CoefficientAssembler(problem.family, build_grid(N), TimePartition(problem.T, K))
    data = (problem.g, problem.forcing, problem.b)
    for l in range(1, K + 1):
        coeffs = assembler.slab(l, *data)
        E, *expected = per_subinterval_oracle(assembler, l, *data)
        assert coeffs.E.tobytes() == E.tobytes(), l
        got = materialised(coeffs)
        for name, want in zip(("beta", "phi"), expected):
            bound = 4e-15 * np.abs(want).max(axis=-1, keepdims=True)
            assert (np.abs(got[name] - want) <= bound).all(), (l, name)


@pytest.mark.parametrize("M", [128, 4096])
@pytest.mark.parametrize("N", [1, 2, 12, 16, 32, 64])
def test_maps_match_the_barycentric_table(N, M):
    """Each row R_k[m] of the maps, multiplied out over all modes (the
    quasi-static ones from the separable tail C_k B), agrees with the
    barycentric evaluation of the nodal Gauss-Laguerre table within 4e-15
    of its largest |.|, at data degrees from 12 to 64."""
    problem = build_reference_example(M=M)
    assembler = CoefficientAssembler(problem.family, build_grid(N), TimePartition(problem.T, 4))
    coeffs = assembler.slab(1)
    nu = 0.5 * assembler.partition.tau * problem.family.frozen_eigenvalues(coeffs.t_star[1:, None])
    for k, R in enumerate(coeffs.interior.dense_maps().transpose(0, 2, 1)):
        want = barycentric_map(assembler, k, nu[k])
        bound = 4e-15 * np.abs(want).max(axis=1)
        assert (np.abs(R - want).max(axis=1) <= bound).all(), k


def quad_map_row(theta, nu, Q):
    """[int_0^theta e^{-nu sigma} l_q(2 sigma / theta - 1) d sigma, q = 0..Q]
    by adaptive quadrature, split at the kernel's layer near sigma = 0, to
    an absolute 1e-14 of the row's scale min(theta, 1 / nu)."""
    qgrid = build_grid(Q)
    cut = theta if nu * theta <= 40.0 else 40.0 / nu
    tol = 1e-14 * (theta if nu * theta <= 1.0 else 1.0 / nu)
    row = np.zeros(Q + 1)
    for q in range(Q + 1):
        def integrand(s, q=q):
            return math.exp(-nu * s) * lagrange_eval(qgrid, q, 2.0 * s / theta - 1.0)

        for lo, hi in ((0.0, cut), (cut, theta)):
            if hi > lo:
                row[q] += quad(integrand, lo, hi, epsabs=tol, epsrel=0.0, limit=200)[0]
    return row


def test_maps_match_adaptive_quadrature_near_the_split():
    """R_k against ``scipy.integrate.quad`` within 1e-13 of each row's
    largest |.|, for lam = nu theta_k / 2 on either side of the
    Gauss-Legendre/Gauss-Laguerre split, at 2 split (where x = 0 is a CGL
    point of the table at even data degree), for one slow mode and at 1e3.
    At N = 2, K = 1 and T = 1 both subintervals have theta_k = 1 and
    lam = mu / 4 exactly."""
    M = 6
    grid, Q = build_grid(2), 12
    split = Q + 20
    lam = np.array([0.5, split * (1 - 1e-12), split, split * (1 + 1e-12), 2.0 * split, 1e3])
    basis = dataclasses.replace(heat_basis(M), mu=4.0 * lam)
    assembler = CoefficientAssembler(constant_family(basis), grid, TimePartition(1.0, 1))
    assert (assembler.data_degree, assembler._split) == (Q, split)
    maps = assembler.slab(1).interior.dense_maps().transpose(0, 2, 1)
    for m in range(M):
        want = quad_map_row(1.0, 2.0 * lam[m], Q)
        for R in maps:
            assert np.abs(R[m] - want).max() <= 1e-13 * np.abs(want).max(), lam[m]


def test_zero_frozen_eigenvalue_gives_finite_maps():
    """c = -a mu_1 freezes mode 1 at eigenvalue zero, which the assembler
    accepts (only negative values are refused): its maps are finite, its row
    is the integral of l_q itself, and no RuntimeWarning is raised (the
    suite turns warnings into errors)."""
    problem = build_reference_example(M=64)
    basis = problem.family.basis
    family = constant_family(basis, a=1.0, c=-basis.mu[0])
    grid = build_grid(8)
    assembler = CoefficientAssembler(family, grid, TimePartition(problem.T, 2))
    coeffs = assembler.slab(1, problem.g, None, problem.b)
    assert coeffs.interior.E[:, 0].tolist() == [1.0] * grid.N
    for name in ("E", "beta", "phi"):
        assert np.isfinite(materialised(coeffs)[name]).all(), name
    for theta, R in zip(grid.spacings, coeffs.interior.dense_maps().transpose(0, 2, 1)):
        assert np.isfinite(R).all()
        want = quad_map_row(theta, 0.0, assembler.data_degree)
        assert np.abs(R[0] - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize(
    "build, moving", [(build_reference_example, [94]), (varying_manufactured_problem, [89, 80])],
    ids=["constant", "varying"],
)
def test_slab_makes_one_interpolate_call_per_tail(build, moving, monkeypatch):
    """Once the assembler is built, assembling a slab evaluates the maps
    from the stored Chebyshev coefficients: no per-point barycentric
    ``interpolate`` call is left.  An interior with quasi-static modes makes
    one vector call, for its tail basis B at every quasi-static mode, whose
    first point, mode ``moving``, is the exact node y = 1.  At (12, 2, 128)
    the constant family's two slabs share one interior, and the varying
    family's each build their own."""
    problem = build(M=128)
    assembler = CoefficientAssembler(problem.family, build_grid(12), TimePartition(problem.T, 2))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return interpolate(*args, **kwargs)

    monkeypatch.setattr(collocation, "interpolate", counting)
    interiors = []
    for l in (1, 2):
        interior = assembler.slab(l, problem.g, problem.forcing, problem.b).interior
        if all(interior is not seen for seen in interiors):
            interiors.append(interior)
    assert [interior.moving for interior in interiors] == moving
    assert len(calls) == len(interiors)
    for (qgrid, values, points), interior in zip(calls, interiors):
        assert qgrid.N == assembler.data_degree and values.shape == (qgrid.N + 1,) * 2
        assert points.shape == (128 - interior.moving,) and points[0] == 1.0


@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
def test_zero_higher_coefficients_make_a_constant_family(reference_problem, mode, monkeypatch):
    """a = [1, 0] is the constant a = 1: the family reports so, its slabs
    share one interior, and it marches to the bits of the a = [1] family."""
    family = reference_problem.family
    padded = OperatorFamily(basis=family.basis, a_coeffs=np.array([1.0, 0.0]), c_coeffs=family.c_coeffs)
    assert padded.is_constant
    interiors = []
    slab = CoefficientAssembler.slab

    def recording(self, *args):
        coeffs = slab(self, *args)
        interiors.append(coeffs.interior)
        return coeffs

    monkeypatch.setattr(CoefficientAssembler, "slab", recording)
    config = SolverConfig(N=12, K=3, M=128, mode=mode)
    trace = march(dataclasses.replace(reference_problem, family=padded), config)
    assert len(interiors) == 3 and all(interior is interiors[0] for interior in interiors)
    plain = march(reference_problem, config)
    assert trace.node_modes().tobytes() == plain.node_modes().tobytes()


def test_a_constant_family_takes_the_identity_clock_without_its_taylor_expansion(reference_problem, monkeypatch):
    """A constant family's clock is the identity, returned before any
    Taylor expansion of a and c: the reference problem's assembler is
    built and marched with ``operators._taylor`` raising, and its slabs
    carry no clock scale for the march to take off (``unscale`` is None)."""

    def raising(*args):
        raise AssertionError("a constant family expanded its coefficients")

    monkeypatch.setattr(operators, "_taylor", raising)
    problem = reference_problem
    assembler = CoefficientAssembler(problem.family, build_grid(12), TimePartition(problem.T, 4))
    assert all(assembler.slab(l, problem.g, problem.forcing, problem.b).unscale is None for l in range(1, 5))
    trace = march(problem, SolverConfig(N=12, K=4, M=128))
    assert compute_errors(trace, problem).max_eps1 <= 1e-14


@pytest.mark.parametrize(
    "build, bound",
    [(build_reference_example, 1e-10), (varying_manufactured_problem, 1e-13)],
    ids=["constant", "varying"],
)
@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
def test_every_family_takes_the_factored_solve(build, bound, mode, monkeypatch):
    """A constant and a varying family take one solve, in the family's
    clock: at (12, 8, 128) neither march multiplies the coupling out, and
    both reach the accuracy of the exact solution."""
    problem = build(M=128)

    def refuse(self):
        raise AssertionError("the dense coupling was multiplied out")

    monkeypatch.setattr(collocation.BlockSystem, "coupling", refuse)
    trace = march(problem, SolverConfig(N=12, K=8, M=128, mode=mode))
    assert trace.refinements == 0
    assert compute_errors(trace, problem).max_eps1 <= bound


def test_neumann_restarts_build_the_sample_tables_once(monkeypatch):
    """Neumann at (12, 1, 128) refines twice to K = 4.  The local sample
    points and their Lagrange values depend on N and the data degree alone,
    so the three assemblers of one march build them once; the refined march
    still gives the bits of a march started at K = 4."""
    collocation._sample_tables.cache_clear()
    problem = build_neumann_example(M=128)
    trace = march(problem, SolverConfig(N=12, K=1, M=128))
    assert (trace.refinements, trace.partition.K) == (2, 4)
    assert collocation._sample_tables.cache_info().misses == 1
    started = march(problem, SolverConfig(N=12, K=4, M=128))
    assert started.refinements == 0
    assert trace.node_modes().tobytes() == started.node_modes().tobytes()
    assert trace.node_boundary_values().tobytes() == started.node_boundary_values().tobytes()


def test_a_degree_sweep_keeps_a_bounded_memo_and_rebuilds_the_same_bits():
    """Marching N = 2, ..., 40 uses 39 (N, data degree) pairs; the memos keep
    at most ``_TABLE_MEMO_SIZE`` of them, and the N = 2 tables, evicted and
    built again, give the bits of the first march."""
    problem = build_reference_example(M=16)
    memos = (collocation._sample_tables, collocation._gauss_tables, collocation._dct_cosines)
    for memo in memos:
        memo.cache_clear()
    first = march(problem, SolverConfig(N=2, K=1, M=16)).node_modes()
    for N in range(2, 41):
        march(problem, SolverConfig(N=N, K=1, M=16))
    for memo in memos:
        assert memo.cache_info().currsize <= collocation._TABLE_MEMO_SIZE
    misses = collocation._sample_tables.cache_info().misses
    again = march(problem, SolverConfig(N=2, K=1, M=16)).node_modes()
    assert collocation._sample_tables.cache_info().misses == misses + 1
    assert again.tobytes() == first.tobytes()


def test_repeated_paper_mix_builds_no_table_after_the_first():
    """The paper-reproduction mix (a convergence sweep over five degrees, a
    fixed-point solve, a Neumann solve that refines twice and the Euler
    baseline) fits in the memos: repeating it builds no table."""
    mix = (
        ["convergence", "--Ns", "2,4,8,12,16", "--Ks", "1"],
        ["solve", "--problem", "reference", "--N", "8", "--K", "2", "--M", "128", "--mode", "picard"],
        ["solve", "--problem", "neumann", "--N", "12", "--K", "1", "--M", "128"],
        ["baseline", "--steps", "1024"],
    )
    memos = (collocation._sample_tables, collocation._gauss_tables, collocation._dct_cosines)

    def misses_after_mix():
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in mix:
                assert cli.main(argv) == 0
        return [memo.cache_info().misses for memo in memos]

    first = misses_after_mix()
    assert misses_after_mix() == first


def counting(f, times: list):
    """``f``, recording every time it is called at in ``times``."""

    def counted(t):
        times.append(float(t))
        return f(t)

    return counted


def pointwise_assembler(problem, N, K) -> CoefficientAssembler:
    """An assembler with no slab-wide grid, which calls f at every local sample time."""
    assembler = CoefficientAssembler(problem.family, build_grid(N), TimePartition(problem.T, K))
    assembler._forcing_grid = None
    return assembler


def mode_one(M, value) -> np.ndarray:
    out = np.zeros(M)
    out[0] = value
    return out


@pytest.mark.parametrize("zero", [False, True], ids=["manufactured", "zero"])
def test_smooth_forcing_is_sampled_on_the_slab_grid(zero):
    """varcoef-forced at (12, 8, 128) is resolved at P = 16 on every slab,
    and so is an all-zero forcing: at most 17 forcing calls per slab, where
    the local sample times take N (Q + 1) = 168."""
    problem = varying_manufactured_problem()
    M = problem.family.basis.M
    forcing = (lambda t: np.zeros(M)) if zero else problem.forcing
    assembler = CoefficientAssembler(problem.family, build_grid(12), TimePartition(problem.T, 8))
    for l in range(1, 9):
        times = []
        assembler.slab(l, problem.g, counting(forcing, times), problem.b)
        assert len(times) <= 17, l


def test_kinked_forcing_falls_back_on_its_slab():
    """|t - 0.3| e_1 at (12, 4, 128) has its kink inside slab 2, which the
    degree-16 slab grid does not resolve.  f is called at the times of its
    17 points in the clock, then at every local sample time, so that slab's
    phi has the pointwise bits.  The other slabs, where f is linear, take
    at most 17 calls."""
    problem = varying_manufactured_problem()
    M = problem.family.basis.M

    def kink(t):
        return mode_one(M, abs(t - 0.3))

    N, K = 12, 4
    assembler = CoefficientAssembler(problem.family, build_grid(N), TimePartition(problem.T, K))
    pointwise = pointwise_assembler(problem, N, K)
    local = N * (assembler.data_degree + 1)
    for l in range(1, K + 1):
        times = []
        phi = data_term(assembler.slab(l, problem.g, counting(kink, times), problem.b))
        if l != 2:
            assert len(times) <= 17, l
            continue
        assert len(times) == 17 + local
        assert times[:17] == clock_times(assembler, 2, build_grid(16).nodes)[1].tolist()
        assert phi.tobytes() == data_term(pointwise.slab(l, problem.g, kink, problem.b)).tobytes()


def test_one_subinterval_samples_the_forcing_pointwise():
    """At N = 1 a slab has N (Q + 1) = 13 local sample times, fewer than the
    17 points of the smallest slab-wide degree, so f is called at each of
    them and phi has the pointwise bits."""
    problem = varying_manufactured_problem()
    assembler = CoefficientAssembler(problem.family, build_grid(1), TimePartition(problem.T, 4))
    pointwise = pointwise_assembler(problem, 1, 4)
    for l in range(1, 5):
        times = []
        phi = data_term(assembler.slab(l, problem.g, counting(problem.forcing, times), problem.b))
        assert times == clock_times(assembler, l, assembler._s_loc)[1].ravel().tolist()
        assert phi.tobytes() == data_term(pointwise.slab(l, problem.g, problem.forcing, problem.b)).tobytes()


VARCOEF_SEEDS = [
    (0.5821770123928727, 0.20791468550554815, 1.5819470478723894),
    (0.507092974820154, 0.4801854785303742, 1.7883192254392675),
    (0.35696728054958987, 0.21939645736564933, 3.1284514811885606),
]
"""(a1, c1, kappa) drawn by seeds 0-2 of the varcoef-forced benchmark (``perfbench/varcoef.py``)."""


def correctly_rounded_forcing(problem, kappa: float):
    """The manufactured forcing (a(t) mu_1 + c(t) - kappa) e^{-kappa t} e_1,
    evaluated in 40-digit decimal arithmetic and rounded once."""
    family = problem.family
    mu1 = decimal.Decimal(float(family.basis.mu[0]))
    rate = decimal.Decimal(kappa)

    def horner(coeffs, t):
        value = decimal.Decimal(0)
        for coef in reversed(coeffs):
            value = value * t + decimal.Decimal(float(coef))
        return value

    def forcing(t):
        with decimal.localcontext() as context:
            context.prec = 40
            time = decimal.Decimal(float(t))
            mu = horner(family.a_coeffs, time) * mu1 + horner(family.c_coeffs, time)
            value = (mu - rate) * (-rate * time).exp()
        return mode_one(family.basis.M, float(value))

    return forcing


@pytest.mark.parametrize("params", [None, *VARCOEF_SEEDS], ids=["manufactured", "seed-0", "seed-1", "seed-2"])
def test_interpolated_forcing_matches_the_pointwise_phi(params):
    """phi from the slab-wide samples is within 1e-15 of each row's largest
    |phi| of the pointwise path, at (12, 8, 128).  The varcoef seeds'
    forcings are correctly rounded here: in double precision a(t) mu_1 +
    c(t) - kappa cancels up to six bits near its zero, so the two paths,
    which sample at different times, see different noise (2.5e-15 apart at
    seed 2), however accurate the interpolation."""
    if params is None:
        problem = varying_manufactured_problem()
        forcing = problem.forcing
    else:
        problem = varying_manufactured_problem(128, *params)
        forcing = correctly_rounded_forcing(problem, params[2])
    assembler = CoefficientAssembler(problem.family, build_grid(12), TimePartition(problem.T, 8))
    pointwise = pointwise_assembler(problem, 12, 8)
    for l in range(1, 9):
        got = data_term(assembler.slab(l, problem.g, forcing, problem.b))
        want = data_term(pointwise.slab(l, problem.g, forcing, problem.b))
        bound = 1e-15 * np.abs(want).max(axis=1, keepdims=True)
        assert (np.abs(got - want) <= bound).all(), l


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
def test_non_finite_forcing_stops_the_march_on_its_slab(mode, bad):
    """A forcing that is NaN (or inf) in mode 1 for t > 0.5 first reaches
    slab 3 of (8, 4, 128).  Its slab-grid samples are not all finite, so
    they are interpolated as they are, with no warning: 16 calls past
    t = 0.5, none point by point."""
    problem = varying_manufactured_problem()
    times = []

    def forcing(t):
        out = problem.forcing(t)
        if t > 0.5:
            out[0] = bad
        return out

    with pytest.raises(NonFiniteStageError, match="on slab 3") as exc:
        config = SolverConfig(N=8, K=4, M=128, mode=mode)
        march(dataclasses.replace(problem, forcing=counting(forcing, times)), config)
    assert exc.value.slab == 3
    assert sum(t > 0.5 for t in times) == 16


LAYOUT_CASES = pytest.mark.parametrize(
    "build, M",
    [
        (build_reference_example, 128),
        (build_reference_example, 4096),
        (varying_manufactured_problem, 128),
        (varying_manufactured_problem, 4096),
    ],
    ids=["constant-128", "constant-4096", "varying-128", "varying-4096"],
)


def second_slab(build, M, N=12, K=4):
    problem = build(M=M)
    assembler = CoefficientAssembler(problem.family, build_grid(N), TimePartition(problem.T, K))
    return problem, assembler, assembler.slab(2, problem.g, problem.forcing, problem.b)


@LAYOUT_CASES
def test_maps_are_stored_mode_contiguous(build, M):
    """maps[k-1] is R_k on the moving modes as (Q+1, moving), rows of
    contiguous values, so every pass of the maps over the modes reads them
    in order; past them the tail holds C_k, (Q+1, Q+1), and B, (Q+1,
    M - moving), or (Q+1, 0) and (0, 0) where every mode moves."""
    _, assembler, system = second_slab(build, M)
    interior, Q1 = system.interior, assembler.data_degree + 1
    moving = interior.moving
    tail = ((12, Q1, Q1), (Q1, M - moving)) if moving < M else ((12, Q1, 0), (0, 0))
    assert interior.maps.shape == (12, Q1, moving)
    assert (interior.tail_maps.shape, interior.tail_basis.shape) == tail
    assert interior.maps.flags.c_contiguous and interior.tail_maps.flags.c_contiguous


def assert_rows_agree(got, want, scale, rel=1e-15):
    """|got - want| within ``rel`` of the largest entry of each row of
    ``scale``, the same sum over absolute values (the sum's roundoff scale)."""
    bound = rel * np.abs(scale).max(axis=-1, keepdims=True)
    assert (np.abs(got - want) <= bound).all()


@LAYOUT_CASES
def test_map_passes_agree_with_a_plain_einsum_over_the_maps(build, M):
    """``modes``, ``trace_weights``, ``trace_images`` and ``coupling()``
    against np.einsum over R_k[q, m] multiplied out over all modes
    (``dense_maps``), within 1e-15 of each row.  The
    reference sums in extended precision, and trace_weights and
    trace_images, which sum over the M modes, get 3e-15: there a float64
    einsum's own roundoff reaches 9e-15 of the row at M = 4096, and the
    solver's 1.5e-15 (a BLAS kernel of another CPU may round otherwise)."""
    _, _, system = second_slab(build, M)
    interior = system.interior
    wide = np.longdouble
    maps, s, trace = interior.dense_maps().astype(wide), interior.coupling_scale.astype(wide), interior.trace.astype(wide)
    c = np.random.default_rng(7).standard_normal(interior.maps.shape[:2])
    want = s * np.einsum("kqm,kq->km", maps, c)
    assert_rows_agree(interior.modes(c), want, s * np.einsum("kqm,kq->km", abs(maps), abs(c)))
    lag_b = system.lag_b.astype(wide)
    want = np.einsum("kjq,kqm->kjm", lag_b, maps) * s
    scale = np.einsum("kjq,kqm->kjm", abs(lag_b), abs(maps)) * s
    assert_rows_agree(system.coupling(), want, scale)
    want = np.einsum("m,m,kqm->kq", trace, s, maps)
    scale = np.einsum("m,m,kqm->kq", abs(trace), abs(s), abs(maps))
    assert_rows_agree(interior.trace_weights, want, scale, rel=3e-15)
    sweep = system.s_tilde_inverse_blocks().astype(wide)
    want = np.einsum("m,kim,m,iqm->kiq", trace, sweep, s, maps)
    scale = np.einsum("m,kim,m,iqm->kiq", abs(trace), sweep, abs(s), abs(maps))
    assert_rows_agree(interior.trace_images, want, scale, rel=3e-15)


@pytest.mark.parametrize("data", [True, False], ids=["data", "no-data"])
@pytest.mark.parametrize(
    "build", [build_reference_example, varying_manufactured_problem], ids=["constant", "varying"]
)
def test_in_place_stage_sums_keep_the_left_to_right_order(build, data):
    """Phi and the stage residual, summed in place, equal their out-of-place
    formulas bit for bit, with a -0.0 in x0 (and w0 = -0.0 without data,
    where only signed zeros and F_x x0 meet), and the solver leaves its
    inputs unchanged.  Phi is the one boundary pass modes(V[0] w0 - g),
    then E[0] x0 added to row 1, then the forcing, over all modes for both
    solvers (``_add_inflow``); ``modes`` takes the moving modes through the
    maps and the quasi-static ones as (c_k C_k) B, each scaled by s last.
    The direct solve's x~ is S~^{-1} D w + S~^{-1} Phi, each swept on its
    own, with D w = modes(V w) of the w it returns.  At
    M = 512, K = 2, 94 of the modes move on the constant family's slab 2.
    With data, a forcing in every mode is added to the problem's, so that
    the order of the three terms shows in every mode."""
    M = 512
    problem = build(M=M)
    dense = np.random.default_rng(6).standard_normal(M)

    def forcing(t):
        own = 0.0 if problem.forcing is None else problem.forcing(t)
        return own + math.exp(-t) * dense

    assembler = CoefficientAssembler(problem.family, build_grid(12), TimePartition(problem.T, 2))
    system = assembler.slab(2, *((problem.g, forcing, problem.b) if data else ()))
    interior = system.interior
    x0 = np.random.default_rng(5).standard_normal(M)
    x0[[0, 3, M - 1]] = -0.0
    w0 = float(x0 @ problem.basis.boundary_trace) if data else -0.0
    c0 = w0 * system.lag_b[:, 0] - system.g_loc
    moving = interior.moving
    assert 0 < moving < M
    s = interior.coupling_scale
    head = np.matmul(c0[:, None], interior.maps)[:, 0] * s[:moving]
    tail = (np.matmul(c0[:, None], interior.tail_maps)[:, 0] @ interior.tail_basis) * s[moving:]
    assert interior.modes(c0).tobytes() == np.concatenate([head, tail], axis=1).tobytes()
    want = interior.modes(c0)
    want[0] = want[0] + system.E[0] * x0
    if system.forcing is not None:
        want = want + system.forcing
    assert (system.forcing is not None) == data
    inputs = [a.tobytes() for a in (x0, system.E, system.g_loc, system.lag_b)]
    Phi = collocation._add_inflow(system, x0, w0)
    solved = collocation.solve_stage_direct(system, x0, w0)
    assert [a.tobytes() for a in (x0, system.E, system.g_loc, system.lag_b)] == inputs
    assert Phi.tobytes() == want.tobytes()
    x, w_int = solved.x, solved.boundary_traces[1:]
    Dw = interior.modes(np.einsum("kjq,j->kq", system.lag_b[:, 1:], w_int))
    assert x[0].tobytes() == x0.tobytes()
    swept = [collocation._forward_sub(system, a.copy()) for a in (Dw, Phi)]
    assert x[1:].tobytes() == (swept[0] + swept[1]).tobytes()

    x = x.copy()
    inputs = [a.tobytes() for a in (x0, x, w_int, Phi, Dw)]
    stage = collocation._stage_solution(system, x, w0, w_int, Phi, Dw, 0.0)
    assert [a.tobytes() for a in (x0, x, w_int, Phi, Dw)] == inputs
    xt = x[1:]
    rhs = collocation._imsc(system, xt) + Dw + Phi
    trace = w_int - collocation._lam_apply(system, rhs)
    want = float(max(np.abs(xt - rhs).max(), np.abs(trace).max()))
    assert np.float64(stage.residual).tobytes() == np.float64(want).tobytes()
    assert np.float64(solved.residual).tobytes() == np.float64(want).tobytes()


def map_reads(problem, N, K, M, monkeypatch):
    """The march of ``problem`` on (N, K, M), with the shapes of the maps,
    C_k, B and the sample-space values c at each ``modes`` call."""
    calls = []
    modes = collocation.SlabInterior.modes

    def counting(self, c):
        calls.append((self.maps.shape, self.tail_maps.shape, self.tail_basis.shape, c.shape))
        return modes(self, c)

    monkeypatch.setattr(collocation.SlabInterior, "modes", counting)
    trace = march(problem, SolverConfig(N=N, K=K, M=M, T=problem.T))
    assert (trace.refinements, len(trace.stages)) == (0, K)
    return calls


@pytest.mark.parametrize(
    "build, K, moving",
    [(build_reference_example, 1, 67), (build_reference_example, 4, 128)],
    ids=["reference-1", "reference-4"],
)
def test_constant_family_direct_march_reads_the_maps_once_per_slab(build, K, moving, monkeypatch):
    """Each slab of a constant-family direct march takes its sample-space
    values to modes twice, for Phi before the trace solve and for D w
    after it, each over all modes: the moving ones through the maps, which
    hold no other column, and the quasi-static ones through C_k and B.  Of
    the 128 modes, 67 move at K = 1, and all at K = 4, where the tail is
    empty.  K slabs, no refinement."""
    N, M, Q1 = 12, 128, 13
    calls = map_reads(build(M=M), N, K, M, monkeypatch)
    tail = ((N, Q1, Q1), (Q1, M - moving)) if moving < M else ((N, Q1, 0), (0, 0))
    assert calls == 2 * K * [((N, Q1, moving), *tail, (N, Q1))]


def stage_by_stage(problem, N, K):
    """The stages of a march on (N, K), no refinement, from standalone
    :func:`solve_stage_direct` calls on one assembler, with the clock's
    scale taken off as the march takes it."""
    assembler = CoefficientAssembler(problem.family, build_grid(N), TimePartition(problem.T, K))
    x, w = problem.u0, float(problem.u0 @ problem.family.basis.boundary_trace)
    stages = []
    for l in range(1, K + 1):
        system = assembler.slab(l, problem.g, problem.forcing, problem.b)
        stage = solve_stage_direct(system, x, w)
        if system.unscale is not None:
            for values in (stage.x.T, stage.boundary_traces, stage.y):
                values *= system.unscale
        x, w = stage.x[-1], float(stage.boundary_traces[-1])
        stages.append(stage)
    return stages


@pytest.mark.parametrize(
    "build, N, K, M",
    [
        (build_reference_example, 12, 4, 4096),
        (build_neumann_example, 12, 4, 4096),
        (build_decay_example, 12, 4, 1024),
        (build_zero_example, 12, 3, 512),
        (constant_forced_problem, 12, 3, 128),
        (varying_manufactured_problem, 12, 4, 4096),
        (build_reference_example, 12, 1, 512),
        (constant_forced_problem, 12, 1, 128),
    ],
    ids=["reference", "neumann", "decay", "zero", "forced", "varying", "reference-1", "forced-1"],
)
def test_march_equals_standalone_stage_solves(build, N, K, M):
    """A march equals a loop of standalone stage solves bit for bit: node
    modes, w, y and every stage residual, and each slab's node 0 is the
    previous slab's last node.  Decay and zero hold signed zeros; the
    forced problem (105 of 128 modes move) has a forcing past ``moving``;
    the varying family's slabs each have their own interior, with the
    clock's scale taken off.  67 of 512 modes move on the one-slab
    reference march, 61 of 128 on the forced one."""
    problem = build(M=M)
    trace = march(problem, SolverConfig(N=N, K=K, M=M, T=problem.T))
    assert trace.refinements == 0
    stages = stage_by_stage(problem, N, K)
    assert len(trace.stages) == len(stages) == K
    for got, want in zip(trace.stages, stages):
        assert got.slab == want.slab
        for name in ("x", "boundary_traces", "y"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (got.slab, name)
        assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()
    for before, after in zip(trace.stages, trace.stages[1:]):
        assert after.x[0].tobytes() == before.x[-1].tobytes()


def test_boundary_data_nan_on_one_slab_of_a_run_names_that_slab():
    """At (12, 4, 4096) the four slabs share one interior, whose
    quasi-static modes are all but 133.  A g that is NaN only inside slab 2,
    t in (0.3, 0.45), raises on slab 2 at once, before g is sampled past
    slab 2."""
    base = build_reference_example(M=4096)
    calls = []

    def g(t):
        calls.append(t)
        return math.nan if 0.3 < t < 0.45 else float(base.g(t))

    problem = dataclasses.replace(base, g=g)
    with pytest.raises(NonFiniteStageError, match="on slab 2") as exc:
        march(problem, SolverConfig(N=12, K=4, M=4096, T=problem.T))
    assert exc.value.slab == 2
    assert max(calls) <= 0.5


@pytest.mark.parametrize("later", ["nan", "refines"])
def test_a_non_finite_quasi_static_column_raises_before_a_later_slab(later, monkeypatch):
    """At (12, 4, 1024) the D w pass of slab 1 leaves an inf in the last
    mode, which is quasi-static, on subinterval 1, as a pass that overflows
    would: only that column of the stage values is not finite, and the
    residual is NaN.  The error names slab 1 when slab 2's interior rows
    are NaN (g is NaN inside slab 2) and when slab 2's coupling reaches
    the refinement threshold, before any restart."""
    base = build_reference_example(M=1024)
    problem = base
    if later == "nan":
        problem = dataclasses.replace(base, g=lambda t: math.nan if 0.3 < t < 0.45 else float(base.g(t)))
    norm = collocation.BlockSystem.contraction_norm
    solve = collocation.solve_stage_direct

    def overflowing(system, x0, w0):
        if system.slab != 1:
            return solve(system, x0, w0)
        modes = collocation.SlabInterior.modes
        passes = []

        def second_overflows(self, c):
            out = modes(self, c)
            passes.append(out)
            if len(passes) == 2:
                out[0, -1] = np.inf
            return out

        monkeypatch.setattr(collocation.SlabInterior, "modes", second_overflows)
        try:
            stage = solve(system, x0, w0)
        finally:
            monkeypatch.setattr(collocation.SlabInterior, "modes", modes)
        x, w_int = stage.x, stage.boundary_traces[1:]
        assert system.interior.moving < system.M and not np.isfinite(x[1, -1])
        assert np.isfinite(np.delete(x, -1, axis=1)).all() and np.isfinite(w_int).all()
        return stage

    monkeypatch.setattr(collocation, "solve_stage_direct", overflowing)
    if later == "refines":
        monkeypatch.setattr(
            collocation.BlockSystem, "contraction_norm", lambda self: 0.75 if self.slab == 2 else norm(self)
        )
    partitions = []
    init = CoefficientAssembler.__init__

    def counting(self, family, grid, partition):
        partitions.append(partition.K)
        init(self, family, grid, partition)

    monkeypatch.setattr(CoefficientAssembler, "__init__", counting)
    # the residual's interior rows take inf - inf in that column, which numpy reports as invalid
    with pytest.raises(NonFiniteStageError, match="on slab 1") as exc, np.errstate(invalid="ignore"):
        march(problem, SolverConfig(N=12, K=4, M=1024, T=problem.T))
    assert exc.value.slab == 1 and np.isnan(exc.value.residual)
    assert partitions == [4]


def test_only_the_trace_row_and_the_interior_tables_read_the_trace():
    """Lambda x, the trace row contracted with the modes, is spelled once:
    ``_lam_apply``.  Besides it only the interior's trace weights and trace
    images, the tables the constant-family solve reads, take the trace."""
    tree = ast.parse(pathlib.Path(collocation.__file__).read_text())
    readers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and any(isinstance(node, ast.Attribute) and node.attr == "trace" for node in ast.walk(function))
    }
    assert readers == {"_lam_apply", "trace_weights", "trace_images"}


def test_s_tilde_and_the_coupling_scale_are_each_built_once():
    """S~ negates the propagator E in ``BlockSystem.s_tilde_blocks`` only,
    which the LU solve factorises as well, and tau meets the kernel scale
    a mu0 lift in ``SlabInterior.coupling_scale`` only, which the
    multiplied-out coupling reads as well."""
    tree = ast.parse(pathlib.Path(collocation.__file__).read_text())

    def names(node, name):
        return any(
            isinstance(n, ast.Attribute) and n.attr == name or isinstance(n, ast.Name) and n.id == name
            for n in ast.walk(node)
        )

    def negates_E(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return names(node.operand, "E")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            return names(node.right, "E")
        return isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub) and names(node.value, "E")

    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    assert {f.name for f in functions if any(negates_E(n) for n in ast.walk(f))} == {"s_tilde_blocks"}
    scale_readers = [
        f for f in functions
        if any(isinstance(n, ast.Attribute) and n.attr == "kernel_scale" for n in ast.walk(f))
    ]
    assert [f.name for f in scale_readers] == ["coupling_scale"]
    assert names(scale_readers[0], "tau")


def all_modes_move(monkeypatch):
    """Build every interior with all its modes in the maps and no tail: the
    quasi-static columns are taken by the Gauss-Laguerre rule one (k, n) at
    a time, as the moving modes' columns are, so that every sweep and every
    map pass runs over all the modes, exact-zero products included."""
    build = CoefficientAssembler._interior

    def whole(self, tau, t_m):
        interior = build(self, tau, t_m)
        N, Q1, moving = interior.maps.shape
        half = 0.5 * self.grid.spacings[:, None]
        h = 1.0 / (half * (0.5 * tau * self.family.frozen_eigenvalues(t_m))[moving:])
        chebyshev = collocation._chebyshev_basis(2.0 * self._split * h.ravel() - 1.0, Q1 - 1, (half * h).ravel())
        tail = np.matmul(self._laguerre.T, chebyshev.reshape(Q1, *h.shape).transpose(1, 0, 2))
        return dataclasses.replace(
            interior, maps=np.concatenate([interior.maps, tail], axis=2),
            tail_maps=np.empty((N, Q1, 0)), tail_basis=np.empty((0, 0)),
        )

    monkeypatch.setattr(CoefficientAssembler, "_interior", whole)


@pytest.mark.parametrize(
    "build, N, K, M, moving",
    [
        (build_reference_example, 12, 4, 4096, 133),
        (varying_manufactured_problem, 12, 4, 4096, 129),
        (build_reference_example, 16, 32, 128, 128),
        (varying_manufactured_problem, 16, 32, 128, 128),
    ],
    ids=["constant-4096", "varying-4096", "constant-128", "varying-128"],
)
def test_moving_counts_the_modes_with_a_nonzero_propagator(build, N, K, M, moving):
    """At (12, 4, 4096) E underflows to 0.0 on every subinterval past mode
    133; the varying family's slab 1 freezes a = 1 + t / 2 at its
    midpoint, a = 1.0625, and its E underflows past mode 129.  At
    (16, 32, 128) every mode moves.  E, whose exp is taken only up to the
    last mode that can be nonzero, has the bytes of exp over all modes."""
    problem = build(M=M)
    grid = build_grid(N)
    assembler = CoefficientAssembler(problem.family, grid, TimePartition(problem.T, K))
    interior = assembler.slab(1, problem.g, problem.forcing, problem.b).interior
    assert interior.moving == moving
    assert interior.E[:, moving - 1].any() and not interior.E[:, moving:].any()
    nu = 0.5 * interior.tau * problem.family.frozen_eigenvalues(assembler._centres[0])
    assert interior.E.tobytes() == np.exp(-nu * grid.spacings[:, None]).tobytes()


def test_moving_does_not_assume_a_monotone_propagator():
    """A nonzero E past a run of zeros, on some subintervals only, still
    counts, and the tail past it need not be monotone in the rate.  At
    N = 3, K = 1 and T = 1 the subintervals have theta = 0.5, 1, 0.5, so
    E = exp(-mu theta / 2): mode 4 (mu = 2e3) is nonzero on the short ones
    only, modes 1-3 and the tail are zero everywhere.  With every E zero
    the tail holds every mode.  Every column of the multiplied-out maps
    matches the barycentric table within 4e-15 of its largest |.|."""
    grid = build_grid(3)
    for mu, moving in (([1.0, 4e3, 6e3, 5e3, 2e3, 8e3, 5e3], 5), ([4e3, 8e3, 5e3], 0)):
        mu = np.array(mu)
        basis = dataclasses.replace(heat_basis(mu.size), mu=mu)
        assembler = CoefficientAssembler(constant_family(basis), grid, TimePartition(1.0, 1))
        interior = assembler.slab(1).interior
        assert interior.moving == moving
        assert interior.E[:, moving - 1].any() if moving else not interior.E.any()
        assert not interior.E[:, moving:].any() and interior.tail_basis.shape[1] == mu.size - moving
        for k, R in enumerate(interior.dense_maps().transpose(0, 2, 1)):
            want = barycentric_map(assembler, k, 0.5 * mu)
            assert (np.abs(R - want).max(axis=1) <= 4e-15 * np.abs(want).max(axis=1)).all(), k


def test_a_quasi_static_mode_within_the_split_keeps_its_gauss_legendre_column():
    """The tail starts past every mode whose E is nonzero somewhere or
    whose lam is at most the split on the shortest subinterval: E = 0
    alone implies lam > 372.5, which exceeds the split only for data
    degrees up to 352.  With the split patched to 400, at N = 2, K = 1 and
    T = 1 (theta = 1, lam = mu / 4), the modes at lam = 380 and 390 have
    E = 0 on both subintervals but stay in the maps, where their columns
    are the Gauss-Legendre rule's bit for bit; the tail starts at lam = 500."""
    lam = np.array([1.0, 380.0, 390.0, 500.0, 600.0])
    basis = dataclasses.replace(heat_basis(lam.size), mu=4.0 * lam)
    assembler = CoefficientAssembler(constant_family(basis), build_grid(2), TimePartition(1.0, 1))
    assembler._split = 400.0
    interior = assembler.slab(1).interior
    assert not interior.E[:, 1:].any() and interior.moving == 3
    z, w_lag = assembler._legendre
    want = 0.5 * (np.exp(-np.tile(lam[:3], 2)[:, None] * (1.0 + z)) @ w_lag)
    assert interior.maps.tobytes() == want.reshape(2, 3, -1).transpose(0, 2, 1).tobytes()


@LAYOUT_CASES
def test_sweeps_over_the_moving_modes_equal_the_sweeps_over_all(build, M):
    """``_forward_sub`` and ``_imsc`` against their formulas over all
    modes, bit for bit.  The block vectors
    are random with every other row zero, so that each product E[k] r[k-1]
    lands on a zero, where even a subnormal shows."""
    _, _, system = second_slab(build, M)
    E = system.E

    def swept(r):
        want = r.copy()
        for k in range(1, system.N):
            want[k] = want[k] + E[k] * want[k - 1]
        return want

    for parity in (0, 1):
        r = np.random.default_rng(8).standard_normal((system.N, M))
        r[parity::2] = 0.0
        want = swept(r)
        assert collocation._forward_sub(system, r.copy()).tobytes() == want.tobytes()
        want = np.zeros(r.shape)
        want[1:] = want[1:] + E[1:] * r[:-1]
        assert collocation._imsc(system, r).tobytes() == want.tobytes()


def nodal_values(trace) -> np.ndarray:
    """w, y and the mode vectors at every node, one row per node."""
    return np.column_stack([trace.node_boundary_traces(), trace.node_boundary_values(), trace.node_modes()])


@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
@pytest.mark.parametrize("N, K, M", [(12, 1, 512), (12, 4, 4096)])
@pytest.mark.parametrize(
    "build",
    [build_reference_example, build_neumann_example, varying_manufactured_problem],
    ids=["reference", "neumann", "varying"],
)
def test_sweeping_the_moving_modes_only_keeps_the_march(build, N, K, M, mode, monkeypatch):
    """The march with the sweeps cut at ``moving`` and the quasi-static
    maps in their separable form C_k B against the march whose maps hold
    every mode (``all_modes_move``): max_eps1 is the same float, and the
    node values agree within 1e-15 of each node's largest for the direct
    solve.  Only the quasi-static columns and the sums that drop exact
    zeros may round otherwise.

    The fixed-point solve gets 3e-14, from the 2.2e-14 measured on
    Neumann (12, 1, 512) (4.6e-15 at (12, 4, 4096)).  The whole difference
    comes from the trace weights H, whose quasi-static part C_k (B t s)
    sums in another order: taking H alone from the separable form leaves
    the two marches within 1.6e-16.  H moves W = (I - Lambda D)^{-1} by a
    few ulps, and the fixed-point trace row W (Lambda (I - S~) x + Lambda Phi)
    applies W to two terms of about 0.37 that cancel to w of about 1e-3 on
    the first slab, so w moves by about 1e-17, which is 2e-14 of the
    decayed values of the last node.  The direct solve applies its matrix
    to w itself.  Fixed point and direct differ by 7e-12 of each node's
    largest there, at the default tolerance."""
    problem = build(M=M)
    config = SolverConfig(N=N, K=K, M=M, T=problem.T, mode=mode)
    split = march(problem, config)
    all_modes_move(monkeypatch)
    full = march(problem, config)
    assert split.refinements == full.refinements
    assert (split.node_times() == full.node_times()).all()
    want = nodal_values(full)
    assert_rows_agree(nodal_values(split), want, want, rel=1e-15 if mode == "direct" else 3e-14)
    assert compute_errors(split, problem).max_eps1 == compute_errors(full, problem).max_eps1


@pytest.mark.parametrize("mode", ["direct", "picard"])
@pytest.mark.parametrize("N, K, M", [(12, 1, 512), (12, 4, 4096)])
@pytest.mark.parametrize("problem", ["zero", "decay"])
def test_zero_and_decay_solves_print_the_same_bytes_when_only_moving_modes_sweep(problem, N, K, M, mode, monkeypatch):
    """Zero data: every stage value is a signed zero or exact, so the CSV
    shows each sign.  The skipped products turned the -0.0 of rows 2..N
    into 0.0; the sweep's one ``+= 0.0`` over the other modes must too."""
    argv = ["solve", "--problem", problem, "--N", str(N), "--K", str(K), "--M", str(M), "--mode", mode]

    def printed() -> str:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        return out.getvalue()

    split = printed()
    all_modes_move(monkeypatch)
    full = printed()
    identical = split == full  # a plain assert would render a diff of megabytes
    assert identical, f"{split.count('-0.0')} -0.0 cells printed, {full.count('-0.0')} over all modes"


@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
def test_nan_boundary_data_stops_the_march_when_most_modes_do_not_move(mode):
    """At (12, 1, 1024) only 67 modes move; a NaN g still reaches the
    stage values and raises on slab 1."""
    problem = dataclasses.replace(build_reference_example(M=1024), g=lambda t: np.nan)
    with pytest.raises(NonFiniteStageError, match="on slab 1") as exc:
        march(problem, SolverConfig(N=12, K=1, M=1024, T=problem.T, mode=mode))
    assert exc.value.slab == 1


@pytest.mark.parametrize("K", [1, 3])
def test_nan_boundary_data_stops_the_march_when_no_mode_moves(K):
    """With c = 1e6 no mode moves at M = 64: the interior rows are empty,
    their defect 0.0, and a NaN g reaches only the trace rows, whose NaN
    the residual keeps.  Both solvers raise on slab 1."""
    base = build_reference_example(M=64)
    problem = dataclasses.replace(base, family=constant_family(base.basis, a=1.0, c=1e6), g=lambda t: np.nan)
    for mode in ("direct", "fixed_point"):
        with pytest.raises(NonFiniteStageError, match="on slab 1") as exc:
            march(problem, SolverConfig(N=12, K=K, M=64, T=problem.T, mode=mode))
        assert exc.value.slab == 1


def test_a_nan_in_the_last_initial_mode_makes_a_standalone_residual_nan():
    """At (12, 1, 1024) the last mode is quasi-static and E[0] is 0.0
    there, so a NaN in x0's last mode makes E[0] x0 NaN in that column of
    Phi, which the trace row Lambda S~^{-1} Phi carries to w and so to
    every stage value.  The residual is NaN."""
    M = 1024
    problem = build_reference_example(M=M)
    system = assemble_coefficients(
        problem.family, build_grid(12), TimePartition(problem.T, 1), 1, problem.g, problem.forcing, problem.b
    )
    x0 = problem.u0.copy()
    x0[-1] = np.nan
    stage = solve_stage_direct(system, x0, float(problem.u0 @ problem.basis.boundary_trace))
    assert np.isnan(stage.x[1:]).all() and np.isnan(stage.boundary_traces[1:]).all()
    assert np.isnan(stage.residual)


def test_a_forcing_nan_in_the_last_mode_alone_stops_the_direct_march():
    """At (12, 1, 1024) only 67 modes move.  A forcing that is NaN in the
    last mode only, which is quasi-static, reaches the stage values
    through the trace row Lambda S~^{-1} Phi, and raises on slab 1."""
    M = 1024

    def forcing(t):
        out = np.zeros(M)
        out[-1] = np.nan
        return out

    problem = dataclasses.replace(build_reference_example(M=M), forcing=forcing)
    with pytest.raises(NonFiniteStageError, match="on slab 1") as exc:
        march(problem, SolverConfig(N=12, K=1, M=M, T=problem.T))
    assert exc.value.slab == 1


def test_a_slab_where_no_mode_moves_is_all_quasi_static():
    """With c = 1e6 every propagator underflows (``moving`` is 0): the maps
    are empty, every mode is in the tail C_k B, and the direct solve has
    no moving block to sweep.  Its stage is finite, its residual tiny, and
    it agrees with the fixed-point solve."""
    base = build_reference_example(M=64)
    problem = dataclasses.replace(base, family=constant_family(base.basis, a=1.0, c=1e6))
    config = SolverConfig(N=6, K=1, M=64, T=problem.T)
    assembler = CoefficientAssembler(problem.family, build_grid(6), TimePartition(problem.T, 1))
    assert assembler.slab(1, problem.g, problem.forcing, problem.b).interior.moving == 0
    direct = march(problem, config)
    fixed = march(problem, dataclasses.replace(config, mode="fixed_point"))
    assert direct.stages[0].residual <= 1e-15
    want = nodal_values(fixed)
    assert np.isfinite(want).all()
    assert_rows_agree(nodal_values(direct), want, want, rel=1e-13)


@pytest.mark.parametrize("value", WRONG_SHAPES, ids=WRONG_SHAPE_IDS)
@pytest.mark.parametrize("N", [8, 1], ids=["slab-grid", "pointwise"])
@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
def test_a_forcing_value_of_the_wrong_shape_is_rejected(value, N, mode):
    """A forcing value must hold M modes: one of any other shape raises
    ``ValueError`` naming the time, the shape and M, on the slab grid
    (N = 8) and on the pointwise path (N = 1), instead of being broadcast
    to every mode or failing inside numpy."""
    M = 16
    problem = dataclasses.replace(varying_manufactured_problem(M), forcing=lambda t: value(M))
    with pytest.raises(ValueError, match=wrong_shape_message(value, M)):
        march(problem, SolverConfig(N=N, K=2, M=M, mode=mode))


@pytest.mark.parametrize("mode", ["direct", "fixed_point"])
@pytest.mark.parametrize(
    "build, N, K",
    [(build_reference_example, 8, 4), (varying_manufactured_problem, 12, 4), (build_neumann_example, 12, 1)],
    ids=["constant", "varying", "neumann-restarts"],
)
def test_march_holds_one_slab_system_at_a_time(build, N, K, mode, monkeypatch):
    """When a slab is assembled, the previous slab's ``BlockSystem``, with
    its maps, has been freed, also when the march restarts on a doubled
    partition (the Neumann problem refines twice)."""
    systems, alive = [], []
    slab = CoefficientAssembler.slab

    def tracked(self, l, *data):
        alive.append([ref().slab for ref in systems if ref() is not None])
        system = slab(self, l, *data)
        systems.append(weakref.ref(system))
        return system

    monkeypatch.setattr(CoefficientAssembler, "slab", tracked)
    trace = march(build(M=128), SolverConfig(N=N, K=K, M=128, mode=mode))
    assert len(alive) >= trace.partition.K
    assert all(held == [] for held in alive), alive
