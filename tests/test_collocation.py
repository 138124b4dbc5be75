"""Coefficient assembly, the block system, and both stage solvers.

The beta oracle integrates the assembled integrand directly with adaptive
quadrature, mode by mode, so any sign or scaling slip in the moment route
shows up immediately.
"""

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
    build_reference_example,
    build_zero_example,
    compute_errors,
    constant_family,
    heat_basis,
    lagrange_eval,
    march,
    solve_stage_direct,
)
from duhamelcheb.collocation import CoefficientAssembler, block_matrix_inf_norm
from duhamelcheb.mesh import TimePartition
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


@pytest.mark.parametrize("N", [16, 24])
def test_varying_family_marches_to_roundoff(N):
    """Manufactured solution e^{-kappa t} sin(pi x / 2) under a = 1 + 0.5 t,
    c = 0.3 t: mode 1 carries the forcing, g = b u(1, .).  The frozen-operator
    defect must be integrated as accurately as the data at every degree."""
    M, kappa, rate_b = 128, 2.5, np.pi**2 / 2.0
    basis = heat_basis(M)
    family = OperatorFamily(basis=basis, a_coeffs=np.array([1.0, 0.5]), c_coeffs=np.array([0.0, 0.3]))
    u0 = np.zeros(M)
    u0[0] = 1.0

    def forcing(t):
        out = np.zeros(M)
        out[0] = (family.frozen_eigenvalues(t)[0] - kappa) * np.exp(-kappa * t)
        return out

    prob = HeatProblem(
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
    trace = march(prob, SolverConfig(N=N, K=8, M=M), auto_refine=False)
    assert compute_errors(trace, prob).max_eps1 <= 1e-13


@pytest.mark.parametrize("N", [4, 8, 16])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_s_tilde_explicit_inverse(N, gamma):
    basis = heat_basis(40)
    family = constant_family(basis)
    grid = build_grid(N)
    partition = TimePartition(1.0, 1)
    coeffs = assemble_coefficients(family, grid, partition, l=1)
    system = assemble_block_system(coeffs, family, lambda t: 1.0, gamma=gamma)
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
    system = assemble_block_system(coeffs, family, lambda t: 1.0, gamma=0.5)
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


def test_gamma_scaling_leaves_solution_unchanged(reference_problem):
    family = reference_problem.family
    grid = build_grid(8)
    partition = TimePartition(1.0, 1)
    assembler = CoefficientAssembler(family, grid, partition)
    coeffs = assembler.slab(1, reference_problem.g, None, reference_problem.b)
    x0 = reference_problem.u0
    w0 = float(x0 @ family.basis.boundary_trace)
    base = solve_stage_direct(
        assemble_block_system(coeffs, family, reference_problem.b, gamma=0.0), x0, w0
    )
    scaled = solve_stage_direct(
        assemble_block_system(coeffs, family, reference_problem.b, gamma=0.5), x0, w0
    )
    assert np.abs(base.x - scaled.x).max() <= 1e-10
    assert np.abs(base.y - scaled.y).max() <= 1e-10


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
