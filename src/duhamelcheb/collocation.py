"""Slab-wise collocation of the Duhamel integral system.

On each time slab the evolution problem is recast, through the
variation-of-constants formula with the operator frozen per subinterval and
the boundary data lifted, as a coupled system for the field values x_k and
the boundary trace values w_k at the CGL nodes; the weighted boundary
values y_k = b(t_k) w_k are recovered afterwards.  Interpolating the trace
rather than the product keeps the interpolation error governed by the
smoother of the two factors, while the multiplier b rides inside the
coefficient integrals, which are evaluated to roundoff by Gauss rules.  One
quadrature map per node subinterval, built from samples at local Chebyshev
points, integrates every coefficient: the data g and f, the products b L_j,
and the frozen-operator defect that multiplies L_j.  The Gauss tables behind
those maps depend on the data degree alone and are built once per data
degree per process, on first use, and shared read-only by every assembler.
The boundary coupling is kept factored, as the samples of b L_j and the
maps, and multiplied out only for a reader that needs the dense blocks.
The interior block matrix is bidiagonal with elementwise-exponential
subdiagonal blocks.  The direct solve reduces the trace unknowns to one
N x N system per slab.  When the interior coupling vanishes (constant
families) it works on the factors: the trace images of the maps, built once
per slab length, give the N x N matrix, and the data and coupling terms are
swept through the bidiagonal inverse in mode space, so no (N, N+1, M) array
is built.  Otherwise M batched N x N LU solves do the interior solve.  A
fixed-point sweep over the same splitting is available as an alternative to
the direct elimination.
"""

from __future__ import annotations

import copy
import functools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import CGLGrid, TimePartition, build_grid, check_count, interpolate
from .operators import OperatorFamily
from .kernels import sample_data
from .kernels import exp_sigma_moments  # noqa: F401 -- perfbench/tests/test_tracing.py reads it here

__all__ = [
    "SolverConfig",
    "SlabInterior",
    "CollocationCoefficients",
    "BlockSystem",
    "StageSolution",
    "SolutionTrace",
    "SlabContractionError",
    "FixedPointDivergenceError",
    "NonFiniteStageError",
    "CoefficientAssembler",
    "assemble_coefficients",
    "assemble_block_system",
    "solve_stage_direct",
    "solve_stage_fixed_point",
    "march",
    "block_matrix_inf_norm",
]

CONTRACTION_REFINE = 0.5
"""March doubles the slab count when ||Lambda D|| reaches this value."""

MAX_REFINEMENTS = 6


class SlabContractionError(RuntimeError):
    """The boundary coupling is too strong on the current slab.

    Raised when ||Lambda D|| >= 1, where the eliminated system is no longer
    guaranteed solvable.  The remedy is a shorter slab, i.e. larger K.
    """

    def __init__(self, norm: float, slab: int):
        self.norm = norm
        self.slab = slab
        super().__init__(
            f"boundary coupling norm {norm:.3g} on slab {slab}: slab too long; increase K"
        )


class FixedPointDivergenceError(RuntimeError):
    """The fixed-point sweep is not contracting."""

    def __init__(self, ratio: float, iterations: int, reason: str, slab: int = 0):
        self.ratio = ratio
        self.iterations = iterations
        self.slab = slab
        super().__init__(
            f"fixed-point iteration diverged on slab {slab} after {iterations} "
            f"sweeps (estimated ratio {ratio:.3g}): {reason}"
        )


class NonFiniteStageError(RuntimeError):
    """A slab's stage values are NaN or infinite, i.e. its data g, b or f is not finite."""

    def __init__(self, residual: float, slab: int):
        self.residual = residual
        self.slab = slab
        super().__init__(f"non-finite stage residual {residual} on slab {slab}: check g, b and f")


@dataclass(frozen=True)
class SolverConfig:
    """Discretization parameters.

    N: collocation degree per slab, K: number of slabs, M: retained modes,
    T: final time, mode: "direct" or "fixed_point", fp_tol / fp_max_iter:
    fixed-point controls.
    """

    N: int = 8
    K: int = 1
    M: int = 128
    T: float = 1.0
    mode: str = "direct"
    fp_tol: float = 1e-12
    fp_max_iter: int = 400

    def __post_init__(self):
        for name in ("N", "K", "M", "fp_max_iter"):
            check_count(name, getattr(self, name))
        if not np.isfinite(self.T) or self.T <= 0:
            raise ValueError(f"final time must be finite and positive, got T={self.T}")
        if self.mode not in ("direct", "fixed_point"):
            raise ValueError(f"unknown solve mode {self.mode!r}")
        if not np.isfinite(self.fp_tol) or self.fp_tol <= 0:
            raise ValueError(f"fixed-point tolerance must be finite and positive, got {self.fp_tol}")


@dataclass(frozen=True)
class SlabInterior:
    """What a slab's coefficients take from the operator family and the slab length.

    One per slab for a varying family; for a constant family it does not
    depend on the slab, and every slab of one length shares it read-only.
    Index k-1 stands for node subinterval k = 1..N, trailing axis modes.

    mu_frozen[k-1]      frozen eigenvalues mu~(t*_k)
    E[k-1]              propagator exp(-mu~(t*_k) (tau/2) theta_k)
    alpha               (N, N+1, M) frozen-operator correction, or None for
                        a constant family, where it is exactly zero
    maps[k-1]           (M, Q+1) quadrature map R_k of subinterval k
    kernel_scale[k-1]   a(t*_k) mu0 lift, which scales beta and the g term
    trace               boundary trace functional of the modes
    """

    tau: float
    mu_frozen: np.ndarray
    E: np.ndarray
    alpha: np.ndarray | None
    maps: np.ndarray
    kernel_scale: np.ndarray
    trace: np.ndarray

    @functools.cached_property
    def coupling_scale(self) -> np.ndarray:
        """s = -(tau/2) a mu0 lift, so that beta[k-1, j] = s_k (R_k V_k[j])."""
        return -0.5 * self.tau * self.kernel_scale

    @functools.cached_property
    def trace_weights(self) -> np.ndarray:
        """H[k-1, q] = sum_m t_m s_{k,m} R_k[m, q]: Lambda D is H V."""
        ts = self.trace * self.coupling_scale
        return np.matmul(ts[:, None, :], self.maps)[:, 0]

    @functools.cached_property
    def trace_images(self) -> np.ndarray:
        """G[k-1, i-1, q] = sum_m t_m (S~^{-1})_{k,i,m} s_{i,m} R_i[m, q]: Lambda S~^{-1} D is G V.

        (S~^{-1})_{k,i} is the product of the propagators E_{i+1} .. E_k for
        k >= i and zero above the diagonal, so column i is built by one
        running product from the trace functional.
        """
        N, M, Q1 = self.maps.shape
        s = self.coupling_scale
        G = np.zeros((N, N, Q1))
        weights = np.empty((N, M))
        for i in range(N):
            weights[i] = self.trace
            for k in range(i + 1, N):
                np.multiply(weights[k - 1], self.E[k], out=weights[k])
            G[i:, i] = (weights[i:] * s[i]) @ self.maps[i]
        return G

    def modes(self, c: np.ndarray) -> np.ndarray:
        """s_k (R_k c_k) for sample-space values c of shape (N, Q+1): shape (N, M)."""
        return self.coupling_scale * np.matmul(self.maps, c[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class CollocationCoefficients:
    """Slab coefficients integrated to roundoff, stored per mode.

    Index conventions: row index k-1 for collocation equations k = 1..N,
    column index j for interpolation nodes j = 0..N, trailing axis modes.
    alpha, beta_weighted and phi all come from the same per-subinterval
    quadrature maps R_k of ``interior``.

    E[k-1]            propagator exp(-mu~(t*_k) (tau/2) theta_k)
    alpha[k-1, j]     frozen-operator correction, diagonal per mode
    lag_b[k-1, j, q]  V_k = L_j(s_q) b(t_q): the trace basis times the
                      multiplier b (one when omitted) at the data_degree + 1
                      local sample points s_q of subinterval k
    beta_weighted     boundary-lift coupling against the interpolated trace,
      [k-1, j]        s_k (R_k V_k[j]) with s = -(tau/2) a mu0 lift, so b
                      rides inside the integrand; the marching solver
                      couples to the boundary trace through these
    phi[k-1]          data term (forcing plus boundary data)

    The coupling is kept factored as V and the maps: beta_weighted and
    alpha (exact zeros for a constant family) are built on first read and
    then kept, read-only.
    """

    slab: int
    t_star: np.ndarray
    interior: SlabInterior
    lag_b: np.ndarray
    phi: np.ndarray

    @property
    def N(self) -> int:
        return self.E.shape[0]

    @property
    def M(self) -> int:
        return self.E.shape[1]

    @property
    def mu_frozen(self) -> np.ndarray:
        return self.interior.mu_frozen

    @property
    def E(self) -> np.ndarray:
        return self.interior.E

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        alpha = self.interior.alpha
        if alpha is None:
            alpha = np.zeros((self.N, self.N + 1, self.M))
            alpha.flags.writeable = False
        return alpha

    def coupling(self) -> np.ndarray:
        """A new, writable copy of beta_weighted, multiplied out from the factors."""
        interior = self.interior
        beta = np.matmul(self.lag_b, interior.maps.transpose(0, 2, 1))
        beta *= -0.5 * interior.tau
        beta *= interior.kernel_scale[:, None, :]
        return beta

    @functools.cached_property
    def beta_weighted(self) -> np.ndarray:
        beta = self.coupling()
        beta.flags.writeable = False
        return beta


@functools.cache
def _gauss_tables(Q: int):
    """The quadrature tables of data degree ``Q``, which depend on ``Q`` alone.

    Returns the Gauss-Legendre/Gauss-Laguerre split ``Q + 20``, the
    degree-``Q`` CGL grid of local sample points, the Gauss-Legendre nodes
    z_g with the weights folded into l_q(z_g), and the Gauss-Laguerre table.
    Built once per ``Q`` per process and shared by every assembler, so every
    array is read-only.
    """
    split = Q + 20
    qgrid = build_grid(Q)
    eye = np.eye(Q + 1)
    z, w = np.polynomial.legendre.leggauss(Q + 40)
    legendre = z, w[:, None] * interpolate(qgrid, eye, z)
    # Gauss-Laguerre in u = lam (1 + z): sum_i omega_i l_q(u_i h - 1) is a
    # degree-Q polynomial in h = 1 / lam, tabulated at the Chebyshev
    # points of [0, 1 / split] and interpolated per mode
    u, omega = np.polynomial.laguerre.laggauss(Q // 2 + 1)
    h = (1.0 + qgrid.nodes) / (2.0 * split)
    laguerre = omega @ interpolate(qgrid, eye, u * h[:, None] - 1.0)
    for table in (qgrid.nodes, qgrid.spacings, qgrid.barycentric_weights, *legendre, laguerre):
        table.flags.writeable = False
    return split, qgrid, legendre, laguerre


class CoefficientAssembler:
    """Per-slab coefficient assembly; a constant family shares one interior per slab length.

    Every coefficient integrates the exponential kernel against a
    polynomial on one node subinterval, and one map does all of them: R_k
    takes values at the data_degree + 1 local Chebyshev points of
    subinterval k to the kernel integrals of their interpolant, evaluated
    to roundoff by Gauss rules (see ``_interior``).  It is applied to
    samples of g and f, of b L_j for beta, and of (mu(t_k) - mu(t)) L_j for
    alpha.  The unknowns enter through their degree-N interpolants (that
    is the scheme), but the data are integrated to roundoff: a shared
    degree-N treatment of data and unknowns would cancel the interpolation
    defect of the boundary values node-for-node and report spurious
    exactness on resolved problems.
    The alpha integrands have degree N + deg(a, c), so ``data_degree``
    may not be lower; it must be an integer (numpy integers included, bools
    not), or ``ValueError`` is raised.  The Gauss tables depend on the data degree
    alone: they are built once per data degree per process and shared
    read-only by every assembler of that degree.  The local sample points
    and their Lagrange values depend on the grid alone: they are built once
    per assembler, and ``march`` carries them over its restarts.  For a
    constant family alpha is exactly zero and is not integrated, and the
    slab's interior (E, the maps R_k, the kernel scale and the trace
    images that the direct solve reads, see :class:`SlabInterior`) does not
    depend on the slab: it is built once per slab length, on the first
    slab, and shared by every later one.  An assembler's partition has one
    slab length, and ``_repartitioned`` starts a new store.  Each slab then
    keeps its boundary coupling factored, as the samples V_k = L_j b; beta
    is multiplied out only when something reads it.
    """

    def __init__(
        self,
        family: OperatorFamily,
        grid: CGLGrid,
        partition: TimePartition,
        data_degree: int | None = None,
    ):
        self.family = family
        self.grid = grid
        self.partition = partition
        N = grid.N
        floor = N + max(family.a_coeffs.shape[0], family.c_coeffs.shape[0], 1) - 1
        if data_degree is not None:
            check_count("data degree", data_degree)
        Q = max(12, floor) if data_degree is None else int(data_degree)
        if Q < floor:
            raise ValueError(
                f"data degree {Q} is below N + deg(a, c) = {floor}, the degree of the alpha integrands"
            )
        self.data_degree = Q
        self._split, self._qgrid, self._legendre, self._laguerre = _gauss_tables(Q)
        # local sample points s_q of subinterval k, and the Lagrange basis there
        theta = grid.spacings
        self._s_loc = grid.nodes[1:, None] - 0.5 * theta[:, None] * (1.0 + self._qgrid.nodes)
        self._lag_loc = np.ascontiguousarray(
            interpolate(grid, np.eye(N + 1), self._s_loc).transpose(0, 2, 1)
        )
        self._store = None

    def _interior(self, t_star: np.ndarray, t_loc: np.ndarray) -> SlabInterior:
        """Frozen eigenvalues, E, alpha, the quadrature maps R_k and the kernel scale of one slab.

        ``t_star`` are the slab's node times and ``t_loc`` its sample times,
        shape (N, data_degree + 1); for a constant family the result does
        not depend on them.  maps[k-1, n, q] is the integral over
        0 <= sigma <= theta_k of e^{-nu_n sigma} l_q(z), z = 2 sigma /
        theta_k - 1, with l_q the local Lagrange function of sample point
        s_q.  With lam = nu theta_k / 2 it is taken by Gauss-Legendre up to
        lam = data_degree + 20, beyond by Gauss-Laguerre on the layer at
        z = -1, whose nodes then all lie in [-1, 1] and whose dropped tail
        is below e^{-2 lam} e^{data_degree / 2}.  A constant family has
        mu(t_k) - mu(t) = 0 exactly, so its alpha is not integrated (None);
        a varying family samples a(t) and c(t) at all of the slab's sample
        times in one polynomial evaluation each.
        """
        family, grid, split = self.family, self.grid, self._split
        N, M, Q = grid.N, family.basis.M, self.data_degree
        tau = self.partition.tau
        mu_frozen = family.frozen_eigenvalues(t_star[1:, None])
        if np.any(mu_frozen < 0):
            raise ValueError(f"operator family is not positive on the slab starting at t={t_star[0]}")
        nu = 0.5 * tau * mu_frozen
        E = np.exp(-nu * grid.spacings[:, None])
        maps = np.empty((N, M, Q + 1))
        z, w_lag = self._legendre
        varying = not family.is_constant
        alpha = np.zeros((N, N + 1, M)) if varying else None
        if varying:
            a_loc, c_loc = family.a(t_loc), family.c(t_loc)
        for k in range(N):
            half = 0.5 * grid.spacings[k]
            lam = half * nu[k]
            fast = lam > split
            R = maps[k]
            R[~fast] = half * (np.exp(-lam[~fast, None] * (1.0 + z)) @ w_lag)
            h = 1.0 / lam[fast]
            R[fast] = (half * h)[:, None] * interpolate(self._qgrid, self._laguerre, 2.0 * split * h - 1.0)
            if varying:
                mu_q = a_loc[k][:, None] * family.basis.mu + c_loc[k][:, None]
                np.matmul(self._lag_loc[k], R.T * (mu_frozen[k] - mu_q), out=alpha[k])
                alpha[k] *= 0.5 * tau
        basis = family.basis
        kernel_scale = family.a(t_star[1:])[:, None] * basis.mu * basis.lift_coeffs
        return SlabInterior(tau, mu_frozen, E, alpha, maps, kernel_scale, basis.boundary_trace)

    def _repartitioned(self, partition: TimePartition) -> CoefficientAssembler:
        """This assembler on another partition of the same grid.

        The Gauss tables, sample points and Lagrange values depend on the
        grid alone and are shared, not rebuilt; the interior store, which
        depends on the slab length, is not.
        """
        other = copy.copy(self)
        other.partition, other._store = partition, None
        return other

    def slab(
        self,
        l: int,
        g: Callable[[float], float] | None = None,
        f: Callable[[float], np.ndarray] | None = None,
        b: Callable[[float], float] | None = None,
    ) -> CollocationCoefficients:
        """Assemble the coefficients of slab ``l``.

        ``g``, ``f`` and ``b`` are sampled on each subinterval at the
        data_degree + 1 local Chebyshev points and integrated through R_k,
        to roundoff by Gauss rules for polynomial data up to that degree and
        for analytic data.  ``b`` rides inside the products b L_j that
        weight the boundary-trace unknowns; when it is omitted b is
        identically one.  A ``g`` or ``b`` that is an
        :class:`~duhamelcheb.kernels.ExpDecay` is sampled at all the slab's
        sample times in one array call; any other ``g`` or ``b``, and every
        ``f``, is called once per sample time with a scalar float.
        """
        t_star = self.partition.slab_times(l, self.grid)
        t_loc = self.partition.map_to_slab(l, self._s_loc)
        interior = self._store
        if interior is None:
            interior = self._interior(t_star, t_loc)
            if self.family.is_constant:
                self._store = interior
        N, M = interior.E.shape
        tau = self.partition.tau
        g_loc = None if g is None else sample_data(g, t_loc)
        b_loc = None if b is None else sample_data(b, t_loc)
        phi = np.zeros((N, M))
        for k in range(N):
            R = interior.maps[k]
            if g is not None:
                phi[k] += 0.5 * tau * interior.kernel_scale[k] * (R @ g_loc[k])
            if f is not None:
                f_loc = np.stack([np.asarray(f(t), dtype=float) for t in t_loc[k]])
                phi[k] += 0.5 * tau * np.einsum("mq,qm->m", R, f_loc)
        lag_b = self._lag_loc if b is None else self._lag_loc * b_loc[:, None, :]
        return CollocationCoefficients(slab=l, t_star=t_star, interior=interior, lag_b=lag_b, phi=phi)


def assemble_coefficients(
    family: OperatorFamily,
    grid: CGLGrid,
    partition: TimePartition,
    l: int,
    g: Callable[[float], float] | None = None,
    f: Callable[[float], np.ndarray] | None = None,
    b: Callable[[float], float] | None = None,
) -> CollocationCoefficients:
    """One-shot assembly of the slab-``l`` coefficients."""
    return CoefficientAssembler(family, grid, partition).slab(l, g, f, b)


@dataclass(frozen=True)
class BlockSystem:
    """Assembled block system of one slab.

    All blocks are diagonal per mode except the boundary functional.  The
    coupling blocks C~, D and F_y are views of the coefficient arrays,
    built from the factored coupling on first read (see
    :class:`CollocationCoefficients`), and a constant family's slabs share
    E and the maps, so solvers must not write to them.
    Whether C~ vanishes (always so for a constant family, without a scan)
    is decided once per system and kept in the read-only
    ``has_interior_coupling``; both stage solvers skip every C~ contraction
    when it is False.

    subdiag[i]     coupling of block row i to row i-1 (i >= 1; entry 0 unused)
    Cmat, D        (N, N, M) interior and boundary-trace coupling, columns
                   j = 1..N; D carries the multiplier b inside its integrals
    F_x, F_y, f_x  previous-slab coupling and data, rows k = 1..N
    lam_weights    (N, M) trace functional:
                   w_k = sum_n lam_weights[k-1, n] x~_{k,n}
    bvals          (N+1,) multiplier values b(t_k) at the slab nodes, used
                   to recover the weighted boundary values y = b w
    coeffs         the slab's coefficients, whose factored coupling the
                   direct solve of a system without C~ reads instead of D
    """

    slab: int
    subdiag: np.ndarray
    F_x: np.ndarray
    f_x: np.ndarray
    lam_weights: np.ndarray
    bvals: np.ndarray
    coeffs: CollocationCoefficients

    @property
    def N(self) -> int:
        return self.subdiag.shape[0]

    @property
    def M(self) -> int:
        return self.subdiag.shape[1]

    @property
    def Cmat(self) -> np.ndarray:
        return self.coeffs.alpha[:, 1:, :]

    @property
    def D(self) -> np.ndarray:
        return self.coeffs.beta_weighted[:, 1:, :]

    @property
    def F_y(self) -> np.ndarray:
        return self.coeffs.beta_weighted[:, 0, :]

    @functools.cached_property
    def has_interior_coupling(self) -> bool:
        """Whether C~ has a nonzero entry (never for a constant family); decided once."""
        return self.coeffs.interior.alpha is not None and bool(self.Cmat.any())

    @functools.cached_property
    def _lambda_d(self) -> np.ndarray:
        lag_b = self.coeffs.lag_b[:, 1:]
        lambda_d = np.matmul(lag_b, self.coeffs.interior.trace_weights[:, :, None])[:, :, 0]
        lambda_d.flags.writeable = False
        return lambda_d

    def lambda_d_matrix(self) -> np.ndarray:
        """The N x N scalar matrix of the eliminated boundary system.

        Computed once per system from the factored coupling, as H V (see
        :attr:`SlabInterior.trace_weights`), and returned read-only.
        """
        return self._lambda_d

    def contraction_norm(self) -> float:
        """Infinity norm of Lambda D; below 1 the elimination is solvable."""
        return float(np.abs(self._lambda_d).sum(axis=1).max())

    def s_tilde_blocks(self) -> np.ndarray:
        N, M = self.N, self.M
        S = np.zeros((N, N, M))
        S[np.arange(N), np.arange(N)] = 1.0
        if N > 1:
            S[np.arange(1, N), np.arange(N - 1)] = -self.subdiag[1:]
        return S

    def s_tilde_inverse_blocks(self) -> np.ndarray:
        """Explicit inverse of the bidiagonal interior matrix.

        Row i, column k holds the product of the subdiagonal blocks
        between the two positions; no division is involved, so underflowed
        propagators are handled exactly.
        """
        N, M = self.N, self.M
        T = np.zeros((N, N, M))
        for k in range(N):
            acc = np.ones(M)
            T[k, k] = acc
            for i in range(k + 1, N):
                acc = acc * self.subdiag[i]
                T[i, k] = acc
        return T


def block_matrix_inf_norm(blocks: np.ndarray) -> float:
    """Max block-row sum of mode-diagonal blocks: max_i sum_k max_n |.|."""
    return float(np.abs(blocks).max(axis=2).sum(axis=1).max())


def assemble_block_system(
    coeffs: CollocationCoefficients,
    family: OperatorFamily,
    boundary_multiplier: Callable[[float], float],
) -> BlockSystem:
    """Arrange the slab coefficients into the block system.

    ``boundary_multiplier`` only supplies the nodal values used to recover
    y = b w; the coupling itself comes from ``coeffs``, so the
    coefficients must have been assembled with the same multiplier (or with
    none, for b identically one).  An
    :class:`~duhamelcheb.kernels.ExpDecay` multiplier is sampled at the N + 1
    slab nodes in one array call; any other callable once per node with a
    scalar float.
    """
    N, M = coeffs.N, coeffs.M
    bvals = sample_data(boundary_multiplier, coeffs.t_star)
    subdiag = np.zeros((N, M))
    subdiag[1:] = coeffs.E[1:]
    alpha = coeffs.interior.alpha
    F_x = np.zeros((N, M)) if alpha is None else alpha[:, 0, :].copy()
    F_x[0] += coeffs.E[0]
    lam_weights = np.broadcast_to(family.basis.boundary_trace[None, :], (N, M))
    return BlockSystem(
        slab=coeffs.slab,
        subdiag=subdiag,
        F_x=F_x,
        f_x=coeffs.phi,
        lam_weights=lam_weights,
        bvals=bvals,
        coeffs=coeffs,
    )


@dataclass(frozen=True)
class StageSolution:
    """Solution of one slab: nodal mode vectors and boundary values.

    x has shape (N+1, M) including the inherited node 0; boundary_traces
    holds the trace unknowns w and y = b w the weighted boundary values,
    both of shape (N+1,).  residual is the max-norm defect of the
    collocation equations, contraction the assembled ||Lambda D||.
    """

    slab: int
    x: np.ndarray
    y: np.ndarray
    boundary_traces: np.ndarray
    residual: float
    contraction: float
    fp_iterations: int | None = None
    fp_ratios: np.ndarray | None = None


def _phi_blocks(system: BlockSystem, x0: np.ndarray, w0: float) -> np.ndarray:
    return system.F_x * x0[None, :] + system.F_y * w0 + system.f_x


def _c_apply(system: BlockSystem, w: np.ndarray) -> np.ndarray:
    """C~ w for a block vector w of shape (N, M); zeros, uncontracted, when C~ vanishes."""
    if system.has_interior_coupling:
        return np.einsum("kjm,jm->km", system.Cmat, w)
    return np.zeros(w.shape)


def _imsc(system: BlockSystem, w: np.ndarray) -> np.ndarray:
    """(I - S~ + C~) w for a block vector w of shape (N, M)."""
    out = _c_apply(system, w)
    if system.N > 1:
        out[1:] += system.subdiag[1:] * w[:-1]
    return out


def _lam_apply(system: BlockSystem, w: np.ndarray) -> np.ndarray:
    return np.einsum("km,km->k", system.lam_weights, w)


def _d_apply(system: BlockSystem, y: np.ndarray) -> np.ndarray:
    return np.einsum("kjm,j->km", system.D, y)


def _forward_sub(system: BlockSystem, r: np.ndarray) -> np.ndarray:
    """Apply the inverse of S~ to r of shape (N, ..., M) in place, by forward substitution."""
    for k in range(1, system.N):
        r[k] += system.subdiag[k] * r[k - 1]
    return r


def _stage_residual(
    system: BlockSystem, xt: np.ndarray, w: np.ndarray, Phi: np.ndarray, Dw: np.ndarray
) -> float:
    """Max-norm defect of the collocation equations, given the product ``Dw`` = D w[1:]."""
    rhs = _imsc(system, xt) + Dw + Phi
    return float(max(np.abs(xt - rhs).max(), np.abs(w[1:] - _lam_apply(system, rhs)).max()))


def _eliminate_lu(system: BlockSystem, x0: np.ndarray, w0: float):
    """Phi, w, x~ and D w of one slab by M batched LU solves of A = S~ - C~.

    Column 0 of the coupling is F_y, which only enters Phi, so Phi takes its
    place and [Phi | D] is solved at once; each LU factorisation is shared
    by the N + 1 columns.
    """
    N = system.N
    rhs = system.coeffs.coupling()
    Phi = system.F_x * x0[None, :] + rhs[:, 0] * w0 + system.f_x
    rhs[:, 0] = Phi
    A = -system.Cmat  # S~ - C~, without a temporary S~
    A[np.arange(N), np.arange(N)] += 1.0
    A[np.arange(1, N), np.arange(N - 1)] -= system.subdiag[1:]
    Z = np.linalg.solve(A.transpose(2, 0, 1), rhs.transpose(2, 0, 1)).transpose(1, 2, 0)
    LZ = np.einsum("km,kjm->kj", system.lam_weights, Z)
    w_int = np.linalg.solve(np.eye(N) - LZ[:, 1:], LZ[:, 0])
    xt = Z[:, 0] + w_int @ Z[:, 1:]
    return Phi, w_int, xt, np.einsum("kjm,j->km", rhs[:, 1:], w_int)


def _eliminate_factored(system: BlockSystem, x0: np.ndarray, w0: float):
    """Phi, w, x~ and D w of one slab without C~, from the factored coupling."""
    N = system.N
    interior, lag_b = system.coeffs.interior, system.coeffs.lag_b
    Phi = system.F_x * x0[None, :] + interior.modes(w0 * lag_b[:, 0]) + system.f_x
    Z_phi = _forward_sub(system, Phi.copy())
    LZ_D = interior.trace_images.reshape(N, -1) @ lag_b[:, 1:].transpose(0, 2, 1).reshape(-1, N)
    w_int = np.linalg.solve(np.eye(N) - LZ_D, _lam_apply(system, Z_phi))
    Dw = interior.modes(np.einsum("kjq,j->kq", lag_b[:, 1:], w_int))
    return Phi, w_int, Z_phi + _forward_sub(system, Dw.copy()), Dw


def solve_stage_direct(system: BlockSystem, x0: np.ndarray, w0: float) -> StageSolution:
    """Direct elimination solve of one slab.

    With A = S~ - C~ the interior rows read A x~ = D w + Phi; substituted
    into the trace rows they leave w = Lambda x~.  One interior solve
    therefore reduces the traces to the N x N system
    (I - Lambda A^{-1} D) w = Lambda A^{-1} Phi, and then
    x~ = A^{-1} Phi + A^{-1} D w.

    When C~ vanishes (``system.has_interior_coupling`` is False, as for
    every constant family) A = S~ is unit lower bidiagonal and D is used in
    its factored form D_k = s_k R_k V_k (see
    :class:`CollocationCoefficients`): Lambda S~^{-1} D is G V with the
    trace images G of the slab's interior (:class:`SlabInterior`), Phi and
    D w are formed in mode space at O(N M Q) cost, and each is swept
    through S~^{-1} on its own and the two added only at the end.  Summing
    them before the sweep would turn the trace's quantised cancellation
    remainders into smooth noise, which the CSV output pays for in
    distinct values.  Neither the (N, N+1, M) coupling nor the residual
    check is ever multiplied out.  Otherwise [Phi | D] is solved by M
    batched N x N LU factorisations.
    """
    rho = system.contraction_norm()
    if rho >= 1.0:
        raise SlabContractionError(rho, system.slab)
    eliminate = _eliminate_lu if system.has_interior_coupling else _eliminate_factored
    Phi, w_int, xt, Dw = eliminate(system, x0, w0)
    w = np.concatenate([[w0], w_int])
    residual = _stage_residual(system, xt, w, Phi, Dw)
    return StageSolution(
        slab=system.slab,
        x=np.vstack([x0[None, :], xt]),
        y=system.bvals * w,
        boundary_traces=w,
        residual=residual,
        contraction=rho,
    )


def solve_stage_fixed_point(
    system: BlockSystem,
    x0: np.ndarray,
    w0: float,
    tol: float = 1e-12,
    max_iter: int = 400,
) -> StageSolution:
    """Fixed-point sweep on the eliminated system.

    Iterates x <- S~^{-1} (C~ x + D W Lambda (I - S~ + C~) x) + const with
    W = [I - Lambda D]^{-1}; converges geometrically when the combined
    coupling is a contraction, with ratio shrinking as the slab shortens.
    ``tol`` must be finite and positive and ``max_iter`` an integer >= 1.
    """
    if not np.isfinite(tol) or tol <= 0:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    check_count("max_iter", max_iter)
    N, M = system.N, system.M
    Pmat = system.lambda_d_matrix()
    rho = system.contraction_norm()
    if rho >= 1.0:
        raise SlabContractionError(rho, system.slab)
    W = np.linalg.inv(np.eye(N) - Pmat)
    Phi = _phi_blocks(system, x0, w0)
    lamPhi = _lam_apply(system, Phi)
    const = _forward_sub(system, _d_apply(system, W @ lamPhi) + Phi)

    x = np.zeros((N, M))
    history: list[float] = []
    converged = False
    for it in range(1, max_iter + 1):
        z = _lam_apply(system, _imsc(system, x))
        x_new = _forward_sub(system, _c_apply(system, x) + _d_apply(system, W @ z)) + const
        d = float(np.abs(x_new - x).max())
        if not np.isfinite(d):
            raise NonFiniteStageError(d, system.slab)
        history.append(d)
        x = x_new
        if d < tol:
            converged = True
            break
        if len(history) >= 4:
            inc = all(history[-i] > history[-i - 1] for i in (1, 2, 3))
            if inc and history[-1] > history[0]:
                ratio = history[-1] / history[-2]
                raise FixedPointDivergenceError(
                    ratio, it, "growing successive differences", system.slab
                )
    if not converged:
        ratio = history[-1] / history[-2] if len(history) > 1 else np.inf
        raise FixedPointDivergenceError(
            ratio, max_iter, "iteration cap reached before tolerance", system.slab
        )

    w_int = W @ (_lam_apply(system, _imsc(system, x)) + lamPhi)
    w = np.concatenate([[w0], w_int])
    residual = _stage_residual(system, x, w, Phi, _d_apply(system, w_int))
    hist = np.array(history)
    ratios = hist[1:] / hist[:-1] if hist.shape[0] > 1 else np.empty(0)
    return StageSolution(
        slab=system.slab,
        x=np.vstack([x0[None, :], x]),
        y=system.bvals * w,
        boundary_traces=w,
        residual=residual,
        contraction=rho,
        fp_iterations=len(history),
        fp_ratios=ratios,
    )


@dataclass(frozen=True)
class SolutionTrace:
    """Marched solution across all slabs.

    stages[l-1] holds slab l; consecutive stages share their junction node
    exactly.  solve_seconds measures the stage solves only, excluding
    assembly, so method comparisons at equal work are meaningful.
    """

    config: SolverConfig
    partition: TimePartition
    grid: CGLGrid
    stages: list[StageSolution]
    solve_seconds: float
    refinements: int
    contraction_max: float

    def node_times(self) -> np.ndarray:
        """Distinct node times: t = 0 followed by nodes 1..N of each slab.

        One array expression with the products of
        :meth:`~duhamelcheb.mesh.TimePartition.map_to_slab`, so the times
        equal its per-slab values bit for bit.
        """
        l = np.array([stage.slab for stage in self.stages])[:, None]
        slabs = 0.5 * self.partition.tau * (self.grid.nodes[1:] + (2 * l - 1))
        return np.concatenate([[0.0], slabs.ravel()])

    def _nodal(self, field: str) -> np.ndarray:
        """Stage values of ``field`` at :meth:`node_times`, junctions kept once."""
        parts = [getattr(self.stages[0], field)[:1]]
        return np.concatenate(parts + [getattr(stage, field)[1:] for stage in self.stages])

    def node_modes(self) -> np.ndarray:
        """Mode vectors matching :meth:`node_times`, shape (1 + K N, M)."""
        return self._nodal("x")

    def node_boundary_values(self) -> np.ndarray:
        """Weighted boundary values y = b w matching :meth:`node_times`."""
        return self._nodal("y")

    def node_boundary_traces(self) -> np.ndarray:
        """Boundary trace unknowns w matching :meth:`node_times`."""
        return self._nodal("boundary_traces")


def march(problem, config: SolverConfig, auto_refine: bool = True) -> SolutionTrace:
    """March the collocation solver across [0, T].

    ``problem`` provides the operator family, boundary multiplier b,
    boundary data g, optional forcing (as a mode-vector function of t),
    and initial mode vector u0; see :class:`duhamelcheb.heat.HeatProblem`.

    When the assembled boundary coupling reaches the refinement threshold
    the slab count doubles and the march restarts, at most six times.
    """
    family: OperatorFamily = problem.family
    basis = family.basis
    if basis.M != config.M:
        raise ValueError(
            f"problem carries {basis.M} modes but config requests M={config.M}"
        )
    u0 = np.asarray(problem.u0, dtype=float)
    if u0.shape != (config.M,):
        raise ValueError(f"initial mode vector has shape {u0.shape}, expected ({config.M},)")
    if abs(problem.T - config.T) > 1e-13 * max(1.0, config.T):
        raise ValueError(f"problem horizon T={problem.T} does not match config T={config.T}")
    for t in (0.0, 0.5 * config.T, config.T):
        if family.a(t) <= 0 or family.frozen_eigenvalues(t)[0] <= 0:
            raise ValueError(f"operator family is not positive at t={t}")

    grid = build_grid(config.N)
    K = config.K
    refinements = 0
    assembler = CoefficientAssembler(family, grid, TimePartition(config.T, K))
    while True:
        partition = assembler.partition
        stages: list[StageSolution] = []
        x_prev = u0
        w_prev = float(u0 @ basis.boundary_trace)
        solve_seconds = 0.0
        contraction_max = 0.0
        refine = False
        for l in range(1, K + 1):
            coeffs = assembler.slab(l, problem.g, problem.forcing, problem.b)
            system = assemble_block_system(coeffs, family, problem.b)
            rho = system.contraction_norm()
            contraction_max = max(contraction_max, rho)
            if auto_refine and rho >= CONTRACTION_REFINE and refinements < MAX_REFINEMENTS:
                refine = True
                break
            t0 = time.perf_counter()
            if config.mode == "direct":
                stage = solve_stage_direct(system, x_prev, w_prev)
            else:
                stage = solve_stage_fixed_point(
                    system, x_prev, w_prev, tol=config.fp_tol, max_iter=config.fp_max_iter
                )
            solve_seconds += time.perf_counter() - t0
            if not np.isfinite(stage.residual):
                raise NonFiniteStageError(stage.residual, l)
            stages.append(stage)
            x_prev = stage.x[-1]
            w_prev = float(stage.boundary_traces[-1])
        if refine:
            K *= 2
            refinements += 1
            assembler = assembler._repartitioned(TimePartition(config.T, K))
            continue
        return SolutionTrace(
            config=config,
            partition=partition,
            grid=grid,
            stages=stages,
            solve_seconds=solve_seconds,
            refinements=refinements,
            contraction_max=contraction_max,
        )
