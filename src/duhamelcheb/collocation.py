"""Slab-wise collocation of the Duhamel integral system.

On each time slab the evolution problem is recast, through the
variation-of-constants formula with the operator frozen per subinterval and
the boundary data lifted, as a coupled system for the field values x_k and
the boundary trace values w_k at the CGL nodes; the weighted boundary
values y_k = b(t_k) w_k are recovered afterwards.  Interpolating the trace
rather than the product keeps the interpolation error governed by the
smoother of the two factors, while the multiplier b rides inside the
coefficient integrals, which are evaluated to roundoff by Gauss rules.

Each part is explained in one place:

- :class:`CoefficientAssembler`: the quadrature maps that integrate every
  coefficient, the memoised tables, and the rule for sampling the forcing;
- ``CoefficientAssembler._interior``: the Gauss-Legendre/Gauss-Laguerre
  split and the mode-contiguous layout of the maps;
- :class:`BlockSystem`: the blocks of the stage system, with the boundary
  coupling kept factored and g kept as samples, so that a direct solve
  passes over the maps twice per slab (``_phi_blocks`` and D w);
- :func:`solve_stage_direct` and :func:`solve_stage_fixed_point`: the two
  stage solvers, which share one trace row w = Lambda x~ (``_lam_apply``).
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .mesh import CGLGrid, TimePartition, build_grid, check_count, interpolate
from .operators import OperatorFamily
from .kernels import sample_data
from .kernels import exp_sigma_moments  # noqa: F401 -- perfbench/tests/test_tracing.py reads it here

__all__ = [
    "SolverConfig",
    "SlabInterior",
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

FORCING_DEGREE = 16
"""The degree P of the slab-wide Chebyshev grid the forcing is sampled on."""

FORCING_TAIL = 64.0
"""The tail tolerance of the forcing rule, in machine epsilons (see :class:`CoefficientAssembler`)."""


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

    E[k-1]              propagator exp(-mu~(t*_k) (tau/2) theta_k)
    alpha               (N, N+1, M) frozen-operator correction, or None for
                        a constant family, where it is exactly zero
    maps[k-1]           (Q+1, M) quadrature map R_k of subinterval k (see
                        ``CoefficientAssembler._interior``)
    kernel_scale[k-1]   a(t*_k) mu0 lift, which scales beta and the g term
    trace               boundary trace functional of the modes
    moving              the modes [:moving] hold every nonzero E

    Past ``moving``, E underflowed to 0.0 on every subinterval, as for all
    but the slowest modes at large M (133 of 4096 in the reference problem
    at N = 12, K = 4), so S~ = I there.  ``_forward_sub``, the E-part of
    ``_imsc`` and the propagated rows of :attr:`trace_images` skip those
    modes: each skipped term is a product with 0.0.  No tolerance, and no
    order of E in the mode, is assumed.
    """

    tau: float
    E: np.ndarray
    alpha: np.ndarray | None
    maps: np.ndarray
    kernel_scale: np.ndarray
    trace: np.ndarray

    @functools.cached_property
    def moving(self) -> int:
        """1 + the last mode whose E is nonzero on some subinterval; 0 when none is."""
        nonzero = np.flatnonzero(self.E.any(axis=0))
        return int(nonzero[-1]) + 1 if nonzero.size else 0

    @functools.cached_property
    def coupling_scale(self) -> np.ndarray:
        """s = -(tau/2) a mu0 lift, so that beta[k-1, j] = s_k (R_k V_k[j])."""
        return -0.5 * self.tau * self.kernel_scale

    @functools.cached_property
    def trace_weights(self) -> np.ndarray:
        """H[k-1, q] = sum_m t_m s_{k,m} R_k[q, m]: Lambda D is H V."""
        ts = self.trace * self.coupling_scale
        return np.matmul(self.maps, ts[:, :, None])[:, :, 0]

    @functools.cached_property
    def trace_images(self) -> np.ndarray:
        """G[k-1, i-1, q] = sum_m t_m (S~^{-1})_{k,i,m} s_{i,m} R_i[q, m]: Lambda S~^{-1} D is G V.

        (S~^{-1})_{k,i} is the product of the propagators E_{i+1} .. E_k for
        k >= i and zero above the diagonal, so column i is built by one
        running product from the trace functional.  Row k = i has no
        propagator: it is the trace weights.  The rows k > i sum the modes
        ``[:moving]``, the only ones whose product is not exactly zero.
        """
        N, Q1, _ = self.maps.shape
        moving, s = self.moving, self.coupling_scale
        G = np.zeros((N, N, Q1))
        G[range(N), range(N)] = self.trace_weights
        weights = np.empty((N, moving))
        for i in range(N - 1):
            weights[i] = self.trace[:moving]
            for k in range(i + 1, N):
                np.multiply(weights[k - 1], self.E[k, :moving], out=weights[k])
            G[i + 1:, i] = (weights[i + 1:] * s[i, :moving]) @ self.maps[i, :, :moving].T
        return G

    def modes(self, c: np.ndarray) -> np.ndarray:
        """s_k (R_k c_k) for sample-space values c of shape (N, Q+1): shape (N, M).

        The one map to modes for every coupling term.  A direct solve makes
        two passes per slab: the boundary part of Phi, F_y w0 with the g
        term, and D w.
        """
        out = np.matmul(c[:, None, :], self.maps)[:, 0]
        out *= self.coupling_scale
        return out


@dataclass(frozen=True)
class BlockSystem:
    """The stage system of one slab: its coefficients, integrated to roundoff, and b at its nodes.

    g stays as samples until the stage solve integrates it with F_y w0.

    Index conventions: row index k-1 for collocation equations k = 1..N,
    column index j for interpolation nodes j = 0..N, trailing axis modes.

    t_star            (N+1,) the slab's node times
    interior          E, alpha, the quadrature maps R_k and the trace
                      functional (see :class:`SlabInterior`)
    lag_b[k-1, j, q]  V_k = L_j(s_q) b(t_q): the trace basis times the
                      multiplier b (one when omitted) at the data_degree + 1
                      local sample points s_q of subinterval k
    g_loc[k-1, q]     g(t_q) at the same points (zero when g is omitted),
                      kept in sample space
    forcing[k-1]      the forcing term (tau/2) R_k f in modes, or None
                      without a forcing
    bvals             (N+1,) b(t_k) at the slab nodes (one when b is
                      omitted), to recover y = b w

    The solvers read every block from these fields.  All are diagonal per
    mode except the boundary functional Lambda:

    S~        unit lower bidiagonal, subdiagonal block i the propagator E[i]
    C~, F_x   alpha's columns 1..N and 0, with E[0] added to F_x's row 1;
              a constant family's alpha is not integrated, so
              ``has_interior_coupling`` is False and no solver contracts C~
    f_x       forcing - s_k (R_k g_k): the g term is -s R g, since
              s = -(tau/2) a mu0 lift
    Lambda    the trace row w_k = sum_n interior.trace[n] x~_{k,n} in every
              row, applied by ``_lam_apply``
    D, F_y    beta's columns 1..N and 0, the boundary-lift coupling against
              the interpolated trace: beta[k-1, j] = s_k (R_k V_k[j]) with
              s = -(tau/2) a mu0 lift, so that b rides inside the integrand.
              It is kept factored as V and the maps, each stored (Q+1, M):
              the solvers form V y in sample space and take it through the
              maps once, at O(N M Q) cost.  F_y w0 and the g term share one
              pass, V[0] w0 - g (see ``_phi_blocks``).

    A constant family's slabs share E, the maps and the trace, so solvers
    must not write to them.
    """

    slab: int
    t_star: np.ndarray
    interior: SlabInterior
    lag_b: np.ndarray
    g_loc: np.ndarray
    forcing: np.ndarray | None
    bvals: np.ndarray

    @property
    def N(self) -> int:
        return self.E.shape[0]

    @property
    def M(self) -> int:
        return self.E.shape[1]

    @property
    def E(self) -> np.ndarray:
        return self.interior.E

    @property
    def has_interior_coupling(self) -> bool:
        """Whether C~ was integrated, i.e. the family is not constant."""
        return self.interior.alpha is not None

    def coupling(self) -> np.ndarray:
        """The (N, N+1, M) coupling multiplied out from its factors, as a new, writable array."""
        interior = self.interior
        beta = np.matmul(self.lag_b, interior.maps)
        beta *= -0.5 * interior.tau
        beta *= interior.kernel_scale[:, None, :]
        return beta

    @functools.cached_property
    def lambda_d(self) -> np.ndarray:
        """The N x N scalar matrix Lambda D of the eliminated boundary system.

        Computed once per system from the factored coupling, as H V (see
        :attr:`SlabInterior.trace_weights`), and kept read-only.
        """
        H = self.interior.trace_weights
        lambda_d = np.matmul(self.lag_b[:, 1:], H[:, :, None])[:, :, 0]
        lambda_d.flags.writeable = False
        return lambda_d

    def contraction_norm(self) -> float:
        """Infinity norm of Lambda D; below 1 the elimination is solvable."""
        return float(np.abs(self.lambda_d).sum(axis=1).max())

    def s_tilde_blocks(self) -> np.ndarray:
        """S~ as dense (N, N, M) blocks, which no solver reads.

        Acceptance criterion 4 multiplies it with :meth:`s_tilde_inverse_blocks`.
        """
        N, M = self.N, self.M
        S = np.zeros((N, N, M))
        S[np.arange(N), np.arange(N)] = 1.0
        if N > 1:
            S[np.arange(1, N), np.arange(N - 1)] = -self.E[1:]
        return S

    def s_tilde_inverse_blocks(self) -> np.ndarray:
        """Explicit inverse of the bidiagonal interior matrix.

        Row i, column k holds the product of the subdiagonal blocks
        between the two positions; no division is involved, so underflowed
        propagators are handled exactly.
        """
        N, M, E = self.N, self.M, self.E
        T = np.zeros((N, N, M))
        for k in range(N):
            acc = np.ones(M)
            T[k, k] = acc
            for i in range(k + 1, N):
                acc = acc * E[i]
                T[i, k] = acc
        return T


_MAP_BLOCK_MODES = 512
"""``_interior`` evaluates the maps in blocks of whole subintervals of about
this many modes, one subinterval per block from M = 512 up: larger blocks
raise a march's peak memory, smaller ones slow it.  The block's Chebyshev
basis, (Q+1) by its modes, is the one temporary; it carries the maps' scale."""


_TABLE_MEMO_SIZE = 8
"""The process-wide table memos below keep the tables of this many
arguments, the most recently used: a paper-reproduction mix uses five
(N, data degree) pairs, and a sweep over many degrees keeps no more."""


@functools.lru_cache(maxsize=_TABLE_MEMO_SIZE)
def _gauss_tables(Q: int):
    """The quadrature tables of data degree ``Q``, which depend on ``Q`` alone.

    Returns the Gauss-Legendre/Gauss-Laguerre split ``Q + 20``, the
    degree-``Q`` CGL grid of local sample points, the Gauss-Legendre nodes
    z_g with the weights folded into l_q(z_g), and the Chebyshev
    coefficients of the Gauss-Laguerre table, shape (Q+1, Q+1): row n
    multiplies T_n(x) at x = 2 split h - 1.  Memoised per ``Q`` (see
    ``_TABLE_MEMO_SIZE``) and shared by every assembler, so every array is
    read-only.
    """
    split = Q + 20
    qgrid = build_grid(Q)
    eye = np.eye(Q + 1)
    z, w = np.polynomial.legendre.leggauss(Q + 40)
    legendre = z, w[:, None] * interpolate(qgrid, eye, z)
    # Gauss-Laguerre in u = lam (1 + z): sum_i omega_i l_q(u_i h - 1) is a
    # degree-Q polynomial in h = 1 / lam, sampled at the Chebyshev points
    # of [0, 1 / split]
    u, omega = np.polynomial.laguerre.laggauss(Q // 2 + 1)
    h = (1.0 + qgrid.nodes) / (2.0 * split)
    samples = omega @ interpolate(qgrid, eye, u * h[:, None] - 1.0)
    laguerre = _chebyshev_coefficients(samples)
    for table in (qgrid.nodes, qgrid.spacings, qgrid.barycentric_weights, *legendre, laguerre):
        table.flags.writeable = False
    return split, qgrid, legendre, laguerre


@functools.lru_cache(maxsize=_TABLE_MEMO_SIZE)
def _dct_cosines(P: int) -> np.ndarray:
    """T_n(x_j) of the degree-``P`` CGL points x_j, end columns halved: the DCT-I matrix.

    T_n(x_j) = cos(n (P - j) pi / P), with the angle reduced to [0, 2 pi)
    exactly, in integers.  Read-only, memoised per ``P``.
    """
    n = np.arange(P + 1)
    cosines = np.cos(np.pi * ((n[:, None] * (P - n)) % (2 * P)) / P)
    cosines[:, [0, P]] *= 0.5
    cosines.flags.writeable = False
    return cosines


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients, row n multiplying T_n, of the interpolant of
    ``values``, whose P + 1 rows are at the degree-P CGL points in increasing order."""
    P = values.shape[0] - 1
    coefficients = (2.0 / P) * (_dct_cosines(P) @ values)
    coefficients[[0, P]] *= 0.5
    return coefficients


def _local_points(grid: CGLGrid, qgrid: CGLGrid) -> np.ndarray:
    """s_q of subinterval k, shape (N, Q+1): the points of ``qgrid`` mapped onto
    each node subinterval of ``grid``."""
    return grid.nodes[1:, None] - 0.5 * grid.spacings[:, None] * (1.0 + qgrid.nodes)


@functools.lru_cache(maxsize=_TABLE_MEMO_SIZE)
def _sample_tables(N: int, Q: int):
    """The local sample points of the degree-``N`` grid at data degree ``Q``, and their tables.

    Returns s_loc, shape (N, Q+1), the points s_q of each node subinterval
    k; lag_loc[k-1, j, q] = L_j(s_q), the Lagrange basis of the grid there;
    and the forcing's slab-wide grid, the degree-``FORCING_DEGREE`` CGL
    points with their interpolation table to s_loc, shape (N, Q+1, P+1),
    or None when P + 1 is not below the N (Q + 1) local sample points.
    Memoised per (N, Q) and shared by every assembler, so every array is
    read-only.
    """
    grid = build_grid(N)
    s_loc = _local_points(grid, _gauss_tables(Q)[1])
    lag_loc = np.ascontiguousarray(interpolate(grid, np.eye(N + 1), s_loc).transpose(0, 2, 1))
    P = FORCING_DEGREE
    forcing_grid = None
    if P + 1 < N * (Q + 1):
        pgrid = build_grid(P)
        forcing_grid = pgrid.nodes, interpolate(pgrid, np.eye(P + 1), s_loc)
    for table in (s_loc, lag_loc, *(forcing_grid or ())):
        table.flags.writeable = False
    return s_loc, lag_loc, forcing_grid


def _sample_forcing(f: Callable[[float], np.ndarray], times: np.ndarray) -> np.ndarray:
    """f at each of ``times``, one scalar call per time, stacked to shape (times.size, M)."""
    return np.stack([np.asarray(f(t), dtype=float) for t in times])


def _resolved(samples: np.ndarray) -> bool:
    """Whether ``samples``, shape (P+1, M) at the degree-P CGL points, pass the forcing rule.

    The rule is :class:`CoefficientAssembler`'s; all-zero samples pass it.
    """
    P = samples.shape[0] - 1
    coefficients = np.abs(_chebyshev_coefficients(samples))
    return coefficients[P - P // 4:].max() <= FORCING_TAIL * np.finfo(float).eps * coefficients.max()


def _chebyshev_basis(x: np.ndarray, Q: int, scale: np.ndarray) -> np.ndarray:
    """scale T_0(x) .. scale T_Q(x) for Q >= 1, shape (Q+1, x.size), by the
    three-term recurrence, which is linear: seeded with the scale, it scales every row."""
    T = np.empty((Q + 1, x.size))
    T[0] = scale
    np.multiply(scale, x, out=T[1])
    twice = 2.0 * x
    for n in range(2, Q + 1):
        np.multiply(twice, T[n - 1], out=T[n])
        T[n] -= T[n - 2]
    return T


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
    The alpha integrands have degree N + deg(a, c), so ``data_degree`` is
    max(12, N + deg(a, c)).  The Gauss tables depend on the data degree
    alone, and the local sample points, their Lagrange values and the
    forcing's interpolation table on N and the data degree: each is
    memoised and shared read-only by every assembler, so an
    assembler fetches them when it is built and ``slab`` makes no
    interpolation.  For a constant family alpha is exactly zero and is not
    integrated, and the slab's interior (:class:`SlabInterior`) does not
    depend on the slab: it is built once per assembler, whose partition
    has one slab length, on the first slab, and shared by every later one.

    The forcing rule.  The forcing is sampled once per slab at the P + 1
    slab-wide CGL points of degree P = ``FORCING_DEGREE``.  The samples are
    used when the last quarter of their Chebyshev coefficients (degrees
    P - P // 4 .. P) is at most ``FORCING_TAIL`` machine epsilons times the
    largest coefficient over all modes, or when one of them is not finite
    (which the forcing term then carries); they go to the local sample points
    through the (N, data_degree + 1, P + 1) interpolation table.  An
    unresolved forcing is called once per local sample time, and so is
    every forcing when P + 1 is not below the N (data_degree + 1) local
    sample times, as at N = 1.
    """

    def __init__(self, family: OperatorFamily, grid: CGLGrid, partition: TimePartition):
        self.family = family
        self.grid = grid
        self.partition = partition
        N = grid.N
        floor = N if family.is_constant else N + max(family.a_coeffs.shape[0], family.c_coeffs.shape[0]) - 1
        self.data_degree = Q = max(12, floor)
        self._split, self._qgrid, self._legendre, self._laguerre = _gauss_tables(Q)
        self._s_loc, self._lag_loc, self._forcing_grid = _sample_tables(N, Q)
        self._store = None

    def _interior(self, t_star: np.ndarray, t_loc: np.ndarray) -> SlabInterior:
        """E, alpha, the quadrature maps R_k and the kernel scale of one slab.

        ``t_star`` are the slab's node times and ``t_loc`` its sample times,
        shape (N, data_degree + 1); for a constant family the result does
        not depend on them.  maps[k-1, q, n] is the integral over
        0 <= sigma <= theta_k of e^{-nu_n sigma} l_q(z), z = 2 sigma /
        theta_k - 1, with l_q the local Lagrange function of sample point
        s_q.  With lam = nu theta_k / 2 it is taken by Gauss-Legendre up to
        lam = data_degree + 20, beyond by Gauss-Laguerre on the layer at
        z = -1, whose nodes then all lie in [-1, 1] and whose dropped tail
        is below e^{-2 lam} e^{data_degree / 2}.  The Gauss-Laguerre rows
        are (theta_k / 2) h times a degree-Q polynomial in h = 1 / lam,
        evaluated from its stored Chebyshev coefficients for every mode of
        a block of whole subintervals (about ``_MAP_BLOCK_MODES`` modes) at
        once, one matrix product written straight into each subinterval's
        map; the factor seeds the basis (``_chebyshev_basis``), so no pass
        rescales the map.  With
        h = 1 / max(lam, split) the slow modes sit at x = 2 split h - 1 = 1,
        where the basis is finite, and their columns are then overwritten by
        the Gauss-Legendre rule one subinterval at a time.  Each map is
        stored mode-contiguous, shape (Q+1, M): maps[k-1, q] holds sample
        point q's weights for every mode, so every pass of the maps over
        the modes reads rows of M contiguous values.  A constant family has
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
        maps = np.empty((N, Q + 1, M))
        z, w_lag = self._legendre
        varying = not family.is_constant
        alpha = np.zeros((N, N + 1, M)) if varying else None
        if varying:
            a_loc, c_loc = family.a(t_loc), family.c(t_loc)
        width = max(1, _MAP_BLOCK_MODES // M)
        for first in range(0, N, width):
            block = slice(first, first + width)
            half = 0.5 * grid.spacings[block, None]
            lam = half * nu[block]
            h = 1.0 / np.maximum(lam, split)
            chebyshev = _chebyshev_basis(2.0 * split * h.ravel() - 1.0, Q, (half * h).ravel())
            for j, R in enumerate(maps[block]):
                np.matmul(self._laguerre.T, chebyshev[:, j * M:(j + 1) * M], out=R)
            del chebyshev  # freed before alpha's products
            for k, lam_k in enumerate(lam, start=first):
                slow = lam_k <= split
                R = maps[k]
                R[:, slow] = (0.5 * grid.spacings[k] * (np.exp(-lam_k[slow, None] * (1.0 + z)) @ w_lag)).T
                if varying:
                    mu_q = a_loc[k][:, None] * family.basis.mu + c_loc[k][:, None]
                    np.matmul(self._lag_loc[k], R * (mu_frozen[k] - mu_q), out=alpha[k])
                    alpha[k] *= 0.5 * tau
        basis = family.basis
        kernel_scale = family.a(t_star[1:])[:, None] * basis.mu * basis.lift_coeffs
        return SlabInterior(tau, E, alpha, maps, kernel_scale, basis.boundary_trace)

    def _forcing_samples(self, l: int, f: Callable[[float], np.ndarray], t_loc: np.ndarray):
        """The forcing at the local sample times of slab ``l``, one (Q+1, M) array per subinterval.

        Sampled by the forcing rule of :class:`CoefficientAssembler`.
        """
        if self._forcing_grid is not None:
            nodes, table = self._forcing_grid
            samples = _sample_forcing(f, self.partition.map_to_slab(l, nodes))
            if not np.isfinite(samples).all():
                # an inf sample meets Lagrange weights of both signs: nan, silently
                with np.errstate(invalid="ignore"):
                    return [table_k @ samples for table_k in table]
            if _resolved(samples):
                return (table_k @ samples for table_k in table)
        return (_sample_forcing(f, local) for local in t_loc)

    def slab(
        self,
        l: int,
        g: Callable[[float], float] | None = None,
        f: Callable[[float], np.ndarray] | None = None,
        b: Callable[[float], float] | None = None,
    ) -> BlockSystem:
        """Assemble the block system of slab ``l``.

        ``g``, ``f`` and ``b`` are sampled on each subinterval at the
        data_degree + 1 local Chebyshev points and integrated through R_k,
        to roundoff by Gauss rules for polynomial data up to that degree and
        for analytic data.  The forcing is integrated here; ``g`` is kept
        as samples, which the stage solve takes through R_k together with
        F_y w0.  ``b`` rides inside the products b L_j that
        weight the boundary-trace unknowns, and is also sampled at the slab
        nodes, to recover y = b w; when it is omitted b is identically one.
        A ``g`` or ``b`` that is an :class:`~duhamelcheb.kernels.ExpDecay` is
        sampled at all the slab's sample times in one array call; any other
        ``g`` or ``b`` is called once per sample time with a scalar float.
        ``f`` is called with a scalar float, by the forcing rule of
        :class:`CoefficientAssembler`.
        """
        t_star = self.partition.slab_times(l, self.grid)
        t_loc = self.partition.map_to_slab(l, self._s_loc)
        interior = self._store
        if interior is None:
            interior = self._interior(t_star, t_loc)
            if self.family.is_constant:
                self._store = interior
        g_loc = np.zeros(t_loc.shape) if g is None else sample_data(g, t_loc)
        forcing = None
        if f is not None:
            forcing = np.empty(interior.E.shape)
            for k, f_loc in enumerate(self._forcing_samples(l, f, t_loc)):
                forcing[k] = 0.5 * self.partition.tau * np.einsum("qm,qm->m", interior.maps[k], f_loc)
        if b is None:
            lag_b, bvals = self._lag_loc, np.ones(t_star.shape)
        else:
            lag_b, bvals = self._lag_loc * sample_data(b, t_loc)[:, None, :], sample_data(b, t_star)
        return BlockSystem(
            slab=l, t_star=t_star, interior=interior, lag_b=lag_b, g_loc=g_loc, forcing=forcing, bvals=bvals
        )


def assemble_coefficients(
    family: OperatorFamily,
    grid: CGLGrid,
    partition: TimePartition,
    l: int,
    g: Callable[[float], float] | None = None,
    f: Callable[[float], np.ndarray] | None = None,
    b: Callable[[float], float] | None = None,
) -> BlockSystem:
    """One-shot assembly of the slab-``l`` block system."""
    return CoefficientAssembler(family, grid, partition).slab(l, g, f, b)


def block_matrix_inf_norm(blocks: np.ndarray) -> float:
    """Max block-row sum of mode-diagonal blocks: max_i sum_k max_n |.|."""
    return float(np.abs(blocks).max(axis=2).sum(axis=1).max())


def assemble_block_system(
    coeffs: BlockSystem,
    family: OperatorFamily,
    boundary_multiplier: Callable[[float], float],
) -> BlockSystem:
    """``coeffs`` with b at its nodes taken from ``boundary_multiplier``.

    Only the nodal values, used to recover y = b w, are sampled here; the
    coupling itself is kept, so the coefficients must have been assembled
    from ``family`` with the same multiplier (or with none, for b
    identically one).  An :class:`~duhamelcheb.kernels.ExpDecay` multiplier
    is sampled at the N + 1 slab nodes in one array call; any other
    callable once per node with a scalar float.
    """
    return replace(coeffs, bvals=sample_data(boundary_multiplier, coeffs.t_star))


@dataclass(frozen=True)
class StageSolution:
    """Solution of one slab: nodal mode vectors and boundary values.

    t holds the slab's node times and x, shape (N+1, M), the mode vectors
    there, including the inherited node 0; boundary_traces holds the trace
    unknowns w and y = b w the weighted boundary values, both of shape
    (N+1,).  residual is the max-norm defect of the
    collocation equations, contraction the assembled ||Lambda D||.
    """

    slab: int
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    boundary_traces: np.ndarray
    residual: float
    contraction: float
    fp_iterations: int | None = None
    fp_ratios: np.ndarray | None = None


def _phi_blocks(system: BlockSystem, x0: np.ndarray, w0: float) -> np.ndarray:
    """Phi = F_x x0 + F_y w0 + f_x (see :class:`BlockSystem`), summed in place.

    The boundary part, F_y w0 and the g term, is one pass of the maps:
    modes(V[0] w0 - g).  A constant family's F_x is E[0] in row 1 and zero
    elsewhere, so x0 enters row 1 only; a varying family adds its
    alpha-based F_x x0.  The forcing, if any, is added last.
    """
    Phi = system.interior.modes(w0 * system.lag_b[:, 0] - system.g_loc)
    alpha = system.interior.alpha
    if alpha is None:
        Phi[0] += system.E[0] * x0
    else:
        F_x = alpha[:, 0].copy()
        F_x[0] += system.E[0]
        F_x *= x0
        Phi += F_x
    if system.forcing is not None:
        Phi += system.forcing
    return Phi


def _c_apply(system: BlockSystem, w: np.ndarray) -> np.ndarray:
    """C~ w for a block vector w of shape (N, M); zeros, uncontracted, when C~ vanishes."""
    if system.has_interior_coupling:
        return np.einsum("kjm,jm->km", system.interior.alpha[:, 1:], w)
    return np.zeros(w.shape)


def _imsc(system: BlockSystem, w: np.ndarray) -> np.ndarray:
    """(I - S~ + C~) w for a block vector w of shape (N, M); the E-part on the moving modes only."""
    out = _c_apply(system, w)
    if system.N > 1:
        moving = system.interior.moving
        out[1:, :moving] += system.E[1:, :moving] * w[:-1, :moving]
    return out


def _lam_apply(system: BlockSystem, x: np.ndarray) -> np.ndarray:
    """Lambda x: the trace row contracted with the trailing mode axis of ``x``."""
    return np.einsum("m,...m->...", system.interior.trace, x)


def _d_apply(system: BlockSystem, y: np.ndarray) -> np.ndarray:
    """D y for trace values y of shape (N,): V y in sample space, then through the maps."""
    return system.interior.modes(np.einsum("kjq,j->kq", system.lag_b[:, 1:], y))


def _forward_sub(system: BlockSystem, r: np.ndarray) -> np.ndarray:
    """Apply the inverse of S~ to r of shape (N, ..., M) in place, by forward substitution.

    It sweeps the moving modes (see :class:`SlabInterior`); past them r is
    the result but for the sign of a zero: the skipped products, 0.0 where
    the entry above is positive or 0.0, turned a -0.0 of rows 2..N into
    0.0, and one ``+= 0.0`` does so.
    """
    moving = system.interior.moving
    E, head = system.E[:, :moving], r[..., :moving]
    for k in range(1, system.N):
        head[k] += E[k] * head[k - 1]
    r[1:, ..., moving:] += 0.0
    return r


def _eliminate_lu(system: BlockSystem, Phi: np.ndarray):
    """w, x~ and D w of one slab by M batched LU solves of A = S~ - C~.

    Column 0 of the coupling is F_y, which only enters Phi, so Phi takes its
    place and [Phi | D] is solved at once; each LU factorisation is shared
    by the N + 1 columns.
    """
    N = system.N
    rhs = system.coupling()
    rhs[:, 0] = Phi
    A = -system.interior.alpha[:, 1:]  # S~ - C~, without a temporary S~
    A[np.arange(N), np.arange(N)] += 1.0
    A[np.arange(1, N), np.arange(N - 1)] -= system.E[1:]
    Z = np.linalg.solve(A.transpose(2, 0, 1), rhs.transpose(2, 0, 1)).transpose(1, 2, 0)
    LZ = _lam_apply(system, Z)
    w_int = np.linalg.solve(np.eye(N) - LZ[:, 1:], LZ[:, 0])
    return w_int, Z[:, 0] + w_int @ Z[:, 1:], _d_apply(system, w_int)


def _eliminate_factored(system: BlockSystem, Phi: np.ndarray):
    """w, x~ and D w of one slab without C~, from the factored coupling."""
    N = system.N
    Z_phi = _forward_sub(system, Phi.copy())
    LZ_D = system.interior.trace_images.reshape(N, -1) @ system.lag_b[:, 1:].transpose(0, 2, 1).reshape(-1, N)
    w_int = np.linalg.solve(np.eye(N) - LZ_D, _lam_apply(system, Z_phi))
    Dw = _d_apply(system, w_int)
    xt = _forward_sub(system, Dw.copy())
    xt += Z_phi
    return w_int, xt, Dw


def _stage_solution(
    system: BlockSystem, x0: np.ndarray, w0: float, xt: np.ndarray, w_int: np.ndarray,
    Phi: np.ndarray, Dw: np.ndarray, rho: float, **fixed_point,
) -> StageSolution:
    """The slab's solution from x~ and w_1..w_N, given ``Dw`` = D w_int.

    Its residual is the max-norm defect of the collocation equations; the
    right-hand side is summed left to right in place, and then holds the defect.
    """
    rhs = _imsc(system, xt)
    rhs += Dw
    rhs += Phi
    trace_defect = np.abs(w_int - _lam_apply(system, rhs)).max()
    rhs -= xt
    residual = float(max(np.abs(rhs, out=rhs).max(), trace_defect))
    w = np.concatenate([[w0], w_int])
    return StageSolution(
        slab=system.slab,
        t=system.t_star,
        x=np.vstack([x0[None, :], xt]),
        y=system.bvals * w,
        boundary_traces=w,
        residual=residual,
        contraction=rho,
        **fixed_point,
    )


def solve_stage_direct(system: BlockSystem, x0: np.ndarray, w0: float) -> StageSolution:
    """Direct elimination solve of one slab.

    With A = S~ - C~ the interior rows read A x~ = D w + Phi; substituted
    into the trace rows they leave w = Lambda x~.  One interior solve
    therefore reduces the traces to the N x N system
    (I - Lambda A^{-1} D) w = Lambda A^{-1} Phi, and then
    x~ = A^{-1} Phi + A^{-1} D w.

    Phi and D w are formed from the factored coupling (see
    :class:`BlockSystem`).  When C~ vanishes (a constant family, whose
    alpha is not integrated, so ``system.has_interior_coupling`` is
    False) A = S~ is unit lower bidiagonal: Lambda S~^{-1} D is G V with
    the trace images G of the slab's interior (:class:`SlabInterior`),
    and Phi and D w are each swept through S~^{-1} on its own and the two
    added only at the end.  Summing them before the sweep would turn the trace's quantised
    cancellation remainders into smooth noise, which the CSV output pays
    for in distinct values.  Neither the (N, N+1, M) coupling nor the
    residual check is ever multiplied out.  Otherwise [Phi | D] is solved
    by M batched N x N LU factorisations.
    """
    rho = system.contraction_norm()
    if rho >= 1.0:
        raise SlabContractionError(rho, system.slab)
    eliminate = _eliminate_lu if system.has_interior_coupling else _eliminate_factored
    Phi = _phi_blocks(system, x0, w0)
    w_int, xt, Dw = eliminate(system, Phi)
    return _stage_solution(system, x0, w0, xt, w_int, Phi, Dw, rho)


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
    Lambda D is H V, and Phi and D y come from the factored coupling (see
    :class:`BlockSystem`), so no (N, N+1, M) coupling is built.
    ``tol`` must be finite and positive and ``max_iter`` an integer >= 1.
    """
    if not np.isfinite(tol) or tol <= 0:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    check_count("max_iter", max_iter)
    N, M = system.N, system.M
    Pmat = system.lambda_d
    rho = system.contraction_norm()
    if rho >= 1.0:
        raise SlabContractionError(rho, system.slab)
    W = np.linalg.inv(np.eye(N) - Pmat)
    Phi = _phi_blocks(system, x0, w0)
    lamPhi = _lam_apply(system, Phi)
    const = _forward_sub(system, _d_apply(system, W @ lamPhi) + Phi)

    x = np.zeros((N, M))
    history: list[float] = []
    for it in range(1, max_iter + 1):
        z = _lam_apply(system, _imsc(system, x))
        x_new = _forward_sub(system, _c_apply(system, x) + _d_apply(system, W @ z)) + const
        d = float(np.abs(x_new - x).max())
        if not np.isfinite(d):
            raise NonFiniteStageError(d, system.slab)
        history.append(d)
        x = x_new
        if d < tol:
            break
        if len(history) >= 4:
            inc = all(history[-i] > history[-i - 1] for i in (1, 2, 3))
            if inc and history[-1] > history[0]:
                ratio = history[-1] / history[-2]
                raise FixedPointDivergenceError(
                    ratio, it, "growing successive differences", system.slab
                )
    else:
        ratio = history[-1] / history[-2] if len(history) > 1 else np.inf
        raise FixedPointDivergenceError(
            ratio, max_iter, "iteration cap reached before tolerance", system.slab
        )

    w_int = W @ (_lam_apply(system, _imsc(system, x)) + lamPhi)
    hist = np.array(history)
    return _stage_solution(
        system, x0, w0, x, w_int, Phi, _d_apply(system, w_int), rho,
        fp_iterations=len(history), fp_ratios=hist[1:] / hist[:-1],
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
        """Distinct node times: t = 0 followed by nodes 1..N of each slab."""
        return self._nodal("t")

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


def march(problem, config: SolverConfig) -> SolutionTrace:
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
    bad = np.flatnonzero(~np.isfinite(u0))
    if bad.size:
        raise ValueError(f"initial mode vector is not finite: u0[{bad[0]}] = {u0[bad[0]]}")
    if abs(problem.T - config.T) > 1e-13 * max(1.0, config.T):
        raise ValueError(f"problem horizon T={problem.T} does not match config T={config.T}")
    for t in (0.0, 0.5 * config.T, config.T):
        if family.a(t) <= 0 or family.frozen_eigenvalues(t)[0] <= 0:
            raise ValueError(f"operator family is not positive at t={t}")

    grid = build_grid(config.N)
    K = config.K
    refinements = 0
    while True:
        partition = TimePartition(config.T, K)
        assembler = CoefficientAssembler(family, grid, partition)
        stages: list[StageSolution] = []
        x_prev = u0
        # a BLAS dot, not _lam_apply: the einsum sums a dense u0 in another order
        w_prev = float(u0 @ basis.boundary_trace)
        solve_seconds = 0.0
        contraction_max = 0.0
        refine = False
        for l in range(1, K + 1):
            system = assembler.slab(l, problem.g, problem.forcing, problem.b)
            rho = system.contraction_norm()
            contraction_max = max(contraction_max, rho)
            if rho >= CONTRACTION_REFINE and refinements < MAX_REFINEMENTS:
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
