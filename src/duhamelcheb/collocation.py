"""Slab-wise collocation of the Duhamel integral system.

Every operator family is solved, slab by slab, as the constant family
frozen at the slab's midpoint, in its clock (see
:class:`~duhamelcheb.operators.OperatorFamily`).  On each time
slab the evolution problem is recast, through the variation-of-constants
formula with the boundary data lifted, as a coupled system for the field
values x_k and the boundary trace values w_k at the CGL nodes of the clock;
the weighted boundary values y_k = b(t_k) w_k are recovered afterwards.
Interpolating the trace rather than the product keeps the interpolation
error governed by the smoother of the two factors, while the multiplier b
rides inside the coefficient integrals, evaluated to roundoff by Gauss rules.

Each part is explained in one place:

- :class:`CoefficientAssembler`: the clock's slabs, the quadrature maps that
  integrate every coefficient, the memoised tables, and the forcing rule;
- ``CoefficientAssembler._interior``: the Gauss-Legendre/Gauss-Laguerre
  split, where the maps end and their separable tail begins, and the
  mode-contiguous layout of the maps;
- :class:`SlabInterior`: the moving modes, which the maps hold and the
  sweeps take, and the quasi-static ones past them, where S~ = I;
- :class:`BlockSystem`: the blocks of the stage system, with the boundary
  coupling kept factored and g kept as samples (:func:`solve_stage_direct`);
- :func:`solve_stage_direct` and :func:`solve_stage_fixed_point`: the two
  stage solvers, which share one trace row w = Lambda x~ (``_lam_apply``).
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .mesh import CGLGrid, TimePartition, build_grid, check_count, interpolate
from .operators import OperatorFamily
from .kernels import sample_data, sample_forcing
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
    """What a slab's coefficients take from the frozen family (a_m, c_m) and the slab's clock length tau.

    Every slab of one clock length and (a_m, c_m) shares it read-only.
    Index k-1 stands for node subinterval k = 1..N, trailing axis modes;
    mu~ = a_m mu0 + c_m.

    E[k-1]              propagator exp(-mu~ (tau/2) theta_k), (M,)
    maps[k-1]           (Q+1, moving) quadrature map R_k of subinterval k on
                        the moving modes (see ``CoefficientAssembler._interior``)
    tail_maps[k-1]      C_k, (Q+1, Q+1): past the moving modes R_k = C_k B
    tail_basis          B, (Q+1, M - moving), which every subinterval shares
    kernel_scale        (M,) a_m mu0 lift, which scales beta and the g term
    trace               boundary trace functional of the modes

    The moving modes [:moving] hold every propagator that is nonzero on
    some subinterval.  Past them E underflowed to 0.0 on every subinterval,
    as for all but the slowest modes at large M (133 of 4096 in the
    reference problem at N = 12, K = 4), so S~ = I there: these are the
    quasi-static modes.  Their maps take the Gauss-Laguerre rule on every
    subinterval, a polynomial in 1 / nu that separates into C_k B; without
    quasi-static modes C_k is (Q+1, 0) and B (0, 0).  E = 0 implies
    lam > 372.5, beyond the split up to data degree 352; past that degree
    a mode whose lam is at most the split on some subinterval stays in the
    maps.  ``_forward_sub``, ``_imsc`` and the propagated rows of
    :attr:`trace_images` skip the modes past ``moving``: each skipped term
    is a product with 0.0.  No tolerance, and no order of E in the mode, is
    assumed.
    """

    tau: float
    E: np.ndarray
    maps: np.ndarray
    tail_maps: np.ndarray
    tail_basis: np.ndarray
    kernel_scale: np.ndarray
    trace: np.ndarray

    @property
    def moving(self) -> int:
        """The number of modes the maps hold; the tail C_k B starts here."""
        return self.maps.shape[2]

    @functools.cached_property
    def coupling_scale(self) -> np.ndarray:
        """s = -(tau/2) a_m mu0 lift, so that beta[k-1, j] = s (R_k V_k[j])."""
        return -0.5 * self.tau * self.kernel_scale

    @functools.cached_property
    def trace_weights(self) -> np.ndarray:
        """H[k-1, q] = sum_m t_m s_m R_k[q, m]: Lambda D is H V."""
        ts, moving = self.trace * self.coupling_scale, self.moving
        return self.maps @ ts[:moving] + self.tail_maps @ (self.tail_basis @ ts[moving:])

    @functools.cached_property
    def trace_images(self) -> np.ndarray:
        """G[k-1, i-1, q] = sum_m t_m (S~^{-1})_{k,i,m} s_m R_i[q, m]: Lambda S~^{-1} D is G V.

        (S~^{-1})_{k,i} is the product of the propagators E_{i+1} .. E_k for
        k >= i and zero above the diagonal, so column i is built by one
        running product from the trace functional.  Row k = i has no
        propagator: it is the trace weights.  The rows k > i sum the modes
        ``[:moving]``, the only ones whose product is not exactly zero.
        """
        N, Q1, moving = self.maps.shape
        s = self.coupling_scale
        G = np.zeros((N, N, Q1))
        G[range(N), range(N)] = self.trace_weights
        weights = np.empty((N, moving))
        for i in range(N - 1):
            weights[i] = self.trace[:moving]
            for k in range(i + 1, N):
                np.multiply(weights[k - 1], self.E[k, :moving], out=weights[k])
            G[i + 1:, i] = (weights[i + 1:] * s[:moving]) @ self.maps[i].T
        return G

    def modes(self, c: np.ndarray) -> np.ndarray:
        """s (R_k c_k), shape (N, M), for sample-space values c of shape (N, Q+1).

        The one map to modes for every coupling term: the moving modes
        through the maps, the quasi-static ones through C_k and then B.
        """
        moving = self.moving
        out = np.empty(self.E.shape)
        np.matmul(c[:, None], self.maps, out=out[:, None, :moving])
        np.matmul(np.matmul(c[:, None], self.tail_maps)[:, 0], self.tail_basis, out=out[:, moving:])
        out *= self.coupling_scale
        return out

    def dense_maps(self) -> np.ndarray:
        """R_k over all modes, (N, Q+1, M), a new array: the maps and C_k B.

        For :meth:`BlockSystem.coupling` and inspection; no solve reads it.
        """
        return np.concatenate([self.maps, self.tail_maps @ self.tail_basis], axis=2)


@dataclass(frozen=True)
class BlockSystem:
    """The stage system of one slab: its coefficients, integrated to roundoff, and b at its nodes.

    It is the frozen family's system in the slab's clock, for u^ = e^{C^} u
    (see :class:`CoefficientAssembler`).  g stays as samples until the stage
    solve integrates it with F_y w0.

    Index conventions: row index k-1 for collocation equations k = 1..N,
    column index j for interpolation nodes j = 0..N, trailing axis modes.

    t_star            (N+1,) the times of the slab's nodes
    interior          E, the maps R_k and the trace (:class:`SlabInterior`)
    lag_b[k-1, j, q]  V_k = L_j(s_q) b(t_q): the trace basis times the
                      multiplier b (one when omitted) at the data_degree + 1
                      local sample points s_q of subinterval k
    g_loc[k-1, q]     e^{C^} g there, kept as samples (zero without g)
    forcing[k-1]      (tau/2) R_k (e^{C^} f / rho) in modes, or None
    bvals             (N+1,) b at the nodes (one without b), for y = b w
    unscale           (N+1,) e^{-C^} at the nodes, which takes u^ to u (1.0 at node 0),
                      or None where C^ = 0 on the slab and u^ = u, as for a constant family

    The solvers read every block from these fields.  All are diagonal per
    mode except the boundary functional Lambda:

    S~        unit lower bidiagonal, subdiagonal block i the propagator E[i]
    F_x       E[0] in row 1, zero elsewhere
    f_x       forcing - s (R_k g_k), s = -(tau/2) a_m mu0 lift
    Lambda    the trace row w_k = sum_n interior.trace[n] x~_{k,n} in every
              row, applied by ``_lam_apply``
    D, F_y    beta's columns 1..N and 0, the boundary-lift coupling against
              the interpolated trace: beta[k-1, j] = s (R_k V_k[j]), b inside
              the integrand.  It is kept factored as V and the maps: the
              solvers form V y in sample space and take it through the maps,
              at O(N M Q) cost; F_y w0 and the g term share one pass,
              c0 = V[0] w0 - g, then ``_add_inflow``.  The direct solve
              reads Lambda S~^{-1} D as G V, from the trace images G
              (:attr:`SlabInterior.trace_images`).

    Slabs may share one interior, with its E, maps and trace, so solvers
    must not write to them.
    """

    slab: int
    t_star: np.ndarray
    interior: SlabInterior
    lag_b: np.ndarray
    g_loc: np.ndarray
    forcing: np.ndarray | None
    bvals: np.ndarray
    unscale: np.ndarray | None

    @property
    def N(self) -> int:
        return self.E.shape[0]

    @property
    def M(self) -> int:
        return self.E.shape[1]

    @property
    def E(self) -> np.ndarray:
        return self.interior.E

    def coupling(self) -> np.ndarray:
        """beta = s (R_k V_k), s the interior's ``coupling_scale``, as a new (N, N+1, M) array.

        The solvers keep it factored; it is multiplied out for inspection only.
        """
        beta = np.matmul(self.lag_b, self.interior.dense_maps())
        beta *= self.interior.coupling_scale
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

    @functools.cached_property
    def _contraction_norm(self) -> float:
        return float(np.abs(self.lambda_d).sum(axis=1).max())

    def contraction_norm(self) -> float:
        """Infinity norm of Lambda D, computed once per system; below 1 the elimination is solvable."""
        return self._contraction_norm

    def s_tilde_blocks(self) -> np.ndarray:
        """S~ as dense (N, N, M) blocks, a new, writable array.

        Acceptance criterion 4 multiplies it with :meth:`s_tilde_inverse_blocks`.
        """
        N, M = self.N, self.M
        S = np.zeros((N, N, M))
        S[np.arange(N), np.arange(N)] = 1.0
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
"""A slab is assembled in blocks of whole subintervals of about this many
modes (``_map_blocks``): the maps in blocks of the moving modes, the
forcing in blocks of all of them, one subinterval per block from 512 modes
up.  Larger blocks raise a march's peak memory, smaller ones slow it.  It
bounds every assembly temporary, each (Q+1) by the block's modes: the
Chebyshev basis of ``_interior``, which carries the maps' scale, its
Gauss-Legendre rows, and the forcing's samples."""


def _map_blocks(N: int, M: int) -> list[slice]:
    """The blocks of whole node subintervals, of about ``_MAP_BLOCK_MODES`` modes each."""
    width = max(1, _MAP_BLOCK_MODES // max(M, 1))
    return [slice(first, min(first + width, N)) for first in range(0, N, width)]


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


@functools.lru_cache(maxsize=_TABLE_MEMO_SIZE)
def _sample_tables(N: int, Q: int):
    """The local sample points of the degree-``N`` grid at data degree ``Q``, and their tables.

    Returns s_loc, shape (N, Q+1), the degree-``Q`` CGL points s_q mapped
    onto each node subinterval k; lag_loc[k-1, j, q] = L_j(s_q), the
    Lagrange basis of the grid there; and the forcing's slab-wide grid,
    the degree-``FORCING_DEGREE`` CGL points with their interpolation
    table to s_loc, shape (N, Q+1, P+1), or None when P + 1 is not below
    the N (Q + 1) local sample points.
    Memoised per (N, Q) and shared by every assembler, so every array is
    read-only.
    """
    grid = build_grid(N)
    s_loc = grid.nodes[1:, None] - 0.5 * grid.spacings[:, None] * (1.0 + _gauss_tables(Q)[1].nodes)
    lag_loc = np.ascontiguousarray(interpolate(grid, np.eye(N + 1), s_loc).transpose(0, 2, 1))
    P = FORCING_DEGREE
    forcing_grid = None
    if P + 1 < N * (Q + 1):
        pgrid = build_grid(P)
        forcing_grid = pgrid.nodes, interpolate(pgrid, np.eye(P + 1), s_loc)
    for table in (s_loc, lag_loc, *(forcing_grid or ())):
        table.flags.writeable = False
    return s_loc, lag_loc, forcing_grid


def _resolved(samples: np.ndarray) -> bool:
    """Whether ``samples``, shape (P+1, M) at the degree-P CGL points, pass the forcing rule.

    The rule is :class:`CoefficientAssembler`'s; all-zero samples pass it.
    """
    P = samples.shape[0] - 1
    coefficients = np.abs(_chebyshev_coefficients(samples))
    return coefficients[P - P // 4:].max() <= FORCING_TAIL * np.finfo(float).eps * coefficients.max()


def _propagators(nu: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """E[k-1, n] = exp(-nu_n theta_k), shape (theta.size, nu.size).

    exp is exactly 0.0 below about -745.13, so exp is taken only up to the
    last mode whose exponent is at least -746 on some subinterval (a NaN
    one counts), and E is zero-filled past it.
    """
    if not nu[-1] * theta.min() > 746.0:
        return np.exp(-nu * theta[:, None])
    live = np.flatnonzero(~(nu * theta.min() > 746.0))
    width = live[-1] + 1 if live.size else 0
    E = np.zeros((theta.size, nu.size))
    E[:, :width] = np.exp(-nu[:width] * theta[:, None])
    return E


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
    """Per-slab coefficient assembly in the family's clock; like slabs share one interior.

    Slab l keeps its junctions (l - 1) T / K and l T / K and sees the family
    as the constant family (a_m, c_m) = (a(t_m), c(t_m)) frozen at its
    midpoint t_m, in its clock (:class:`~duhamelcheb.operators.OperatorFamily`,
    C^ anchored at the slab's left junction).  Its clock length is tau times
    its mean of a over a_m, and its nodes, local sample points and forcing
    grid are CGL in the clock.  Their clock coordinates come from one Newton
    solve over every slab when the assembler is built (``ValueError`` unless
    a > 0 on [0, T]); ``slab`` maps them to times and takes e^{C^} there.
    g and b are sampled at those times, g times e^{C^}, and f times
    e^{C^} / rho, rho = a / a_m.  A constant family keeps every bit.  The
    interior (:class:`SlabInterior`) is kept for the next slab, which reuses
    it when its clock length, a_m and c_m are the same, as every slab of a
    constant family does.

    One map integrates every coefficient, to roundoff by Gauss rules (see
    ``_interior``): R_k takes values at the data_degree + 1 local Chebyshev
    points of subinterval k, data_degree = max(12, N), to the kernel
    integrals of their interpolant.  Only the unknowns are interpolated at
    degree N (that is the scheme): a shared degree-N treatment of the data
    would cancel the interpolation defect of the boundary values node for
    node and report spurious exactness on resolved problems.  The Gauss
    tables, the local sample points, their Lagrange values and the
    forcing's interpolation table are memoised per N and data degree, and
    shared read-only by every assembler, so ``slab`` interpolates only the
    tail basis of an interior with quasi-static modes, in one call.

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
        self.data_degree = Q = max(12, N)
        self._split, self._qgrid, self._legendre, self._laguerre = _gauss_tables(Q)
        self._s_loc, self._lag_loc, self._forcing_grid = _sample_tables(N, Q)
        forcing_nodes = [] if self._forcing_grid is None else [self._forcing_grid[0]]
        clock_points = np.concatenate([grid.nodes, self._s_loc.ravel(), *forcing_nodes])
        self._cuts = N + 1, N + 1 + self._s_loc.size  # a slab's nodes, local sample points, forcing grid
        family.require_positive_a(partition.T)
        self._centres = 0.5 * partition.tau * np.arange(1, 2 * partition.K, 2)  # where each slab freezes the family
        self._means, self._xi, self._log_scales = family.slab_clocks(self._centres, 0.5 * partition.tau, clock_points)
        self._store = None

    def _interior(self, tau: float, t_m: float) -> SlabInterior:
        """E, the quadrature maps R_k and the kernel scale of a slab of clock
        length ``tau`` with the family frozen at ``t_m``.

        R_k[q, n] is the integral over 0 <= sigma <= theta_k of
        e^{-nu_n sigma} l_q(z), z = 2 sigma / theta_k - 1, l_q the local Lagrange
        function of sample point s_q.  With lam = nu theta_k / 2 it is taken by
        Gauss-Legendre up to lam = split = data_degree + 20, beyond by
        Gauss-Laguerre on the layer at z = -1, whose nodes then all lie in
        [-1, 1] and whose dropped tail is below e^{-2 lam} e^{data_degree / 2}.
        The Gauss-Laguerre rule is (theta_k / 2) h P_q(h) = P_q(h) / nu, P_q a
        degree-Q polynomial in h = 1 / lam whose Chebyshev coefficients the
        Gauss tables store.

        E comes first.  The maps, shape (N, Q+1, moving), hold the modes up
        to the last one whose E is nonzero on some subinterval or whose lam
        is at most the split on the shortest one.  They are formed one map
        block at a time: whole subintervals of about ``_MAP_BLOCK_MODES``
        moving modes (``_map_blocks``), with no Python loop over the block's
        subintervals.  The Gauss-Laguerre rows are one batched matrix product
        written straight into the block's maps; the factor seeds the basis
        (``_chebyshev_basis``), so no pass rescales the map.  With
        h = 1 / max(lam, split) the slow modes sit at x = 2 split h - 1 = 1,
        where the basis is finite, and their columns are then overwritten by
        the Gauss-Legendre rule: one gather of the block's slow (k, n), one
        exp, one product with the weighted Legendre table and one scatter.
        Each map is stored mode-contiguous: maps[k-1, q] holds sample point
        q's weights for every moving mode, so every pass of the maps over the
        modes reads contiguous rows.

        Past the moving modes every R_k is Gauss-Laguerre.  Put
        y = nu_min / nu in (0, 1], nu_min the smallest rate there, and
        h_k = 1 / (theta_k nu_min / 2): then h = h_k y, and P_q(h_k y) is a
        degree-Q polynomial in y, equal to its interpolant at the degree-Q
        CGL points y_j of [0, 1].  So R_k = C_k B, with
        C_k[q, j] = P_q(h_k y_j) and B[j, n] = l_j(y_n) / nu_n, the Lagrange
        basis in y taken by one barycentric ``interpolate`` call, which every
        subinterval shares.
        """
        family, grid, split = self.family, self.grid, self._split
        N, Q = grid.N, self.data_degree
        mu = family.frozen_eigenvalues(t_m)
        if np.any(mu < 0):
            raise ValueError(f"operator family is not positive at t={t_m}: a mu_1 + c = {mu.min():.6g}")
        nu = 0.5 * tau * mu
        E = _propagators(nu, grid.spacings)
        live = np.flatnonzero(E.any(axis=0) | ~(0.5 * grid.spacings.min() * nu > split))
        moving = int(live[-1]) + 1 if live.size else 0
        maps = np.empty((N, Q + 1, moving))
        z, w_lag = self._legendre
        for block in _map_blocks(N, moving):
            half = 0.5 * grid.spacings[block, None]
            lam = half * nu[:moving]
            h = 1.0 / np.maximum(lam, split)
            R = maps[block]
            chebyshev = _chebyshev_basis(2.0 * split * h.ravel() - 1.0, Q, (half * h).ravel())
            np.matmul(self._laguerre.T, chebyshev.reshape(Q + 1, *lam.shape).transpose(1, 0, 2), out=R)
            del chebyshev  # freed before the Gauss-Legendre rows
            k, m = np.nonzero(lam <= split)
            R[k, :, m] = half[k] * (np.exp(-lam[k, m, None] * (1.0 + z)) @ w_lag)
        C, B, tail = np.empty((N, Q + 1, 0)), np.empty((0, 0)), nu[moving:]
        if tail.size:
            nu_min, y = tail.min(), 0.5 * (1.0 + self._qgrid.nodes)
            h = (1.0 / (0.5 * grid.spacings * nu_min))[:, None] * y  # h_k y_j
            chebyshev = _chebyshev_basis(2.0 * split * h.ravel() - 1.0, Q, 1.0)
            C = np.matmul(self._laguerre.T, chebyshev.reshape(Q + 1, N, Q + 1).transpose(1, 0, 2))
            B = interpolate(self._qgrid, np.eye(Q + 1), 2.0 * (nu_min / tail) - 1.0).T / tail
        basis = family.basis
        return SlabInterior(tau, E, maps, C, B, family.a(t_m) * basis.mu * basis.lift_coeffs, basis.boundary_trace)

    def _forcing_samples(self, f: Callable[[float], np.ndarray], times: np.ndarray, weights: np.ndarray):
        """``weights`` f at the local sample times, as a function of a map block.

        ``times`` and ``weights`` = e^{C^} / rho are the slab's at its clock
        points (split by ``_cuts``).  Sampled by the forcing rule.  The
        function takes a block of subintervals (``_map_blocks``) to their
        samples, (width, Q+1, M): the block's rows of the interpolation table
        times the slab-grid samples, or the forcing's own values.
        """
        M, (nodes, local), shape = self.family.basis.M, self._cuts, self._s_loc.shape
        if self._forcing_grid is not None:
            table = self._forcing_grid[1]
            samples = sample_forcing(f, times[local:], M) * weights[local:, None]
            if not np.isfinite(samples).all() or _resolved(samples):
                def interpolated(block):
                    # an inf sample meets Lagrange weights of both signs: nan, silently
                    with np.errstate(invalid="ignore"):
                        return table[block] @ samples
                return interpolated
        t_loc, w_loc = times[nodes:local].reshape(shape), weights[nodes:local].reshape(shape)
        return lambda block: sample_forcing(f, t_loc[block], M) * w_loc[block, :, None]

    def slab(
        self,
        l: int,
        g: Callable[[float], float] | None = None,
        f: Callable[[float], np.ndarray] | None = None,
        b: Callable[[float], float] | None = None,
    ) -> BlockSystem:
        """Assemble the block system of slab ``l``.

        The forcing is integrated here, one map block at a time; ``g`` is
        kept as samples, which the stage solve takes through R_k with F_y w0.
        ``b`` rides inside the products b L_j that weight the trace
        unknowns, and is also sampled at the slab nodes, to recover y = b w;
        when it is omitted b is identically one.  A ``g`` or ``b`` that is
        an :class:`~duhamelcheb.kernels.ExpDecay` is sampled at all the
        slab's sample times in one array call, any other once per time with
        a scalar float.  ``f`` is called with a scalar float, by the forcing
        rule, and each value must hold M modes
        (:func:`~duhamelcheb.kernels.sample_forcing`).
        """
        family, shape, (nodes, local) = self.family, self._s_loc.shape, self._cuts
        t_m, tau = self._centres[l - 1], self.partition.tau * self._means[l - 1]
        a_m = family.a(t_m)
        xi = self._xi[l - 1]
        times = self.partition.map_to_slab(l, xi)
        scale = None  # e^{C^}, None where C^ = 0 on the slab: the identity clock, as a constant family's
        if self._log_scales[:, l - 1].any():
            log_scale = P.polyval(xi, self._log_scales[:, l - 1])
            scale = np.exp(log_scale - log_scale[0])  # exactly 1.0 at the left junction, xi[0] = -1
        t_star, t_loc = times[:nodes], times[nodes:local].reshape(shape)
        key = (tau, a_m, family.c(t_m))
        if self._store is None or self._store[0] != key:
            self._store = None  # the previous slab's interior is freed before this one is built
            self._store = key, self._interior(tau, t_m)
        interior = self._store[1]
        g_loc = np.zeros(shape) if g is None else sample_data(g, t_loc)
        if g is not None and scale is not None:
            g_loc = g_loc * scale[nodes:local].reshape(shape)
        forcing = None
        if f is not None:
            forcing = np.empty(interior.E.shape)
            weights = a_m / family.a(times)
            samples = self._forcing_samples(f, times, weights if scale is None else scale * weights)
            moving, C, B = interior.moving, interior.tail_maps, interior.tail_basis
            for block in _map_blocks(*forcing.shape):
                F = samples(block)
                forcing[block, :moving] = np.einsum("kqm,kqm->km", interior.maps[block], F[..., :moving])
                if moving < forcing.shape[1]:  # sum_q R_k[q] F_k[q] = sum_j B[j] (C_k^T F_k)[j] past moving
                    forcing[block, moving:] = np.einsum("jm,kjm->km", B, C[block].transpose(0, 2, 1) @ F[..., moving:])
            forcing *= 0.5 * tau
        if b is None:
            lag_b, bvals = self._lag_loc, np.ones(t_star.shape)
        else:
            lag_b, bvals = self._lag_loc * sample_data(b, t_loc)[:, None, :], sample_data(b, t_star)
        return BlockSystem(
            slab=l, t_star=t_star.copy(), interior=interior, lag_b=lag_b, g_loc=g_loc, forcing=forcing,
            bvals=bvals, unscale=None if scale is None else 1.0 / scale[:nodes],
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
    unknowns w and y = b w the weighted boundary values, both (N+1,).
    residual is the max-norm defect of the collocation equations,
    contraction the assembled ||Lambda D||.  The stage solvers return
    u^ = e^{C^} u (see :class:`BlockSystem`); :func:`march` takes the scale off.
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


def _add_inflow(system: BlockSystem, Phi: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Phi += F_x x0 + f_x in place: F_x is E[0] in row 1 and zero
    elsewhere, so x0 enters row 1 only; the forcing, if any, is added last."""
    Phi[0] += system.E[0] * x0
    if system.forcing is not None:
        Phi += system.forcing
    return Phi


def _imsc(system: BlockSystem, w: np.ndarray) -> np.ndarray:
    """(I - S~) w for a block vector w of shape (N, M), summed onto zeros; the moving modes only."""
    out, moving = np.zeros(w.shape), system.interior.moving
    out[1:, :moving] += system.E[1:, :moving] * w[:-1, :moving]
    return out


def _lam_apply(system: BlockSystem, x: np.ndarray) -> np.ndarray:
    """Lambda x: the trace row of ``system``'s interior contracted with the trailing mode axis of ``x``."""
    return np.einsum("m,...m->...", system.interior.trace, x)


def _trace_samples(system: BlockSystem, y: np.ndarray) -> np.ndarray:
    """V y in sample space, (N, Q+1), for trace values y of shape (N,): modes(V y) is D y."""
    return np.einsum("kjq,j->kq", system.lag_b[:, 1:], y)


def _forward_sub(system: BlockSystem, r: np.ndarray) -> np.ndarray:
    """Apply the inverse of S~ to r of shape (N, [rows,] M) in place, by forward substitution.

    It sweeps the moving modes (see :class:`SlabInterior`); past them r is
    the result but for the sign of a zero: the skipped products, 0.0 where
    the entry above is positive or 0.0, turned a -0.0 of rows 2..N into
    0.0, and one ``+= 0.0`` does so.
    """
    moving = system.interior.moving
    head = r[..., :moving]
    for E_k, above, row in zip(system.E[1:, :moving], head, head[1:]):
        row += E_k * above
    r[1:, ..., moving:] += 0.0
    return r


def _eliminate_split(system: BlockSystem, x0: np.ndarray, w0: float):
    """x, w_1..w_N, Phi and D w of one slab, from the factored coupling.

    x, (N+1, M), holds x0 and x~.  See :func:`solve_stage_direct`.
    """
    interior, N, M = system.interior, system.N, system.M
    Phi = _add_inflow(system, interior.modes(w0 * system.lag_b[:, 0] - system.g_loc), x0)
    Z_phi = _forward_sub(system, Phi.copy())
    LZ_D = interior.trace_images.reshape(N, -1) @ system.lag_b[:, 1:].transpose(0, 2, 1).reshape(-1, N)
    w_int = np.linalg.solve(np.eye(N) - LZ_D, _lam_apply(system, Z_phi))
    x = np.empty((N + 1, M))
    x[0] = x0
    xt = x[1:]
    Dw = interior.modes(_trace_samples(system, w_int))
    xt[...] = Dw
    _forward_sub(system, xt)
    xt += Z_phi
    return x, w_int, Phi, Dw


def _trace_residual(interior_rows: float, trace_defect: np.ndarray) -> float:
    """The stage residual from the interior rows' max defect and the trace
    rows' defect; NaN when either holds a NaN."""
    return float(np.maximum(interior_rows, np.abs(trace_defect).max()))


def _stage_solution(
    system: BlockSystem, x: np.ndarray, w0: float, w_int: np.ndarray,
    Phi: np.ndarray, Dw: np.ndarray, rho: float, **fixed_point,
) -> StageSolution:
    """The slab's solution from x, (N+1, M) with x0 in row 0, and w_1..w_N,
    given ``Dw`` = D w_int.

    The residual is the max-norm defect of the collocation equations: the
    interior rows, whose right-hand side is summed left to right in place
    and then holds the defect, and the trace rows.
    """
    xt = x[1:]
    rhs = _imsc(system, xt)
    rhs += Dw
    rhs += Phi
    trace_defect = w_int - _lam_apply(system, rhs)
    rhs -= xt
    residual = _trace_residual(np.abs(rhs, out=rhs).max(initial=0.0), trace_defect)
    w = np.concatenate([[w0], w_int])
    return StageSolution(
        slab=system.slab,
        t=system.t_star,
        x=x,
        y=system.bvals * w,
        boundary_traces=w,
        residual=residual,
        contraction=rho,
        **fixed_point,
    )


def solve_stage_direct(system: BlockSystem, x0: np.ndarray, w0: float) -> StageSolution:
    """Direct elimination solve of one slab.

    The interior rows read S~ x~ = D w + Phi, and the trace rows
    w = Lambda x~, so (I - Lambda S~^{-1} D) w = Lambda S~^{-1} Phi and then
    x~ = S~^{-1} Phi + S~^{-1} D w.  Phi and D w come from the factored
    coupling (see :class:`BlockSystem`), each one pass of the maps and
    their separable tail over all modes, and Lambda S~^{-1} D is G V with
    the trace images G of the slab's interior (:class:`SlabInterior`).  Phi
    is formed before the trace solve and D w after it; each is swept
    through S~^{-1} on its own, over the moving modes, and they are added
    only at the end: summing them before the sweep would turn the trace's
    quantised cancellation remainders into smooth noise, which the CSV
    output pays for in distinct values.  The (N, N+1, M) coupling is never
    multiplied out.
    """
    rho = system.contraction_norm()
    if rho >= 1.0:
        raise SlabContractionError(rho, system.slab)
    x, w_int, Phi, Dw = _eliminate_split(system, x0, w0)
    return _stage_solution(system, x, w0, w_int, Phi, Dw, rho)


def solve_stage_fixed_point(
    system: BlockSystem,
    x0: np.ndarray,
    w0: float,
    tol: float = SolverConfig.fp_tol,
    max_iter: int = SolverConfig.fp_max_iter,
) -> StageSolution:
    """Fixed-point sweep on the eliminated system.

    Iterates x <- S~^{-1} D W Lambda (I - S~) x + const with
    W = [I - Lambda D]^{-1}; converges geometrically when the combined
    coupling is a contraction, with ratio shrinking as the slab shortens.
    Lambda D is H V, and Phi and D y come from the factored coupling (see
    :class:`BlockSystem`), so no (N, N+1, M) coupling is built.
    ``tol`` must be finite and positive and ``max_iter`` an integer >= 1.
    """
    if not np.isfinite(tol) or tol <= 0:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    check_count("max_iter", max_iter)
    interior, N, M = system.interior, system.N, system.M
    Pmat = system.lambda_d
    rho = system.contraction_norm()
    if rho >= 1.0:
        raise SlabContractionError(rho, system.slab)
    W = np.linalg.inv(np.eye(N) - Pmat)
    Phi = _add_inflow(system, interior.modes(w0 * system.lag_b[:, 0] - system.g_loc), x0)
    lamPhi = _lam_apply(system, Phi)
    const = _forward_sub(system, interior.modes(_trace_samples(system, W @ lamPhi)) + Phi)

    x = np.zeros((N, M))
    history: list[float] = []
    for it in range(1, max_iter + 1):
        z = _lam_apply(system, _imsc(system, x))
        x_new = _forward_sub(system, interior.modes(_trace_samples(system, W @ z))) + const
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
        system, np.vstack([x0[None, :], x]), w0, w_int, Phi, interior.modes(_trace_samples(system, w_int)), rho,
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

    Each slab is solved in the family's clock, for u^ = e^{C^} u with C^
    anchored at the slab's left junction, where u^ = u; the march takes the
    scale off each stage and carries u from slab to slab.  Every stage
    solve returns a complete stage, so a stage whose residual is not finite
    raises :class:`NonFiniteStageError` naming its slab at once, before the
    next slab is assembled.

    When the assembled boundary coupling reaches the refinement threshold
    the slab count doubles and the march restarts, at most six times.  The
    march holds one slab's :class:`BlockSystem` at a time: slab l's is
    dropped before slab l + 1, or the restarted march's first slab, is
    assembled.
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
                del system  # freed before the restarted march assembles its first slab
                break
            t0 = time.perf_counter()
            if config.mode == "direct":
                stage = solve_stage_direct(system, x_prev, w_prev)
            else:
                stage = solve_stage_fixed_point(
                    system, x_prev, w_prev, tol=config.fp_tol, max_iter=config.fp_max_iter
                )
            solve_seconds += time.perf_counter() - t0
            unscale = system.unscale
            del system  # freed, with its maps, before slab l + 1 is assembled
            if not np.isfinite(stage.residual):
                raise NonFiniteStageError(stage.residual, l)
            stages.append(stage)
            if unscale is not None:  # the new stage's own arrays, which nothing else holds, lose the clock's scale in place
                for values in (stage.x.T, stage.boundary_traces, stage.y):
                    values *= unscale
            x_prev, w_prev = stage.x[-1], float(stage.boundary_traces[-1])
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
