"""Chebyshev-Gauss-Lobatto grids on [-1, 1] and uniform time slabs.

Each time slab [t_{l-1}, t_l] is mapped affinely to the reference interval
[-1, 1], where the collocation nodes are the Chebyshev-Gauss-Lobatto (CGL)
points ordered increasingly.  Polynomial evaluation uses the second
(barycentric) form of the Lagrange interpolant, which is backward stable on
these nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CGLGrid",
    "TimePartition",
    "build_grid",
    "lagrange_eval",
    "interpolate",
    "check_count",
]


def check_count(name: str, value) -> None:
    """Raise ``ValueError`` naming ``value`` unless it is an integer >= 1.

    Python and numpy integers are accepted; bools, floats (even integral
    ones) and strings are not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class CGLGrid:
    """Chebyshev-Gauss-Lobatto nodes of degree ``N`` on [-1, 1].

    Attributes
    ----------
    N : int
        Polynomial degree; the grid has ``N + 1`` nodes.
    nodes : ndarray, shape (N+1,)
        ``nodes[k] = cos((N - k) pi / N)``, increasing, with
        ``nodes[0] = -1`` and ``nodes[N] = 1`` exactly.
    spacings : ndarray, shape (N,)
        ``spacings[k-1] = nodes[k] - nodes[k-1]``; every spacing is
        bounded by ``pi / N``.
    barycentric_weights : ndarray, shape (N+1,)
        Alternating-sign weights with the endpoint weights halved.
    """

    N: int
    nodes: np.ndarray
    spacings: np.ndarray
    barycentric_weights: np.ndarray


def build_grid(N: int) -> CGLGrid:
    """Build the degree-``N`` CGL grid on [-1, 1].

    Parameters
    ----------
    N : int
        Polynomial degree, an integer >= 1 (see :func:`check_count`).

    Returns
    -------
    CGLGrid

    Notes
    -----
    Nodes are computed as ``cos((N - k) pi / N)`` and the two endpoints are
    then pinned to exactly -1 and +1 so that slab endpoints chain without
    rounding.  For N = 1 the spacing equals 2, which still satisfies the
    stability requirements of the exponential quadratures (the spacing
    bound ``pi / N`` only holds for N >= 2).
    """
    check_count("grid degree", N)
    k = np.arange(N + 1)
    nodes = np.cos((N - k) * np.pi / N)
    nodes[0] = -1.0
    nodes[N] = 1.0
    if N % 2 == 0:
        nodes[N // 2] = 0.0
    spacings = np.diff(nodes)
    weights = np.where(k % 2 == 0, 1.0, -1.0)
    weights[0] *= 0.5
    weights[N] *= 0.5
    return CGLGrid(N=N, nodes=nodes, spacings=spacings, barycentric_weights=weights)


def lagrange_eval(grid: CGLGrid, j: int, s) -> np.ndarray | float:
    """Evaluate the ``j``-th Lagrange basis polynomial of the grid at ``s``.

    Uses the second barycentric form; at a grid node the exact Kronecker
    value is returned.

    Parameters
    ----------
    grid : CGLGrid
    j : int
        Basis index in ``0..N``.
    s : float or ndarray
        Evaluation points in [-1, 1] (evaluation outside is permitted and
        corresponds to extrapolation of the polynomial).
    """
    if not 0 <= j <= grid.N:
        raise ValueError(f"basis index {j} outside 0..{grid.N}")
    return interpolate(grid, np.eye(grid.N + 1)[j], s)


def interpolate(grid: CGLGrid, values, s) -> np.ndarray | float:
    """Evaluate the polynomial interpolating ``values`` at the grid nodes.

    Parameters
    ----------
    grid : CGLGrid
    values : array_like, shape (N+1,) or (N+1, m)
        Nodal values; the trailing axes are interpolated componentwise.
    s : float or ndarray
        Evaluation points.

    Returns
    -------
    float or ndarray
        Shape is ``s.shape + values.shape[1:]``.  At a grid node the nodal
        value is returned exactly; at a NaN point the result is NaN.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] != grid.N + 1:
        raise ValueError(
            f"expected {grid.N + 1} nodal values, got {vals.shape[0]}"
        )
    s_arr = np.asarray(s, dtype=float)
    flat = np.atleast_1d(s_arr).ravel()
    diff = flat[:, None] - grid.nodes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = grid.barycentric_weights / diff
        den = terms.sum(axis=1)
        num = np.tensordot(terms, vals, axes=(1, 0))
        out = num / (den[:, None] if vals.ndim > 1 else den)
    # A point on a node, or so close to one that its term overflows, has an
    # infinite term and so a non-finite denominator; it takes the nodal
    # value.  A NaN point has a NaN denominator but no infinite term, so
    # it stays NaN.
    rows = np.flatnonzero(~np.isfinite(den))
    if rows.size:
        exact = np.isinf(terms[rows])
        hit = exact.any(axis=1)
        out[rows[hit]] = vals[np.argmax(exact[hit], axis=1)]
    if np.ndim(s) == 0:
        return out[0] if vals.ndim > 1 else float(out[0])
    return out.reshape(s_arr.shape + vals.shape[1:])


@dataclass(frozen=True)
class TimePartition:
    """Uniform partition of [0, T] into K slabs of width tau = T / K.

    T must be finite and positive and K an integer >= 1, or ``ValueError``
    is raised.
    """

    T: float
    K: int

    def __post_init__(self):
        if not np.isfinite(self.T) or self.T <= 0:
            raise ValueError(f"final time must be finite and positive, got T={self.T}")
        check_count("slab count", self.K)

    @property
    def tau(self) -> float:
        return self.T / self.K

    def map_to_slab(self, l: int, s) -> np.ndarray | float:
        """Affine image of reference coordinate ``s`` in slab ``l``.

        ``psi_l(s) = (tau / 2) (s + 2 l - 1)`` maps [-1, 1] onto
        ``[t_{l-1}, t_l]``.  Slab indices run from 1 to K; the identity
        ``psi_l(1) == psi_{l+1}(-1)`` holds exactly in floating point.  A
        coordinate more than 1e-12 outside [-1, 1], or NaN, raises
        ``ValueError``.
        """
        if not 1 <= l <= self.K:
            raise ValueError(f"slab index {l} outside 1..{self.K}")
        s_arr = np.asarray(s, dtype=float)
        if not np.all(np.abs(s_arr) <= 1.0 + 1e-12):  # NaN fails the comparison
            raise ValueError("reference coordinate outside [-1, 1]")
        out = 0.5 * self.tau * (s_arr + (2 * l - 1))
        return float(out) if np.ndim(s) == 0 else out
