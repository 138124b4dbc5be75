"""Exponential moment integrals and boundary-kernel series.

The moments

    I_s(mu; a, b) = int_a^b exp(-mu (b - lam)) lam^s dlam

are evaluated here through recurrences in the shifted variable
sigma = b - lam; they serve as a closed-form reference for exponential
integrals (collocation assembly itself integrates by Gauss rules).  The
module also defines the exponential data profile ``ExpDecay``, the sampler
``sample_data`` that gives it one array call, and tabulates the truncated
boundary kernels of the constant-coefficient heat operator,
used by the integral-equation residual oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from .operators import EigenBasis

__all__ = [
    "ExpDecay",
    "sample_data",
    "MomentTable",
    "KernelSeries",
    "exp_sigma_moments",
    "exp_integral",
    "moment_integrals",
    "kernel_K",
    "kernel_K1",
    "homogeneous_v",
]

SMALL_ARGUMENT = 1e-6
"""Below this value of |mu * delta| the zeroth moment switches to a Taylor
polynomial; above it the expm1-based closed form is exact to roundoff."""


@dataclass(frozen=True)
class ExpDecay:
    """The exponential profile coef * exp(-rate * t).

    Broadcasts over an array of times, so ``sample_data`` samples it with
    one array call (per slab in collocation, per sweep in the backward
    Euler baseline); every other data callable gets scalar float times one
    point at a time.  Boundary data of this closed form lets the
    residual oracle integrate the kernel series mode by mode without
    quadrature.
    """

    coef: float
    rate: float = 0.0

    def __call__(self, t):
        val = self.coef * np.exp(-self.rate * np.asarray(t, dtype=float))
        return float(val) if np.ndim(t) == 0 else val


def sample_data(fn: Callable[[float], float], times: np.ndarray) -> np.ndarray:
    """Values of the scalar data ``fn`` at ``times``, in an array of their shape.

    An ``ExpDecay`` broadcasts, so it takes one array call; every other
    callable gets one scalar float time per call, point by point.
    """
    if isinstance(fn, ExpDecay):
        values = fn(times)
        if np.shape(values) != times.shape:
            raise ValueError(
                f"{fn!r} returned shape {np.shape(values)} for times of shape {times.shape}"
            )
        return values
    return np.array([float(fn(t)) for t in times.ravel()]).reshape(times.shape)


def exp_integral(nu: np.ndarray, delta: float) -> np.ndarray:
    """J_0 = int_0^delta exp(-nu sigma) dsigma for rates nu of either sign.

    A Taylor polynomial serves |nu delta| < SMALL_ARGUMENT; a large
    negative rate overflows to inf rather than warning.
    """
    m = nu * delta
    small = np.abs(m) < SMALL_ARGUMENT
    safe_nu = np.where(small, 1.0, nu)
    with np.errstate(over="ignore"):
        analytic = -np.expm1(-m) / safe_nu
    taylor = delta * (1.0 - m / 2.0 + m * m / 6.0 - m**3 / 24.0)
    return np.where(small, taylor, analytic)


def exp_sigma_moments(nu: np.ndarray, delta: float, s_max: int) -> np.ndarray:
    """Moments J_i(nu, delta) = int_0^delta exp(-nu sigma) sigma^i dsigma.

    Parameters
    ----------
    nu : ndarray, shape (M,)
        Nonnegative decay rates (one per eigenmode).
    delta : float
        Positive integration length.
    s_max : int
        Highest power required.

    Returns
    -------
    ndarray, shape (M, s_max + 1)

    Notes
    -----
    The two-term recurrence connecting J_{i-1} and J_i is run in the
    direction that keeps it cancellation-free: upward (in i) when
    m = nu delta dominates the largest power, downward from a zero seed
    otherwise.  The downward sweep is the inhomogeneous Miller recursion;
    each step damps the seed error by at least m / i, so starting roughly
    thirty rows above s_max reaches roundoff for every admissible m.
    """
    nu = np.asarray(nu, dtype=float)
    if np.any(nu < 0):
        raise ValueError("decay rates must be nonnegative")
    if delta <= 0:
        raise ValueError(f"integration length must be positive, got {delta}")
    M = nu.shape[0]
    J = np.zeros((M, s_max + 1))
    J[:, 0] = exp_integral(nu, delta)
    if s_max == 0:
        return J

    m = nu * delta
    em = np.exp(-m)
    upward = m >= s_max + 2.0
    if np.any(upward):
        nu_up = nu[upward]
        em_up = em[upward]
        prev = J[upward, 0]
        for i in range(1, s_max + 1):
            prev = (i * prev - delta**i * em_up) / nu_up
            J[upward, i] = prev
    down = ~upward
    if np.any(down):
        nu_d = nu[down]
        em_d = em[down]
        top = s_max + 34 + int(2.0 * float(m[down].max()))
        cur = np.zeros_like(nu_d)
        for i in range(top, 0, -1):
            cur = (nu_d * cur + delta**i * em_d) / i
            if i - 1 <= s_max and i - 1 >= 1:
                J[down, i - 1] = cur
        # J_0 keeps its dedicated branch value.
    return J


@dataclass(frozen=True)
class MomentTable:
    """Moments I_s(mu; lo, hi) for s = 0..s_max on one interval."""

    mu: float
    lo: float
    hi: float
    values: np.ndarray

    @property
    def s_max(self) -> int:
        return self.values.shape[0] - 1

    def value(self, s: int) -> float:
        return float(self.values[s])


def moment_integrals(mu: float, lo: float, hi: float, s_max: int) -> MomentTable:
    """Exact moments int_lo^hi exp(-mu (hi - lam)) lam^s dlam for s <= s_max.

    Substituting sigma = hi - lam gives a binomial combination of the
    sigma-moments, which is what the table stores.
    """
    if mu < 0:
        raise ValueError(f"decay rate must be nonnegative, got {mu}")
    if hi <= lo:
        raise ValueError(f"empty interval ({lo}, {hi})")
    J = exp_sigma_moments(np.array([mu]), hi - lo, s_max)[0]
    vals = np.empty(s_max + 1)
    for s in range(s_max + 1):
        acc = 0.0
        for i in range(s + 1):
            acc += comb(s, i) * hi ** (s - i) * (-1.0) ** i * J[i]
        vals[s] = acc
    return MomentTable(mu=mu, lo=lo, hi=hi, values=vals)


@dataclass(frozen=True)
class KernelSeries:
    """Truncated boundary kernels K and K1 of the stationary operator.

    K(t) is the first-order boundary trace of A0 exp(-A0 t) B applied to a
    unit boundary value; K1(t, x) is the corresponding field kernel, and
    K(t) = K1(t, 1).  Both are series over the retained modes with
    coefficients kappa_n = mu_n b_n phi_n(1) (identically 2 for the heat
    rod).
    """

    basis: EigenBasis

    @property
    def M(self) -> int:
        return self.basis.M

    def _kappa(self) -> np.ndarray:
        return self.basis.mu * self.basis.lift_coeffs * self.basis.boundary_trace

    def K(self, t) -> np.ndarray | float:
        return kernel_K(self.basis, t)

    def K1(self, t, x) -> np.ndarray | float:
        return kernel_K1(self.basis, t, x)

    def kappa_bound(self) -> float:
        return float(np.abs(self._kappa()).max())

    def integrated_tail(self) -> float:
        """Bound on int_0^inf of the dropped part of |K|."""
        if self.basis.inv_mu_tail is None:
            raise ValueError("basis does not provide a closed-form eigenvalue tail")
        return self.kappa_bound() * self.basis.inv_mu_tail(self.M)

    def off_coincidence_tail(self, delta: float) -> float:
        """Bound on the dropped part of |K(t)| for t >= delta > 0.

        Geometric domination using the nondecreasing eigenvalue gaps:
        sum_{n>M} e^{-mu_n delta} <= e^{-mu_{M+1} delta} / (1 - e^{-g delta})
        with g = mu_{M+2} - mu_{M+1}.
        """
        if delta <= 0:
            raise ValueError(f"off-coincidence bound needs delta > 0, got {delta}")
        mu1 = self.basis.eigenvalue(self.M + 1)
        gap = self.basis.eigenvalue(self.M + 2) - mu1
        denom = -np.expm1(-gap * delta)
        return self.kappa_bound() * float(np.exp(-mu1 * delta) / denom)

    def truncation_report(self, delta: float = 0.1) -> dict:
        return {
            "modes": self.M,
            "integrated_tail": self.integrated_tail(),
            "off_coincidence_delta": delta,
            "off_coincidence_tail": self.off_coincidence_tail(delta),
        }


def _as_basis(series_or_basis) -> EigenBasis:
    if isinstance(series_or_basis, KernelSeries):
        return series_or_basis.basis
    return series_or_basis


def _check_positive_times(kernel: str, t_arr: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first t that is not > 0 (NaN included)."""
    bad = t_arr[~(t_arr > 0)]
    if bad.size:
        raise ValueError(f"kernel {kernel} needs t > 0 (it is singular at t = 0), got t={float(bad[0])}")


def kernel_K(series, t) -> np.ndarray | float:
    """Boundary trace kernel K(t) = sum_n mu_n b_n phi_n(1) exp(-mu_n t).

    ``series`` may be a KernelSeries or a bare EigenBasis.
    """
    basis = _as_basis(series)
    t_arr = np.asarray(t, dtype=float)
    _check_positive_times("K", t_arr)
    kappa = basis.mu * basis.lift_coeffs * basis.boundary_trace
    out = np.tensordot(kappa, np.exp(-np.multiply.outer(basis.mu, t_arr)), axes=(0, 0))
    return float(out) if np.ndim(t) == 0 else out


def kernel_K1(series, t, x) -> np.ndarray | float:
    """Field kernel K1(t, x) = sum_n mu_n b_n exp(-mu_n t) phi_n(x).

    Satisfies K1(t, 1) = K(t) with equal truncation.  ``series`` may be a
    KernelSeries or a bare EigenBasis.
    """
    basis = _as_basis(series)
    t_arr = np.asarray(t, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    _check_positive_times("K1", t_arr)
    if not np.all(np.isfinite(x_arr)):
        raise ValueError(f"kernel K1 needs a finite probe point, got x={x}")
    coeff = basis.mu * basis.lift_coeffs
    t_flat = np.atleast_1d(t_arr).ravel()
    phis = basis.eigenfunctions(x_arr).reshape(basis.M, -1)
    decay = np.exp(-np.outer(basis.mu, t_flat))
    out = np.einsum("m,mt,mx->tx", coeff, decay, phis)
    out = out.reshape(t_arr.shape + x_arr.shape)
    return float(out) if out.ndim == 0 else out


def homogeneous_v(series, u0_modes: np.ndarray, x, t: float) -> np.ndarray | float:
    """Solution of the homogeneous zero-boundary problem at time t.

    v(x, t) = sum_n u0_n exp(-mu_n t) phi_n(x); spatially this is the
    eigenfunction reconstruction of the decayed initial coefficients.
    ``series`` may be a KernelSeries or a bare EigenBasis.
    """
    basis = _as_basis(series)
    decayed = np.asarray(u0_modes, dtype=float) * np.exp(-basis.mu * t)
    phis = basis.eigenfunctions(x)
    out = np.tensordot(decayed, phis, axes=(0, 0))
    return float(out) if np.ndim(x) == 0 else out
