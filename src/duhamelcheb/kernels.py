"""Exponential moment integrals and boundary-kernel series.

The moments

    I_s(mu; a, b) = int_a^b exp(-mu (b - lam)) lam^s dlam

are evaluated here in closed form in the shifted variable sigma = b - lam;
they serve as a reference for exponential integrals (collocation assembly
itself integrates by Gauss rules).  The module also defines the exponential
data profile ``ExpDecay``, the sampler ``sample_data`` that gives it one
array call, and tabulates the truncated boundary kernels of the
constant-coefficient heat operator, used by the integral-equation residual
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import EigenBasis

__all__ = [
    "ExpDecay",
    "sample_data",
    "sample_forcing",
    "MomentTable",
    "KernelSeries",
    "exp_sigma_moments",
    "exp_integral",
    "moment_integrals",
    "homogeneous_v",
    "check_probe",
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


def sample_forcing(f: Callable[[float], np.ndarray], times: np.ndarray, M: int) -> np.ndarray:
    """Values of the forcing ``f`` at ``times``, in an array of shape ``times.shape + (M,)``.

    ``f`` gets one scalar float time per call, point by point, and must
    return M modes: a value of any other shape, a scalar or a length-1
    list among them, raises ``ValueError`` naming the time, instead of
    being broadcast to every mode.
    """
    values = np.empty(times.shape + (M,))
    for t, row in zip(times.flat, values.reshape(-1, M)):
        value = np.asarray(f(t), dtype=float)
        if value.shape != (M,):
            raise ValueError(f"forcing returned shape {value.shape} at t={t}, expected ({M},) for M={M} modes")
        row[...] = value
    return values


def exp_integral(nu: np.ndarray, delta: float) -> np.ndarray:
    """J_0 = int_0^delta exp(-nu sigma) dsigma for rates nu of either sign.

    A Taylor polynomial serves |nu delta| < SMALL_ARGUMENT; it is
    evaluated at zero elsewhere, so a huge rate cannot overflow it.  A
    large negative rate overflows to inf rather than warning.
    """
    m = nu * delta
    small = np.abs(m) < SMALL_ARGUMENT
    safe_nu = np.where(small, 1.0, nu)
    with np.errstate(over="ignore"):
        analytic = -np.expm1(-m) / safe_nu
    ms = np.where(small, m, 0.0)
    taylor = delta * (1.0 - ms / 2.0 + ms * ms / 6.0 - ms**3 / 24.0)
    return np.where(small, taylor, analytic)


def exp_sigma_moments(nu: np.ndarray, delta: float, s_max: int) -> np.ndarray:
    """Moments J_i(nu, delta) = int_0^delta exp(-nu sigma) sigma^i dsigma, shape (M, s_max + 1).

    ``nu`` holds finite nonnegative decay rates, one per mode, ``delta`` is
    the finite positive integration length and ``s_max`` an integer >= 0;
    otherwise ``ValueError`` is raised.  With m = nu delta and P the regularised
    lower incomplete gamma function, J_i = i! P(i + 1, m) / nu^{i+1}; below
    m = SMALL_ARGUMENT, where nu^{i+1} can underflow, a four-term series in
    m serves instead; like :func:`exp_integral`'s Taylor polynomial it is
    evaluated at m = 0 elsewhere.  Column 0 is :func:`exp_integral`.
    """
    from scipy.special import gamma, gammainc  # lazy, so that importing the package loads no scipy

    nu = np.asarray(nu, dtype=float)
    bad = nu[~(np.isfinite(nu) & (nu >= 0))]
    if bad.size:
        raise ValueError(f"decay rates nu must be finite and nonnegative, got {bad[0]}")
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"integration length delta must be finite and positive, got {delta}")
    if isinstance(s_max, bool) or not isinstance(s_max, (int, np.integer)) or s_max < 0:
        raise ValueError(f"s_max must be an integer >= 0, got {s_max!r}")
    n = np.arange(1, s_max + 2)  # n = i + 1
    m = (nu * delta)[:, None]
    small = m < SMALL_ARGUMENT
    with np.errstate(over="ignore"):
        closed = gamma(n) * gammainc(n, m) / np.where(small, 1.0, nu[:, None]) ** n
    ms = np.where(small, m, 0.0)
    series = delta**n * (1.0 / n - ms / (n + 1) + ms * ms / (2 * (n + 2)) - ms**3 / (6 * (n + 3)))
    J = np.where(small, series, closed)
    J[:, 0] = exp_integral(nu, delta)
    return J


@dataclass(frozen=True)
class MomentTable:
    """Moments I_s(mu; lo, hi) for s = 0..s_max on one interval."""

    mu: float
    lo: float
    hi: float
    values: np.ndarray

    def value(self, s: int) -> float:
        return float(self.values[s])


def moment_integrals(mu: float, lo: float, hi: float, s_max: int) -> MomentTable:
    """Exact moments int_lo^hi exp(-mu (hi - lam)) lam^s dlam for s <= s_max.

    Substituting sigma = hi - lam gives a binomial combination of the
    sigma-moments, which is what the table stores.  ``mu`` must be finite and
    nonnegative, ``lo < hi`` finite and ``s_max`` an integer >= 0, or
    ``ValueError`` is raised.
    """
    if not (np.isfinite(mu) and mu >= 0):
        raise ValueError(f"decay rate mu must be finite and nonnegative, got {mu}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"interval endpoints lo, hi must be finite, got ({lo}, {hi})")
    if hi <= lo:
        raise ValueError(f"empty interval ({lo}, {hi})")
    from scipy.special import binom

    J = exp_sigma_moments(np.array([mu]), hi - lo, s_max)[0]
    s = np.arange(s_max + 1)
    # (hi - sigma)^r = sum_i binom(r, i) hi^(r - i) (-sigma)^i, zero for i > r
    weights = binom(s[:, None], s) * hi ** np.maximum(s[:, None] - s, 0) * (-1.0) ** s
    vals = weights @ J
    return MomentTable(mu=mu, lo=lo, hi=hi, values=vals)


def check_probe(x, name: str = "probe_x") -> None:
    """Raise ``ValueError`` naming ``name`` and the first point of ``x`` off the rod [0, 1] (NaN is off it)."""
    x_arr = np.asarray(x, dtype=float)
    bad = x_arr[~((x_arr >= 0.0) & (x_arr <= 1.0))]
    if bad.size:
        raise ValueError(f"probe point must be finite and in [0, 1], got {name}={float(bad[0])}")


def _check_positive_times(kernel: str, t_arr: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first t that is not > 0 (NaN included)."""
    bad = t_arr[~(t_arr > 0)]
    if bad.size:
        raise ValueError(f"kernel {kernel} needs t > 0 (it is singular at t = 0), got t={float(bad[0])}")


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
        """Boundary trace kernel K(t) = sum_n mu_n b_n phi_n(1) exp(-mu_n t)."""
        t_arr = np.asarray(t, dtype=float)
        _check_positive_times("K", t_arr)
        out = np.tensordot(self._kappa(), np.exp(-np.multiply.outer(self.basis.mu, t_arr)), axes=(0, 0))
        return float(out) if np.ndim(t) == 0 else out

    def K1(self, t, x) -> np.ndarray | float:
        """Field kernel K1(t, x) = sum_n mu_n b_n exp(-mu_n t) phi_n(x); K1(t, 1) = K(t).

        ``x`` must lie on the rod [0, 1] (see :func:`check_probe`).
        """
        basis = self.basis
        t_arr = np.asarray(t, dtype=float)
        x_arr = np.asarray(x, dtype=float)
        _check_positive_times("K1", t_arr)
        check_probe(x_arr, "x")
        phis = basis.eigenfunctions(x_arr).reshape(basis.M, -1)
        decay = np.exp(-np.outer(basis.mu, np.atleast_1d(t_arr).ravel()))
        out = np.einsum("m,mt,mx->tx", basis.mu * basis.lift_coeffs, decay, phis)
        out = out.reshape(t_arr.shape + x_arr.shape)
        return float(out) if out.ndim == 0 else out

    def _kappa_bound(self) -> float:
        return float(np.abs(self._kappa()).max())

    def integrated_tail(self) -> float:
        """Bound on int_0^inf of the dropped part of |K|, from the basis's closed-form eigenvalue tail."""
        return self._kappa_bound() * self.basis.inv_mu_tail(self.M)

    def off_coincidence_tail(self, delta: float) -> float:
        """Bound on the dropped part of |K(t)| for t >= delta > 0.

        Geometric domination using the nondecreasing eigenvalue gaps:
        sum_{n>M} e^{-mu_n delta} <= e^{-mu_{M+1} delta} / (1 - e^{-g delta})
        with g = mu_{M+2} - mu_{M+1}.  A ``delta`` that is not > 0, NaN
        included, raises ``ValueError``.
        """
        if not delta > 0:
            raise ValueError(f"off-coincidence bound needs delta > 0, got {delta}")
        mu1 = self.basis.eigenvalue(self.M + 1)
        gap = self.basis.eigenvalue(self.M + 2) - mu1
        denom = -np.expm1(-gap * delta)
        return self._kappa_bound() * float(np.exp(-mu1 * delta) / denom)

    def truncation_report(self, delta: float = 0.1) -> dict:
        return {
            "modes": self.M,
            "integrated_tail": self.integrated_tail(),
            "off_coincidence_delta": delta,
            "off_coincidence_tail": self.off_coincidence_tail(delta),
        }


def homogeneous_v(basis: EigenBasis, u0_modes: np.ndarray, x, t: float) -> np.ndarray | float:
    """Solution of the homogeneous zero-boundary problem at time t.

    v(x, t) = sum_n u0_n exp(-mu_n t) phi_n(x); spatially this is the
    eigenfunction reconstruction of the decayed initial coefficients.
    ``x`` must lie on the rod [0, 1] (see :func:`check_probe`).
    """
    check_probe(x, "x")
    decayed = np.asarray(u0_modes, dtype=float) * np.exp(-basis.mu * t)
    out = np.tensordot(decayed, basis.eigenfunctions(x), axes=(0, 0))
    return float(out) if np.ndim(x) == 0 else out
