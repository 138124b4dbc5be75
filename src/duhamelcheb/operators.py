"""Spectrally representable operator families A(t) = a(t) A0 + c(t) I.

A0 is a fixed positive operator with a known eigenpair sequence
(mu_n, phi_n); every member of the family is diagonal in that basis, so
fields are stored as vectors of eigenbasis coefficients (plain 1-d float
arrays of length M).  The stationary boundary lift B solves A0 (B y) = 0
with unit first-order boundary trace, and is likewise stored through its
eigenbasis coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .mesh import check_count

__all__ = [
    "EigenBasis",
    "OperatorFamily",
    "heat_basis",
    "constant_family",
    "apply_exponential",
    "lift_derivative_trace",
]


@dataclass(frozen=True)
class EigenBasis:
    """Eigenpairs of the stationary part A0 together with lift data.

    Attributes
    ----------
    mu : ndarray, shape (M,)
        Eigenvalues of A0, positive and strictly increasing.
    boundary_trace : ndarray, shape (M,)
        phi_n evaluated at the boundary point where the Robin condition
        acts (x = 1 for the half-open heat rod).
    lift_coeffs : ndarray, shape (M,)
        Eigenbasis coefficients b_n of the unit lift B(1).
    eigenfunctions : callable
        ``eigenfunctions(x)`` returns the array of phi_n(x); for array
        ``x`` the result has shape (M,) + x.shape.
    lift_profile : callable
        Closed-form spatial profile of the unit lift, B(1)(x).
    eigenvalue : callable
        ``eigenvalue(n)`` extends the eigenvalue sequence beyond M
        (1-based mode index), used by kernel tail bounds.
    inv_mu_tail : callable
        ``inv_mu_tail(M)`` bounds ``sum_{n > M} 1 / mu_n`` in closed form.
    """

    mu: np.ndarray
    boundary_trace: np.ndarray
    lift_coeffs: np.ndarray
    eigenfunctions: Callable[[np.ndarray | float], np.ndarray]
    lift_profile: Callable[[np.ndarray | float], np.ndarray | float]
    eigenvalue: Callable[[int], float]
    inv_mu_tail: Callable[[int], float]

    @property
    def M(self) -> int:
        return self.mu.shape[0]

    @property
    def omega(self) -> float:
        """Spectral gap of A0 (smallest eigenvalue)."""
        return float(self.mu[0])

    @property
    def lift_boundary_value(self) -> float:
        """B(1) evaluated at the Robin boundary point, in closed form."""
        return float(self.lift_profile(1.0))


def heat_basis(M: int) -> EigenBasis:
    """Eigenbasis of -d^2/dx^2 on (0, 1) with v(0) = 0 and Robin data at x = 1.

    Modes are phi_n(x) = sin(omega_n x) with omega_n = pi (2n - 1) / 2 and
    mu_n = omega_n^2.  The unit lift is B(1)(x) = x, whose sine-series
    coefficients are b_n = 2 (-1)^{n+1} / mu_n.
    """
    check_count("mode count", M)
    n = np.arange(1, M + 1)
    omega = 0.5 * np.pi * (2 * n - 1)
    mu = omega**2
    signs = np.where(n % 2 == 1, 1.0, -1.0)

    def eigenfunctions(x):
        x_arr = np.asarray(x, dtype=float)
        return np.sin(np.multiply.outer(omega, x_arr))

    def eigenvalue(k: int) -> float:
        return (0.5 * np.pi * (2 * k - 1)) ** 2

    def inv_mu_tail(m: int) -> float:
        # sum_{n>m} (2/pi)^2 (2n-1)^{-2} <= (4/pi^2) * 1/(2(2m-1))
        return 2.0 / (np.pi**2 * (2 * m - 1))

    return EigenBasis(
        mu=mu,
        boundary_trace=signs.copy(),
        lift_coeffs=2.0 * signs / mu,
        eigenfunctions=eigenfunctions,
        lift_profile=lambda x: np.asarray(x, dtype=float) * 1.0,
        eigenvalue=eigenvalue,
        inv_mu_tail=inv_mu_tail,
    )


@dataclass(frozen=True)
class OperatorFamily:
    """Family A(t) = a(t) A0 + c(t) I with polynomial coefficients.

    ``a_coeffs`` and ``c_coeffs`` hold increasing-degree coefficients, kept
    as float arrays; one that is not 1-d and non-empty, or not finite,
    raises ``ValueError`` naming it.

    The clock.  Frozen at t_m, with rho = a / a(t_m), s = int rho and
    C^(t) = int_{t0}^t (c - c(t_m) rho), u^ = e^{C^} u solves
    du^/ds = -(a(t_m) A0 + c(t_m)) u^ + e^{C^} F / rho with
    u^_x + b u^ = e^{C^} g and u^(t0) = u(t0) whenever u' = -A(t) u + F with
    u_x + b u = g: the constant family (a(t_m), c(t_m)) in the clock s,
    exactly.  Each slab freezes it at its midpoint and anchors C^ at its left
    junction, so e^{C^} follows the drift of c within the slab only.  This
    needs a > 0 (:meth:`require_positive_a`) and a(t_m) mu_1 + c(t_m) >= 0.
    A constant family has rho = 1 and C^ = 0 exactly: its clock is the
    identity bit for bit.
    """

    basis: EigenBasis
    a_coeffs: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    c_coeffs: np.ndarray = field(default_factory=lambda: np.array([0.0]))

    def __post_init__(self):
        for name in ("a_coeffs", "c_coeffs"):
            coeffs = np.asarray(getattr(self, name), dtype=float)
            if coeffs.ndim != 1 or coeffs.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-d array, got shape {coeffs.shape}")
            if not np.isfinite(coeffs).all():
                raise ValueError(f"{name} must be finite, got {coeffs}")
            object.__setattr__(self, name, coeffs)

    def a(self, t):
        return P.polyval(t, self.a_coeffs)

    def c(self, t):
        return P.polyval(t, self.c_coeffs)

    def frozen_eigenvalues(self, t: float) -> np.ndarray:
        """Eigenvalues a(t) mu + c(t) of the frozen operator A(t)."""
        return self.a(t) * self.basis.mu + self.c(t)

    @property
    def is_constant(self) -> bool:
        """Whether every coefficient past degree 0 is zero, so A(t) = A(0) for all t."""
        return not (self.a_coeffs[1:].any() or self.c_coeffs[1:].any())

    def require_positive_a(self, T: float) -> None:
        """Raise ``ValueError`` naming the first time of [0, T] where a > 0 fails:
        t = 0, or a root of a in [0, T] that is real or where a <= 0."""
        if not self.a_coeffs[1:].any() and self.a_coeffs[0] > 0.0:
            return  # a constant a > 0
        roots = P.polyroots(self.a_coeffs) if self.a_coeffs[1:].any() else np.empty(0)
        roots = np.sort_complex(roots[(roots.real >= 0.0) & (roots.real <= T)])
        times = np.concatenate([[0.0], roots.real])
        fails = (self.a(times) <= 0.0) | np.concatenate([[False], roots.imag == 0.0])
        if fails.any():
            t = float(times[np.argmax(fails)])
            raise ValueError(f"operator coefficient a(t) must be positive on [0, T={T}], "
                             f"but a({t!r}) = {self.a(t):.3g}")

    def slab_clocks(self, centres: np.ndarray, half: float, r: np.ndarray):
        """The clocks of the slabs t = centre + half xi, xi in [-1, 1], each frozen at its centre.

        Returns, for the K ``centres``, the mean of rho = a / a(centre), (K,)
        (clock length over 2 half); the xi of the clock coordinates ``r``,
        (K, P), where int_{-1}^{xi} rho = mean (r + 1), by Newton steps from
        xi = r until each point's step is below 4 eps (r = +-1 stay); and the
        coefficients in xi of C^ anchored at xi = -1, (D, K).  In the local
        coordinate a constant family gives exactly 1.0, xi = r and C^ = 0,
        the identity clock, which it returns at once, with one zero
        coefficient per slab and xi a read-only view of ``r``.  A constant a
        has rho = 1 too, and its Newton steps settle at once on xi = r.
        """
        if self.is_constant:
            return np.ones(centres.size), np.broadcast_to(r, (centres.size, r.size)), np.zeros((1, centres.size))
        n = max(self.a_coeffs.size, self.c_coeffs.size)
        a_loc, c_loc = (_taylor(p, centres, half, n) for p in (self.a_coeffs, self.c_coeffs))
        rho = a_loc / a_loc[0]
        log_scale = P.polyint(c_loc - c_loc[0] * rho, lbnd=-1.0, scl=half)
        xi = np.repeat(r[None, :], centres.size, axis=0)
        mean = (1.0 / np.arange(1, n + 1)[::2]) @ rho[::2]
        # solve mean (xi - r) + D(xi) = 0 with D = int_{-1}^{xi} (rho - mean), whose rounding is small
        D = P.polyint(np.concatenate([rho[:1] - mean, rho[1:]]), lbnd=-1.0)
        settled = np.abs(xi) == 1.0
        for _ in range(50):
            step = mean[:, None] * (xi - r) + P.polyval(xi, D[:, :, None], tensor=False)
            step /= P.polyval(xi, rho[:, :, None], tensor=False)
            step[settled] = 0.0
            xi -= step
            np.clip(xi, -1.0, 1.0, out=xi)
            settled |= np.abs(step) <= 4.0 * np.finfo(float).eps  # NaN does not settle
            if settled.all():
                return mean, xi, log_scale
        raise ValueError("the clock's Newton steps did not settle: is a positive on [0, T]?")


def _taylor(coeffs: np.ndarray, centre: np.ndarray, half: float, n: int) -> np.ndarray:
    """The n >= deg p + 1 coefficients in h of p(centre + half h), (n, K), by Horner; p has ``coeffs``."""
    local = np.zeros((n, centre.size))
    for coef in coeffs[::-1]:
        local[1:] = centre * local[1:] + half * local[:-1]
        local[0] = centre * local[0] + coef
    return local


def constant_family(basis: EigenBasis, a: float = 1.0, c: float = 0.0) -> OperatorFamily:
    return OperatorFamily(basis=basis, a_coeffs=np.array([float(a)]), c_coeffs=np.array([float(c)]))


def apply_exponential(family: OperatorFamily, t: float, v: np.ndarray, lam: float) -> np.ndarray:
    """Apply exp(-lam A(t)) to the mode vector ``v``.

    ``lam`` must be finite and nonnegative; the decay bound
    ``|exp(-lam A(t)) v| <= exp(-lam omega(t)) |v|`` holds modewise.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"exponential requires a finite nonnegative duration lam, got {lam}")
    return v * np.exp(-lam * family.frozen_eigenvalues(t))


def lift_derivative_trace(basis: EigenBasis, y: float) -> float:
    """First-order boundary trace of B y.

    By construction of the lift this equals y exactly; the value comes from
    the closed-form profile, not from differentiating the (slowly
    converging) eigenfunction series.
    """
    del basis
    return float(y)
