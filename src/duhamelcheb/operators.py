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
    inv_mu_tail : callable or None
        ``inv_mu_tail(M)`` bounds ``sum_{n > M} 1 / mu_n`` when a closed
        form is available.
    """

    mu: np.ndarray
    boundary_trace: np.ndarray
    lift_coeffs: np.ndarray
    eigenfunctions: Callable[[np.ndarray | float], np.ndarray]
    lift_profile: Callable[[np.ndarray | float], np.ndarray | float]
    eigenvalue: Callable[[int], float]
    inv_mu_tail: Callable[[int], float] | None = None

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

    ``a_coeffs`` and ``c_coeffs`` hold polynomial coefficients in
    increasing-degree order (numpy convention).  a(t) must stay positive
    and a(t) mu_1 + c(t) must stay positive on the time interval of
    interest.  Both are kept as float arrays; an array that is not 1-d
    and non-empty, or that holds a NaN or infinite coefficient, raises
    ``ValueError`` naming it.
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
