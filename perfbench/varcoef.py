"""Manufactured variable-coefficient problem for the ``varcoef-forced`` workload.

The operator family is A(t) = (1 + a1 t) A0 + c1 t I on the heat rod, with
the exact solution u(x, t) = exp(-kappa t) sin(pi x / 2).  Because
sin(pi x / 2) is the first eigenmode (mu_1 = pi^2 / 4) and has a vanishing
Neumann trace at x = 1, the forcing lives in mode 1 only,

    f(t) = (-kappa + a(t) mu_1 + c(t)) exp(-kappa t) e_1,

and the Robin data is g = b u(1, .).  The boundary multiplier b is the
reference problem's exp(-pi^2 t / 2), so g = exp(-(pi^2 / 2 + kappa) t).

The seed draws (a1, c1, kappa) from PARAM_RANGES.  Inside these ranges the
operator stays positive on [0, 1] and the boundary coupling stays far below
the refinement threshold at K = 8, so the march never restarts; the
benchmark's own tests check both, and that the seed code solves every
corner of the box to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from duhamelcheb import ExpDecay, HeatProblem, OperatorFamily, SeparableSolution, heat_basis

PARAM_RANGES = {"a1": (0.2, 0.8), "c1": (0.1, 0.5), "kappa": (1.5, 3.5)}
"""Closed ranges the seed draws a1, c1 and kappa from, uniformly."""

B_RATE = np.pi**2 / 2.0


@dataclass(frozen=True)
class ModeOneForcing:
    """f(t) = (-kappa + a(t) mu_1 + c(t)) exp(-kappa t) in mode 1, zero elsewhere."""

    family: OperatorFamily
    kappa: float

    def __call__(self, t: float) -> np.ndarray:
        out = np.zeros(self.family.basis.M)
        mu1 = self.family.frozen_eigenvalues(t)[0]
        out[0] = (mu1 - self.kappa) * np.exp(-self.kappa * t)
        return out


def draw_params(seed: int) -> dict:
    """(a1, c1, kappa) drawn uniformly from PARAM_RANGES by ``seed``."""
    rng = np.random.default_rng(seed)
    return {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in PARAM_RANGES.items()}


def build_varcoef_problem(a1: float, c1: float, kappa: float, M: int = 128, T: float = 1.0) -> HeatProblem:
    """The manufactured problem for one parameter draw."""
    basis = heat_basis(M)
    family = OperatorFamily(
        basis=basis, a_coeffs=np.array([1.0, a1]), c_coeffs=np.array([0.0, c1])
    )
    u0 = np.zeros(M)
    u0[0] = 1.0
    exact = SeparableSolution(
        rate=kappa,
        profile=lambda x: np.sin(0.5 * np.pi * np.asarray(x, dtype=float)),
        dprofile_at_1=0.0,
    )
    return HeatProblem(
        family=family,
        b=ExpDecay(1.0, B_RATE),
        g=ExpDecay(1.0, B_RATE + kappa),
        u0=u0,
        T=T,
        forcing=ModeOneForcing(family, kappa),
        exact=exact,
        name="varcoef-forced",
    )
