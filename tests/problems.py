"""Test problems shared by several test files.

A plain module rather than ``conftest.py``: with ``perfbench/tests`` in
the same run, ``import conftest`` resolves to whichever conftest pytest
loaded last.
"""

import re

import numpy as np

from duhamelcheb import ExpDecay, HeatProblem, SeparableSolution, heat_basis
from duhamelcheb.operators import OperatorFamily


def varying_manufactured_problem(M=128, a1=0.5, c1=0.3, kappa=2.5):
    """Manufactured solution e^{-kappa t} sin(pi x / 2) under a = 1 + a1 t,
    c = c1 t (by default a = 1 + 0.5 t, c = 0.3 t, kappa = 2.5): mode 1
    carries the forcing, g = b u(1, .)."""
    rate_b = np.pi**2 / 2.0
    basis = heat_basis(M)
    family = OperatorFamily(basis=basis, a_coeffs=np.array([1.0, a1]), c_coeffs=np.array([0.0, c1]))
    u0 = np.zeros(M)
    u0[0] = 1.0

    def forcing(t):
        out = np.zeros(M)
        out[0] = (family.frozen_eigenvalues(t)[0] - kappa) * np.exp(-kappa * t)
        return out

    return HeatProblem(
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


def varying_neumann_problem(M=128):
    """The Neumann rod's u = e^{-2t} sin(pi x) under a = 1 + t / 2, c = 0.3 t,
    with b = 1 and g = -pi e^{-2t}: u0 holds the sine coefficients of
    sin(pi x), and the forcing is (a pi^2 + c - 2) e^{-2t} times them."""
    basis = heat_basis(M)
    family = OperatorFamily(basis=basis, a_coeffs=np.array([1.0, 0.5]), c_coeffs=np.array([0.0, 0.3]))
    n = np.arange(1, M + 1)
    u0 = 2.0 * np.pi * np.where(n % 2 == 1, 1.0, -1.0) / (np.pi**2 - basis.mu)

    def forcing(t):
        return (family.a(t) * np.pi**2 + family.c(t) - 2.0) * np.exp(-2.0 * t) * u0

    return HeatProblem(
        family=family,
        b=ExpDecay(1.0, 0.0),
        g=ExpDecay(-np.pi, 2.0),
        u0=u0,
        T=1.0,
        forcing=forcing,
        exact=SeparableSolution(
            rate=2.0,
            profile=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
            dprofile_at_1=-np.pi,
        ),
        name="varying-neumann",
    )


WRONG_SHAPES = [lambda M: np.ones(1), lambda M: np.ones(M + 1), lambda M: 1.0, lambda M: np.ones((M, 1)), lambda M: [1.0]]
"""Forcing values, as functions of M, that do not hold M modes."""

WRONG_SHAPE_IDS = ["(1,)", "(M+1,)", "()", "(M,1)", "list-of-one"]


def wrong_shape_message(value, M) -> str:
    """The ``ValueError`` message of a forcing that returns ``value(M)``, as a pattern."""
    return rf"forcing returned shape {re.escape(str(np.shape(value(M))))} at t=.*, expected \({M},\)"
