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


WRONG_SHAPES = [lambda M: np.ones(1), lambda M: np.ones(M + 1), lambda M: 1.0, lambda M: np.ones((M, 1)), lambda M: [1.0]]
"""Forcing values, as functions of M, that do not hold M modes."""

WRONG_SHAPE_IDS = ["(1,)", "(M+1,)", "()", "(M,1)", "list-of-one"]


def wrong_shape_message(value, M) -> str:
    """The ``ValueError`` message of a forcing that returns ``value(M)``, as a pattern."""
    return rf"forcing returned shape {re.escape(str(np.shape(value(M))))} at t=.*, expected \({M},\)"
