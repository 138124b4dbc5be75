"""Test problems shared by several test files.

A plain module rather than ``conftest.py``: with ``perfbench/tests`` in
the same run, ``import conftest`` resolves to whichever conftest pytest
loaded last.
"""

import numpy as np

from duhamelcheb import ExpDecay, HeatProblem, SeparableSolution, heat_basis
from duhamelcheb.operators import OperatorFamily


def varying_manufactured_problem(M=128):
    """Manufactured solution e^{-kappa t} sin(pi x / 2) under a = 1 + 0.5 t,
    c = 0.3 t, kappa = 2.5: mode 1 carries the forcing, g = b u(1, .)."""
    kappa, rate_b = 2.5, np.pi**2 / 2.0
    basis = heat_basis(M)
    family = OperatorFamily(basis=basis, a_coeffs=np.array([1.0, 0.5]), c_coeffs=np.array([0.0, 0.3]))
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
