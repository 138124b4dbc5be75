"""The manufactured varcoef-forced problem is solved to roundoff without refinement."""

import itertools

import numpy as np
import pytest

import duhamelcheb as dc
import gate
import varcoef

CORNERS = list(itertools.product(*varcoef.PARAM_RANGES.values()))


def _march(problem):
    trace = dc.march(problem, dc.SolverConfig(N=12, K=8, M=128))
    return trace, dc.compute_errors(trace, problem)


@pytest.mark.parametrize("a1,c1,kappa", CORNERS)
def test_corners_solve_to_roundoff_without_refinement(a1, c1, kappa):
    problem = varcoef.build_varcoef_problem(a1, c1, kappa)
    trace, report = _march(problem)
    assert trace.refinements == 0
    assert trace.contraction_max < dc.collocation.CONTRACTION_REFINE / 2
    assert report.max_eps1 <= gate.ROUNDOFF_CEILING


def test_contraction_is_monotone_inside_the_box():
    """The coupling norm moves monotonically across the box, so the corners bound every seed."""
    lo, hi = (varcoef.build_varcoef_problem(*c) for c in (CORNERS[0], CORNERS[-1]))
    rho = {}
    for label, problem in (("lo", lo), ("hi", hi)):
        rho[label] = _march(problem)[0].contraction_max
    for seed in range(8):
        trace, report = _march(varcoef.build_varcoef_problem(**varcoef.draw_params(seed)))
        assert trace.refinements == 0
        assert min(rho.values()) - 1e-3 <= trace.contraction_max <= max(rho.values()) + 1e-3
        assert report.max_eps1 <= gate.ceiling(("varcoef-forced", 12, 8, "direct"))


def test_seed_draws_stay_in_range_and_repeat():
    for seed in range(50):
        params = varcoef.draw_params(seed)
        for name, (lo, hi) in varcoef.PARAM_RANGES.items():
            assert lo <= params[name] <= hi
    assert varcoef.draw_params(7) == varcoef.draw_params(7)


def test_manufactured_solution_satisfies_robin_condition_and_pde():
    a1, c1, kappa = 0.5, 0.3, 2.0
    problem = varcoef.build_varcoef_problem(a1, c1, kappa)
    assert problem.compatibility_defect() <= 1e-15
    # du/dt + a(t) A0 u + c(t) u = f in mode 1, checked by a centred difference in t
    t, h = 0.4, 1e-5
    mode1 = lambda s: float(np.exp(-kappa * s))
    dudt = (mode1(t + h) - mode1(t - h)) / (2 * h)
    lhs = dudt + (1 + a1 * t) * problem.basis.mu[0] * mode1(t) + c1 * t * mode1(t)
    f = problem.forcing(t)
    assert abs(lhs - f[0]) <= 1e-8 * abs(f[0])
    assert not f[1:].any()
