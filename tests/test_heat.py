"""Benchmark problem builders, error reports, and the integral-equation residual."""

import json

import numpy as np
import pytest

from duhamelcheb import (
    ErrorReport,
    ExpDecay,
    SeparableSolution,
    SolverConfig,
    build_decay_example,
    build_neumann_example,
    build_reference_example,
    build_zero_example,
    compute_errors,
    march,
    residual_of_exact_in_integral_equations,
    residual_tail_bound,
)


def test_expdecay_scalar_and_array():
    d = ExpDecay(2.0, 3.0)
    assert d(0.0) == 2.0
    assert isinstance(d(0.5), float)
    ts = np.array([0.0, 0.1, 1.0])
    vals = d(ts)
    assert vals.shape == (3,)
    assert np.allclose(vals, 2.0 * np.exp(-3.0 * ts), rtol=0, atol=0)


def test_separable_solution_traces():
    sol = SeparableSolution(
        rate=1.0, profile=lambda x: np.asarray(x, dtype=float) ** 2, dprofile_at_1=2.0
    )
    assert sol(0.5, 0.0) == 0.25
    assert sol.boundary_value(0.0) == 1.0
    assert sol.neumann_trace(0.0) == 2.0
    assert sol.boundary_value(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)


@pytest.mark.parametrize(
    "builder",
    [build_reference_example, build_neumann_example, build_zero_example, build_decay_example],
)
def test_builders_satisfy_robin_compatibility(builder):
    prob = builder(M=64)
    assert prob.compatibility_defect() <= 1e-12


def test_reference_initial_row_is_exact(reference_problem):
    report = compute_errors(march(reference_problem, SolverConfig(N=4, K=1, M=128)), reference_problem)
    assert report.eps1[0] == 0.0
    assert report.eps2[0] == 0.0


def test_reference_errors_decrease_with_degree(reference_problem):
    maxima = []
    for N in (2, 4, 8):
        report = compute_errors(
            march(reference_problem, SolverConfig(N=N, K=1, M=128)), reference_problem
        )
        maxima.append(report.max_eps1)
    assert maxima[1] < maxima[0]
    assert maxima[2] < maxima[1]


def test_probe_error_tracks_boundary_error(reference_problem):
    for N in (2, 4, 8):
        report = compute_errors(
            march(reference_problem, SolverConfig(N=N, K=1, M=128)), reference_problem
        )
        assert report.max_eps2 <= 2.0 * report.max_eps1 + 1e-15


def test_error_report_is_deterministic(reference_problem):
    cfg = SolverConfig(N=6, K=2, M=128)
    a = compute_errors(march(reference_problem, cfg), reference_problem)
    b = compute_errors(march(reference_problem, cfg), reference_problem)
    assert np.array_equal(a.eps1, b.eps1)
    assert np.array_equal(a.eps2, b.eps2)
    assert a.table().to_csv() == b.table().to_csv()


def test_error_report_csv_round_trips(reference_problem):
    report = compute_errors(
        march(reference_problem, SolverConfig(N=4, K=1, M=128)), reference_problem
    )
    text = report.table(notes=("demo",)).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "# demo"
    assert lines[1] == "t,eps1,eps2"
    assert len(lines) == 2 + report.times.shape[0]
    for i, line in enumerate(lines[2:]):
        t, e1, e2 = (float(tok) for tok in line.split(","))
        assert t == report.times[i]
        assert e1 == report.eps1[i]
        assert e2 == report.eps2[i]
    body = report.table(include_initial=False).to_csv()
    assert len(body.strip().split("\n")) == 1 + report.times.shape[0] - 1


def test_error_report_structured_round_trip(reference_problem):
    report = compute_errors(
        march(reference_problem, SolverConfig(N=4, K=1, M=128)), reference_problem
    )
    doc = report.table().to_structured()
    payload = json.loads(json.dumps(doc))
    assert payload == doc
    assert payload["kind"] == "error_report"
    assert payload["columns"] == ["t", "eps1", "eps2"]
    assert payload["config"]["N"] == 4
    assert payload["config"]["problem"] == "reference"
    assert len(payload["rows"]) == report.times.shape[0]
    assert payload["rows"][1][1] == report.eps1[1]


def test_max_eps_properties_skip_initial_row():
    report = ErrorReport(
        times=np.array([0.0, 0.5, 1.0]),
        eps1=np.array([5.0, 1.0, 2.0]),
        eps2=np.array([5.0, 3.0, 0.5]),
        config={},
    )
    assert report.max_eps1 == 2.0
    assert report.max_eps2 == 3.0


def test_compute_errors_requires_exact_solution(reference_problem):
    from duhamelcheb import HeatProblem

    bare = HeatProblem(
        family=reference_problem.family,
        b=reference_problem.b,
        g=reference_problem.g,
        u0=reference_problem.u0,
        T=reference_problem.T,
        name="bare",
    )
    trace = march(bare, SolverConfig(N=2, K=1, M=128))
    with pytest.raises(ValueError):
        compute_errors(trace, bare)


def test_residual_zero_for_zero_problem():
    prob = build_zero_example(M=32)
    res = residual_of_exact_in_integral_equations(prob, (0.5, 1.0))
    assert res.max_field == 0.0
    assert res.max_boundary == 0.0
    assert res.bound == 0.0


def test_reference_residual_cancels_for_both_signs(reference_problem):
    """g equals b times the boundary value here, so the two kernel
    convolutions cancel identically and the sign is unobservable."""
    for sign in (1.0, -1.0):
        res = residual_of_exact_in_integral_equations(
            reference_problem, (0.25, 0.5, 1.0), sign=sign
        )
        assert res.max_field <= 1e-13
        assert res.max_field <= res.bound


def test_neumann_residual_pins_kernel_sign():
    """Exactly one sign convention keeps the closed-form solution inside
    the documented truncation bound once the flux term is nonzero."""
    prob = build_neumann_example(M=200)
    times = (0.25, 0.5, 1.0)
    plus = residual_of_exact_in_integral_equations(prob, times, sign=1.0)
    minus = residual_of_exact_in_integral_equations(prob, times, sign=-1.0)
    assert plus.bound == minus.bound
    passes = [r.max_field <= r.bound and r.max_boundary <= r.bound for r in (plus, minus)]
    assert passes == [True, False]


def test_neumann_residual_halves_when_modes_double():
    times = (0.25, 0.5, 1.0)
    r200 = residual_of_exact_in_integral_equations(build_neumann_example(M=200), times)
    r400 = residual_of_exact_in_integral_equations(build_neumann_example(M=400), times)
    ratio = r200.max_field / r400.max_field
    assert 1.7 <= ratio <= 2.3
    assert r400.bound < r200.bound


def test_residual_tail_bound_positive_for_truncated_initial_data():
    prob = build_neumann_example(M=100)
    bound = residual_tail_bound(prob, (0.25, 1.0))
    assert bound > 0.0
    assert bound < 0.1


def test_residual_rejects_bad_inputs(reference_problem):
    with pytest.raises(ValueError):
        residual_of_exact_in_integral_equations(reference_problem, (0.0, 0.5))
    from duhamelcheb import HeatProblem

    odd_b = HeatProblem(
        family=reference_problem.family,
        b=lambda t: 1.0,
        g=reference_problem.g,
        u0=reference_problem.u0,
        T=reference_problem.T,
        exact=reference_problem.exact,
        name="odd",
    )
    with pytest.raises(ValueError):
        residual_of_exact_in_integral_equations(odd_b, (0.5,))
