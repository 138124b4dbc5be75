"""Convergence studies, rate fitting, and the backward Euler baseline."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from duhamelcheb import (
    ExpDecay,
    HeatProblem,
    SeparableSolution,
    SolverConfig,
    StudyResult,
    baseline_backward_euler,
    build_neumann_example,
    build_reference_example,
    build_zero_example,
    compute_errors,
    constant_family,
    fit_rates,
    heat_basis,
    march,
    run_convergence_study,
)
from duhamelcheb import harness
from duhamelcheb.harness import StudyRow, baseline_sweep
from problems import WRONG_SHAPE_IDS, WRONG_SHAPES, varying_manufactured_problem, wrong_shape_message


def test_study_rows_follow_requested_sweep(reference_problem):
    result = run_convergence_study(reference_problem, Ns=(2, 4), Ks=(1, 2))
    assert [(r.N, r.K) for r in result.rows] == [(2, 1), (2, 2), (4, 1), (4, 2)]
    assert all(r.M == 128 for r in result.rows)
    assert all(r.wall_time_s >= 0.0 for r in result.rows)
    assert result.config["problem"] == "reference"


def test_study_errors_collapse_spectrally(reference_problem):
    result = run_convergence_study(reference_problem, Ns=(2, 4, 8), Ks=(1,))
    errs = [r.max_eps1 for r in result.rows]
    assert errs[1] < errs[0] / 10.0
    assert errs[2] < errs[1] / 10.0


def test_study_csv_schema(reference_problem):
    result = run_convergence_study(reference_problem, Ns=(2, 4), Ks=(1,))
    text = result.table(notes=("sweep",)).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "# sweep"
    assert lines[1] == "N,K,M,max_eps1,max_eps2,wall_time_s"
    assert len(lines) == 2 + len(result.rows)
    n, k, m, e1, e2, w = lines[2].split(",")
    assert (int(n), int(k), int(m)) == (2, 1, 128)
    assert float(e1) == result.rows[0].max_eps1
    assert float(e2) == result.rows[0].max_eps2
    assert float(w) == result.rows[0].wall_time_s


def test_study_structured_round_trip(reference_problem):
    result = run_convergence_study(reference_problem, Ns=(2,), Ks=(1, 2))
    doc = result.table().to_structured()
    payload = json.loads(json.dumps(doc))
    assert payload == doc
    assert payload["kind"] == "study"
    assert payload["columns"] == ["N", "K", "M", "max_eps1", "max_eps2", "wall_time_s"]
    assert len(payload["rows"]) == 2


def _synthetic_study(rows):
    return StudyResult(rows=rows, config={})


def test_fit_rates_recovers_spectral_slope():
    rows = [StudyRow(N=n, K=1, M=8, max_eps1=2.0**-n, max_eps2=0.0, wall_time_s=0.0) for n in (2, 4, 8)]
    rates = fit_rates(_synthetic_study(rows))
    assert rates.spectral_slope == pytest.approx(-np.log(2.0), abs=1e-12)
    assert rates.spectral_slope_log10 == pytest.approx(-np.log10(2.0), abs=1e-12)
    assert rates.algebraic_order is None


def test_fit_rates_recovers_algebraic_order():
    rows = [StudyRow(N=4, K=k, M=8, max_eps1=1.0 / k, max_eps2=0.0, wall_time_s=0.0) for k in (1, 2, 4)]
    rates = fit_rates(_synthetic_study(rows))
    assert rates.algebraic_order == pytest.approx(1.0, abs=1e-9)
    assert rates.spectral_slope is None


def test_fit_rates_ignores_exact_rows():
    rows = [
        StudyRow(N=2, K=1, M=8, max_eps1=1e-2, max_eps2=0.0, wall_time_s=0.0),
        StudyRow(N=4, K=1, M=8, max_eps1=0.0, max_eps2=0.0, wall_time_s=0.0),
    ]
    rates = fit_rates(_synthetic_study(rows))
    assert rates.spectral_slope is None
    assert fit_rates(_synthetic_study([])).spectral_slope is None


def test_fit_rates_on_reference_sweep(reference_problem):
    result = run_convergence_study(reference_problem, Ns=(2, 4, 8), Ks=(1,))
    rates = fit_rates(result)
    assert rates.spectral_slope_log10 < -0.5


def test_baseline_is_first_order(reference_problem):
    errs = {}
    for steps in (50, 100, 200, 400):
        report = baseline_backward_euler(reference_problem, steps)
        errs[steps] = report.max_eps1
    hs = np.log([reference_problem.T / s for s in errs])
    es = np.log(list(errs.values()))
    order = float(np.polyfit(hs, es, 1)[0])
    assert 0.8 <= order <= 1.2
    assert 1.8 <= errs[100] / errs[200] <= 2.2


def test_baseline_initial_row_and_config(reference_problem):
    report = baseline_backward_euler(reference_problem, 32)
    assert report.eps1[0] == 0.0
    assert report.times.shape == (33,)
    assert report.config["method"] == "backward_euler"
    assert report.config["steps"] == 32
    assert report.config["wall_time_s"] >= 0.0


def test_baseline_validations(reference_problem):
    with pytest.raises(ValueError):
        baseline_backward_euler(reference_problem, 0)
    prob = build_zero_example(M=16)
    bare = HeatProblem(
        family=prob.family, b=prob.b, g=prob.g, u0=prob.u0, T=prob.T, name="bare"
    )
    with pytest.raises(ValueError):
        baseline_backward_euler(bare, 8)


def test_baseline_handles_forcing():
    """Manufactured solution exp(-t) on the first mode, driven by forcing."""
    M = 24
    basis = heat_basis(M)
    family = constant_family(basis)
    mu1 = float(basis.mu[0])
    direction = np.zeros(M)
    direction[0] = 1.0

    def forcing(t):
        return (mu1 - 1.0) * np.exp(-t) * direction

    exact = SeparableSolution(
        rate=1.0,
        profile=lambda x: np.sin(0.5 * np.pi * np.asarray(x, dtype=float)),
        dprofile_at_1=0.0,
    )
    prob = HeatProblem(
        family=family,
        b=ExpDecay(0.0, 0.0),
        g=ExpDecay(0.0, 0.0),
        u0=direction.copy(),
        T=1.0,
        forcing=forcing,
        exact=exact,
        name="forced-decay",
    )
    coarse = baseline_backward_euler(prob, 100)
    fine = baseline_backward_euler(prob, 200)
    assert fine.max_eps1 < 0.01
    assert 1.8 <= coarse.max_eps1 / fine.max_eps1 <= 2.2


@pytest.mark.parametrize("value", WRONG_SHAPES, ids=WRONG_SHAPE_IDS)
def test_baseline_rejects_a_forcing_value_of_the_wrong_shape(value):
    """A forcing value that does not hold M modes raises ``ValueError``
    naming the time, the shape and M, as in the collocation solvers."""
    M = 16
    problem = dataclasses.replace(varying_manufactured_problem(M), forcing=lambda t: value(M))
    with pytest.raises(ValueError, match=wrong_shape_message(value, M)):
        baseline_backward_euler(problem, 8)


def per_step_oracle(problem, steps, probe_x=0.5):
    """Backward Euler one step at a time: the frozen operator, c, b and g are
    evaluated afresh with scalar calls at every step.  Returns the times, the
    boundary and probe errors, and the approximate boundary and probe values."""
    family = problem.family
    basis = family.basis
    h = problem.T / steps
    trace1 = basis.boundary_trace
    phi_probe = basis.eigenfunctions(probe_x)
    lift1 = basis.lift_boundary_value
    lift_probe = float(basis.lift_profile(probe_x))
    b_lift = basis.lift_coeffs
    u = problem.u0.copy()
    times, vals1, valsp = [0.0], [float(u @ trace1)], [float(u @ phi_probe)]
    for m in range(steps):
        t_new = (m + 1) * h
        mu_t = family.frozen_eigenvalues(t_new)
        c_t = float(family.c(t_new))
        denom = 1.0 + h * mu_t
        rhs = u
        if problem.forcing is not None:
            rhs = u + h * np.asarray(problem.forcing(t_new), dtype=float)
        p = rhs / denom
        q = (1.0 + h * c_t) * b_lift / denom
        P = float(p @ trace1)
        Q = float(q @ trace1)
        b_t = float(problem.b(t_new))
        g_t = float(problem.g(t_new))
        y = (g_t - b_t * P) / (1.0 + b_t * (lift1 - Q))
        u = p + (b_lift - q) * y
        times.append(t_new)
        vals1.append(P - Q * y + lift1 * y)
        valsp.append(float(p @ phi_probe) - float(q @ phi_probe) * y + lift_probe * y)
    times, vals1, valsp = np.array(times), np.array(vals1), np.array(valsp)
    exact1 = np.asarray(problem.exact.boundary_value(times), dtype=float)
    exactp = np.asarray(problem.exact(probe_x, times), dtype=float)
    return times, np.abs(exact1 - vals1), np.abs(exactp - valsp), vals1, valsp


def with_plain_callables(problem):
    """The problem with its ExpDecay b and g replaced by scalar-only lambdas."""
    def plain(profile):
        return lambda t: profile.coef * math.exp(-profile.rate * t)

    return dataclasses.replace(problem, b=plain(problem.b), g=plain(problem.g))


def assert_matches_oracle(report, problem, steps, probe_x=0.5):
    times, eps1, eps2, vals1, valsp = per_step_oracle(problem, steps, probe_x)
    assert np.array_equal(report.times, times)
    assert np.array_equal(report.eps1, eps1)
    assert np.array_equal(report.eps2, eps2)
    assert np.array_equal(report.boundary_values, vals1)
    assert np.array_equal(report.probe_values, valsp)


@pytest.mark.parametrize("steps", [7, 1024])
@pytest.mark.parametrize(
    "build",
    [
        build_reference_example,
        build_neumann_example,
        varying_manufactured_problem,
        lambda: with_plain_callables(build_reference_example()),
    ],
    ids=["reference", "neumann", "varcoef-forced", "plain-callables"],
)
def test_baseline_matches_per_step_oracle(build, steps):
    """Sampling the data once per sweep and building a constant family's step
    operator once must leave every output bit unchanged, the approximate
    boundary and probe values included."""
    problem = build()
    assert_matches_oracle(baseline_backward_euler(problem, steps), problem, steps)


@dataclasses.dataclass(frozen=True)
class CountingExpDecay(ExpDecay):
    """An ExpDecay that records the shape of the times of every call."""

    shapes: list = dataclasses.field(default_factory=list, compare=False)

    def __call__(self, t):
        self.shapes.append(np.shape(t))
        return super().__call__(t)


def test_baseline_samples_expdecay_data_once_per_sweep():
    """Neumann (b identically one) is the problem whose errors move when q
    does by one ulp, so it also checks the values."""
    steps = 1024
    problem = build_neumann_example()
    g = CountingExpDecay(problem.g.coef, problem.g.rate)
    b = CountingExpDecay(problem.b.coef, problem.b.rate)
    report = baseline_backward_euler(dataclasses.replace(problem, g=g, b=b), steps)
    assert g.shapes == [(steps,)]
    assert b.shapes == [(steps,)]
    assert_matches_oracle(report, problem, steps)


def test_baseline_accepts_numpy_integer_steps():
    problem = build_neumann_example()
    report = baseline_backward_euler(problem, np.int64(1024))
    assert type(report.config["steps"]) is int and report.config["steps"] == 1024
    assert_matches_oracle(report, problem, 1024)


@pytest.mark.parametrize(
    "steps", [0, -3, 2.5, np.float64(8.0), "8", True, None], ids=repr
)
def test_baseline_rejects_non_integral_steps(reference_problem, steps):
    with pytest.raises(ValueError, match="^steps must be an integer >= 1"):
        baseline_backward_euler(reference_problem, steps)


@pytest.mark.parametrize("probe_x", [float("nan"), float("inf"), -float("inf"), -0.5, 2.0])
def test_error_reports_reject_non_finite_probe(reference_problem, probe_x):
    with pytest.raises(ValueError, match="^probe point must be finite"):
        baseline_backward_euler(reference_problem, 8, probe_x=probe_x)
    trace = march(reference_problem, SolverConfig(N=4, K=1, M=128))
    with pytest.raises(ValueError, match="^probe point must be finite"):
        compute_errors(trace, reference_problem, probe_x=probe_x)


@pytest.mark.parametrize(
    "Ns, Ks, message",
    [
        ([2.7], [1], "N must be an integer >= 1, got 2.7"),
        ([2], [1.9], "K must be an integer >= 1, got 1.9"),
        ([True], [1], "N must be an integer >= 1, got True"),
        ([2], ["1"], "K must be an integer >= 1, got '1'"),
        ([2, 0], [1], "N must be an integer >= 1, got 0"),
        ([], [1], "need at least one value of N"),
        ([2], (), "need at least one value of K"),
    ],
    ids=["N-float", "K-float", "N-bool", "K-str", "N-zero", "N-empty", "K-empty"],
)
def test_study_rejects_bad_counts_before_marching(reference_problem, Ns, Ks, message, monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("marched before the counts were checked")

    monkeypatch.setattr(harness, "march", no_march)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        run_convergence_study(reference_problem, Ns, Ks)


@pytest.mark.parametrize("probe_x", [float("nan"), -0.5, 2.0])
def test_study_rejects_a_probe_off_the_rod_before_marching(reference_problem, probe_x, monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("marched before the probe point was checked")

    monkeypatch.setattr(harness, "march", no_march)
    with pytest.raises(ValueError, match=re.escape(f"probe point must be finite and in [0, 1], got probe_x={probe_x}")):
        run_convergence_study(reference_problem, [2], [1], probe_x=probe_x)


@pytest.mark.parametrize("probe_x", [0.0, 1.0])
def test_error_reports_accept_the_rod_ends(reference_problem, probe_x):
    report = baseline_backward_euler(reference_problem, 8, probe_x=probe_x)
    assert np.isfinite(report.eps2).all()
    trace = march(reference_problem, SolverConfig(N=4, K=1, M=128))
    assert np.isfinite(compute_errors(trace, reference_problem, probe_x=probe_x).eps2).all()


def test_study_accepts_numpy_integer_counts(reference_problem):
    result = run_convergence_study(reference_problem, np.array([2, 4]), [np.int64(1)])
    assert [(r.N, r.K) for r in result.rows] == [(2, 1), (4, 1)]
    assert all(type(r.N) is int and type(r.K) is int for r in result.rows)


@pytest.mark.parametrize(
    "steps_list, message",
    [([], "need at least one value of steps"), ([100, 2.5], "steps must be an integer >= 1, got 2.5")],
    ids=["empty", "float"],
)
def test_baseline_sweep_rejects_bad_counts_before_stepping(reference_problem, steps_list, message, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("stepped before the counts were checked")

    monkeypatch.setattr(harness, "baseline_backward_euler", no_sweep)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        baseline_sweep(reference_problem, steps_list)


def test_baseline_sweep_accepts_numpy_integer_counts(reference_problem):
    table = baseline_sweep(reference_problem, np.array([8, 16]))
    assert [row[0] for row in table.rows] == [8, 16]
    assert all(type(row[0]) is int for row in table.rows)
