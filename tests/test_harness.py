"""Convergence studies, rate fitting, and the backward Euler baseline."""

import json

import numpy as np
import pytest

from duhamelcheb import (
    ExpDecay,
    HeatProblem,
    SeparableSolution,
    StudyResult,
    baseline_backward_euler,
    build_zero_example,
    constant_family,
    fit_rates,
    heat_basis,
    run_convergence_study,
)
from duhamelcheb.harness import StudyRow


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
