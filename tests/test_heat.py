"""Benchmark problem builders, error reports, and the integral-equation residual."""

import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from duhamelcheb import (
    ErrorReport,
    ExpDecay,
    SeparableSolution,
    SolverConfig,
    Table,
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


def test_compute_errors_keeps_the_approximate_values(reference_problem):
    """The report carries u_N(1, t) and u_N(probe_x, t) bit for bit, and its
    table still renders t, eps1 and eps2 only."""
    trace = march(reference_problem, SolverConfig(N=6, K=2, M=128))
    report = compute_errors(trace, reference_problem, probe_x=0.25)
    basis = reference_problem.basis
    modes = trace.node_modes()
    assert np.array_equal(report.boundary_values, modes @ basis.boundary_trace)
    assert np.array_equal(report.probe_values, modes @ basis.eigenfunctions(0.25))
    exact = reference_problem.exact.boundary_value(report.times)
    assert np.array_equal(report.eps1, np.abs(exact - report.boundary_values))
    assert report.table().columns == ["t", "eps1", "eps2"]


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


def test_table_csv_bytes_are_pinned():
    """ints print through str (bool included), every other cell as the repr
    of a float (numpy integers included), in all-float and mixed tables."""
    mixed = Table(
        "mixed", {}, ["i", "b", "ni", "f", "nf", "mix"],
        [
            [1, True, np.int64(3), 0.1, np.float64(1 / 3), 7],
            [-2, False, np.int64(-4), -0.0, np.float64(-0.0), 2.5],
            [0, True, np.int64(0), float("nan"), np.float64("nan"), np.float64(5e-324)],
            [10**20, False, np.int64(2**62), float("inf"), np.float64("-inf"), False],
        ],
        notes=("first note", "second, with a comma"),
    )
    assert mixed.to_csv() == (
        "# first note\n# second, with a comma\ni,b,ni,f,nf,mix\n"
        "1,True,3.0,0.1,0.3333333333333333,7\n"
        "-2,False,-4.0,-0.0,-0.0,2.5\n"
        "0,True,0.0,nan,nan,5e-324\n"
        "100000000000000000000,False,4.611686018427388e+18,inf,-inf,False\n"
    )
    floats = Table(
        "floats", {}, ["a", "b", "c"],
        [[0.1, -0.0, 5e-324], [float("nan"), float("inf"), -float("inf")], [1e300, 2.0, -1.5e-310]],
    )
    assert floats.to_csv() == "a,b,c\n0.1,-0.0,5e-324\nnan,inf,-inf\n1e+300,2.0,-1.5e-310\n"
    assert Table("empty", {}, ["x"], []).to_csv() == "x\n"


def nan_with_payload(negative: bool, payload: int) -> np.float64:
    bits = (0x7FF << 52) | payload
    return np.int64(bits - 2**63 if negative else bits).view(np.float64)


AWKWARD = [
    0.0, -0.0, 2.0**-69, -(2.0**-69), -(2.0**-68), 5e-324, -1.5e-310,
    float("inf"), -float("inf"), float("nan"),
    nan_with_payload(False, 1), nan_with_payload(True, 1), nan_with_payload(True, 2**51 + 7),
    10**20, 7, True, False, np.int64(-3), np.float64(-0.0), np.float32(0.1),
]
CELLS = st.one_of(
    st.floats(allow_subnormal=True),
    st.builds(nan_with_payload, st.booleans(), st.integers(1, 2**52 - 1)),
    st.builds(float, st.builds(nan_with_payload, st.booleans(), st.integers(1, 2**52 - 1))),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.int32, st.integers(-(2**31), 2**31 - 1)),
    st.builds(np.float64, st.floats()),
    st.builds(np.float32, st.floats(width=32)),
)


@st.composite
def tables(draw):
    """Ragged tables (empty rows and the empty table included) whose rows
    draw from a small pool, so values repeat; the pool mixes awkward values
    (±0.0, signed NaN payloads, ±inf, subnormals, ints, bools, numpy
    scalars) with arbitrary ones."""
    pool = draw(st.lists(st.sampled_from(AWKWARD), min_size=1, max_size=8))
    pool += draw(st.lists(CELLS, max_size=4))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), max_size=9), max_size=7))
    notes = draw(st.lists(st.sampled_from(["a note", "x, y"]), max_size=2))
    return Table("t", {}, ["c0", "c1"], rows, tuple(notes))


@given(table=tables())
@example(table=Table("t", {}, ["c"], [AWKWARD, [], AWKWARD[::-1], [0.0, -0.0] * 40]))
@example(table=Table("t", {}, ["c"], []))
def test_table_csv_matches_per_cell_rendering(per_cell_csv, table):
    assert table.to_csv() == per_cell_csv(table)


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
