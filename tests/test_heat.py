"""Benchmark problem builders, error reports, and the integral-equation residual."""

import dataclasses
import json
from types import SimpleNamespace

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
from duhamelcheb import cli, heat


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
    """The report carries u_N(1, t) and u_N(PROBE_X, t) bit for bit, and its
    table still renders t, eps1 and eps2 only."""
    trace = march(reference_problem, SolverConfig(N=6, K=2, M=128))
    report = compute_errors(trace, reference_problem)
    basis = reference_problem.basis
    modes = trace.node_modes()
    assert np.array_equal(report.boundary_values, modes @ basis.boundary_trace)
    assert np.array_equal(report.probe_values, modes @ basis.eigenfunctions(heat.PROBE_X))
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


def test_numpy_integer_counts_reach_the_structured_document_as_ints(reference_problem):
    """SolverConfig stores numpy-integer counts as Python ints, so the config
    echo of the error report and of the CLI's trace table stays JSON."""
    config = SolverConfig(N=np.int64(4), K=np.int64(2), M=np.int64(128))
    trace = march(reference_problem, config)
    for table in (compute_errors(trace, reference_problem).table(), cli._trace_table(trace, reference_problem)):
        payload = json.loads("".join(table.structured_chunks()))
        assert (payload["config"]["N"], payload["config"]["K"], payload["config"]["M"]) == (4, 2, 128)
    assert [type(value) for value in (config.N, config.K, config.M)] == [int, int, int]


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


FLOAT_POOL = [float(v) for v in AWKWARD if not isinstance(v, (int, np.integer))]


@st.composite
def array_rows(draw):
    """(r, c) arrays, r and c from 0, drawn from a small float pool of
    awkward values, as contiguous float64, as a non-contiguous view, or as
    an int64 or bool array."""
    r, c = draw(st.integers(0, 7)), draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["float", "strided", "int", "bool"]))
    if kind == "int":
        cells = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=r * c, max_size=r * c)
        return np.array(draw(cells), dtype=np.int64).reshape(r, c)
    if kind == "bool":
        cells = st.lists(st.booleans(), min_size=r * c, max_size=r * c)
        return np.array(draw(cells), dtype=bool).reshape(r, c)
    pool = draw(st.lists(st.sampled_from(FLOAT_POOL), min_size=1, max_size=8))
    pool += draw(st.lists(st.floats(allow_subnormal=True), max_size=4))
    n = r * c * (2 if kind == "strided" else 1)
    values = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=float)
    if kind == "strided":
        return values.reshape(c, 2 * r)[:, ::2].T
    return values.reshape(r, c)


@given(rows=array_rows())
@example(rows=np.resize(np.array(FLOAT_POOL), (300, 131)))
@example(rows=np.linspace(-1.0, 1.0, 200 * 131).reshape(131, 200)[:, ::-1].T)
def test_array_table_csv_matches_per_cell_rendering(per_cell_csv, rows):
    """Array rows render as their numpy scalars do under the per-cell rule,
    also across several row blocks (the two explicit examples)."""
    columns = [f"c{i}" for i in range(rows.shape[1])]
    table = Table("t", {}, columns, rows, ("a note",))
    oracle = SimpleNamespace(notes=("a note",), columns=columns, rows=rows)
    assert table.to_csv() == per_cell_csv(oracle)


def test_list_table_csv_across_blocks_matches_per_cell_rendering(per_cell_csv):
    rows = [[i, -0.0, i / 7, bool(i % 2), np.int64(i)] * (i % 11) for i in range(3000)]
    table = Table("t", {}, ["c"], rows)
    for got, want in zip(table.to_csv().split("\n"), per_cell_csv(table).split("\n"), strict=True):
        assert got == want


@given(table=tables(), rows=array_rows(), block_cells=st.integers(1, 12))
def test_small_blocks_carrying_repeated_texts_match_per_cell_rendering(per_cell_csv, table, rows, block_cells):
    """With blocks of a few cells, the texts of values repeated within one
    block are looked up in the next: list and array tables still render
    as the per-cell rule does."""
    columns = [f"c{i}" for i in range(rows.shape[1])]
    oracle = SimpleNamespace(notes=(), columns=columns, rows=rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heat, "_CSV_BLOCK_CELLS", block_cells)
        assert table.to_csv() == per_cell_csv(table)
        assert Table("t", {}, columns, rows).to_csv() == per_cell_csv(oracle)


JSON_AWKWARD = [v for v in AWKWARD if isinstance(v, (int, float))]
"""The awkward cells that ``json.dumps`` takes: Python ints, bools and floats, np.float64 included."""
JSON_CELLS = st.one_of(
    st.floats(allow_subnormal=True),
    st.builds(nan_with_payload, st.booleans(), st.integers(1, 2**52 - 1)),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.builds(np.float64, st.floats()),
)


@st.composite
def json_tables(draw):
    """Ragged list tables as :func:`tables` draws them, from cells that JSON can hold."""
    pool = draw(st.lists(st.sampled_from(JSON_AWKWARD), min_size=1, max_size=8))
    pool += draw(st.lists(JSON_CELLS, max_size=4))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), max_size=9), max_size=7))
    notes = draw(st.lists(st.sampled_from(["a note", "x, y"]), max_size=2))
    return Table("t", {"n": 3, "rows": [1.5]}, ["c0", "c1"], rows, tuple(notes))


@given(table=json_tables(), rows=array_rows(), block_cells=st.integers(1, 12))
@example(table=Table("t", {}, ["c"], [JSON_AWKWARD, [], JSON_AWKWARD[::-1], [0.0, -0.0] * 40]),
         rows=np.zeros((3, 0)), block_cells=4096)
@example(table=Table("t", {}, [], []), rows=np.zeros((0, 2)), block_cells=4096)
def test_structured_chunks_are_the_json_text_of_the_document(table, rows, block_cells):
    """The chunks join to ``json.dumps(to_structured(), indent=2)`` byte for
    byte: ints and bools as JSON prints them, NaN and ±inf as NaN and
    ±Infinity, empty rows and tables, notes, and blocks of a few cells,
    so that repeated texts are carried from block to block."""
    array_table = Table("t", {}, [f"c{i}" for i in range(rows.shape[1])], rows, ("a note",))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heat, "_CSV_BLOCK_CELLS", block_cells)
        for t in (table, array_table):
            assert "".join(t.structured_chunks()) == json.dumps(t.to_structured(), indent=2)


@pytest.mark.parametrize(
    "row",
    [[np.int64(3), np.float32(0.1), 2], [np.bool_(True), True, np.uint8(7)]],
    ids=["int64-float32", "bools"],
)
def test_numpy_scalar_cells_are_structured_as_the_stream_renders_them(per_cell_csv, row):
    """A numpy scalar cell is a float in the document, as the stream and
    the CSV write it, and a Python int or bool stays as it is: the two
    structured texts are the same bytes, and the CSV holds the same values."""
    table = Table("t", {}, ["a", "b", "c"], [row])
    doc = table.to_structured()
    assert "".join(table.structured_chunks()) == json.dumps(doc, indent=2)
    assert [type(v) for v in doc["rows"][0]] == [type(v) if isinstance(v, int) else float for v in row]
    assert table.to_csv() == per_cell_csv(SimpleNamespace(notes=(), columns=table.columns, rows=doc["rows"]))

@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_array_rows_must_be_two_dimensional(shape):
    with pytest.raises(ValueError, match="2-D"):
        Table("t", {}, ["c"], np.zeros(shape))


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


@pytest.mark.parametrize(
    "oracle, message",
    [
        (lambda problem: residual_tail_bound(problem, [0.5, 1.0]), "residual bound needs an exact solution"),
        (lambda problem: residual_of_exact_in_integral_equations(problem, [0.5, 1.0]), "residual oracle needs an exact solution"),
        (lambda problem: problem.compatibility_defect(), "problem has no exact solution attached"),
    ],
    ids=["residual_tail_bound", "residual_of_exact_in_integral_equations", "compatibility_defect"],
)
def test_the_exact_solution_oracles_require_an_exact_solution(reference_problem, oracle, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        oracle(dataclasses.replace(reference_problem, exact=None))


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


@pytest.mark.parametrize(
    "times, bad", [((0.0, 0.5), "0.0"), ((0.5, float("nan")), "nan"), ((0.5, -1.0), "-1.0")]
)
def test_residual_rejects_times_that_are_not_positive(reference_problem, times, bad):
    """A NaN time used to pass the check and return zero residuals under a
    NaN bound; every time that is not > 0 is named."""
    with pytest.raises(ValueError, match=f"strictly positive times, got t={bad}$"):
        residual_of_exact_in_integral_equations(reference_problem, times)


@pytest.mark.parametrize("residual", [residual_tail_bound, residual_of_exact_in_integral_equations])
@pytest.mark.parametrize(
    "times, got",
    [((0.5, float("nan")), "t=nan"), ((-1.0,), "t=-1.0"), ((), "no times"), ((0.5, float("inf")), "t=inf")],
)
def test_residual_functions_share_one_time_check(residual, times, got):
    """The bound used to return nan for a NaN or infinite time and inf for
    a negative one, and both ended in numpy's zero-size reduction error
    without times."""
    match = f"^residual is evaluated at finite, strictly positive times, got {got}$"
    with pytest.raises(ValueError, match=match):
        residual(build_neumann_example(M=64), times)


def test_residual_functions_take_a_scalar_time():
    """A scalar time is one time: the oracle used to fail iterating a 0-d array."""
    problem = build_neumann_example(M=64)
    assert residual_tail_bound(problem, 0.5) == residual_tail_bound(problem, [0.5])
    scalar, listed = (residual_of_exact_in_integral_equations(problem, t) for t in (0.5, [0.5]))
    assert scalar.times.tolist() == listed.times.tolist() == [0.5]
    assert (scalar.max_field, scalar.max_boundary, scalar.bound) == (listed.max_field, listed.max_boundary, listed.bound)


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


def nan_after_half(f):
    """``f`` with NaN in place of its values for t > 0.5."""
    return lambda t: float("nan") if t > 0.5 else f(t)


def test_compatibility_defect_keeps_a_nan_defect():
    """Python's max(0.0, nan) is 0.0: the defect used to read 5.6e-17 here."""
    problem = build_neumann_example(M=64)
    problem = dataclasses.replace(problem, g=nan_after_half(problem.g))
    assert np.isnan(problem.compatibility_defect())


def test_residual_tail_bound_keeps_a_nan_datum():
    """sup |g| taken with Python's max skipped the NaN values of g: the bound read 0.0129."""
    problem = build_neumann_example(M=64)
    problem = dataclasses.replace(problem, g=nan_after_half(problem.g))
    assert np.isnan(residual_tail_bound(problem, (0.25, 1.0)))


def nan_at_probe(exact: SeparableSolution) -> SeparableSolution:
    """``exact`` with a NaN profile at the probe x = 0.3 only."""
    profile = exact.profile
    return dataclasses.replace(
        exact, profile=lambda x: np.where(np.asarray(x) == 0.3, np.nan, profile(x))
    )


@pytest.mark.parametrize("nan_input", ["sign", "exact"])
def test_integral_residual_keeps_a_nan_residual(nan_input):
    """A NaN residual used to be dropped by Python's max, so the maxima read
    0.0 and the oracle passed its bound."""
    problem = build_neumann_example(M=64)
    sign = 1.0
    if nan_input == "sign":
        sign = float("nan")
    else:
        problem = dataclasses.replace(problem, exact=nan_at_probe(problem.exact))
    res = residual_of_exact_in_integral_equations(problem, [0.5], sign=sign)
    assert np.isnan(res.max_field)
    assert np.isnan(res.max_boundary) == (nan_input == "sign")
    assert not res.max_field <= res.bound
