"""Command-line interface: subcommands, formats, files, and exit codes.

Most cases drive ``main(argv)`` in process so outputs can be compared
bit for bit against the library calls they wrap; one smoke test goes
through ``python -m`` to cover the installed entry point.
"""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from duhamelcheb import (
    HeatProblem,
    KernelSeries,
    SolverConfig,
    build_reference_example,
    compute_errors,
    heat_basis,
    march,
)
from duhamelcheb import cli
from duhamelcheb.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, load_structured, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, rows


@pytest.mark.parametrize("n", [2, 4, 8])
def test_tables_row_count_and_magnitudes(capsys, n):
    code, out = run_cli(capsys, "tables", "--n", str(n))
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["t", "eps1", "eps2"]
    assert len(rows) == n
    worst = max(r[1] for r in rows)
    windows = {2: (1e-3, 1e-1), 4: (0.0, 5e-3), 8: (0.0, 1e-6)}
    lo, hi = windows[n]
    assert lo <= worst <= hi


def test_tables_rejects_unsupported_degree(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--n", "3"])
    assert exc.value.code == 2


def test_tables_structured_document(capsys):
    code, out = run_cli(capsys, "tables", "--n", "4", "--format", "structured")
    assert code == EXIT_OK
    doc = load_structured(out)
    assert doc["kind"] == "error_report"
    assert len(doc["rows"]) == 4
    assert doc["config"]["N"] == 4
    assert any("magnitude" in note for note in doc["notes"])


def test_solve_zero_problem_yields_zero_columns(capsys):
    code, out = run_cli(capsys, "solve", "--problem", "zero", "--N", "4", "--K", "2", "--M", "16")
    assert code == EXIT_OK
    trace_text, errors_text = out.split("t,eps1,eps2")
    header, rows = parse_csv(trace_text)
    assert header[:3] == ["t", "y", "u1"]
    assert header[3] == "mode_1"
    assert len(header) == 3 + 16
    assert len(rows) == 9
    for row in rows:
        assert all(v == 0.0 for v in row[1:])
    err_rows = [[float(t) for t in line.split(",")] for line in errors_text.strip().split("\n")]
    assert all(r[1] == 0.0 and r[2] == 0.0 for r in err_rows)


def test_solve_structured_matches_library_bit_for_bit(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    code = main(
        ["solve", "--problem", "reference", "--N", "6", "--K", "2",
         "--format", "structured", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    doc = load_structured(str(out_path))
    assert doc["kind"] == "solution_trace"

    problem = build_reference_example(M=128, T=1.0)
    trace = march(problem, SolverConfig(N=6, K=2, M=128, T=1.0))
    times = trace.node_times()
    modes = trace.node_modes()
    yvals = trace.node_boundary_values()
    assert len(doc["rows"]) == times.shape[0]
    for row, t, y, mode_row in zip(doc["rows"], times, yvals, modes):
        assert row[0] == t
        assert row[1] == y
        assert row[3] == mode_row[0]

    errors_path = tmp_path / "trace_errors.json"
    err_doc = load_structured(str(errors_path))
    report = compute_errors(trace, problem)
    for row, t, e1 in zip(err_doc["rows"], report.times, report.eps1):
        assert row[0] == t
        assert row[1] == e1


@pytest.mark.parametrize("problem_name,N,K", [("reference", 16, 32), ("neumann", 12, 1)])
def test_solve_structured_text_equals_list_rows_json(tmp_path, problem_name, N, K):
    """The structured trace and error documents are the JSON text of the
    tables written with list-of-lists rows of Python floats."""
    out_path = tmp_path / "trace.json"
    argv = ["solve", "--problem", problem_name, "--N", str(N), "--K", str(K),
            "--format", "structured", "--out", str(out_path)]
    assert main(argv) == EXIT_OK
    problem = cli._BUILDERS[problem_name](M=128, T=1.0)
    trace = march(problem, SolverConfig(N=N, K=K, M=128, T=1.0))
    modes = trace.node_modes()
    trace_rows = np.column_stack(
        [trace.node_times(), trace.node_boundary_values(), modes @ problem.basis.boundary_trace, modes]
    ).tolist()
    report = compute_errors(trace, problem)
    error_rows = np.column_stack([report.times, report.eps1, report.eps2]).tolist()
    for path, kind, columns, rows in (
        (out_path, "solution_trace", ["t", "y", "u1"] + [f"mode_{i + 1}" for i in range(128)], trace_rows),
        (tmp_path / "trace_errors.json", "error_report", ["t", "eps1", "eps2"], error_rows),
    ):
        text = path.read_text()
        config = json.loads(text)["config"]
        doc = {"kind": kind, "config": config, "columns": columns, "rows": rows}
        assert text == json.dumps(doc, indent=2) + "\n"


def test_many_slabs_solve_bytes_equal_per_cell_rendering(capsys, per_cell_csv):
    """The CSV of a 513-row trace, mostly repeated roundoff values, is the
    per-cell rendering of the trace and error tables, byte for byte."""
    code, out = run_cli(capsys, "solve", "--N", "16", "--K", "32", "--M", "128")
    assert code == EXIT_OK
    problem = build_reference_example(M=128, T=1.0)
    trace = march(problem, SolverConfig(N=16, K=32, M=128, T=1.0))
    trace_table = cli._trace_table(trace, problem)
    assert len(trace_table.rows) == 513
    assert out == per_cell_csv(trace_table) + per_cell_csv(compute_errors(trace, problem).table())


def test_many_slabs_trace_keeps_few_distinct_values():
    """The many-slabs trace is mostly quantised roundoff: 67,203 cells, at
    most 2,429 distinct float64 bit patterns (the count before the factored
    constant-family solve).  ``Table.to_csv`` renders each distinct value
    once, so the count is what CSV output costs.  The direct solve sweeps
    S~^{-1} Phi and S~^{-1} (D w) separately and adds them only at the end;
    sweeping Phi + D w at once turns the cancellation remainders into
    smooth noise: 26,579 distinct values, and a CLI solve about twice as
    slow."""
    problem = build_reference_example(M=128, T=1.0)
    trace = march(problem, SolverConfig(N=16, K=32, M=128, T=1.0))
    rows = cli._trace_table(trace, problem).rows
    assert rows.shape == (513, 131)
    distinct = np.unique(rows.view(np.uint64)).size
    assert distinct <= 2429, f"{distinct} distinct float64 values in the trace"


def test_solve_rejects_bad_mode_count(capsys):
    code = main(["solve", "--M", "0"])
    assert code == EXIT_CONFIG


def test_solve_reports_solver_failure(capsys):
    code = main(
        ["solve", "--problem", "reference", "--mode", "picard",
         "--fp-tol", "1e-30", "--fp-max-iter", "3"]
    )
    assert code == EXIT_SOLVER


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_fp_tol_is_a_config_error(capsys, tol):
    code = main(["solve", "--problem", "reference", "--mode", "picard", "--fp-tol", tol])
    assert code == EXIT_CONFIG
    assert "finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["solve"], ["tables", "--n", "2"], ["convergence"], ["baseline"]]
)
def test_nan_final_time_is_a_config_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--T", "nan"])
    assert code == EXIT_CONFIG
    assert "T=nan" in capsys.readouterr().err


def test_solve_non_finite_stage_is_solver_failure(capsys, monkeypatch):
    def nan_reference(M, T):
        ref = build_reference_example(M=M, T=T)
        return HeatProblem(family=ref.family, b=ref.b, g=lambda t: np.nan, u0=ref.u0, T=T)

    monkeypatch.setitem(cli._BUILDERS, "reference", nan_reference)
    code = main(["solve", "--problem", "reference", "--N", "4", "--K", "2"])
    assert code == EXIT_SOLVER
    assert "slab 1" in capsys.readouterr().err


def test_unwritable_output_is_a_config_error(capsys, tmp_path):
    target = tmp_path / "missing" / "out.csv"
    code = main(["tables", "--n", "2", "--out", str(target)])
    assert code == EXIT_CONFIG


def test_convergence_sweep_rows_decrease(capsys):
    code, out = run_cli(capsys, "convergence", "--Ns", "2,4,8", "--Ks", "1")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["N", "K", "M", "max_eps1", "max_eps2", "wall_time_s"]
    assert [int(r[0]) for r in rows] == [2, 4, 8]
    errs = [r[3] for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_baseline_halves_error_when_steps_double(capsys):
    code, out = run_cli(capsys, "baseline", "--steps", "100,200")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["steps", "max_eps1", "max_eps2", "wall_time_s"]
    assert 1.8 <= rows[0][1] / rows[1][1] <= 2.2


def test_kernels_table_matches_series(capsys):
    code, out = run_cli(capsys, "kernels", "--t", "0.5,1.0", "--x", "0.5")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["t", "K", "K1_at_x"]
    series = KernelSeries(heat_basis(128))
    assert rows[1][0] == 1.0
    assert rows[1][1] == series.K(1.0)
    assert rows[1][2] == series.K1(1.0, 0.5)


def test_kernels_reject_nonpositive_times(capsys):
    for argv in (["--t", "0.0,1.0"], ["--t", "nan"], ["--x", "nan"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["kernels"] + argv)
        assert code == EXIT_CONFIG, argv


def test_kernels_structured_carries_truncation_bound(capsys):
    code, out = run_cli(capsys, "kernels", "--format", "structured", "--M", "64")
    assert code == EXIT_OK
    doc = load_structured(out)
    assert doc["kind"] == "kernels"
    assert doc["config"]["M"] == 64
    assert doc["config"]["integrated_tail"] > 0.0
    assert "off_coincidence_tail" in doc["config"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["tables", "--n", "4"], id="tables"),
        pytest.param(["solve", "--N", "4", "--K", "2", "--M", "16"], id="solve"),
        pytest.param(["convergence", "--Ns", "2,4", "--Ks", "1,2", "--M", "32"], id="convergence"),
        pytest.param(["baseline", "--steps", "8,16", "--M", "32"], id="baseline"),
        pytest.param(["kernels", "--t", "0.1,0.5", "--M", "32"], id="kernels"),
    ],
)
def test_csv_and_structured_outputs_agree(tmp_path, argv):
    for fmt, name in (("csv", "out.csv"), ("structured", "out.json")):
        assert main(argv + ["--format", fmt, "--out", str(tmp_path / name)]) == EXIT_OK
    stems = ["out", "out_errors"] if argv[0] == "solve" else ["out"]
    for stem in stems:
        text = (tmp_path / f"{stem}.csv").read_text()
        doc = load_structured(str(tmp_path / f"{stem}.json"))
        header, rows = parse_csv(text)
        assert header == doc["columns"]
        keep = [i for i, name in enumerate(header) if name != "wall_time_s"]
        csv_vals = np.array(rows)[:, keep]
        doc_vals = np.array(doc["rows"], dtype=float)[:, keep]
        assert csv_vals.shape == doc_vals.shape
        assert csv_vals.tobytes() == doc_vals.tobytes()
        notes = [line[2:] for line in text.splitlines() if line.startswith("# ")]
        assert notes == doc.get("notes", [])
        assert bool(notes) == (argv[0] == "tables")


def test_load_structured_validates_fields(tmp_path):
    with pytest.raises(ValueError):
        load_structured(json.dumps({"kind": "x"}))
    path = tmp_path / "doc.json"
    payload = {"kind": "k", "config": {}, "columns": [], "rows": []}
    path.write_text(json.dumps(payload))
    assert load_structured(str(path)) == payload


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "duhamelcheb", "tables", "--n", "2", "--M", "32"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "t,eps1,eps2" in proc.stdout


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["convergence", "--Ns", ","], "--Ns"),
        (["convergence", "--Ks", " , "], "--Ks"),
        (["baseline", "--steps", ","], "--steps"),
        (["kernels", "--t", ","], "--t"),
    ],
    ids=["Ns", "Ks", "steps", "t"],
)
def test_empty_lists_exit_2_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert f"argument {flag}: expected a non-empty comma-separated list" in capsys.readouterr().err


def test_kernels_name_the_first_nonpositive_time(capsys):
    code = main(["kernels", "--t", "0.5,-1,0"])
    assert code == EXIT_CONFIG
    assert "got t=-1.0" in capsys.readouterr().err
