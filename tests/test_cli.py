"""Command-line interface: subcommands, formats, files, and exit codes.

Most cases drive ``main(argv)`` in process so outputs can be compared
bit for bit against the library calls they wrap; one smoke test goes
through ``python -m`` to cover the installed entry point.
"""

import contextlib
import io
import json
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from duhamelcheb import (
    HeatProblem,
    KernelSeries,
    SolverConfig,
    build_neumann_example,
    build_reference_example,
    compute_errors,
    heat_basis,
    march,
)
from duhamelcheb import cli, collocation, heat
from duhamelcheb.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main


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
    doc = json.loads(out)
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
    doc = json.loads(out_path.read_text())
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
    err_doc = json.loads(errors_path.read_text())
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


@pytest.mark.parametrize(
    "problem, N, K", [("reference", 16, 32), ("neumann", 12, 1)], ids=["reference", "neumann"]
)
def test_solve_out_files_hold_the_stdout_bytes(capsys, tmp_path, problem, N, K):
    """``--out`` writes the chunks that stdout gets: the trace file followed
    by its ``_errors`` file is the stdout of the same solve, byte for byte."""
    argv = ["solve", "--problem", problem, "--N", str(N), "--K", str(K), "--M", "128"]
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert main(argv + ["--out", str(tmp_path / "t.csv")]) == EXIT_OK
    written = (tmp_path / "t.csv").read_bytes() + (tmp_path / "t_errors.csv").read_bytes()
    assert written == out.encode()


class RecordingStream(io.StringIO):
    """A text stream that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def test_emit_writes_the_csv_a_block_at_a_time(per_cell_csv):
    """The many-slabs trace (513 rows, 1.48 MB of CSV) reaches stdout in
    row blocks: no write is longer than one block of its longest lines, and
    the writes add up to the per-cell rendering."""
    problem = build_reference_example(M=128, T=1.0)
    trace = march(problem, SolverConfig(N=16, K=32, M=128, T=1.0))
    table = cli._trace_table(trace, problem)
    stream = RecordingStream()
    with contextlib.redirect_stdout(stream):
        cli._emit(table, "csv", None)
    text = per_cell_csv(table)
    assert stream.getvalue() == text
    block_rows = heat._CSV_BLOCK_CELLS // len(table.columns)
    longest_line = max(len(line) + 1 for line in text.split("\n"))
    assert len(stream.writes) > 1
    assert max(stream.writes) <= block_rows * longest_line < len(text) / 10


@pytest.mark.parametrize(
    "argv, kinds",
    [
        (["tables", "--n", "4", "--M", "32"], ["error_report"]),
        (["solve", "--N", "4", "--K", "2", "--M", "32"], ["solution_trace", "error_report"]),
        (["solve", "--N", "16", "--K", "32", "--M", "128"], ["solution_trace", "error_report"]),
        (["convergence", "--Ns", "2,4", "--Ks", "1,2", "--M", "32"], ["study"]),
        (["baseline", "--steps", "8,16", "--M", "32"], ["baseline"]),
        (["kernels", "--t", "0.1,0.5", "--M", "32"], ["kernels"]),
    ],
    ids=["tables", "solve", "solve-many-slabs", "convergence", "baseline", "kernels"],
)
def test_structured_output_is_the_json_text_of_every_table(monkeypatch, argv, kinds):
    """Every table kind the CLI writes reaches stdout as the bytes of
    ``json.dumps(table.to_structured(), indent=2)`` and a newline: trace,
    errors (with notes from ``tables``), study and baseline (whose rows
    hold int cells) and kernels; the many-slabs trace spans 17 row blocks."""
    emitted = []
    emit = cli._emit

    def checked(table, fmt, out):
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            emit(table, fmt, None)
        assert stream.getvalue() == json.dumps(table.to_structured(), indent=2) + "\n"
        emitted.append(table)

    monkeypatch.setattr(cli, "_emit", checked)
    assert main(argv + ["--format", "structured"]) == EXIT_OK
    assert [table.kind for table in emitted] == kinds
    if kinds in (["study"], ["baseline"]):
        assert any(isinstance(cell, int) for row in emitted[0].rows for cell in row)


def test_emit_writes_the_structured_document_a_block_at_a_time():
    """The many-slabs trace as JSON (2.0 MB) reaches stdout in row blocks:
    no write is longer than one block of its longest rendered rows."""
    problem = build_reference_example(M=128, T=1.0)
    table = cli._trace_table(march(problem, SolverConfig(N=16, K=32, M=128, T=1.0)), problem)
    stream = RecordingStream()
    with contextlib.redirect_stdout(stream):
        cli._emit(table, "structured", None)
    text = json.dumps(table.to_structured(), indent=2) + "\n"
    assert stream.getvalue() == text
    block_rows = heat._CSV_BLOCK_CELLS // len(table.columns)
    longest_row = max(len(row) for row in text.split("\n    [")) + 6
    assert len(stream.writes) > 1
    assert max(stream.writes) <= block_rows * longest_row < len(text) / 10


@pytest.mark.parametrize("problem, N, K", [("reference", 16, 32), ("neumann", 12, 1)])
def test_structured_out_files_hold_the_stdout_bytes(capsys, tmp_path, problem, N, K):
    """``--format structured --out`` writes the chunks that stdout gets: the
    trace file followed by its ``_errors`` file is the stdout of the same
    solve, byte for byte once the solve's own timing is masked."""
    def masked(text):
        return re.sub(r'"solve_seconds": [^,\n]*', '"solve_seconds": 0', text)

    argv = ["solve", "--problem", problem, "--N", str(N), "--K", str(K), "--M", "128", "--format", "structured"]
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert main(argv + ["--out", str(tmp_path / "t.json")]) == EXIT_OK
    written = (tmp_path / "t.json").read_text() + (tmp_path / "t_errors.json").read_text()
    assert masked(written) == masked(out)


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


def test_solve_reports_solver_failure(capsys, monkeypatch):
    monkeypatch.setattr(collocation, "FP_TOL", 1e-30)
    monkeypatch.setattr(collocation, "FP_MAX_ITER", 3)
    code = main(["solve", "--problem", "reference", "--mode", "picard"])
    assert code == EXIT_SOLVER
    assert "on slab 1 after 3 sweeps" in capsys.readouterr().err


def test_fixed_point_tolerance_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--mode", "picard", "--fp-tol", "1e-9"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --fp-tol 1e-9" in capsys.readouterr().err


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


def test_convergence_structured_carries_the_fitted_rates(capsys):
    """The fitted rates the convergence script used to print are in the
    structured document; the CSV keeps its bytes."""
    argv = ("convergence", "--Ns", "2,4,8", "--Ks", "1")
    code, out = run_cli(capsys, *argv, "--format", "structured")
    assert code == EXIT_OK
    doc = json.loads(out)
    config = doc["config"]
    slope = np.polyfit([2, 4, 8], np.log10([row[3] for row in doc["rows"]]), 1)[0]
    assert config["spectral_slope_log10"] == pytest.approx(slope, rel=1e-12)
    assert config["spectral_slope_log10"] < -1.0
    assert config["algebraic_order"] is None
    code, out = run_cli(capsys, *argv)
    assert "slope" not in out


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


@pytest.mark.parametrize("x", ["2", "-5", "1.0000001"])
def test_kernels_probe_off_the_rod_is_a_configuration_error(capsys, x):
    """``--x`` off [0, 1] exits 2 with a configuration error naming x, as
    ``compute_errors`` does for its probe; nothing is written to stdout."""
    code = main(["kernels", "--x", x])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err.startswith("configuration error: probe point must be finite and in [0, 1]")
    assert f"got x={float(x)}" in captured.err


def test_kernels_structured_carries_truncation_bound(capsys):
    code, out = run_cli(capsys, "kernels", "--format", "structured", "--M", "64")
    assert code == EXIT_OK
    doc = json.loads(out)
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
        doc = json.loads((tmp_path / f"{stem}.json").read_text())
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


@pytest.mark.parametrize("folder", ["", "run.1"])
@pytest.mark.parametrize(
    "name, errors_name",
    [
        ("trace.csv", "trace_errors.csv"),
        ("trace", "trace_errors"),
        ("a.b.c", "a.b_errors.c"),
        (".trace", ".trace_errors"),
    ],
)
def test_errors_path_is_derived_from_the_file_name_only(tmp_path, monkeypatch, folder, name, errors_name):
    """A dot in a directory name used to split the path there: ``--out
    run.1/trace`` wrote the trace, then failed to write run_errors.1/trace.
    The leading dot of a dotfile starts no suffix: ``--out .trace`` used to
    write its errors to _errors.trace."""
    monkeypatch.chdir(tmp_path)
    if folder:
        (tmp_path / folder).mkdir()
    out = str(pathlib.Path(folder, name))
    assert main(["solve", "--N", "4", "--M", "16", "--out", out]) == EXIT_OK
    assert sorted(path.name for path in (tmp_path / folder).iterdir()) == sorted([name, errors_name])


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
