"""The correctness gate passes the seed code's outputs and flags broken ones."""

import math

import numpy as np
import pytest

import duhamelcheb as dc
from duhamelcheb import collocation
import gate
import workloads

N, K = 8, 1
LIMIT = gate.ceiling(("reference", N, K, "direct"))
SOLVE = ("solve", "--problem", "reference", "--N", str(N), "--K", str(K), "--M", "128")


@pytest.fixture(scope="module")
def solve_output():
    rc, text = workloads.run_cli(SOLVE)
    assert rc == 0
    return text


def _check(text, rc=0):
    return gate.check_cli_solve(rc, text, N, K, 1.0, LIMIT)


def _rewrite(text, edit):
    """Apply ``edit(lines)`` to the output lines and join them again."""
    lines = text.splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


def test_seed_output_passes(solve_output):
    problems, err = _check(solve_output)
    assert problems == []
    assert err == pytest.approx(gate.SEED_ERRORS[("reference", N, K, "direct")], rel=1e-6)


def test_dropped_trace_row_is_flagged(solve_output):
    problems, _ = _check(_rewrite(solve_output, lambda lines: lines.pop(3)))
    assert any("1 + K*8" in p for p in problems)


def test_non_finite_value_is_flagged(solve_output):
    def poison(lines):
        fields = lines[4].split(",")
        fields[1] = "nan"
        lines[4] = ",".join(fields)

    problems, err = _check(_rewrite(solve_output, poison))
    assert any("non-finite" in p for p in problems)
    assert math.isnan(err)


def test_error_above_ceiling_is_flagged(solve_output):
    def inflate(lines):
        start = next(i for i, line in enumerate(lines) if line.startswith("t,eps1,eps2"))
        fields = lines[start + 3].split(",")
        fields[1] = repr(10 * LIMIT)
        lines[start + 3] = ",".join(fields)

    problems, _ = _check(_rewrite(solve_output, inflate))
    assert any("above ceiling" in p for p in problems)


def test_shifted_slab_junction_is_flagged(solve_output):
    def shift(lines):
        for row in (1 + N, 2 * (1 + N) + 1):  # the final node, in the trace and in the errors
            fields = lines[row].split(",")
            assert float(fields[0]) == 1.0
            fields[0] = "0.9999"
            lines[row] = ",".join(fields)

    problems, _ = _check(_rewrite(solve_output, shift))
    assert problems == ["solve N=8 K=1: slab junctions are not at l*T/1"]


def test_nonzero_exit_code_is_flagged(solve_output):
    problems, _ = _check(solve_output, rc=3)
    assert problems == ["solve N=8 K=1: exit code 3"]


def _raise_contraction(system, *args, **kwargs):
    raise dc.SlabContractionError(1.25, system.slab)


def test_cli_slab_contraction_error_is_flagged(monkeypatch):
    """The CLI maps SlabContractionError to exit code 3, which the gate rejects."""
    monkeypatch.setattr(collocation, "solve_stage_direct", _raise_contraction)
    rc, text = workloads.run_cli(SOLVE)
    problems, _ = _check(text, rc)
    assert rc == 3
    assert problems == ["solve N=8 K=1: exit code 3"]


def test_raised_slab_contraction_error_counts_as_failed(monkeypatch):
    """A library operation that raises is one failed operation, and the run goes on."""
    workload = workloads.WORKLOADS["varcoef-forced"]
    state = workload.prepare(0)
    runner = gate.GatedRunner(workload)
    _, outputs = runner.run(state)
    assert outputs is not None and runner.failed == 0
    monkeypatch.setattr(collocation, "solve_stage_direct", _raise_contraction)
    _, outputs = runner.run(state)
    assert outputs is None
    assert (runner.attempted, runner.failed) == (2, 1)
    assert runner.problems[0].startswith("SlabContractionError: boundary coupling norm 1.25")


def test_corrupted_march_trace_is_flagged():
    workload = workloads.WORKLOADS["varcoef-forced"]
    state = workload.prepare(0)
    trace, report = workload.operate(state)
    assert workload.check(state, (trace, report))[0] == []
    trace.stages.pop()
    problems, _ = workload.check(state, (trace, report))
    assert problems


def test_fingerprint_ignores_wall_times_only():
    text = "N,K,max_eps1,wall_time_s\n2,1,0.5,0.001\n"
    same = "N,K,max_eps1,wall_time_s\n2,1,0.5,0.002\n"
    other = "N,K,max_eps1,wall_time_s\n2,1,0.25,0.001\n"
    assert workloads.mask_wall_times(text) == workloads.mask_wall_times(same)
    assert workloads.mask_wall_times(text) != workloads.mask_wall_times(other)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_at_the_seed_code(name):
    workload = workloads.WORKLOADS[name]
    runner = gate.GatedRunner(workload)
    _, outputs = runner.run(workload.prepare(0))
    assert runner.problems == []
    assert outputs is not None
    digits = workloads.accuracy_digits(runner.errors[0])
    assert np.isfinite(digits) and digits > 0
