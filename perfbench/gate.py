"""Correctness gate applied to every benchmark operation.

Each check returns a list of problems; an empty list means the output
passed.  The gate reads only what a user of the program sees: the CLI exit
code and the text it printed, or the trace and error report a library
``march`` returns.  It checks that

* the CLI exit code is 0,
* every printed or returned value is finite,
* a solution trace has 1 + K N rows for the final slab count K, with the
  slab junctions where the uniform partition puts them,
* max_eps1 is at most a per-configuration ceiling (``ceiling``).

Ceilings come from the seed code's own error: 1.5 times that error, and
never below ROUNDOFF_CEILING, the ceiling for resolved configurations.
"""

from __future__ import annotations

import math
import time

import numpy as np

ROUNDOFF_CEILING = 1e-13
MAX_REFINEMENTS = 6
"""The march doubles K at most this many times (documented program policy)."""

SEED_ERRORS = {
    # max_eps1 of the seed code, keyed by (problem, N, K, mode)
    ("reference", 2, 1, "direct"): 4.674324385106288e-3,
    ("reference", 4, 1, "direct"): 5.883937736161915e-5,
    ("reference", 8, 1, "direct"): 2.431667422975181e-9,
    ("reference", 12, 1, "direct"): 1.532107773982716e-14,
    ("reference", 16, 1, "direct"): 1.1102230246251565e-16,
    ("reference", 16, 32, "direct"): 7.216449660063518e-16,
    ("reference", 12, 4, "direct"): 3.3306690738754696e-16,
    ("reference", 8, 2, "picard"): 7.922440481422655e-12,
    ("neumann", 12, 1, "direct"): 4.437288186691973e-3,
    ("varcoef-forced", 12, 8, "direct"): 7.771561172376096e-16,
    ("baseline", 1024): 3.8670613618496663e-4,
}


def ceiling(key) -> float:
    """The largest max_eps1 the gate accepts for configuration ``key``."""
    return max(1.5 * SEED_ERRORS[key], ROUNDOFF_CEILING)


def is_header(line: str) -> bool:
    """A CSV line whose first field is not a number starts a new section."""
    try:
        float(line.split(",", 1)[0])
    except ValueError:
        return not line.startswith("#")
    return False


def parse_sections(text: str) -> list[tuple[list[str], np.ndarray]]:
    """Split CSV output into (header, rows) sections; comment lines are skipped.

    Raises ValueError when a data row does not parse or has the wrong width.
    """
    sections: list[tuple[list[str], list[list[float]]]] = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if is_header(line):
            sections.append((fields, []))
            continue
        if not sections:
            raise ValueError("data row before any header")
        header, rows = sections[-1]
        if len(fields) != len(header):
            raise ValueError(f"row of width {len(fields)} under a header of width {len(header)}")
        rows.append([float(f) for f in fields])
    return [(h, np.array(r, dtype=float).reshape(len(r), len(h))) for h, r in sections]


def _finite(label: str, values) -> list[str]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return [f"{label}: no values"]
    if not np.isfinite(arr).all():
        return [f"{label}: {int((~np.isfinite(arr)).sum())} non-finite values"]
    return []


def _max_eps1(eps1: np.ndarray) -> float:
    """max_eps1 as ErrorReport defines it: the initial row is excluded."""
    return float(eps1[1:].max()) if eps1.shape[0] > 1 else float(eps1.max())


def _accept(label: str, err: float, limit: float) -> list[str]:
    if not err <= limit:
        return [f"{label}: max_eps1 {err:.3g} above ceiling {limit:.3g}"]
    return []


def check_node_times(label: str, times: np.ndarray, N: int, K_requested: int, T: float) -> list[str]:
    """1 + K N rows for the final K, with junctions at l T / K."""
    rows = times.shape[0]
    if rows < 1 + N or (rows - 1) % N:
        return [f"{label}: {rows} trace rows is not 1 + K*{N}"]
    K = (rows - 1) // N
    doublings = K // K_requested
    if K % K_requested or doublings & (doublings - 1) or doublings > 2**MAX_REFINEMENTS:
        return [f"{label}: final K={K} is not K={K_requested} doubled at most {MAX_REFINEMENTS} times"]
    junctions = times[::N]
    expect = np.arange(K + 1) * (T / K)
    if np.abs(junctions - expect).max() > 1e-12 * max(1.0, T):
        return [f"{label}: slab junctions are not at l*T/{K}"]
    if not (np.diff(times) > 0).all():
        return [f"{label}: node times not strictly increasing"]
    return []


def check_cli_solve(rc: int, text: str, N: int, K: int, T: float, limit: float) -> tuple[list[str], float]:
    """Gate the stdout of ``solve`` (trace CSV followed by error CSV).

    Returns the problems found and the max_eps1 read from the output (NaN
    when it cannot be read).
    """
    label = f"solve N={N} K={K}"
    if rc != 0:
        return [f"{label}: exit code {rc}"], math.nan
    try:
        sections = parse_sections(text)
    except ValueError as exc:
        return [f"{label}: unreadable output: {exc}"], math.nan
    if len(sections) != 2 or sections[0][0][:3] != ["t", "y", "u1"] or sections[1][0] != ["t", "eps1", "eps2"]:
        return [f"{label}: expected a trace section and an error section"], math.nan
    (_, trace), (_, errors) = sections
    problems = _finite(label + " trace", trace) + _finite(label + " errors", errors)
    if problems:
        return problems, math.nan
    problems += check_node_times(label, trace[:, 0], N, K, T)
    if errors.shape[0] != trace.shape[0] or not np.array_equal(errors[:, 0], trace[:, 0]):
        problems.append(f"{label}: error rows do not match trace rows")
    err = _max_eps1(errors[:, 1])
    return problems + _accept(label, err, limit), err


def check_cli_table(
    rc: int, text: str, columns: list[str], key_column: str, limits: dict
) -> tuple[list[str], list[float]]:
    """Gate a one-section CSV table (``convergence`` or ``baseline``).

    ``limits`` maps each expected value of ``key_column`` to its max_eps1
    ceiling, in output order.  Returns the problems and the max_eps1 column.
    """
    label = f"table keyed by {key_column}"
    if rc != 0:
        return [f"{label}: exit code {rc}"], []
    try:
        sections = parse_sections(text)
    except ValueError as exc:
        return [f"{label}: unreadable output: {exc}"], []
    if len(sections) != 1 or sections[0][0] != columns:
        return [f"{label}: expected one section with columns {columns}"], []
    rows = sections[0][1]
    problems = _finite(label, rows)
    if problems:
        return problems, []
    keys = [int(k) for k in rows[:, columns.index(key_column)]]
    if keys != list(limits):
        return [f"{label}: rows {keys}, expected {list(limits)}"], []
    errs = [float(e) for e in rows[:, columns.index("max_eps1")]]
    for key, err in zip(keys, errs):
        problems += _accept(f"{key_column}={key}", err, limits[key])
    return problems, errs


class GatedRunner:
    """Runs a workload's operations, gates each one and counts failures.

    An operation fails when it raises (for example SlabContractionError) or
    when its outputs fail the workload's gate.  With ``reference`` given,
    the outputs must also reproduce that fingerprint bit for bit.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[list[float]] = []

    def run(self, state, reference=None):
        """One gated operation; returns (wall seconds, outputs or None on failure)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outputs = self.workload.operate(state)
        except Exception as exc:  # any raise is a failed operation; the run goes on
            elapsed = time.perf_counter() - start
            self._fail([f"{type(exc).__name__}: {exc}"])
            return elapsed, None
        elapsed = time.perf_counter() - start
        problems, errors = self.workload.check(state, outputs)
        if reference is not None and self.workload.fingerprint(outputs) != reference:
            problems.append("outputs differ from the reference operation")
        if problems:
            self._fail(problems)
            return elapsed, None
        self.errors.append(errors)
        return elapsed, outputs

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


def check_march(trace, report, N: int, K: int, T: float, limit: float) -> tuple[list[str], float]:
    """Gate a library ``march`` result and its ``compute_errors`` report."""
    label = f"march N={N} K={K}"
    times = trace.node_times()
    problems = (
        _finite(label + " modes", trace.node_modes())
        + _finite(label + " boundary values", trace.node_boundary_values())
        + _finite(label + " errors", np.concatenate([report.eps1, report.eps2]))
    )
    if problems:
        return problems, math.nan
    if times.shape[0] != 1 + trace.partition.K * N:
        problems.append(f"{label}: {times.shape[0]} rows, expected 1 + {trace.partition.K}*{N}")
    problems += check_node_times(label, times, N, K, T)
    err = _max_eps1(report.eps1)
    return problems + _accept(label, err, limit), err
