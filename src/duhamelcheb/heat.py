"""Heat-rod benchmark problems, error reports, and the integral-equation oracle.

The spatial operator is -d^2/dx^2 on (0, 1) with a homogeneous Dirichlet
condition at x = 0 and a time-dependent Robin condition
u_x(1, t) + b(t) u(1, t) = g(t).  Problems are stated through eigenbasis
data so the collocation marcher can consume them directly; instances with
a known separable exact solution also carry the closed forms needed by the
error reports and by the residual oracle for the equivalent system of
integral equations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator

import numpy as np

from .operators import EigenBasis, OperatorFamily, heat_basis, constant_family
from .kernels import ExpDecay, KernelSeries, exp_integral, homogeneous_v
from .collocation import SolutionTrace

__all__ = [
    "ExpDecay",
    "SeparableSolution",
    "HeatProblem",
    "Table",
    "ErrorReport",
    "IntegralResidual",
    "build_reference_example",
    "build_neumann_example",
    "build_zero_example",
    "build_decay_example",
    "compute_errors",
    "residual_of_exact_in_integral_equations",
    "residual_tail_bound",
]

PROBE_X = 0.5
"""The interior point x at which the error reports take eps2."""


@dataclass(frozen=True)
class SeparableSolution:
    """Exact solution of the form u(x, t) = exp(-rate t) profile(x)."""

    rate: float
    profile: Callable[[np.ndarray | float], np.ndarray | float]
    dprofile_at_1: float

    def __call__(self, x, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float)) * self.profile(x)

    def boundary_value(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float)) * float(self.profile(1.0))

    def neumann_trace(self, t):
        return self.dprofile_at_1 * np.exp(-self.rate * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class HeatProblem:
    """Evolution problem data in eigenbasis form.

    u0 holds the initial mode vector; forcing, when present, maps t to the
    mode vector of f(., t).  u0_tail_bound bounds the absolute sum of the
    dropped initial coefficients and feeds the residual bound.
    """

    family: OperatorFamily
    b: Callable[[float], float]
    g: Callable[[float], float]
    u0: np.ndarray
    T: float
    forcing: Callable[[float], np.ndarray] | None = None
    exact: SeparableSolution | None = None
    u0_tail_bound: float = 0.0
    name: str = ""

    def __post_init__(self):
        if not np.isfinite(self.T) or self.T <= 0:
            raise ValueError(f"final time must be finite and positive, got T={self.T}")

    @property
    def basis(self) -> EigenBasis:
        return self.family.basis

    def compatibility_defect(self) -> float:
        """Max defect of the Robin identity for the attached exact solution at 9 equispaced times; NaN if one defect is."""
        if self.exact is None:
            raise ValueError("problem has no exact solution attached")
        ts = np.linspace(0.0, self.T, 9)
        vals = [
            abs(self.exact.neumann_trace(t) + self.b(t) * self.exact.boundary_value(t) - self.g(t))
            for t in ts
        ]
        return float(np.max(vals))


def build_reference_example(M: int = 128, T: float = 1.0) -> HeatProblem:
    """Robin-driven rod with exact solution exp(-pi^2 t / 4) sin(pi x / 2).

    The boundary multiplier b(t) = exp(-pi^2 t / 2) and boundary data
    g(t) = exp(-3 pi^2 t / 4) are compatible with a vanishing Neumann
    trace, and the initial condition is exactly the first eigenmode, so
    the mode truncation introduces no error for this instance.
    """
    basis = heat_basis(M)
    family = constant_family(basis)
    u0 = np.zeros(M)
    u0[0] = 1.0
    exact = SeparableSolution(
        rate=np.pi**2 / 4.0,
        profile=lambda x: np.sin(0.5 * np.pi * np.asarray(x, dtype=float)),
        dprofile_at_1=0.0,
    )
    return HeatProblem(
        family=family,
        b=ExpDecay(1.0, np.pi**2 / 2.0),
        g=ExpDecay(1.0, 3.0 * np.pi**2 / 4.0),
        u0=u0,
        T=T,
        exact=exact,
        name="reference",
    )


def build_neumann_example(M: int = 128, T: float = 1.0) -> HeatProblem:
    """Rod with exact solution exp(-pi^2 t) sin(pi x), nonzero Neumann trace.

    Here u(1, t) = 0 while u_x(1, t) = -pi exp(-pi^2 t), so the boundary
    data does not cancel against the boundary value and the sign of the
    field kernel is observable.  The initial profile sin(pi x) is not an
    eigenmode; its coefficients are 2 pi (-1)^{n+1} / (pi^2 - mu_n).
    """
    basis = heat_basis(M)
    family = constant_family(basis)
    n = np.arange(1, M + 1)
    u0 = 2.0 * np.pi * np.where(n % 2 == 1, 1.0, -1.0) / (np.pi**2 - basis.mu)
    exact = SeparableSolution(
        rate=np.pi**2,
        profile=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
        dprofile_at_1=-np.pi,
    )
    mu_next = basis.eigenvalue(M + 1)
    u0_tail = 2.0 * np.pi * basis.inv_mu_tail(M) * mu_next / (mu_next - np.pi**2)
    return HeatProblem(
        family=family,
        b=ExpDecay(1.0, 0.0),
        g=ExpDecay(-np.pi, np.pi**2),
        u0=u0,
        T=T,
        exact=exact,
        u0_tail_bound=float(u0_tail),
        name="neumann",
    )


def build_zero_example(M: int = 128, T: float = 1.0) -> HeatProblem:
    """All data identically zero; the solution is zero."""
    basis = heat_basis(M)
    return HeatProblem(
        family=constant_family(basis),
        b=ExpDecay(1.0, np.pi**2 / 2.0),
        g=ExpDecay(0.0, 0.0),
        u0=np.zeros(M),
        T=T,
        exact=SeparableSolution(
            rate=0.0,
            profile=lambda x: 0.0 * np.asarray(x, dtype=float),
            dprofile_at_1=0.0,
        ),
        name="zero",
    )


def build_decay_example(M: int = 128, T: float = 1.0) -> HeatProblem:
    """Pure modal decay: b = g = 0 and u0 the first eigenmode.

    The marched solution must reproduce exp(-mu_1 t) u0 at every node up
    to roundoff, independently of the collocation degree.
    """
    basis = heat_basis(M)
    u0 = np.zeros(M)
    u0[0] = 1.0
    omega1 = 0.5 * np.pi
    exact = SeparableSolution(
        rate=float(basis.mu[0]),
        profile=lambda x: np.sin(omega1 * np.asarray(x, dtype=float)),
        dprofile_at_1=0.0,
    )
    return HeatProblem(
        family=constant_family(basis),
        b=ExpDecay(0.0, 0.0),
        g=ExpDecay(0.0, 0.0),
        u0=u0,
        T=T,
        exact=exact,
        name="decay",
    )


_CSV_BLOCK_CELLS = 4096


_NO_CARRY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=object))


def _cell_texts(values: np.ndarray, carry: tuple) -> tuple[list[str], tuple]:
    """The ``repr`` of each float64 of ``values``, and the carry for the next block.

    ``repr`` is called once per distinct bit pattern (``np.unique`` on the
    int64 view keeps ±0.0 and differently signed NaNs apart) that is not
    in ``carry``: the sorted bit patterns, and their texts, that repeated
    within the previous block.  The new carry holds those of this block.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = _distinct_texts(bits, *carry)
    repeated = np.bincount(inverse, minlength=bits.size) > 1
    return texts[inverse].tolist(), (bits[repeated], texts[repeated])


def _distinct_texts(bits: np.ndarray, carried_bits: np.ndarray, carried_texts: np.ndarray) -> np.ndarray:
    """The texts of the sorted distinct ``bits``, from the carry where it holds them."""
    if not carried_bits.size:
        return np.array([repr(x) for x in bits.view(float).tolist()], dtype=object)
    at = np.searchsorted(carried_bits, bits).clip(max=carried_bits.size - 1)
    texts = carried_texts[at]
    missing = np.flatnonzero(carried_bits[at] != bits)
    texts[missing] = [repr(x) for x in bits[missing].view(float).tolist()]
    return texts


def _csv_text(values: np.ndarray, widths: list[int], ints: dict, carry: list) -> str:
    """Rows of ``widths`` cells from the flat float64 ``values``, each line
    ending in a newline; ``ints`` holds the int cells, printed with ``str``.
    ``carry`` is a one-item list holding the carry of :func:`_cell_texts`,
    replaced in place, so that no block's cell texts outlive it."""
    text, carry[0] = _cell_texts(values, carry[0])
    for i, value in ints.items():
        text[i] = str(value)
    lines = [",".join(text[end - width:end]) for width, end in zip(widths, accumulate(widths))]
    lines.append("")
    return "\n".join(lines)


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_rows_text(values: np.ndarray, widths: list[int], ints: dict, carry: list) -> str:
    """The rows of :func:`_csv_text` as ``json.dumps(doc, indent=2)`` writes
    them in a document's rows list, joined by a comma and a newline: ints
    and bools as JSON prints them, NaN and ±inf as NaN and ±Infinity."""
    text, carry[0] = _cell_texts(values, carry[0])
    if not np.isfinite(values).all():
        text = [_JSON_NON_FINITE.get(cell, cell) for cell in text]
    for i, value in ints.items():
        text[i] = json.dumps(value)
    return ",\n".join(
        "    [\n      " + ",\n      ".join(text[end - width:end]) + "\n    ]" if width else "    []"
        for width, end in zip(widths, accumulate(widths))
    )


@dataclass(frozen=True)
class Table:
    """One tabular result: named columns and rows, with a config echo.

    Renders as CSV, with the notes as leading ``# `` lines, or as the
    structured ``{kind, config, columns, rows[, notes]}`` document.  Rows
    are lists, whose CSV cells print ints with ``str`` (bool included) and
    everything else as the ``repr`` of a float, or one 2-D array, kept as
    float64 (``ValueError`` for another ndim).  Values round-trip bit for bit.

    ``csv_chunks`` renders blocks of whole rows of about
    ``_CSV_BLOCK_CELLS`` cells, one at a time, calling ``repr`` at most
    once per distinct float64 bit pattern of a block: the texts of the
    patterns that repeated within a block are carried into the next.  A
    writer that takes each chunk as it comes holds one block's strings at
    a time; ``to_csv`` joins the chunks.  ``structured_chunks`` renders
    the same blocks as the text of ``json.dumps(to_structured(), indent=2)``.
    """

    kind: str
    config: dict
    columns: list[str]
    rows: list[list] | np.ndarray
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.rows, np.ndarray):
            if self.rows.ndim != 2:
                raise ValueError(f"array rows must be 2-D, got shape {self.rows.shape}")
            object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))

    def _blocks(self):
        """Flat float64 values, row widths and int cells (by position) of each block."""
        rows = self.rows
        if isinstance(rows, np.ndarray):
            step = max(1, _CSV_BLOCK_CELLS // max(rows.shape[1], 1))
            for start in range(0, rows.shape[0], step):
                block = rows[start:start + step]
                yield block.ravel(), [block.shape[1]] * block.shape[0], {}
            return
        start = 0
        while start < len(rows):
            cells, widths = [], []
            while start < len(rows) and len(cells) < _CSV_BLOCK_CELLS:
                cells.extend(rows[start])
                widths.append(len(rows[start]))
                start += 1
            ints = {i: v for i, v in enumerate(cells) if isinstance(v, int)}
            for i in ints:
                cells[i] = 0.0
            yield np.array(cells, dtype=float), widths, ints

    def csv_chunks(self) -> Iterator[str]:
        """The CSV text in pieces, each ending in a newline: the notes and
        header, then one piece per block of rows."""
        yield "".join(f"# {n}\n" for n in self.notes) + ",".join(self.columns) + "\n"
        carry = [_NO_CARRY]
        for block in self._blocks():
            yield _csv_text(*block, carry)

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())

    def structured_chunks(self) -> Iterator[str]:
        """The text of ``json.dumps(self.to_structured(), indent=2)`` in
        pieces: the document up to its rows, one piece per block of rows,
        and the rest."""
        # a raw newline cannot occur inside a JSON string, and nested keys are indented further
        head, tail = json.dumps(self._document([]), indent=2).split('\n  "rows": []')
        yield head + '\n  "rows": ['
        carry, separator = [_NO_CARRY], "\n"
        for block in self._blocks():
            yield separator + _json_rows_text(*block, carry)
            separator = ",\n"
        yield ("]" if separator == "\n" else "\n  ]") + tail

    def to_structured(self) -> dict:
        """The document with the cells that the renderers write: a Python int
        (bool included) as it is, any other cell, a numpy scalar too, as a float."""
        if isinstance(self.rows, np.ndarray):
            return self._document(self.rows.tolist())
        return self._document([[v if isinstance(v, int) else float(v) for v in row] for row in self.rows])

    def _document(self, rows: list) -> dict:
        doc = {"kind": self.kind, "config": self.config, "columns": self.columns, "rows": rows}
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc


@dataclass(frozen=True)
class ErrorReport:
    """Nodewise errors of an approximate solution against the exact solution.

    eps1 is the boundary-value error |u(1, t) - u_N(1, t)|, eps2 the error
    at the probe point x = :data:`PROBE_X`.  The first row is the initial
    time, which ``max_eps1`` and ``max_eps2`` skip unless it is the only
    row.  boundary_values and probe_values, when given, are the approximate
    values u_N(1, t) and u_N(PROBE_X, t) the errors were taken from; the
    table does not render them.  :meth:`measured` builds a report from them,
    for :func:`compute_errors` and the backward Euler baseline alike.
    """

    times: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray
    config: dict
    boundary_values: np.ndarray | None = None
    probe_values: np.ndarray | None = None

    @classmethod
    def measured(
        cls, problem: HeatProblem, times: np.ndarray, boundary_values: np.ndarray,
        probe_values: np.ndarray, config: dict,
    ) -> ErrorReport:
        """The report of the approximate values at ``times``, against ``problem.exact``.

        Raises ``ValueError`` when the problem has no exact solution.
        """
        exact = problem.exact
        if exact is None:
            raise ValueError("error report needs a problem with an exact solution")
        eps1 = np.abs(np.asarray(exact.boundary_value(times), dtype=float) - boundary_values)
        eps2 = np.abs(np.asarray(exact(PROBE_X, times), dtype=float) - probe_values)
        return cls(times, eps1, eps2, config, boundary_values, probe_values)

    @property
    def max_eps1(self) -> float:
        return _max_past_initial(self.eps1)

    @property
    def max_eps2(self) -> float:
        return _max_past_initial(self.eps2)

    def table(self, include_initial: bool = True, notes: tuple[str, ...] = ()) -> Table:
        rows = np.column_stack([self.times, self.eps1, self.eps2])
        start = 0 if include_initial else 1
        return Table("error_report", self.config, ["t", "eps1", "eps2"], rows[start:], tuple(notes))


def _max_past_initial(eps: np.ndarray) -> float:
    return float(eps[min(1, eps.shape[0] - 1):].max())


def compute_errors(trace: SolutionTrace, problem: HeatProblem) -> ErrorReport:
    """Error report of a marched trace at all distinct node times, eps2 at :data:`PROBE_X`.

    Raises ``ValueError`` without an exact solution.
    """
    basis = problem.basis
    modes = trace.node_modes()
    cfg = {
        "N": trace.config.N,
        "K": trace.partition.K,
        "M": trace.config.M,
        "T": trace.config.T,
        "mode": trace.config.mode,
        "problem": problem.name,
        "probe_x": PROBE_X,
        "refinements": trace.refinements,
    }
    boundary, probe = modes @ basis.boundary_trace, modes @ basis.eigenfunctions(PROBE_X)
    return ErrorReport.measured(problem, trace.node_times(), boundary, probe, cfg)


def _modal_convolution(basis: EigenBasis, data: ExpDecay, t: float) -> np.ndarray:
    """q_n(t) = int_0^t exp(-mu_n (t - lam)) data(lam) dlam for all modes."""
    return data.coef * np.exp(-data.rate * t) * exp_integral(basis.mu - data.rate, t)


@dataclass(frozen=True)
class IntegralResidual:
    """Residuals of the exact solution in the truncated integral equations."""

    times: np.ndarray
    max_field: float
    max_boundary: float
    bound: float
    sign: float
    modes: int


def _residual_times(times) -> np.ndarray:
    """``times`` (a scalar or any array) as a flat float array.

    ``ValueError`` unless it holds one or more times, all finite and > 0.
    """
    ts = np.asarray(times, dtype=float).ravel()
    bad = ts[~((ts > 0) & np.isfinite(ts))]
    if bad.size or not ts.size:
        got = f"t={float(bad[0])}" if bad.size else "no times"
        raise ValueError(f"residual is evaluated at finite, strictly positive times, got {got}")
    return ts


def residual_tail_bound(problem: HeatProblem, times) -> float:
    """Truncation bound documented for the integral-equation residual.

    Dropping the modes beyond M affects the identity through the kernel
    convolutions, bounded by sup(|g|) + sup(|b u(1,.)|) times the
    integrated kernel tail, and through the initial layer, bounded by the
    dropped initial coefficients decayed by exp(-mu_{M+1} t_min).
    ``times`` must hold one or more times, all finite and > 0, or
    ``ValueError`` is raised.
    """
    basis = problem.basis
    series = KernelSeries(basis)
    ts = _residual_times(times)
    if problem.exact is None:
        raise ValueError("residual bound needs an exact solution")
    lam = np.linspace(0.0, float(ts.max()), 101)
    sup_g = np.max([abs(float(problem.g(l))) for l in lam])
    sup_bu = np.max([abs(float(problem.b(l)) * float(problem.exact.boundary_value(l))) for l in lam])
    kernel_part = (sup_g + sup_bu) * series.integrated_tail()
    initial_part = problem.u0_tail_bound * float(
        np.exp(-basis.eigenvalue(basis.M + 1) * ts.min())
    )
    return float(kernel_part + initial_part)


def residual_of_exact_in_integral_equations(problem: HeatProblem, times, sign: float = 1.0) -> IntegralResidual:
    """Residual of the exact solution in the truncated integral equations.

    The equivalent system states, with v the zero-boundary homogeneous
    solution and K1 the field kernel,

        u(x, t) = v(x, t) + int_0^t K1(t - lam, x) g(lam) dlam
                          - int_0^t K1(t - lam, x) b(lam) u(1, lam) dlam,

    and its boundary trace (through K = K1(., 1)) multiplied by b(t).
    The field identity is checked at x = 0.3, 0.5, 0.9 and 1.
    ``sign`` multiplies both kernel integrals; the true convention is +1,
    and the residual blows past the truncation bound for the flipped sign
    whenever g and b u(1, .) do not cancel.

    Requires ExpDecay boundary data so the modal convolutions are closed
    forms; every integral is then evaluated to roundoff, leaving the mode
    truncation as the only residual source.  ``times`` are checked as in
    :func:`residual_tail_bound`.
    """
    if problem.exact is None:
        raise ValueError("residual oracle needs an exact solution")
    if not isinstance(problem.b, ExpDecay) or not isinstance(problem.g, ExpDecay):
        raise ValueError("residual oracle requires ExpDecay boundary data")
    basis = problem.basis
    exact = problem.exact
    bu = ExpDecay(
        coef=problem.b.coef * float(exact.profile(1.0)),
        rate=problem.b.rate + exact.rate,
    )
    ts = _residual_times(times)
    kappa = basis.mu * basis.lift_coeffs
    xs = np.array([0.3, 0.5, 0.9, 1.0])
    phis = basis.eigenfunctions(xs)

    res_field, res_boundary = [], []
    for t in ts:
        qg = _modal_convolution(basis, problem.g, float(t))
        qu = _modal_convolution(basis, bu, float(t))
        weights = kappa * (qg - qu)
        integral = weights @ phis
        v_vals = homogeneous_v(basis, problem.u0, xs, float(t))
        u_vals = np.asarray(exact(xs, float(t)), dtype=float)
        res_field.append(np.abs(u_vals - v_vals - sign * integral))

        trace_integral = float(weights @ basis.boundary_trace)
        v1 = homogeneous_v(basis, problem.u0, 1.0, float(t))
        u1 = float(exact.boundary_value(t))
        res_boundary.append(abs(problem.b(t)) * abs(u1 - v1 - sign * trace_integral))

    return IntegralResidual(
        times=ts,
        max_field=float(np.max(res_field)),
        max_boundary=float(np.max(res_boundary)),
        bound=residual_tail_bound(problem, ts),
        sign=sign,
        modes=basis.M,
    )
