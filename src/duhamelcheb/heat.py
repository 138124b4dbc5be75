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

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

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

    def compatibility_defect(self, samples: int = 9) -> float:
        """Max defect of the Robin identity for the attached exact solution; NaN if one defect is."""
        if self.exact is None:
            raise ValueError("problem has no exact solution attached")
        ts = np.linspace(0.0, self.T, samples)
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
    tail = basis.inv_mu_tail(M) if basis.inv_mu_tail is not None else 0.0
    u0_tail = 2.0 * np.pi * tail * mu_next / (mu_next - np.pi**2)
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


_CSV_BLOCK_CELLS = 8192


def _csv_lines(values: np.ndarray, widths: list[int], ints: dict[int, str]) -> list[str]:
    """Rows of ``widths`` cells from the flat float64 ``values``, one ``repr``
    per distinct bit pattern (``np.unique`` on the int64 view keeps ±0.0
    and differently signed NaNs apart); ``ints`` holds int cell texts."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([repr(x) for x in distinct.view(float).tolist()], dtype=object)[inverse].tolist()
    for i, s in ints.items():
        text[i] = s
    return [",".join(text[end - width:end]) for width, end in zip(widths, accumulate(widths))]


@dataclass(frozen=True)
class Table:
    """One tabular result: named columns and rows, with a config echo.

    Renders as CSV, with the notes as leading ``# `` lines, or as the
    structured ``{kind, config, columns, rows[, notes]}`` document.  Rows
    are lists, whose CSV cells print ints with ``str`` (bool included) and
    everything else as the ``repr`` of a float, or one 2-D array, kept as
    float64 (``ValueError`` for another ndim).  Values round-trip bit for bit.

    ``to_csv`` works through blocks of whole rows of about
    ``_CSV_BLOCK_CELLS`` cells, calling ``repr`` once per distinct float64
    bit pattern of a block, so one block's strings are alive at a time.
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

    def _csv_blocks(self):
        """Flat float64 values, row widths and int cell texts of each block."""
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
            ints = {i: str(v) for i, v in enumerate(cells) if isinstance(v, int)}
            for i in ints:
                cells[i] = 0.0
            yield np.array(cells, dtype=float), widths, ints

    def to_csv(self) -> str:
        lines = [f"# {n}" for n in self.notes]
        lines.append(",".join(self.columns))
        for block in self._csv_blocks():
            lines += _csv_lines(*block)
        return "\n".join(lines) + "\n"

    def to_structured(self) -> dict:
        rows = self.rows.tolist() if isinstance(self.rows, np.ndarray) else self.rows
        doc = {"kind": self.kind, "config": self.config, "columns": self.columns, "rows": rows}
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc


@dataclass(frozen=True)
class ErrorReport:
    """Nodewise errors of a marched solution against the exact solution.

    eps1 is the boundary-value error |u(1, t) - u_N(1, t)|, eps2 the error
    at the probe point (x = 1/2 by default).  The first row is the initial
    time.  boundary_values and probe_values, when given, are the approximate
    values u_N(1, t) and u_N(probe_x, t) the errors were taken from; the
    table does not render them.
    """

    times: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray
    config: dict
    boundary_values: np.ndarray | None = None
    probe_values: np.ndarray | None = None

    @property
    def max_eps1(self) -> float:
        return float(self.eps1[1:].max()) if self.eps1.shape[0] > 1 else float(self.eps1.max())

    @property
    def max_eps2(self) -> float:
        return float(self.eps2[1:].max()) if self.eps2.shape[0] > 1 else float(self.eps2.max())

    def table(self, include_initial: bool = True, notes: tuple[str, ...] = ()) -> Table:
        rows = np.column_stack([self.times, self.eps1, self.eps2])
        start = 0 if include_initial else 1
        return Table("error_report", self.config, ["t", "eps1", "eps2"], rows[start:], tuple(notes))


def check_probe(probe_x: float) -> None:
    """Raise ``ValueError`` naming ``probe_x`` unless it is a point of the rod [0, 1] (NaN is not)."""
    if not 0.0 <= probe_x <= 1.0:
        raise ValueError(f"probe point must be finite and in [0, 1], got probe_x={probe_x}")


def compute_errors(trace: SolutionTrace, problem: HeatProblem, probe_x: float = 0.5) -> ErrorReport:
    """Error report of a marched trace at all distinct node times.

    Raises ``ValueError`` without an exact solution or for a ``probe_x``
    off the rod (see :func:`check_probe`).
    """
    if problem.exact is None:
        raise ValueError("error report needs a problem with an exact solution")
    check_probe(probe_x)
    basis = problem.basis
    times = trace.node_times()
    modes = trace.node_modes()
    approx_boundary = modes @ basis.boundary_trace
    approx_probe = modes @ basis.eigenfunctions(probe_x)
    exact_boundary = np.asarray(problem.exact.boundary_value(times), dtype=float)
    exact_probe = np.asarray(problem.exact(probe_x, times), dtype=float)
    eps1 = np.abs(exact_boundary - approx_boundary)
    eps2 = np.abs(exact_probe - approx_probe)
    cfg = {
        "N": trace.config.N,
        "K": trace.partition.K,
        "M": trace.config.M,
        "T": trace.config.T,
        "mode": trace.config.mode,
        "problem": problem.name,
        "probe_x": probe_x,
        "refinements": trace.refinements,
    }
    return ErrorReport(
        times=times,
        eps1=eps1,
        eps2=eps2,
        config=cfg,
        boundary_values=approx_boundary,
        probe_values=approx_probe,
    )


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


def residual_of_exact_in_integral_equations(
    problem: HeatProblem,
    times,
    sign: float = 1.0,
    x_probes: tuple[float, ...] = (0.3, 0.5, 0.9, 1.0),
) -> IntegralResidual:
    """Residual of the exact solution in the truncated integral equations.

    The equivalent system states, with v the zero-boundary homogeneous
    solution and K1 the field kernel,

        u(x, t) = v(x, t) + int_0^t K1(t - lam, x) g(lam) dlam
                          - int_0^t K1(t - lam, x) b(lam) u(1, lam) dlam,

    and its boundary trace (through K = K1(., 1)) multiplied by b(t).
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
    xs = np.asarray(x_probes, dtype=float)
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
