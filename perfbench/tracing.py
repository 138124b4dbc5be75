"""Span tracing around the package's public entry points, from outside.

``Tracer`` wraps the entry points of each layer (module) of ``duhamelcheb``
without editing the package: module-level functions are replaced in every
``duhamelcheb`` module that imported them, methods are replaced on their
class, and the ``g``, ``b`` and ``forcing`` callables of every
``HeatProblem`` built while the tracer is installed are wrapped at
construction.  ``install`` and ``uninstall`` swap the wrappers in and out,
so traced and untraced operations can alternate in one process.

Each call records a span (op id, span id, parent span id, name, start,
end) in memory; ``write_spans`` writes them when the run ends.  A layer's
self time is its span's duration minus the time its direct child spans
cover.  The counts reported beside the spans (refinements,
slabs kept, fixed-point iterations, computed stage-solve flops) are taken
from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from collections import Counter, defaultdict

from duhamelcheb import cli, collocation, harness, heat, kernels, mesh

FUNCTIONS = [
    ("cli.main", cli, "main"),
    ("collocation.march", collocation, "march"),
    ("collocation.assemble_block_system", collocation, "assemble_block_system"),
    ("collocation.solve_stage_direct", collocation, "solve_stage_direct"),
    ("collocation.solve_stage_fixed_point", collocation, "solve_stage_fixed_point"),
    ("kernels.exp_sigma_moments", kernels, "exp_sigma_moments"),
    ("mesh.lagrange_eval", mesh, "lagrange_eval"),
    ("heat.compute_errors", heat, "compute_errors"),
    ("harness.run_convergence_study", harness, "run_convergence_study"),
    ("harness.baseline_backward_euler", harness, "baseline_backward_euler"),
]
METHODS = [
    ("collocation.CoefficientAssembler.init", collocation.CoefficientAssembler, "__init__"),
    ("collocation.CoefficientAssembler.slab", collocation.CoefficientAssembler, "slab"),
    ("mesh.TimePartition.map_to_slab", mesh.TimePartition, "map_to_slab"),
]
PROBLEM_FIELDS = ("g", "b", "forcing")

LAYER_NAMES = (
    "cli.main",
    "collocation.march",
    "collocation.CoefficientAssembler.init",
    "collocation.CoefficientAssembler.slab",
    "collocation.assemble_block_system",
    "collocation.solve_stage_direct",
    "collocation.solve_stage_fixed_point",
    "kernels.exp_sigma_moments",
    "mesh.lagrange_eval",
    "mesh.TimePartition.map_to_slab",
    "heat.HeatProblem.g",
    "heat.HeatProblem.b",
    "heat.HeatProblem.forcing",
    "heat.compute_errors",
    "harness.run_convergence_study",
    "harness.baseline_backward_euler",
)
"""Every span name, in the order the per-layer metrics list them."""


def direct_stage_flops(N: int, M: int) -> int:
    """Computed flop count of one ``solve_stage_direct`` call.

    Counts the dominant dense work: M batched N x N LU factorisations
    (2/3 N^3 each), their triangular solves for N + 1 right-hand sides
    (2 N^2 each), the N-column loop that applies (I - S~ + C~) and Lambda
    (2 N^2 M + 2 N M per column), and the back-substitution contraction
    (2 N^2 M).  A count from the shapes, not a hardware measurement.
    """
    lu = M * (2 * N**3) // 3
    tri = M * 2 * N**2 * (N + 1)
    columns = N * (2 * N**2 * M + 2 * N * M)
    return lu + tri + columns + 2 * N**2 * M


def _count_march(counts, args, kwargs, result):
    counts["collocation.march.refinements"] += result.refinements
    counts["collocation.march.stages"] += len(result.stages)


def _count_direct(counts, args, kwargs, result):
    system = args[0]
    counts["collocation.solve_stage_direct.flops_computed"] += direct_stage_flops(system.N, system.M)


def _count_fixed_point(counts, args, kwargs, result):
    counts["collocation.solve_stage_fixed_point.iterations"] += result.fp_iterations


HOOKS = {
    "collocation.march": _count_march,
    "collocation.solve_stage_direct": _count_direct,
    "collocation.solve_stage_fixed_point": _count_fixed_point,
}


class Tracer:
    """In-memory span recorder with swappable wrappers around the layers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op: int | None = None
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sys.modules.items() if n == "duhamelcheb" or n.startswith("duhamelcheb.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swaps.append((mod, key, original, wrapped))
        for name, cls, attr in METHODS:
            original = cls.__dict__[attr]
            self._swaps.append((cls, attr, original, self.wrap(name, original)))
        original_init = heat.HeatProblem.__init__

        @functools.wraps(original_init)
        def traced_init(problem, *args, **kwargs):
            original_init(problem, *args, **kwargs)
            for field in PROBLEM_FIELDS:
                fn = getattr(problem, field)
                if fn is not None:
                    object.__setattr__(problem, field, self.wrap(f"heat.HeatProblem.{field}", fn))

        self._swaps.append((heat.HeatProblem, "__init__", original_init, traced_init))

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.op, sid, parent, name, start, end)
            if hook is not None:
                hook(self.counts[self.op], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per traced operation: calls and self milliseconds per span name, plus counts."""
        child_ns = defaultdict(int)
        for op, sid, parent, name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for op, sid, parent, name, start, end in self.spans:
            if op is None:
                continue
            row = out[op]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_ms"] += (end - start - child_ns[sid]) / 1e6
        for op, counts in self.counts.items():
            if op is None:
                continue
            row = out[op]
            for key, value in counts.items():
                row[key] += value
        return out

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV: op,span,parent,name,start_ns,end_ns."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(f"{'' if op is None else op},{sid},{parent},{name},{start},{end}\n")


def layer_metrics(per_op: dict[int, dict[str, float]], bytes_out: list[int], speed: list[float]) -> dict[str, float]:
    """Per-layer metrics: the median over traced operations of each per-op value.

    ``speed[op]`` rescales operation ``op``'s self times to the calibration's
    reference machine speed, as the end-to-end times are.
    """
    rows = list(per_op.values()) or [{}]
    for op, row in per_op.items():
        for name in LAYER_NAMES:
            if f"{name}.self_ms" in row:
                row[f"{name}.self_ms"] *= speed[op]
        slabs = row.get("collocation.CoefficientAssembler.slab.calls", 0.0)
        row["collocation.march.slab_yield"] = row.get("collocation.march.stages", 0.0) / slabs if slabs else 0.0
    keys = [f"{name}.{kind}" for name in LAYER_NAMES for kind in ("calls", "self_ms")] + [
        "collocation.march.refinements",
        "collocation.march.slab_yield",
        "collocation.solve_stage_fixed_point.iterations",
        "collocation.solve_stage_direct.flops_computed",
    ]
    metrics = {key: statistics.median(row.get(key, 0.0) for row in rows) for key in keys}
    metrics["cli.main.bytes_out"] = statistics.median(bytes_out)
    return metrics
