"""Benchmark of the duhamelcheb solver: end-to-end metrics and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py``.  The benchmark is a closed loop
with one client: a single process runs one operation after another, BLAS
pinned to BLAS_THREADS thread(s), for ``--seconds`` seconds.  Every
operation is checked by the gate in ``gate.py``.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics:

* ``op_ms.p50``, ``op_ms.p90``: wall time of one operation over the timed
  loop, drift-corrected (below); the sample count and the uncorrected
  wall times are on the line before;
* ``setup_s``: median over SETUP_PROBES fresh interpreters of the
  drift-corrected time to import duhamelcheb and build the workload's
  problem objects;
* ``peak_mb``: peak traced allocation (tracemalloc) of one operation, in a
  separate pass after the timed loop;
* ``accuracy_digits``: -log10 of max_eps1 floored at 1e-15, averaged over
  an operation's collocation runs;
* ``passed_frac``: operations that passed the gate over operations
  attempted, i.e. 1 - failed_frac (``failed`` and ``attempted`` on the
  same line give the counts).

Drift correction: the speed of a shared machine drifts by up to 2x over
tens of seconds.  A fixed calibration loop (``calibration.py``) runs before
every operation, and each wall time is scaled by calibration.REF_MS over
the median loop time of the nearby operations.  The times then read as
milliseconds at one fixed machine speed, so runs made at different moments
compare.

With ``--trace 1`` the benchmark alternates untraced and traced
operations (tracing in ``tracing.py``), checks that both give bit-identical
outputs, writes every span to ``perfbench/out/spans-<workload>.csv.gz`` and
reports the per-layer metrics: calls and self time per operation for each
wrapped entry point, the counts beside them, and the tracing overhead as
traced minus untraced median operation time, all drift-corrected.

The line before the result holds the run details and the environment
(git SHA, nproc, Python, numpy, scipy, BLAS, pinned BLAS threads, seed);
``perfbench/out/<workload>-trace<t>.json`` keeps the same record.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
"""One thread: the loop has one client, and the stage solves batch many tiny
matrices, where a second BLAS thread adds scheduling noise on a shared box."""
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

CALIBRATION_WINDOW = 2
"""Each operation is scaled by the median calibration of the 2 operations on either side."""

END_TO_END_UNITS = {
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "setup_s": "s",
    "peak_mb": "MB",
    "accuracy_digits": "digits",
    "passed_frac": "fraction",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms/op"
    if name == "trace.overhead_ms":
        return "ms"
    if name.endswith(".slab_yield"):
        return "ratio"
    if name.endswith(".bytes_out"):
        return "bytes/op"
    if name.endswith(".flops_computed"):
        return "flop/op"
    return "count/op"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str | None:
    """HEAD of the repository the benchmark sits in, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "duhamelcheb").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, calibration ms) from ``setup_probe.py`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    seconds, cal_ms = done.stdout.split()[-2:]
    return float(seconds), float(cal_ms)


def drift_corrected(values: list[float], cal_ms: list[float]) -> list[float]:
    """Times rescaled to the machine speed at which the calibration reads its reference."""
    out = []
    for i, value in enumerate(values):
        window = cal_ms[max(0, i - CALIBRATION_WINDOW): i + CALIBRATION_WINDOW + 1]
        out.append(value * calibration.REF_MS / statistics.median(window))
    return out


def timed_run(workload, seed: int, seconds: float) -> tuple[object, dict, dict]:
    import gate
    import workloads

    probes = [probe_setup(workload.name, seed) for _ in range(SETUP_PROBES)]
    setup = [wall * calibration.REF_MS / cal for wall, cal in probes]
    state = workload.prepare(seed)
    runner = gate.GatedRunner(workload)
    runner.run(state)  # warm-up: lazy imports and first-call costs stay out of the loop
    gc.collect()
    times, cal_ms = [], []
    stop = time.perf_counter() + seconds
    while not times or time.perf_counter() < stop:
        cal_ms.append(calibration.calibration_ms())
        elapsed, _ = runner.run(state)
        times.append(elapsed)

    gc.collect()
    tracemalloc.start()
    runner.run(state)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    wall_ms = [t * 1e3 for t in times]
    ms = drift_corrected(wall_ms, cal_ms)
    digits = [workloads.accuracy_digits(e) for e in runner.errors]
    metrics = {
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": percentile(ms, 90),
        "setup_s": statistics.median(setup),
        "peak_mb": peak / 1e6,
        "accuracy_digits": statistics.median(digits) if digits else 0.0,
        "passed_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    details = {
        "op_samples": len(ms),
        "wall_op_ms.p50": statistics.median(wall_ms),
        "wall_op_ms.p90": percentile(wall_ms, 90),
        "calibration_ms.p50": statistics.median(cal_ms),
        "wall_op_ms": wall_ms,
        "calibration_ms": cal_ms,
        "wall_setup_s": [wall for wall, _ in probes],
        "setup_calibration_ms": [cal for _, cal in probes],
    }
    return runner, metrics, details


def traced_run(workload, seed: int, seconds: float) -> tuple[object, dict, dict]:
    import gate
    import tracing

    tracer = tracing.Tracer()
    plain = workload.prepare(seed)
    tracer.install()
    traced = workload.prepare(seed)  # its HeatProblem callables are wrapped at construction
    tracer.uninstall()

    runner = gate.GatedRunner(workload)
    _, outputs = runner.run(plain)
    reference = None if outputs is None else workload.fingerprint(outputs)
    del outputs
    gc.collect()
    times, cal_ms, bytes_out = [], [], []
    stop = time.perf_counter() + seconds
    while len(times) < 4 or time.perf_counter() < stop:
        op = len(times)
        cal_ms.append(calibration.calibration_ms())
        if op % 2:
            tracer.op = op
            tracer.install()
        try:
            elapsed, outputs = runner.run(traced if op % 2 else plain, reference)
        finally:
            tracer.uninstall()
            tracer.op = None
        times.append(elapsed * 1e3)
        if op % 2 and outputs is not None:
            bytes_out.append(workload.bytes_out(outputs))

    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}.csv.gz")
    ms = drift_corrected(times, cal_ms)
    speed = [c / w for c, w in zip(ms, times)]
    metrics = tracing.layer_metrics(tracer.per_op(), bytes_out or [0], speed)
    untraced, traced_ms = ms[0::2], ms[1::2]
    metrics["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(untraced)
    details = {
        "untraced_ops": len(untraced),
        "traced_ops": len(traced_ms),
        "untraced_op_ms.p50": statistics.median(untraced),
        "traced_op_ms.p50": statistics.median(traced_ms),
        "wall_op_ms": times,
        "calibration_ms": cal_ms,
        "spans": len(tracer.spans),
    }
    return runner, metrics, details


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, within the observed range."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "duhamelcheb" / "__init__.py").is_file():
        print(f"benchmark: no duhamelcheb package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads BLAS, here and in the probes
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    runner, metrics, details = run(workload, args.seed, args.seconds)
    unit = per_layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        **details,
        "problems": runner.problems[:20],
        "environment": environment(args.seed),
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    record.pop("result")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
