"""Tracing wraps every layer, leaves results bit-identical and undoes itself."""

import json
from pathlib import Path

import pytest

from duhamelcheb import cli, collocation, harness, heat, mesh
import calibration
import gate
import run
import tracing
import workloads

BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_operation_is_bit_identical(name):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    plain = workload.prepare(0)
    tracer.install()
    try:
        traced_state = workload.prepare(0)
        tracer.op = 0
        traced = workload.operate(traced_state)
    finally:
        tracer.uninstall()
    untraced = workload.operate(plain)
    assert workload.fingerprint(traced) == workload.fingerprint(untraced)
    assert workload.check(traced_state, traced)[0] == []

    row = tracer.per_op()[0]
    top = [s for s in tracer.spans if s[2] == -1]
    total_ms = sum(end - start for *_, start, end in top) / 1e6
    self_ms = [v for k, v in row.items() if k.endswith(".self_ms")]
    assert min(self_ms) >= 0
    assert sum(self_ms) == pytest.approx(total_ms, rel=1e-9)
    assert row["collocation.march.calls"] >= 1


def test_uninstall_restores_every_original():
    before = (cli.march, cli.main, harness.march, collocation.exp_sigma_moments,
              collocation.CoefficientAssembler.__dict__["slab"], mesh.TimePartition.__dict__["map_to_slab"],
              heat.HeatProblem.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.march is not before[0] and cli.march is collocation.march
    tracer.uninstall()
    after = (cli.march, cli.main, harness.march, collocation.exp_sigma_moments,
             collocation.CoefficientAssembler.__dict__["slab"], mesh.TimePartition.__dict__["map_to_slab"],
             heat.HeatProblem.__init__)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer()
    tracer.spans.extend([
        (0, 0, -1, "cli.main", 0, 100),
        (0, 1, 0, "collocation.march", 10, 90),
        (0, 2, 1, "mesh.lagrange_eval", 20, 30),
        (0, 3, 1, "mesh.lagrange_eval", 40, 45),
    ])
    row = tracer.per_op()[0]
    assert row["cli.main.self_ms"] == pytest.approx(20 / 1e6)
    assert row["collocation.march.self_ms"] == pytest.approx(65 / 1e6)
    assert row["mesh.lagrange_eval.calls"] == 2


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    layer = tracing.layer_metrics({0: {}}, [0], [1.0])
    layer["trace.overhead_ms"] = 0.0
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_drift_correction_rescales_to_the_reference_speed():
    ms = [100.0, 200.0, 100.0]
    cal = [calibration.REF_MS, 2 * calibration.REF_MS, 2 * calibration.REF_MS]
    assert run.drift_corrected(ms, cal) == pytest.approx([50.0, 100.0, 50.0])


def test_ceilings_sit_above_the_seed_errors():
    for key, err in gate.SEED_ERRORS.items():
        assert err < gate.ceiling(key)
