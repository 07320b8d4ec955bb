"""Tests of the benchmark's own machinery: spans, probes, workloads and gate."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402
from ugks1d.scheme import Variant  # noqa: E402

# horizons short enough for the whole file to run in a few seconds
SHORT = {
    "diffusive-sc": 0.01,
    "transport-bgk-wide": 0.01,
    "sweep-sc-nv800": 0.1,
}


def _span(name, parent, start, end, **counts):
    return spans.Span(name, parent, start, end, counts)


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span("workload", None, 0.0, 10.0),
        _span("scheme.run", 0, 1.0, 9.0, steps=4),
        _span("linalg.collision_solve", 1, 2.0, 5.0),
        _span("linalg.macro_solve", 1, 6.0, 7.0),
        _span("scenarios.write_snapshot_csv", 0, 9.5, 9.75, bytes=10),
    ]
    assert spans.self_times(trace) == [1.75, 4.0, 3.0, 1.0, 0.25]
    summary = spans.summarize(trace)
    assert summary["scheme.run"] == {"calls": 1, "s": 4.0, "steps": 4}

    metrics = spans.layer_metrics(trace, traced_wall_s=10.5)
    assert metrics["scheme.step_self_ms"] == pytest.approx(1e3 * (8.0 - 4.0) / 4)
    assert metrics["linalg.collision_solve.s"] == 3.0
    assert metrics["linalg.macro_solve.calls"] == 1
    assert metrics["scenarios.write_snapshot_csv.bytes"] == 10
    assert metrics["trace.unattributed_s"] == pytest.approx(10.5 - (4.0 + 3.0 + 1.0 + 0.25))
    assert metrics["linalg.cg.iterations"] == 0


def test_nested_call_within_its_own_layer_is_not_a_span():
    owner = SimpleNamespace(inner=lambda: 1)
    owner.outer = lambda: owner.inner() + 1
    probes = [
        spans.Probe(owner, "outer", "linalg.outer"),
        spans.Probe(owner, "inner", "linalg.inner"),
    ]
    with spans.Tracer(probes) as tracer:
        assert owner.outer() == 2
        assert owner.inner() == 1
    assert [s.name for s in tracer.spans] == ["linalg.outer", "linalg.inner"]
    assert [s.parent for s in tracer.spans] == [None, None]


def _attributes(probes):
    return {(id(p.owner), p.attr): vars(p.owner)[p.attr] for p in probes}


def test_traced_call_restores_every_wrapped_attribute(tmp_path):
    probes = spans.ugks1d_probes()
    before = _attributes(probes)
    workload = workloads.make_workload("diffusive-sc", 0, tmp_path, SHORT["diffusive-sc"])
    with spans.Tracer(probes) as tracer:
        assert all(vars(p.owner)[p.attr] is not before[id(p.owner), p.attr] for p in probes)
        workload.entry()
    assert tracer.spans
    after = _attributes(probes)
    assert all(after[key] is original for key, original in before.items())

    with pytest.raises(RuntimeError):
        with spans.Tracer(probes):
            raise RuntimeError("interrupted")
    after = _attributes(probes)
    assert all(after[key] is original for key, original in before.items())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_and_untraced_final_states_are_bitwise_equal(name, tmp_path):
    workload = workloads.make_workload(name, 0, tmp_path, SHORT[name])
    with workloads.capture_runs() as plain:
        workload.entry()
    with workloads.capture_runs() as traced:
        with spans.Tracer(spans.ugks1d_probes()) as tracer, tracer.span(spans.ROOT_SPAN):
            workload.entry()
    assert len(plain) == len(traced) == workload.expected_runs
    for a, b in zip(plain, traced):
        assert np.array_equal(a.result.final.rho, b.result.final.rho)
        assert np.array_equal(a.result.final.f, b.result.final.f)

    metrics = spans.layer_metrics(tracer.spans, tracer.spans[0].duration)
    assert metrics["scheme.run.steps"] == sum(r.result.steps for r in traced)
    if name == "transport-bgk-wide":
        assert metrics["linalg.collision_solve.calls"] == 0
        assert metrics["linalg.macro_solve.calls"] == 0
    else:
        assert metrics["linalg.collision_solve.calls"] == metrics["scheme.run.steps"]
    implicit_steps = sum(
        r.result.steps for r in traced if r.params.variant is Variant.IMPLICIT_DIFFUSION
    )
    assert metrics["linalg.macro_solve.calls"] == implicit_steps


def test_sweep_seed_zero_gives_the_decades():
    assert workloads.sweep_epsilons(0) == [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    drawn = workloads.sweep_epsilons(7)
    assert drawn == workloads.sweep_epsilons(7)
    assert drawn != workloads.sweep_epsilons(8)
    assert drawn[0] == 1e-2
    assert all(1e-6 <= eps <= 1e-2 for eps in drawn)
    assert drawn == sorted(drawn, reverse=True)


def test_non_finite_final_state_trips_the_gate(tmp_path):
    workload = workloads.make_workload("diffusive-sc", 0, tmp_path, SHORT["diffusive-sc"])
    with workloads.capture_runs() as runs:
        report = workload.entry()
    err_rel, problems = workloads.gate(workload, report, runs)
    assert problems == []
    assert 0 < err_rel <= workloads.HEAT_KERNEL_REL_MAX

    runs[0].result.final.f[3, 5] = np.nan
    _, problems = workloads.gate(workload, report, runs)
    assert any("non-finite" in p for p in problems)
