"""In-memory span tracer that instruments ugks1d from outside the package.

A ``Tracer`` replaces public functions at the names their callers bind
(``scenarios.run``, ``scheme.factor_cyclic``, ``linalg.TridiagonalFactor.solve``
and so on) with wrappers that record one span per call: name, start, end,
parent and a few exact counts.  Leaving the ``with`` block puts every
attribute back to the object it held before, so the package source is never
edited and an untraced run executes exactly the original code.

A span marks a layer boundary.  A wrapped call made while a span of the same
layer is open is part of that span and is not recorded on its own; this is
how the substitution inside a factorization, or the tridiagonal solve inside
a cyclic solve, stay inside the span that caused them.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

ROOT_SPAN = "workload"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap: ``owner`` is a module or a class.

    ``name`` is the span name, or a function of the call's positional
    arguments that returns it; ``count`` maps (arguments, result) to the
    exact counts stored on the span.
    """

    owner: Any
    attr: str
    name: str | Callable[[tuple], str]
    count: Callable[[tuple, Any], dict[str, float]] | None = None


class Tracer:
    """Context manager that installs the probes and records spans in memory."""

    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        try:
            for probe in self.probes:
                original = vars(probe.owner)[probe.attr]
                self._saved.append((probe.owner, probe.attr, original))
                setattr(probe.owner, probe.attr, self._wrap(probe, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> bool:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        span = Span(name, parent)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as the workload root."""
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        spans = self.spans
        open_ = self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = probe.name if isinstance(probe.name, str) else probe.name(args)
            if open_ and spans[open_[-1]].layer == name.split(".", 1)[0]:
                return original(*args, **kwargs)
            span = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._finish(span)
            if probe.count is not None:
                span.counts = probe.count(args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their
    durations add up to the part of the parent's interval they cover.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time ``s``, and the summed counts."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"calls": 0, "s": 0.0})
        entry["calls"] += 1
        entry["s"] += own
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals


# Computed, not counted: the benchmark reads no hardware counters.  Flops are
# the arithmetic of the substitution loops in ``ugks1d.linalg``; bytes are the
# compulsory traffic (read the right-hand side and the factor arrays once,
# write the solution once), with no cache misses.
def tridiagonal_solve_cost(n: int, m: int) -> tuple[int, int]:
    """(flops, bytes) of ``TridiagonalFactor.solve`` on an (n, m) right-hand side."""
    return m * (5 * n - 4), 8 * (2 * n * m + 3 * n - 2)


def cyclic_solve_cost(n: int, m: int) -> tuple[int, int]:
    """(flops, bytes) of ``CyclicTridiagonalFactor.solve``, rank-one correction included."""
    flops, moved = tridiagonal_solve_cost(n, m)
    return flops + m * (2 * n + 3), moved + 8 * n


def _solve_name(args: tuple) -> str:
    # a collision solve stacks one column per cell; the macro solve has one column
    return "linalg.collision_solve" if args[1].ndim == 2 else "linalg.macro_solve"


def _solve_counter(cost: Callable[[int, int], tuple[int, int]]):
    def count(args: tuple, result) -> dict[str, float]:
        rhs = args[1]
        if rhs.ndim != 2:
            return {}
        flops, moved = cost(*rhs.shape)
        return {"flops_computed": flops, "bytes_computed": moved}

    return count


def ugks1d_probes() -> list[Probe]:
    """The layer boundaries of ugks1d, wrapped where their callers look them up."""
    from ugks1d import linalg, scenarios, scheme

    build = "velocity_space.build"
    factor = "linalg.factor"
    cg_count = lambda args, result: {"iterations": result.iterations}
    return [
        Probe(scenarios, "build_bgk", build),
        Probe(scenarios, "build_fokker_planck", build),
        Probe(scenarios, "build_scattering", build),
        Probe(linalg, "conjugate_gradient", "linalg.cg", cg_count),
        Probe(scheme, "conjugate_gradient", "linalg.cg", cg_count),
        Probe(scheme, "factor_tridiagonal", factor),
        Probe(scheme, "factor_cyclic", factor),
        Probe(linalg.TridiagonalFactor, "solve", _solve_name,
              _solve_counter(tridiagonal_solve_cost)),
        Probe(linalg.CyclicTridiagonalFactor, "solve", _solve_name,
              _solve_counter(cyclic_solve_cost)),
        Probe(scenarios, "run", "scheme.run", lambda args, result: {"steps": result.steps}),
        Probe(scenarios, "exact_diffusion_density", "reference.exact_diffusion_density"),
        Probe(scenarios, "transport_density", "reference.transport_density"),
        Probe(scenarios, "initialize_state", "scenarios.initialize_state"),
        Probe(scenarios, "write_snapshot_csv", "scenarios.write_snapshot_csv",
              lambda args, result: {"bytes": os.path.getsize(args[0])}),
    ]


# (metric, unit, span name, summary field); every span metric named ``.s`` is self time
SPAN_METRICS = (
    ("velocity_space.build.s", "s", "velocity_space.build", "s"),
    ("velocity_space.build.calls", "count", "velocity_space.build", "calls"),
    ("linalg.cg.iterations", "count", "linalg.cg", "iterations"),
    ("linalg.cg.s", "s", "linalg.cg", "s"),
    ("linalg.factor.s", "s", "linalg.factor", "s"),
    ("linalg.factor.calls", "count", "linalg.factor", "calls"),
    ("linalg.collision_solve.s", "s", "linalg.collision_solve", "s"),
    ("linalg.collision_solve.calls", "count", "linalg.collision_solve", "calls"),
    ("linalg.collision_solve.flops_computed", "flop", "linalg.collision_solve", "flops_computed"),
    ("linalg.collision_solve.bytes_computed", "B", "linalg.collision_solve", "bytes_computed"),
    ("linalg.macro_solve.s", "s", "linalg.macro_solve", "s"),
    ("linalg.macro_solve.calls", "count", "linalg.macro_solve", "calls"),
    ("scheme.run.s", "s", "scheme.run", "s"),
    ("scheme.run.steps", "count", "scheme.run", "steps"),
    ("reference.exact_diffusion_density.s", "s", "reference.exact_diffusion_density", "s"),
    ("reference.exact_diffusion_density.calls", "count", "reference.exact_diffusion_density", "calls"),
    ("reference.transport_density.s", "s", "reference.transport_density", "s"),
    ("scenarios.initialize_state.s", "s", "scenarios.initialize_state", "s"),
    ("scenarios.write_snapshot_csv.s", "s", "scenarios.write_snapshot_csv", "s"),
    ("scenarios.write_snapshot_csv.bytes", "B", "scenarios.write_snapshot_csv", "bytes"),
)

DERIVED_UNITS = {
    "scheme.step_self_ms": "ms",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "1",
}

COUNT_METRICS = tuple(name for name, unit, _, _ in SPAN_METRICS if unit != "s")


def layer_metrics(spans: list[Span], traced_wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced workload call.

    ``scheme.step_self_ms`` is the ``scheme.run`` time outside its linalg
    child spans, per step; ``trace.unattributed_s`` is the traced wall time
    that no named span below the workload root accounts for.
    """
    summary = summarize(spans)
    metrics = {
        name: float(summary.get(span_name, {}).get(key, 0))
        for name, _, span_name, key in SPAN_METRICS
    }
    run_outside_linalg = sum(
        span.duration for span in spans if span.name == "scheme.run"
    ) - sum(
        span.duration
        for span in spans
        if span.layer == "linalg"
        and span.parent is not None
        and spans[span.parent].name == "scheme.run"
    )
    steps = metrics["scheme.run.steps"]
    metrics["scheme.step_self_ms"] = 1e3 * run_outside_linalg / steps if steps else 0.0
    named = sum(entry["s"] for name, entry in summary.items() if name != ROOT_SPAN)
    metrics["trace.unattributed_s"] = traced_wall_s - named
    return metrics
