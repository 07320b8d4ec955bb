"""Benchmark of the ugks1d solver: one workload per invocation.

    python3 bench/run.py --workload diffusive-sc --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout this file belongs to.
With ``--trace 0`` the workload's entry call is repeated, untraced, for
most of ``--seconds``, and the set-up sequence is then timed on its own for
the rest; both times are scaled to a reference host speed (``host_probe``).
With ``--trace 1`` untraced and traced calls alternate and the per-layer
metrics are reported.  Every call passes the
correctness gate in ``workloads.gate`` or counts as failed.  The last line
of standard output is the JSON result; a fuller record, with the environment
and the spans of the last traced call, goes to ``.perfbench/`` in the
checkout.  See ``bench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# One BLAS thread: a single-threaded baseline that does not compete with
# itself on a small shared machine.  Set before numpy is first imported.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_CALLS = 2
SETUP_SHARE = 0.15  # set-up is timed for this share of --seconds, calls for the rest
MIN_SETUP_REPS = 3

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "err_rel": "1"}


@dataclass
class Call:
    """One entry call.  Solver runs are reduced to their scenarios and a digest
    of their final states, so that memory does not grow with the call count."""

    wall_s: float
    traced: bool
    err_rel: float
    problems: list[str]
    scenarios: list
    final_digests: list[str]
    spans: list = field(default_factory=list)
    host_s: float = math.nan  # the host-speed probe's time, mean of before and after


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def host_probe(spec):
    """A function that times the workload's ``HostProbe`` kernel once.

    On a shared host the cores slow down by up to 2x, for seconds or for
    minutes, while other tenants are busy; a process's CPU time slows with
    them.  A time divided by the kernel's time next to it and multiplied by
    ``spec.ref_s`` is that time at the reference speed.  The kernel is part
    of the benchmark; no change to the program moves it.
    """
    import numpy as np

    array = np.random.default_rng(0).random(spec.shape)

    def probe() -> float:
        start = time.perf_counter()
        for _ in range(spec.reps):
            array * 2.0 + array
        return time.perf_counter() - start

    return probe


def _call(workload, traced: bool) -> Call:
    """One entry call, timed, then gated."""
    import spans
    import workloads

    tracer = spans.Tracer(spans.ugks1d_probes()) if traced else None
    result, problems = None, []
    with workloads.capture_runs() as runs:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.entry()
            else:
                with tracer, tracer.span(spans.ROOT_SPAN):
                    result = workload.entry()
        except Exception as exc:  # a call that raises is counted as failed
            traceback.print_exc(file=sys.stderr)
            problems.append(f"raised {type(exc).__name__}: {exc}")
        wall_s = time.perf_counter() - start
    err_rel = math.nan
    if not problems:
        err_rel, problems = workloads.gate(workload, result, runs)
    digests = [
        hashlib.sha256(run_.result.final.rho.tobytes() + run_.result.final.f.tobytes()).hexdigest()
        for run_ in runs
    ]
    return Call(
        wall_s,
        traced,
        err_rel,
        problems,
        [run_.scenario for run_ in runs],
        digests,
        tracer.spans if tracer else [],
    )


def _calls(workload, seconds: float, modes: tuple[bool, ...], probe) -> list[Call]:
    """Cycle through the tracing ``modes``: at least MIN_CALLS calls, then more
    while the next one, at the mean call time so far, ends within ``seconds``.
    The host-speed ``probe`` runs before the first call and after each."""
    calls: list[Call] = []
    start = time.perf_counter()
    before = probe()
    while True:
        call = _call(workload, modes[len(calls) % len(modes)])
        after = probe()
        call.host_s, before = (before + after) / 2.0, after
        calls.append(call)
        elapsed = time.perf_counter() - start
        if len(calls) >= MIN_CALLS and elapsed * (len(calls) + 1) / len(calls) > seconds:
            return calls


def _setup_times(scenario_list, budget_s: float, probe, ref_s: float) -> list[float]:
    """Time operator build, initial state and workspace set-up for every run,
    each repeat at the reference host speed."""
    from ugks1d import scenarios, scheme

    times = []
    start = time.perf_counter()
    before = probe()
    while len(times) < MIN_SETUP_REPS or time.perf_counter() - start < budget_s:
        began = time.perf_counter()
        for scenario in scenario_list:
            op = scenarios.build_operator(scenario.operator, scenario.nv)
            state = scenarios.initialize_state(scenario, op.grid)
            scheme.run(state, scenarios.scheme_params(scenario), op, op.grid, n_steps=0)
        took = time.perf_counter() - began
        after = probe()
        times.append(took * ref_s / ((before + after) / 2.0))
        before = after
    return times


def _median(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else math.nan


def _end_to_end(workload, seconds: float) -> tuple[dict, list[Call], dict]:
    """``wall_s`` and ``setup_s`` are medians at the reference host speed."""
    probe, ref_s = host_probe(workload.probe), workload.probe.ref_s
    calls = _calls(workload, (1.0 - SETUP_SHARE) * seconds, (False,), probe)
    setup = _setup_times(calls[0].scenarios, SETUP_SHARE * seconds, probe, ref_s)
    metrics = {
        "wall_s": _median(c.wall_s * ref_s / c.host_s for c in calls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_rel": _median(c.err_rel for c in calls),
    }
    walls = [c.wall_s for c in calls]
    print(f"measured wall time over {len(walls)} calls: fastest {min(walls):.6g} s, "
          f"median {statistics.median(walls):.6g} s, p90 {statistics.quantiles(walls, n=10)[-1]:.6g} s; "
          f"median host-speed probe {statistics.median(c.host_s for c in calls):.6g} s")
    return metrics, calls, {"setup_s_samples": setup}


def _per_layer(workload, seconds: float) -> tuple[dict, list[Call], dict]:
    import spans

    calls = _calls(workload, seconds, (False, True), host_probe(workload.probe))
    plain = [c for c in calls if not c.traced]
    traced = [c for c in calls if c.traced]
    per_call = [spans.layer_metrics(c.spans, c.wall_s) for c in traced]
    for call, numbers in zip(traced, per_call):
        for name in spans.COUNT_METRICS:
            if numbers[name] != per_call[0][name]:
                call.problems.append(f"{name} changed between traced calls")
        if call.final_digests != plain[0].final_digests:
            call.problems.append("traced final state differs from untraced")
    metrics = {name: _median(numbers[name] for numbers in per_call) for name in per_call[0]}
    metrics["trace.overhead_frac"] = (
        _median(c.wall_s for c in traced) / _median(c.wall_s for c in plain) - 1.0
    )
    last = [
        {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end, "counts": s.counts}
        for s in traced[-1].spans
    ]
    return metrics, calls, {"spans": last}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "ugks1d" / "__init__.py").is_file():
        print(f"bench: no ugks1d sources under {src}", file=sys.stderr)
        return 2
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import spans
    import ugks1d
    import workloads

    if Path(ugks1d.__file__).resolve().parent != (src / "ugks1d").resolve():
        print(f"bench: imported ugks1d from {ugks1d.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"bench: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print(json.dumps({"env": env}))
    workload = workloads.make_workload(args.workload, args.seed, OUT / args.workload)
    if args.trace:
        metrics, calls, record = _per_layer(workload, args.seconds)
        units = {name: unit for name, unit, _, _ in spans.SPAN_METRICS} | spans.DERIVED_UNITS
    else:
        metrics, calls, record = _end_to_end(workload, args.seconds)
        units = E2E_UNITS

    failed = sum(1 for c in calls if c.problems)
    for call in calls:
        for problem in call.problems:
            print(f"bench: failed call: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / len(calls):.6g} 1 ({failed} of {len(calls)} calls)")

    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(
        json.dumps(
            {
                "env": env,
                "workload": args.workload,
                "seconds": args.seconds,
                "trace": args.trace,
                "result": result,
                "calls": [
                    {"wall_s": c.wall_s, "host_s": c.host_s, "traced": c.traced, "err_rel": c.err_rel,
                     "problems": c.problems}
                    for c in calls
                ],
                **record,
            }
        )
    )
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
