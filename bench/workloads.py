"""The three benchmark workloads and the correctness gate applied to each call.

Each workload does the work of one ``ugks1d`` CLI subcommand by calling the
``scenarios`` function that subcommand calls, so it gets structured results
back instead of printed text.  The ``cli`` module itself is only argparse.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ugks1d import scenarios
from ugks1d.velocity_space import OperatorKind

NAMES = ("diffusive-sc", "transport-bgk-wide", "sweep-sc-nv800")

# Share of each subcommand's simulated horizon that one benchmark call runs.
# The host's speed changes every few seconds, so a run makes many short calls,
# each scaled by a host-speed kernel timed next to it; see "Noise and bounds"
# in README.md.
HORIZON = {
    "diffusive-sc": 0.05,
    "transport-bgk-wide": 0.01,
    "sweep-sc-nv800": 0.2,
}

MASS_DRIFT_MAX = 1e-12  # acceptance criterion 7
HEAT_KERNEL_REL_MAX = 0.05  # acceptance criterion 8
TRANSPORT_REL_LINF_MAX = 1e-2

Check = Callable[[Any, list], tuple[float, list[str]]]


@dataclass(frozen=True)
class HostProbe:
    """A fixed kernel timed between calls as a measure of the host's speed.

    It makes ``reps`` elementwise updates of an array of ``shape``, the array
    size most of the workload's time is spent on, so it slows as the
    workload slows when other tenants load the host.  ``ref_s`` is its time
    at the reference speed: about its fastest time on a 2-vCPU Intel Xeon
    (2.0 GHz) virtual machine.
    """

    shape: tuple[int, ...]
    reps: int
    ref_s: float


# a row update of a tridiagonal sweep over a 100-point velocity grid
ROW_PROBE = HostProbe((100,), 4000, 0.004)
# a flux update on the 1000x200 transport mesh
MESH_PROBE = HostProbe((200, 1000), 16, 0.0045)


@dataclass(frozen=True)
class Workload:
    """``entry`` is the timed scenarios call; ``check`` turns its result and
    the captured runs into (err_rel, problems); ``probe`` measures the host's
    speed between calls."""

    name: str
    entry: Callable[[], Any]
    check: Check
    expected_runs: int
    probe: HostProbe = ROW_PROBE


@contextlib.contextmanager
def capture_runs():
    """Collect every ``ScenarioRun`` made inside the block.

    The gate needs final states and mass drift, which the entry calls do not
    return, and set-up timing replays the scenarios these runs used.  The
    wrapper costs one Python call per solver run.
    """
    original = vars(scenarios)["run_scenario"]
    runs: list = []

    def recording(scenario):
        run_ = original(scenario)
        runs.append(run_)
        return run_

    scenarios.run_scenario = recording
    try:
        yield runs
    finally:
        scenarios.run_scenario = original


def sweep_epsilons(seed: int) -> list[float]:
    """Five stiffness values in [1e-6, 1e-2], largest first.

    Seed 0 gives the decades.  Other seeds keep 1e-2, the top of the range,
    and draw the other four log-uniformly.  The heat-kernel error grows with
    eps, so the sweep's worst error is always the one at 1e-2 and err_rel
    stays comparable between seeds while the stiff end of the set varies.
    """
    if seed == 0:
        return [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    draws = np.random.default_rng(seed).uniform(-6.0, -2.0, size=4)
    return [1e-2] + sorted((10.0**draws).tolist(), reverse=True)


def gate(workload: Workload, result: Any, runs: list) -> tuple[float, list[str]]:
    """Relative error of one entry call and every reason it counts as failed."""
    problems = []
    if len(runs) != workload.expected_runs:
        problems.append(f"expected {workload.expected_runs} solver runs, saw {len(runs)}")
    for index, run_ in enumerate(runs):
        final = run_.result.final
        if not (np.isfinite(final.f).all() and np.isfinite(final.rho).all()):
            problems.append(f"run {index}: non-finite final state")
        drift = run_.result.mass_drift
        if not abs(drift) <= MASS_DRIFT_MAX:
            problems.append(f"run {index}: mass drift {drift:.3e} above {MASS_DRIFT_MAX:g}")
    err_rel, more = workload.check(result, runs)
    problems.extend(more)
    if not math.isfinite(err_rel):
        problems.append(f"relative error is {err_rel}")
    return err_rel, problems


def _csv_check(expected_files: int, norm: str, limit: float) -> Check:
    """Worst relative error over the snapshot CSVs a report wrote, read back."""

    def check(report, runs):
        problems = []
        if len(report.files) != expected_files:
            problems.append(f"expected {expected_files} CSV files, got {len(report.files)}")
        errors = []
        for path in report.files:
            table = scenarios.read_snapshot_csv(path)
            diff = table["rho"] - table["rho_ref"]
            if norm == "l2":
                errors.append(float(np.sqrt(np.sum(diff**2) / np.sum(table["rho_ref"] ** 2))))
            else:
                errors.append(float(np.abs(diff).max() / np.abs(table["rho_ref"]).max()))
        err_rel = max(errors, default=math.nan)
        if not err_rel <= limit:
            problems.append(f"relative {norm} error {err_rel:.3e} above {limit:g}")
        return err_rel, problems

    return check


def _check_sweep(rows, runs):
    err_rel = max(row.error for row in rows)
    problems = [
        f"eps={row.epsilon:.3e}: relative L2 error {row.error:.3e} above {HEAT_KERNEL_REL_MAX:g}"
        for row in rows
        if not row.error <= HEAT_KERNEL_REL_MAX
    ]
    return err_rel, problems


def make_workload(name: str, seed: int, out_dir: Path, t_scale: float | None = None) -> Workload:
    """Build a workload; ``t_scale`` scales every simulated horizon of the
    subcommand, and defaults to the workload's ``HORIZON``.

    ``out_dir`` receives the CSVs (and the transport config file).  Only
    ``sweep-sc-nv800`` depends on ``seed``; the others are the paper's
    presets, shortened.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
    if t_scale is None:
        t_scale = HORIZON[name]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    diffusive = scenarios.load_scenario("diffusive")

    if name == "diffusive-sc":
        # ugks1d run --preset diffusive --operator sc --out-dir <dir>, with
        # only the last snapshot: each snapshot's heat kernel is a fixed
        # 0.08 s that would outweigh the collision solves on a short horizon
        scenario = dataclasses.replace(
            diffusive,
            operator=OperatorKind.SCATTERING_PERIODIC,
            t_snapshots=(diffusive.t_snapshots[-1] * t_scale,),
        )
        return Workload(
            name,
            lambda: scenarios.run_and_report(scenario, out_dir),
            _csv_check(1, "l2", HEAT_KERNEL_REL_MAX),
            expected_runs=1,
        )

    if name == "transport-bgk-wide":
        # ugks1d run --config <file> --out-dir <dir>
        config = out_dir / "transport-bgk-wide.json"
        config.write_text(
            json.dumps(
                {
                    "preset": "transport",
                    "nx": 1000,
                    "nv": 200,
                    "t_snapshots": [0.01 * t_scale, 0.02 * t_scale],
                }
            )
        )
        return Workload(
            name,
            lambda: scenarios.run_and_report(scenarios.load_scenario(config), out_dir),
            _csv_check(2, "linf", TRANSPORT_REL_LINF_MAX),
            expected_runs=1,
            probe=MESH_PROBE,
        )

    # sweep-sc-nv800:
    # ugks1d ap-sweep --operator sc --nv 800 --nx 50 --t-end 0.01 --epsilons <5 values>
    epsilons = sweep_epsilons(seed)
    return Workload(
        name,
        lambda: scenarios.ap_sweep(
            OperatorKind.SCATTERING_PERIODIC,
            epsilons,
            branch="diffusive",
            nx=50,
            nv=800,
            t_end=0.01 * t_scale,
        ),
        _check_sweep,
        expected_runs=len(epsilons),
    )
