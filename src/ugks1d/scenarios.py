"""Regime presets, configuration files, reporting, and sweep harnesses.

A Scenario bundles everything one run needs: collision operator kind,
physical parameters (eta, epsilon, sigma), mesh sizes, time step (fixed
or from the empirical law 0.5 dx^2 + 0.5 eta dx, which is not a stability
bound; see ROADMAP item 3), snapshot times, stepping variant, and which
analytic reference to compare against.  Three presets cover the canonical
regimes on the unit torus with N_x = N_v = 100, sigma = 1 and dt = 1e-5:

* ``transport``    eta = 1,    eps = 100   (collisions negligible)
* ``intermediate`` eta = 0.1,  eps = 0.1
* ``diffusive``    eta = 1e-4, eps = 1e-4  (near the heat-equation limit)

Scenario is the one place where times become steps: ``run_scenario``
hands them to ``scheme.run``, and ``run_and_report`` labels each
snapshot by the first time it serves.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .reference import (
    exact_diffusion_density,
    limit_diffusion_step,
    space_profile,
    transport_density,
    upwind_transport_step,
    velocity_profile,
)
from .scheme import (
    MAX_EXACT_COUNT,
    KineticState,
    RunResult,
    SchemeParams,
    Variant,
    default_time_step,
    require_choice,
    require_count,
    require_positive_finite,
    run,
)
from .velocity_space import (
    CollisionOperator,
    OperatorKind,
    VelocityGrid,
    build_bgk,
    build_fokker_planck,
    build_grid,
    build_scattering,
)


class Reference(enum.Enum):
    """Which analytic density a run's snapshots are compared against."""

    TRANSPORT = "transport"  # exact free transport
    DIFFUSION = "diffusion"  # periodic heat kernel of the diffusion limit
    LIMIT_FD = "limit-fd"  # explicit finite-difference limit scheme, step by step


def _require_velocity_count(nv) -> int:
    nv = require_count("nv", nv, 2)
    if nv % 2:
        raise ConfigurationError(f"nv must be even and in [2, 2**53], got {nv}")
    return nv


@dataclass(frozen=True)
class Scenario:
    """One run.  Its fields are checked here, however the record is built: by
    a config, a CLI override, ``dataclasses.replace`` or a library call.
    ``operator``, ``variant`` and ``reference`` (or None) take a member or its
    value string and store the member; ``eta``, ``epsilon``, ``sigma`` and
    ``dt`` (or None) are real numbers, not bools or strings, positive and
    finite; ``nx`` and ``nv`` are integers; ``t_snapshots`` is any sequence of
    increasing positive times, stored as a tuple, the first at least one step
    and the last at most 2**53 steps; ``name`` is a str.  ``snapshot_steps``
    turns the times into steps.
    """

    name: str
    operator: OperatorKind
    eta: float
    epsilon: float
    sigma: float
    nx: int
    nv: int
    dt: float | None  # None: default_time_step's empirical law, not a stability bound
    t_snapshots: tuple[float, ...]
    variant: Variant = Variant.EXPLICIT_DIFFUSION
    reference: Reference | None = None

    def __post_init__(self):
        store = partial(object.__setattr__, self)  # the record is frozen
        if not isinstance(self.name, str):
            raise ConfigurationError(f"name expects str, got {self.name!r}")
        store("operator", require_choice(OperatorKind, "operator", self.operator))
        store("variant", require_choice(Variant, "variant", self.variant))
        if self.reference is not None:
            store("reference", require_choice(Reference, "reference", self.reference))
        for field in ("eta", "epsilon", "sigma") + (("dt",) if self.dt is not None else ()):
            store(field, require_positive_finite(field, getattr(self, field)))
        store("nx", require_count("nx", self.nx, 3))
        store("nv", _require_velocity_count(self.nv))
        times = self.t_snapshots
        if isinstance(times, str) or not isinstance(times, Iterable):
            raise ConfigurationError(f"t_snapshots expects a sequence of numbers, got {times!r}")
        times = tuple(require_positive_finite("snapshot time", t) for t in times)
        if not times:
            raise ConfigurationError("at least one snapshot time is required")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ConfigurationError("snapshot times must be strictly increasing")
        store("t_snapshots", times)
        steps = times[-1] / self.resolved_dt
        if not steps <= MAX_EXACT_COUNT:  # also rejects inf
            raise ConfigurationError(f"t_end / dt = {steps} is not a step count of at most 2**53")
        if 0 in self.snapshot_steps:  # the initial state, which no CSV records
            raise ConfigurationError(
                f"snapshot time {times[0]!r} is step 0 at dt = {self.resolved_dt!r}; it needs one step"
            )

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def x_centers(self) -> np.ndarray:
        """Cell centres x_i = (i + 1/2) dx, i = 0 .. nx - 1."""
        return (np.arange(self.nx) + 0.5) * self.dx

    @property
    def resolved_dt(self) -> float:
        if self.dt is not None:
            return self.dt
        return default_time_step(self.dx, self.eta)

    @property
    def snapshot_steps(self) -> dict[int, float]:
        """{step: the first requested time it serves}, in step order; the last
        step is the run's.  The step for time t is ceil(t/dt - 1e-9), counted
        from t = 0, where ``initialize_state`` starts every run."""
        steps: dict[int, float] = {}
        for t in self.t_snapshots:
            steps.setdefault(math.ceil(t / self.resolved_dt - 1e-9), t)
        return steps


_PAPER_RUN = dict(operator=OperatorKind.BGK, sigma=1.0, nx=100, nv=100, dt=1e-5)
PRESETS: dict[str, Scenario] = {
    "transport": Scenario(
        "transport", eta=1.0, epsilon=100.0, t_snapshots=(0.05, 0.1),
        reference=Reference.TRANSPORT, **_PAPER_RUN,
    ),
    "intermediate": Scenario(
        "intermediate", eta=0.1, epsilon=0.1, t_snapshots=(0.05, 0.1), **_PAPER_RUN
    ),
    "diffusive": Scenario(
        "diffusive", eta=1e-4, epsilon=1e-4, t_snapshots=(0.05, 0.075, 0.1),
        reference=Reference.DIFFUSION, **_PAPER_RUN,
    ),
}

def load_scenario(source: str | Path) -> Scenario:
    """Resolve a preset name or a flat JSON config file into a Scenario.

    A config may set ``"preset"`` to inherit one of the presets and then
    override individual fields; unknown keys are rejected by name.  The
    loader does only what is particular to JSON: ``"dt": "auto"`` is None
    and an integral number for ``nx`` or ``nv`` is an int.  Scenario checks
    every value.
    """
    text = str(source)
    if text in PRESETS:
        return PRESETS[text]
    path = Path(text)
    if not path.is_file():
        known = ", ".join(sorted(PRESETS))
        raise ConfigurationError(f"{text!r} is neither a preset ({known}) nor a config file")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # not UTF-8, or an integer beyond Python's 4,300 digits
        raise ConfigurationError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: config root must be a JSON object")

    base_name = raw.pop("preset", None)
    if base_name is not None:
        if base_name not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigurationError(f"{path}: unknown preset {base_name!r}; choose one of {known}")
        fields = dataclasses.asdict(PRESETS[base_name])
    else:
        fields = {"name": path.stem, "sigma": 1.0, "dt": None, "t_snapshots": (0.1,)}

    unknown = sorted(set(raw) - {field.name for field in dataclasses.fields(Scenario)})
    if unknown:
        raise ConfigurationError(f"{path}: unknown config keys: {', '.join(unknown)}")
    if raw.get("dt") == "auto":
        raw["dt"] = None
    for key in ("nx", "nv"):  # Scenario rejects what is not an integer
        if isinstance(raw.get(key), float) and raw[key].is_integer():
            raw[key] = int(raw[key])
    fields.update(raw)

    missing = [k for k in ("operator", "eta", "epsilon", "nx", "nv") if fields.get(k) is None]
    if missing:
        raise ConfigurationError(f"{path}: missing required fields: {', '.join(missing)}")
    return Scenario(**fields)


def build_operator(kind: OperatorKind, nv: int) -> CollisionOperator:
    if not isinstance(kind, OperatorKind):
        raise ConfigurationError(f"operator expects an OperatorKind, got {kind!r}")
    grid = build_grid(_require_velocity_count(nv) // 2)
    if kind is OperatorKind.BGK:
        return build_bgk(grid)
    if kind is OperatorKind.FOKKER_PLANCK:
        return build_fokker_planck(grid)
    return build_scattering(grid)


def initialize_state(scenario: Scenario, grid: VelocityGrid | None = None) -> KineticState:
    """Sample f0 at the cell centres on the given grid: f0 is separable, so f
    is one outer product of its velocity and space profiles, built
    velocity-major (Fortran order), the layout ``Stepper`` keeps."""
    if grid is None:
        grid = build_grid(scenario.nv // 2)
    f = np.outer(velocity_profile(grid.velocities), space_profile(scenario.x_centers - 0.5)).T
    rho = f.mean(axis=1)
    return KineticState(f=f, rho=rho, t=0.0)


def scheme_params(scenario: Scenario) -> SchemeParams:
    return SchemeParams(
        eta=scenario.eta,
        epsilon=scenario.epsilon,
        sigma=scenario.sigma,
        dt=scenario.resolved_dt,
        dx=scenario.dx,
        variant=scenario.variant,
    )


@dataclass
class ScenarioRun:
    scenario: Scenario
    operator: CollisionOperator
    params: SchemeParams
    result: RunResult

    @property
    def x_centers(self) -> np.ndarray:
        return self.scenario.x_centers


def run_scenario(scenario: Scenario) -> ScenarioRun:
    op = build_operator(scenario.operator, scenario.nv)
    params = scheme_params(scenario)
    steps = scenario.snapshot_steps
    # the entry state goes straight to run(), which drops it after the first step
    result = run(
        initialize_state(scenario, op.grid),
        params,
        op,
        op.grid,
        n_steps=max(steps),
        snapshot_steps=steps,
    )
    return ScenarioRun(scenario, op, params, result)


def density_norms(error: np.ndarray) -> tuple[float, float, float]:
    """(L1, L2, Linf) under the 1/N_x-weighted discrete measure."""
    error = np.asarray(error, dtype=float)
    return (
        float(np.abs(error).mean()),
        float(np.sqrt(np.mean(error**2))),
        float(np.abs(error).max()),
    )


@dataclass(frozen=True)
class SnapshotReport:
    time: float  # the first requested time its step serves, else its own time
    mass: float
    l1: float | None = None
    l2: float | None = None
    linf: float | None = None


@dataclass
class ErrorReport:
    scenario: str
    operator: str
    rows: list[SnapshotReport]
    mass_drift: float
    seconds_per_step: float
    files: list[Path]

    def lines(self) -> list[str]:
        out = [f"scenario {self.scenario} operator {self.operator}"]
        for row in self.rows:
            piece = f"  t={_time_label(row.time):<8} mass={row.mass:.12e}"
            if row.l1 is not None:
                piece += f" L1={row.l1:.3e} L2={row.l2:.3e} Linf={row.linf:.3e}"
            out.append(piece)
        out.append(
            f"  mass drift (relative) = {self.mass_drift:.3e};"
            f" {self.seconds_per_step * 1e3:.3f} ms/step"
        )
        return out


def _time_label(t: float) -> str:
    """The shortest repr of t, so distinct times read apart, less a trailing
    ".0": 0.05, 100000.2, 1."""
    return repr(t).removesuffix(".0")


def write_snapshot_csv(path: Path, x: np.ndarray, rho: np.ndarray, rho_ref=None) -> None:
    """17 significant digits so a reload reproduces the arrays bitwise."""
    columns = {"x": x, "rho": rho}
    if rho_ref is not None:
        columns.update(rho_ref=rho_ref, abs_err=np.abs(np.subtract(rho, rho_ref)))
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(column, dtype=float).tolist() for column in columns.values()))
    with open(path, "w", newline="") as handle:
        handle.write(",".join(columns) + "\n" + "".join(row % values for values in rows))


def read_snapshot_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    columns = np.array(rows, dtype=float).T if rows else np.empty((len(header), 0))
    return {name: np.asarray(col) for name, col in zip(header, columns)}


def _reference_curves(run_: ScenarioRun) -> dict[int, np.ndarray]:
    """Reference density per snapshot index, for the scenario's reference."""
    scenario = run_.scenario
    op = run_.operator
    x = run_.x_centers
    refs: dict[int, np.ndarray] = {}
    snapshots = run_.result.snapshots
    if scenario.reference is Reference.TRANSPORT:
        for idx, snap in enumerate(snapshots):
            if snap.time > 0:
                refs[idx] = transport_density(snap.time, x, op.grid, scenario.eta)
    elif scenario.reference is Reference.DIFFUSION:
        # the macro flux's d <V,V>/(2N) tends to eps/eta times the eta = eps coefficient
        kappa = (scenario.epsilon / scenario.eta) / (3.0 * scenario.sigma * abs(op.lambda_star))
        for idx, snap in enumerate(snapshots):
            if snap.time > 0:
                refs[idx] = exact_diffusion_density(snap.time, x, kappa)
    elif scenario.reference is Reference.LIMIT_FD:
        kappa_d = (
            (scenario.epsilon / scenario.eta)
            * float(op.grid.velocities @ op.grid.velocities)
            / op.grid.size
            / (scenario.sigma * abs(op.lambda_star))
        )
        rho = run_.result.snapshots[0].rho.copy()
        dt = run_.params.dt
        step_of = {snap.step: idx for idx, snap in enumerate(snapshots)}
        for k in range(1, snapshots[-1].step + 1):
            rho = limit_diffusion_step(rho, dt, scenario.dx, kappa_d)
            if k in step_of:
                refs[step_of[k]] = rho.copy()
    return refs


def run_and_report(scenario: Scenario, out_dir: str | Path | None = None) -> ErrorReport:
    """Run a scenario, write one CSV per snapshot, and collect error norms."""
    run_ = run_scenario(scenario)
    refs = _reference_curves(run_)
    x = run_.x_centers
    requested = scenario.snapshot_steps
    rows: list[SnapshotReport] = []
    files: list[Path] = []
    directory: Path | None = None
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
    for idx, snap in enumerate(run_.result.snapshots):
        time = requested.get(snap.step, snap.time)
        ref = refs.get(idx)
        if ref is not None:
            l1, l2, linf = density_norms(snap.rho - ref)
            rows.append(SnapshotReport(time, snap.mass, l1, l2, linf))
        else:
            rows.append(SnapshotReport(time, snap.mass))
        if directory is not None and idx > 0:
            name = f"{scenario.name}_{scenario.operator.value}_t{_time_label(time)}.csv"
            path = directory / name
            write_snapshot_csv(path, x, snap.rho, ref)
            files.append(path)
    return ErrorReport(
        scenario=scenario.name,
        operator=scenario.operator.value,
        rows=rows,
        mass_drift=run_.result.mass_drift,
        seconds_per_step=run_.result.seconds_per_step,
        files=files,
    )


@dataclass(frozen=True)
class LambdaStarRow:
    nv: int
    lambda_star: float
    target: float


_LAMBDA_TARGETS = {
    OperatorKind.BGK: -1.0,
    OperatorKind.FOKKER_PLANCK: -2.0,
    OperatorKind.SCATTERING_PERIODIC: -1.5,
}


def lambda_star_report(kind: OperatorKind, nv_list) -> list[LambdaStarRow]:
    """lambda_star per velocity resolution with the continuum target; ``kind``
    takes a member or its value string."""
    kind = require_choice(OperatorKind, "operator", kind)
    target = _LAMBDA_TARGETS[kind]
    rows = []
    for nv in nv_list:
        op = build_operator(kind, nv)
        rows.append(LambdaStarRow(op.size, op.lambda_star, target))
    return rows


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    dt: float
    time: float
    error: float
    upwind_error: float | None = None
    state_gap: float | None = None


def ap_sweep(
    kind: OperatorKind,
    epsilons,
    branch: str = "diffusive",
    nx: int = 100,
    nv: int = 100,
    t_end: float = 0.1,
) -> list[SweepRow]:
    """Stability and accuracy sweep across stiffness at a fixed mesh.

    The diffusive branch runs eta = eps and reports the relative L2 error
    against the heat-kernel density at the reached time.  The transport
    branch runs eta = 1 with large eps and reports L-infinity errors of
    both the kinetic scheme and the plain upwind scheme against the exact
    transport density, plus their componentwise state gap.
    """
    if branch not in ("diffusive", "transport"):
        raise ConfigurationError(f"branch must be 'diffusive' or 'transport', got {branch!r}")
    rows: list[SweepRow] = []
    for eps in epsilons:
        eps = float(eps)
        eta = eps if branch == "diffusive" else 1.0
        scenario = Scenario(
            name=f"sweep_{branch}",
            operator=kind,
            eta=eta,
            epsilon=eps,
            sigma=1.0,
            nx=nx,
            nv=nv,
            dt=None,
            t_snapshots=(t_end,),
            reference=Reference.DIFFUSION if branch == "diffusive" else Reference.TRANSPORT,
        )
        run_ = run_scenario(scenario)
        last = len(run_.result.snapshots) - 1
        snap, ref = run_.result.snapshots[last], _reference_curves(run_)[last]
        if branch == "diffusive":
            rel = float(np.sqrt(np.mean((snap.rho - ref) ** 2) / np.mean(ref**2)))
            rows.append(SweepRow(eps, run_.params.dt, snap.time, rel))
        else:
            grid = run_.operator.grid
            f_up = initialize_state(scenario, grid).f
            for _ in range(run_.result.steps):
                f_up = upwind_transport_step(f_up, run_.params.dt, scenario.dx, eta, grid)
            rho_up = f_up.mean(axis=1)
            rows.append(
                SweepRow(
                    eps,
                    run_.params.dt,
                    snap.time,
                    float(np.abs(snap.rho - ref).max()),
                    upwind_error=float(np.abs(rho_up - ref).max()),
                    state_gap=float(np.abs(run_.result.final.f - f_up).max()),
                )
            )
    return rows


def variant_gap(scenario: Scenario, dt: float, t_end: float) -> float:
    """L-infinity density gap between the two stepping variants at t_end."""
    gaps = []
    for variant in (Variant.EXPLICIT_DIFFUSION, Variant.IMPLICIT_DIFFUSION):
        current = dataclasses.replace(
            scenario, dt=dt, variant=variant, t_snapshots=(t_end,)
        )
        run_ = run_scenario(current)
        gaps.append(run_.result.final.rho)
    return float(np.abs(gaps[0] - gaps[1]).max())
