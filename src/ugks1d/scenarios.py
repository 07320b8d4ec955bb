"""Regime presets, configuration files, reporting, and sweep harnesses.

A Scenario bundles everything one run needs: collision operator kind,
physical parameters (eta, epsilon, sigma), mesh sizes, time step (fixed
or from the stability law 0.5 dx^2 + 0.5 eta dx), snapshot times, stepping
variant, and which analytic reference to compare against.  Three presets
cover the canonical regimes on the unit torus with N_x = N_v = 100,
sigma = 1 and dt = 1e-5:

* ``transport``    eta = 1,    eps = 100   (collisions negligible)
* ``intermediate`` eta = 0.1,  eps = 0.1
* ``diffusive``    eta = 1e-4, eps = 1e-4  (near the heat-equation limit)
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .reference import (
    exact_diffusion_density,
    limit_diffusion_step,
    make_initial_data,
    transport_density,
    upwind_transport_step,
)
from .scheme import (
    KineticState,
    RunResult,
    SchemeParams,
    Variant,
    default_time_step,
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


@dataclass(frozen=True)
class Scenario:
    name: str
    operator: OperatorKind
    eta: float
    epsilon: float
    sigma: float
    nx: int
    nv: int
    dt: float | None  # None means the stability law decides
    t_snapshots: tuple[float, ...]
    variant: Variant = Variant.EXPLICIT_DIFFUSION
    reference: Reference | None = None

    def __post_init__(self):
        for field in ("eta", "epsilon", "sigma"):
            if not getattr(self, field) > 0:
                raise ConfigurationError(f"{field} must be positive")
        if self.nx < 3:
            raise ConfigurationError(f"nx must be at least 3, got {self.nx}")
        if self.nv < 2 or self.nv % 2:
            raise ConfigurationError(f"nv must be even and >= 2, got {self.nv}")
        if self.dt is not None and not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not self.t_snapshots:
            raise ConfigurationError("at least one snapshot time is required")
        times = self.t_snapshots
        if any(t <= 0 for t in times) or any(a >= b for a, b in zip(times, times[1:])):
            raise ConfigurationError("snapshot times must be positive and strictly increasing")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def resolved_dt(self) -> float:
        if self.dt is not None:
            return self.dt
        return default_time_step(self.dx, self.eta)

    @property
    def t_end(self) -> float:
        return self.t_snapshots[-1]


PRESETS: dict[str, Scenario] = {
    "transport": Scenario(
        name="transport",
        operator=OperatorKind.BGK,
        eta=1.0,
        epsilon=100.0,
        sigma=1.0,
        nx=100,
        nv=100,
        dt=1e-5,
        t_snapshots=(0.05, 0.1),
        reference=Reference.TRANSPORT,
    ),
    "intermediate": Scenario(
        name="intermediate",
        operator=OperatorKind.BGK,
        eta=0.1,
        epsilon=0.1,
        sigma=1.0,
        nx=100,
        nv=100,
        dt=1e-5,
        t_snapshots=(0.05, 0.1),
    ),
    "diffusive": Scenario(
        name="diffusive",
        operator=OperatorKind.BGK,
        eta=1e-4,
        epsilon=1e-4,
        sigma=1.0,
        nx=100,
        nv=100,
        dt=1e-5,
        t_snapshots=(0.05, 0.075, 0.1),
        reference=Reference.DIFFUSION,
    ),
}

_CONFIG_FIELDS = {
    "name": str,
    "operator": OperatorKind,
    "eta": float,
    "epsilon": float,
    "sigma": float,
    "nx": int,
    "nv": int,
    "dt": None,  # number or the string "auto"
    "t_snapshots": None,
    "variant": Variant,
    "reference": Reference,  # or null for none
}


def _parse_choice(kind: enum.EnumMeta, key: str, value) -> enum.Enum:
    try:
        return kind(value)
    except ValueError:
        choices = ", ".join(member.value for member in kind)
        raise ConfigurationError(f"unknown {key} {value!r}; choose one of {choices}") from None


def load_scenario(source: str | Path) -> Scenario:
    """Resolve a preset name or a flat JSON config file into a Scenario.

    A config may set ``"preset"`` to inherit one of the presets and then
    override individual fields; unknown keys are rejected by name.
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
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: config root must be a JSON object")

    base_name = raw.pop("preset", None)
    if base_name is not None:
        if base_name not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigurationError(f"{path}: unknown preset {base_name!r}; choose one of {known}")
        fields = dataclasses.asdict(PRESETS[base_name])
    else:
        fields = {
            "name": path.stem,
            "sigma": 1.0,
            "dt": None,
            "t_snapshots": (0.1,),
        }

    unknown = sorted(set(raw) - set(_CONFIG_FIELDS))
    if unknown:
        raise ConfigurationError(f"{path}: unknown config keys: {', '.join(unknown)}")

    for key, value in raw.items():
        expected = _CONFIG_FIELDS[key]
        if key == "reference" and value is None:
            fields[key] = None
        elif isinstance(expected, enum.EnumMeta):
            fields[key] = _parse_choice(expected, key, value)
        elif key == "dt":
            if value == "auto":
                fields[key] = None
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                fields[key] = float(value)
            else:
                raise ConfigurationError(f"{path}: dt must be a number or \"auto\", got {value!r}")
        elif key == "t_snapshots":
            if not isinstance(value, list) or not all(
                isinstance(t, (int, float)) and not isinstance(t, bool) for t in value
            ):
                raise ConfigurationError(f"{path}: t_snapshots must be a list of numbers")
            fields[key] = tuple(float(t) for t in value)
        else:
            try:
                fields[key] = expected(value)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"{path}: field {key} expects {expected.__name__}, got {value!r}"
                ) from None

    missing = [
        k
        for k in ("operator", "eta", "epsilon", "nx", "nv")
        if k not in fields or fields[k] is None
    ]
    if missing:
        raise ConfigurationError(f"{path}: missing required fields: {', '.join(missing)}")
    return Scenario(**fields)


def build_operator(kind: OperatorKind, nv: int) -> CollisionOperator:
    if nv < 2 or nv % 2:
        raise ConfigurationError(f"nv must be even and >= 2, got {nv}")
    grid = build_grid(nv // 2)
    if kind is OperatorKind.BGK:
        return build_bgk(grid)
    if kind is OperatorKind.FOKKER_PLANCK:
        return build_fokker_planck(grid)
    return build_scattering(grid)


def initialize_state(scenario: Scenario, grid: VelocityGrid | None = None) -> KineticState:
    """Sample f0 at cell centers x_i = (i - 1/2) dx on the given grid."""
    if grid is None:
        grid = build_grid(scenario.nv // 2)
    data = make_initial_data()
    x = (np.arange(scenario.nx) + 0.5) * scenario.dx
    f = data.f0(x[:, None], grid.velocities[None, :])
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
        return (np.arange(self.scenario.nx) + 0.5) * self.scenario.dx


def run_scenario(scenario: Scenario) -> ScenarioRun:
    op = build_operator(scenario.operator, scenario.nv)
    params = scheme_params(scenario)
    state = initialize_state(scenario, op.grid)
    result = run(
        state,
        params,
        op,
        op.grid,
        t_end=scenario.t_end,
        snapshot_times=scenario.t_snapshots,
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
    time: float
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
            piece = f"  t={row.time:<8g} mass={row.mass:.12e}"
            if row.l1 is not None:
                piece += f" L1={row.l1:.3e} L2={row.l2:.3e} Linf={row.linf:.3e}"
            out.append(piece)
        out.append(
            f"  mass drift (relative) = {self.mass_drift:.3e};"
            f" {self.seconds_per_step * 1e3:.3f} ms/step"
        )
        return out


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
    rows: list[SnapshotReport] = []
    files: list[Path] = []
    directory: Path | None = None
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
    for idx, snap in enumerate(run_.result.snapshots):
        ref = refs.get(idx)
        if ref is not None:
            l1, l2, linf = density_norms(snap.rho - ref)
            rows.append(SnapshotReport(snap.time, snap.mass, l1, l2, linf))
        else:
            rows.append(SnapshotReport(snap.time, snap.mass))
        if directory is not None and idx > 0:
            name = f"{scenario.name}_{scenario.operator.value}_t{snap.time:g}.csv"
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
    """lambda_star per velocity resolution with the continuum target."""
    target = _LAMBDA_TARGETS[kind]
    rows = []
    for nv in nv_list:
        op = build_operator(kind, int(nv))
        rows.append(LambdaStarRow(int(nv), op.lambda_star, target))
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
