"""Asymptotic-preserving finite-volume solver for 1D linear kinetic equations.

The model is eta df/dt + v df/dx = (sigma/eps) D f on the periodic unit
interval with a symmetric discrete-velocity collision operator D (BGK,
Fokker-Planck, or periodic scattering).  One scheme covers the free
transport, intermediate, and diffusive regimes without resolving the
collision scale; see the README for the scheme construction and the CLI.
"""

from .errors import ConfigurationError, SolverError
from .scenarios import (
    PRESETS,
    ErrorReport,
    Scenario,
    ap_sweep,
    build_operator,
    initialize_state,
    lambda_star_report,
    load_scenario,
    run_and_report,
    run_scenario,
    scheme_params,
    variant_gap,
)
from .scheme import (
    KineticState,
    RunResult,
    SchemeParams,
    Snapshot,
    Stepper,
    Variant,
    run,
)
from .velocity_space import (
    CollisionOperator,
    OperatorKind,
    ValidationReport,
    VelocityGrid,
    build_bgk,
    build_fokker_planck,
    build_grid,
    build_scattering,
    entropy_dissipation,
    validate_operator,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "SolverError",
    "PRESETS",
    "ErrorReport",
    "Scenario",
    "ap_sweep",
    "build_operator",
    "initialize_state",
    "lambda_star_report",
    "load_scenario",
    "run_and_report",
    "run_scenario",
    "scheme_params",
    "variant_gap",
    "KineticState",
    "RunResult",
    "SchemeParams",
    "Snapshot",
    "Stepper",
    "Variant",
    "run",
    "CollisionOperator",
    "OperatorKind",
    "ValidationReport",
    "VelocityGrid",
    "build_bgk",
    "build_fokker_planck",
    "build_grid",
    "build_scattering",
    "entropy_dissipation",
    "validate_operator",
]
