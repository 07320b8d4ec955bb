"""Asymptotic-preserving finite-volume solver for 1D linear kinetic equations.

The model is eta df/dt + v df/dx = (sigma/eps) D f on the periodic unit
interval with a symmetric discrete-velocity collision operator D (BGK,
Fokker-Planck, or periodic scattering).  One scheme covers the free
transport, intermediate, and diffusive regimes without resolving the
collision scale; see the README for the scheme construction and the CLI.
"""

from .errors import ConfigurationError, SolverError
from .reference import (
    InitialData,
    chapman_enskog_residual,
    exact_diffusion_density,
    exact_transport,
    make_initial_data,
    transport_density,
)
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
    FluxCoefficients,
    KineticState,
    RunResult,
    SchemeParams,
    Snapshot,
    Stepper,
    Variant,
    flux_coefficients,
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
    "InitialData",
    "chapman_enskog_residual",
    "exact_diffusion_density",
    "exact_transport",
    "make_initial_data",
    "transport_density",
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
    "FluxCoefficients",
    "KineticState",
    "RunResult",
    "SchemeParams",
    "Snapshot",
    "Stepper",
    "Variant",
    "flux_coefficients",
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
