"""Command-line entry points.

Subcommands
-----------
run                advance a scenario, print error norms, write snapshot CSVs
validate-operator  the operator contract's six checks, irreducibility and lambda*
lambda-star        pseudo-eigenvalue table across velocity resolutions
ap-sweep           stability/accuracy sweep across stiffness
compare-variants   explicit vs implicit-diffusion gap and its dt-refinement ratio

Exit codes: 0 success, 1 internal error, 2 configuration error,
3 solver failure, 4 I/O failure, 5 validation failed.  Each failure
prints one "<category>: <message>" line on stderr.  An operator meets
its contract when it is built, so ``validate-operator`` can fail only on
irreducibility.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigurationError, SolverError
from .scenarios import (
    PRESETS,
    ap_sweep,
    build_operator,
    lambda_star_report,
    load_scenario,
    run_and_report,
    variant_gap,
)
from .scheme import Variant
from .velocity_space import OperatorKind, validate_operator

_OPERATOR_CHOICES = [kind.value for kind in OperatorKind]
_VARIANT_CHOICES = [variant.value for variant in Variant]


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESETS), help="built-in regime")
    group.add_argument("--config", help="path to a flat JSON scenario file")


def _resolve_scenario(args):
    scenario = load_scenario(args.preset if args.preset else args.config)
    # argparse's value strings, as given: Scenario checks them
    overrides = {k: getattr(args, k) for k in ("operator", "variant") if getattr(args, k, None)}
    return dataclasses.replace(scenario, **overrides)


def _cmd_run(args) -> int:
    scenario = _resolve_scenario(args)
    report = run_and_report(scenario, args.out_dir)
    for line in report.lines():
        print(line)
    for path in report.files:
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    op = build_operator(args.operator, args.nv)
    report = validate_operator(op)
    for line in report.lines():
        print(line)
    print(f"lambda_star = {op.lambda_star:.12g}")
    if report.passed:
        print("operator-valid")
        return 0
    print("validation-failed: structural checks failed", file=sys.stderr)
    return 5


def _cmd_lambda_star(args) -> int:
    rows = lambda_star_report(args.operator, args.nv)
    print(f"{'nv':>6} {'lambda_star':>20} {'continuum target':>18}")
    for row in rows:
        print(f"{row.nv:>6} {row.lambda_star:>20.12f} {row.target:>18.6g}")
    return 0


def _cmd_ap_sweep(args) -> int:
    rows = ap_sweep(
        args.operator,
        args.epsilons,
        branch=args.branch,
        nx=args.nx,
        nv=args.nv,
        t_end=args.t_end,
    )
    header = f"{'epsilon':>12} {'dt':>12} {'t':>8} {'error':>12}"
    if args.branch == "transport":
        header += f" {'upwind err':>12} {'state gap':>12}"
    print(header)
    for row in rows:
        line = f"{row.epsilon:>12.3e} {row.dt:>12.3e} {row.time:>8.4f} {row.error:>12.4e}"
        if row.upwind_error is not None:
            line += f" {row.upwind_error:>12.4e} {row.state_gap:>12.4e}"
        print(line)
    return 0


def _cmd_compare_variants(args) -> int:
    scenario = _resolve_scenario(args)
    dt = args.dt if args.dt is not None else scenario.resolved_dt
    t_end = args.t_end if args.t_end is not None else scenario.t_snapshots[0]
    coarse = variant_gap(scenario, dt, t_end)
    fine = variant_gap(scenario, dt / 2.0, t_end)
    ratio = coarse / fine if fine > 0 else float("inf")
    print(f"Linf(explicit - implicit) at t={t_end:g}:")
    print(f"  dt={dt:.3e}: {coarse:.6e}")
    print(f"  dt={dt / 2.0:.3e}: {fine:.6e}")
    print(f"  refinement ratio: {ratio:.3f} (first order in dt gives about 2)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ugks1d",
        description="Asymptotic-preserving finite-volume solver for 1D linear "
        "kinetic equations on the periodic unit interval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write snapshot CSVs")
    _add_source_flags(run_p)
    run_p.add_argument("--operator", choices=_OPERATOR_CHOICES, help="override the operator")
    run_p.add_argument("--variant", choices=_VARIANT_CHOICES, help="override the variant")
    run_p.add_argument("--out-dir", help="directory for snapshot CSV files")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate-operator", help="check collision-operator structure")
    val_p.add_argument("--operator", choices=_OPERATOR_CHOICES, required=True)
    val_p.add_argument("--nv", type=int, default=100, help="number of velocities (even)")
    val_p.set_defaults(func=_cmd_validate)

    lam_p = sub.add_parser("lambda-star", help="pseudo-eigenvalue table")
    lam_p.add_argument("--operator", choices=_OPERATOR_CHOICES, required=True)
    lam_p.add_argument(
        "--nv", type=int, nargs="+", default=[4, 10, 50, 100, 200, 400],
        help="velocity resolutions to tabulate",
    )
    lam_p.set_defaults(func=_cmd_lambda_star)

    sweep_p = sub.add_parser("ap-sweep", help="stiffness sweep at fixed mesh")
    sweep_p.add_argument("--operator", choices=_OPERATOR_CHOICES, default="bgk")
    sweep_p.add_argument("--branch", choices=["diffusive", "transport"], default="diffusive")
    sweep_p.add_argument(
        "--epsilons", type=float, nargs="+", default=[1e-2, 1e-3, 1e-4, 1e-5],
    )
    sweep_p.add_argument("--nx", type=int, default=100)
    sweep_p.add_argument("--nv", type=int, default=100)
    sweep_p.add_argument("--t-end", type=float, default=0.1)
    sweep_p.set_defaults(func=_cmd_ap_sweep)

    cmp_p = sub.add_parser(
        "compare-variants", help="explicit vs implicit-diffusion refinement study"
    )
    _add_source_flags(cmp_p)
    cmp_p.add_argument("--operator", choices=_OPERATOR_CHOICES, help="override the operator")
    cmp_p.add_argument("--dt", type=float, help="coarse time step (default: scenario dt)")
    cmp_p.add_argument("--t-end", type=float, help="comparison time (default: first snapshot)")
    cmp_p.set_defaults(func=_cmd_compare_variants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver-error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
