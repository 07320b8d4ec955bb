"""Presets, config loading, reporting, sweeps, and the CLI surface."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from ugks1d.cli import main
from ugks1d.errors import ConfigurationError, SolverError
from ugks1d.reference import make_initial_data
from ugks1d.scenarios import (
    PRESETS,
    Reference,
    Scenario,
    ap_sweep,
    build_operator,
    density_norms,
    initialize_state,
    lambda_star_report,
    load_scenario,
    read_snapshot_csv,
    run_and_report,
    run_scenario,
    scheme_params,
    variant_gap,
    write_snapshot_csv,
)
from ugks1d.scheme import Variant
from ugks1d.velocity_space import OperatorKind

TINY = dict(
    name="tiny",
    operator="bgk",
    eta=1.0,
    epsilon=1.0,
    nx=10,
    nv=4,
    dt=1e-3,
    t_snapshots=[2e-3],
)


def write_config(tmp_path, **overrides):
    payload = dict(TINY)
    payload.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return path


# ------------------------------------------------------------------- presets


def test_preset_table():
    transport = PRESETS["transport"]
    assert (transport.eta, transport.epsilon, transport.sigma) == (1.0, 100.0, 1.0)
    assert transport.reference is Reference.TRANSPORT
    intermediate = PRESETS["intermediate"]
    assert (intermediate.eta, intermediate.epsilon) == (0.1, 0.1)
    assert intermediate.reference is None
    diffusive = PRESETS["diffusive"]
    assert (diffusive.eta, diffusive.epsilon) == (1e-4, 1e-4)
    assert diffusive.t_snapshots == (0.05, 0.075, 0.1)
    assert diffusive.reference is Reference.DIFFUSION
    for preset in PRESETS.values():
        assert (preset.nx, preset.nv, preset.dt) == (100, 100, 1e-5)
        assert preset.operator is OperatorKind.BGK
        assert preset.variant is Variant.EXPLICIT_DIFFUSION
        assert preset.t_snapshots[-1] == 0.1


def test_scenario_validation():
    good = dict(
        name="x", operator=OperatorKind.BGK, eta=1.0, epsilon=1.0, sigma=1.0,
        nx=10, nv=4, dt=1e-3, t_snapshots=(0.1,),
    )
    Scenario(**good)
    for bad in (
        dict(eta=0.0),
        dict(nx=2),
        dict(nv=5),
        dict(nv=0),
        dict(dt=-1e-3),
        dict(t_snapshots=()),
        dict(t_snapshots=(0.2, 0.1)),
        dict(t_snapshots=(0.0, 0.1)),
    ):
        with pytest.raises(ConfigurationError):
            Scenario(**{**good, **bad})


def test_resolved_dt():
    scenario = Scenario(
        name="x", operator=OperatorKind.BGK, eta=0.2, epsilon=1.0, sigma=1.0,
        nx=50, nv=4, dt=None, t_snapshots=(0.1,),
    )
    np.testing.assert_allclose(scenario.resolved_dt, 0.5 * 0.02**2 + 0.5 * 0.2 * 0.02)
    assert scenario.t_end == 0.1
    fixed = Scenario(
        name="x", operator=OperatorKind.BGK, eta=0.2, epsilon=1.0, sigma=1.0,
        nx=50, nv=4, dt=7e-4, t_snapshots=(0.1,),
    )
    assert fixed.resolved_dt == 7e-4


def test_build_operator_dispatch():
    assert build_operator(OperatorKind.BGK, 10).kind is OperatorKind.BGK
    assert build_operator(OperatorKind.FOKKER_PLANCK, 10).size == 10
    assert build_operator(OperatorKind.SCATTERING_PERIODIC, 10).lambda_star < 0
    with pytest.raises(ConfigurationError, match="even"):
        build_operator(OperatorKind.BGK, 7)


# -------------------------------------------------------------- initial state


def test_initialize_state_matches_analytic_density():
    scenario = PRESETS["diffusive"]
    state = initialize_state(scenario)
    assert state.t == 0.0
    assert state.f.shape == (100, 100)
    np.testing.assert_allclose(state.rho, state.f.mean(axis=1), rtol=1e-15)
    data = make_initial_data()
    x = (np.arange(100) + 0.5) * scenario.dx
    # the midpoint velocity sum is exact here: the integrand's odd
    # derivatives vanish at both edges
    np.testing.assert_allclose(state.rho, data.rho0(x), atol=1e-12)


def test_initialize_state_is_forward_peaked():
    scenario = PRESETS["transport"]
    state = initialize_state(scenario)
    grid = build_operator(scenario.operator, scenario.nv).grid
    half = grid.half_count
    backward = state.f[:, :half].sum(axis=1) / grid.size
    assert float((backward / state.rho).max()) <= 1e-4
    assert int(state.rho.argmax()) in (49, 50)
    np.testing.assert_allclose(state.rho[49], state.rho[50], rtol=1e-14)


@pytest.mark.parametrize("kind", list(OperatorKind))
def test_initialize_state_without_a_grid_uses_the_operator_grid(kind):
    scenario = dataclasses.replace(PRESETS["diffusive"], operator=kind, nx=20, nv=10)
    op = build_operator(kind, scenario.nv)
    own = initialize_state(scenario)
    given = initialize_state(scenario, op.grid)
    np.testing.assert_array_equal(own.f, given.f)
    np.testing.assert_array_equal(own.rho, given.rho)


# ----------------------------------------------------------------- CSV files


def test_snapshot_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    x = (np.arange(17) + 0.5) / 17
    rho = 0.1 + rng.random(17)
    path = tmp_path / "plain.csv"
    write_snapshot_csv(path, x, rho)
    back = read_snapshot_csv(path)
    assert list(back) == ["x", "rho"]
    np.testing.assert_array_equal(back["x"], x)
    np.testing.assert_array_equal(back["rho"], rho)

    ref = rho + 1e-3 * rng.standard_normal(17)
    path = tmp_path / "with_ref.csv"
    write_snapshot_csv(path, x, rho, ref)
    back = read_snapshot_csv(path)
    assert list(back) == ["x", "rho", "rho_ref", "abs_err"]
    np.testing.assert_array_equal(back["rho_ref"], ref)
    np.testing.assert_array_equal(back["abs_err"], np.abs(rho - ref))


def _per_row_csv(x, rho, rho_ref=None):
    """The earlier writer's bytes: one formatted row of numpy scalars at a time."""
    if rho_ref is None:
        rows = [f"{xi:.17g},{ri:.17g}\n" for xi, ri in zip(x, rho)]
        return "x,rho\n" + "".join(rows)
    rows = [
        f"{xi:.17g},{ri:.17g},{gi:.17g},{abs(ri - gi):.17g}\n"
        for xi, ri, gi in zip(x, rho, rho_ref)
    ]
    return "x,rho,rho_ref,abs_err\n" + "".join(rows)


def test_snapshot_csv_bytes_match_per_row_format(tmp_path):
    rng = np.random.default_rng(37)
    x = (np.arange(40) + 0.5) / 40
    rho = rng.standard_normal(40)
    rho[:4] = [0.0, -0.0, 5e-324, -2.5e-310]
    ref = rho + 1e-3 * rng.standard_normal(40)
    ref[:3] = [0.0, 1e-320, -5e-324]
    for args in ((x, rho), (x, rho, ref)):
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, *args)
        assert path.read_bytes() == _per_row_csv(*args).encode()


def test_read_snapshot_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_snapshot_csv(tmp_path / "absent.csv")


# ------------------------------------------------------------- config loading


def test_load_scenario_accepts_preset_names():
    for name, preset in PRESETS.items():
        assert load_scenario(name) is preset


def test_load_scenario_from_file(tmp_path):
    path = write_config(tmp_path)
    scenario = load_scenario(path)
    assert scenario.name == "tiny"
    assert scenario.operator is OperatorKind.BGK
    assert scenario.dt == 1e-3
    assert scenario.t_snapshots == (2e-3,)
    assert scenario.sigma == 1.0  # default


def test_load_scenario_preset_inheritance(tmp_path):
    path = tmp_path / "override.json"
    path.write_text(json.dumps({"preset": "diffusive", "operator": "fp", "nx": 20}))
    scenario = load_scenario(path)
    assert scenario.operator is OperatorKind.FOKKER_PLANCK
    assert scenario.nx == 20
    assert scenario.epsilon == 1e-4
    assert scenario.t_snapshots == (0.05, 0.075, 0.1)
    assert scenario.reference is Reference.DIFFUSION


def test_load_scenario_reference_key(tmp_path):
    scenario = load_scenario(write_config(tmp_path, reference="limit-fd"))
    assert scenario.reference is Reference.LIMIT_FD
    assert run_and_report(scenario).rows[-1].l1 is not None
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"preset": "transport", "reference": None}))
    assert load_scenario(path).reference is None


def test_load_scenario_dt_auto(tmp_path):
    path = write_config(tmp_path, dt="auto")
    scenario = load_scenario(path)
    assert scenario.dt is None
    assert scenario.resolved_dt > 0


def test_load_scenario_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, cleverness=11)
    with pytest.raises(ConfigurationError, match="cleverness"):
        load_scenario(path)
    with pytest.raises(ConfigurationError, match="unknown config keys: compare_transport"):
        load_scenario(write_config(tmp_path, compare_transport=True))
    with pytest.raises(ConfigurationError, match="unknown config keys: cfl_c1"):
        load_scenario(write_config(tmp_path, cfl_c1=0.5))
    with pytest.raises(ConfigurationError, match="unknown config keys: out_dir"):
        load_scenario(write_config(tmp_path, out_dir="results"))


def test_load_scenario_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "operator": "bgk",\n  oops\n}\n')
    with pytest.raises(ConfigurationError, match="line 3"):
        load_scenario(path)


def test_load_scenario_rejects_non_object_root(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigurationError, match="object"):
        load_scenario(path)


def test_load_scenario_rejects_unknown_source():
    with pytest.raises(ConfigurationError, match="neither a preset"):
        load_scenario("no_such_preset_or_file")


def test_load_scenario_rejects_unknown_preset(tmp_path):
    path = tmp_path / "bad_preset.json"
    path.write_text(json.dumps({"preset": "ballistic"}))
    with pytest.raises(ConfigurationError, match="ballistic"):
        load_scenario(path)


def test_load_scenario_rejects_bad_field_values(tmp_path):
    with pytest.raises(ConfigurationError, match="operator"):
        load_scenario(write_config(tmp_path, operator="vlasov"))
    with pytest.raises(ConfigurationError, match="dt"):
        load_scenario(write_config(tmp_path, dt="fast"))
    with pytest.raises(ConfigurationError, match="dt"):
        load_scenario(write_config(tmp_path, dt=True))
    with pytest.raises(ConfigurationError, match="t_snapshots"):
        load_scenario(write_config(tmp_path, t_snapshots="soon"))
    with pytest.raises(ConfigurationError, match="transport, diffusion, limit-fd"):
        load_scenario(write_config(tmp_path, reference="heat"))
    with pytest.raises(ConfigurationError, match="variant"):
        load_scenario(write_config(tmp_path, variant="semi"))


def test_load_scenario_missing_required_fields(tmp_path):
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"operator": "bgk", "eta": 1.0}))
    with pytest.raises(ConfigurationError, match="missing required"):
        load_scenario(path)


# ------------------------------------------------------------------ reporting


def test_density_norms_properties():
    c = np.full(12, 0.7)
    np.testing.assert_allclose(density_norms(c), (0.7, 0.7, 0.7), rtol=1e-15)
    assert density_norms(np.zeros(5)) == (0.0, 0.0, 0.0)
    rng = np.random.default_rng(7)
    e = rng.standard_normal(40)
    l1, l2, linf = density_norms(e)
    assert l1 <= l2 <= linf


def test_run_scenario_tiny():
    scenario = load_scenario("transport")
    scenario = Scenario(
        name="quick", operator=OperatorKind.BGK, eta=scenario.eta,
        epsilon=scenario.epsilon, sigma=1.0, nx=10, nv=4, dt=1e-3,
        t_snapshots=(2e-3,),
    )
    run_ = run_scenario(scenario)
    assert run_.result.steps == 2
    assert run_.result.final.t == pytest.approx(2e-3)
    assert run_.x_centers.shape == (10,)
    params = scheme_params(scenario)
    assert params.dt == 1e-3 and params.dx == 0.1


def test_run_and_report_writes_expected_files(tmp_path):
    scenario = Scenario(
        name="demo", operator=OperatorKind.FOKKER_PLANCK, eta=1.0, epsilon=1.0,
        sigma=1.0, nx=10, nv=4, dt=1e-3, t_snapshots=(1e-3, 3e-3),
        reference=Reference.TRANSPORT,
    )
    report = run_and_report(scenario, out_dir=tmp_path)
    assert [row.time for row in report.rows] == pytest.approx([0.0, 1e-3, 3e-3])
    assert report.rows[0].l1 is None  # no reference at t = 0
    assert report.rows[1].l1 is not None
    assert report.rows[1].l1 <= report.rows[1].l2 <= report.rows[1].linf
    names = sorted(path.name for path in report.files)
    assert names == ["demo_fp_t0.001.csv", "demo_fp_t0.003.csv"]
    data = read_snapshot_csv(report.files[0])
    assert list(data) == ["x", "rho", "rho_ref", "abs_err"]
    assert any("mass drift" in line for line in report.lines())
    assert report.lines()[0] == "scenario demo operator fp"


def test_run_and_report_without_output_directory():
    scenario = Scenario(
        name="demo", operator=OperatorKind.BGK, eta=1.0, epsilon=1.0,
        sigma=1.0, nx=10, nv=4, dt=1e-3, t_snapshots=(2e-3,),
    )
    report = run_and_report(scenario)
    assert report.files == []
    assert report.rows[1].l1 is None  # no comparison flag set


def test_lambda_star_report_rows():
    rows = lambda_star_report(OperatorKind.FOKKER_PLANCK, [4, 10])
    assert [row.nv for row in rows] == [4, 10]
    for row in rows:
        assert row.target == -2.0
        np.testing.assert_allclose(row.lambda_star, -2.0, atol=1e-10)
    rows = lambda_star_report(OperatorKind.SCATTERING_PERIODIC, [10])
    assert rows[0].target == -1.5


def _diffusive_linf(eta, reference):
    """L-infinity error at t = 0.02 of a short BGK run with eps = 1e-4."""
    scenario = Scenario(
        name="kappa",
        operator=OperatorKind.BGK,
        eta=eta,
        epsilon=1e-4,
        sigma=1.0,
        nx=40,
        nv=20,
        dt=1e-5,
        t_snapshots=(0.02,),
        reference=reference,
    )
    return run_and_report(scenario).rows[-1].linf


def test_limit_fd_reference_tracks_a_diffusive_run():
    assert _diffusive_linf(1e-4, Reference.LIMIT_FD) < 1e-3  # measured 7.0e-4


@pytest.mark.parametrize("reference", [Reference.DIFFUSION, Reference.LIMIT_FD])
def test_diffusion_references_scale_kappa_by_eps_over_eta(reference):
    # at eta = eps/10 the scheme diffuses ten times faster than at eta = eps;
    # a reference that leaves out eps/eta reports 1.0e-2 here
    assert _diffusive_linf(1e-5, reference) < 2e-4  # measured 4.2e-5 and 4.5e-5


# --------------------------------------------------------------------- sweeps


def test_ap_sweep_diffusive_branch_accuracy_improves():
    rows = ap_sweep(OperatorKind.BGK, [1e-2, 1e-3], nx=50, nv=20, t_end=0.02)
    assert [row.epsilon for row in rows] == [1e-2, 1e-3]
    errors = [row.error for row in rows]
    assert all(np.isfinite(errors))
    assert errors[1] < errors[0] <= 0.05
    assert rows[0].upwind_error is None


def test_ap_sweep_transport_branch_matches_upwind():
    rows = ap_sweep(OperatorKind.BGK, [1e8], branch="transport", nx=50, nv=20, t_end=0.02)
    row = rows[0]
    assert abs(row.error - row.upwind_error) <= 1e-8
    assert row.state_gap <= 1e-6


def test_ap_sweep_rejects_unknown_branch():
    with pytest.raises(ConfigurationError, match="branch"):
        ap_sweep(OperatorKind.BGK, [1e-2], branch="ballistic")


def test_variant_gap_positive_and_small():
    scenario = Scenario(
        name="gap", operator=OperatorKind.BGK, eta=0.01, epsilon=0.01,
        sigma=1.0, nx=20, nv=10, dt=None, t_snapshots=(5e-3,),
    )
    gap = variant_gap(scenario, 1e-4, 5e-3)
    assert 0.0 < gap < 1e-2


# ------------------------------------------------------------------------ CLI


def test_cli_run_with_config(tmp_path, capsys):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert "scenario tiny operator bgk" in captured.out
    assert "mass drift" in captured.out
    assert (out_dir / "tiny_bgk_t0.002.csv").is_file()


def test_cli_run_operator_override(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["run", "--config", str(config), "--operator", "fp"])
    assert code == 0
    assert "operator fp" in capsys.readouterr().out


def test_cli_validate_operator(capsys):
    code = main(["validate-operator", "--operator", "fp", "--nv", "20"])
    captured = capsys.readouterr()
    assert code == 0
    assert "operator-valid" in captured.out
    assert "lambda_star = -2" in captured.out


def test_cli_validate_operator_failure_path(monkeypatch, capsys):
    import ugks1d.cli as cli
    from ugks1d.velocity_space import ValidationReport

    failing = ValidationReport({"symmetric": False, "irreducible": True})
    monkeypatch.setattr(cli, "validate_operator", lambda matrix: failing)
    code = main(["validate-operator", "--operator", "bgk", "--nv", "4"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err.startswith("validation-failed:")


def test_cli_lambda_star_table(capsys):
    code = main(["lambda-star", "--operator", "sc", "--nv", "10", "20"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert len(lines) == 3
    assert "-1.5" in lines[0] or "-1.5" in captured.out


def test_cli_ap_sweep(capsys):
    code = main([
        "ap-sweep", "--epsilons", "1e-2", "--nx", "10", "--nv", "4",
        "--t-end", "1e-3",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "epsilon" in captured.out


def test_cli_compare_variants(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main([
        "compare-variants", "--config", str(config), "--dt", "1e-3",
        "--t-end", "2e-3",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "refinement ratio" in captured.out


def test_cli_config_error_exit_code(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "no_such.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config-error:")


def test_cli_io_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("занято")
    code = main(["run", "--config", str(config), "--out-dir", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("io-error:")


def test_cli_blow_up_exits_3_without_csv(tmp_path, capsys):
    # dt = 1e-3 is far beyond the diffusive preset's stability limit: the
    # mass drifts beyond round-off within a few steps, while f is finite
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"preset": "diffusive", "dt": 1e-3}))
    out = tmp_path / "out"
    out.mkdir()
    code = main(["run", "--config", str(config), "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("solver-error:")
    assert list(out.iterdir()) == []


def test_blow_up_stops_before_the_only_snapshot(tmp_path):
    # "dt": "auto" ignores eps/eta, so this run is unstable from its first
    # step; its one snapshot is its last step, and the periodic mass check
    # must stop it before then
    config = tmp_path / "unstable.json"
    config.write_text(json.dumps({
        "operator": "bgk", "eta": 1e-3, "epsilon": 1.0, "nx": 20, "nv": 20,
        "dt": "auto", "t_snapshots": [0.01],
    }))
    scenario = load_scenario(config)
    n_steps = math.ceil(scenario.t_end / scenario.resolved_dt)
    with pytest.raises(SolverError, match="blow-up at step") as info:
        run_scenario(scenario)
    step = int(re.search(r"step (\d+),", str(info.value)).group(1))
    assert step < n_steps
    # a far longer horizon stops at the same step, before anything overflows
    longer = dataclasses.replace(scenario, t_snapshots=(1.0,))
    with np.errstate(over="raise", invalid="raise"), pytest.raises(
        SolverError, match=f"blow-up at step {step},"
    ):
        run_scenario(longer)


def test_cli_solver_and_internal_error_exit_codes(monkeypatch, capsys):
    import ugks1d.cli as cli

    monkeypatch.setattr(
        cli, "run_and_report", lambda s, out_dir: (_ for _ in ()).throw(SolverError("boom"))
    )
    assert main(["run", "--preset", "transport"]) == 3
    assert capsys.readouterr().err.startswith("solver-error:")

    monkeypatch.setattr(
        cli, "run_and_report", lambda s, out_dir: (_ for _ in ()).throw(ValueError("odd"))
    )
    assert main(["run", "--preset", "transport"]) == 1
    assert capsys.readouterr().err.startswith("internal-error:")


def test_cli_rejects_unknown_operator_choice(capsys):
    with pytest.raises(SystemExit) as info:
        main(["validate-operator", "--operator", "vlasov"])
    assert info.value.code == 2
