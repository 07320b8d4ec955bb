"""Presets, config loading, reporting, sweeps, and the CLI surface."""

import dataclasses
import errno
import json
import math
import os
import re
import shlex
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import f0
from ugks1d.cli import build_parser, main
from ugks1d.errors import ConfigurationError, SolverError
from ugks1d.reference import AMPLITUDE, exact_diffusion_density, space_profile, velocity_profile
from ugks1d.scenarios import (
    PRESETS,
    Reference,
    Scenario,
    _reference_curves,
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
from ugks1d.scheme import Stepper, Variant
from ugks1d.velocity_space import (
    OperatorKind,
    build_bgk,
    build_fokker_planck,
    build_grid,
    build_scattering,
)

NAMED_BUILDERS = {
    OperatorKind.BGK: build_bgk,
    OperatorKind.FOKKER_PLANCK: build_fokker_planck,
    OperatorKind.SCATTERING_PERIODIC: build_scattering,
}

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


def assert_every_door_rejects(tmp_path, match, **bad):
    """The bad value gives one ConfigurationError text through Scenario(...),
    dataclasses.replace of a preset and a JSON config alike."""
    texts = set()
    for build in (
        lambda: Scenario(**{**TINY, "sigma": 1.0, **bad}),
        lambda: dataclasses.replace(PRESETS["diffusive"], **bad),
        lambda: load_scenario(write_config(tmp_path, **bad)),
    ):
        with pytest.raises(ConfigurationError, match=match) as info:
            build()
        texts.add(str(info.value))
    assert len(texts) == 1, texts


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


def test_scenario_validation(tmp_path):
    good = dict(
        name="x", operator=OperatorKind.BGK, eta=1.0, epsilon=1.0, sigma=1.0,
        nx=10, nv=4, dt=1e-3, t_snapshots=(0.1,),
    )
    Scenario(**good)
    Scenario(**{**good, "nx": 2**53, "nv": 2**53})  # the largest exact float counts
    for bad in (
        dict(eta=0.0),
        dict(nx=2),
        dict(nx=2**53 + 1),
        dict(nv=5),
        dict(nv=0),
        dict(nv=2**53 + 2),
        dict(dt=-1e-3),
        dict(t_snapshots=()),
        dict(t_snapshots=(0.2, 0.1)),
        dict(t_snapshots=(0.0, 0.1)),
    ):
        assert_every_door_rejects(tmp_path, None, **bad)
    # the counts are integers: numpy's pass, and a float, a bool or a string does not
    Scenario(**{**good, "nx": np.int64(10), "nv": np.int32(4)})
    for field, value in (("nx", 10.7), ("nx", 10.0), ("nv", 4.0), ("nx", True), ("nv", "4")):
        message = f"^{field} expects int, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigurationError, match=message):
            Scenario(**{**good, field: value})
        with pytest.raises(ConfigurationError, match=message):
            dataclasses.replace(PRESETS["diffusive"], **{field: value})
    with pytest.raises(ConfigurationError, match="nx expects int, got 50.5"):
        dataclasses.replace(PRESETS["diffusive"], nx=50.5)


def test_scenario_checks_the_step_count_when_built(tmp_path):
    # run() took this far: the bound fails when the config loads, not when it runs
    assert_every_door_rejects(
        tmp_path, r"^t_end / dt = 9.99+e\+299 is not a step count of at most 2\*\*53$",
        dt=1e-300, t_snapshots=(1.0,),
    )
    largest = dataclasses.replace(PRESETS["diffusive"], dt=1.0, t_snapshots=(2.0**53,))
    assert largest.snapshot_steps == {2**53: 2.0**53}


def test_scenario_stores_members_floats_and_a_tuple():
    scenario = Scenario(
        name="x", operator="fp", eta=1, epsilon=np.float32(0.5), sigma=2, nx=10, nv=4,
        dt=None, t_snapshots=[0.1, np.float64(0.2)], variant="implicit", reference="limit-fd",
    )
    assert scenario.operator is OperatorKind.FOKKER_PLANCK
    assert scenario.variant is Variant.IMPLICIT_DIFFUSION
    assert scenario.reference is Reference.LIMIT_FD
    assert [type(getattr(scenario, f)) for f in ("eta", "epsilon", "sigma")] == [float] * 3
    assert scenario.t_snapshots == (0.1, 0.2) and type(scenario.t_snapshots[1]) is float
    hash(scenario)  # a list left in t_snapshots would raise TypeError here


def test_value_strings_run_what_they_name():
    # these spellings once built the scattering operator for "bgk", ran the
    # implicit variant for "explicit" and compared "transport" against nothing
    common = dict(name="spell", eta=1.0, epsilon=1.0, sigma=1.0, nx=10, nv=4, dt=1e-3,
                  t_snapshots=(1e-3, 2e-3))
    for kind in OperatorKind:
        for variant in Variant:
            by_member = Scenario(operator=kind, variant=variant, reference=Reference.TRANSPORT,
                                 **common)
            by_string = Scenario(operator=kind.value, variant=variant.value,
                                 reference="transport", **common)
            assert by_string == by_member
            string_report, member_report = run_and_report(by_string), run_and_report(by_member)
            string_run = string_report.run
            named = NAMED_BUILDERS[kind](build_grid(2)).matrix
            assert np.array_equal(string_run.operator.matrix, named)
            assert string_run.params.variant is variant
            a, b = member_report.run.result.final, string_run.result.final
            assert a.f.tobytes() == b.f.tobytes() and a.rho.tobytes() == b.rho.tobytes()
            rows = string_report.rows
            assert rows == member_report.rows
            assert rows[-1].l1 is not None


def test_resolved_dt():
    scenario = Scenario(
        name="x", operator=OperatorKind.BGK, eta=0.2, epsilon=1.0, sigma=1.0,
        nx=50, nv=4, dt=None, t_snapshots=(0.1,),
    )
    np.testing.assert_allclose(scenario.resolved_dt, 0.5 * 0.02**2 + 0.5 * 0.2 * 0.02)
    assert scenario.snapshot_steps == {46: 0.1}  # 0.1 / 0.0022 = 45.5 steps
    fixed = Scenario(
        name="x", operator=OperatorKind.BGK, eta=0.2, epsilon=1.0, sigma=1.0,
        nx=50, nv=4, dt=7e-4, t_snapshots=(0.1,),
    )
    assert fixed.resolved_dt == 7e-4
    assert fixed.snapshot_steps == {143: 0.1}


def test_build_operator_dispatch():
    for kind, builder in NAMED_BUILDERS.items():
        assert np.array_equal(build_operator(kind, 10).matrix, builder(build_grid(5)).matrix)
    assert build_operator(OperatorKind.FOKKER_PLANCK, 10).size == 10
    assert build_operator(OperatorKind.SCATTERING_PERIODIC, 10).lambda_star < 0
    with pytest.raises(ConfigurationError, match="even"):
        build_operator(OperatorKind.BGK, 7)
    # not a member nor its value, so no fall-through to the last builder
    for kind in ("xx", None, "SC"):
        with pytest.raises(ConfigurationError, match=f"^unknown operator {kind!r}; choose one of"):
            build_operator(kind, 10)


@pytest.mark.parametrize("kind", list(OperatorKind))
def test_build_operator_takes_the_value_string_by_the_choice_rule(kind):
    by_value, by_member = build_operator(kind.value, 10), build_operator(kind, 10)
    assert np.array_equal(by_value.matrix, by_member.matrix)
    assert np.array_equal(by_value.u_vector, by_member.u_vector)
    assert by_value.lambda_star == by_member.lambda_star
    message = "^unknown operator 'xx'; choose one of bgk, fp, sc$"
    with pytest.raises(ConfigurationError, match=message):
        build_operator("xx", 10)


def test_build_operator_takes_an_integer_count():
    # 4.0 raised a bare TypeError from build_grid's floor division
    with pytest.raises(ConfigurationError, match="^nv expects int, got 4.0$"):
        build_operator(OperatorKind.BGK, 4.0)
    assert build_operator(OperatorKind.BGK, np.int64(4)).size == 4


# -------------------------------------------------------------- initial state


def test_initialize_state_matches_analytic_density():
    scenario = PRESETS["diffusive"]
    state = initialize_state(scenario, build_grid(scenario.nv // 2))
    assert state.f.shape == (100, 100)
    np.testing.assert_allclose(state.rho, state.f.mean(axis=1), rtol=1e-15)
    x = (np.arange(100) + 0.5) * scenario.dx
    # the midpoint velocity sum is exact here: the integrand's odd
    # derivatives vanish at both edges
    np.testing.assert_allclose(state.rho, AMPLITUDE * np.exp(-((x - 0.5) ** 2)), atol=1e-12)


def test_initialize_state_is_forward_peaked():
    scenario = PRESETS["transport"]
    grid = build_operator(scenario.operator, scenario.nv).grid
    state = initialize_state(scenario, grid)
    half = grid.half_count
    backward = state.f[:, :half].sum(axis=1) / grid.size
    assert float((backward / state.rho).max()) <= 1e-4
    assert int(state.rho.argmax()) in (49, 50)
    np.testing.assert_allclose(state.rho[49], state.rho[50], rtol=1e-14)


@pytest.mark.parametrize("nx, nv", [(3, 2), (100, 100), (1000, 200)])
def test_initialize_state_samples_f0_velocity_major(nx, nv):
    # the outer product of the two exponentials against the joint one:
    # a few ulps apart (3.8e-15 at worst at 1000 x 200)
    scenario = dataclasses.replace(PRESETS["transport"], nx=nx, nv=nv)
    grid = build_operator(scenario.operator, nv).grid
    state = initialize_state(scenario, grid)
    x = (np.arange(nx) + 0.5) * scenario.dx
    expected = f0(x[:, None], grid.velocities[None, :])
    np.testing.assert_allclose(state.f, expected, rtol=1e-14, atol=0)
    # the rank-one update makes the same products as the outer product
    outer = np.outer(velocity_profile(grid.velocities), space_profile(x - 0.5)).T
    np.testing.assert_array_equal(state.f, outer, strict=True)
    assert state.f.flags.f_contiguous
    # rho from the two profiles, with no pass over f: f's velocity mean to round-off
    velocity_mean = velocity_profile(grid.velocities).mean()
    np.testing.assert_array_equal(state.rho, space_profile(x - 0.5) * velocity_mean, strict=True)
    assert np.abs(state.f.mean(axis=1) - state.rho).max() <= 1e-15 * np.abs(state.rho).max()


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
    assert_every_door_rejects(tmp_path, "operator", operator="vlasov")
    assert_every_door_rejects(tmp_path, "dt", dt="fast")
    assert_every_door_rejects(tmp_path, "dt", dt=True)
    assert_every_door_rejects(tmp_path, "t_snapshots", t_snapshots="soon")
    assert_every_door_rejects(tmp_path, "transport, diffusion, limit-fd", reference="heat")
    assert_every_door_rejects(tmp_path, "variant", variant="semi")
    # typed fields take numbers as they are: no truncation, no bool, no string
    assert_every_door_rejects(tmp_path, "nx expects int, got 10.7", nx=10.7)
    assert_every_door_rejects(tmp_path, "nx expects int, got True", nx=True)
    assert_every_door_rejects(tmp_path, "nv expects int, got '4'", nv="4")
    assert_every_door_rejects(tmp_path, "eta expects float, got '1'", eta="1")
    assert_every_door_rejects(tmp_path, "sigma expects float, got False", sigma=False)
    assert_every_door_rejects(tmp_path, "name expects str, got 3", name=3)
    assert_every_door_rejects(tmp_path, "snapshot time expects float", t_snapshots=[0.1, "0.2"])


def test_load_scenario_takes_integral_numbers_for_counts(tmp_path):
    scenario = load_scenario(write_config(tmp_path, nx=10.0, nv=4.0, eta=1))
    assert (scenario.nx, scenario.nv) == (10, 4)
    assert type(scenario.nx) is int and type(scenario.nv) is int
    assert type(scenario.eta) is float


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["eta", "epsilon", "sigma", "dt", "t_snapshots"])
def test_scenario_rejects_non_finite_numbers(tmp_path, field, value):
    bad = {field: (0.05, value) if field == "t_snapshots" else value}
    assert_every_door_rejects(tmp_path, "must be positive and finite", **bad)


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
    assert run_.result.snapshots[-1].time == 2 * 1e-3
    assert run_.scenario.x_centers.shape == (10,)
    params = scheme_params(scenario)
    assert params.dt == 1e-3 and params.dx == 0.1


def test_run_scenario_holds_no_state_beyond_the_steps_own():
    # at 1000 x 200 a step holds its entry state, its output and the stored
    # upwind scale; the entry state of the run is not kept past its first step
    scenario = dataclasses.replace(
        PRESETS["transport"], nx=1000, nv=200, t_snapshots=(5e-5,), reference=None
    )
    state_bytes = scenario.nx * scenario.nv * 8
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        run_ = run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run_.result.steps == 5
    assert peak - entry <= 3 * state_bytes + 2**19


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


def test_run_and_report_keeps_the_run_it_made():
    scenario = Scenario(
        name="kept", operator=OperatorKind.SCATTERING_PERIODIC, eta=1.0, epsilon=1.0,
        sigma=1.0, nx=10, nv=4, dt=1e-3, t_snapshots=(1e-3, 3e-3),
        reference=Reference.TRANSPORT,
    )
    report = run_and_report(scenario)
    assert [field.name for field in dataclasses.fields(report)] == ["run", "rows", "files"]
    assert report.run.scenario is scenario
    kept, fresh = report.run.result.final, run_scenario(scenario).result.final
    assert kept.f.tobytes() == fresh.f.tobytes() and kept.rho.tobytes() == fresh.rho.tobytes()
    snapshots = report.run.result.snapshots
    assert [row.mass for row in report.rows] == [snap.mass for snap in snapshots]
    drift = report.run.result.mass_drift
    assert report.lines()[-1].startswith(f"  mass drift (relative) = {drift:.3e};")


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


@pytest.mark.parametrize("nv", [4, 6, 8, 100, 800])
def test_lambda_star_report_gives_the_rational_scattering_value(nv):
    # lambda_star(N) = -(24 - 6/N^2) / (16 + 40/N^2 - 11/N^4), correctly rounded
    n2 = Fraction((nv // 2) ** 2)
    exact = -(24 - 6 / n2) / (16 + 40 / n2 - 11 / n2**2)
    (row,) = lambda_star_report("sc", [nv])
    assert (row.nv, row.lambda_star, row.target) == (nv, float(exact), -1.5)


def test_lambda_star_report_takes_the_value_string():
    assert lambda_star_report("fp", [4]) == lambda_star_report(OperatorKind.FOKKER_PLANCK, [4])
    # the kind is checked before the loop: an empty list returned [] for 'xx'
    for nv_list in ([], [4]):
        with pytest.raises(ConfigurationError, match="unknown operator 'xx'"):
            lambda_star_report("xx", nv_list)


@pytest.mark.parametrize("nv, text", [(4.7, "4.7"), ("6", "'6'")])
def test_lambda_star_report_rejects_a_count_that_is_not_an_integer(nv, text):
    # each was coerced: [4.7, "6"] reported rows for nv = 4 and nv = 6
    with pytest.raises(ConfigurationError, match=f"^nv expects int, got {text}$"):
        lambda_star_report("bgk", [nv])
    assert [row.nv for row in lambda_star_report("bgk", [np.int64(6)])] == [6]


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


@pytest.mark.parametrize("variant", list(Variant))
def test_a_snapshot_and_its_reference_are_at_step_count_times_dt(variant):
    # 500 steps of 1e-5 summed one by one reach 0.0049999999999999645, where
    # the heat kernel was taken while the report row read 0.005
    scenario = dataclasses.replace(
        PRESETS["diffusive"], nx=20, nv=8, t_snapshots=(500 * 1e-5,), variant=variant
    )
    run_ = run_scenario(scenario)
    last = run_.result.snapshots[-1]
    assert (last.step, last.time) == (500, 500 * 1e-5)
    kappa = (scenario.epsilon / scenario.eta) / (3.0 * abs(run_.operator.lambda_star))
    expected = exact_diffusion_density(500 * 1e-5, scenario.x_centers, kappa)
    assert np.array_equal(_reference_curves(run_)[1], expected)


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


def test_cli_run_writes_every_snapshot_of_a_long_run(tmp_path, capsys):
    # after 304 steps of 0.7 the summed time falls short of 212.8 by more than
    # 1e-12; both snapshots still come from the step-count rule
    config = write_config(
        tmp_path, name="late", eta=10.0, nx=3, nv=2, dt=0.7, t_snapshots=[212.8, 213.5]
    )
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    assert re.findall(r"^  t=(\S+)", capsys.readouterr().out, flags=re.M) == ["0", "212.8", "213.5"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["late_bgk_t212.8.csv", "late_bgk_t213.5.csv"]


def test_cli_run_names_each_snapshot_by_its_requested_time(tmp_path, capsys):
    # two times alike to six digits, served by steps 1 and 2.  Named by the
    # reached time's {:g}, dt = 0.2 and times 100000.2, 100000.4 printed two
    # "t=100000" rows and wrote one CSV, in 500,002 steps; this takes two
    config = tmp_path / "found.json"
    config.write_text(json.dumps({
        "operator": "bgk", "eta": 1e6, "epsilon": 1.0, "nx": 3, "nv": 2, "dt": 100000.25,
        "t_snapshots": [100000.1, 100000.4],
    }))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^  t=(\S+)", out, flags=re.M) == ["0", "100000.1", "100000.4"]
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["found_bgk_t100000.1.csv", "found_bgk_t100000.4.csv"]


# the name is one component of each CSV's file name.  The first two ran every
# step, then failed to write (exit 4) or exited 1 on the NUL; the last exited
# 0 and wrote its CSV beside --out-dir, not in it
BAD_NAMES = {"separator": "sub/run", "nul": "a\u0000b", "parent": "../escaped"}


@pytest.mark.parametrize("case", sorted(BAD_NAMES))
def test_a_name_with_a_separator_or_nul_runs_no_step(tmp_path, capsys, monkeypatch, case):
    name = BAD_NAMES[case]
    assert_every_door_rejects(tmp_path, "^name must be one file-name component, got ", name=name)
    steps = []
    monkeypatch.setattr(Stepper, "step", lambda self, state: steps.append(state))
    config = write_config(tmp_path, name=name, t_snapshots=[0.5])
    code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out" / "inner")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and steps == []
    assert captured.err == f"config-error: name must be one file-name component, got {name!r}\n"
    assert not (tmp_path / "out").exists()


def test_cli_rejects_a_snapshot_time_of_step_0(tmp_path, capsys):
    # it printed a t=1e-12 row with the initial mass, wrote no CSV for it
    # and exited 0
    config = tmp_path / "zero.json"
    config.write_text(json.dumps({
        "operator": "bgk", "eta": 10.0, "epsilon": 1.0, "nx": 3, "nv": 2, "dt": 0.2,
        "t_snapshots": [1e-12, 0.2],
    }))
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config-error: snapshot time 1e-12 is step 0 at dt = 0.2")
    assert not out_dir.exists()


def test_preset_snapshot_names_are_unchanged(tmp_path):
    scenario = dataclasses.replace(PRESETS["diffusive"], nx=3, nv=2)
    report = run_and_report(scenario, out_dir=tmp_path)
    assert [row.time for row in report.rows] == [0.0, 0.05, 0.075, 0.1]
    # the snapshots are at step count times dt, 7500 * 1e-5 included
    assert [snap.time for snap in report.run.result.snapshots] == [
        0.0, 0.05, 0.07500000000000001, 0.1
    ]
    assert [path.name for path in report.files] == [
        "diffusive_bgk_t0.05.csv", "diffusive_bgk_t0.075.csv", "diffusive_bgk_t0.1.csv"
    ]
    assert [line.split()[0] for line in report.lines()[1:-1]] == [
        "t=0", "t=0.05", "t=0.075", "t=0.1"
    ]


def test_cli_run_operator_override(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path)
    code = main(["run", "--config", str(config), "--operator", "fp"])
    assert code == 0
    assert "operator fp" in capsys.readouterr().out
    # argparse's strings reach the run as the members they name
    import ugks1d.cli as cli

    seen = []
    monkeypatch.setattr(cli, "run_and_report", lambda s, out_dir: seen.append(s) or run_and_report(s))
    assert main(["run", "--config", str(config), "--operator", "sc", "--variant", "implicit"]) == 0
    assert seen[0].operator is OperatorKind.SCATTERING_PERIODIC
    assert seen[0].variant is Variant.IMPLICIT_DIFFUSION


def test_cli_validate_operator(capsys):
    code = main(["validate-operator", "--operator", "fp", "--nv", "20"])
    captured = capsys.readouterr()
    assert code == 0
    assert "operator-valid" in captured.out
    assert "lambda_star = -2" in captured.out

    assert main(["validate-operator", "--operator", "sc", "--nv", "10"]) == 0
    # the three U gaps are round-off, whose digits depend on the BLAS
    lines = capsys.readouterr().out.splitlines()
    assert [re.sub(r"\(\d\.\d{3}e-1\d\)$", "(round-off)", line) for line in lines] == [
        "symmetric: ok (0.000e+00)",
        "zero row sums: ok (0.000e+00)",
        "nonnegative off diagonal: ok (0.000e+00)",
        "d u equals v: ok (round-off)",
        "u mean zero: ok (round-off)",
        "lambda star: ok (round-off)",
        "irreducible: ok",
        "lambda_star = -1.35135135135",
        "operator-valid",
    ]


@pytest.mark.parametrize("nv", [100, 400, 800])
@pytest.mark.parametrize("operator", ["bgk", "fp", "sc"])
def test_cli_validate_operator_passes_the_paper_operators(operator, nv, capsys):
    # sc at nv = 800 exited 5 on an absolute 1e-12 bound on eigvalsh round-off
    assert main(["validate-operator", "--operator", operator, "--nv", str(nv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = ["symmetric", "zero row sums", "nonnegative off diagonal", "d u equals v",
              "u mean zero", "lambda star", "irreducible"]
    assert [line.split(": ")[0] for line in lines[:7]] == checks
    assert all(line.split(": ")[1].startswith("ok") for line in lines[:7])
    assert lines[7].startswith("lambda_star = -") and lines[8:] == ["operator-valid"]


def test_cli_validate_operator_failure_path(monkeypatch, capsys):
    import ugks1d.cli as cli
    from ugks1d.velocity_space import ValidationReport

    failing = ValidationReport({"symmetric": False, "irreducible": True})
    monkeypatch.setattr(cli, "validate_operator", lambda op: failing)
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


NON_FINITE_INPUTS = {
    "nan-snapshot": lambda tmp: ["run", "--config", str(write_config(tmp, t_snapshots=[math.nan]))],
    "inf-snapshot": lambda tmp: ["run", "--config", str(write_config(tmp, t_snapshots=[math.inf]))],
    "sweep-nan": lambda tmp: ["ap-sweep", "--t-end", "nan"],
    "compare-inf": lambda tmp: ["compare-variants", "--preset", "diffusive", "--t-end", "inf"],
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
def test_cli_rejects_non_finite_numbers_as_config_errors(tmp_path, capsys, case):
    code = main(NON_FINITE_INPUTS[case](tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config-error:") and captured.err.count("\n") == 1
    assert "must be positive and finite" in captured.err


# the first three overflowed a float conversion and exited 1 as an internal
# error; the last, 1e300 steps, passed every check and ran without end
OVERFLOWING_CONFIGS = {
    "step-count": dict(dt=1e-300, t_snapshots=[1e300]),
    "nx-401-digits": dict(nx=10**400),
    "nv-401-digits": dict(nv=10**400),
    "step-count-1e300": dict(dt=1e-300, t_snapshots=[1.0]),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_CONFIGS))
def test_cli_rejects_counts_beyond_float_range_as_config_errors(tmp_path, capsys, case):
    code = main(["run", "--config", str(write_config(tmp_path, **OVERFLOWING_CONFIGS[case]))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config-error:") and captured.err.count("\n") == 1


def test_cli_rejects_an_integer_beyond_the_json_parser_digit_limit(tmp_path, capsys):
    config = tmp_path / "huge.json"
    config.write_text('{"operator": "bgk", "eta": 1, "epsilon": 1, "nv": 4, "nx": 1' + "0" * 5000 + "}")
    code = main(["run", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config-error:") and "digits" in captured.err


def test_cli_io_error_exit_code(tmp_path, capsys, monkeypatch):
    # the output directory is made before the first step
    steps = []
    monkeypatch.setattr(Stepper, "step", lambda self, state: steps.append(state))
    config = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("занято")
    code = main(["run", "--config", str(config), "--out-dir", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("io-error:")
    assert steps == []


def test_cli_name_too_long_for_a_file_exits_4_before_the_first_step(tmp_path, capsys, monkeypatch):
    # it ran all 500 steps, then exited 4 on "[Errno 36] File name too long"
    steps = []
    monkeypatch.setattr(Stepper, "step", lambda self, state: steps.append(state))
    config = write_config(tmp_path, name="n" * 300, t_snapshots=[0.5])
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == "" and steps == []
    too_long = errno.ENAMETOOLONG
    assert captured.err.startswith(f"io-error: [Errno {too_long}] {os.strerror(too_long)}")
    assert list(out_dir.iterdir()) == []


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
    n_steps = max(scenario.snapshot_steps)
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


def test_every_readme_command_line_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("ugks1d ")
    ]
    assert len(commands) == 6
    for argv in commands:
        build_parser().parse_args(argv)  # a removed or misspelt flag exits 2


def test_every_readme_json_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    for number, block in enumerate(blocks):
        path = tmp_path / f"readme_{number}.json"
        path.write_text(block)
        assert isinstance(load_scenario(path), Scenario)  # a bad key or value raises
