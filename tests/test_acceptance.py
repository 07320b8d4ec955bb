"""Acceptance gate: fourteen numbered criteria, one printed verdict each.

Every test prints a single ``criterion NN PASS/FAIL`` line with the
measured quantity before asserting, so a ``pytest -v`` log shows the
whole scorecard even when a criterion fails.
"""

import dataclasses
import time

import numpy as np
import pytest

import oracles
import ugks1d as u
from ugks1d import reference, scheme

NV_SMALL = (4, 10, 100)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def snap_at(run_, t):
    best = min(run_.result.snapshots, key=lambda s: abs(s.time - t))
    assert abs(best.time - t) <= 1e-9, (best.time, t)
    return best


def test_criterion_01_pseudo_eigenvalues(capsys):
    started = time.perf_counter()
    worst_bgk = max(
        abs(u.build_operator(u.OperatorKind.BGK, nv).lambda_star + 1.0) for nv in NV_SMALL
    )
    worst_fp = max(
        abs(u.build_operator(u.OperatorKind.FOKKER_PLANCK, nv).lambda_star + 2.0)
        for nv in NV_SMALL
    )
    sc_gap = abs(
        u.build_operator(u.OperatorKind.SCATTERING_PERIODIC, 100).lambda_star + 1.49835
    )
    elapsed = time.perf_counter() - started
    ok = worst_bgk <= 1e-12 and worst_fp <= 1e-12 and sc_gap <= 1e-4 and elapsed < 1.0
    report(
        capsys, 1, ok,
        f"|bgk+1| = {worst_bgk:.2e}, |fp+2| = {worst_fp:.2e}, "
        f"|sc(100)+1.49835| = {sc_gap:.2e}, {elapsed:.2f} s",
    )
    assert worst_bgk <= 1e-12
    assert worst_fp <= 1e-12
    assert sc_gap <= 1e-4
    assert elapsed < 1.0


def test_criterion_02_scattering_continuum_limit(capsys):
    started = time.perf_counter()
    values = [
        u.build_operator(u.OperatorKind.SCATTERING_PERIODIC, nv).lambda_star
        for nv in (50, 100, 200, 400)
    ]
    elapsed = time.perf_counter() - started
    gaps = [abs(v + 1.5) for v in values]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = monotone and gaps[-1] < gaps[0] and elapsed < 5.0
    report(
        capsys, 2, ok,
        "lambda_star(50..400) = " + ", ".join(f"{v:.8f}" for v in values)
        + f"; {elapsed:.2f} s",
    )
    assert monotone, gaps
    assert gaps[-1] < gaps[0]
    assert elapsed < 5.0


def test_criterion_03_fokker_planck_structural_identities(capsys):
    worst_kernel = 0.0
    worst_eigen = 0.0
    for nv in (4, 10, 100, 400):
        op = u.build_operator(u.OperatorKind.FOKKER_PLANCK, nv)
        worst_kernel = max(worst_kernel, float(np.abs(op.matrix @ np.ones(nv)).max()))
        # 2N V is an integer vector, so D V = -2 V is testable exactly
        w = 2.0 * np.arange(1, nv + 1) - nv - 1
        worst_eigen = max(worst_eigen, float(np.abs(op.matrix @ w + 2.0 * w).max()) / nv)
    ok = worst_kernel <= 1e-13 and worst_eigen <= 1e-13
    report(capsys, 3, ok, f"max|D 1| = {worst_kernel:.2e}, max|D V + 2V| = {worst_eigen:.2e}")
    assert worst_kernel <= 1e-13
    assert worst_eigen <= 1e-13


def test_criterion_04_flux_coefficient_quadrature_oracle(capsys):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def quad_coeffs(eta_eps, sigma_dt, lam):
        w = mp.mpf(lam) * mp.mpf(sigma_dt) / mp.mpf(eta_eps)
        b = min(mp.mpf(1), 50 / abs(w))
        pts = [0, b, 1] if b < 1 else [0, 1]
        qa = mp.quad(lambda t: mp.e ** (w * t), pts)
        qb = mp.quad(lambda t: 1 + (w * t - 1) * mp.e ** (w * t), pts)
        # with eta = sigma = 1 the defining integrals give the
        # coefficients directly: eps = eta_eps and dt = sigma_dt
        return float(qa), float(1 - qa), float(mp.mpf(eta_eps) / mp.mpf(lam) * qb), float(w)

    eta_eps_grid = [3e-7, 1e-4, 1e-2, 1.0, 1e3]
    sigma_dt_grid = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
    lambda_grid = [-1.0, -1.49835, -2.0, -2.5, -3.0]

    started = time.perf_counter()
    worst = 0.0
    w_lo, w_hi = 0.0, -np.inf
    for eta_eps in eta_eps_grid:
        for sigma_dt in sigma_dt_grid:
            for lam in lambda_grid:
                a_ref, c_ref, d_ref, w = quad_coeffs(eta_eps, sigma_dt, lam)
                params = u.SchemeParams(eta=1.0, epsilon=eta_eps, sigma=1.0, dt=sigma_dt, dx=0.01)
                co = scheme.flux_coefficients(params, lam)
                worst = max(
                    worst,
                    abs(co.a_coef - a_ref),
                    abs(co.c_coef - c_ref),
                    abs(co.d_coef - d_ref),
                )
                w_lo, w_hi = min(w_lo, w), max(w_hi, w)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 5.0 and w_lo <= -1e6 + 1 and w_hi >= -1e-8
    report(
        capsys, 4, ok,
        f"max coefficient error = {worst:.3e} over 125 points, "
        f"w in [{w_lo:.3g}, {w_hi:.3g}], {elapsed:.2f} s",
    )
    assert worst <= 1e-10
    assert elapsed < 5.0
    assert w_lo <= -1e6 + 1 and w_hi >= -1e-8


def test_criterion_05_free_transport_reduction(capsys):
    worst = 0.0
    for kind in u.OperatorKind:
        op = u.build_operator(kind, 100)
        scenario = dataclasses.replace(
            u.PRESETS["transport"], operator=kind, epsilon=1e8, t_snapshots=(1e-3,)
        )
        params = u.scheme_params(scenario)
        state = u.initialize_state(scenario, op.grid)
        f_up = state.f.copy()
        stepper = u.Stepper(op, params)
        for _ in range(100):
            state = stepper.step(state)
            f_up = reference.upwind_transport_step(f_up, params.dt, params.dx, params.eta, op.grid)
        worst = max(worst, float(np.abs(state.f - f_up).max()))
    ok = worst <= 1e-8
    report(capsys, 5, ok, f"max componentwise gap to upwind after 100 steps = {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_06_diffusion_reduction(capsys):
    op = u.build_operator(u.OperatorKind.BGK, 100)
    scenario = dataclasses.replace(
        u.PRESETS["diffusive"], eta=1e-8, epsilon=1e-8, t_snapshots=(1e-3,)
    )
    params = u.scheme_params(scenario)
    state = u.initialize_state(scenario, op.grid)
    grid = op.grid
    kappa_d = float(grid.velocities @ grid.velocities) / grid.size / abs(op.lambda_star)
    worst = 0.0
    stepper = u.Stepper(op, params)
    for _ in range(100):
        predicted = reference.limit_diffusion_step(state.rho, params.dt, params.dx, kappa_d)
        state = stepper.step(state)
        worst = max(worst, float(np.abs(state.rho - predicted).max()))
    ok = worst <= 1e-8
    report(capsys, 6, ok, f"max per-step gap to limit scheme over 100 steps = {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_07_mass_conservation(capsys, preset_runs):
    worst = 0.0
    slowest = 0.0
    for run_ in preset_runs.values():
        worst = max(worst, abs(run_.result.mass_drift))
        slowest = max(slowest, run_.result.seconds_per_step * run_.result.steps)
    ok = worst <= 1e-12 and slowest <= 300.0
    report(
        capsys, 7, ok,
        f"max relative mass drift over 9 runs x 1e4 steps = {worst:.3e}, "
        f"slowest run {slowest:.1f} s",
    )
    assert worst <= 1e-12
    assert slowest <= 300.0


def test_criterion_08_diffusive_regime_accuracy(capsys, preset_runs):
    details = []
    worst = 0.0
    for kind in ("fp", "sc"):
        run_ = preset_runs["diffusive", kind]
        snap = snap_at(run_, 0.1)
        kappa = 1.0 / (3.0 * run_.scenario.sigma * abs(run_.operator.lambda_star))
        ref = reference.exact_diffusion_density(snap.time, run_.scenario.x_centers, kappa)
        rel = float(np.sqrt(np.mean((snap.rho - ref) ** 2) / np.mean(ref**2)))
        details.append(f"{kind} {100 * rel:.3f}%")
        worst = max(worst, rel)
    ok = worst <= 0.05
    report(capsys, 8, ok, "relative L2 vs heat kernel at t=0.1: " + ", ".join(details))
    assert worst <= 0.05


def test_criterion_09_diffusive_time_rescaling(capsys, preset_runs):
    anchor = snap_at(preset_runs["diffusive", "bgk"], 0.05)
    peak = float(np.abs(anchor.rho).max())
    gap_fp = float(np.abs(snap_at(preset_runs["diffusive", "fp"], 0.1).rho - anchor.rho).max())
    gap_sc = float(np.abs(snap_at(preset_runs["diffusive", "sc"], 0.075).rho - anchor.rho).max())
    ok = max(gap_fp, gap_sc) <= 0.01 * peak
    report(
        capsys, 9, ok,
        f"fp(0.1) vs bgk(0.05): {gap_fp:.3e}, sc(0.075) vs bgk(0.05): {gap_sc:.3e}, "
        f"allowed {0.01 * peak:.3e}",
    )
    assert gap_fp <= 0.01 * peak
    assert gap_sc <= 0.01 * peak


def test_criterion_10_transport_regime_operator_agreement(capsys, preset_runs):
    finals = {
        kind: snap_at(preset_runs["transport", kind], 0.1).rho for kind in ("bgk", "fp", "sc")
    }
    pairs = {
        "bgk-fp": float(np.abs(finals["bgk"] - finals["fp"]).max()),
        "bgk-sc": float(np.abs(finals["bgk"] - finals["sc"]).max()),
        "fp-sc": float(np.abs(finals["fp"] - finals["sc"]).max()),
    }
    worst = max(pairs.values())
    ok = worst <= 1e-6
    detail = ", ".join(f"{name} {gap:.4e}" for name, gap in pairs.items())
    report(capsys, 10, ok, f"pairwise Linf at t=0.1: {detail} (tolerance 1e-6)")
    assert worst <= 1e-6, (
        "operator densities differ beyond 1e-6; measured pairwise gaps: " + detail
    )


def test_criterion_11_bgk_interface_exactness(capsys):
    op = u.build_operator(u.OperatorKind.BGK, 100)
    params = u.SchemeParams(eta=0.3, epsilon=0.5, sigma=1.1, dt=2e-3, dx=0.01)
    spec = oracles.dense_spectral(op)
    rng = np.random.default_rng(101)
    t_rels = (1e-4, 5e-4, 1e-3, 1.5e-3, 2e-3)
    worst = 0.0
    for _ in range(20):
        f_left, f_right = rng.random(100), rng.random(100)
        for t_rel in t_rels:
            cmp_ = oracles.interface_value_oracle(
                t_rel, f_left, f_right, params, op, op.grid, params.dx, spec
            )
            worst = max(worst, cmp_.max_abs_diff)
    ok = worst <= 1e-11
    report(capsys, 11, ok, f"max |closed - resolvent| over 20 pairs x 5 times = {worst:.3e}")
    assert worst <= 1e-11


def test_criterion_12_chapman_enskog_scaling(capsys):
    residuals = {}
    for eps in (1e-3, 5e-4):
        scenario = dataclasses.replace(
            u.PRESETS["diffusive"], eta=eps, epsilon=eps, t_snapshots=(2e-3,)
        )
        run_ = u.run_scenario(scenario)
        residuals[eps] = reference.chapman_enskog_residual(
            run_.result.final.f, run_.result.final.rho, run_.operator, run_.params
        )
    ratio = residuals[1e-3] / residuals[5e-4]
    ok = 3.0 <= ratio <= 5.0
    report(
        capsys, 12, ok,
        f"residuals {residuals[1e-3]:.3e} / {residuals[5e-4]:.3e}, ratio = {ratio:.3f}",
    )
    assert 3.0 <= ratio <= 5.0


def test_criterion_13_entropy_dissipation(capsys):
    rng = np.random.default_rng(202)
    worst_random = -np.inf
    worst_constant = 0.0
    for kind in u.OperatorKind:
        op = u.build_operator(kind, 100)
        for _ in range(50):
            state = np.exp(rng.normal(size=100))
            worst_random = max(worst_random, u.entropy_dissipation(op, state))
        for value in (0.2, 1.0, 3.7):
            worst_constant = max(
                worst_constant, abs(u.entropy_dissipation(op, np.full(100, value)))
            )
    ok = worst_random < 0.0 and worst_constant <= 1e-9
    report(
        capsys, 13, ok,
        f"max over 150 random states = {worst_random:.3e} (< 0), "
        f"max |constant| = {worst_constant:.3e}",
    )
    assert worst_random < 0.0
    assert worst_constant <= 1e-9


def test_criterion_14_variant_gap_halves_with_dt(capsys, diffusive_variant_gaps):
    coarse, fine = diffusive_variant_gaps
    ratio = coarse / fine
    ok = 1.7 <= ratio <= 2.3
    report(
        capsys, 14, ok,
        f"Linf gap {coarse:.3e} at dt=1e-5 vs {fine:.3e} at dt=5e-6, ratio = {ratio:.3f}",
    )
    assert 1.7 <= ratio <= 2.3
