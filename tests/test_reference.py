"""Checks on the analytic references and on the oracles in ``oracles.py``."""

import ast
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad, simpson

from oracles import (
    assemble_M,
    c_weight,
    cho_solve_mean_zero,
    dense_spectral,
    exact_transport,
    f0,
    interface_value_oracle,
    m_inverse,
)
from ugks1d.errors import ConfigurationError
from ugks1d.reference import (
    AMPLITUDE,
    _erf,
    chapman_enskog_residual,
    exact_diffusion_density,
    limit_diffusion_step,
    space_profile,
    transport_density,
    upwind_transport_step,
    velocity_profile,
)
from ugks1d.scheme import SchemeParams
from ugks1d.velocity_space import (
    build_bgk,
    build_fokker_planck,
    build_grid,
    build_scattering,
)

BUILDERS = {
    "bgk": build_bgk,
    "fp": build_fokker_planck,
    "sc": build_scattering,
}


def make_params(eta=0.1, epsilon=0.1, sigma=1.0, dt=1e-3, dx=0.01):
    return SchemeParams(eta=eta, epsilon=epsilon, sigma=sigma, dt=dt, dx=dx)


def rho0(x):
    """The initial density, f0's exact velocity mean."""
    return AMPLITUDE * np.exp(-((x - 0.5) ** 2))


# -------------------------------------------------------------- initial data


def test_initial_amplitude_frozen_value():
    assert 0.13 <= AMPLITUDE <= 0.15
    np.testing.assert_allclose(AMPLITUDE, 0.1401247804099482, rtol=1e-12)


def test_initial_density_is_scaled_gaussian():
    # the space profile is the Gaussian on [0, 1], its ends included
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(AMPLITUDE * space_profile(x - 0.5), rho0(x), rtol=1e-15)


def test_initial_state_concentrates_near_forward_velocities():
    assert velocity_profile(1.0) == 1.0
    assert velocity_profile(-1.0) == math.exp(-40.0)
    # velocity average sampled on a grid approaches the exact amplitude
    grid = build_grid(200)
    rho = float(velocity_profile(grid.velocities).mean())
    np.testing.assert_allclose(rho, AMPLITUDE, rtol=1e-4)


# ----------------------------------------------------------------- transport


def test_exact_transport_at_time_zero():
    x = np.linspace(0.0, 1.0, 7)[:, None]
    v = build_grid(3).velocities[None, :]
    np.testing.assert_array_equal(exact_transport(0.0, x, v), f0(x, v))


def test_exact_transport_full_period_recurrence():
    # v_j * 2N is an odd integer, so t = 2N shifts every column by a whole
    # number of periods
    grid = build_grid(2)
    x = np.linspace(0.0, 1.0, 9)[:, None]
    v = grid.velocities[None, :]
    np.testing.assert_allclose(exact_transport(4.0, x, v), f0(x, v), rtol=1e-12)


def test_exact_transport_back_trace_point():
    value = exact_transport(0.05, 0.5, 0.99)
    np.testing.assert_allclose(value, f0(0.4505, 0.99), rtol=1e-13)


def test_exact_transport_eta_rescales_time():
    x = np.linspace(0.0, 1.0, 5)[:, None]
    v = build_grid(4).velocities[None, :]
    np.testing.assert_allclose(
        exact_transport(0.2, x, v, eta=2.0), exact_transport(0.1, x, v, eta=1.0), rtol=1e-13
    )


def assert_transport_density_is_the_mean(t, x, grid, eta):
    values = exact_transport(t, x[:, None], grid.velocities[None, :], eta=eta)
    np.testing.assert_allclose(
        transport_density(t, x, grid, eta=eta), values.mean(axis=1), rtol=1e-14
    )


def test_transport_density_matches_manual_average():
    assert_transport_density_is_the_mean(0.07, np.linspace(0.0, 1.0, 13), build_grid(10), eta=1.0)


@pytest.mark.parametrize("t", [3.7, 123.456])
def test_transport_density_wraps_shifts_of_many_periods(t):
    # at eta = 0.5 the back-trace crosses up to 2t periods of the torus
    assert_transport_density_is_the_mean(t, np.linspace(0.0, 1.0, 41), build_grid(10), eta=0.5)


def test_transport_density_wraps_x_outside_the_unit_interval():
    x = np.array([-0.3, -1.0, 1.0, 1.7, 2.25])
    assert_transport_density_is_the_mean(0.07, x, build_grid(10), eta=1.0)


def test_transport_density_at_exact_wrap_ties():
    # nv = 4 has v = +-1/4, +-3/4, so x - 1/2 - v t/eta is a half-integer for
    # some pairs, where the rint wrap may land on +1/2 and mod on -1/2
    grid, t, eta = build_grid(2), 0.5, 0.5
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    shift = np.subtract.outer(x - 0.5, grid.velocities * t / eta)
    assert np.any(np.mod(shift, 1.0) == 0.5)
    assert_transport_density_is_the_mean(t, x, grid, eta)


def test_transport_density_holds_no_mesh_by_grid_temporary():
    # at 1000 x 200 the back-traced x factor is evaluated in blocks: no two
    # arrays of the mesh times the grid exist at once, and the blocks agree
    # with the whole-mesh mean
    grid, t = build_grid(100), 0.02
    x = (np.arange(1000) + 0.5) / 1000
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        density = transport_density(t, x, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= x.size * grid.size * 8 + 2**19
    values = exact_transport(t, x[:, None], grid.velocities[None, :])
    np.testing.assert_allclose(density, values.mean(axis=1), rtol=1e-14)


# ----------------------------------------------------------------- diffusion


def test_diffusion_reference_conserves_mass():
    x = np.linspace(0.0, 1.0, 2001)
    mass0 = float(simpson(rho0(x), x=x))
    for t in (1e-3, 0.05, 0.1):
        rho = exact_diffusion_density(t, x, kappa_abs=1.0 / 3.0)
        np.testing.assert_allclose(float(simpson(rho, x=x)), mass0, atol=1e-9)


def test_diffusion_reference_equilibrates():
    x = np.linspace(0.0, 1.0, 101)
    rho = exact_diffusion_density(30.0, x, kappa_abs=1.0 / 3.0)
    assert rho.max() - rho.min() <= 1e-6
    xf = np.linspace(0.0, 1.0, 2001)
    mass = float(simpson(rho0(xf), x=xf))
    np.testing.assert_allclose(rho, mass, rtol=1e-6)


def test_diffusion_reference_satisfies_heat_equation():
    kappa = 1.0 / 3.0
    t, dt, h = 0.05, 1e-4, 1.0 / 400
    x = np.arange(0.0, 1.0, h)
    rho_m = exact_diffusion_density(t - dt, x, kappa)
    rho_0 = exact_diffusion_density(t, x, kappa)
    rho_p = exact_diffusion_density(t + dt, x, kappa)
    dt_rho = (rho_p - rho_m) / (2.0 * dt)
    lap = (np.roll(rho_0, -1) - 2.0 * rho_0 + np.roll(rho_0, 1)) / h**2
    assert float(np.abs(dt_rho - kappa * lap).max()) <= 1e-5


@pytest.mark.parametrize("t", [0.005, 0.05, 0.1])
@pytest.mark.parametrize("kappa", [1.0 / 3.0, 0.5, 0.0333])
def test_diffusion_reference_matches_simpson_over_every_image(t, kappa):
    # oracle: the periodized kernel summed over 21 images, Simpson on 2000 panels
    x = (np.arange(100) + 0.5) / 100
    kt = kappa * t
    n_images = max(10, int(math.ceil(6.0 * math.sqrt(2.0 * kt))))
    y = np.linspace(0.0, 1.0, 2001)
    shifts = x[:, None] - y[None, :]
    kernel = np.zeros_like(shifts)
    for j in range(-n_images, n_images + 1):
        kernel += np.exp(-((shifts + j) ** 2) / (4.0 * kt))
    kernel *= 1.0 / math.sqrt(4.0 * math.pi * kt)
    full = simpson(kernel * rho0(y)[None, :], x=y, axis=1)
    np.testing.assert_allclose(exact_diffusion_density(t, x, kappa), full, rtol=0, atol=1e-10)


@pytest.mark.parametrize("t, kappa", [(0.005, 0.0333), (0.005, 1.0 / 3.0), (0.1, 0.5), (3.0, 1.0)])
@pytest.mark.parametrize("x", [0.0, 0.13, 0.5, 0.99])
def test_diffusion_reference_matches_adaptive_quadrature(t, kappa, x):
    kt = kappa * t
    images = np.arange(-30, 31)

    def integrand(y):
        kernel = np.exp(-((x - y + images) ** 2) / (4.0 * kt)).sum() / math.sqrt(4.0 * math.pi * kt)
        return kernel * float(rho0(y))

    peaks = [x + j for j in (-1, 0, 1) if 0.0 < x + j < 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        expected, _ = quad(integrand, 0.0, 1.0, points=peaks or None, epsabs=1e-15, epsrel=1e-13)
    assert abs(exact_diffusion_density(t, x, kappa) - expected) <= 1e-14


@pytest.mark.parametrize("kt", [1e-3, 0.2, 1.0, 10.0, 100.0])
def test_diffusion_reference_keeps_the_exact_mass(kt):
    # the periodic trapezoid mean of the smooth solution is its exact integral,
    # A sqrt(pi) erf(1/2), so dropped image tails show up as lost mass
    x = np.arange(400) / 400
    mass = AMPLITUDE * math.sqrt(math.pi) * math.erf(0.5)
    rho = exact_diffusion_density(kt, x, kappa_abs=1.0)
    np.testing.assert_allclose(rho.mean(), mass, rtol=1e-13, atol=0)


@pytest.mark.parametrize("kt", [1e-4, 1e-3, 0.2, 10.0, 100.0])
def test_diffusion_reference_is_reflection_symmetric(kt):
    x = np.linspace(0.0, 1.0, 257)
    rho = exact_diffusion_density(kt, x, kappa_abs=1.0)
    np.testing.assert_allclose(rho, exact_diffusion_density(kt, 1.0 - x, 1.0), rtol=0, atol=1e-15)


def test_diffusion_reference_is_periodic_in_x():
    x = np.linspace(0.0, 1.0, 33)
    rho = exact_diffusion_density(0.01, x, 1.0 / 3.0)
    for shift in (-9.0, 1.0, 10.0):
        np.testing.assert_allclose(
            exact_diffusion_density(0.01, x + shift, 1.0 / 3.0), rho, rtol=0, atol=1e-14
        )


def test_diffusion_reference_rejects_bad_arguments():
    with pytest.raises(ConfigurationError, match="t > 0"):
        exact_diffusion_density(0.0, 0.5, 1.0)
    with pytest.raises(ConfigurationError, match="kappa"):
        exact_diffusion_density(0.1, 0.5, 0.0)


# a grid over +-8, signed zeros, subnormals, both sides of the |z| = 6 cut,
# where erf(z) already rounds to +-1, and NaN last
_BELOW_CUT = math.nextafter(6.0, 0.0)
ERF_POINTS = np.concatenate([
    np.linspace(-8.0, 8.0, 4001),
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320],
    [5.9, 5.93, _BELOW_CUT, 6.0, math.nextafter(6.0, 7.0)],
    [-5.9, -5.93, -_BELOW_CUT, -6.0, -math.nextafter(6.0, 7.0)],
    [math.nan],
])


def test_erf_matches_scipy_within_two_ulp():
    from scipy.special import erf

    ours, expected = _erf(ERF_POINTS), erf(ERF_POINTS)
    assert np.isnan(ours[-1])
    ours, expected = ours[:-1], expected[:-1]
    assert np.all(np.abs(ours - expected) <= 2.0 * np.spacing(np.abs(expected)))
    assert np.array_equal(np.signbit(ours), np.signbit(expected))
    # both sides of the cut round to exactly +-1
    assert set(ours[np.abs(ERF_POINTS[:-1]) >= 5.93]) == {-1.0, 1.0}


def test_erf_is_within_one_ulp_of_the_exact_value():
    mp = pytest.importorskip("mpmath")
    for z in ERF_POINTS[:-1:7]:
        exact = mp.erf(mp.mpf(float(z)))
        ulp = np.spacing(abs(float(exact)))
        assert abs(float(mp.mpf(float(_erf(np.array([z]))[0])) - exact)) <= ulp, z


def test_diffusion_reference_matches_the_scipy_erf_formula_at_the_benchmark_snapshot():
    # the diffusive-sc benchmark workload: sc at N_v = 100, eps = eta, t = 0.005
    from scipy.special import erf

    kappa = 1.0 / (3.0 * abs(build_scattering(build_grid(50)).lambda_star))
    t = 0.005
    x = (np.arange(100) + 0.5) / 100
    kt = kappa * t
    s = 1.0 + 4.0 * kt
    r = math.sqrt(s / (4.0 * kt))
    n_images = math.ceil(math.sqrt(40.0 * s) - 0.5)
    c = x[None, :] + np.arange(-n_images, n_images + 1, dtype=float)[:, None]
    m = (c + 2.0 * kt) / s
    terms = np.exp(-((c - 0.5) ** 2) / s) * (erf(r * (1.0 - m)) + erf(r * m))
    expected = (AMPLITUDE / (2.0 * math.sqrt(s))) * terms.sum(axis=0)
    np.testing.assert_allclose(exact_diffusion_density(t, x, kappa), expected, rtol=1e-15, atol=0)


def test_limit_step_constant_and_mass():
    rho = np.full(20, 0.7)
    np.testing.assert_array_equal(limit_diffusion_step(rho, 1e-4, 0.05, 1.0 / 3.0), rho)
    rng = np.random.default_rng(3)
    rho = rng.random(20)
    stepped = limit_diffusion_step(rho, 1e-4, 0.05, 1.0 / 3.0)
    np.testing.assert_allclose(stepped.sum(), rho.sum(), rtol=1e-14)


@pytest.mark.parametrize("nx", [3, 4, 100])
def test_limit_step_equals_the_roll_formula(nx):
    # the slice form keeps the roll form's order of operations, so bitwise equal
    rng = np.random.default_rng(nx)
    dt, dx, kappa = 1e-4, 1.0 / nx, 1.0 / 3.0
    for _ in range(5):
        rho = rng.standard_normal(nx)
        lap = np.roll(rho, -1) - 2.0 * rho + np.roll(rho, 1)
        expected = rho + (dt * kappa / dx**2) * lap
        assert np.array_equal(limit_diffusion_step(rho, dt, dx, kappa), expected)


def test_limit_step_single_mode_decay_factor():
    nx = 50
    dx = 1.0 / nx
    dt, kappa = 1e-4, 1.0 / 3.0
    x = (np.arange(nx) + 0.5) * dx
    mode = np.cos(2.0 * np.pi * x)
    factor = 1.0 - (dt * kappa / dx**2) * 2.0 * (1.0 - math.cos(2.0 * math.pi * dx))
    stepped = limit_diffusion_step(1.0 + mode, dt, dx, kappa)
    np.testing.assert_allclose(stepped, 1.0 + factor * mode, atol=1e-13)


# ------------------------------------------------------------ spectral oracle


def test_bgk_spectrum_and_projectors():
    op = build_bgk(build_grid(5))
    spec = dense_spectral(op)
    np.testing.assert_allclose(spec.eigenvalues, [0.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(np.trace(spec.projectors[0]), 1.0, atol=1e-10)
    np.testing.assert_allclose(np.trace(spec.projectors[1]), 9.0, atol=1e-10)
    np.testing.assert_allclose(spec.projectors[0], np.full((10, 10), 0.1), atol=1e-12)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("half", [2, 5, 50])
def test_spectral_identities(name, half):
    op = BUILDERS[name](build_grid(half))
    spec = dense_spectral(op)
    scale = max(1.0, float(np.abs(spec.eigenvalues).max()))
    assert spec.eigenvalues[0] == 0.0
    assert (spec.eigenvalues[1:] < 0.0).all()
    assert spec.identity_defect() <= 1e-10
    np.testing.assert_allclose(spec.reconstruct(), op.matrix, atol=1e-10 * scale)
    # the kernel projector is the mean projection
    n = op.size
    np.testing.assert_allclose(spec.projectors[0], np.full((n, n), 1.0 / n), atol=1e-8)


def test_fokker_planck_first_nonzero_eigenvalue():
    op = build_fokker_planck(build_grid(50))
    spec = dense_spectral(op)
    np.testing.assert_allclose(spec.eigenvalues[1:].max(), -2.0, atol=1e-10)


def test_scattering_spectrum_closed_form():
    half = 10
    op = build_scattering(build_grid(half))
    n = 2 * half
    c = 0.1 / op.grid.delta_v**2
    k = np.arange(n)
    expected = np.sort(-2.0 * c * (1.0 - np.cos(2.0 * np.pi * k / n)))
    computed = np.sort(np.linalg.eigvalsh(np.asarray(op.matrix)))
    np.testing.assert_allclose(computed, expected, atol=1e-9 * c)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_spectral_pseudo_inverse_matches_direct_solve(name):
    rng = np.random.default_rng(7)
    for n in (8, 100, 400):
        op = BUILDERS[name](build_grid(n // 2))
        spec = dense_spectral(op)
        for _ in range(20):
            phi = rng.standard_normal(n)
            phi -= phi.mean()
            dense_route = spec.apply_pseudo_inverse(phi)
            direct_route = cho_solve_mean_zero(op.matrix, phi)
            np.testing.assert_allclose(dense_route, direct_route, atol=1e-9)


def test_dense_spectral_size_cap():
    op = build_bgk(build_grid(257))
    with pytest.raises(ConfigurationError, match="512"):
        dense_spectral(op)


# ------------------------------------------------------- relaxation operators


def test_c_weight_series_matches_direct_form():
    for w in (-0.49, -0.5, -0.51, -1.0, -3.0):
        direct = 1.0 + (w - 1.0) * math.exp(w)
        np.testing.assert_allclose(c_weight(w), direct, rtol=1e-12)
    np.testing.assert_allclose(c_weight(-1e-5), 0.5e-10, rtol=1e-4)
    assert c_weight(-1e4) == 1.0
    assert c_weight(0.0) == 0.0


def test_assemble_M_endpoints():
    op = build_fokker_planck(build_grid(5))
    params = make_params()
    np.testing.assert_array_equal(assemble_M(0.0, params, op), np.eye(10))
    m_full = assemble_M(params.dt, params, op)
    e = math.exp(op.lambda_star * params.sigma * params.dt / (params.eta * params.epsilon))
    np.testing.assert_allclose(
        m_full, e * np.eye(10) + (1.0 - e) * op.matrix / op.lambda_star, rtol=1e-14
    )


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_m_is_positive_definite_and_inverse_consistent(name):
    op = BUILDERS[name](build_grid(5))
    params = make_params(dt=5e-3)
    spec = dense_spectral(op)
    for t_rel in (1e-4, 1e-3, 5e-3):
        m = assemble_M(t_rel, params, op)
        assert np.linalg.eigvalsh(m).min() > 0.0
        inv = m_inverse(t_rel, params, op, spec)
        np.testing.assert_allclose(inv @ m, np.eye(10), atol=1e-11)
        # constants relax with weight exactly e^w, so M^{-1} 1 = e^{-w} 1
        w = op.lambda_star * params.sigma * t_rel / (params.eta * params.epsilon)
        np.testing.assert_allclose(inv @ np.ones(10), math.exp(-w) * np.ones(10), rtol=1e-10)


def test_m_inverse_underflow_guard():
    op = build_bgk(build_grid(5))
    params = make_params(eta=1e-4, epsilon=1e-4, dt=1e-2)  # w = -1e6 at t_rel = dt
    with pytest.raises(ConfigurationError, match="underflow"):
        m_inverse(params.dt, params, op)


def test_relaxation_time_window_enforced():
    op = build_bgk(build_grid(5))
    params = make_params()
    with pytest.raises(ConfigurationError, match="t_rel"):
        assemble_M(-1e-9, params, op)
    with pytest.raises(ConfigurationError, match="t_rel"):
        assemble_M(2.0 * params.dt, params, op)


# ------------------------------------------------------------ interface value


def test_interface_reduces_to_upwind_at_zero_relaxation():
    op = build_fokker_planck(build_grid(5))
    params = make_params()
    rng = np.random.default_rng(11)
    f_left, f_right = rng.random(10), rng.random(10)
    cmp_ = interface_value_oracle(0.0, f_left, f_right, params, op, op.grid, params.dx)
    upwind = np.where(op.grid.velocities > 0, f_left, f_right)
    np.testing.assert_array_equal(cmp_.closed_form, upwind)
    np.testing.assert_allclose(cmp_.resolvent, upwind, atol=1e-13)


def test_bgk_interface_closed_form_is_exact():
    # for the relaxation operator the resolvent collapses onto the closed form
    op = build_bgk(build_grid(20))
    params = make_params(eta=0.3, epsilon=0.5, sigma=1.1, dt=2e-3)
    spec = dense_spectral(op)
    rng = np.random.default_rng(13)
    for _ in range(10):
        f_left, f_right = rng.random(40), rng.random(40)
        for t_rel in (1e-4, 1e-3, 2e-3):
            cmp_ = interface_value_oracle(
                t_rel, f_left, f_right, params, op, op.grid, params.dx, spec
            )
            assert cmp_.max_abs_diff <= 1e-11


def test_fokker_planck_velocity_is_shifted_eigenvector():
    # (D - lambda_star I) V = 0 is what removes the b-term for FP
    op = build_fokker_planck(build_grid(50))
    v = op.grid.velocities
    assert float(np.abs(op.matrix @ v - op.lambda_star * v).max()) <= 1e-12


@pytest.mark.parametrize("name", ["fp", "sc"])
def test_interface_gap_vanishes_with_epsilon(name):
    # the closed form approximates the dense resolvent by treating every
    # decaying mode with the rate lambda_star; the neglected pieces scale
    # with e^w, so they die as eps -> 0 at fixed t_rel.  Below eps = 0.01
    # the resolvent oracle itself degrades: its kernel weight e^{-w}
    # amplifies the rounding in S, so the sweep stops there.
    builder = BUILDERS[name]
    op = builder(build_grid(10))
    rng = np.random.default_rng(17)
    f_left, f_right = 1.0 + rng.random(20), 1.0 + rng.random(20)
    spec = dense_spectral(op)
    t_rel = 0.1
    gaps = []
    for eps in (1.0, 0.1, 0.01):
        params = make_params(eta=1.0, epsilon=eps, sigma=1.0, dt=t_rel)
        cmp_ = interface_value_oracle(
            t_rel, f_left, f_right, params, op, op.grid, params.dx, spec
        )
        gaps.append(cmp_.max_abs_diff)
    print(f"closed-vs-resolvent gaps ({name}, eps 1 -> 0.01): "
          + ", ".join(f"{g:.3e}" for g in gaps))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] <= 1.0
    assert gaps[-1] <= 1e-5


# ------------------------------------------------------------- near-equilibrium


def test_chapman_enskog_residual_zero_on_constructed_state():
    op = build_fokker_planck(build_grid(10))
    params = make_params(epsilon=0.2, sigma=1.3, dx=0.02)
    nx = 50
    x = (np.arange(nx) + 0.5) * params.dx
    rho = 1.0 + 0.4 * np.sin(2.0 * np.pi * x)
    dxrho = (np.roll(rho, -1) - np.roll(rho, 1)) / (2.0 * params.dx)
    f = rho[:, None] + (params.epsilon / params.sigma) * dxrho[:, None] * op.u_vector[None, :]
    assert chapman_enskog_residual(f, rho, op, params) == 0.0


def test_chapman_enskog_residual_measures_gradient_term():
    op = build_bgk(build_grid(10))
    params = make_params(epsilon=0.2, sigma=1.3, dx=0.02)
    nx = 50
    x = (np.arange(nx) + 0.5) * params.dx
    rho = 1.0 + 0.4 * np.sin(2.0 * np.pi * x)
    f = np.repeat(rho[:, None], 20, axis=1)  # equilibrium with no correction
    dxrho = (np.roll(rho, -1) - np.roll(rho, 1)) / (2.0 * params.dx)
    expected = (params.epsilon / params.sigma) * np.abs(dxrho).max() * np.abs(op.u_vector).max()
    np.testing.assert_allclose(chapman_enskog_residual(f, rho, op, params), expected, rtol=1e-12)
    assert chapman_enskog_residual(np.ones((4, 20)), np.ones(4), op, params) == 0.0


# ------------------------------------------------------------------- upwind


def test_upwind_rejects_cfl_violation():
    grid = build_grid(5)
    with pytest.raises(ConfigurationError, match="CFL"):
        upwind_transport_step(np.ones((10, 10)), dt=1.0, dx=0.01, eta=1.0, grid=grid)


def test_upwind_preserves_constants():
    grid = build_grid(5)
    f = np.full((10, 10), 0.42)
    np.testing.assert_array_equal(upwind_transport_step(f, 1e-3, 0.1, 1.0, grid), f)


def test_upwind_unit_cfl_shifts_extremal_columns():
    grid = build_grid(5)
    rng = np.random.default_rng(19)
    f = rng.random((16, 10))
    vmax = float(np.abs(grid.velocities).max())
    dx = 1.0 / 16
    dt = dx / vmax  # extremal columns see courant exactly +-1
    stepped = upwind_transport_step(f, dt, dx, 1.0, grid)
    np.testing.assert_allclose(stepped[:, -1], np.roll(f[:, -1], 1), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(stepped[:, 0], np.roll(f[:, 0], -1), rtol=1e-12, atol=1e-14)


def test_upwind_first_order_convergence():
    # a smooth periodic profile, advected per velocity column
    grid = build_grid(3)
    t_end = 0.1
    errors = []
    for nx in (50, 100):
        dx = 1.0 / nx
        dt = 0.5 * dx / float(np.abs(grid.velocities).max())
        steps = int(round(t_end / dt))
        x = (np.arange(nx) + 0.5) * dx
        f = np.exp(np.sin(2.0 * np.pi * x))[:, None] * np.ones((1, grid.size))
        for _ in range(steps):
            f = upwind_transport_step(f, dt, dx, 1.0, grid)
        shifted = np.mod(x[:, None] - grid.velocities[None, :] * steps * dt, 1.0)
        exact = np.exp(np.sin(2.0 * np.pi * shifted))
        errors.append(float(np.abs(f - exact).max()))
    ratio = errors[0] / errors[1]
    assert 1.5 <= ratio <= 2.5, errors


# ------------------------------------------------------------------ boundary

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ugks1d"

# public names of reference.py that no other module of the package calls yet
UNCALLED = {
    "AMPLITUDE": "f0's exact velocity mean, used by exact_diffusion_density",
    "chapman_enskog_residual": "the regime indicator that run telemetry will record",
}


def used_names(tree) -> set[str]:
    """Every name a module loads, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_reference_name_has_a_caller_in_the_package():
    public = set()
    for node in ast.parse((PACKAGE / "reference.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            public.add(node.name)
        elif isinstance(node, ast.Assign):
            public.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in public if not name.startswith("_")}
    called = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "reference.py":
            called |= used_names(ast.parse(path.read_text()))
    assert sorted(public - called - set(UNCALLED)) == []
    assert set(UNCALLED) <= public


def test_oracles_import_neither_stepper_nor_run():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not (imported | used_names(tree)) & {"Stepper", "run"}
