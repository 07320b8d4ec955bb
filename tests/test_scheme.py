"""Stepper-level checks: coefficients, fluxes, limits, conservation."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    half_moments,
    macro_flux,
    micro_flux,
    per_interface_step,
    stencil_blocks,
    u_and_lambda,
    underflow_exp,
)
from ugks1d import scheme
from ugks1d.errors import ConfigurationError
from ugks1d.errors import SolverError
from ugks1d.linalg import CyclicTridiagonalFactor, TridiagonalFactor
from ugks1d.reference import limit_diffusion_step, upwind_transport_step
from ugks1d.scenarios import PRESETS, Scenario, run_scenario
from ugks1d.scheme import (
    KineticState,
    SchemeParams,
    Stepper,
    Variant,
    _expm1_over_w,
    _invert_collision_system,
    default_time_step,
    duhamel_bracket,
    flux_coefficients,
    run,
)
from ugks1d.velocity_space import (
    CollisionOperator,
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


def make_params(eta=0.1, epsilon=0.1, sigma=1.0, dt=1e-4, dx=0.02, variant=Variant.EXPLICIT_DIFFUSION):
    return SchemeParams(eta=eta, epsilon=epsilon, sigma=sigma, dt=dt, dx=dx, variant=variant)


def random_state(rng, nx, nv, floor=0.05):
    f = floor + rng.random((nx, nv))
    return KineticState(f=f, rho=f.mean(axis=1))


# ---------------------------------------------------------------- parameters


def test_params_reject_nonpositive_values():
    for field in ("eta", "epsilon", "sigma", "dt", "dx"):
        kwargs = dict(eta=1.0, epsilon=1.0, sigma=1.0, dt=1e-3, dx=0.01)
        kwargs[field] = 0.0
        with pytest.raises(ConfigurationError, match=field):
            SchemeParams(**kwargs)


def test_params_take_a_variant_member_or_its_string():
    assert make_params(variant="implicit").variant is Variant.IMPLICIT_DIFFUSION
    assert make_params(variant=Variant.IMPLICIT_DIFFUSION).variant is Variant.IMPLICIT_DIFFUSION
    for bad in ("semi", None, 1):
        with pytest.raises(ConfigurationError, match="unknown variant"):
            make_params(variant=bad)


def test_stiffness_property():
    p = make_params(eta=1e-4, epsilon=1e-4, sigma=1.0, dt=1e-5)
    np.testing.assert_allclose(p.stiffness, 1e3, rtol=1e-12)


def test_default_time_step_law():
    assert default_time_step(0.01, 1.0) == 0.5 * 1e-4 + 0.5 * 0.01


# -------------------------------------------------------------- coefficients


def test_exp_helpers_underflow_branch():
    assert underflow_exp(-800.0) == 0.0
    assert underflow_exp(-1.0) == math.exp(-1.0)
    assert _expm1_over_w(-1e6) == 1e-6
    np.testing.assert_allclose(_expm1_over_w(-2.0), math.expm1(-2.0) / -2.0, rtol=1e-15)


def test_expm1_over_w_series_matches_direct_at_crossover():
    for w in (-1e-6, -9.9e-7, -1.1e-6):
        series = 1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0))
        np.testing.assert_allclose(_expm1_over_w(w), series, rtol=1e-13)
        np.testing.assert_allclose(_expm1_over_w(w), math.expm1(w) / w, rtol=1e-10)


def test_duhamel_bracket_series_matches_direct_form():
    # both branches are accurate near the switch point |w| = 1/2
    for w in (-0.49, -0.5, -0.51, -0.7, -1.0):
        direct = 1.0 + math.exp(w) - 2.0 * math.expm1(w) / w
        np.testing.assert_allclose(duhamel_bracket(w), direct, rtol=1e-12)


def test_duhamel_bracket_small_w_leading_order():
    for w in (-1e-4, -1e-6, -1e-8):
        np.testing.assert_allclose(duhamel_bracket(w), w * w / 6.0, rtol=1e-3)


def test_duhamel_bracket_deep_underflow():
    w = -1e4
    assert duhamel_bracket(w) == 1.0 + 2.0 / w


def test_flux_coefficients_high_precision_reference():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    cases = [
        (1.0, 100.0, 1.0, 1e-5, -1.0),
        (0.1, 0.1, 1.0, 1e-5, -2.0),
        (1e-4, 1e-4, 1.0, 1e-5, -1.49835181),
        (1.0, 1.0, 2.0, 1e-2, -8.0 / 9.0),
    ]
    for eta, eps, sigma, dt, lam in cases:
        co = flux_coefficients(make_params(eta, eps, sigma, dt), lam)
        w = mp.mpf(lam) * mp.mpf(sigma) * mp.mpf(dt) / (mp.mpf(eta) * mp.mpf(eps))
        a_ref = mp.expm1(w) / (mp.mpf(eta) * w)
        d_ref = (
            mp.mpf(eps)
            / (mp.mpf(sigma) * mp.mpf(lam) * mp.mpf(eta))
            * (1 + mp.exp(w) - 2 * mp.expm1(w) / w)
        )
        np.testing.assert_allclose(co.a_coef, float(a_ref), rtol=1e-13)
        # C inherits the absolute rounding of A through C = 1/eta - A
        np.testing.assert_allclose(
            co.c_coef, float(1 / mp.mpf(eta) - a_ref), rtol=1e-10, atol=1e-15 / eta
        )
        np.testing.assert_allclose(co.d_coef, float(d_ref), rtol=1e-12)


def test_flux_coefficients_sum_identity_exact():
    for eta, eps in ((1.0, 100.0), (0.1, 0.1), (1e-4, 1e-4), (3.0, 7.0)):
        co = flux_coefficients(make_params(eta=eta, epsilon=eps), -1.7)
        assert co.a_coef + co.c_coef == 1.0 / eta
        assert co.w < 0


def test_flux_coefficients_signs_and_bounds():
    for eta, eps, lam in ((1.0, 100.0, -1.0), (0.1, 0.1, -2.0), (1e-4, 1e-4, -1.5)):
        co = flux_coefficients(make_params(eta=eta, epsilon=eps, dt=1e-5), lam)
        assert 0.0 < co.a_coef <= 1.0 / eta
        assert 0.0 <= co.c_coef < 1.0 / eta
        assert co.d_coef < 0.0


def test_flux_coefficients_transport_limit():
    # w -> 0: upwind weight dominates, diffusion weight is O(w^2)
    co = flux_coefficients(make_params(eta=1.0, epsilon=1e8, dt=1e-5), -1.0)
    np.testing.assert_allclose(co.a_coef, 1.0, rtol=1e-12)
    assert abs(co.c_coef) <= 1e-13
    assert abs(co.d_coef) <= 1e-13


def test_flux_coefficients_diffusive_limit():
    # w -> -inf: the equilibrium and gradient weights take over
    eta = eps = 1e-7
    co = flux_coefficients(make_params(eta=eta, epsilon=eps, dt=1e-5), -1.0)
    w = -1e-5 / (eta * eps / 1.0)
    assert co.w == w
    np.testing.assert_allclose(co.a_coef, -1.0 / (eta * w), rtol=1e-15)
    np.testing.assert_allclose(co.c_coef, 1.0 / eta, rtol=1e-9)
    np.testing.assert_allclose(co.d_coef, -1.0 * (1.0 + 2.0 / w), rtol=1e-12)


def test_flux_coefficients_reject_nonnegative_lambda():
    with pytest.raises(ConfigurationError, match="lambda_star"):
        flux_coefficients(make_params(), 0.0)


# --------------------------------------------------------------------- fluxes


def test_half_moments_against_slices():
    grid = build_grid(5)
    rng = np.random.default_rng(2)
    f = rng.random(10)
    m = half_moments(f, grid)
    np.testing.assert_allclose(m.rho_minus, f[:5].sum() / 10.0, rtol=1e-15)
    np.testing.assert_allclose(m.rho_plus, f[5:].sum() / 10.0, rtol=1e-15)
    np.testing.assert_allclose(m.rho_minus + m.rho_plus, f.mean(), rtol=1e-14)
    v = grid.velocities
    np.testing.assert_allclose(m.j_minus + m.j_plus, (v * f).mean(), atol=1e-16)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_macro_flux_is_velocity_average_of_micro_flux(name):
    op = BUILDERS[name](build_grid(10))
    params = make_params()
    co = flux_coefficients(params, op.lambda_star)
    rng = np.random.default_rng(8)
    for _ in range(10):
        f_left = rng.random(20)
        f_right = rng.random(20)
        phi = micro_flux(f_left, f_right, co, op, op.grid, params.dx)
        big_phi = macro_flux(f_left, f_right, co, op, op.grid, params.dx)
        np.testing.assert_allclose(phi.mean(), big_phi, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_micro_flux_matches_time_integrated_interface_value(name):
    # the A/C/D weights are exactly the time averages of the interface
    # relaxation factors; Simpson over the step must reproduce the flux
    from oracles import c_weight

    op = BUILDERS[name](build_grid(10))
    grid = op.grid
    params = make_params(eta=0.7, epsilon=0.3, sigma=1.2, dt=2e-2, dx=0.05)
    co = flux_coefficients(params, op.lambda_star)
    rng = np.random.default_rng(13)
    f_left = rng.random(20)
    f_right = rng.random(20)
    v = grid.velocities
    half = grid.half_count
    upwind = np.where(v > 0, f_left, f_right)
    edge_rho = f_left[half:].sum() / 20.0 + f_right[:half].sum() / 20.0
    grad = (f_right.mean() - f_left.mean()) / params.dx

    times = np.linspace(0.0, params.dt, 2001)
    values = np.zeros((times.size, 20))
    for i, t in enumerate(times):
        w_t = op.lambda_star * params.sigma * t / (params.eta * params.epsilon)
        e = math.exp(w_t)
        interface = (
            e * upwind
            + (1.0 - e) * edge_rho
            + c_weight(w_t) * (params.epsilon / params.sigma) * grad * op.u_vector
        )
        values[i] = v * interface / params.eta
    from scipy.integrate import simpson

    integrated = simpson(values, x=times, axis=0) / params.dt
    phi = micro_flux(f_left, f_right, co, op, grid, params.dx)
    np.testing.assert_allclose(phi, integrated, rtol=1e-9, atol=1e-12)


# ------------------------------------------------------------ collision solve


# The collision closes inside Stepper.step, so it is checked through whole
# steps, against references that solve I - cD densely in every cell.


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_collision_solve_matches_dense_reference(name):
    # against the per-interface fluxes, at stiffness c = 1
    op = BUILDERS[name](build_grid(4))
    nx = 6
    params = make_params(eta=0.1, epsilon=0.1, dt=1e-2, dx=1.0 / nx)
    state = random_state(np.random.default_rng(19), nx, op.size, floor=1.0)
    expected = per_interface_step(op, params, state)
    advanced = Stepper(op, params).step(state)
    np.testing.assert_allclose(advanced.rho, expected.rho, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(advanced.f, expected.f, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(advanced.f.mean(axis=1), advanced.rho, atol=1e-14)


def dense_operator(grid):
    """A dense negative semidefinite operator: it has no band form, so its
    collision system is inverted by Cholesky."""
    matrix = 0.5 * (build_scattering(grid).matrix + build_bgk(grid).matrix)
    u, lam = u_and_lambda(matrix, grid.velocities)
    return CollisionOperator(grid=grid, matrix=matrix, lambda_star=lam, u_vector=u)


# the three builders' records and a hand-built one for the Cholesky route
OPERATORS = {**BUILDERS, "dense": dense_operator}


def test_collision_solve_dense_operator_uses_a_dense_inverse():
    # the Cholesky route must agree with a dense solve
    op = dense_operator(build_grid(4))
    nx = 5
    params = make_params(eta=0.5, epsilon=0.5, dt=1e-2, dx=1.0 / nx)
    ws = Stepper(op, params)
    assert type(ws._collision_factor) is TridiagonalFactor
    state = random_state(np.random.default_rng(23), nx, op.size, floor=1.0)
    expected = per_interface_step(op, params, state)
    advanced = ws.step(state)
    np.testing.assert_allclose(advanced.rho, expected.rho, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(advanced.f, expected.f, rtol=1e-9, atol=1e-11)


def test_collision_solve_keeps_mean_exact_under_extreme_stiffness():
    op = build_fokker_planck(build_grid(50))
    params = make_params(eta=1e-4, epsilon=1e-4, dt=1e-5)  # c = 1e3
    state = random_state(np.random.default_rng(29), 10, op.size, floor=1.0)
    advanced = Stepper(op, params).step(state)
    np.testing.assert_allclose(advanced.f.mean(axis=1), advanced.rho, rtol=0, atol=5e-15)


def test_collision_solve_leaves_its_arguments_alone():
    # the step's collision stage, Q r, must land in a new array: the
    # rank-three dgemm then adds W J into it in place
    op = build_fokker_planck(build_grid(4))
    ws = Stepper(op, make_params(eta=0.1, epsilon=0.1, dt=1e-2))
    rng = np.random.default_rng(41)
    rhs = 1.0 + rng.random((8, 6))  # the velocity-major (2N, nx) block
    rhs0 = rhs.copy()
    solved = ws._collision_factor.solve(rhs)
    assert np.array_equal(rhs, rhs0)
    assert not np.shares_memory(solved, rhs)
    # Q is centred: its columns have velocity mean zero, so Q r has too
    np.testing.assert_allclose(solved.mean(axis=0), 0.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", ["fp", "sc"])
@pytest.mark.parametrize("nv", [8, 100, 400])
def test_collision_inverse_matches_dense_solve_under_extreme_stiffness(name, nv):
    op = BUILDERS[name](build_grid(nv // 2))
    params = make_params(eta=1e-4, epsilon=1e-4, dt=1e-5)  # c = 1e3
    stepper = Stepper(op, params)
    state = random_state(np.random.default_rng(nv), 6, nv, floor=1.0)
    # the reference solves for the fluctuation about rho_new: solving for
    # F itself rounds the constant component through a matrix with entries
    # of order c nv^2, which moves the mean of F by 2e-10 at nv = 400
    expected = cell_major_step(stepper, state)
    np.testing.assert_allclose(stepper.step(state).f, expected.f, rtol=1e-10)


# the transport preset's coefficients: c = sigma dt / (eps eta) = 1e-7
TRANSPORT = dict(eta=1.0, epsilon=100.0, dt=1e-5, dx=0.01)


@pytest.mark.parametrize("name, nv", [("fp", 100), ("sc", 200)])
def test_collision_matrix_holds_no_entry_near_zero_at_low_stiffness(name, nv):
    # at c = 1e-7 the inverse of I - cD decays away from its diagonal down to
    # subnormal numbers, which slow the product several-fold; the centred
    # matrix the step multiplies by sits near -1/(2N) there
    stepper = Stepper(BUILDERS[name](build_grid(nv // 2)), make_params(**TRANSPORT))
    q = np.abs(stepper._collision_factor.inverse)
    assert not ((q > 0.0) & (q < 1e-150 * q.max())).any()


@pytest.mark.parametrize("stiffness", ["transport", "diffusive"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_twenty_steps_keep_rho_the_mean_of_f(name, stiffness):
    # c = 1e-7 and c = 1e3; the centred matrix must not let the mean drift
    params = make_params(**TRANSPORT) if stiffness == "transport" else make_params(
        eta=1e-4, epsilon=1e-4, dt=1e-5, dx=0.01
    )
    op = BUILDERS[name](build_grid(50))
    stepper = Stepper(op, params)
    state = random_state(np.random.default_rng(67), 100, op.size)
    for _ in range(20):
        state = stepper.step(state)
    np.testing.assert_allclose(state.f.mean(axis=1), state.rho, rtol=0, atol=1e-14)


@pytest.mark.parametrize("nx", [3, 4, 100])
def test_second_difference_matches_the_roll_form(nx):
    a = np.random.default_rng(nx).standard_normal(nx)
    expected = (np.roll(a, -1) - a) - (a - np.roll(a, 1))
    assert np.array_equal(scheme._second_difference(a, np.empty(nx)), expected)


def _band_and_corner_matrix(n, rng, corners=True):
    """A symmetric tridiagonal matrix, with equal corners when ``corners``."""
    matrix = np.zeros((n, n))
    idx = np.arange(n)
    matrix[idx, idx] = 2.0 + rng.random(n)
    matrix[idx[1:], idx[1:] - 1] = matrix[idx[:-1], idx[:-1] + 1] = -rng.random(n - 1) - 0.1
    if corners:
        matrix[0, n - 1] = matrix[n - 1, 0] = -0.3
    return matrix


@pytest.fixture
def builder_names(monkeypatch):
    """Stub the three collision builders so each returns its own name."""
    for name in ("factor_tridiagonal", "factor_cyclic", "factor_positive_definite"):
        monkeypatch.setattr(scheme, name, lambda matrix, name=name: name)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_cyclic_bands_reject_any_off_band_entry(n, builder_names):
    rng = np.random.default_rng(n)
    with_corners = _band_and_corner_matrix(n, rng)
    assert _invert_collision_system(with_corners) == "factor_cyclic"
    off_band = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if abs(i - j) > 1 and {i, j} != {0, n - 1}
    ]
    # at n = 3 the bands and the corners cover the whole matrix
    assert len(off_band) == n * n - (3 * n - 2) - 2
    for matrix in (with_corners, _band_and_corner_matrix(n, rng, corners=False)):
        for i, j in off_band:
            stray = matrix.copy()
            stray[i, j] = 1e-300
            # one-sided or in a pair, a stray entry makes the pattern dense;
            # the dispatch reads the pattern alone, not the symmetry
            assert _invert_collision_system(stray) == "factor_positive_definite"
            stray[j, i] = 1e-300
            assert _invert_collision_system(stray) == "factor_positive_definite"


@pytest.mark.parametrize("n", [3, 4, 8])
def test_cyclic_bands_count_each_corner(n, builder_names):
    # two nonzero corners must count as 2: the sum of two numpy bools is True
    matrix = _band_and_corner_matrix(n, np.random.default_rng(n), corners=False)
    cyclic = matrix.copy()
    cyclic[0, n - 1] = cyclic[n - 1, 0] = -0.3
    assert _invert_collision_system(cyclic) == "factor_cyclic"
    # one corner alone is a cyclic pattern too; no record's D has one
    for i, j in ((0, n - 1), (n - 1, 0)):
        one_corner = matrix.copy()
        one_corner[i, j] = -0.3
        assert _invert_collision_system(one_corner) == "factor_cyclic"


@pytest.mark.parametrize(
    "name, nv, entry",
    [("fp", 4, "band"), ("fp", 10, "band"), ("sc", 6, "band"), ("sc", 6, "corner"),
     ("sc", 10, "corner")],
)
def test_stepper_rejects_an_asymmetric_banded_operator(name, nv, entry):
    # a tridiagonal (fp) or cyclic (sc) D whose two bands, or two corners,
    # differ: the collision closure and the re-centre assume 1^T D = 0.  The
    # record is refused, so no Stepper is built from it
    op = BUILDERS[name](build_grid(nv // 2))
    matrix = op.matrix.copy()
    i, j = (0, nv - 1) if entry == "corner" else (nv // 2, nv // 2 + 1)
    matrix[i, j] *= 1.5
    with pytest.raises(ConfigurationError, match="^operator-invalid: symmetric fails"):
        Stepper(dataclasses.replace(op, matrix=matrix), make_params())


@pytest.mark.parametrize("n", [3, 4, 8])
def test_cyclic_bands_of_a_plain_tridiagonal_matrix(n):
    rng = np.random.default_rng(n)
    for corners, kind in ((False, TridiagonalFactor), (True, CyclicTridiagonalFactor)):
        matrix = _band_and_corner_matrix(n, rng, corners=corners)
        factor = _invert_collision_system(matrix)
        assert type(factor) is kind
        np.testing.assert_allclose(factor.inverse @ matrix, np.eye(n), atol=1e-14)


@pytest.mark.parametrize(
    "name, builder",
    [("bgk", None), ("fp", "factor_tridiagonal"), ("sc", "factor_cyclic")],
)
def test_collision_builder_follows_the_operator_pattern(name, builder, builder_names):
    op = BUILDERS[name](build_grid(10))
    if builder is None:  # BGK's collision is folded into the assembly
        assert Stepper(op, make_params())._collision_factor is None
    else:
        assert _invert_collision_system(np.eye(op.size) - 0.5 * op.matrix) == builder


def test_stepper_rejects_a_dense_operator_that_is_not_negative_semidefinite():
    grid = build_grid(4)
    # -D is positive semidefinite, so it has negative off-diagonal entries;
    # the record is refused at any c, before a Stepper could see I + cD
    message = "^operator-invalid: nonnegative_off_diagonal fails"
    with pytest.raises(ConfigurationError, match=message):
        op = CollisionOperator(
            grid=grid,
            matrix=-dense_operator(grid).matrix,
            lambda_star=-1.0,
            u_vector=-grid.velocities,
        )
        Stepper(op, make_params(dt=1e-1))


def test_stepper_rejects_an_asymmetric_dense_operator():
    op = dense_operator(build_grid(4))
    matrix = op.matrix.copy()
    matrix[1, 3] *= 1.5
    with pytest.raises(ConfigurationError, match="^operator-invalid: symmetric fails"):
        Stepper(dataclasses.replace(op, matrix=matrix), make_params())


@pytest.mark.parametrize("nx", [3, 4, 7, 100])
def test_macro_fft_solve_matches_dense_circulant_solve(nx):
    op = build_bgk(build_grid(5))
    params = make_params(eta=1e-2, epsilon=1e-2, dt=1e-3, dx=1.0 / nx,
                         variant=Variant.IMPLICIT_DIFFUSION)
    ws = Stepper(op, params)
    mu = ws.macro_mu
    assert mu < 0
    circulant = np.zeros((nx, nx))
    for i in range(nx):
        circulant[i, i] += 1.0 - 2.0 * mu
        circulant[i, (i + 1) % nx] += mu
        circulant[i, (i - 1) % nx] += mu
    rhs = np.random.default_rng(nx).standard_normal(nx)
    expected = np.linalg.solve(circulant, rhs)
    np.testing.assert_allclose(ws._solve_macro(rhs), expected, rtol=0, atol=1e-13)


# ----------------------------------------------------------- single-step laws


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("variant", list(Variant))
def test_constant_state_is_a_fixed_point(name, variant):
    op = BUILDERS[name](build_grid(5))
    params = make_params(variant=variant)
    stepper = Stepper(op, params)
    for value in (1.0, 0.37):
        state = KineticState(np.full((12, 10), value), np.full(12, value))
        advanced = stepper.step(state)
        np.testing.assert_allclose(advanced.f, value, rtol=1e-13)
        np.testing.assert_allclose(advanced.rho, value, rtol=1e-13)


@pytest.mark.parametrize("name", ["fp", "sc"])
def test_constant_state_stays_within_a_few_ulp_when_stiff(name):
    # the closing rows' middle column, 1 - Q 1, takes the Q 1 rho_new in Q r
    # back out; without the - Q 1 a constant state moves by |Q 1|, which at
    # c = 1e3 and 2N = 100 is 3e-15 (fp) and 8e-15 (sc)
    op = BUILDERS[name](build_grid(50))
    stepper = Stepper(op, make_params(eta=1e-4, epsilon=1e-4, dt=1e-5))  # c = 1e3
    advanced = stepper.step(KineticState(np.ones((8, op.size)), np.ones(8)))
    np.testing.assert_allclose(advanced.f, 1.0, rtol=0, atol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("variant", list(Variant))
def test_mass_conserved_and_mean_consistent(name, variant):
    op = BUILDERS[name](build_grid(10))
    params = make_params(dt=5e-4, dx=1.0 / 25, variant=variant)
    stepper = Stepper(op, params)
    state = random_state(np.random.default_rng(31), 25, 20)
    mass0 = state.rho.sum()
    for _ in range(20):
        state = stepper.step(state)
        np.testing.assert_allclose(state.f.mean(axis=1), state.rho, rtol=0, atol=1e-13)
    np.testing.assert_allclose(state.rho.sum(), mass0, rtol=1e-13)


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("variant", list(Variant))
def test_step_leaves_its_input_alone(name, variant):
    op = OPERATORS[name](build_grid(4))
    stepper = Stepper(op, make_params(eta=0.5, epsilon=0.5, dt=1e-3, dx=1.0 / 9, variant=variant))
    kind = {"bgk": type(None), "sc": CyclicTridiagonalFactor}.get(name, TridiagonalFactor)
    assert type(stepper._collision_factor) is kind
    state = random_state(np.random.default_rng(43), 9, 8)
    # twice: the second step starts from a state the stepper made
    for _ in range(2):
        f0, rho0 = state.f.copy(), state.rho.copy()
        advanced = stepper.step(state)
        assert np.array_equal(state.f, f0) and np.array_equal(state.rho, rho0)
        assert not np.shares_memory(advanced.f, state.f)
        assert not np.shares_memory(advanced.rho, state.rho)
        state = advanced


@st.composite
def step_cases(draw):
    """A stepper on a small random mesh with dt inside the stability law, and
    a seed for the states it is applied to.  The operator is one of the
    three builders' or the dense record, so each inverse builder is drawn."""
    name = draw(st.sampled_from(sorted(OPERATORS)))
    variant = draw(st.sampled_from(list(Variant)))
    # nv = 2 is the smallest grid; the scattering cycle, in sc and in the
    # dense record, needs nv >= 4
    op = OPERATORS[name](build_grid(draw(st.integers(1 if name in ("bgk", "fp") else 2, 6))))
    nx = draw(st.integers(3, 12))
    eta = 10.0 ** draw(st.floats(-4.0, 0.0))
    epsilon = 10.0 ** draw(st.floats(-4.0, 2.0))
    dt = draw(st.floats(0.01, 1.0)) * default_time_step(1.0 / nx, eta)
    params = make_params(eta=eta, epsilon=epsilon, dt=dt, dx=1.0 / nx, variant=variant)
    return Stepper(op, params), nx, draw(st.integers(0, 2**32 - 1))


def normal_state(rng, nx, nv):
    f = rng.standard_normal((nx, nv))
    return KineticState(f=f, rho=f.mean(axis=1))


def assert_states_close(actual, expected, scale):
    # one step may amplify its input; round-off scales with the output
    tol = 1e-10 * max(1.0, scale)
    np.testing.assert_allclose(actual.f, expected.f, rtol=0, atol=tol)
    np.testing.assert_allclose(actual.rho, expected.rho, rtol=0, atol=tol)


@settings(max_examples=100, deadline=None)
@given(step_cases())
def test_step_commutes_with_reflection(case):
    # x -> 1 - x together with v -> -v: every operator commutes with
    # velocity reversal, so the scheme must too
    stepper, nx, seed = case
    state = normal_state(np.random.default_rng(seed), nx, stepper.op.size)
    mirrored = KineticState(state.f[::-1, ::-1].copy(), state.rho[::-1].copy())
    advanced = stepper.step(state)
    expected = KineticState(advanced.f[::-1, ::-1], advanced.rho[::-1])
    assert_states_close(stepper.step(mirrored), expected, np.abs(advanced.f).max())


@settings(max_examples=100, deadline=None)
@given(step_cases(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_step_is_linear(case, a, b):
    stepper, nx, seed = case
    rng = np.random.default_rng(seed)
    first = normal_state(rng, nx, stepper.op.size)
    second = normal_state(rng, nx, stepper.op.size)
    combined = KineticState(a * first.f + b * second.f, a * first.rho + b * second.rho)
    out1, out2 = stepper.step(first), stepper.step(second)
    expected = KineticState(a * out1.f + b * out2.f, a * out1.rho + b * out2.rho)
    scale = max(np.abs(out1.f).max(), np.abs(out2.f).max())
    assert_states_close(stepper.step(combined), expected, scale)


@settings(max_examples=100, deadline=None)
@given(step_cases())
def test_step_is_bitwise_deterministic(case):
    # two steppers built from the same operator and parameters
    stepper, nx, seed = case
    twin = Stepper(stepper.op, stepper.params)
    first = second = normal_state(np.random.default_rng(seed), nx, stepper.op.size)
    for _ in range(3):
        first, second = stepper.step(first), twin.step(second)
    assert np.array_equal(first.f, second.f)
    assert np.array_equal(first.rho, second.rho)


@settings(max_examples=100, deadline=None)
@given(step_cases())
def test_step_conserves_mass(case):
    stepper, nx, seed = case
    state = normal_state(np.random.default_rng(seed), nx, stepper.op.size)
    advanced = stepper.step(state)
    scale = max(np.abs(state.f).max(), np.abs(advanced.f).max())
    np.testing.assert_allclose(advanced.rho.sum(), state.rho.sum(), rtol=0, atol=1e-12 * nx * scale)
    np.testing.assert_allclose(advanced.f.mean(axis=1), advanced.rho, rtol=0, atol=1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(step_cases(), st.floats(-8.0, 8.0))
def test_step_keeps_rho_the_mean_of_f_at_any_stiffness(case, log_c):
    # the re-centre, folded into the assembly for BGK, must hold from the
    # collisionless c = 1e-8 to the stiff c = 1e8
    stepper, nx, seed = case
    p = stepper.params
    sigma = 10.0**log_c * p.epsilon * p.eta / p.dt
    stiff = Stepper(stepper.op, dataclasses.replace(p, sigma=sigma))
    advanced = stiff.step(normal_state(np.random.default_rng(seed), nx, stepper.op.size))
    tol = 1e-13 * max(1.0, np.abs(advanced.f).max())
    np.testing.assert_allclose(advanced.f.mean(axis=1), advanced.rho, rtol=0, atol=tol)


@settings(max_examples=100, deadline=None)
@given(step_cases(), st.floats(-1e3, 1e3))
def test_constant_states_are_fixed_points(case, value):
    stepper, nx, _ = case
    state = KineticState(np.full((nx, stepper.op.size), value), np.full(nx, value))
    advanced = stepper.step(state)
    np.testing.assert_allclose(advanced.f, value, rtol=1e-13, atol=1e-300)
    np.testing.assert_allclose(advanced.rho, value, rtol=1e-13, atol=1e-300)


def cell_major_step(stepper, state):
    """One step from np.roll on the cell-major (nx, 2N) array and a dense
    collision solve: an oracle that shares no indexing with Stepper.step."""
    op, p, co = stepper.op, stepper.params, stepper.coeffs
    v, h, n = op.grid.velocities, op.grid.half_count, op.size
    f, rho = state.f, state.rho
    right = np.roll(f, -1, axis=0)

    def jump(a):
        return a - np.roll(a, 1, axis=0)

    edge_rho = (f[:, h:].sum(axis=1) + right[:, :h].sum(axis=1)) / n
    edge_j = (f[:, h:] @ v[h:] + right[:, :h] @ v[:h]) / n
    ratio = p.dt / p.dx
    if p.variant is Variant.EXPLICIT_DIFFUSION:
        grad = (np.roll(rho, -1) - rho) / p.dx
        rho_new = rho - ratio * jump(co.a_coef * edge_j + co.d_coef * float(v @ v) / n * grad)
    else:
        rho_new = stepper._solve_macro(rho - ratio * co.a_coef * jump(edge_j))
        grad = (np.roll(rho_new, -1) - rho_new) / p.dx
    upwind = np.where(v > 0, jump(f), jump(right))
    rhs = f - ratio * (
        co.a_coef * v * upwind
        + np.outer(jump(edge_rho), co.c_coef * v)
        + np.outer(jump(grad), co.d_coef * op.lambda_star * op.u_vector * v)
    )
    system = np.eye(n) - p.stiffness * op.matrix
    fluctuation = np.linalg.solve(system, (rhs - rho_new[:, None]).T).T
    return KineticState(rho_new[:, None] + fluctuation, rho_new)


@settings(max_examples=100, deadline=None)
@given(step_cases())
def test_step_takes_either_memory_order_and_returns_velocity_major(case):
    # the step works on f.T as one C-contiguous block: a C-ordered entry
    # state is copied to that order, a Fortran-ordered one is read in place
    stepper, nx, seed = case
    state = normal_state(np.random.default_rng(seed), nx, stepper.op.size)
    # twice: the second step starts from a state the stepper made
    for _ in range(2):
        fortran = KineticState(np.asfortranarray(state.f), state.rho.copy())
        assert state.f.flags.c_contiguous and fortran.f.flags.f_contiguous
        from_c, from_f = stepper.step(state), stepper.step(fortran)
        assert from_c.f.flags.f_contiguous and from_f.f.flags.f_contiguous
        assert np.array_equal(from_c.f, from_f.f)
        assert np.array_equal(from_c.rho, from_f.rho)
        expected = cell_major_step(stepper, state)
        assert_states_close(from_c, expected, np.abs(expected.f).max())
        state = KineticState(np.ascontiguousarray(from_f.f), from_f.rho)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_step_matches_per_interface_oracle(name):
    # the whole-mesh flux assembly against the per-interface formulas looped
    # over interfaces, followed by a dense solve of I - cD in every cell
    op = BUILDERS[name](build_grid(4))
    nx = 7
    params = make_params(eta=0.3, epsilon=0.2, dt=2e-3, dx=1.0 / nx)
    state = normal_state(np.random.default_rng(61), nx, op.size)
    expected = per_interface_step(op, params, state)
    advanced = Stepper(op, params).step(state)
    np.testing.assert_allclose(advanced.rho, expected.rho, rtol=0, atol=1e-12)
    np.testing.assert_allclose(advanced.f, expected.f, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(step_cases(), st.floats(-3.0, 3.0))
def test_step_matches_per_interface_oracle_anywhere(case, log_sigma):
    # the whole step against the per-interface formulas at random eta, eps,
    # sigma, dt, mesh, grid, operator and variant.  The tolerance is the one
    # above, relative to the output once it exceeds 1 and times the condition
    # numbers of the collision system I - cD and of the implicit macro system
    # (eigenvalues 1 to 1 + 4|mu|): two sound solves of a system differ by
    # up to that much, and on the stiffest draws they differ by about 1e-7
    stepper, nx, seed = case
    op = stepper.op
    params = dataclasses.replace(stepper.params, sigma=10.0**log_sigma)
    state = normal_state(np.random.default_rng(seed), nx, op.size)
    expected = per_interface_step(op, params, state)
    stepped = Stepper(op, params)
    advanced = stepped.step(state)
    condition = 1.0 + params.stiffness * np.linalg.norm(op.matrix, 2)
    if params.variant is Variant.IMPLICIT_DIFFUSION:
        condition *= 1.0 + 4.0 * abs(stepped.macro_mu)
    tol = 1e-12 * max(1.0, np.abs(expected.f).max()) * condition
    np.testing.assert_allclose(advanced.rho, expected.rho, rtol=0, atol=tol)
    np.testing.assert_allclose(advanced.f, expected.f, rtol=0, atol=tol)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_stepper_caches_hold_for_every_cell_count(name, variant):
    # one Stepper keeps the upwind scale and the macro eigenvalues for the
    # cell count it stepped last; stepping 50, then 80, then 50 cells again
    # must give bitwise what fresh Steppers give
    op = BUILDERS[name](build_grid(5))
    params = make_params(variant=variant, dx=1.0 / 50)
    shared = Stepper(op, params)
    rng = np.random.default_rng(43)
    for nx in (50, 80, 50):
        state = normal_state(rng, nx, op.size)
        advanced, fresh = shared.step(state), Stepper(op, params).step(state)
        assert np.array_equal(advanced.f, fresh.f)
        assert np.array_equal(advanced.rho, fresh.rho)


def _preset_stepper(name, preset):
    """The explicit step at nv = 16, dt = 1e-5 and dx = 0.01 on a preset's (eta, epsilon)."""
    scenario = PRESETS[preset]
    params = make_params(eta=scenario.eta, epsilon=scenario.epsilon, dt=1e-5, dx=0.01)
    return Stepper(BUILDERS[name](build_grid(8)), params)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_an_explicit_step_reaches_only_the_two_neighbours(name, preset):
    f = np.zeros((16, 16))
    f[5] = np.random.default_rng(3).random(16)
    stepped = _preset_stepper(name, preset).step(KineticState(f, f.mean(axis=1))).f
    assert not stepped[np.r_[:4, 7:16]].any()
    assert stepped[4].any() and stepped[6].any()


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_stencil_symbol_is_the_stepped_fourier_mode(name, preset):
    # f_i = a e^{i theta i} steps to G(theta) a e^{i theta i}; the step is
    # real, so the real and imaginary parts are stepped apart
    stepper = _preset_stepper(name, preset)
    minus, centre, plus = stencil_blocks(stepper)
    a = np.random.default_rng(5).random(16)
    cells = np.arange(16)
    for theta in 2.0 * np.pi * cells / 16:
        mode = np.exp(1j * theta * cells)[:, None] * a
        stepped = [stepper.step(KineticState(part, part.mean(axis=1))).f
                   for part in (mode.real, mode.imag)]
        symbol = minus * np.exp(-1j * theta) + centre + plus * np.exp(1j * theta)
        expected = np.exp(1j * theta * cells)[:, None] * (symbol @ a)
        np.testing.assert_allclose(stepped[0] + 1j * stepped[1], expected, rtol=0, atol=1e-13)


def test_near_transport_step_matches_upwind():
    # collisionless regime: the kinetic flux degenerates to donor-cell upwind
    op = build_bgk(build_grid(10))
    params = make_params(eta=1.0, epsilon=1e8, dt=1e-4, dx=0.02)
    state = random_state(np.random.default_rng(37), 50, 20)
    advanced = Stepper(op, params).step(state)
    expected = upwind_transport_step(state.f, params.dt, params.dx, params.eta, op.grid)
    np.testing.assert_allclose(advanced.f, expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_stiff_steps_track_limit_diffusion_scheme(name):
    op = BUILDERS[name](build_grid(10))
    nx = 50
    params = make_params(eta=1e-7, epsilon=1e-7, dt=1e-5, dx=1.0 / nx)
    x = (np.arange(nx) + 0.5) / nx
    rho = 1.0 + 0.3 * np.sin(2.0 * np.pi * x)
    state = KineticState(np.repeat(rho[:, None], 20, axis=1), rho.copy())
    grid = op.grid
    kappa_d = float(grid.velocities @ grid.velocities) / grid.size / abs(op.lambda_star)
    stepper = Stepper(op, params)
    for _ in range(20):
        predicted = limit_diffusion_step(state.rho, params.dt, params.dx, kappa_d)
        state = stepper.step(state)
        np.testing.assert_allclose(state.rho, predicted, rtol=0, atol=1e-8)


def test_implicit_variant_stable_beyond_explicit_step_limit():
    op = build_bgk(build_grid(10))
    nx = 50
    dt = 10.0 * default_time_step(1.0 / nx, 1e-4)
    params = make_params(
        eta=1e-4, epsilon=1e-4, dt=dt, dx=1.0 / nx, variant=Variant.IMPLICIT_DIFFUSION
    )
    x = (np.arange(nx) + 0.5) / nx
    rho = 1.0 + 0.5 * np.sin(2.0 * np.pi * x)
    state = KineticState(np.repeat(rho[:, None], 20, axis=1), rho.copy())
    mass0 = state.rho.sum()
    stepper = Stepper(op, params)
    for _ in range(50):
        state = stepper.step(state)
    assert np.isfinite(state.f).all()
    # amplitudes may only shrink toward the flat equilibrium
    assert state.rho.max() <= rho.max() + 1e-12
    assert state.rho.min() >= rho.min() - 1e-12
    np.testing.assert_allclose(state.rho.sum(), mass0, rtol=1e-12)


# -------------------------------------------------------------- run() driver


def test_run_rejects_a_grid_other_than_the_operators():
    op = build_bgk(build_grid(2))
    state = random_state(np.random.default_rng(41), 5, 4)
    with pytest.raises(ConfigurationError, match="N = 3"):
        run(state, make_params(dx=0.2), op, build_grid(3), n_steps=1)


@pytest.mark.parametrize("case", ["velocity-count", "short-rho", "one-dimensional-f"])
def test_run_rejects_a_state_of_the_wrong_shape(case):
    # each gave a raw numpy error
    op, nx = build_bgk(build_grid(2)), 5
    f, rho = {
        "velocity-count": (np.ones((nx, 6)), np.ones(nx)),
        "short-rho": (np.ones((nx, 4)), np.ones(nx - 1)),
        "one-dimensional-f": (np.ones(4), np.ones(nx)),
    }[case]
    with pytest.raises(ConfigurationError) as error:
        run(KineticState(f, rho), make_params(dx=0.2), op, op.grid, n_steps=1)
    assert str(f.shape) in str(error.value) and str(rho.shape) in str(error.value)


# the first three returned steps == -5 or steps is True, or ran without end
BAD_COUNTS = {
    "negative": (dict(n_steps=-5), r"n_steps must be in \[0, 2\*\*53\], got -5"),
    "bool": (dict(n_steps=True), "n_steps expects int, got True"),
    "1e20": (dict(n_steps=10**20), r"n_steps must be in \[0, 2\*\*53\], got 10{20}"),
    "2**53+1": (dict(n_steps=2**53 + 1), "n_steps must be in"),
    "float": (dict(n_steps=10.0), "n_steps expects int, got 10.0"),
    "float-snapshot": (dict(n_steps=3, snapshot_steps=(1.5,)), "snapshot step expects int, got 1.5"),
    "negative-snapshot": (dict(n_steps=3, snapshot_steps=(-1,)), "snapshot step must be in"),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_run_takes_counts_by_the_one_count_rule(case):
    counts, message = BAD_COUNTS[case]
    op = build_bgk(build_grid(2))
    state = random_state(np.random.default_rng(41), 5, 4)
    with pytest.raises(ConfigurationError, match=message):
        run(state, make_params(dx=0.2), op, op.grid, **counts)


def test_require_count_takes_integers_alone():
    assert scheme.require_count("n", np.int64(7), 0) == 7
    assert type(scheme.require_count("n", np.int32(2**31 - 1), 0)) is int
    assert scheme.require_count("n", 2**53, 0) == 2**53
    for value in (True, 7.0, "7", None, 7.5):
        with pytest.raises(ConfigurationError, match="n expects int"):
            scheme.require_count("n", value, 0)
    with pytest.raises(ConfigurationError, match=r"n must be in \[3, 2\*\*53\], got 2"):
        scheme.require_count("n", 2, 3)


def test_run_rejects_a_rho_that_is_not_the_mean_of_f():
    op = build_bgk(build_grid(2))
    state = random_state(np.random.default_rng(71), 5, 4)
    state.rho += 1e-6
    with pytest.raises(ConfigurationError, match=r"not the velocity mean .* largest gap 1\.000e-06"):
        run(state, make_params(dx=0.2), op, op.grid, n_steps=1)


def test_run_resumes_from_its_own_final_state():
    op = build_scattering(build_grid(10))
    params = make_params(dx=0.05)
    state = random_state(np.random.default_rng(73), 20, 20)
    first = run(state, params, op, op.grid, n_steps=200)
    resumed = run(first.final, params, op, op.grid, n_steps=200)
    whole = run(state, params, op, op.grid, n_steps=400)
    np.testing.assert_array_equal(resumed.final.f, whole.final.f)
    np.testing.assert_array_equal(resumed.final.rho, whole.final.rho)
    # the state holds no time: the resumed run counts its own from 0
    assert [snap.time for snap in resumed.snapshots] == [0.0, 200 * params.dt]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_collision_recentre_keeps_rho_the_mean_of_f_over_a_long_run(name):
    # for fp, the uncentred inverse alone lets the gap grow to 6e-14 over
    # these steps; re-centring each cell on rho_new holds it at round-off
    op = BUILDERS[name](build_grid(50))
    params = make_params(eta=1e-4, epsilon=1e-4, dt=1e-5, dx=1.0 / 50)
    f = 1.0 + np.random.default_rng(0).random((50, 100))
    final = run(KineticState(f, f.mean(axis=1)), params, op, op.grid, n_steps=3000).final
    assert np.abs(final.f.mean(axis=1) - final.rho).max() <= 4e-15


def test_run_rejects_non_finite_state():
    op = build_fokker_planck(build_grid(2))
    state = random_state(np.random.default_rng(67), 5, 4)
    state.f[2, 1] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
        SolverError, match="step 2, t = 0.2: non-finite state"
    ):
        run(state, make_params(dt=0.1, dx=0.2), op, op.grid, n_steps=2)


def test_run_zero_steps_returns_initial_state():
    op = build_bgk(build_grid(2))
    state = random_state(np.random.default_rng(43), 5, 4)
    result = run(state, make_params(dx=0.2), op, op.grid, n_steps=0)
    assert result.steps == 0
    assert len(result.snapshots) == 1
    np.testing.assert_array_equal(result.snapshots[0].rho, state.rho)
    assert result.mass_drift == 0.0


def constant_scenario(dt=0.7, times=(0.7,)):
    """A three-cell BGK scenario at eta = 10, where a step of 0.7 has CFL about 0.1."""
    return Scenario(
        name="steps", operator="bgk", eta=10.0, epsilon=1.0, sigma=1.0,
        nx=3, nv=2, dt=dt, t_snapshots=times,
    )


def snapshot_steps_of(scenario):
    return [snap.step for snap in run_scenario(scenario).result.snapshots]


def test_run_step_count_from_t_end():
    # Scenario's step count: the last time over dt, counted from t = 0
    scenario = constant_scenario(dt=0.1, times=(0.5,))
    assert scenario.snapshot_steps == {5: 0.5}
    result = run_scenario(scenario).result
    assert result.steps == 5
    assert result.snapshots[-1].time == 5 * 0.1


def test_run_snapshot_placement():
    op = build_bgk(build_grid(2))
    state = random_state(np.random.default_rng(53), 5, 4)
    params = make_params(dt=0.1, dx=0.2)
    # step 0 is always the first snapshot, and a step past the last is ignored
    result = run(state, params, op, op.grid, n_steps=5, snapshot_steps=(0, 3, 5, 7))
    times = [snap.time for snap in result.snapshots]
    steps = [snap.step for snap in result.snapshots]
    assert steps == [0, 3, 5]
    assert times == [k * params.dt for k in steps]
    # the final state is always snapshotted, once
    result = run(state, params, op, op.grid, n_steps=4)
    assert [snap.step for snap in result.snapshots] == [0, 4]
    for snap in result.snapshots:
        np.testing.assert_allclose(snap.mass, params.dx * snap.rho.sum(), rtol=1e-15)


def test_run_snapshot_steps_follow_the_step_count_rule():
    # after 304 steps of 0.7 the summed time falls short of 212.8 by more than
    # 1e-12, so a time comparison took that snapshot one step late, at the
    # last step, and dropped the 213.5 one
    scenario = constant_scenario(times=(212.8, 213.5))
    assert scenario.snapshot_steps == {304: 212.8, 305: 213.5}
    assert snapshot_steps_of(scenario) == [0, 304, 305]
    assert run_scenario(constant_scenario(times=(212.8,))).result.steps == 304


def test_run_gives_two_times_in_one_step_one_snapshot():
    scenario = constant_scenario(dt=1e-3, times=(0.0025, 0.0026, 0.004))
    assert scenario.snapshot_steps == {3: 0.0025, 4: 0.004}
    assert snapshot_steps_of(scenario) == [0, 3, 4]


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.05, 1.0),
    st.lists(st.one_of(st.floats(1e-6, 100.0), st.integers(1, 100)), min_size=1, max_size=4),
)
def test_each_snapshot_sits_at_the_step_count_of_its_time(dt, offsets):
    # integer offsets put a time on a multiple of dt, up to its rounding
    times = sorted({dt * x for x in offsets})
    scenario = constant_scenario(dt, tuple(times))
    steps = scenario.snapshot_steps
    assert list(steps) == sorted(steps)
    for t in times:
        step = max(constant_scenario(dt, (t,)).snapshot_steps)
        assert steps.get(step, t) <= t  # the first time of a step labels it
        # the first step whose end reaches t, to within 1e-9 of a step
        ratio = Fraction(t) / Fraction(dt)
        assert ratio - Fraction(11, 10**10) <= step < ratio + 1 - Fraction(9, 10**10)
    assert snapshot_steps_of(scenario) == [0, *steps]


def test_mass_drift_of_a_mean_zero_density():
    # rows of alternating +-1: rho = 0 in every cell and the mass is zero
    op = build_bgk(build_grid(2))
    f = np.tile([1.0, -1.0, 1.0, -1.0], (5, 1))
    state = KineticState(f, f.mean(axis=1))
    result = run(state, make_params(dx=0.2), op, op.grid, n_steps=3)
    assert result.mass_drift == 0.0
    # cells of +-1: zero mass, so the drift is relative to the mass of |rho|
    f = np.repeat([[1.0], [-1.0], [1.0], [-1.0], [1.0], [-1.0]], 4, axis=1)
    state = KineticState(f, f.mean(axis=1))
    result = run(state, make_params(dx=1.0 / 6), op, op.grid, n_steps=3)
    assert result.mass_scale == pytest.approx(1.0)
    assert abs(result.mass_drift) <= 1e-14


def test_run_reports_timing():
    op = build_bgk(build_grid(2))
    state = random_state(np.random.default_rng(59), 5, 4)
    result = run(state, make_params(dx=0.2), op, op.grid, n_steps=3)
    assert result.seconds_per_step > 0.0
