"""Grid construction, the three collision operators, and their diagnostics."""

import dataclasses
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cho_solve_mean_zero, u_and_lambda
from ugks1d import errors, scenarios, scheme, velocity_space
from ugks1d.errors import ConfigurationError
from ugks1d.velocity_space import (
    _SCATTERING_SCALE,
    CollisionOperator,
    OperatorKind,
    build_bgk,
    build_fokker_planck,
    build_grid,
    build_scattering,
    entropy_dissipation,
    validate_operator,
)

BUILDERS = {
    "bgk": build_bgk,
    "fp": build_fokker_planck,
    "sc": build_scattering,
}

# operator_contract's checks, in report order
CONTRACT_CHECKS = ("symmetric", "zero_row_sums", "nonnegative_off_diagonal",
                   "d_u_equals_v", "u_mean_zero", "lambda_star")


def test_grid_layout():
    grid = build_grid(5)
    assert grid.size == 10
    assert grid.delta_v == 0.2
    v = grid.velocities
    np.testing.assert_allclose(np.diff(v), grid.delta_v, rtol=1e-15)
    assert v[0] == -0.9 and v[-1] == 0.9
    # exact antisymmetry and no zero velocity: upwinding never ties
    np.testing.assert_array_equal(v + v[::-1], np.zeros(10))
    assert (v != 0.0).all()


def test_grid_rejects_empty():
    with pytest.raises(ConfigurationError):
        build_grid(0)


@pytest.mark.parametrize("half_count", [2.5, 2.0, True, "2", None])
def test_grid_takes_its_half_count_by_the_count_rule(half_count):
    # 2.5 gave a five-velocity grid holding v = 0, and True a grid of two
    with pytest.raises(ConfigurationError, match="half_count expects int"):
        build_grid(half_count)


@pytest.mark.parametrize("half_count", [0, -1, 2.5, True, "2"])
def test_velocity_grid_checks_its_own_half_count(half_count):
    # VelocityGrid(2.5) held v = 0, True was a grid of two, and 0 raised a
    # bare ZeroDivisionError; only build_grid checked the count
    with pytest.raises(ConfigurationError, match="half_count"):
        velocity_space.VelocityGrid(half_count)


def test_grid_half_count_is_an_int():
    grid = build_grid(np.int64(3))
    assert type(grid.half_count) is int and grid == build_grid(3)
    with pytest.raises(ConfigurationError, match=r"half_count must be in \[1, 2\*\*53\], got 0"):
        build_grid(0)


def test_the_argument_rules_live_below_every_module():
    for name in ("require_count", "require_positive_finite", "require_choice"):
        assert getattr(scheme, name) is getattr(errors, name)
        assert getattr(scenarios, name) is getattr(errors, name)
    assert errors.MAX_EXACT_COUNT == 2**53


def test_grid_is_its_half_count():
    assert [f.name for f in dataclasses.fields(build_grid(3))] == ["half_count"]
    assert build_grid(3) == build_grid(3)
    assert hash(build_grid(3)) == hash(build_grid(3))
    assert build_grid(3) != build_grid(4)
    grid = build_grid(3)
    assert grid.velocities is grid.velocities  # computed once
    assert not grid.velocities.flags.writeable


@pytest.mark.parametrize("half", [1, 50, 100])
def test_bgk_matrix_is_p0_minus_the_identity_bitwise(half):
    n = 2 * half
    np.testing.assert_array_equal(build_bgk(build_grid(half)).matrix,
                                  np.full((n, n), 1.0 / n) - np.eye(n), strict=True)


def _operator(grid, matrix, u_vector):
    return CollisionOperator(grid, matrix, -1.0, u_vector)


@pytest.mark.parametrize("matrix_shape, u_shape", [((4, 4), (4,)), ((6, 6), (4,)), ((6,), (6,)),
                                                   ((6, 6), (6, 1))])
def test_collision_operator_checks_its_shapes(matrix_shape, u_shape):
    # a 4 x 4 matrix gave IndexError in Stepper, a (4,) u_vector ValueError
    grid = build_grid(3)
    with pytest.raises(ConfigurationError, match=re.escape(f"shapes ({matrix_shape}, {u_shape})")):
        _operator(grid, np.zeros(matrix_shape), np.zeros(u_shape))


@pytest.mark.parametrize("where", ["matrix", "u_vector"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_collision_operator_checks_that_it_is_finite(where, value):
    op = build_scattering(build_grid(3))
    arrays = {"matrix": op.matrix.copy(), "u_vector": op.u_vector.copy()}
    arrays[where].flat[3] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="matrix and u_vector must be finite"):
            _operator(op.grid, arrays["matrix"], arrays["u_vector"])


def test_bgk_smallest_grid_matrix():
    op = build_bgk(build_grid(1))
    np.testing.assert_array_equal(op.matrix, [[-0.5, 0.5], [0.5, -0.5]])
    assert op.lambda_star == -1.0


def test_fokker_planck_smallest_grid_matrix():
    op = build_fokker_planck(build_grid(1))
    np.testing.assert_array_equal(op.matrix, [[-1.0, 1.0], [1.0, -1.0]])
    assert op.lambda_star == -2.0


def test_fokker_planck_integer_edge_weights():
    op = build_fokker_planck(build_grid(5))
    # interior edges m = -4..4 carry weights N^2 - m^2
    expected = [9.0, 16.0, 21.0, 24.0, 25.0, 24.0, 21.0, 16.0, 9.0]
    np.testing.assert_array_equal(np.diag(op.matrix, -1), expected)
    np.testing.assert_array_equal(np.diag(op.matrix, 1), expected)
    np.testing.assert_array_equal(op.matrix @ np.ones(10), np.zeros(10))


@pytest.mark.parametrize("half", [1, 5, 50, 200])
def test_fokker_planck_velocity_eigenvector_exact_on_integer_grid(half):
    op = build_fokker_planck(build_grid(half))
    n = 2 * half
    # 2N * v_j = 2j - 2N - 1 is an integer vector, exact in floats
    w = 2.0 * np.arange(1, n + 1) - n - 1
    np.testing.assert_array_equal(op.matrix @ w + 2.0 * w, np.zeros(n))


@pytest.mark.parametrize("half", [1, 5, 50])
def test_fokker_planck_u_vector(half):
    op = build_fokker_planck(build_grid(half))
    np.testing.assert_array_equal(op.u_vector, -0.5 * op.grid.velocities)
    np.testing.assert_allclose(
        op.matrix @ op.u_vector, op.grid.velocities, atol=1e-11
    )


def test_bgk_u_vector_is_negated_velocity():
    op = build_bgk(build_grid(50))
    np.testing.assert_array_equal(op.u_vector, -op.grid.velocities)
    np.testing.assert_allclose(
        op.matrix @ op.u_vector, op.grid.velocities, atol=1e-13
    )


def test_scattering_smallest_cycle_closed_form():
    op = build_scattering(build_grid(2))
    c = 0.1 / 0.5**2
    expected = c * np.array(
        [
            [-2.0, 1.0, 0.0, 1.0],
            [1.0, -2.0, 1.0, 0.0],
            [0.0, 1.0, -2.0, 1.0],
            [1.0, 0.0, 1.0, -2.0],
        ]
    )
    np.testing.assert_allclose(op.matrix, expected, rtol=1e-15)
    # hand-solved D U = V on the 4-cycle
    np.testing.assert_allclose(
        op.u_vector, [0.78125, 0.46875, -0.46875, -0.78125], atol=1e-11
    )
    np.testing.assert_allclose(op.lambda_star, -8.0 / 9.0, atol=1e-11)


def test_scattering_needs_three_velocities():
    with pytest.raises(ConfigurationError, match="at least 3"):
        build_scattering(build_grid(1))


@pytest.mark.parametrize("half", [2, 3, 4, 50, 400])
def test_scattering_closed_form_is_exact_in_rational_arithmetic(half):
    # D U = V on every row, wrap rows included, <U, 1> = 0 and lambda_star,
    # in exact arithmetic; then the stored floats against the exact values
    n, scale = 2 * half, Fraction(1, 10)
    v = [Fraction(2 * j - n - 1, n) for j in range(1, n + 1)]
    a = 1 + Fraction(3, 4 * half * half)
    u = [(x**3 - a * x) / (6 * scale) for x in v]
    weight = scale * half * half  # s / dv^2
    for j in range(n):
        assert weight * (u[(j + 1) % n] - 2 * u[j] + u[j - 1]) == v[j]
    assert sum(u) == 0
    exact = sum(x * x for x in v) / sum(x * y for x, y in zip(u, v))
    n2 = Fraction(half * half)
    assert exact == -(24 - 6 / n2) / (16 + 40 / n2 - 11 / n2**2) == -6 * n2 / (4 * n2 + 11)
    op = build_scattering(build_grid(half))
    assert op.lambda_star == float(exact)  # correctly rounded
    u_exact = np.array([float(x) for x in u])
    assert np.abs(op.u_vector - u_exact).max() <= 1e-15 * np.abs(u_exact).max()
    np.testing.assert_array_equal(op.u_vector[::-1], -op.u_vector)  # exactly odd


@pytest.mark.parametrize("half", [2, 3, 4, 50, 400])
def test_scattering_closed_form_matches_the_mean_zero_solve(half):
    op = build_scattering(build_grid(half))
    v = op.grid.velocities
    u = cho_solve_mean_zero(op.matrix, v)
    assert np.abs(op.u_vector - u).max() <= 1e-13 * np.abs(u).max()
    # the solve's own lambda_star is off by about cond(D) eps after its
    # refinement step, 5.5e-14 relative at N = 400; the closed form is exact
    np.testing.assert_allclose(op.lambda_star, (v @ v) / (u @ v), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("half", [1, 2, 3, 50, 400])
def test_band_matrices_hold_their_edge_weights_bitwise(half):
    # each entry to the bit, +0.0 included: the preset digest was the only
    # other check that would see a one-bit change in these matrices
    grid = build_grid(half)
    n = grid.size
    m = np.arange(1, n) - half
    edges = (half * half - m * m).astype(float)  # the inner edges, at v = m/N
    left, right = np.r_[0.0, edges], np.r_[edges, 0.0]
    fp = np.diag(edges, -1) + np.diag(edges, 1) + np.diag(-(left + right))
    assert build_fokker_planck(grid).matrix.tobytes() == fp.tobytes()
    if n < 3:
        return
    c = _SCATTERING_SCALE / grid.delta_v**2
    sc = np.diag(np.full(n - 1, c), -1) + np.diag(np.full(n - 1, c), 1) + np.diag(np.full(n, -2.0 * c))
    sc[0, n - 1] = sc[n - 1, 0] = c
    assert build_scattering(grid).matrix.tobytes() == sc.tobytes()


@pytest.mark.parametrize("half", [2, 5, 50])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_operators_pass_structural_validation(name, half):
    op = BUILDERS[name](build_grid(half))
    report = validate_operator(op)
    assert report.passed, report.lines()
    assert len(report.lines()) == 7
    assert all("ok" in line for line in report.lines())


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_u_and_lambda_consistency(name):
    op = BUILDERS[name](build_grid(20))
    v = op.grid.velocities
    u, lam = u_and_lambda(op.matrix, v)
    np.testing.assert_allclose(u, op.u_vector, atol=1e-9)
    np.testing.assert_allclose(lam, op.lambda_star, atol=1e-10)
    assert abs(u.sum()) <= 1e-10
    np.testing.assert_allclose(op.matrix @ u, v, atol=1e-9)


# ------------------------------------------------------ the operator contract


def _sc100_stray():
    op = build_scattering(build_grid(50))
    matrix = op.matrix.copy()
    matrix[3, 7] = 5e-324  # one-sided, off the cyclic pattern
    return op, {"matrix": matrix}


def _sc100_negative_pair():
    op = build_scattering(build_grid(50))
    matrix = op.matrix.copy()
    matrix[3, 7] = matrix[7, 3] = -1e-3  # symmetric, and still negative semidefinite
    matrix[3, 3] += 1e-3
    matrix[7, 7] += 1e-3
    return op, {"matrix": matrix}


def _sc100_wrong_lambda():
    return build_scattering(build_grid(50)), {"lambda_star": -5.0}


def _bgk6_positive_mode():
    # symmetric, rows sum to zero, top eigenvalue 3
    op = build_bgk(build_grid(3))
    w = np.zeros(6)
    w[0], w[1] = 1.0, -1.0
    return op, {"matrix": op.matrix + 2.0 * np.outer(w, w)}


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize(
    "case, check",
    [(_sc100_stray, "symmetric"), (_sc100_negative_pair, "nonnegative_off_diagonal"),
     (_sc100_wrong_lambda, "lambda_star"), (_bgk6_positive_mode, "nonnegative_off_diagonal")],
)
def test_the_record_refuses_what_the_stepper_used_to_judge(case, check, c):
    # each reached Stepper and was judged by its pattern and by c, or not at
    # all; the record now refuses it, whatever the stiffness c of the run
    op, changes = case()
    params = scheme.SchemeParams(eta=1.0, epsilon=1.0, sigma=1.0, dt=c, dx=0.01)
    assert params.stiffness == c
    with pytest.raises(ConfigurationError, match=f"^operator-invalid: {check} fails"):
        scheme.Stepper(dataclasses.replace(op, **changes), params)


def test_each_record_rule_is_checked_at_its_tolerance():
    op = build_scattering(build_grid(5))
    matrix = op.matrix.copy()
    matrix[2, 2] *= 1.0 + 1e-12  # the row sum, 1e-12 |D_22|, is beyond 1e-13
    failing = {
        "zero_row_sums": {"matrix": matrix},
        "d_u_equals_v": {"u_vector": op.u_vector * (1.0 + 1e-8)},
        "u_mean_zero": {"u_vector": op.u_vector + 1e-9},
        "lambda_star": {"lambda_star": op.lambda_star * (1.0 + 1e-11)},
    }
    for check, changes in failing.items():
        with pytest.raises(ConfigurationError, match=f"^operator-invalid: {check} fails"):
            dataclasses.replace(op, **changes)
    # a pseudo-eigenvalue that agrees with U but is not negative
    u = op.u_vector
    with pytest.raises(ConfigurationError, match="^operator-invalid: d_u_equals_v fails"):
        dataclasses.replace(op, u_vector=-u, lambda_star=-op.lambda_star)
    # inside every tolerance, the record is made
    dataclasses.replace(op, u_vector=u + 1e-15)
    dataclasses.replace(op, lambda_star=op.lambda_star * (1.0 + 1e-13))


def _contract(op, matrix):
    """The contract of ``matrix`` with the grid velocities, U and lambda_star of ``op``."""
    return velocity_space.operator_contract(matrix, op.grid.velocities, op.u_vector, op.lambda_star)


def test_validation_reports_the_contract_with_its_names_and_magnitudes():
    op, changes = _sc100_negative_pair()
    report = _contract(op, changes["matrix"])
    assert list(report.checks) == list(CONTRACT_CHECKS)
    assert report.checks["symmetric"] and report.checks["zero_row_sums"]
    assert not report.checks["nonnegative_off_diagonal"]
    assert report.details["nonnegative_off_diagonal"] == -1e-3
    op, changes = _sc100_stray()
    assert _contract(op, changes["matrix"]).details["symmetric"] == 5e-324


@st.composite
def contract_matrices(draw):
    """D = W - diag(W 1) for random symmetric nonnegative weights W on a
    connected graph with 2N vertices: a path or cycle in index order (the
    tridiagonal and cyclic patterns), or a random graph over a random
    spanning path (dense)."""
    half = draw(st.integers(1, 20))
    pattern = draw(st.sampled_from(["tridiagonal", "cyclic", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 2 * half
    weights = np.zeros((n, n))
    order = rng.permutation(n) if pattern == "dense" else np.arange(n)
    pairs = np.sort(np.stack((order[:-1], order[1:])), axis=0)  # above the diagonal
    weights[pairs[0], pairs[1]] = 0.1 + rng.random(n - 1)
    if pattern == "cyclic" and n >= 3:
        weights[0, n - 1] = 0.1 + rng.random()
    if pattern == "dense":
        weights += np.where(rng.random((n, n)) < rng.random(), rng.random((n, n)), 0.0)
    weights = np.triu(weights, 1)
    weights += weights.T
    return build_grid(half), weights - np.diag(weights.sum(axis=1)), rng


@settings(max_examples=150, deadline=None)
@given(contract_matrices(), st.floats(-8.0, 8.0))
def test_a_contract_matrix_makes_a_record_and_inverts_at_every_stiffness(case, log_c):
    # symmetry, zero row sums and nonnegative off-diagonal entries make I - cD
    # strictly diagonally dominant for every c > 0, so no semidefiniteness
    # check is needed before it is inverted
    grid, d, rng = case
    n = grid.size
    u, lambda_star = u_and_lambda(d, grid.velocities)
    op = CollisionOperator(grid, d, lambda_star, u)
    system = np.eye(n) - 10.0**log_c * op.matrix
    inverse = scheme._invert_collision_system(system).inverse
    # the normwise backward error of a computed inverse: the residual itself
    # grows with the condition number, about c max |D_ii|
    residual = np.abs(inverse @ system - np.eye(n)).sum(axis=1).max()
    assert residual <= 1e-12 * np.abs(system).sum(axis=1).max()

    i, j = rng.choice(n, size=2, replace=False)
    asymmetric, negative, shifted = d.copy(), d.copy(), d.copy()
    asymmetric[i, j] += 0.5
    negative[i, j] = negative[j, i] = -0.5  # rows still sum to zero
    negative[i, i] += d[i, j] + 0.5
    negative[j, j] += d[i, j] + 0.5
    shifted[i, i] += 1e-3
    for check, matrix in (("symmetric", asymmetric), ("nonnegative_off_diagonal", negative),
                          ("zero_row_sums", shifted)):
        with pytest.raises(ConfigurationError, match=f"^operator-invalid: {check} fails"):
            CollisionOperator(grid, matrix, lambda_star, u)


def test_validation_flags_asymmetry():
    report = _contract(build_bgk(build_grid(1)), np.array([[-1.0, 1.0], [0.5, -0.5]]))
    assert not report.checks["symmetric"]
    assert not report.passed


def test_validation_flags_nonzero_row_sums_and_positive_mode():
    # the shift gives D a positive mode, the constants; the row sums show it
    op = build_bgk(build_grid(3))
    report = _contract(op, op.matrix + 0.1 * np.eye(6))
    assert not report.checks["zero_row_sums"]
    assert report.details["zero_row_sums"] == pytest.approx(0.1)
    assert not report.passed


def test_validation_flags_negative_off_diagonal():
    op = build_bgk(build_grid(3))
    report = _contract(op, -op.matrix)
    assert not report.checks["nonnegative_off_diagonal"]
    assert not report.passed


def test_validation_flags_disconnected_blocks():
    # edges 0 -- 3 and 1 -- 2 pair each v with -v, so U = -V/2 and the
    # contract holds, but the kernel of D holds a non-constant vector
    grid = build_grid(2)
    matrix = np.array([[-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0],
                       [0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
    report = validate_operator(CollisionOperator(grid, matrix, -2.0, -0.5 * grid.velocities))
    assert not report.checks["irreducible"]
    assert all(report.checks[name] for name in CONTRACT_CHECKS)
    assert not report.passed


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_irreducibility_agrees_with_strong_components(n):
    # the reachability sweep against scipy's graph search, on random
    # symmetric graphs from empty to complete; each seed draws its own density
    from scipy.sparse.csgraph import connected_components

    seen = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        edges = np.triu(rng.random((n, n)) < rng.random(), 1)
        edges |= edges.T
        components, _ = connected_components(edges, directed=False)
        assert velocity_space._reaches_every_vertex(edges) == (components == 1), seed
        seen.add(components == 1)
    assert seen == ({True} if n == 1 else {True, False})


def test_validation_report_lines_follow_the_checks():
    report = validate_operator(build_fokker_planck(build_grid(2)))
    assert list(report.checks) == [*CONTRACT_CHECKS, "irreducible"]
    assert report.lines()[:3] == [
        "symmetric: ok (0.000e+00)",
        "zero row sums: ok (0.000e+00)",
        "nonnegative off diagonal: ok (0.000e+00)",
    ]
    assert report.lines()[-1] == "irreducible: ok"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (9, 9), (3, 3)])
def test_u_solve_rejects_a_non_finite_matrix(where, value):
    # the contract raises before any product of a non-finite D warns
    op = build_scattering(build_grid(5))
    matrix = op.matrix.copy()
    matrix[where] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError,
                           match="^operator-invalid: matrix and u_vector must be finite$"):
            _contract(op, matrix)


def test_solve_rejects_a_positive_mean_zero_mode():
    op = build_bgk(build_grid(5))
    w = op.grid.velocities - op.grid.velocities.mean()
    w /= np.linalg.norm(w)
    # a positive mode needs a negative off-diagonal entry, which the contract names
    message = "operator-invalid: nonnegative_off_diagonal fails"
    with pytest.raises(ConfigurationError, match=message):
        _contract(op, op.matrix + 2.0 * np.outer(w, w)).require()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_pseudo_inverse_roundtrip(name):
    # the oracle that stands in for U wherever a test needs the solve
    rng = np.random.default_rng(17)
    for n in (8, 100, 400):
        op = BUILDERS[name](build_grid(n // 2))
        scale = float(np.abs(op.matrix).max())
        for _ in range(10):
            phi = rng.standard_normal(n)
            phi -= phi.mean()
            psi = cho_solve_mean_zero(op.matrix, phi)
            # the re-centre leaves a mean of round-off size; without it the
            # mean reaches 1e-12 |psi| for fp at n = 400
            assert abs(psi.mean()) <= 1e-15 * np.abs(psi).max()
            np.testing.assert_allclose(op.matrix @ psi, phi, atol=1e-9 * scale)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_entropy_dissipation_nonpositive(name):
    op = BUILDERS[name](build_grid(50))
    rng = np.random.default_rng(29)
    for _ in range(20):
        f = rng.uniform(0.1, 10.0, size=100)
        assert entropy_dissipation(op, f) < 0.0


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_entropy_dissipation_vanishes_on_constants(name):
    op = BUILDERS[name](build_grid(50))
    for value in (0.3, 1.0, 2.7):
        assert abs(entropy_dissipation(op, np.full(100, value))) <= 2e-9


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_entropy_dissipation_negative_near_equilibrium(name):
    op = BUILDERS[name](build_grid(50))
    rng = np.random.default_rng(31)
    bump = rng.standard_normal(100)
    bump -= bump.mean()
    f = 1.0 + 1e-3 * bump
    assert entropy_dissipation(op, f) < 0.0


def test_entropy_dissipation_rejects_nonpositive_states():
    op = build_bgk(build_grid(2))
    with pytest.raises(ConfigurationError, match="positive"):
        entropy_dissipation(op, np.array([1.0, 0.0, 1.0, 1.0]))


def test_operator_kinds_and_sizes():
    grid = build_grid(6)
    for name, builder in BUILDERS.items():
        op = builder(grid)
        named = scenarios.build_operator(OperatorKind(name), 12)
        np.testing.assert_array_equal(op.matrix, named.matrix)
        assert op.size == 12
        assert not op.matrix.flags.writeable


FROZEN_SCATTERING_LAMBDA = {
    25: -1.49342891,
    50: -1.49835181,
    100: -1.49958761,
    200: -1.49989688,
}


@pytest.mark.parametrize("half", sorted(FROZEN_SCATTERING_LAMBDA))
def test_scattering_lambda_star_frozen_values(half):
    op = build_scattering(build_grid(half))
    np.testing.assert_allclose(
        op.lambda_star, FROZEN_SCATTERING_LAMBDA[half], atol=1e-7
    )


# lambda_star of sc as the former projected conjugate-gradient solve gave it
PARENT_SCATTERING_LAMBDA = {
    4: -0.8888888888888891,
    100: -1.4983518130056928,
    400: -1.4998968820893601,
}


@pytest.mark.parametrize("nv", sorted(PARENT_SCATTERING_LAMBDA))
def test_scattering_lambda_star_matches_iterative_values(nv):
    op = build_scattering(build_grid(nv // 2))
    np.testing.assert_allclose(
        op.lambda_star, PARENT_SCATTERING_LAMBDA[nv], rtol=1e-12, atol=0.0
    )
