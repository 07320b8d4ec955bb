"""Solver-level checks: every routine against a dense reference."""

import numpy as np
import pytest

from ugks1d.errors import ConfigurationError, SolverError
from ugks1d.linalg import (
    conjugate_gradient,
    factor_cyclic,
    factor_positive_definite,
    factor_tridiagonal,
)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def random_tridiagonal(rng, n, cyclic=False):
    # diagonal dominance keeps the matrix comfortably nonsingular
    matrix = np.diag(4.0 + rng.random(n))
    matrix += np.diag(rng.standard_normal(n - 1), -1) + np.diag(rng.standard_normal(n - 1), 1)
    if cyclic:
        matrix[0, n - 1] = rng.standard_normal()
        matrix[n - 1, 0] = rng.standard_normal()
    return matrix


def test_conjugate_gradient_matches_dense_solve():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        a = random_spd(rng, n)
        b = rng.standard_normal(n)
        result = conjugate_gradient(lambda x: a @ x, b, tol=1e-13)
        np.testing.assert_allclose(result.x, np.linalg.solve(a, b), atol=1e-9)
        assert result.residual <= 1e-13


def test_conjugate_gradient_zero_rhs():
    result = conjugate_gradient(lambda x: 2.0 * x, np.zeros(5))
    assert result.iterations == 0
    np.testing.assert_array_equal(result.x, np.zeros(5))


def test_conjugate_gradient_iteration_cap_reports_best():
    rng = np.random.default_rng(3)
    a = random_spd(rng, 40)
    b = rng.standard_normal(40)
    with pytest.raises(SolverError) as info:
        conjugate_gradient(lambda x: a @ x, b, tol=1e-16, max_iter=2)
    assert info.value.best is not None
    assert info.value.best.shape == (40,)


def test_conjugate_gradient_rejects_indefinite_map():
    b = np.array([1.0, 1.0])
    with pytest.raises(SolverError, match="positive"):
        conjugate_gradient(lambda x: -x, b)


def test_thomas_matches_dense_solve():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        matrix = random_tridiagonal(rng, n)
        b = rng.standard_normal(n)
        np.testing.assert_allclose(
            factor_tridiagonal(matrix).solve(b), np.linalg.solve(matrix, b), rtol=1e-10
        )


def test_thomas_single_row():
    factor = factor_tridiagonal(np.array([[4.0]]))
    np.testing.assert_array_equal(factor.solve(np.array([2.0])), [0.5])
    np.testing.assert_array_equal(factor.solve(np.array([[2.0, 8.0]])), [[0.5, 2.0]])


def test_thomas_stacked_right_hand_sides():
    rng = np.random.default_rng(12)
    matrix = random_tridiagonal(rng, 15)
    b = rng.standard_normal((15, 6))
    np.testing.assert_allclose(
        factor_tridiagonal(matrix).solve(b), np.linalg.solve(matrix, b), rtol=1e-10
    )


def test_thomas_zero_pivot_names_row():
    # gtsv pivots, so only an exactly singular matrix fails
    with pytest.raises(SolverError, match="row 1"):
        factor_tridiagonal(np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_factor_tridiagonal_rejects_cyclic_input():
    matrix = random_tridiagonal(np.random.default_rng(13), 4, cyclic=True)
    with pytest.raises(ConfigurationError, match="cyclic"):
        factor_tridiagonal(matrix)


def test_cyclic_thomas_matches_dense_solve():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        matrix = random_tridiagonal(rng, n, cyclic=True)
        b = rng.standard_normal(n)
        np.testing.assert_allclose(
            factor_cyclic(matrix).solve(b), np.linalg.solve(matrix, b), rtol=1e-9, atol=1e-12
        )


def test_cyclic_thomas_stacked_right_hand_sides():
    rng = np.random.default_rng(22)
    matrix = random_tridiagonal(rng, 12, cyclic=True)
    b = rng.standard_normal((12, 5))
    np.testing.assert_allclose(
        factor_cyclic(matrix).solve(b), np.linalg.solve(matrix, b), rtol=1e-9, atol=1e-12
    )


def test_cyclic_thomas_degrades_to_plain_thomas_with_zero_corners():
    rng = np.random.default_rng(23)
    matrix = random_tridiagonal(rng, 10)
    b = rng.standard_normal(10)
    np.testing.assert_allclose(
        factor_cyclic(matrix).solve(b), factor_tridiagonal(matrix).solve(b), rtol=1e-12
    )


def test_cyclic_corners_need_three_rows():
    with pytest.raises(ConfigurationError, match="n >= 3"):
        factor_cyclic(np.array([[4.0, 1.0], [1.0, 4.0]]))


def test_cyclic_singular_matrix_detected():
    # periodic Laplacian: rows sum to zero, so the matrix is singular
    n = 6
    matrix = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    matrix[0, n - 1] = matrix[n - 1, 0] = 1.0
    with pytest.raises(SolverError):
        factor_cyclic(matrix)


@pytest.mark.parametrize("n", [1, 2, 8, 50])
def test_positive_definite_inverse_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    matrix = random_spd(rng, n)
    b = rng.standard_normal((n, 4))
    factor = factor_positive_definite(matrix)
    np.testing.assert_allclose(factor.solve(b), np.linalg.solve(matrix, b), rtol=1e-10, atol=1e-14)
    assert np.array_equal(factor.inverse, factor.inverse.T)


def test_positive_definite_inverse_rejects_indefinite_and_asymmetric_matrices():
    with pytest.raises(SolverError, match="not positive definite"):
        factor_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SolverError, match="not symmetric"):
        factor_positive_definite(np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_solves_are_deterministic():
    rng = np.random.default_rng(31)
    matrix = random_tridiagonal(rng, 20, cyclic=True)
    b = rng.standard_normal(20)
    first = factor_cyclic(matrix).solve(b)
    second = factor_cyclic(matrix).solve(b)
    np.testing.assert_array_equal(first, second)
    a = random_spd(rng, 20)
    np.testing.assert_array_equal(
        factor_positive_definite(a).solve(b), factor_positive_definite(a).solve(b)
    )
    x1 = conjugate_gradient(lambda x: a @ x, b).x
    x2 = conjugate_gradient(lambda x: a @ x, b).x
    np.testing.assert_array_equal(x1, x2)
