"""Solver-level checks: every routine against a dense reference."""

import numpy as np
import pytest

from ugks1d.errors import ConfigurationError, SolverError
from ugks1d.linalg import (
    TridiagonalSystem,
    conjugate_gradient,
    factor_cyclic,
    factor_tridiagonal,
)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def random_tridiagonal(rng, n, cyclic=False):
    sub = rng.standard_normal(n - 1)
    sup = rng.standard_normal(n - 1)
    # diagonal dominance keeps every pivot comfortably nonzero
    diag = 4.0 + rng.random(n)
    cu = rng.standard_normal() if cyclic else 0.0
    cl = rng.standard_normal() if cyclic else 0.0
    return TridiagonalSystem(sub, diag, sup, cu, cl)


def test_tridiagonal_band_length_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        TridiagonalSystem(np.ones(3), np.ones(3), np.ones(2))


def test_apply_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(3, 12)
        system = random_tridiagonal(rng, n, cyclic=bool(rng.integers(2)))
        x = rng.standard_normal(n)
        np.testing.assert_allclose(system.apply(x), system.dense() @ x, rtol=1e-13)
        xs = rng.standard_normal((n, 4))
        np.testing.assert_allclose(system.apply(xs), system.dense() @ xs, rtol=1e-13)


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
        system = random_tridiagonal(rng, n)
        b = rng.standard_normal(n)
        np.testing.assert_allclose(
            factor_tridiagonal(system).solve(b),
            np.linalg.solve(system.dense(), b),
            rtol=1e-10,
        )


def test_thomas_single_row():
    system = TridiagonalSystem(np.empty(0), np.array([4.0]), np.empty(0))
    factor = factor_tridiagonal(system)
    np.testing.assert_array_equal(factor.solve(np.array([2.0])), [0.5])
    np.testing.assert_array_equal(factor.solve(np.array([[2.0, 8.0]])), [[0.5, 2.0]])


def test_thomas_stacked_right_hand_sides():
    rng = np.random.default_rng(12)
    system = random_tridiagonal(rng, 15)
    b = rng.standard_normal((15, 6))
    np.testing.assert_allclose(
        factor_tridiagonal(system).solve(b),
        np.linalg.solve(system.dense(), b),
        rtol=1e-10,
    )


def test_thomas_zero_pivot_names_row():
    system = TridiagonalSystem(np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(SolverError, match="row 0"):
        factor_tridiagonal(system)
    # second pivot vanishes: d1 - (sub/d0) * sup = 2 - 1*2 = 0
    system = TridiagonalSystem(np.array([1.0]), np.array([1.0, 2.0]), np.array([2.0]))
    with pytest.raises(SolverError, match="row 1"):
        factor_tridiagonal(system)


def test_factor_tridiagonal_rejects_cyclic_input():
    system = TridiagonalSystem(
        np.ones(3), 4.0 * np.ones(4), np.ones(3), corner_upper=1.0, corner_lower=1.0
    )
    with pytest.raises(ConfigurationError, match="cyclic"):
        factor_tridiagonal(system)


def test_cyclic_thomas_matches_dense_solve():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        system = random_tridiagonal(rng, n, cyclic=True)
        b = rng.standard_normal(n)
        np.testing.assert_allclose(
            factor_cyclic(system).solve(b),
            np.linalg.solve(system.dense(), b),
            rtol=1e-9,
            atol=1e-12,
        )


def test_cyclic_thomas_stacked_right_hand_sides():
    rng = np.random.default_rng(22)
    system = random_tridiagonal(rng, 12, cyclic=True)
    b = rng.standard_normal((12, 5))
    np.testing.assert_allclose(
        factor_cyclic(system).solve(b),
        np.linalg.solve(system.dense(), b),
        rtol=1e-9,
        atol=1e-12,
    )


def test_cyclic_thomas_degrades_to_plain_thomas_with_zero_corners():
    rng = np.random.default_rng(23)
    system = random_tridiagonal(rng, 10)
    b = rng.standard_normal(10)
    np.testing.assert_allclose(
        factor_cyclic(system).solve(b),
        factor_tridiagonal(system).solve(b),
        rtol=1e-12,
    )


def test_cyclic_corners_need_three_rows():
    system = TridiagonalSystem(
        np.ones(1), 4.0 * np.ones(2), np.ones(1), corner_upper=1.0, corner_lower=1.0
    )
    with pytest.raises(ConfigurationError, match="n >= 3"):
        factor_cyclic(system)


def test_cyclic_singular_matrix_detected():
    # periodic Laplacian: rows sum to zero, so the matrix is singular
    n = 6
    system = TridiagonalSystem(
        np.ones(n - 1),
        -2.0 * np.ones(n),
        np.ones(n - 1),
        corner_upper=1.0,
        corner_lower=1.0,
    )
    with pytest.raises(SolverError):
        factor_cyclic(system).solve(np.ones(n))


def test_solves_are_deterministic():
    rng = np.random.default_rng(31)
    system = random_tridiagonal(rng, 20, cyclic=True)
    b = rng.standard_normal(20)
    first = factor_cyclic(system).solve(b)
    second = factor_cyclic(system).solve(b)
    np.testing.assert_array_equal(first, second)
    a = random_spd(rng, 20)
    x1 = conjugate_gradient(lambda x: a @ x, b).x
    x2 = conjugate_gradient(lambda x: a @ x, b).x
    np.testing.assert_array_equal(x1, x2)
