"""Deterministic linear solvers for the per-cell collision systems.

``scheme.Stepper`` inverts its collision system I - cD once per run, and
every later solve is one matrix product with that dense inverse.  Each
builder takes the dense matrix and calls LAPACK: ``factor_tridiagonal``
applies ``gtsv`` to the identity, ``factor_cyclic`` adds a
Sherman-Morrison rank-one correction for the periodic corners, written in
place into gtsv's Fortran-ordered inverse by one BLAS ``dger``, and
``factor_positive_definite`` inverts any other symmetric positive definite
matrix by Cholesky (``potrf``, ``potri``).  ``scheme`` picks the builder
by the nonzero pattern; no builder checks symmetry, a record's rule.
The inverse holds n^2 numbers, so the factors are meant for velocity-sized
systems (n = 2N, up to a few hundred) that are solved against one
right-hand side per cell at every step.  The periodic macro system of the
implicit-diffusion variant is circulant and is solved by FFT in
``scheme.Stepper``, not here.  ``conjugate_gradient`` solves with a map
alone; nothing in the package calls it.

All routines are pure functions, so identical inputs give bitwise-identical
outputs on one machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import lapack
from scipy.linalg.blas import dger

from .errors import SolverError


class CGSolution(NamedTuple):
    x: np.ndarray
    iterations: int
    residual: float


def conjugate_gradient(
    apply: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-12,
    max_iter: int | None = None,
) -> CGSolution:
    """Conjugate gradient for a symmetric positive (semi)definite map.

    ``apply`` is x -> A x and ``b`` lies in the range of A.  Returns the
    solution, the iteration count and the relative residual once
    ||A x - b|| <= tol ||b||.  Raises SolverError after ``max_iter``
    (default 10 n) iterations, with the last iterate on ``best``, and at
    once on a non-finite value or a direction of non-positive curvature.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CGSolution(np.zeros_like(b), 0, 0.0)

    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for k in range(max_iter):
        ap = apply(p)
        p_ap = float(p @ ap)
        if not np.isfinite(p_ap):
            raise SolverError(
                f"conjugate gradient hit a non-finite value at iteration {k + 1}",
                best=x,
            )
        if p_ap <= 0.0:
            raise SolverError(
                "conjugate gradient found a non-positive curvature direction; "
                "the operator is not positive definite on the solve subspace",
                best=x,
            )
        alpha = rs / p_ap
        x = x + alpha * p
        r = r - alpha * ap
        # a non-finite residual shows up as a non-finite p_ap next iteration
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * b_norm:
            return CGSolution(x, k + 1, float(np.sqrt(rs_new) / b_norm))
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise SolverError(
        f"conjugate gradient did not reach tol={tol:g} within {max_iter} "
        f"iterations (relative residual {np.sqrt(rs) / b_norm:.3e})",
        best=x,
    )


@dataclass(frozen=True)
class TridiagonalFactor:
    """A dense inverse, whatever the structure of the matrix it inverts.

    ``solve(b)`` is one matrix product, ``inverse @ b``, for right-hand
    sides of shape (n,) or (n, m).  ``factor_tridiagonal`` and
    ``factor_positive_definite`` return this class and ``factor_cyclic``
    its subclass.  The factor holds n^2 numbers, so it is meant for
    velocity-sized systems (n up to a few hundred) that are solved against
    many right-hand sides, such as the per-cell collision system.
    """

    inverse: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.inverse @ b


def _tridiagonal_inverse(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """The inverse, from LAPACK ``gtsv`` (partial pivoting) applied to the identity."""
    *_, inverse, info = lapack.dgtsv(sub, diag, sup, np.eye(len(diag), order="F"), overwrite_b=True)
    if info > 0:
        raise SolverError(f"singular tridiagonal matrix: zero pivot in row {info - 1}")
    return inverse


def factor_tridiagonal(matrix: np.ndarray) -> TridiagonalFactor:
    """Invert a tridiagonal matrix (n >= 2), reading only its three bands;
    raises SolverError naming the row of a zero pivot."""
    return TridiagonalFactor(
        _tridiagonal_inverse(np.diagonal(matrix, -1), np.diagonal(matrix), np.diagonal(matrix, 1))
    )


@dataclass(frozen=True)
class CyclicTridiagonalFactor(TridiagonalFactor):
    """Dense inverse of a cyclic tridiagonal matrix A = T + u v^T, where T
    is tridiagonal and the rank-one term carries the corner entries, by
    Sherman-Morrison: A^{-1} = T^{-1} - (T^{-1} u)(v^T T^{-1}) / (1 + v^T T^{-1} u).
    """

    # each class owns its ``solve``, so it can be looked up and replaced
    # per class (bench/spans.py wraps the two separately)
    solve = TridiagonalFactor.solve


def factor_cyclic(matrix: np.ndarray) -> CyclicTridiagonalFactor:
    """Invert a tridiagonal matrix plus its corners (0, n-1) and (n-1, 0),
    n >= 3, reading only those entries."""
    n = matrix.shape[0]
    alpha = matrix[n - 1, 0]
    beta = matrix[0, n - 1]
    diag = np.diagonal(matrix).copy()
    # gamma = -d_0 keeps the modified first pivot away from zero
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    diag[0] -= gamma
    diag[-1] -= alpha * beta / gamma
    inverse = _tridiagonal_inverse(np.diagonal(matrix, -1), diag, np.diagonal(matrix, 1))
    # u = gamma e_0 + alpha e_{n-1}, v = e_0 + (beta / gamma) e_{n-1}
    z = gamma * inverse[:, 0] + alpha * inverse[:, -1]
    v_last = beta / gamma
    denom = 1.0 + z[0] + v_last * z[-1]
    if abs(denom) <= 1e-14:
        raise SolverError("singular reduced system in cyclic tridiagonal factorization")
    # one BLAS dger into gtsv's Fortran-ordered inverse, in place: no n x n temporary
    inverse = dger(-1.0, z / denom, inverse[0] + v_last * inverse[-1], a=inverse, overwrite_a=True)
    return CyclicTridiagonalFactor(inverse)


def factor_positive_definite(matrix: np.ndarray) -> TridiagonalFactor:
    """Invert a symmetric positive definite matrix by LAPACK Cholesky
    (``potrf``, then ``potri``), reading only its upper triangle; raises
    SolverError when the matrix is not positive definite."""
    factor, info = lapack.dpotrf(matrix)
    if info == 0:
        factor, info = lapack.dpotri(factor)
    if info != 0:
        raise SolverError(f"matrix is not positive definite: Cholesky stops at row {info - 1}")
    # potri fills the upper triangle only
    return TridiagonalFactor(np.triu(factor) + np.triu(factor, 1).T)
