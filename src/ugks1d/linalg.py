"""Deterministic linear solvers for the per-cell collision systems.

Two kinds of collision systems appear: banded ones, tridiagonal or
tridiagonal with periodic corners, and any other symmetric positive
definite one, which ``scheme.Stepper`` solves per cell by conjugate
gradient, given only as a map; that fallback is conjugate gradient's only
caller.  A banded system is inverted once, in
LAPACK (``gtsv`` on the identity, plus a Sherman-Morrison rank-one
correction for the corners), and every later solve is one matrix product
with that dense inverse.  The inverse holds n^2 numbers, so the factors are
meant for velocity-sized systems (n = 2N, up to a few hundred) that are
solved against one right-hand side per cell at every step.  The periodic
macro system of the implicit-diffusion variant is circulant and is solved
by FFT in ``scheme.Stepper``, not here.

All routines are pure functions, so identical inputs give bitwise-identical
outputs on one machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigurationError, SolverError


@dataclass(frozen=True)
class TridiagonalSystem:
    """Tridiagonal matrix, optionally with periodic corner entries.

    ``sub`` and ``sup`` have length n-1; ``corner_upper`` is the (0, n-1)
    entry and ``corner_lower`` the (n-1, 0) entry.  Solvability is not
    assumed up front; it is what the elimination itself checks.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    corner_upper: float = 0.0
    corner_lower: float = 0.0

    def __post_init__(self):
        n = len(self.diag)
        if len(self.sub) != n - 1 or len(self.sup) != n - 1:
            raise ConfigurationError(
                "tridiagonal bands must have lengths n-1, n, n-1; got "
                f"{len(self.sub)}, {n}, {len(self.sup)}"
            )

    @property
    def size(self) -> int:
        return len(self.diag)

    @property
    def cyclic(self) -> bool:
        return self.corner_upper != 0.0 or self.corner_lower != 0.0

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product; ``x`` may be (n,) or (n, m)."""
        x = np.asarray(x, dtype=float)
        shape = (-1,) + (1,) * (x.ndim - 1)
        y = self.diag.reshape(shape) * x
        y[1:] += self.sub.reshape((-1,) + (1,) * (x.ndim - 1)) * x[:-1]
        y[:-1] += self.sup.reshape((-1,) + (1,) * (x.ndim - 1)) * x[1:]
        y[0] += self.corner_upper * x[-1]
        y[-1] += self.corner_lower * x[0]
        return y

    def dense(self) -> np.ndarray:
        n = self.size
        a = np.diag(self.diag) + np.diag(self.sub, -1) + np.diag(self.sup, 1)
        a[0, n - 1] += self.corner_upper
        a[n - 1, 0] += self.corner_lower
        return a


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

    Parameters
    ----------
    apply : callable
        The linear map x -> A x.
    b : array
        Right-hand side, assumed in the range of A.
    tol : float
        Relative residual target, ||A x - b|| <= tol ||b||.
    max_iter : int, optional
        Iteration cap; defaults to 10 n.

    Returns
    -------
    CGSolution
        Solution vector, iteration count, and final relative residual.

    Raises
    ------
    SolverError
        On non-convergence (the best iterate rides along on ``best``),
        on a NaN/inf appearing mid-iteration, or when the map reveals
        itself as not positive definite on a search direction.
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
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            raise SolverError(
                f"conjugate gradient residual became non-finite at iteration {k + 1}",
                best=x,
            )
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
    """Dense inverse of a non-cyclic tridiagonal matrix.

    ``solve(b)`` is one matrix product, ``inverse @ b``, for right-hand
    sides of shape (n,) or (n, m).  The factor holds n^2 numbers, so it is
    meant for velocity-sized systems (n up to a few hundred) that are solved
    against many right-hand sides, such as the per-cell collision system.
    """

    inverse: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.inverse @ b


def _check_pivots(system: TridiagonalSystem) -> None:
    """Raise SolverError naming the first row whose elimination pivot,
    without row exchanges, vanishes relative to the largest entry."""
    sub, diag, sup = system.sub.tolist(), system.diag.tolist(), system.sup.tolist()
    scale = max(
        max(map(abs, diag)),
        max(map(abs, sub), default=0.0),
        max(map(abs, sup), default=0.0),
        1e-300,
    )
    pivot = diag[0]
    for i in range(len(diag)):
        if i > 0:
            pivot = diag[i] - sub[i - 1] / pivot * sup[i - 1]
        if abs(pivot) <= 1e-14 * scale:
            raise SolverError(f"zero pivot in row {i} during tridiagonal elimination")


def _tridiagonal_inverse(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """The inverse, from LAPACK ``gtsv`` applied to the identity."""
    n = len(diag)
    if n == 1:
        # the gtsv wrapper rejects empty off-diagonal bands
        return np.array([[1.0 / diag[0]]])
    *_, inverse, info = lapack.dgtsv(sub, diag, sup, np.eye(n, order="F"), overwrite_b=True)
    if info > 0:
        raise SolverError(f"singular tridiagonal matrix: zero pivot in row {info - 1}")
    return inverse


def factor_tridiagonal(system: TridiagonalSystem) -> TridiagonalFactor:
    """Invert once; raises SolverError naming the row of a zero pivot."""
    if system.cyclic:
        raise ConfigurationError(
            "factor_tridiagonal handles non-cyclic systems; use factor_cyclic"
        )
    _check_pivots(system)
    return TridiagonalFactor(_tridiagonal_inverse(system.sub, system.diag, system.sup))


@dataclass(frozen=True)
class CyclicTridiagonalFactor(TridiagonalFactor):
    """Dense inverse of a cyclic tridiagonal matrix.

    Built from the Sherman-Morrison split A = T + u v^T, where T is
    tridiagonal and the rank-one term carries the corner entries:
    A^{-1} = T^{-1} - (T^{-1} u)(v^T T^{-1}) / (1 + v^T T^{-1} u).  Like
    ``TridiagonalFactor`` it holds n^2 numbers and suits velocity-sized
    systems; ``solve(b)`` is ``inverse @ b``.
    """

    # each class owns its ``solve``, so it can be looked up and replaced
    # per class (bench/spans.py wraps the two separately)
    solve = TridiagonalFactor.solve


def factor_cyclic(system: TridiagonalSystem) -> CyclicTridiagonalFactor:
    n = system.size
    if n < 3 and system.cyclic:
        raise ConfigurationError(
            "cyclic corners need n >= 3 so they stay off the tridiagonal band"
        )
    alpha = system.corner_lower
    beta = system.corner_upper
    # gamma = -d_0 keeps the modified first pivot away from zero
    gamma = -system.diag[0] if system.diag[0] != 0.0 else 1.0
    diag = system.diag.copy()
    diag[0] -= gamma
    diag[-1] -= alpha * beta / gamma
    inverse = factor_tridiagonal(TridiagonalSystem(system.sub, diag, system.sup)).inverse
    # u = gamma e_0 + alpha e_{n-1}, v = e_0 + (beta / gamma) e_{n-1}
    z = gamma * inverse[:, 0] + alpha * inverse[:, -1]
    v_last = beta / gamma
    denom = 1.0 + z[0] + v_last * z[-1]
    if abs(denom) <= 1e-14:
        raise SolverError(
            "singular reduced system in cyclic tridiagonal factorization"
        )
    inverse -= np.outer(z / denom, inverse[0] + v_last * inverse[-1])
    return CyclicTridiagonalFactor(inverse)
