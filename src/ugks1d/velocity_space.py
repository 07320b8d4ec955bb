"""Velocity grids and discrete collision operators.

The velocity interval (-1, 1) is sampled by 2N cell-centered points
v_j = -1 + dv/2 + (j-1) dv, dv = 1/N.  The grid is symmetric and never
contains v = 0, so upwind sign decisions cannot tie.

A collision operator is a symmetric 2N x 2N matrix D with nonnegative
off-diagonal entries, zero row sums, and kernel exactly span(1): it
conserves the velocity average rho = (1/2N) sum_j F_j and dissipates
everything else.  The pair (U, lambda_star) with

    D U = V,   <U, 1> = 0,   lambda_star = <V, V> / <U, V> < 0,

is what the flux construction consumes; inner products are plain
unweighted sums over the velocity index.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigurationError, require_count


class OperatorKind(enum.Enum):
    BGK = "bgk"
    FOKKER_PLANCK = "fp"
    SCATTERING_PERIODIC = "sc"


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class VelocityGrid:
    half_count: int

    @property
    def size(self) -> int:
        return 2 * self.half_count

    @property
    def delta_v(self) -> float:
        return 1.0 / self.half_count

    @functools.cached_property
    def velocities(self) -> np.ndarray:
        n = self.size
        # (2j - 2N - 1)/(2N): one rounding per entry, exact antisymmetry
        return _read_only((2.0 * np.arange(1, n + 1) - n - 1) / n)


def build_grid(half_count: int) -> VelocityGrid:
    """Symmetric grid of 2N velocities; N is a count (``require_count``) of at least 1."""
    return VelocityGrid(require_count("half_count", half_count, 1))


@dataclass(frozen=True)
class CollisionOperator:
    grid: VelocityGrid
    matrix: np.ndarray
    lambda_star: float
    u_vector: np.ndarray

    def __post_init__(self):
        n, shapes = self.grid.size, (np.shape(self.matrix), np.shape(self.u_vector))
        if shapes != ((n, n), (n,)):
            raise ConfigurationError(f"matrix and u_vector have shapes {shapes}; "
                                     f"the grid's 2N = {n} needs ({n}, {n}) and ({n},)")
        if not (np.isfinite(self.matrix).all() and np.isfinite(self.u_vector).all()):
            raise ConfigurationError("matrix and u_vector must be finite")

    @property
    def size(self) -> int:
        return self.grid.size


def build_bgk(grid: VelocityGrid) -> CollisionOperator:
    """Relaxation toward the velocity average at unit rate: D = P0 - I."""
    n = grid.size
    matrix = np.full((n, n), 1.0 / n)
    matrix.flat[:: n + 1] -= 1.0  # the diagonal, in place
    return CollisionOperator(
        grid=grid,
        matrix=_read_only(matrix),
        lambda_star=-1.0,
        u_vector=_read_only(-grid.velocities),
    )


def build_fokker_planck(grid: VelocityGrid) -> CollisionOperator:
    """Conservative velocity-diffusion operator with degenerate edges.

    Row j applies the flux difference
    (1 - v_{j+1/2}^2)(F_{j+1} - F_j) - (1 - v_{j-1/2}^2)(F_j - F_{j-1}),
    all divided by dv^2, with cell edges at v = m/N.  The outermost edges
    sit exactly at -1 and +1 where the diffusivity 1 - v^2 vanishes, so no
    flux leaves the velocity interval; that choice is what makes D 1 = 0
    and D V = -2 V hold exactly.

    The edge weights (1 - (m/N)^2)/dv^2 = N^2 - m^2 are integers, so the
    assembled matrix is exact in floating point.
    """
    half = grid.half_count
    n = grid.size
    m = np.arange(n + 1) - half
    weights = (half * half - m * m).astype(float)
    matrix = np.zeros((n, n))
    idx = np.arange(n - 1)
    matrix[idx + 1, idx] = weights[1:n]
    matrix[idx, idx + 1] = weights[1:n]
    matrix[np.arange(n), np.arange(n)] = -(weights[:n] + weights[1:])
    return CollisionOperator(
        grid=grid,
        matrix=_read_only(matrix),
        lambda_star=-2.0,
        u_vector=_read_only(-0.5 * grid.velocities),
    )


# the scattering operator is this multiple of the periodic velocity Laplacian
_SCATTERING_SCALE = 0.1


def build_scattering(grid: VelocityGrid) -> CollisionOperator:
    """Scaled periodic Laplacian in velocity.

    The velocity indices form a cycle (1, ..., 2N, 1): the corner entries
    couple the fastest forward and backward velocities. lambda_star has no
    closed form here; U comes from a direct mean-zero solve of D U = V.
    """
    n = grid.size
    if n < 3:
        raise ConfigurationError(
            f"scattering cycle needs at least 3 velocities, got 2N = {n}"
        )
    c = _SCATTERING_SCALE / grid.delta_v**2
    matrix = np.zeros((n, n))
    idx = np.arange(n)
    matrix[idx, idx] = -2.0 * c
    matrix[idx[:-1], idx[:-1] + 1] = c
    matrix[idx[:-1] + 1, idx[:-1]] = c
    matrix[0, n - 1] = c
    matrix[n - 1, 0] = c
    u_vector, lambda_star = compute_u_and_lambda(matrix, grid.velocities)
    return CollisionOperator(
        grid=grid,
        matrix=_read_only(matrix),
        lambda_star=lambda_star,
        u_vector=_read_only(u_vector),
    )


def _solve_mean_zero(matrix: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Solve D psi = phi - mean(phi) with <psi, 1> = 0 by one Cholesky factorization.

    When D is negative semidefinite with kernel span(1), -D + 11^T/n is
    positive definite and its solution against -phi already has mean zero;
    the re-centre only removes round-off.  LAPACK ``potrf`` factors it once,
    in place in a Fortran-ordered array, and ``potrs`` solves twice.  A
    failed factorization (D not semidefinite) or a residual above
    1e-9 |phi| (kernel larger than the constants) raises operator-invalid.
    """
    phi = phi - phi.mean()
    n = len(phi)
    system = np.subtract(1.0 / n, matrix, order="F")  # 11^T/n - D
    factor, info = lapack.dpotrf(system, overwrite_a=True, clean=False)
    if info > 0:
        raise ConfigurationError("operator-invalid: D is not negative semidefinite")
    psi = lapack.dpotrs(factor, -phi)[0]
    # one refinement step: a single solve loses about cond eps of <psi, phi>,
    # which lambda_star = <V,V>/<U,V> carries (1e-12 for sc at n = 400)
    psi += lapack.dpotrs(factor, matrix @ psi - phi)[0]
    psi -= psi.mean()
    residual = np.linalg.norm(matrix @ psi - phi)
    if not residual <= 1e-9 * np.linalg.norm(phi):
        raise ConfigurationError(
            "operator-invalid: the kernel of D is larger than the constants "
            f"(relative residual {residual / np.linalg.norm(phi):.3e} of D psi = phi)"
        )
    return psi


def compute_u_and_lambda(matrix: np.ndarray, velocities: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve D U = V on the mean-zero subspace and form the pseudo-eigenvalue.

    Parameters
    ----------
    matrix : array
        Symmetric negative semidefinite collision matrix.
    velocities : array
        The grid velocities V; their sum must vanish.

    Returns
    -------
    (U, lambda_star)
        U with D U = V, <U, 1> = 0, and lambda_star = <V,V>/<U,V> < 0.

    Raises
    ------
    ConfigurationError
        "operator-invalid: ..." when D is not finite, when it is not
        negative semidefinite, when its kernel is larger than the constants
        (V not in the range of D), or when lambda_star is not negative.
    """
    if not np.isfinite(matrix).all():
        raise ConfigurationError("operator-invalid: D must be finite")
    v = np.asarray(velocities, dtype=float)
    u = _solve_mean_zero(matrix, v)
    lambda_star = float((v @ v) / (u @ v))
    if not lambda_star < 0:
        raise ConfigurationError(
            f"operator-invalid: pseudo-eigenvalue {lambda_star} is not negative"
        )
    return u, lambda_star


@dataclass(frozen=True)
class ValidationReport:
    """Structural check results by name, in report order, and their measured magnitudes."""

    checks: dict[str, bool]
    details: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def lines(self) -> list[str]:
        out = []
        for name, ok in self.checks.items():
            extra = f" ({self.details[name]:.3e})" if name in self.details else ""
            out.append(f"{name.replace('_', ' ')}: {'ok' if ok else 'FAIL'}{extra}")
        return out


def _reaches_every_vertex(edges: np.ndarray) -> bool:
    """Whether a breadth-first sweep from vertex 0 along the edges i -> j,
    edges[i, j] true, reaches every vertex; one row gather per level."""
    seen = np.zeros(len(edges), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


_SYMMETRY_TOL = 1e-14
_ROW_SUM_TOL = 1e-13
_SEMIDEFINITE_TOL = 1e-12


def validate_operator(matrix: np.ndarray) -> ValidationReport:
    """Check the structural assumptions a collision matrix must satisfy.

    Symmetry, zero row sums, and off-diagonal sign are read straight off
    the entries.  Semidefiniteness and the kernel dimension use a dense
    symmetric eigensolve, acceptable at validation scale.  Irreducibility
    is strong connectivity of the directed graph with an edge i -> j
    wherever D_ij > 0 off the diagonal; together with the sign and row-sum
    checks it is equivalent to the scaled matrix I + delta D being an
    irreducible bistochastic matrix for small delta, so no numerical delta
    sweep is needed.

    Failures are report entries; a non-square or non-finite matrix raises.
    """
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ConfigurationError(f"expected a square matrix, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ConfigurationError("expected a finite matrix")
    n = d.shape[0]
    ones = np.ones(n)

    asymmetry = float(np.abs(d - d.T).max())
    row_sums = float(np.abs(d @ ones).max())
    col_sums = float(np.abs(ones @ d).max())
    off = d[~np.eye(n, dtype=bool)]
    min_off = float(off.min()) if off.size else 0.0

    eigenvalues = np.linalg.eigvalsh(d)
    max_eig = float(eigenvalues.max())
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    kernel_tol = 1e-8 * scale
    kernel_dim = int(np.count_nonzero(np.abs(eigenvalues) <= kernel_tol))

    # strongly connected: vertex 0 reaches every vertex, and every vertex
    # reaches 0 (vertex 0 reaches it along the reversed edges)
    edges = d > 0.0
    irreducible = _reaches_every_vertex(edges) and _reaches_every_vertex(edges.T)
    return ValidationReport(
        checks={
            "symmetric": asymmetry <= _SYMMETRY_TOL,
            "zero_row_sums": max(row_sums, col_sums) <= _ROW_SUM_TOL,
            "nonnegative_off_diagonal": min_off >= 0.0,
            "negative_semidefinite": max_eig <= _SEMIDEFINITE_TOL,
            "kernel_is_constants": kernel_dim == 1 and row_sums <= _ROW_SUM_TOL,
            "irreducible": irreducible,
        },
        details={
            "symmetric": asymmetry,
            "zero_row_sums": max(row_sums, col_sums),
            "nonnegative_off_diagonal": min_off,
            "negative_semidefinite": max_eig,
            "kernel_is_constants": float(kernel_dim),
        },
    )


def entropy_dissipation(op: CollisionOperator, f_values: np.ndarray) -> float:
    """<D F, ln F> for strictly positive F; nonpositive, zero only on constants."""
    f_values = np.asarray(f_values, dtype=float)
    if not (f_values > 0).all():
        raise ConfigurationError("entropy_dissipation needs strictly positive entries")
    return float((op.matrix @ f_values) @ np.log(f_values))
