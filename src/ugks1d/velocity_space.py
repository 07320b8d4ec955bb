"""Velocity grids and discrete collision operators.

The velocity interval (-1, 1) is sampled by 2N cell-centered points
v_j = -1 + dv/2 + (j-1) dv, dv = 1/N.  The grid is symmetric and never
contains v = 0, so upwind sign decisions cannot tie.

A collision operator is the record (grid, D, lambda_star, U).  Its
contract, ``operator_contract``, is checked whenever a record is made: D
is exactly symmetric, its rows sum to zero, and its off-diagonal entries
are nonnegative; and

    D U = V,   <U, 1> = 0,   lambda_star = <V, V> / <U, V> < 0,

with inner products plain unweighted sums over the velocity index.  Such
a D is W - diag(W 1) for symmetric nonnegative weights W, minus the
Laplacian of a weighted graph, so it conserves the velocity average
rho = (1/2N) sum_j F_j and is negative semidefinite; its kernel is the
constants when the graph is connected (``validate_operator``'s
``irreducible``).

U and lambda_star come from the three builders, BGK, Fokker-Planck and
periodic scattering, in closed form (-1, -2 and -6N^2/(4N^2 + 11)), or from
the caller of a record built by hand.  This layer builds records and checks
their contract; it solves nothing and calls no LAPACK routine.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

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
        operator_contract(self.matrix, self.grid.velocities, self.u_vector, self.lambda_star).require()

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


def _cycle_laplacian(weights: np.ndarray) -> np.ndarray:
    """W - diag(W 1) on the cycle of velocity indices whose edge j -- j+1
    (mod 2N) has weight ``weights[j]``, zero for no edge; the wrap edge is
    added, so at 2N = 2 it sums with the one band edge."""
    n = len(weights)
    matrix = np.zeros((n, n))
    flat = matrix.reshape(-1)  # a view, whose stride n + 1 walks a diagonal
    flat[1 :: n + 1] = flat[n :: n + 1] = weights[:-1]
    matrix[0, n - 1] += weights[-1]
    matrix[n - 1, 0] += weights[-1]
    flat[:: n + 1] = -(weights + weights[np.arange(n) - 1])  # np.roll(weights, 1), by a gather
    return matrix


def build_fokker_planck(grid: VelocityGrid) -> CollisionOperator:
    """Conservative velocity-diffusion operator with degenerate edges.

    Row j applies the flux difference
    (1 - v_{j+1/2}^2)(F_{j+1} - F_j) - (1 - v_{j-1/2}^2)(F_j - F_{j-1}),
    all divided by dv^2, with cell edges at v = m/N: the cycle Laplacian
    whose edge j -- j+1, at m = j + 1 - N, has weight N^2 - m^2.  The wrap
    edge sits at v = +-1, where the diffusivity 1 - v^2 and so the weight
    vanish; that choice is what makes D V = -2 V hold exactly.  The weights
    are integers, so the assembled matrix is exact in floating point.
    """
    m = np.arange(1, grid.size + 1) - grid.half_count
    return CollisionOperator(
        grid=grid,
        matrix=_read_only(_cycle_laplacian((grid.half_count**2 - m * m).astype(float))),
        lambda_star=-2.0,
        u_vector=_read_only(-0.5 * grid.velocities),
    )


# the scattering operator is this multiple of the periodic velocity Laplacian
_SCATTERING_SCALE = 0.1


def build_scattering(grid: VelocityGrid) -> CollisionOperator:
    """Scaled periodic Laplacian in velocity: the cycle Laplacian with weight
    s / dv^2, s = _SCATTERING_SCALE, on every edge, so the corner entries
    couple the fastest forward and backward velocities.

    U and lambda_star are closed-form, as for BGK and Fokker-Planck.  The
    second difference of v^3 is exactly 6 v dv^2 and that of v is 0, so
    U = (V^3 - a V) / (6 s) meets D U = V on every row away from the wrap
    edge.  The two wrap rows read p(v_{2N}) where the cycle stands for
    p(v_1 - dv) = p(v_{2N} - 2), so the cubic p must take equal values
    there, which fixes a = 1 + 3 dv^2 / 4.  U is odd, so its mean is zero,
    and the sums of v^2 and v^4 over the grid give

        lambda_star = <V, V> / <U, V> = -6 N^2 / (4 N^2 + 11)  ->  -3/2.
    """
    n, half = grid.size, grid.half_count
    if n < 3:
        raise ConfigurationError(f"scattering cycle needs at least 3 velocities, got 2N = {n}")
    v = grid.velocities
    u_vector = v * (v * v - (1.0 + 0.75 * grid.delta_v**2)) / (6.0 * _SCATTERING_SCALE)
    return CollisionOperator(
        grid=grid,
        matrix=_read_only(_cycle_laplacian(np.full(n, _SCATTERING_SCALE / grid.delta_v**2))),
        lambda_star=-6.0 * half * half / (4.0 * half * half + 11.0),
        u_vector=_read_only(u_vector),
    )


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

    def require(self) -> None:
        """Raise operator-invalid naming the first failed check and its magnitude."""
        for name, ok in self.checks.items():
            if not ok:
                raise ConfigurationError(f"operator-invalid: {name} fails ({self.details[name]:.3e})")


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


def operator_contract(
    matrix: np.ndarray, velocities=None, u_vector=None, lambda_star=None
) -> ValidationReport:
    """Every rule a collision matrix, and with ``velocities``, ``u_vector``
    and ``lambda_star`` a record, must meet; O(n^2).

    The matrix rules: D is exactly symmetric, max |D 1| <= 1e-13 max |D_ii|,
    and no off-diagonal entry is negative.  Together they make D
    = W - diag(W 1) with W symmetric and nonnegative, minus a weighted graph
    Laplacian, since <x, D x> = -1/2 sum_ij W_ij (x_i - x_j)^2.  So D is
    negative semidefinite, its kernel is the constants exactly when the graph
    is connected, and I - cD is strictly diagonally dominant, so positive
    definite, for every c > 0; no eigen-solve is needed.  The off-diagonal
    sign is what keeps f >= 0 under the exact collision model.

    The record rules: |D U - V| <= 1e-9 |V|, |<U, 1>| <= 1e-12 |U|_1, and
    lambda_star < 0 within 1e-12, relative, of <V,V>/<U,V>.  Each detail is
    the magnitude its check compares, 0 when the rule holds exactly: the
    largest asymmetry, max |D 1|, the most negative off-diagonal entry, and
    the three relative gaps.  Wrong shapes or a non-finite entry raise
    operator-invalid.
    """
    d = np.asarray(matrix, dtype=float)
    if velocities is None:
        if d.ndim != 2 or not 0 < d.shape[0] == d.shape[1]:
            raise ConfigurationError(
                f"operator-invalid: expected a square matrix, got shape {d.shape}")
        columns = np.ones((d.shape[0], 1))
    else:
        n, shapes = len(velocities), (d.shape, np.shape(u_vector))
        if shapes != ((n, n), (n,)):
            raise ConfigurationError(f"operator-invalid: matrix and u_vector have shapes {shapes}; "
                                     f"the grid's 2N = {n} needs ({n}, {n}) and ({n},)")
        columns = np.ones((n, 2))
        columns[:, 1] = u_vector
    # D 1, and D U for a record, by one product; a non-finite entry of D makes
    # its row sum non-finite, so only then is D itself scanned.  Non-finite
    # input raises and a zero U fails its gaps, so neither warns
    with np.errstate(divide="ignore", invalid="ignore"):
        products = d @ columns
        if not (np.isfinite(columns).all()
                and (np.isfinite(products[:, 0]).all() or np.isfinite(d).all())):
            what = "D" if velocities is None else "matrix and u_vector"
            raise ConfigurationError(f"operator-invalid: {what} must be finite")
        n = d.shape[0]
        # an exact comparison first: the asymmetry's own pass is paid only on failure
        asymmetry = 0.0 if np.array_equal(d, d.T) else float(np.abs(d - d.T).max())
        row_sums = float(np.abs(products[:, 0]).max())
        # no negative entry off the diagonal: the least one is found only on failure
        negative_off = np.count_nonzero(d < 0.0) - np.count_nonzero(d.diagonal() < 0.0)
        min_off = float(np.where(np.eye(n, dtype=bool), 0.0, d).min()) if negative_off else 0.0
        tol = 1e-13 * float(np.abs(d.diagonal()).max())
        checks = {"symmetric": asymmetry == 0.0, "zero_row_sums": row_sums <= tol,
                  "nonnegative_off_diagonal": min_off >= 0.0}
        details = {"symmetric": asymmetry, "zero_row_sums": row_sums,
                   "nonnegative_off_diagonal": min_off}
        if velocities is not None:
            v, u = np.asarray(velocities, dtype=float), np.asarray(u_vector, dtype=float)
            details["d_u_equals_v"] = float(np.linalg.norm(products[:, 1] - v) / np.linalg.norm(v))
            details["u_mean_zero"] = float(abs(u.sum()) / np.abs(u).sum())
            details["lambda_star"] = float(abs(lambda_star / ((v @ v) / (u @ v)) - 1.0))
            checks["d_u_equals_v"] = details["d_u_equals_v"] <= 1e-9
            checks["u_mean_zero"] = details["u_mean_zero"] <= 1e-12
            checks["lambda_star"] = lambda_star < 0 and details["lambda_star"] <= 1e-12
    return ValidationReport(checks, details)


def validate_operator(matrix: np.ndarray) -> ValidationReport:
    """The matrix rules of ``operator_contract``, with its names, tolerances
    and magnitudes, then ``irreducible``: strong connectivity of the directed
    graph with an edge i -> j wherever D_ij > 0 off the diagonal.  With the
    matrix rules it says that the kernel of D is the constants.  The sweep
    costs more than a whole run's set-up at 2N = 100, so records skip it.

    Failures are report entries; a non-square or non-finite matrix raises.
    """
    report = operator_contract(matrix)
    # strongly connected: vertex 0 reaches every vertex, and every vertex
    # reaches 0 (vertex 0 reaches it along the reversed edges)
    edges = np.asarray(matrix, dtype=float) > 0.0
    irreducible = _reaches_every_vertex(edges) and _reaches_every_vertex(edges.T)
    return ValidationReport({**report.checks, "irreducible": irreducible}, report.details)


def entropy_dissipation(op: CollisionOperator, f_values: np.ndarray) -> float:
    """<D F, ln F> for strictly positive F; nonpositive, zero only on constants."""
    f_values = np.asarray(f_values, dtype=float)
    if not (f_values > 0).all():
        raise ConfigurationError("entropy_dissipation needs strictly positive entries")
    return float((op.matrix @ f_values) @ np.log(f_values))
