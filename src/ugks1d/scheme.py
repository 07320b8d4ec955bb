"""Finite-volume kinetic stepper with relaxation-integrated interface fluxes.

The update advances cell averages of the distribution F and the density
rho on a periodic unit interval.  Interface fluxes come from integrating,
in time across the step, an interface value that interpolates between the
upwind trace (free streaming) and a diffusion flux (collision-dominated);
the interpolation weights are the coefficients

    w = lambda_star sigma dt / (eta eps)        (< 0)
    A = (e^w - 1)/(eta w)                       upwind weight
    C = 1/eta - A                               equilibrium weight
    D = eps (1 + e^w - 2(e^w - 1)/w) / (sigma lambda_star eta)

so one scheme serves every regime: A -> 1/eta recovers the upwind
transport scheme, and A -> 0, D -> 1/(sigma lambda_star) recovers an
explicit heat-equation step.  The kinetic update never forms the flux
phi itself, only its difference across a cell,

    phi_i - phi_{i-1} = A V (upwind difference)
                        + (jump of the edge density) C V
                        + (jump of the density gradient) D lambda_star U V,

an upwind difference of F (two slice subtractions) plus one rank-two
product.  Collisions are implicit: each cell solves
(I - c D_op) F = rhs with c = sigma dt/(eps eta).  ``Stepper`` prepares
that solve once per run: a scalar divide for BGK, the dense inverse of a
banded (tridiagonal or cyclic) matrix, applied to every cell as one matrix
product, and conjugate gradient for any other.

The implicit-diffusion variant instead closes the density update on the
new-time gradient, solving one periodic tridiagonal macro system per
step; the system is circulant, so it is solved by FFT against its
eigenvalues.  Its collision stage is unchanged.
"""

from __future__ import annotations

import enum
import math
import time as _time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .errors import ConfigurationError, SolverError
from .linalg import (
    TridiagonalSystem,
    conjugate_gradient,
    factor_cyclic,
    factor_tridiagonal,
)
from .velocity_space import CollisionOperator, OperatorKind, VelocityGrid

_UNDERFLOW = -700.0
# largest relative mass drift run() accepts; a sound run drifts by round-off
MASS_DRIFT_MAX = 1e-9
# run() also checks the mass every this many steps, not only at snapshots.
# The check is one sum over the cells, cheap next to a step; an unstable
# step can multiply the state by 1e2 or more, so a short period stops a
# blow-up long before anything overflows.
BLOWUP_CHECK_EVERY = 2
# largest entry gap |mean_v f - rho| run() accepts, relative to max(|rho|, |f|)
RHO_GAP_MAX = 1e-12


class Variant(enum.Enum):
    EXPLICIT_DIFFUSION = "explicit"
    IMPLICIT_DIFFUSION = "implicit"


@dataclass(frozen=True)
class SchemeParams:
    """Physical and mesh parameters of one run; all strictly positive."""

    eta: float
    epsilon: float
    sigma: float
    dt: float
    dx: float
    variant: Variant = Variant.EXPLICIT_DIFFUSION

    def __post_init__(self):
        for name in ("eta", "epsilon", "sigma", "dt", "dx"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")

    @property
    def stiffness(self) -> float:
        """c = sigma dt / (eps eta), the implicit collision weight."""
        return self.sigma * self.dt / (self.epsilon * self.eta)


@dataclass
class KineticState:
    """Cell averages: f has shape (nx, 2N), rho shape (nx,)."""

    f: np.ndarray
    rho: np.ndarray
    t: float

    @property
    def nx(self) -> int:
        return self.f.shape[0]


@dataclass(frozen=True)
class FluxCoefficients:
    a_coef: float
    c_coef: float
    d_coef: float
    w: float


def underflow_exp(w: float) -> float:
    """e^w with hard underflow to 0 below -700, keeping huge exponents finite."""
    return 0.0 if w < _UNDERFLOW else math.exp(w)


def _expm1_over_w(w: float) -> float:
    """(e^w - 1)/w, stable for every w < 0."""
    if w < _UNDERFLOW:
        return -1.0 / w
    if abs(w) <= 1e-6:
        return 1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0))
    return math.expm1(w) / w


def duhamel_bracket(w: float) -> float:
    """1 + e^w - 2 (e^w - 1)/w, the time average of 1 + (w tau - 1) e^{w tau}.

    The direct form cancels catastrophically near w = 0 (the value is
    w^2/6 + O(w^3)), so a convergent series handles |w| <= 1/2.
    """
    if w < _UNDERFLOW:
        return 1.0 + 2.0 / w
    if abs(w) <= 0.5:
        # sum_{k>=2} (k-1) w^k/(k+1)!; successive ratio w k/((k-1)(k+2))
        term = w * w / 6.0
        total = term
        k = 2
        while abs(term) > 1e-18 * abs(total):
            term *= w * k / ((k - 1) * (k + 2))
            k += 1
            total += term
            if k > 60:
                break
        return total
    return 1.0 + math.exp(w) - 2.0 * math.expm1(w) / w


def flux_coefficients(params: SchemeParams, lambda_star: float) -> FluxCoefficients:
    """Evaluate the three interface-flux weights for a given operator.

    Parameters
    ----------
    params : SchemeParams
        Supplies eta, epsilon, sigma, dt.
    lambda_star : float
        The operator's pseudo-eigenvalue, strictly negative.

    Returns
    -------
    FluxCoefficients
        With a_coef + c_coef = 1/eta exact by construction and w < 0.
    """
    if not lambda_star < 0:
        raise ConfigurationError(f"lambda_star must be negative, got {lambda_star}")
    w = lambda_star * params.sigma * params.dt / (params.eta * params.epsilon)
    a_coef = _expm1_over_w(w) / params.eta
    c_coef = 1.0 / params.eta - a_coef
    d_coef = (
        params.epsilon
        / (params.sigma * lambda_star * params.eta)
        * duhamel_bracket(w)
    )
    return FluxCoefficients(a_coef, c_coef, d_coef, w)


def default_time_step(dx: float, eta: float) -> float:
    """Empirical stability law dt = 0.5 dx^2 + 0.5 eta dx."""
    return 0.5 * dx * dx + 0.5 * eta * dx


def _cyclic_bands(matrix: np.ndarray) -> TridiagonalSystem | None:
    """Extract (sub, diag, sup, corners) when the matrix has no other entries."""
    n = matrix.shape[0]
    if n < 3:
        return None
    bands = TridiagonalSystem(
        sub=np.diagonal(matrix, -1).copy(),
        diag=np.diagonal(matrix).copy(),
        sup=np.diagonal(matrix, 1).copy(),
        corner_upper=float(matrix[0, n - 1]),
        corner_lower=float(matrix[n - 1, 0]),
    )
    on_bands = (
        np.count_nonzero(bands.sub)
        + np.count_nonzero(bands.diag)
        + np.count_nonzero(bands.sup)
        + (bands.corner_upper != 0.0)
        + (bands.corner_lower != 0.0)
    )
    return bands if np.count_nonzero(matrix) == on_bands else None


class Stepper:
    """One run's update, with every per-run quantity computed once.

    Built from the operator and the parameters alone: the flux
    coefficients, the half-moment weights, the rows of the flux difference
    and the inverted collision system.  The eigenvalues of the
    implicit-diffusion macro system depend on the cell count, so they are
    computed on the first step with each cell count and kept.  The variant
    is ``params.variant``.

    The kinetic update F - (dt/dx)(phi_i - phi_{i-1}) is built term by
    term in the one array that becomes the new F.  With the negative
    velocities first, the upwind difference is F_i - F_{i-1} on the
    positive half and F_{i+1} - F_i on the negative half, two slice
    subtractions that wrap one row each, times -(dt/dx) A V.  The jumps of
    the edge density and of the density gradient form an (nx, 2) array
    whose product with the rows -(dt/dx) C V and -(dt/dx) D lambda_star U V
    BLAS adds in place.  The collision stage then works on the same array.

    Collision solves run in fluctuation form: with m = rho^{n+1} known
    from the macro update, F = m 1 + G and (I - cD) G = rhs - m 1.  The
    kernel component never passes through the solver, so its rounding
    (the assembled matrix entries scale like c/dv^2) cannot leak into the
    conserved mean; G is re-centered to mean zero afterwards, which the
    exact solution satisfies.

    The implicit-diffusion macro system (I + mu Lap) rho^{n+1} =
    rho^n - (dt A/dx) diff(J), with mu = dt <V,V>/(2N) D_coef / dx^2 < 0,
    is circulant with eigenvalues 1 - 4 mu sin^2(pi k/nx) >= 1, so the
    division in Fourier space is always safe; the kinetic fluxes then use
    the new-time gradient.
    """

    def __init__(self, op: CollisionOperator, params: SchemeParams):
        self.op = op
        self.params = params
        self.coeffs = flux_coefficients(params, op.lambda_star)
        grid = op.grid
        n = grid.size
        half = grid.half_count
        v = grid.velocities
        self._half = half
        weights = np.zeros((n, 4))
        weights[:half, 0] = 1.0 / n
        weights[half:, 1] = 1.0 / n
        weights[:half, 2] = v[:half] / n
        weights[half:, 3] = v[half:] / n
        self.moment_weights = weights
        # the rows of the flux difference, each times -dt/dx: a V for the
        # upwind difference, then c V and d lambda* U V for the rank-two term
        scale = -params.dt / params.dx
        self.upwind_row = scale * self.coeffs.a_coef * v
        self.rank_two_rows = scale * np.stack(
            (self.coeffs.c_coef * v, self.coeffs.d_coef * op.lambda_star * op.u_vector * v)
        )
        self.vv_mean = float(v @ v) / n
        self.c = params.stiffness
        self.macro_mu = params.dt * self.vv_mean * self.coeffs.d_coef / params.dx**2
        self._macro_eigenvalues: dict[int, np.ndarray] = {}
        self._collision_factor = None
        self._collision_apply = None
        if op.kind is not OperatorKind.BGK:
            c = self.c
            matrix = op.matrix
            system_matrix = -c * matrix
            system_matrix[np.arange(n), np.arange(n)] += 1.0
            bands = _cyclic_bands(system_matrix)
            if bands is None:
                self._collision_apply = lambda x: x - c * (matrix @ x)
            elif bands.cyclic:
                self._collision_factor = factor_cyclic(bands)
            else:
                self._collision_factor = factor_tridiagonal(bands)

    def solve_collision(self, rhs: np.ndarray, rho_new: np.ndarray) -> np.ndarray:
        """Solve (I - cD) F = rhs cell by cell, given the updated density."""
        return self._collide(np.array(rhs, dtype=float), rho_new)

    def _collide(self, rhs: np.ndarray, rho_new: np.ndarray) -> np.ndarray:
        """Solve (I - cD) F = rhs in fluctuation form and return F.

        Overwrites ``rhs``; F is ``rhs``'s own storage except after the
        banded factor's matrix product, which makes a new array.
        """
        g = rhs
        g -= rho_new[:, None]
        if self.op.kind is OperatorKind.BGK:
            # D = P0 - I makes the fluctuation system diagonal
            g /= 1.0 + self.c
        elif self._collision_factor is not None:
            g = self._collision_factor.solve(g.T).T
        else:
            for i in range(g.shape[0]):
                try:
                    g[i] = conjugate_gradient(self._collision_apply, g[i]).x
                except SolverError as exc:
                    raise SolverError(
                        f"collision solve failed in cell {i}: {exc}", best=exc.best
                    ) from exc
        g += (rho_new - g.mean(axis=1))[:, None]
        return g

    def _solve_macro(self, rhs_rho: np.ndarray) -> np.ndarray:
        """Solve the circulant system (1 - 2 mu, mu, mu) rho = rhs by FFT."""
        nx = rhs_rho.shape[0]
        eigenvalues = self._macro_eigenvalues.get(nx)
        if eigenvalues is None:
            k = np.arange(nx // 2 + 1)
            eigenvalues = 1.0 - 4.0 * self.macro_mu * np.sin(np.pi * k / nx) ** 2
            self._macro_eigenvalues[nx] = eigenvalues
        return np.fft.irfft(np.fft.rfft(rhs_rho) / eigenvalues, n=nx)

    def step(self, state: KineticState) -> KineticState:
        """Advance one time step of the parameters' variant."""
        p = self.params
        co = self.coeffs
        f, rho = state.f, state.rho
        h = self._half
        moments = f @ self.moment_weights
        edge_rho = moments[:, 1] + np.roll(moments[:, 0], -1)
        edge_j = moments[:, 3] + np.roll(moments[:, 2], -1)

        if p.variant is Variant.EXPLICIT_DIFFUSION:
            grad = (np.roll(rho, -1) - rho) / p.dx
            flux_rho = co.a_coef * edge_j + co.d_coef * self.vv_mean * grad
            rho_new = rho - (p.dt / p.dx) * (flux_rho - np.roll(flux_rho, 1))
        else:
            rhs_rho = rho - (p.dt * co.a_coef / p.dx) * (edge_j - np.roll(edge_j, 1))
            rho_new = self._solve_macro(rhs_rho)
            grad = (np.roll(rho_new, -1) - rho_new) / p.dx

        # f - dt/dx (phi_i - phi_{i-1}), differenced term by term; the rows
        # carry the -dt/dx.  The upwind term a V (f_i - f_{i-1}) where V > 0
        # and a V (f_{i+1} - f_i) where V < 0 (the negative velocities come first):
        f_new = np.empty(f.shape)
        np.subtract(f[1:, h:], f[:-1, h:], out=f_new[1:, h:])
        np.subtract(f[0, h:], f[-1, h:], out=f_new[0, h:])
        np.subtract(f[1:, :h], f[:-1, :h], out=f_new[:-1, :h])
        np.subtract(f[0, :h], f[-1, :h], out=f_new[-1, :h])
        f_new *= self.upwind_row
        # the jumps of edge_rho and grad against the rows c V and d lambda* U V,
        # one (nx, 2) @ (2, nv) product that BLAS adds to f_new in place
        jumps = np.empty((f.shape[0], 2))
        np.subtract(edge_rho, np.roll(edge_rho, 1), out=jumps[:, 0])
        np.subtract(grad, np.roll(grad, 1), out=jumps[:, 1])
        f_new = dgemm(
            1.0, self.rank_two_rows.T, jumps.T, beta=1.0, c=f_new.T, overwrite_c=True
        ).T
        f_new += f
        return KineticState(self._collide(f_new, rho_new), rho_new, state.t + p.dt)


@dataclass(frozen=True)
class Snapshot:
    time: float
    step: int
    rho: np.ndarray
    mass: float


@dataclass
class RunResult:
    final: KineticState
    snapshots: list[Snapshot]
    steps: int
    seconds_per_step: float
    mass_scale: float  # initial mass of |rho|, the unit of mass_drift

    @property
    def mass_drift(self) -> float:
        """Largest signed drift of the total mass over the snapshots,
        relative to the initial mass of |rho| (the initial mass itself when
        rho >= 0), so it stays defined when the initial mass is zero."""
        if not self.snapshots or self.mass_scale == 0.0:
            return 0.0
        m0 = self.snapshots[0].mass
        drifts = [(s.mass - m0) / self.mass_scale for s in self.snapshots]
        return max(drifts, key=abs)


def run(
    state: KineticState,
    params: SchemeParams,
    op: CollisionOperator,
    grid: VelocityGrid,
    *,
    t_end: float | None = None,
    n_steps: int | None = None,
    snapshot_times: tuple[float, ...] = (),
) -> RunResult:
    """Advance repeatedly, emitting a snapshot at the first step reaching
    each requested time (no interpolation).  The initial state counts for
    snapshot times at or before t0.

    Exactly one of ``t_end`` / ``n_steps`` must be given.  The entry rho
    must be the velocity mean of f (``RHO_GAP_MAX``): the step carries rho,
    which keeps the mass exact, rather than recomputing it.  Every
    ``BLOWUP_CHECK_EVERY`` steps and at every snapshot, the final one
    included, the mass must be within ``MASS_DRIFT_MAX`` of the initial one,
    relative to the initial mass of |rho|, and at snapshots f must also be
    finite; otherwise the run has blown up (typically dt beyond the
    stability limit) and SolverError names the step and time.
    """
    if (t_end is None) == (n_steps is None):
        raise ConfigurationError("give exactly one of t_end or n_steps")
    if grid.half_count != op.grid.half_count:
        raise ConfigurationError(
            f"grid has N = {grid.half_count} but the operator was built on "
            f"N = {op.grid.half_count}"
        )
    gap = np.abs(state.f.mean(axis=1) - state.rho)
    cell = int(np.argmax(gap))
    worst, tol = float(gap[cell]), RHO_GAP_MAX * np.abs(state.rho).max()
    # non-finite entries are the blow-up check's; max |f| costs a pass over f,
    # so it is read only when max |rho| alone would reject
    if math.isfinite(worst) and worst > tol and worst > RHO_GAP_MAX * np.abs(state.f).max():
        raise ConfigurationError(
            f"state.rho is not the velocity mean of state.f: largest gap {worst:.3e} in cell {cell}"
        )
    if n_steps is None:
        span = t_end - state.t
        n_steps = 0 if span <= 0 else int(math.ceil(span / params.dt - 1e-9))

    dx_mass = params.dx
    m0 = dx_mass * float(state.rho.sum())
    mass_scale = dx_mass * float(np.abs(state.rho).sum())
    mass_tol = MASS_DRIFT_MAX * mass_scale
    snapshots = [Snapshot(state.t, 0, state.rho.copy(), m0)]

    def checked_mass(state: KineticState, step: int, check_f: bool) -> float:
        mass = dx_mass * float(state.rho.sum())
        finite = math.isfinite(mass) and (not check_f or bool(np.isfinite(state.f).all()))
        if not (finite and abs(mass - m0) <= mass_tol):
            what = (
                f"mass {m0:.6e} -> {mass:.6e}, drift {mass - m0:.1e} beyond {mass_tol:.1e}"
                if finite
                else "non-finite state"
            )
            raise SolverError(f"blow-up at step {step}, t = {state.t:.6g}: {what}")
        return mass

    def take_snapshot(state: KineticState, step: int) -> None:
        mass = checked_mass(state, step, check_f=True)
        snapshots.append(Snapshot(state.t, step, state.rho.copy(), mass))

    pending = sorted(snapshot_times)
    while pending and pending[0] <= state.t + 1e-12:
        pending.pop(0)

    stepper = Stepper(op, params)
    started = _time.perf_counter()
    for k in range(n_steps):
        state = stepper.step(state)
        if (k + 1) % BLOWUP_CHECK_EVERY == 0:
            checked_mass(state, k + 1, check_f=False)
        while pending and state.t >= pending[0] - 1e-12:
            pending.pop(0)
            take_snapshot(state, k + 1)
    elapsed = _time.perf_counter() - started
    if n_steps > 0 and snapshots[-1].step != n_steps:
        take_snapshot(state, n_steps)
    return RunResult(state, snapshots, n_steps, elapsed / max(n_steps, 1), mass_scale)
