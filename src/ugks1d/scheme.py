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

an upwind difference of F plus one rank-two product.  The edge density
at i+1/2 takes the positive velocities from cell i and the negative ones
from cell i+1, so its jump across cell i is the velocity mean of the
upwind difference U, and the jump of the edge current J is the velocity
mean of V U; the gradient jump is the periodic second difference of rho
over dx.  The density flux, the velocity mean of phi, is
A J + D <V,V>/(2N) grad rho, so the two updates share these jumps.
Collisions are implicit: each cell solves (I - c D_op) F = rhs with
c = sigma dt/(eps eta).  For BGK that solve is F = k rhs + (rho^{n+1} -
k mean rhs), k = 1/(1 + c), so ``Stepper`` folds k into the rows that
assemble rhs and the collision costs no pass of its own.  Every other
operator gets one dense inverse, built and centred once per run and
applied to every cell as one matrix product (``Stepper._collide``).

``KineticState`` holds no time: a run's step k is at time k dt, one
product, never a sum of dt.  f has shape (nx, 2N).  The step accepts either
memory order but works velocity-major, on f.T as one C-contiguous (2N, nx)
block, and returns f Fortran-ordered, which is that block; so a C-ordered
entry state is copied once, on a run's first step.

The implicit-diffusion variant instead closes the density update on the
new-time gradient, solving one periodic tridiagonal macro system per
step; the system is circulant, so it is solved by FFT against its
eigenvalues.  Its collision stage is unchanged.
"""

from __future__ import annotations

import enum
import math
import time as _time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, dger, dgemm

from .errors import (
    ConfigurationError,
    SolverError,
    require_choice,
    require_count,
    require_positive_finite,
)
# conjugate_gradient has no caller here; bench/spans.py wraps it by this name
from .linalg import (
    conjugate_gradient,
    factor_cyclic,
    factor_positive_definite,
    factor_tridiagonal,
)
from .velocity_space import CollisionOperator, VelocityGrid

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
    """Physical and mesh parameters of one run; all strictly positive.
    ``variant`` takes a member or its value string and stores the member."""

    eta: float
    epsilon: float
    sigma: float
    dt: float
    dx: float
    variant: Variant = Variant.EXPLICIT_DIFFUSION

    def __post_init__(self):
        for name in ("eta", "epsilon", "sigma", "dt", "dx"):
            require_positive_finite(name, getattr(self, name))
        object.__setattr__(self, "variant", require_choice(Variant, "variant", self.variant))

    @property
    def stiffness(self) -> float:
        """c = sigma dt / (eps eta), the implicit collision weight."""
        return self.sigma * self.dt / (self.epsilon * self.eta)


@dataclass
class KineticState:
    """Cell averages, f (nx, 2N) and rho (nx,), and no time: ``run`` counts
    steps.  f may be in either memory order; ``Stepper.step`` and
    ``scenarios.initialize_state`` make it Fortran-ordered (velocity-major).
    """

    f: np.ndarray
    rho: np.ndarray


@dataclass(frozen=True)
class FluxCoefficients:
    a_coef: float
    c_coef: float
    d_coef: float
    w: float


def _expm1_over_w(w: float) -> float:
    """(e^w - 1)/w, stable for every w < 0."""
    if abs(w) <= 1e-6:
        return 1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0))
    return math.expm1(w) / w


def duhamel_bracket(w: float) -> float:
    """1 + e^w - 2 (e^w - 1)/w, the time average of 1 + (w tau - 1) e^{w tau}.

    The direct form cancels catastrophically near w = 0 (the value is
    w^2/6 + O(w^3)), so a convergent series handles |w| <= 1/2.
    """
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
    """dt = 0.5 dx^2 + 0.5 eta dx, an empirical law and not a stability bound:
    at 100 x 100, eta = 1e-3, eps = 1 it is 5.4x too large (ROADMAP item 3)."""
    return 0.5 * dx * dx + 0.5 * eta * dx


def _invert_collision_system(system: np.ndarray):
    """Invert I - cD by the builder its nonzero pattern allows: tridiagonal,
    tridiagonal plus the corners (0, n-1) and (n-1, 0), or anything else by
    Cholesky.  Every record's D meets ``velocity_space.operator_contract``, so
    I - cD is symmetric and strictly diagonally dominant, hence positive
    definite, for every c > 0; a LAPACK failure here is a SolverError."""
    n = system.shape[0]
    on_band = sum(np.count_nonzero(np.diagonal(system, k)) for k in (-1, 0, 1))
    off_band = np.count_nonzero(system) - on_band
    # ints, not numpy bools, whose sum is their logical or
    corners = int(system[0, n - 1] != 0.0) + int(system[n - 1, 0] != 0.0) if n >= 3 else 0
    if off_band == 0:
        return factor_tridiagonal(system)
    return factor_cyclic(system) if off_band == corners else factor_positive_definite(system)


def _second_difference(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(a_{i+1} - a_i) - (a_i - a_{i-1}) on the periodic mesh, into ``out``."""
    nx = a.shape[0]
    backward = np.empty(nx + 1)  # a_i - a_{i-1} for i = 0 .. nx, periodic
    np.subtract(a[:1], a[-1:], out=backward[::nx])  # the wrap, at both ends
    np.subtract(a[1:], a[:-1], out=backward[1:nx])
    return np.subtract(backward[1:], backward[:-1], out=out)


class Stepper:
    """One run's update, with every per-run quantity computed once.

    Built from the operator and the parameters alone: the flux
    coefficients, the rows of the flux difference and, for every operator
    but BGK, ``_collide``'s centred inverse of I - cD, whose builder is
    chosen by the nonzero pattern of I - cD.  The record has already met
    ``velocity_space.operator_contract``, so nothing here checks D.  The
    operator is BGK when its matrix is exactly ``build_bgk``'s P0 - I.
    The upwind scale array and the eigenvalues of the implicit-diffusion
    macro system depend on the cell count, so they are kept for the cell
    count last stepped and rebuilt when a step has another; ``run`` steps
    one mesh.  The variant is ``params.variant``.

    The step works on the C-contiguous (2N, nx) block f.T, copying a
    C-ordered entry f to that order first.  With the negative velocities
    first, the upwind difference U is F_i - F_{i-1} on the positive half
    and F_{i+1} - F_i on the negative half; each half is one contiguous
    block, so each is one flat subtraction plus one wrap column.  The
    jumps of the edge density and current are then one (2, 2N) @ (2N, nx)
    product on U, and the gradient jump's 1/dx is folded into its weights.
    The explicit density update is the current jump and the second
    difference of rho against two weights, one product.

    The kinetic right-hand side rhs = F - (dt/dx)(phi_i - phi_{i-1}) is
    built term by term, times k, in the one array that becomes the new F,
    where k = 1/(1 + c) for BGK and 1 otherwise.  U is scaled by
    -k (dt/dx) A V stored as a (2N, nx) array: numpy multiplies two arrays
    of one shape faster than it broadcasts a column.  One BLAS daxpy adds
    k F.  Then one BLAS product adds three rows, -k (dt/dx) C V, ones and
    -k (dt/dx^2) D lambda_star U V, times the edge-density jump, a cell
    vector beta written over the current jump, and the second difference.

    For BGK, D = P0 - I, so the collision solve is F = k rhs + (rho^{n+1}
    - k mean rhs).  The two rank-two rows are given velocity mean zero,
    which changes no F, and beta = rho^{n+1} - the velocity mean of the
    array before the product, one BLAS read; so the product ends the step.

    Every other operator's beta is -rho^{n+1}, so the product leaves the
    fluctuation G = rhs - rho^{n+1} 1 for ``_collide``.

    The implicit-diffusion macro system (I + mu Lap) rho^{n+1} =
    rho^n - (dt A/dx) diff(J), with mu = dt <V,V>/(2N) D_coef / dx^2 < 0,
    is circulant with eigenvalues 1 - 4 mu sin^2(pi k/nx) >= 1, so the
    division in Fourier space is always safe.  Its right-hand side reads
    the current jump from the same product as the edge-density jump.
    """

    def __init__(self, op: CollisionOperator, params: SchemeParams):
        self.op = op
        self.params = params
        self.coeffs = flux_coefficients(params, op.lambda_star)
        grid = op.grid
        n = grid.size
        v = grid.velocities
        self._half = grid.half_count
        mean_row = np.full(n, 1.0 / n)
        # the velocity mean and current of the upwind difference: the jumps of
        # the edge density and the edge current across each cell
        self._jump_rows = np.stack((mean_row, v / n))
        self._ones = np.ones(n)
        c = params.stiffness
        # build_bgk's P0 - I: 1/n - 1 on the diagonal and 1/n elsewhere
        bgk = bool((op.matrix.diagonal() == 1.0 / n - 1.0).all())
        bgk = bgk and np.count_nonzero(op.matrix == 1.0 / n) == n * n - n
        self.k = 1.0 / (1.0 + c) if bgk else 1.0
        # the rows of the flux difference, each times -k dt/dx: a V for the
        # upwind difference, then c V, ones for beta and d lambda* U V / dx for
        # the second difference of rho; in Fortran order so that dgemm reads
        # them without a copy.  For BGK the rank-two rows must have velocity
        # mean zero; c V has it on the symmetric grid, and the last is centred.
        scale = -self.k * params.dt / params.dx
        self._upwind_column = (scale * self.coeffs.a_coef * v)[:, None]
        rows = np.empty((3, n), order="F")
        np.multiply(scale * self.coeffs.c_coef, v, out=rows[0])
        rows[1] = 1.0
        d_scale = scale * self.coeffs.d_coef * op.lambda_star / params.dx
        np.multiply(d_scale * op.u_vector, v, out=rows[2])
        if bgk:
            rows[2] -= mean_row @ rows[2]
        self.rows = rows
        vv_mean = float(v @ v) / n
        self.macro_mu = params.dt * vv_mean * self.coeffs.d_coef / params.dx**2
        # the density update's weights of the current jump and the second difference
        self._macro_row = np.array([params.dt * self.coeffs.a_coef / params.dx, self.macro_mu])
        # the cell count last stepped, its upwind scale and macro eigenvalues
        self._nx = self._upwind_scale = self._macro_eigenvalues = None
        self._collision_factor = None
        if not bgk:
            # I - cD in one fresh array (np.eye(n) - cD costs 8x as much at n = 800)
            system = -c * op.matrix
            system[np.arange(n), np.arange(n)] += 1.0
            factor = _invert_collision_system(system)
            # Q = inverse - 1 (column means of the inverse), in place: the
            # factor keeps its class, whose solve the benchmark's probes count
            inverse = factor.inverse
            inverse -= mean_row @ inverse
            self._collision_factor = factor

    def _collide(self, g: np.ndarray, rho_new: np.ndarray) -> np.ndarray:
        """Solve (I - cD) F = rhs given the fluctuation g = rhs - rho_new 1:
        F = Q g + rho_new 1, a new array.

        D is symmetric with D 1 = 0, so the exact F has velocity mean rho_new,
        and "solve by the inverse, then add rho_new minus the mean of the
        solution" is Q g + rho_new 1 with Q = inverse - 1 (column means of
        the inverse), formed once per run.  Q holds no entry near zero: the
        inverse's entries decay away from the diagonal, to subnormal numbers
        when c is small, which slow the product several-fold; Q's sit near
        -1/(2N) there.  The product keeps the fluctuation form because Q 1
        is zero only to the inverse's rounding (inverse 1 - 1 is 3e-12 for sc
        at the diffusive preset), so Q applied to rhs itself would leak
        |Q 1| rho_new into F on every step; g has mean zero.

        ``g`` is a C-contiguous (2N, nx) block, one column per cell; rho_new
        is added by one BLAS rank-one update (dger), in place.
        """
        f = self._collision_factor.solve(g)
        return dger(1.0, rho_new, self._ones, a=f.T, overwrite_a=True).T

    def _fit_mesh(self, nx: int) -> None:
        """Rebuild the mesh slot for nx cells unless it holds them already:
        -k (dt/dx) A V as a (2N, nx) array and, for the implicit variant,
        the eigenvalues of the macro system."""
        if nx == self._nx:
            return
        self._nx, self._upwind_scale = nx, np.repeat(self._upwind_column, nx, axis=1)
        if self.params.variant is Variant.IMPLICIT_DIFFUSION:
            k = np.arange(nx // 2 + 1)
            self._macro_eigenvalues = 1.0 - 4.0 * self.macro_mu * np.sin(np.pi * k / nx) ** 2

    def _solve_macro(self, rhs_rho: np.ndarray) -> np.ndarray:
        """Solve the circulant system (1 - 2 mu, mu, mu) rho = rhs by FFT."""
        nx = rhs_rho.shape[0]
        self._fit_mesh(nx)
        return np.fft.irfft(np.fft.rfft(rhs_rho) / self._macro_eigenvalues, n=nx)

    def step(self, state: KineticState) -> KineticState:
        """Advance one time step of the parameters' variant; the new f is
        Fortran-ordered."""
        p = self.params
        f = np.ascontiguousarray(state.f.T, dtype=float)
        rho = state.rho
        h = self._half
        nx = f.shape[1]
        self._fit_mesh(nx)
        # the upwind difference: f_{i+1} - f_i where V < 0 and f_i - f_{i-1}
        # where V > 0.  On each half's flat block the shifted subtraction is
        # wrong only where it crosses from one velocity to the next, in the
        # column the wrap then overwrites.
        f_new = np.empty_like(f)
        flat, flat_new = f.reshape(-1), f_new.reshape(-1)
        cut = h * nx  # offset of the first positive velocity
        np.subtract(flat[1:cut], flat[: cut - 1], out=flat_new[: cut - 1])
        np.subtract(f[:h, 0], f[:h, -1], out=f_new[:h, -1])
        np.subtract(flat[cut + 1 :], flat[cut:-1], out=flat_new[cut + 1 :])
        np.subtract(f[h:, 0], f[h:, -1], out=f_new[h:, 0])
        # rows: the jumps of the edge density and the edge current, then the
        # second difference of rho
        jumps = np.empty((3, nx))
        np.matmul(self._jump_rows, f_new, out=jumps[:2])
        if p.variant is Variant.EXPLICIT_DIFFUSION:
            _second_difference(rho, jumps[2])
            rho_new = rho - self._macro_row @ jumps[1:]
        else:  # Variant.IMPLICIT_DIFFUSION, the only other value SchemeParams admits
            rho_new = self._solve_macro(rho - self._macro_row[0] * jumps[1])
            _second_difference(rho_new, jumps[2])

        # k (f - dt/dx (phi_i - phi_{i-1})), differenced term by term; the
        # scale and the rows carry the -k dt/dx
        f_new *= self._upwind_scale
        daxpy(flat, flat_new, a=self.k)  # in place: flat_new is contiguous
        # beta in place of the current jump, then one (2N, 3) @ (3, nx)
        # product that BLAS adds in place; BGK's beta ends its collision,
        # the others' leaves the fluctuation
        bgk = self._collision_factor is None
        jumps[1] = rho_new - self._jump_rows[0] @ f_new if bgk else -rho_new
        f_new = dgemm(1.0, jumps.T, self.rows, beta=1.0, c=f_new.T, overwrite_c=True).T
        f_new = f_new if bgk else self._collide(f_new, rho_new)
        return KineticState(f_new.T, rho_new)


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
    n_steps: int,
    snapshot_steps: Iterable[int] = (),
) -> RunResult:
    """Advance ``n_steps`` steps, with a snapshot of the state at step 0, at
    every listed step up to ``n_steps`` and at ``n_steps``; listed steps past
    the last are ignored.  Every count is an integer in [0, 2**53].  Snapshot
    k is at time k dt, counted from 0 whatever the entry state; turning times
    into steps is ``scenarios.Scenario``'s rule, not this one's.

    f must have shape (nx, 2N) and rho (nx,).  The entry rho must be the
    velocity mean of f (``RHO_GAP_MAX``): the step carries rho, which keeps
    the mass exact, rather than recomputing it.  At every snapshot and every
    ``BLOWUP_CHECK_EVERY`` steps, the mass must be within ``MASS_DRIFT_MAX``
    of the initial one, relative to the initial mass of |rho|, and at
    snapshots f must also be finite; otherwise the run has blown up
    (typically dt beyond the stability limit) and SolverError names the
    step and time.
    """
    n_steps = require_count("n_steps", n_steps, 0)
    snapshot_steps = {require_count("snapshot step", s, 0) for s in snapshot_steps} | {n_steps}
    if grid.half_count != op.grid.half_count:
        raise ConfigurationError(
            f"grid has N = {grid.half_count} but the operator was built on "
            f"N = {op.grid.half_count}"
        )
    f_shape, rho_shape = np.shape(state.f), np.shape(state.rho)
    if len(f_shape) != 2 or f_shape[1] != op.size or rho_shape != f_shape[:1]:
        raise ConfigurationError(
            f"state.f has shape {f_shape} and state.rho {rho_shape}; "
            f"expected (nx, {op.size}) and (nx,)"
        )
    # the velocity mean by one BLAS product: f.mean(axis=1) to round-off, far below the bound
    gap = np.abs(np.full(op.size, 1.0 / op.size) @ state.f.T - state.rho)
    cell = int(np.argmax(gap))
    worst, tol = float(gap[cell]), RHO_GAP_MAX * np.abs(state.rho).max()
    # non-finite entries are the blow-up check's; max |f| costs a pass over f,
    # so it is read only when max |rho| alone would reject
    if math.isfinite(worst) and worst > tol and worst > RHO_GAP_MAX * np.abs(state.f).max():
        raise ConfigurationError(
            f"state.rho is not the velocity mean of state.f: largest gap {worst:.3e} in cell {cell}"
        )

    dx_mass = params.dx
    m0 = dx_mass * float(state.rho.sum())
    mass_scale = dx_mass * float(np.abs(state.rho).sum())
    mass_tol = MASS_DRIFT_MAX * mass_scale
    snapshots = [Snapshot(0.0, 0, state.rho.copy(), m0)]

    def checked_mass(state: KineticState, step: int, check_f: bool) -> float:
        mass = dx_mass * float(state.rho.sum())
        finite = math.isfinite(mass) and (not check_f or bool(np.isfinite(state.f).all()))
        if not (finite and abs(mass - m0) <= mass_tol):
            what = (
                f"mass {m0:.6e} -> {mass:.6e}, drift {mass - m0:.1e} beyond {mass_tol:.1e}"
                if finite
                else "non-finite state"
            )
            raise SolverError(f"blow-up at step {step}, t = {step * params.dt:.6g}: {what}")
        return mass

    stepper = Stepper(op, params)
    started = _time.perf_counter()
    for k in range(1, n_steps + 1):
        state = stepper.step(state)
        if k in snapshot_steps:
            mass = checked_mass(state, k, check_f=True)
            snapshots.append(Snapshot(k * params.dt, k, state.rho.copy(), mass))
        elif k % BLOWUP_CHECK_EVERY == 0:
            checked_mass(state, k, check_f=False)
    elapsed = _time.perf_counter() - started
    return RunResult(state, snapshots, n_steps, elapsed / max(n_steps, 1), mass_scale)
