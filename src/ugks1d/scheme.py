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

an upwind difference of F plus one rank-two product.  The density flux,
the velocity mean of phi, is A J + D <V,V>/(2N) grad rho for the edge
current J, so the two updates share the gradient jump.  Collisions are
implicit: each cell solves (I - c D_op) F = rhs with c = sigma dt/(eps eta).
For BGK that solve is F = k rhs + (rho^{n+1} - k mean rhs), k = 1/(1 + c),
so ``Stepper`` folds k into the rows that assemble rhs and the collision
costs no pass of its own.  Every other operator gets one dense inverse,
built once per run and applied to every cell as one matrix product.

``KineticState.f`` has shape (nx, 2N).  The step accepts either memory
order but works velocity-major, on f.T as one C-contiguous (2N, nx) block,
and returns f Fortran-ordered, which is that block; so a C-ordered entry
state is copied once, on a run's first step.

The implicit-diffusion variant instead closes the density update on the
new-time gradient, solving one periodic tridiagonal macro system per
step; the system is circulant, so it is solved by FFT against its
eigenvalues.  Its collision stage is unchanged.
"""

from __future__ import annotations

import enum
import math
import numbers
import time as _time
from collections.abc import Iterable
from dataclasses import dataclass
from operator import index

import numpy as np
from scipy.linalg.blas import daxpy, dger, dgemm

from .errors import ConfigurationError, SolverError
# conjugate_gradient has no caller here; bench/spans.py wraps it by this name
from .linalg import (
    conjugate_gradient,
    factor_cyclic,
    factor_positive_definite,
    factor_tridiagonal,
)
from .velocity_space import CollisionOperator, OperatorKind, VelocityGrid

# the largest count every float holds exactly: dx = 1/nx, the velocities and
# the step count t/dt are computed in floats
MAX_EXACT_COUNT = 2**53
# largest relative mass drift run() accepts; a sound run drifts by round-off
MASS_DRIFT_MAX = 1e-9
# run() also checks the mass every this many steps, not only at snapshots.
# The check is one sum over the cells, cheap next to a step; an unstable
# step can multiply the state by 1e2 or more, so a short period stops a
# blow-up long before anything overflows.
BLOWUP_CHECK_EVERY = 2
# largest entry gap |mean_v f - rho| run() accepts, relative to max(|rho|, |f|)
RHO_GAP_MAX = 1e-12


def require_positive_finite(name: str, value) -> float:
    """The rule for every physical and mesh parameter: a real number, not a bool
    or a string, positive and finite (NaN fails value > 0); returned as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} expects float, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not (number > 0 and math.isfinite(number)):
        raise ConfigurationError(f"{name} must be positive and finite, got {number}")
    return number


def require_count(name: str, value, low: int) -> int:
    """The rule for every count: an integer (numpy's pass; a bool or a float,
    10.0 included, does not) in [low, 2**53]; returned as an int."""
    try:
        count = index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ConfigurationError(f"{name} expects int, got {value!r}") from None
    if not low <= count <= MAX_EXACT_COUNT:
        raise ConfigurationError(f"{name} must be in [{low}, 2**53], got {count}")
    return count


def require_choice(kind: type[enum.Enum], name: str, value) -> enum.Enum:
    """The rule for every choice field: a member of ``kind`` or its value
    string, returned as the member."""
    try:
        return kind(value)  # a member passes through
    except ValueError:
        choices = ", ".join(member.value for member in kind)
        raise ConfigurationError(f"unknown {name} {value!r}; choose one of {choices}") from None


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
    """Cell averages: f has shape (nx, 2N), rho shape (nx,).

    f may be in either memory order; ``Stepper.step`` and
    ``scenarios.initialize_state`` make it Fortran-ordered (velocity-major).
    """

    f: np.ndarray
    rho: np.ndarray
    t: float


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
    Cholesky.  D must be symmetric, so that D 1 = 0 gives 1^T D = 0, as the
    fluctuation solve assumes; Cholesky also needs it negative semidefinite."""
    n = system.shape[0]
    on_band = sum(np.count_nonzero(np.diagonal(system, k)) for k in (-1, 0, 1))
    off_band = np.count_nonzero(system) - on_band
    # ints, not numpy bools, whose sum is their logical or
    corners = int(system[0, n - 1] != 0.0) + int(system[n - 1, 0] != 0.0) if n >= 3 else 0
    if off_band in (0, corners):  # O(n): compare the two bands and the two corners
        bands_equal = np.array_equal(np.diagonal(system, -1), np.diagonal(system, 1))
        if not (bands_equal and system[0, n - 1] == system[n - 1, 0]):
            raise ConfigurationError("operator-invalid: D is not symmetric: its bands differ")
        return factor_cyclic(system) if off_band else factor_tridiagonal(system)
    try:
        return factor_positive_definite(system)
    except SolverError as exc:
        raise ConfigurationError(
            f"operator-invalid: D is not symmetric negative semidefinite; for I - cD, {exc}"
        ) from None


def _forward_difference(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a_{i+1} - a_i along the last axis, on the periodic mesh, into ``out``."""
    np.subtract(a[..., 1:], a[..., :-1], out=out[..., :-1])
    np.subtract(a[..., 0], a[..., -1], out=out[..., -1])
    return out


def _backward_difference(a: np.ndarray) -> np.ndarray:
    """a_i - a_{i-1} along the last axis, on the periodic mesh, as a new array."""
    out = np.empty_like(a)
    np.subtract(a[..., 1:], a[..., :-1], out=out[..., 1:])
    np.subtract(a[..., 0], a[..., -1], out=out[..., 0])
    return out


class Stepper:
    """One run's update, with every per-run quantity computed once.

    Built from the operator and the parameters alone: the flux
    coefficients, the half-moment weights, the rows of the flux difference
    and the dense inverse of the collision system (none for BGK), whose
    builder is chosen by the nonzero pattern of I - cD; a dense D that is
    not negative semidefinite fails here, with operator-invalid.  The
    upwind scale array and the eigenvalues of the implicit-diffusion macro
    system depend on the cell count, so they are computed on the first step
    with each cell count and kept.  The variant is ``params.variant``.

    The step works on the C-contiguous (2N, nx) block f.T, copying a
    C-ordered entry f to that order first.  The half moments are one BLAS
    product of four weight rows with that block, and every periodic shift
    of a cell vector is a slice difference.  The jumps of the edge
    density, the density gradient and the edge current are one backward
    difference of a (3, nx) block; the explicit density update is the last
    two against two weights, one BLAS product.  The kinetic right-hand
    side rhs = F - (dt/dx)(phi_i - phi_{i-1}) is built term by term, times
    k, in the one array that becomes the new F, where k = 1/(1 + c) for BGK
    and 1 otherwise.  With the negative
    velocities first, the upwind difference is F_i - F_{i-1} on the
    positive half and F_{i+1} - F_i on the negative half; each half is one
    contiguous block, so each is one flat subtraction plus one wrap column,
    times -k (dt/dx) A V stored as a (2N, nx) array: numpy multiplies two
    arrays of one shape faster than it broadcasts a column.  One BLAS daxpy
    adds k F.  Then one BLAS product adds three rows, -k (dt/dx) C V,
    -k (dt/dx) D lambda_star U V and ones, times the edge-density and
    gradient jumps, read in place, and a cell vector beta written over the
    current jump.

    For BGK, D = P0 - I, so the collision solve is F = k rhs + (rho^{n+1}
    - k mean rhs).  The two rank-two rows are given velocity mean zero,
    which changes no F, and beta = rho^{n+1} - the velocity mean of the
    array before the product, one BLAS read; so the product ends the step.

    Every other operator solves in fluctuation form: beta = -rho^{n+1}, so
    the product leaves G = rhs - rho^{n+1} 1, and (I - cD) F' = G.  The
    kernel component never passes through the solver, so its rounding
    (the assembled matrix entries scale like c/dv^2) cannot leak into the
    conserved mean; F' is re-centred on rho^{n+1} afterwards, which the
    exact solution satisfies.  The inverse multiplies the whole (2N, nx)
    block at once; the re-centre's velocity mean is one BLAS product and
    the re-centre itself one BLAS rank-one update, in place.

    The implicit-diffusion macro system (I + mu Lap) rho^{n+1} =
    rho^n - (dt A/dx) diff(J), with mu = dt <V,V>/(2N) D_coef / dx^2 < 0,
    is circulant with eigenvalues 1 - 4 mu sin^2(pi k/nx) >= 1, so the
    division in Fourier space is always safe.  Its right-hand side takes
    its own jump of the current; the three jumps are formed after the
    solve, so the kinetic fluxes use the new-time gradient.
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
        # rows rho+, J+, rho-, J-: the density and the current of the positive
        # half, then of the negative half, as velocity means
        rows = np.zeros((4, n))
        rows[0, half:] = 1.0 / n
        rows[1, half:] = v[half:] / n
        rows[2, :half] = 1.0 / n
        rows[3, :half] = v[:half] / n
        self.moment_rows = rows
        self.mean_row = np.full(n, 1.0 / n)
        self._ones = np.ones(n)
        self.c = params.stiffness
        bgk = op.kind is OperatorKind.BGK
        self.k = 1.0 / (1.0 + self.c) if bgk else 1.0
        # the rows of the flux difference, each times -k dt/dx: a V for the
        # upwind difference, then c V and d lambda* U V for the rank-two term,
        # and ones for beta; in Fortran order so that dgemm reads them without
        # a copy.  For BGK the rank-two rows must have velocity mean zero; c V
        # has it on the symmetric grid, and d lambda* U V is centred.
        scale = -self.k * params.dt / params.dx
        self._upwind_column = (scale * self.coeffs.a_coef * v)[:, None]
        rows = np.empty((3, n), order="F")
        np.multiply(scale * self.coeffs.c_coef, v, out=rows[0])
        np.multiply(scale * self.coeffs.d_coef * op.lambda_star * op.u_vector, v, out=rows[1])
        if bgk:
            rows[1] -= self.mean_row @ rows[1]
        rows[2] = 1.0
        self.rows = rows
        self.vv_mean = float(v @ v) / n
        # the explicit density update's weights of the gradient and current jumps
        self._macro_row = (params.dt / params.dx) * np.array(
            [self.coeffs.d_coef * self.vv_mean, self.coeffs.a_coef]
        )
        self.macro_mu = params.dt * self.vv_mean * self.coeffs.d_coef / params.dx**2
        # per cell count: the upwind scale as a (2N, nx) array, and the
        # macro eigenvalues
        self._upwind_scales: dict[int, np.ndarray] = {}
        self._macro_eigenvalues: dict[int, np.ndarray] = {}
        self._collision_factor = None
        if not bgk:
            # I - cD in one fresh array (np.eye(n) - cD costs 8x as much at n = 800)
            system = -self.c * op.matrix
            system[np.arange(n), np.arange(n)] += 1.0
            self._collision_factor = _invert_collision_system(system)

    def _collide(self, g: np.ndarray, rho_new: np.ndarray) -> np.ndarray:
        """Solve (I - cD) F = rhs through the dense inverse, given the
        fluctuation g = rhs - rho_new 1, and return F re-centred on rho_new.

        Velocity-major: ``g`` is a C-contiguous (2N, nx) block, one column
        per cell, and F, a new array, has the same shape.  The re-centre
        adds beta = rho_new - (the velocity mean of the solution) to every
        velocity of a cell: one BLAS rank-one update of the solution's
        transpose, beta times a row of ones, in place.
        """
        g = self._collision_factor.solve(g)
        beta = rho_new - self.mean_row @ g
        return dger(1.0, beta, self._ones, a=g.T, overwrite_a=True).T

    def _solve_macro(self, rhs_rho: np.ndarray) -> np.ndarray:
        """Solve the circulant system (1 - 2 mu, mu, mu) rho = rhs by FFT."""
        nx = rhs_rho.shape[0]
        eigenvalues = self._macro_eigenvalues.get(nx)
        if eigenvalues is None:
            k = np.arange(nx // 2 + 1)
            eigenvalues = 1.0 - 4.0 * self.macro_mu * np.sin(np.pi * k / nx) ** 2
            self._macro_eigenvalues[nx] = eigenvalues
        return np.fft.irfft(np.fft.rfft(rhs_rho) / eigenvalues, n=nx)

    def _upwind_scale(self, nx: int) -> np.ndarray:
        """-k (dt/dx) A V as a (2N, nx) array, built once per cell count."""
        scale = self._upwind_scales.get(nx)
        if scale is None:
            scale = np.repeat(self._upwind_column, nx, axis=1)
            self._upwind_scales[nx] = scale
        return scale

    def step(self, state: KineticState) -> KineticState:
        """Advance one time step of the parameters' variant; the new f is
        Fortran-ordered."""
        p = self.params
        f = np.ascontiguousarray(state.f.T, dtype=float)
        rho = state.rho
        h = self._half
        nx = f.shape[1]
        moments = self.moment_rows @ f
        # rows: edge density, density gradient, edge current; the edge values
        # are at interface i+1/2, the positive half of cell i plus the
        # negative half of cell i+1
        cells = np.empty((3, nx))
        np.add(moments[:2, :-1], moments[2:, 1:], out=cells[::2, :-1])
        np.add(moments[:2, -1], moments[2:, 0], out=cells[::2, -1])

        if p.variant is Variant.EXPLICIT_DIFFUSION:
            jumps = self._jumps(cells, rho)
            rho_new = rho - self._macro_row @ jumps[1:]
        else:  # Variant.IMPLICIT_DIFFUSION, the only other value SchemeParams admits
            rhs_rho = rho - (p.dt * self.coeffs.a_coef / p.dx) * _backward_difference(cells[2])
            rho_new = self._solve_macro(rhs_rho)
            jumps = self._jumps(cells, rho_new)

        # k (f - dt/dx (phi_i - phi_{i-1})), differenced term by term; the
        # rows carry the -k dt/dx.  The upwind term is a V (f_{i+1} - f_i)
        # where V < 0 and a V (f_i - f_{i-1}) where V > 0.  On each half's
        # flat block the shifted subtraction is wrong only where it crosses
        # from one velocity to the next, in the column the wrap then overwrites.
        f_new = np.empty_like(f)
        flat, flat_new = f.reshape(-1), f_new.reshape(-1)
        cut = h * nx  # offset of the first positive velocity
        np.subtract(flat[1:cut], flat[: cut - 1], out=flat_new[: cut - 1])
        np.subtract(f[:h, 0], f[:h, -1], out=f_new[:h, -1])
        np.subtract(flat[cut + 1 :], flat[cut:-1], out=flat_new[cut + 1 :])
        np.subtract(f[h:, 0], f[h:, -1], out=f_new[h:, 0])
        f_new *= self._upwind_scale(nx)
        daxpy(flat, flat_new, a=self.k)  # in place: flat_new is contiguous
        # the jumps of the edge density and the gradient, and beta in place
        # of the current jump, against the rows: one (2N, 3) @ (3, nx)
        # product that BLAS adds in place; BGK's beta ends its collision,
        # the others' leaves the fluctuation
        bgk = self._collision_factor is None
        jumps[2] = rho_new - self.mean_row @ f_new if bgk else -rho_new
        f_new = dgemm(1.0, jumps.T, self.rows, beta=1.0, c=f_new.T, overwrite_c=True).T
        f_new = f_new if bgk else self._collide(f_new, rho_new)
        return KineticState(f_new.T, rho_new, state.t + p.dt)

    def _jumps(self, cells: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """Fill the gradient row of ``cells`` from ``rho`` and return the
        jumps of all three rows across each cell, a new (3, nx) array."""
        grad = _forward_difference(rho, cells[1])
        grad /= self.params.dx
        return _backward_difference(cells)


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
    the last are ignored.  Every count is an integer in [0, 2**53].  Turning
    times into steps is ``scenarios.Scenario``'s rule, not this one's.

    The entry rho must be the velocity mean of f (``RHO_GAP_MAX``): the
    step carries rho, which keeps the mass exact, rather than recomputing
    it.  At every snapshot and every ``BLOWUP_CHECK_EVERY`` steps, the mass
    must be within ``MASS_DRIFT_MAX`` of the initial one, relative to the
    initial mass of |rho|, and at snapshots f must also be finite;
    otherwise the run has blown up (typically dt beyond the stability
    limit) and SolverError names the step and time.
    """
    n_steps = require_count("n_steps", n_steps, 0)
    snapshot_steps = {require_count("snapshot step", s, 0) for s in snapshot_steps} | {n_steps}
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

    stepper = Stepper(op, params)
    started = _time.perf_counter()
    for k in range(1, n_steps + 1):
        state = stepper.step(state)
        if k in snapshot_steps:
            mass = checked_mass(state, k, check_f=True)
            snapshots.append(Snapshot(state.t, k, state.rho.copy(), mass))
        elif k % BLOWUP_CHECK_EVERY == 0:
            checked_mass(state, k, check_f=False)
    elapsed = _time.perf_counter() - started
    return RunResult(state, snapshots, n_steps, elapsed / max(n_steps, 1), mass_scale)
