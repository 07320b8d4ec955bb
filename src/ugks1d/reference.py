"""Independent reference solutions and dense spectral machinery.

Everything here exists to validate the production scheme and is allowed
dense O((2N)^3) linear algebra; nothing in this module runs inside timed
solver paths.  The references are

* the exact free-transport solution (characteristics of eta df/dt + v df/dx = 0),
* the exact periodic heat-kernel density for the diffusive limit, in closed form,
* the explicit finite-difference limit scheme the solver must reduce to,
* the dense interface-value oracle M(t)^{-1} S(t) built from eigenprojectors,
* the per-interface kinetic and density fluxes the vectorised stepper must match,
* the Chapman-Enskog residual measuring distance to near-equilibrium form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ConfigurationError
from .scheme import FluxCoefficients, SchemeParams, underflow_exp
from .velocity_space import CollisionOperator, VelocityGrid


@dataclass(frozen=True)
class InitialData:
    """Far-from-equilibrium initial state f0(x,v) = exp(-(x-1/2)^2 - 10(1-v)^2).

    The velocity profile concentrates mass near v = 1, so the state is far
    from the velocity-constant equilibrium.  The exact velocity average is
    rho0(x) = amplitude * exp(-(x-1/2)^2) with amplitude = (1/2) integral_{-1}^{1}
    exp(-10(1-v)^2) dv = (sqrt(pi/10)/4) erf(2 sqrt(10)) (about 0.14).
    """

    amplitude: float

    def f0(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.exp(-((x - 0.5) ** 2) - 10.0 * (1.0 - v) ** 2)

    def rho0(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-((x - 0.5) ** 2))


@functools.lru_cache(maxsize=1)
def make_initial_data() -> InitialData:
    return InitialData(math.sqrt(math.pi / 10.0) / 4.0 * math.erf(2.0 * math.sqrt(10.0)))


def exact_transport(t: float, x, v, eta: float = 1.0, data: InitialData | None = None):
    """Back-trace along characteristics: f0((x - v t/eta) mod 1, v)."""
    if data is None:
        data = make_initial_data()
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return data.f0(np.mod(x - v * t / eta, 1.0), v)


def transport_density(t: float, x, grid: VelocityGrid, eta: float = 1.0) -> np.ndarray:
    """Velocity mean of the exact transport solution: f0's back-traced x factor @ v weights.

    The back-traced offset y = x - 1/2 - v t/eta is wrapped by y - rint(y),
    which equals mod(x - v t/eta, 1) - 1/2 except where y is a half-integer
    and rint may give +1/2 for -1/2; exp(-y^2), the periodic extension of the
    x factor, is even and so takes the same value there.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = grid.velocities
    y = np.subtract.outer(x - 0.5, v * t / eta)
    y -= np.rint(y)
    np.exp(np.negative(np.square(y, out=y), out=y), out=y)
    return y @ (np.exp(-10.0 * (1.0 - v) ** 2) / grid.size)


def exact_diffusion_density(t: float, x, kappa_abs: float, data: InitialData | None = None):
    """Density of the limiting heat equation on the unit torus, exact to round-off.

    rho(t,x) = integral_0^1 K_per(x - y; kappa t) rho0(y) dy.  Each periodic
    image of the Gaussian kernel times the Gaussian rho0 integrates to an
    erf difference: with s = 1 + 4 kappa t, r = sqrt(s/(4 kappa t)),
    c_j = x + j and m_j = (c_j + 2 kappa t)/s,

        rho = A/(2 sqrt s) sum_j exp(-(c_j - 1/2)^2/s) [erf(r(1 - m_j)) + erf(r m_j)].

    x is first wrapped into [0, 1).  The sum keeps |j| <= J, the least J whose
    first dropped image has exponent (J + 1/2)^2/s >= 40, so the dropped
    tail lies below round-off at every kappa t; the cost is O(J nx).
    """
    if not t > 0:
        raise ConfigurationError(f"diffusion reference needs t > 0, got {t}")
    if not kappa_abs > 0:
        raise ConfigurationError(f"kappa must be positive, got {kappa_abs}")
    if data is None:
        data = make_initial_data()
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    kt = kappa_abs * t
    s = 1.0 + 4.0 * kt
    r = math.sqrt(s / (4.0 * kt))
    n_images = math.ceil(math.sqrt(40.0 * s) - 0.5)
    images = np.arange(-n_images, n_images + 1, dtype=float)[:, None]
    c = np.mod(np.atleast_1d(x), 1.0)[None, :] + images
    m = (c + 2.0 * kt) / s
    terms = np.exp(-((c - 0.5) ** 2) / s) * (erf(r * (1.0 - m)) + erf(r * m))
    values = (data.amplitude / (2.0 * math.sqrt(s))) * terms.sum(axis=0)
    return float(values[0]) if scalar else values


def limit_diffusion_step(rho: np.ndarray, dt: float, dx: float, kappa_d: float) -> np.ndarray:
    """One explicit step of the limiting heat equation on the periodic mesh."""
    rho = np.asarray(rho, dtype=float)
    # (rho_{i+1} - 2 rho_i) + rho_{i-1}, by slices
    lap = np.empty_like(rho)
    lap[:-1] = rho[1:]
    lap[-1] = rho[0]
    lap -= 2.0 * rho
    lap[1:] += rho[:-1]
    lap[0] += rho[-1]
    return rho + (dt * kappa_d / dx**2) * lap


@dataclass(frozen=True)
class SpectralDecomposition:
    """Grouped symmetric eigendecomposition D = sum_k lambda_k P_k.

    The kernel group comes first with its eigenvalue pinned to exactly 0.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        return np.einsum("k,kij->ij", self.eigenvalues, self.projectors)

    def identity_defect(self) -> float:
        total = self.projectors.sum(axis=0)
        return float(np.abs(total - np.eye(total.shape[0])).max())

    def apply_pseudo_inverse(self, phi: np.ndarray) -> np.ndarray:
        """D^+ phi = sum_{k>=1} lambda_k^{-1} P_k phi (zero on the kernel)."""
        phi = np.asarray(phi, dtype=float)
        out = np.zeros_like(phi)
        for lam, proj in zip(self.eigenvalues[1:], self.projectors[1:]):
            out += (proj @ phi) / lam
        return out


def dense_spectral(op: CollisionOperator) -> SpectralDecomposition:
    """Eigendecomposition of D grouped into eigenspace projectors."""
    size = op.size
    if size > 512:
        raise ConfigurationError(f"dense spectral path limited to 2N <= 512, got {size}")
    eigenvalues, vectors = np.linalg.eigh(op.matrix)
    tol = 1e-8 * max(1.0, float(np.abs(eigenvalues).max()))
    groups: list[list[int]] = []
    for idx, lam in enumerate(eigenvalues):
        if groups and lam - eigenvalues[groups[-1][0]] <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    grouped_values = []
    projectors = []
    zero_pos = None
    for g_idx, group in enumerate(groups):
        lam = float(np.mean(eigenvalues[group]))
        basis = vectors[:, group]
        projectors.append(basis @ basis.T)
        if abs(lam) <= tol:
            lam = 0.0
            zero_pos = g_idx
        grouped_values.append(lam)
    if zero_pos is None:
        raise ConfigurationError("operator has no kernel eigenvalue; constants must be invariant")
    order = [zero_pos] + [k for k in range(len(groups)) if k != zero_pos]
    return SpectralDecomposition(
        eigenvalues=np.array([grouped_values[k] for k in order]),
        projectors=np.stack([projectors[k] for k in order]),
    )


def _relaxation_exponent(t_rel: float, params: SchemeParams, lambda_star: float) -> float:
    if t_rel < 0 or t_rel > params.dt * (1.0 + 1e-12):
        raise ConfigurationError(f"t_rel must lie in [0, dt], got {t_rel}")
    return lambda_star * params.sigma * t_rel / (params.eta * params.epsilon)


def c_weight(w: float) -> float:
    """1 + (w - 1) e^w, the lambda_star-scaled Duhamel gradient weight.

    Equals sum_{m>=2} (m-1) w^m / m!, which the series branch uses below
    |w| = 1/2 where the direct form loses all significant digits.
    """
    if w < -700.0:
        return 1.0
    if abs(w) <= 0.5:
        term = 0.5 * w * w
        total = term
        m = 2
        while abs(term) > 1e-18 * abs(total):
            term *= w * m / ((m - 1) * (m + 1))
            m += 1
            total += term
            if m > 60:
                break
        return total
    e = math.exp(w)
    return 1.0 + (w - 1.0) * e


def assemble_M(t_rel: float, params: SchemeParams, op: CollisionOperator) -> np.ndarray:
    """M(t) = e^w I + (1 - e^w) D/lambda_star with w = lambda_star sigma t_rel/(eta eps)."""
    e = underflow_exp(_relaxation_exponent(t_rel, params, op.lambda_star))
    return e * np.eye(op.size) + (1.0 - e) * (op.matrix / op.lambda_star)


def m_inverse(
    t_rel: float,
    params: SchemeParams,
    op: CollisionOperator,
    spectral: SpectralDecomposition | None = None,
) -> np.ndarray:
    """M(t)^{-1} = sum_k A_k^{-1} P_k with A_k = e^w + (lambda_k/lambda_star)(1 - e^w)."""
    if spectral is None:
        spectral = dense_spectral(op)
    e = underflow_exp(_relaxation_exponent(t_rel, params, op.lambda_star))
    if e == 0.0:
        raise ConfigurationError("relaxation factor underflowed; M^{-1} kernel weight overflows")
    weights = e + (spectral.eigenvalues / op.lambda_star) * (1.0 - e)
    return np.einsum("k,kij->ij", 1.0 / weights, spectral.projectors)


def assemble_S(
    t_rel: float,
    f_left: np.ndarray,
    f_right: np.ndarray,
    params: SchemeParams,
    op: CollisionOperator,
    grid: VelocityGrid,
    dx: float,
) -> np.ndarray:
    """Duhamel source with the density-gradient space reconstruction.

    S_j = e^w upwind_j + v_j [ (C(t)/lambda_star) (D - lambda_star I)
          (-(eps/sigma) grad rho 1) ]_j, evaluated with the dense operator
    so the D 1 = 0 cancellation is exercised, not assumed.
    """
    f_left = np.asarray(f_left, dtype=float)
    f_right = np.asarray(f_right, dtype=float)
    w = _relaxation_exponent(t_rel, params, op.lambda_star)
    e = underflow_exp(w)
    v = grid.velocities
    upwind = np.where(v > 0, f_left, f_right)
    grad = (f_right.mean() - f_left.mean()) / dx
    cal_c_over_lambda = c_weight(w) / op.lambda_star**2
    source = (op.matrix - op.lambda_star * np.eye(op.size)) @ np.full(
        op.size, -params.epsilon * grad / params.sigma
    )
    return e * upwind + cal_c_over_lambda * v * source


@dataclass(frozen=True)
class InterfaceComparison:
    closed_form: np.ndarray
    resolvent: np.ndarray

    @property
    def max_abs_diff(self) -> float:
        return float(np.abs(self.closed_form - self.resolvent).max())


def interface_value_oracle(
    t_rel: float,
    f_left: np.ndarray,
    f_right: np.ndarray,
    params: SchemeParams,
    op: CollisionOperator,
    grid: VelocityGrid,
    dx: float,
    spectral: SpectralDecomposition | None = None,
) -> InterfaceComparison:
    """Closed-form interface value next to the dense M(t)^{-1} S(t) it approximates.

    closed = e^w upwind + (1 - e^w)(rho_left^+ + rho_right^-) 1
             + c_weight(w) (eps/sigma) grad rho U
    """
    f_left = np.asarray(f_left, dtype=float)
    f_right = np.asarray(f_right, dtype=float)
    w = _relaxation_exponent(t_rel, params, op.lambda_star)
    e = underflow_exp(w)
    v = grid.velocities
    half = grid.half_count
    upwind = np.where(v > 0, f_left, f_right)
    rho_plus_left = f_left[half:].sum() / grid.size
    rho_minus_right = f_right[:half].sum() / grid.size
    grad = (f_right.mean() - f_left.mean()) / dx
    closed = (
        e * upwind
        + (1.0 - e) * (rho_plus_left + rho_minus_right)
        + c_weight(w) * (params.epsilon / params.sigma) * grad * op.u_vector
    )
    resolvent = m_inverse(t_rel, params, op, spectral) @ assemble_S(
        t_rel, f_left, f_right, params, op, grid, dx
    )
    return InterfaceComparison(closed_form=closed, resolvent=resolvent)


@dataclass(frozen=True)
class HalfMoments:
    rho_minus: float
    rho_plus: float
    j_minus: float
    j_plus: float


def half_moments(f_row: np.ndarray, grid: VelocityGrid) -> HalfMoments:
    """Density and current split by velocity sign, 1/(2N)-weighted."""
    f_row = np.asarray(f_row, dtype=float)
    n = grid.size
    half = grid.half_count
    v = grid.velocities
    inv = 1.0 / n
    return HalfMoments(
        rho_minus=inv * float(f_row[:half].sum()),
        rho_plus=inv * float(f_row[half:].sum()),
        j_minus=inv * float(v[:half] @ f_row[:half]),
        j_plus=inv * float(v[half:] @ f_row[half:]),
    )


def micro_flux(
    f_left: np.ndarray,
    f_right: np.ndarray,
    coeffs: FluxCoefficients,
    op: CollisionOperator,
    grid: VelocityGrid,
    dx: float,
) -> np.ndarray:
    """Kinetic flux through the interface between two cells.

    phi_j = A v_j upwind_j + C v_j (rho_plus_left + rho_minus_right)
          + D (rho_right - rho_left)/dx * lambda_star U_j v_j
    """
    v = grid.velocities
    left = half_moments(f_left, grid)
    right = half_moments(f_right, grid)
    upwind = np.where(v > 0, f_left, f_right)
    grad = ((right.rho_minus + right.rho_plus) - (left.rho_minus + left.rho_plus)) / dx
    return (
        coeffs.a_coef * v * upwind
        + coeffs.c_coef * v * (left.rho_plus + right.rho_minus)
        + coeffs.d_coef * grad * op.lambda_star * op.u_vector * v
    )


def macro_flux(
    f_left: np.ndarray,
    f_right: np.ndarray,
    coeffs: FluxCoefficients,
    op: CollisionOperator,
    grid: VelocityGrid,
    dx: float,
) -> float:
    """Density flux; equals the velocity average of micro_flux."""
    v = grid.velocities
    left = half_moments(f_left, grid)
    right = half_moments(f_right, grid)
    grad = ((right.rho_minus + right.rho_plus) - (left.rho_minus + left.rho_plus)) / dx
    vv_mean = float(v @ v) / grid.size
    return coeffs.a_coef * (left.j_plus + right.j_minus) + coeffs.d_coef * vv_mean * grad


def chapman_enskog_residual(
    f: np.ndarray, rho: np.ndarray, op: CollisionOperator, params: SchemeParams
) -> float:
    """Distance to the near-equilibrium form rho 1 + (eps/sigma) drho/dx U.

    The density gradient uses periodic central differences; the result is
    the max over cells of the sup-norm in velocity.
    """
    f = np.asarray(f, dtype=float)
    rho = np.asarray(rho, dtype=float)
    dxrho = (np.roll(rho, -1) - np.roll(rho, 1)) / (2.0 * params.dx)
    target = rho[:, None] + (params.epsilon / params.sigma) * dxrho[:, None] * op.u_vector[None, :]
    return float(np.abs(f - target).max())


def upwind_transport_step(
    f: np.ndarray, dt: float, dx: float, eta: float, grid: VelocityGrid
) -> np.ndarray:
    """First-order donor-cell upwind step for eta df/dt + v df/dx = 0."""
    f = np.asarray(f, dtype=float)
    courant = grid.velocities * (dt / (eta * dx))
    worst = float(np.abs(courant).max())
    if worst > 1.0 + 1e-12:
        raise ConfigurationError(f"upwind CFL violated: max |v| dt/(eta dx) = {worst:.6g} > 1")
    backward = f - np.roll(f, 1, axis=0)
    forward = np.roll(f, -1, axis=0) - f
    diff = np.where(courant[None, :] > 0, backward, forward)
    return f - courant[None, :] * diff
