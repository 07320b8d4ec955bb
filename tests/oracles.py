"""Independent oracles the tests hold the production scheme against.

Each is allowed dense O((2N)^3) linear algebra and shares no code path with
``ugks1d.scheme.Stepper``:

* the exact free-transport solution (characteristics of eta df/dt + v df/dx = 0),
  with its own copy of the initial datum f0,
* the grouped eigendecomposition of the collision operator D,
* the mean-zero solve D psi = phi through scipy's ``cho_factor``/``cho_solve``,
* the dense interface-value oracle M(t)^{-1} S(t) built from eigenprojectors,
* the per-interface kinetic and density fluxes the vectorised stepper must match,
  and one whole step built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ugks1d.errors import ConfigurationError
from ugks1d.scheme import (
    FluxCoefficients,
    KineticState,
    SchemeParams,
    Variant,
    flux_coefficients,
)
from ugks1d.velocity_space import CollisionOperator, VelocityGrid

# below this exponent the oracles take e^w as exactly 0 (e^-700 is 1e-304)
_UNDERFLOW = -700.0


def underflow_exp(w: float) -> float:
    """e^w with hard underflow to 0 below -700, keeping huge exponents finite."""
    return 0.0 if w < _UNDERFLOW else math.exp(w)


def f0(x, v):
    """The initial datum exp(-(x - 1/2)^2 - 10 (1 - v)^2), written out apart
    from ``ugks1d.reference`` so the transport oracle checks it."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.exp(-((x - 0.5) ** 2) - 10.0 * (1.0 - v) ** 2)


def exact_transport(t: float, x, v, eta: float = 1.0):
    """Back-trace along characteristics: f0((x - v t/eta) mod 1, v)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return f0(np.mod(x - v * t / eta, 1.0), v)


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


def cho_solve_mean_zero(matrix: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """D psi = phi - mean(phi) with <psi, 1> = 0 by ``cho_factor``/``cho_solve`` on
    11^T/n - D, which is positive definite when the kernel of D is the
    constants: one factor, two solves (one refinement step) and a re-centre.
    The package has no such solve; its builders write U in closed form.  The
    refined lambda_star still loses accuracy as N^2 on sc, 5.5e-14 relative
    at N = 400 and 3.7e-13 at N = 800."""
    phi = phi - phi.mean()
    n = len(phi)
    factor = cho_factor(np.full((n, n), 1.0 / n) - matrix)
    psi = cho_solve(factor, -phi)
    psi += cho_solve(factor, matrix @ psi - phi)
    return psi - psi.mean()


def u_and_lambda(matrix: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """U with D U = V and <U, 1> = 0, and lambda_star = <V,V>/<U,V>, by the solve above."""
    u = cho_solve_mean_zero(matrix, v)
    return u, float((v @ v) / (u @ v))


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
    grad: float | None = None,
) -> np.ndarray:
    """Kinetic flux through the interface between two cells.

    phi_j = A v_j upwind_j + C v_j (rho_plus_left + rho_minus_right)
          + D grad lambda_star U_j v_j,

    where the density gradient ``grad`` defaults to (rho_right - rho_left)/dx
    from the two cells' velocity means.
    """
    v = grid.velocities
    left = half_moments(f_left, grid)
    right = half_moments(f_right, grid)
    upwind = np.where(v > 0, f_left, f_right)
    if grad is None:
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


def per_interface_step(
    op: CollisionOperator, params: SchemeParams, state: KineticState
) -> KineticState:
    """One step from the per-interface flux formulas looped over interfaces,
    followed by a dense solve of I - cD in every cell.

    The explicit-diffusion variant updates rho by the density fluxes.  The
    implicit-diffusion variant solves its periodic macro system
    (I + mu Lap) rho^{n+1} = rho^n - (dt A/dx) diff(J), mu = dt <V,V>/(2N)
    D/dx^2, as one dense system, and puts the new-time density gradient in
    the kinetic fluxes.
    """
    nx = state.f.shape[0]
    grid = op.grid
    co = flux_coefficients(params, op.lambda_star)
    f = state.f
    right = np.roll(f, -1, axis=0)
    ratio = params.dt / params.dx
    if params.variant is Variant.EXPLICIT_DIFFUSION:
        flux_rho = np.array(
            [macro_flux(f[i], right[i], co, op, grid, params.dx) for i in range(nx)]
        )
        rho_new = state.rho - ratio * (flux_rho - np.roll(flux_rho, 1))
        grads = [None] * nx
    else:
        edge_j = np.array(
            [half_moments(f[i], grid).j_plus + half_moments(right[i], grid).j_minus for i in range(nx)]
        )
        v = grid.velocities
        mu = params.dt * float(v @ v) / grid.size * co.d_coef / params.dx**2
        eye = np.eye(nx)
        laplacian = np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1) - 2.0 * eye
        rhs_rho = state.rho - ratio * co.a_coef * (edge_j - np.roll(edge_j, 1))
        rho_new = np.linalg.solve(eye + mu * laplacian, rhs_rho)
        grads = (np.roll(rho_new, -1) - rho_new) / params.dx
    phi = np.array(
        [micro_flux(f[i], right[i], co, op, grid, params.dx, grads[i]) for i in range(nx)]
    )
    rhs = f - ratio * (phi - np.roll(phi, 1, axis=0))
    system = np.eye(op.size) - params.stiffness * op.matrix
    return KineticState(np.linalg.solve(system, rhs.T).T, rho_new)
