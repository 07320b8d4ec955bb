"""The initial datum and the analytic references a run is measured against.

The initial datum f0(x, v) = exp(-(x - 1/2)^2) exp(-10 (1 - v)^2) is
defined here once, by its two factors; ``scenarios.initialize_state``
samples it.  The references are

* the velocity mean of the exact free-transport solution,
* the exact periodic heat-kernel density of the diffusive limit, in closed form,
* the explicit finite-difference limit scheme the solver must reduce to,
* the first-order upwind transport scheme ``ap_sweep`` sets beside the solver,
* the Chapman-Enskog residual measuring distance to near-equilibrium form.

``transport_density`` and ``exact_diffusion_density`` run in every
``run_and_report`` and ``ap_sweep`` call whose scenario names that
reference, once per snapshot, so both are vectorised over the mesh;
``transport_density`` goes through the mesh in blocks of cells, so it
holds no array of the mesh times the grid.  The heat kernel's ``erf`` is
the C library's, through ``math.erf``, on only the arguments with
|z| < 6; beyond, erf(z) rounds to exactly +-1.  The dense
oracles the tests hold the scheme against are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .scheme import SchemeParams
from .velocity_space import CollisionOperator, VelocityGrid

# f0's exact velocity mean is AMPLITUDE exp(-(x - 1/2)^2), with AMPLITUDE =
# (1/2) integral_{-1}^{1} exp(-10 (1 - v)^2) dv, about 0.14
AMPLITUDE = math.sqrt(math.pi / 10.0) / 4.0 * math.erf(2.0 * math.sqrt(10.0))


def velocity_profile(v):
    """exp(-10 (1 - v)^2), f0's velocity factor.  It puts the mass near
    v = 1, far from the velocity-constant equilibrium."""
    return np.exp(-10.0 * (1.0 - v) ** 2)


def space_profile(y: np.ndarray) -> np.ndarray:
    """exp(-(x - 1/2)^2), f0's x factor extended with period 1, at the
    offsets y = x - 1/2; y is a float array, overwritten with the result.

    y is wrapped by y - rint(y), which equals mod(x, 1) - 1/2 except where y
    is a half-integer and rint may give +1/2 for -1/2; exp(-y^2) is even and
    so takes the same value there.  On (0, 1) the wrap changes no bit.
    """
    y -= np.rint(y)
    return np.exp(np.negative(np.square(y, out=y), out=y), out=y)


# floats of the back-traced x factor that transport_density holds at once
# (256 KiB), in place of one array of the mesh times the grid
_TRANSPORT_BLOCK = 2**15


def transport_density(t: float, x, grid: VelocityGrid, eta: float = 1.0) -> np.ndarray:
    """Velocity mean of the exact transport solution f0(x - v t/eta, v): the
    back-traced x factor @ the velocity factor / 2N, over blocks of x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = grid.velocities
    shift = v * t / eta
    weights = velocity_profile(v) / grid.size
    out = np.empty(x.shape[0])
    rows = max(1, _TRANSPORT_BLOCK // v.size)
    for start in range(0, x.shape[0], rows):
        block = space_profile(np.subtract.outer(x[start : start + rows] - 0.5, shift))
        np.matmul(block, weights, out=out[start : start + rows])
    return out


# erf(z) rounds to exactly +-1 from |z| = 5.93 (erfc(5.93) < 2**-54)
_ERF_SATURATES = 6.0


def _erf(z: np.ndarray) -> np.ndarray:
    """erf elementwise: ``math.erf`` where |z| < 6, sign(z) elsewhere (NaN stays NaN)."""
    out = np.sign(z)
    inner = np.abs(z) < _ERF_SATURATES
    out[inner] = [math.erf(v) for v in z[inner].tolist()]
    return out


def exact_diffusion_density(t: float, x, kappa_abs: float) -> np.ndarray:
    """Density of the limiting heat equation on the unit torus, exact to round-off.

    rho(t,x) = integral_0^1 K_per(x - y; kappa t) rho0(y) dy, rho0 = f0's mean.
    Each periodic image of the Gaussian kernel times rho0 integrates to an
    erf difference: with s = 1 + 4 kappa t, r = sqrt(s/(4 kappa t)),
    c_j = x + j and m_j = (c_j + 2 kappa t)/s,

        rho = AMPLITUDE/(2 sqrt s) sum_j exp(-(c_j - 1/2)^2/s) [erf(r(1 - m_j)) + erf(r m_j)].

    x is first wrapped into [0, 1).  The sum keeps |j| <= J, the least J whose
    first dropped image has exponent (J + 1/2)^2/s >= 40, so the dropped
    tail lies below round-off at every kappa t; the cost is O(J nx).
    """
    if not t > 0:
        raise ConfigurationError(f"diffusion reference needs t > 0, got {t}")
    if not kappa_abs > 0:
        raise ConfigurationError(f"kappa must be positive, got {kappa_abs}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    kt = kappa_abs * t
    s = 1.0 + 4.0 * kt
    r = math.sqrt(s / (4.0 * kt))
    n_images = math.ceil(math.sqrt(40.0 * s) - 0.5)
    images = np.arange(-n_images, n_images + 1, dtype=float)[:, None]
    c = np.mod(x, 1.0)[None, :] + images
    m = (c + 2.0 * kt) / s
    terms = np.exp(-((c - 0.5) ** 2) / s) * (_erf(r * (1.0 - m)) + _erf(r * m))
    return (AMPLITUDE / (2.0 * math.sqrt(s))) * terms.sum(axis=0)


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
