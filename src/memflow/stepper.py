"""The Heun/Lawson stage kernel and the velocity update of the forced flow.

:func:`heun` advances all three evolving quantities: the velocity here, the
deformation history (:mod:`memflow.transport`) and the differential oracle
(:mod:`memflow.diagnostics`).  A flow substep is its Lawson form: Heun
(explicit second-order Runge-Kutta) stages for the projected advection and
stress forcing, the exact integrating factor for the viscous term, so
stability is limited by advection only.  The pressure never appears: the
solenoidal projection eliminates it, and it can be recovered on demand from
the momentum balance.

Within one base (age) step the stress is frozen; the flow may take several
substeps under its advective CFL bound.  The optional forcing hook exists
for manufactured-solution studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import SpectralGrid


class FlowNaNError(FloatingPointError):
    """Non-finite velocity after a substep."""


@dataclass
class FlowState:
    """Velocity state: divergence-free physical field, its spectrum, and time."""

    grid: SpectralGrid
    u: np.ndarray
    eta: float
    t: float = 0.0
    u_hat: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("viscosity must be positive")
        self.u_hat = self.grid.dealias_hat(self.grid.leray_hat(self.grid.fwd(self.u)))
        self.u = self.grid.inv(self.u_hat)


def heun(y, y_hat, rhs, inv, dt: float, e=None, stage=None):
    """One Heun step of dy/dt = N(y), or with ``e = exp(dt L)`` the
    Lawson-Heun step of dy/dt = L y + N(y).

    ``y`` is the physical field and ``y_hat`` its spectrum (left intact);
    ``rhs(y, k)`` gives the spectrum of N at stage k (0: at t, 1: at the
    predictor) and ``inv`` maps a spectrum to its physical field.  The
    predictor spectrum goes into ``stage`` if given, and ``rhs(., 1)`` may
    write into that same buffer: the predictor is dead once transformed.
    Returns ``(new_hat, new)``; ``new_hat`` is the stage-0 rhs buffer,
    overwritten.
    """
    r1 = rhs(y, 0)
    stage = np.multiply(r1, dt, out=stage)
    stage += y_hat
    if e is not None:
        stage *= e
    r2 = rhs(inv(stage), 1)
    if e is not None:
        r1 *= e
    r1 += r2
    r1 *= 0.5 * dt
    r1 += y_hat if e is None else e * y_hat
    return r1, inv(r1)


def cfl_dt(u: np.ndarray, grid: SpectralGrid, safety: float, base_dt: float) -> float:
    """Advective step bound safety * dx / |u|_inf, capped at the base step.

    The cap keeps the flow substeps aligned with the age step; diffusion
    imposes no constraint thanks to the integrating factor.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    sup = float(np.max(np.sqrt(u[0] ** 2 + u[1] ** 2)))
    return min(safety * grid.dx / max(sup, 1e-12), base_dt)


def kinetic_energy(grid: SpectralGrid, u: np.ndarray) -> float:
    """Half the squared discrete L^2 norm of the velocity."""
    return 0.5 * grid.l2_norm_sq(u)


def _rhs_hat(grid: SpectralGrid, u: np.ndarray, div_tau_hat, forcing, t: float) -> np.ndarray:
    """Projected, dealiased spectral right-hand side: P(div tau - u.grad u + f)."""
    du = grid.inv(grid.deriv_pair_hat(grid.fwd(u)))  # du[i, c] = d_i u_c
    adv = np.stack(
        (
            u[0] * du[0, 0] + u[1] * du[1, 0],
            u[0] * du[0, 1] + u[1] * du[1, 1],
        )
    )
    rhs = -grid.fwd(adv)
    if div_tau_hat is not None:
        rhs = rhs + div_tau_hat
    if forcing is not None:
        rhs = rhs + grid.fwd(forcing(t, grid))
    return grid.leray_hat(grid.dealias_hat(rhs))


def _substep(state: FlowState, div_tau_hat, forcing, h: float):
    """One Lawson-Heun substep of length h; the output stays divergence-free
    to spectral accuracy because both stage increments are projected."""
    grid, t = state.grid, state.t
    rhs = lambda u, k: _rhs_hat(grid, u, div_tau_hat, forcing, (t, t + h)[k])
    state.u_hat, state.u = heun(state.u, state.u_hat, rhs, grid.inv, h, e=grid.viscous_factor(state.eta, h))
    state.t += h
    if not np.isfinite(state.u).all():
        raise FlowNaNError(f"non-finite velocity at t = {state.t:.6g}")


def _div_hat(grid: SpectralGrid, tau: np.ndarray | None):
    return None if tau is None else grid.divergence_hat(grid.fwd(tau))


def step_velocity(state: FlowState, tau: np.ndarray | None, dt: float, forcing=None) -> FlowState:
    """One substep of the momentum equation with the stress frozen."""
    _substep(state, _div_hat(state.grid, tau), forcing, dt)
    return state


def advance_flow(
    state: FlowState,
    tau: np.ndarray | None,
    base_dt: float,
    safety: float,
    forcing=None,
) -> int:
    """Advance one base step, substepping under the advective CFL bound.

    The stress is held frozen across substeps.  Returns the substep count.
    """
    div_tau_hat = _div_hat(state.grid, tau)
    remaining, n_sub = base_dt, 0
    while remaining > 1e-14 * base_dt:
        h = min(cfl_dt(state.u, state.grid, safety, base_dt), remaining)
        _substep(state, div_tau_hat, forcing, h)
        remaining -= h
        n_sub += 1
    return n_sub
