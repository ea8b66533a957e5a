"""The Heun/Lawson stage kernel and the velocity update of the forced flow.

:func:`heun` advances all three evolving quantities: the velocity here, the
deformation history (:mod:`memflow.transport`) and the differential oracle
(:mod:`memflow.diagnostics`).  A flow substep is its Lawson form: Heun
(explicit second-order Runge-Kutta) stages for the projected advection and
stress forcing, the exact integrating factor for the viscous term, so
stability is limited by advection only.  The pressure never appears: the
solenoidal projection eliminates it.

The velocity is held as its divergence-free band spectrum
(:mod:`memflow.spectral`).  A substep carries the physical velocity u
alone: the advection is in conservative form, d_l (u_l u_k), equal to
u . grad u for divergence-free u, so a stage transforms forward the three
distinct products u1 u1, u1 u2 and u2 u2 (and the forcing) and inverse
only the new velocity: 3 forward and 2 inverse transforms, no gradient.
The velocity's jet ``(u, d1 u, d2 u)`` (:attr:`FlowState.jet`) is formed
once per base step, from its final spectrum; its gradient is the one the
history, the oracle and the monitor use.

Within one base (age) step the stress is frozen; the flow may take several
substeps under its advective CFL bound.  A base step of s substeps takes
4 + 6 s forward transforms (the frozen stress's divergence once) and
4 s + 4 inverse ones (the jet's two derivative fields once; the field is
the last substep's u, the same bits).  The optional forcing hook of
:func:`step_velocity` exists for manufactured-solution studies;
:func:`advance_flow`, the solver's step, has none.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import SpectralGrid


class FlowNaNError(FloatingPointError):
    """Non-finite velocity after a substep."""


class FlowState:
    """Velocity state: the band spectrum ``u_hat`` of a divergence-free field,
    its physical jet ``(u, d1 u, d2 u)`` of shape ``(3, 2, n, n)`` (formed
    at the end of each base step, not per substep), and time.

    ``FlowState(grid, u, eta)`` projects a physical field ``u`` onto the
    solenoidal part of the band; with ``u_hat`` (and ``u`` None) the band
    spectrum is taken as it is, which a restart needs to continue bit for bit.
    """

    def __init__(self, grid: SpectralGrid, u: np.ndarray | None, eta: float, t: float = 0.0,
                 u_hat: np.ndarray | None = None):
        if eta <= 0:
            raise ValueError("viscosity must be positive")
        if u_hat is None:
            u_hat = grid.leray_hat(grid.band(u))
        else:
            grid.check_band(u_hat, (2,), "velocity")
        self.grid, self.eta, self.t = grid, eta, t
        self.u_hat, self.jet = u_hat, grid.jet(u_hat)

    @property
    def u(self) -> np.ndarray:
        return self.jet[0]


def heun(y, y_hat, rhs, inv, dt: float, e=None, stage=None):
    """One Heun step of dy/dt = N(y), or with ``e = exp(dt L)`` the
    Lawson-Heun step of dy/dt = L y + N(y).

    ``y`` is the physical state (a field, or its jet: the field with its
    derivatives) and ``y_hat`` its spectrum (left intact); ``rhs(y, k)``
    gives the spectrum of N at stage k (0: at t, 1: at the predictor) and
    ``inv`` maps a spectrum to its physical state.  The predictor spectrum
    goes into ``stage`` if given, and ``rhs(., 1)`` may write into that same
    buffer: the predictor is dead once transformed.  Returns ``(new_hat,
    new)``; ``new_hat`` is the stage-0 rhs buffer, overwritten.
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
    sup = math.sqrt(np.max(u[0] ** 2 + u[1] ** 2))  # sqrt is monotone: the sup of |u|, bit for bit
    return min(safety * grid.dx / max(sup, 1e-12), base_dt)


def kinetic_energy(grid: SpectralGrid, u: np.ndarray) -> float:
    """Half the squared discrete L^2 norm of the velocity."""
    return 0.5 * grid.l2_norm_sq(u)


def _rhs_hat(grid: SpectralGrid, u: np.ndarray, div_tau_hat, forcing, t: float) -> np.ndarray:
    """Projected band right-hand side P(div tau - div(u u) + f) from the physical velocity.

    The advection is in conservative form, d_l band(u_l u_k), which is
    u . grad u for divergence-free u: it needs the band spectra of the three
    distinct products u1 u1, u1 u2 and u2 u2, not the velocity gradient.
    """
    uu = np.empty((3,) + u.shape[1:])
    np.multiply(u[0], u, out=uu[:2])  # u1 u1, u1 u2
    np.multiply(u[1], u[1], out=uu[2])
    uu_hat, d1, d2 = grid.band(uu), grid.d1_band, grid.d2_band
    rhs = -np.stack((d1 * uu_hat[0] + d2 * uu_hat[1], d1 * uu_hat[1] + d2 * uu_hat[2]))
    if div_tau_hat is not None:
        rhs += div_tau_hat
    if forcing is not None:
        rhs += grid.band(forcing(t, grid))
    return grid.leray_hat(rhs)


def _substep(state: FlowState, u: np.ndarray, div_tau_hat, forcing, h: float) -> np.ndarray:
    """One Lawson-Heun substep of length h from ``u``, the physical field of
    ``state.u_hat``; returns the new one and leaves ``state.jet`` as it is.
    The output stays divergence-free to spectral accuracy because both stage
    increments are projected."""
    grid, t = state.grid, state.t
    rhs = lambda v, k: _rhs_hat(grid, v, div_tau_hat, forcing, (t, t + h)[k])
    state.u_hat, u = heun(u, state.u_hat, rhs, grid.field, h, e=grid.viscous_factor(state.eta, h))
    state.t += h
    if not np.isfinite(u).all():
        raise FlowNaNError(f"non-finite velocity at t = {state.t:.6g}")
    return u


def _div_hat(grid: SpectralGrid, tau: np.ndarray | None):
    return None if tau is None else grid.divergence_hat(grid.band(tau))


def step_velocity(state: FlowState, tau: np.ndarray | None, dt: float, forcing=None) -> FlowState:
    """One substep of the momentum equation with the stress frozen."""
    u = _substep(state, state.u, _div_hat(state.grid, tau), forcing, dt)
    state.jet = state.grid.jet(state.u_hat, u)
    return state


def advance_flow(state: FlowState, tau: np.ndarray | None, base_dt: float, safety: float) -> int:
    """Advance one base step, substepping under the advective CFL bound.

    The stress is held frozen across substeps, which carry the physical
    velocity only; the jet is formed once, from the final spectrum.  Returns
    the substep count.
    """
    grid = state.grid
    div_tau_hat = _div_hat(grid, tau)
    u, remaining, n_sub = state.u, base_dt, 0
    while remaining > 1e-14 * base_dt:
        h = min(cfl_dt(u, grid, safety, base_dt), remaining)
        u = _substep(state, u, div_tau_hat, None, h)
        remaining -= h
        n_sub += 1
    state.jet = grid.jet(state.u_hat, u)
    return n_sub
