"""The Heun/Lawson stage kernel and the velocity update of the forced flow.

:func:`heun` advances all three evolving quantities: the velocity here, the
deformation history (:mod:`memflow.transport`) and the differential oracle
(:mod:`memflow.diagnostics`).  A flow substep is its Lawson form: Heun
(explicit second-order Runge-Kutta) stages for the advection and stress
forcing, the exact integrating factor for the viscous term, so stability is
limited by advection only.  The pressure never appears: it is a gradient,
and the flow evolves the curl of the momentum equation.

The velocity is held as the band spectrum of its stream function psi,
u = U + (-d2 psi, d1 psi) (:meth:`~memflow.spectral.SpectralGrid.curl_hat`),
divergence-free with no projection.  The curl of the advection over
-|k|^2 needs only b = u1 u2 and c = u1^2 - u2^2, as the isotropic part of
u u is a gradient: psi's right-hand side is B c + A b, with
B = k1 k2 / |k|^2, A = -(k1^2 - k2^2) / |k|^2 and its mean mode 0.0 (U is
kept).  A stage transforms b and c forward and the new velocity back: 2 and
2 transforms.  The symmetric stress adds B (tau_22 - tau_11) - A tau_12.
The jet ``(u, d1 u, d2 u)`` (:attr:`FlowState.jet`) is formed once per base
step, from the final spectrum, with d2 u2 = -d1 u1 bit for bit; its gradient
is the one the history, the oracle and the monitor use.

Within one base (age) step the stress is frozen; the flow may take several
substeps under its advective CFL bound.  A base step of s substeps takes
2 + 4 s forward transforms (the frozen stress's two once) and 4 s + 3
inverse ones (the jet's three Hessian fields once; its field is the last
substep's u, the same bits).  A flow whose base-step advective number
|u|_inf dt / dx, read at each substep, exceeds :data:`MAX_ADVECTIVE` has
blown up: the history's Heun step is unstable above about 0.5, and the
substeps would shrink without end.  The optional forcing hook of
:func:`step_velocity` exists for manufactured-solution studies;
:func:`advance_flow`, the solver's step, has none.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import SpectralGrid

MAX_ADVECTIVE = 100.0  # the base step's |u|_inf dt / dx past which advance_flow gives up (module docstring)


class FlowNaNError(FloatingPointError):
    """Non-finite velocity after a substep."""


class FlowState:
    """Velocity state: the band spectrum ``psi_hat`` of the stream function
    (module docstring), the physical jet ``(u, d1 u, d2 u)`` of shape
    ``(3, 2, n, n)`` (formed at the end of each base step), and time.

    ``FlowState(grid, u, eta)`` takes the stream function of a physical
    field ``u``'s divergence-free part on the band, mean included; with
    ``psi_hat`` (and ``u`` None) the spectrum is taken as it is (a restart)."""

    def __init__(self, grid: SpectralGrid, u: np.ndarray | None, eta: float, t: float = 0.0,
                 psi_hat: np.ndarray | None = None):
        if eta <= 0:
            raise ValueError("viscosity must be positive")
        if psi_hat is None:
            psi_hat = grid.potential_hat(grid.band(u))
        else:
            grid.check_band(psi_hat, (), "velocity")
        k1, k2 = grid.k1_band, grid.k2_band
        self.grid, self.eta, self.t = grid, eta, t
        self.mix = (k1 * k2 * grid.inv_k_sq_band, (k2 * k2 - k1 * k1) * grid.inv_k_sq_band)  # B, A
        self.psi_hat, self.jet = psi_hat, _jet(grid, psi_hat)

    @property
    def u(self) -> np.ndarray:
        return self.jet[0]


def _jet(grid: SpectralGrid, psi_hat: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """The velocity's jet ``(u, d1 u, d2 u)``: one inverse transform each of
    d1 u1 = -d1 d2 psi, d1 u2 = d1 d1 psi and d2 u1 = -d2 d2 psi, and
    d2 u2 = -d1 u1.  A given ``u``, the field of ``psi_hat``, is copied in."""
    k1, k2 = grid.k1_band, grid.k2_band
    jet = np.empty((3, 2, grid.n, grid.n))
    jet[0] = grid.field(grid.curl_hat(psi_hat)) if u is None else u
    du = jet[1:].reshape(4, grid.n, grid.n)  # d1 u1, d1 u2, d2 u1, d2 u2
    grid.inv(np.stack((k1 * k2 * psi_hat, -k1 * k1 * psi_hat, k2 * k2 * psi_hat)), out=du[:3])
    np.negative(du[0], out=du[3])
    return jet


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


def _mix(state: FlowState, parts: np.ndarray) -> np.ndarray:
    """B p_1 + A p_2 of the band spectra of the two physical fields ``parts``: 2 forward transforms."""
    (b, a), parts_hat = state.mix, state.grid.band(parts)
    out = np.multiply(b, parts_hat[0])
    out += np.multiply(a, parts_hat[1], out=parts_hat[1])
    return out


def _rhs_hat(state: FlowState, u: np.ndarray, stress_hat, forcing, t: float) -> np.ndarray:
    """psi's band right-hand side from the physical velocity (module
    docstring), mean mode 0.0; a forcing adds its band potential, mean included."""
    prod = np.multiply(u[0], u)  # c = u1 u1 - u2 u2, b = u1 u2
    prod[0] -= u[1] * u[1]
    rhs = _mix(state, prod)
    if stress_hat is not None:
        rhs += stress_hat
    rhs[0, 0] = 0.0
    if forcing is not None:
        rhs += state.grid.potential_hat(state.grid.band(forcing(t, state.grid)))
    return rhs


def _substep(state: FlowState, u: np.ndarray, stress_hat, forcing, h: float) -> np.ndarray:
    """One Lawson-Heun substep of length h from ``u``, the physical field of
    ``state.psi_hat``; returns the new one and leaves ``state.jet`` as it is."""
    grid, t = state.grid, state.t
    rhs = lambda v, k: _rhs_hat(state, v, stress_hat, forcing, (t, t + h)[k])
    inv = lambda f: grid.field(grid.curl_hat(f))
    state.psi_hat, u = heun(u, state.psi_hat, rhs, inv, h, e=grid.viscous_factor(state.eta, h))
    state.t += h
    if not np.isfinite(u).all():
        raise FlowNaNError(f"non-finite velocity at t = {state.t:.6g}")
    return u


def _stress_hat(state: FlowState, tau: np.ndarray | None):
    """psi's share of div tau, B (tau_22 - tau_11) - A tau_12."""
    return None if tau is None else _mix(state, np.stack((tau[2] - tau[0], -tau[1])))


def step_velocity(state: FlowState, tau: np.ndarray | None, dt: float, forcing=None) -> FlowState:
    """One substep of the momentum equation with the stress frozen."""
    u = _substep(state, state.u, _stress_hat(state, tau), forcing, dt)
    state.jet = _jet(state.grid, state.psi_hat, u)
    return state


def advance_flow(state: FlowState, tau: np.ndarray | None, base_dt: float, safety: float) -> int:
    """Advance one base step, substepping under the advective CFL bound.

    The stress is held frozen across substeps, which carry the physical
    velocity only; the jet is formed once, from the final spectrum.  Returns
    the substep count.  Raises ``FloatingPointError`` once the base step's
    advective number exceeds :data:`MAX_ADVECTIVE`.
    """
    grid = state.grid
    stress_hat = _stress_hat(state, tau)
    u, remaining, n_sub = state.u, base_dt, 0
    while remaining > 1e-14 * base_dt:
        cfl = cfl_dt(u, grid, safety, base_dt)
        advective = math.inf if cfl == 0.0 else safety * base_dt / cfl  # |u|_inf dt / dx; cfl 0: |u|^2 overflowed
        if advective > MAX_ADVECTIVE:
            raise FloatingPointError(
                f"flow blew up at t = {state.t:.6g}: |u|_inf = {advective * grid.dx / base_dt:.3g}, advective "
                f"number {advective:.3g} > {MAX_ADVECTIVE:g} after {n_sub} substeps of this step")
        h = min(cfl, remaining)
        u = _substep(state, u, stress_hat, None, h)
        remaining -= h
        n_sub += 1
    state.jet = _jet(grid, state.psi_hat, u)
    return n_sub
