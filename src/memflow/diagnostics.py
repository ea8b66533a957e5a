"""Per-step invariant monitors and independent cross-validation oracles.

Every machine-checkable bound proved for the continuous system runs here as
a falsifiable check: the sup-norm stress bound, the transported-determinant
floor and the norm lower bound it implies, the stress-gradient control
inequality, and monotonicity of the cumulative gradient functional.  The
double-exponential envelope of that functional involves an unknowable
constant, so its growth is reported as a fitted slope, never asserted.
The monitor reads the velocity gradient from the flow state's jet; it
transforms only the divergence (one band inverse) and the stress, whose
gradient (:func:`memflow.stress.stress_gradient_norm`) is the solver's one
whole-spectrum transform: per derivative direction, an ``rfft`` and an
``irfft`` along it of each of the 3 components, 12 real line passes in all.
Every field it forms is in the history's chunk workspace, which is free
between steps.

Two oracles are independent of the age-grid machinery: the differential
upper-convected law stepped alongside the integral law on the same grid
(sharing velocity samples, the band representation and the Heun stage kernel
:func:`memflow.stepper.heun`, so the comparison isolates the constitutive
formulation), and adaptive quadrature of homogeneous-shear histories.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .config import SimulationConfig
from .constitutive import MemoryKernel, StrainMeasure
from .spectral import SpectralGrid
from .stress import history_scan, stress_gradient_norm  # noqa: F401 (history_scan: traced by perfbench)
from .stepper import FlowState, heun, kinetic_energy
from .transport import DeformationHistory

@dataclass
class DiagnosticsRecord:
    """One ``diagnostics.csv`` row; its fields, in order, are the columns."""

    t: float
    stress_sup: float
    min_detG: float
    min_absG: float
    energy: float
    gradu_sup: float
    divu_sup: float
    y_value: float
    y_integrand: float
    stress_grad_norm: float
    flags: tuple[str, ...] = ()

    def csv_row(self) -> str:
        """Every number at 17 significant digits, then the flags joined by ``;``."""
        *vals, flags = astuple(self)
        return ",".join(f"{v:.17g}" for v in vals) + "," + ";".join(flags)


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


DIV_TOL = 1e-10  # divu flag: sup |div u| relative to max(1, sup |grad u|)
GRAD_TOL = 1e-6  # gradcontrol flag: absolute slack of |grad tau|^r <= Sp_inf^r y


def monitor(
    state: FlowState,
    history: DeformationHistory,
    tau: np.ndarray,
    measure,
    cfg: SimulationConfig,
    y_value: float,
    scan: tuple[float, float, float],
) -> DiagnosticsRecord:
    """Compute every monitored quantity and flag violated bounds.

    The run's config gives the exponents ``q``, ``r``, the det floor
    ``mu_min`` and the tolerances ``det_tol`` and ``stress_tol``.
    ``y_value`` is the caller-accumulated time integral of the gradient
    functional's integrand (trapezoid in time).  ``scan`` is the history's
    (y integrand, min det G, min |G|), which the step's stack pass computed.
    Flags never raise here; the simulation loop decides whether they are fatal.
    """
    grid, work = state.grid, history.workspace.cut(1)  # free between steps: every field is formed in it
    prod = work.planes("prod")
    sq = np.multiply(tau[0], tau[0], out=prod[0])  # the Frobenius norm: tau_12 counts twice, in this order
    for c in (1, 1, 2):
        sq += np.multiply(tau[c], tau[c], out=prod[1])
    stress_sup = float(np.max(np.sqrt(sq, out=sq)))
    yi, min_det, min_abs = scan

    du = state.jet[1:]
    if len(du) != 2:  # a jet formed without its gradient would read as |grad u| = 0
        raise ValueError("the monitor reads the velocity gradient: the flow step must form it (advance_flow gradient)")
    gradu_sup = math.sqrt(np.max(np.einsum("icyx,icyx->yx", du, du, out=sq)))  # the max before the sqrt, same bits
    curl = grid.curl_hat(state.psi_hat, work.planes("rhs")[:2])
    div_u = grid.inv(grid.divergence_hat(curl, out=work.planes("spec")[:2]), out=sq, rows=work.planes("rows")[0])
    divu_sup = float(np.max(np.abs(div_u, out=div_u))) / max(1.0, gradu_sup)
    energy = kinetic_energy(grid, state.u, prod[:2])

    sgn = stress_gradient_norm(tau, grid, cfg.q, work)

    flags = []
    tail = history.age_grid.tail_error
    if measure is not None and getattr(measure, "h2_satisfied", False):
        if stress_sup > measure.s_inf * (1.0 - tail) + cfg.stress_tol:
            flags.append("stress")
        if measure.sp_inf is not None and sgn**cfg.r > measure.sp_inf**cfg.r * yi + GRAD_TOL:
            flags.append("gradcontrol")
    floor = min(cfg.mu_min, 1.0)
    if min_det < floor - cfg.det_tol:
        flags.append("det")
    if min_abs < math.sqrt(2.0 * floor) - cfg.det_tol:
        flags.append("normg")
    if divu_sup > DIV_TOL:
        flags.append("divu")

    return DiagnosticsRecord(
        t=state.t,
        stress_sup=stress_sup,
        min_detG=min_det,
        min_absG=min_abs,
        energy=energy,
        gradu_sup=gradu_sup,
        divu_sup=divu_sup,
        y_value=y_value,
        y_integrand=yi,
        stress_grad_norm=sgn,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# differential oracle
# ---------------------------------------------------------------------------


class OracleState:
    """Extra-stress evolved by the differential upper-convected law.

    With relaxation time lam and polymer viscosity mu_p this is equivalent
    to the integral law with the single-mode kernel and the linear strain
    measure; the velocity-gradient layout matches the transport equation's
    convention, fixed by the steady-shear viscometric functions.

    Like the velocity, the stress is held as a band spectrum, ``tau_hat``,
    and its physical jet ``(tau, d1 tau, d2 tau)``, of its three distinct
    components: ``OracleState(grid, tau)`` projects a physical stress
    onto the band, and with ``tau_hat`` (and ``tau`` None) the band spectrum
    is taken as it is (a restart).
    """

    def __init__(self, grid: SpectralGrid, tau: np.ndarray | None, lam: float = 1.0, mu_p: float = 1.0,
                 tau_hat: np.ndarray | None = None):
        if tau_hat is None:
            tau_hat = grid.band(tau)
        else:
            grid.check_band(tau_hat, (3,), "oracle stress")
        self.grid, self.lam, self.mu_p = grid, lam, mu_p
        self.tau_hat, self.jet = tau_hat, grid.jet(tau_hat)

    @property
    def tau(self) -> np.ndarray:
        return self.jet[0]


def _ucm_rhs_hat(grid: SpectralGrid, jet: np.ndarray, u_jet: np.ndarray, lam: float, mu_p: float):
    """Band spectrum of the right-hand side from the jets of the stress and
    the velocity; a[l, k] = d_l u_k, and the convected terms are
    L tau + tau L^T with L = a^T; tau_jk is ``tau[j + k]``."""
    tau, dtau, u, a = jet[0], jet[1:], u_jet[0], u_jet[1:]
    rhs = np.empty_like(tau)
    for j, k in ((0, 0), (0, 1), (1, 1)):
        conv = a[0, j] * tau[k] + a[1, j] * tau[1 + k]  # (L tau)_{jk}
        conv += tau[j] * a[0, k] + tau[j + 1] * a[1, k]  # (tau L^T)_{jk}
        advect = u[0] * dtau[0, j + k] + u[1] * dtau[1, j + k]
        rhs[j + k] = -advect + conv + (mu_p * (a[j, k] + a[k, j]) - tau[j + k]) / lam
    return grid.band(rhs)


def oldroyd_differential_step(oracle: OracleState, u_old: np.ndarray, u_new: np.ndarray, dt: float) -> OracleState:
    """Heun step (:func:`memflow.stepper.heun`) with the velocity sampled at
    both time levels, like the history step: ``u_old`` and ``u_new`` are the
    velocity jets (:attr:`memflow.stepper.FlowState.jet`): 3 + 9 band
    transforms a stage."""
    grid = oracle.grid
    rhs = lambda jet, k: _ucm_rhs_hat(grid, jet, (u_old, u_new)[k], oracle.lam, oracle.mu_p)
    oracle.tau_hat, oracle.jet = heun(oracle.jet, oracle.tau_hat, rhs, grid.jet, dt)
    if not np.isfinite(oracle.tau).all():
        raise FloatingPointError("non-finite oracle stress")
    return oracle


# ---------------------------------------------------------------------------
# homogeneous shear oracles (independent of the age grid machinery)
# ---------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    """Adaptive quadrature of the shear-history integral failed to converge."""


def _shear_tensor(gamma_dot: float, s) -> np.ndarray:
    g = np.eye(2)
    g[1, 0] = gamma_dot * s
    return g


def _quad(what: str, f, lo: float, hi: float, abs_tol: float) -> tuple[float, float]:
    """``integrate.quad`` of f over [lo, hi]: (value, error estimate); a
    warning or failure of the quadrature raises :class:`QuadratureError`.
    scipy, a ``test`` extra and no dependency, is loaded here only: no
    command reaches the shear references, their one caller."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            return integrate.quad(f, lo, hi, epsabs=abs_tol, limit=400)
        except (integrate.IntegrationWarning, Exception) as exc:  # noqa: BLE001
            raise QuadratureError(f"{what} quadrature failed: {exc}") from exc


def _quad_to_inf(f, abs_tol: float = 1e-10, singular_origin: bool = False) -> float:
    if singular_origin:  # split so the origin singularity sits at an endpoint
        v1, e1 = _quad("shear-stress", f, 0.0, 1.0, abs_tol / 2)
        v2, e2 = _quad("shear-stress", f, 1.0, np.inf, abs_tol / 2)
        val, err = v1 + v2, e1 + e2
    else:
        val, err = _quad("shear-stress", f, 0.0, np.inf, abs_tol)
    if not math.isfinite(val) or err > 100 * abs_tol:
        raise QuadratureError(f"shear-stress quadrature error {err:.3g} too large")
    return val


def steady_shear_stress(measure: StrainMeasure, kernel: MemoryKernel, gamma_dot: float) -> np.ndarray:
    """Steady homogeneous-shear stress by adaptive quadrature to 1e-10.

    Integrates the kernel against the strain measure of the exact shear
    history; this is the reference the grid-quadrature path is checked
    against.
    """
    out = np.empty((2, 2))
    for j, k in ((0, 0), (0, 1), (1, 1)):  # S(G) is symmetric
        out[j, k] = out[k, j] = _quad_to_inf(
            lambda s, j=j, k=k: kernel.density(s) * measure.stress(_shear_tensor(gamma_dot, s))[j, k],
            singular_origin=kernel.singular,
        )
    return out


def shear_startup_stress(
    measure: StrainMeasure, kernel: MemoryKernel, gamma_dot: float, t: float
) -> np.ndarray:
    """Stress at time t of shear started from a quiescent history.

    The history is the exact solution delta + min(s, t) * gamma_dot E21, so
    ages beyond t contribute the frozen tensor at age t weighted by the
    remaining kernel mass.
    """
    out = np.empty((2, 2))
    frozen = measure.stress(_shear_tensor(gamma_dot, t))
    tail_mass = kernel.interval_mass(t, math.inf)
    for j, k in ((0, 0), (0, 1), (1, 1)):  # S(G) is symmetric
        def f(s, j=j, k=k):
            return kernel.density(s) * measure.stress(_shear_tensor(gamma_dot, s))[j, k]
        val, _ = _quad("startup", f, 1e-12 if kernel.singular else 0.0, t, 1e-12)
        out[j, k] = out[k, j] = val + tail_mass * frozen[j, k]
    return out


# ---------------------------------------------------------------------------
# a posteriori report over a diagnostics time series
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    stress_violations: int
    min_det: float
    det_ok: bool
    y_monotone: bool
    y_finite: bool
    y_final: float
    loglog_slope: float | None
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (
            self.stress_violations == 0 and self.det_ok and self.y_monotone and self.y_finite
        )


def theorem_bound_report(
    records: list[DiagnosticsRecord],
    mu: float,
    s_inf: float | None,
    det_tol: float = 1e-2,
) -> BoundReport:
    """Verify the proved bounds over a run and fit the growth envelope.

    The cumulative functional is proved finite with a double-exponential
    envelope whose constant is not computable, so ln ln(e + y) is fitted
    against time and the slope reported without assertion.
    """
    if len(records) < 10:
        raise ValueError("need at least 10 records")
    stress_viol = sum(1 for rec in records if "stress" in rec.flags)
    min_det = min(rec.min_detG for rec in records)
    y = np.array([rec.y_value for rec in records])
    t = np.array([rec.t for rec in records])
    y_monotone = bool(np.all(np.diff(y) >= -1e-15))
    y_finite = bool(np.all(np.isfinite(y)))
    slope = None
    if y_finite and t[-1] > t[0]:
        slope = float(np.polyfit(t, np.log(np.log(math.e + y)), 1)[0])
    return BoundReport(
        stress_violations=stress_viol,
        min_det=min_det,
        det_ok=min_det >= min(mu, 1.0) - det_tol,
        y_monotone=y_monotone,
        y_finite=y_finite,
        y_final=float(y[-1]),
        loglog_slope=slope,
    )
