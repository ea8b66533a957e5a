"""Acceptance suite: every machine-checkable bound at its pinned tolerance.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them on success).  The reference flow (bounded rational damping, vortex
start, n=128, T=2) is run once per session and shared by the stress-bound,
determinant, gradient-control, and growth-functional criteria.
"""

import math

import numpy as np
import pytest

from memflow import spectral
from memflow.agegrid import build_age_grid, quadrate
from memflow.config import SimulationConfig
from memflow.constitutive import model_catalog
from memflow.convergence import shear_history_stack
from memflow.diagnostics import steady_shear_stress
from memflow.simulation import run
from memflow.spectral import SpectralGrid, taylor_green
from memflow.stepper import FlowState, step_velocity
from memflow.verification import cauchy_schwarz_max_violation, run_verification

# Reference run for AC-1/2/7/8.  The age spacing equals the base step; it is
# pinned at 0.04 so the truncated history (346 nodes) fits the runtime and
# memory budget of a laptop-class node, with every tolerance unchanged.
AC1 = dict(
    n=128,
    viscosity=0.05,
    dt=0.04,
    t_final=2.0,
    model_name="psm-raw",
    eps_tail=1e-6,
    velocity_kind="taylor-green",
    velocity_amplitude=1.0,
    cfl_safety=0.5,
    q=8,
    r=4,
)


def report(name: str, ok: bool, detail: str):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def ac1_result():
    res = run(SimulationConfig(**AC1))
    assert res.exit_code == 0, res.message
    return res


@pytest.fixture(scope="session")
def ac3_results():
    out = []
    for dt in (0.1, 0.05, 0.025):
        cfg = SimulationConfig(
            n=64, viscosity=0.05, dt=dt, t_final=1.0, model_name="oldroyd-b",
            model_params={"lam": 1.0, "mu_p": 1.0}, eps_tail=1e-8,
            velocity_kind="taylor-green", cfl_safety=0.5, oracle=True,
        )
        res = run(cfg)
        assert res.exit_code == 0, res.message
        out.append(res)
    return out


def test_ac1_stress_sup_bound(ac1_result):
    """Sup-norm stress bound: no step may exceed S_inf at the discrete level."""
    res = ac1_result
    tail = res.history.age_grid.tail_error
    bound = res.measure.s_inf * (1.0 - tail) + 1e-8
    worst = max(rec.stress_sup for rec in res.records)
    violations = sum(1 for rec in res.records if rec.stress_sup > bound)
    report(
        "AC-1",
        violations == 0,
        f"stress bound violations {violations}/{len(res.records)}; max |tau|_inf {worst:.6f} vs bound {bound:.6f}",
    )


def test_ac2_determinant_transport(ac1_result):
    """Transported determinant stays near one; norm obeys the AM-GM floor;
    doubling the resolution (n and the coupled base step) shrinks the
    deviation at least fourfold."""
    res = ac1_result
    min_det = min(rec.min_detG for rec in res.records)
    min_abs = min(rec.min_absG for rec in res.records)
    ok_floor = min_det >= 1.0 - 1e-2 and min_abs >= math.sqrt(2.0) - 1e-2

    devs = {}
    for n, dt in ((64, 0.08), (128, 0.04)):
        cfg = SimulationConfig(
            n=n, viscosity=0.05, dt=dt, t_final=0.8, model_name="psm-raw",
            eps_tail=1e-6, velocity_kind="taylor-green", cfl_safety=0.5,
        )
        r = run(cfg)
        assert r.exit_code == 0
        devs[n] = max(abs(rec.min_detG - 1.0) for rec in r.records)
    ratio = devs[64] / devs[128]
    report(
        "AC-2",
        ok_floor and ratio >= 4.0,
        f"min det {min_det:.6f} (>= 0.99), min |G| {min_abs:.6f} (>= {math.sqrt(2)-1e-2:.6f}); "
        f"doubling resolution shrinks det deviation {ratio:.2f}x (>= 4)",
    )


def test_ac3_integral_differential_equivalence(ac3_results):
    """The integral law and the differential upper-convected law agree on the
    same velocity samples, with the gap shrinking under joint refinement."""
    gaps = [res.oracle_gap for res in ac3_results]
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 1e-3
    report(
        "AC-3",
        ok,
        f"relative L2 gaps across (dt, ds) levels: {gaps[0]:.3e} > {gaps[1]:.3e} > {gaps[2]:.3e}, finest <= 1e-3",
    )


def test_ac4_viscometric_oracle():
    """Grid-quadrature steady shear against closed-form moments and adaptive
    quadrature."""
    gamma_dot = 1.0
    kernel, ob = model_catalog("oldroyd-b")
    age = build_age_grid(kernel, 0.002, 1e-10)
    stack = shear_history_stack(age.nodes, gamma_dot, t=age.s_max)
    tau_ob = quadrate(age, np.stack([ob.stress(g) for g in stack]))
    tol = 1e-6 + age.tail_error
    err12 = abs(tau_ob[0, 1] - 1.0)
    err11 = abs(tau_ob[0, 0] - 2.0)

    kernel_p, psm = model_catalog("psm-raw")
    tau_psm = quadrate(age, np.stack([psm.stress(g) for g in stack]))
    oracle = steady_shear_stress(psm, kernel_p, gamma_dot)
    err_psm = abs(tau_psm[0, 1] - oracle[0, 1])

    ok = err12 <= tol and err11 <= tol and err_psm <= 1e-6
    report(
        "AC-4",
        ok,
        f"linear law: |tau12-1|={err12:.2e}, |tau11-2|={err11:.2e} (tol {tol:.2e}); "
        f"damped law vs adaptive quadrature: {err_psm:.2e} (tol 1e-6)",
    )


def test_ac5_assumption_certification():
    """Catalog certification reports the derived damping suprema and flags
    the linear law as unbounded."""
    res = run_verification()
    psm = res.h2_data["psm-raw"]
    wag = res.h2_data["wagner-raw"]
    ob_bounded = False  # declared: the linear law does not satisfy the bound
    from memflow.constitutive import model_catalog as cat

    _, ob_measure = cat("oldroyd-b")
    ok = (
        res.passed
        and abs(psm.h_sup - 1.0) <= 1e-3
        and abs(wag.h_sup - 4.0 * math.exp(-2.0)) <= 1e-3
        and abs(wag.hp_sup - 13.5 * math.exp(-3.0)) <= 1e-3
        and ob_measure.h2_satisfied == ob_bounded
    )
    report(
        "AC-5",
        ok,
        f"sup x|h|: rational {psm.h_sup:.5f} (=1), exponential {wag.h_sup:.5f} (=4e-2={4*math.exp(-2):.5f}); "
        f"sup x^2|h'| exponential {wag.hp_sup:.5f} (=(27/2)e-3={13.5*math.exp(-3):.5f}); linear law bounded={ob_measure.h2_satisfied}",
    )


def test_ac6_generalized_cauchy_schwarz():
    """10^4 random contraction pairs over all orders and contraction counts."""
    worst = cauchy_schwarz_max_violation(n_pairs=10_000, seed=7)
    report("AC-6", worst <= 1e-12, f"max relative violation {worst:.2e} over 1e4 pairs (tol 1e-12)")


def test_ac7_gradient_control_inequality(ac1_result):
    """Discrete stress-gradient bound holds at every logged step."""
    res = ac1_result
    r_exp = 4
    sp = res.measure.sp_inf
    worst_excess = -math.inf
    violations = 0
    for rec in res.records:
        lhs = rec.stress_grad_norm**r_exp
        rhs = sp**r_exp * rec.y_integrand + 1e-6
        worst_excess = max(worst_excess, lhs - rhs)
        if lhs > rhs:
            violations += 1
    report(
        "AC-7",
        violations == 0,
        f"grad-control violations {violations}/{len(res.records)}; worst excess {worst_excess:.3e}",
    )


def test_ac8_growth_functional_sanity(ac1_result, ac3_results):
    """The cumulative gradient functional starts at zero, never decreases,
    stays finite; its double-log growth slope is reported, not asserted."""
    ok = True
    slopes = []
    for res in [ac1_result, *ac3_results]:
        ys = np.array([rec.y_value for rec in res.records])
        ts = np.array([rec.t for rec in res.records])
        ok &= ys[0] == 0.0
        ok &= bool(np.all(np.diff(ys) >= 0.0))
        ok &= bool(np.all(np.isfinite(ys)))
        slopes.append(float(np.polyfit(ts, np.log(np.log(math.e + ys)), 1)[0]))
    report(
        "AC-8",
        ok,
        "y(0)=0, nondecreasing, finite in all runs; "
        f"ln ln(e+y) slopes (reported only): {', '.join(f'{s:.4f}' for s in slopes)}",
    )


def test_ac9_solver_fidelity(ac1_result, ac3_results):
    """Vortex decay rate, incompressibility at every step, and bytewise
    determinism across FFT worker counts."""
    eta = 1.0
    grid = SpectralGrid(64)
    state = FlowState(grid, taylor_green(grid), eta)
    for _ in range(1000):
        step_velocity(state, None, 1e-3)
    expected = math.exp(-2.0 * eta) * taylor_green(grid)
    decay_rel = float(np.abs(state.u - expected).max() / np.abs(expected).max())

    div_worst = max(
        rec.divu_sup for res in [ac1_result, *ac3_results] for rec in res.records
    )

    cfg = SimulationConfig(
        n=32, viscosity=0.1, dt=0.05, t_final=0.5, model_name="psm-raw",
        eps_tail=1e-4, velocity_kind="taylor-green",
    )
    saved = spectral.get_workers()
    try:
        spectral.set_workers(1)
        rows1 = [rec.csv_row() for rec in run(cfg).records]
        spectral.set_workers(2)
        rows2 = [rec.csv_row() for rec in run(cfg).records]
    finally:
        spectral.set_workers(saved)

    ok = decay_rel <= 1e-4 and div_worst <= 1e-10 and rows1 == rows2
    report(
        "AC-9",
        ok,
        f"vortex decay error {decay_rel:.2e} (tol 1e-4); max div residual {div_worst:.2e} (tol 1e-10); "
        f"thread-count determinism {'bytewise' if rows1 == rows2 else 'BROKEN'} (no transform reads the worker "
        "count yet, so this and tools/bitgate.py's threads 1 = 2 run one code path twice)",
    )
