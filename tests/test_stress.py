import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from memflow.agegrid import build_age_grid
from memflow.constitutive import StrainMeasure, model_catalog, single_exponential_kernel
from memflow.spectral import SpectralGrid, taylor_green
from memflow.stepper import FlowState
from memflow.stress import (
    DegenerateDeformationError,
    StackReduction,
    assemble_stress,
    history_scan,
    stress_gradient_norm,
)
from memflow.transport import (
    CHUNK_SLICES,
    chunk_slices,
    identity_stack,
    init_history,
    stretch_advect_step,
)

N = 32


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(N)


@pytest.fixture(scope="module")
def age_grid():
    return build_age_grid(single_exponential_kernel(), 0.01, 1e-9)


def shear_history(grid, age_grid, gamma_dot):
    stack = identity_stack(age_grid.n_nodes, grid.n)
    stack[:, 1, 0] = (gamma_dot * age_grid.nodes)[:, None, None]
    return init_history(stack, grid, age_grid)


class TestAssembly:
    def test_identity_history_normalized_measure(self, grid, age_grid):
        _, m = model_catalog("psm-normalized")
        h = init_history("identity", grid, age_grid)
        tau = assemble_stress(h, m)
        expect = 1.0 - age_grid.tail_error
        assert abs(tau[0, 0].max() - expect) <= age_grid.quad_tol
        assert abs(tau[1, 1].min() - expect) <= age_grid.quad_tol
        assert np.abs(tau[0, 1]).max() == 0.0

    def test_identity_history_oldroyd_zero(self, grid, age_grid):
        _, m = model_catalog("oldroyd-b")
        h = init_history("identity", grid, age_grid)
        assert np.abs(assemble_stress(h, m)).max() == 0.0

    def test_homogeneous_shear_gamma_integrals(self, grid, age_grid):
        # exp-kernel moments: integral of s exp(-s) is 1, of s^2 exp(-s) is 2
        _, m = model_catalog("oldroyd-b")
        tau = assemble_stress(shear_history(grid, age_grid, 1.0), m)
        assert abs(tau[0, 0, 0, 0] - 2.0) < 1e-5
        assert abs(tau[0, 1, 0, 0] - 1.0) < 1e-5
        assert abs(tau[1, 0, 0, 0] - 1.0) < 1e-5
        assert abs(tau[1, 1, 0, 0] - 0.0) < 1e-12

    def test_homogeneous_shear_psm_adaptive_oracle(self, grid, age_grid):
        # trapezoid error at this spacing is ds^2/12 ~ 8e-6
        _, m = model_catalog("psm-raw")
        tau = assemble_stress(shear_history(grid, age_grid, 1.0), m)
        ref, _ = integrate.quad(lambda s: math.exp(-s) * s / (3.0 + s * s), 0, np.inf, epsabs=1e-13)
        assert abs(tau[0, 1, 0, 0] - ref) < 1e-5

    def test_linearity_in_measure(self, grid):
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-5)
        h = shear_history(grid, ag, 0.7)
        _, m1 = model_catalog("psm-raw")
        _, m2 = model_catalog("wagner-raw")
        a, b = 0.6, -1.3
        combo = StrainMeasure(
            name="combo",
            h=lambda x: a * m1.h(x) + b * m2.h(x),
            hp=lambda x: a * m1.hp(x) + b * m2.hp(x),
        )
        tau = assemble_stress(h, combo)
        expect = a * assemble_stress(h, m1) + b * assemble_stress(h, m2)
        np.testing.assert_allclose(tau, expect, atol=1e-12)

    def test_stress_bound_identity_psm(self, grid, age_grid):
        _, m = model_catalog("psm-raw")
        h = init_history("identity", grid, age_grid)
        tau = assemble_stress(h, m)
        from memflow.transport import norm_field

        assert norm_field(tau).max() <= m.s_inf * (1.0 - age_grid.tail_error) + age_grid.quad_tol


class TestYIntegrand:
    def test_identity_history_zero(self, grid, age_grid):
        h = init_history("identity", grid, age_grid)
        assert history_scan(h, 8, 4)[0] == 0.0

    def test_uniform_shear_zero(self, grid, age_grid):
        h = shear_history(grid, age_grid, 2.0)
        assert history_scan(h, 8, 4)[0] == 0.0

    def test_scalar_multiple_of_identity_reduction(self, grid):
        # G = g(x) I per slice: ratio |grad G| / |G| = |grad g| / |g|
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-4)
        gfun = 1.0 + 0.5 * np.sin(grid.x1) * np.ones((N, N))
        stack = np.zeros((ag.n_nodes, 2, 2, N, N))
        stack[:, 0, 0] = gfun
        stack[:, 1, 1] = gfun
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the age-zero slice is not the identity
            h = init_history(stack, grid, ag, mu=0.25)
        q, r = 8, 4
        got = history_scan(h, q, r, mu=0.25)[0]
        dg = grid.gradient(gfun)[0]
        ratio_norm = grid.lq_norm(np.abs(dg) / gfun, q) ** r
        expect = float(np.sum(ag.node_mass)) * ratio_norm
        assert math.isclose(got, expect, rel_tol=1e-12)

    def test_degenerate_deformation_detected(self, grid, age_grid):
        h = init_history("identity", grid, age_grid)
        h.payload[4] *= 1e-4
        with pytest.raises(DegenerateDeformationError):
            history_scan(h, 8, 4)[0]

    def test_scan_minima(self, grid, age_grid):
        stack = identity_stack(age_grid.n_nodes, N)
        stack[3] *= 1.0 - 0.05 * (1.0 + np.cos(grid.x1))  # 0.9 I at x1 = 0
        h = init_history(stack, grid, age_grid, mu=0.5)
        yi, min_det, min_abs = history_scan(h, 8, 4, mu=0.5)
        assert math.isclose(min_det, 0.81, rel_tol=1e-12)
        assert math.isclose(min_abs, 0.9 * math.sqrt(2.0), rel_tol=1e-12)


class TestStressGradient:
    def test_constant_field_zero(self, grid):
        tau = np.ones((2, 2, N, N))
        assert stress_gradient_norm(tau, grid, 8) == 0.0

    def test_single_mode_l2(self, grid):
        tau = np.zeros((2, 2, N, N))
        tau[0, 0] = np.sin(grid.x1) * np.ones((N, N))
        got = stress_gradient_norm(tau, grid, 2)
        assert math.isclose(got, math.sqrt(2.0 * math.pi**2), rel_tol=1e-12)

    def test_gradient_control_inequality_on_shear_flow(self, grid):
        # discrete version of the stress-gradient bound via the y integrand
        from memflow.stepper import advance_flow

        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-5)
        kernel, m = model_catalog("psm-raw")
        h = init_history("identity", grid, ag)
        st = FlowState(grid, taylor_green(grid), eta=0.1)
        tau = assemble_stress(h, m)
        q, r = 8, 4
        for _ in range(8):
            u_old = st.jet
            advance_flow(st, tau, ag.ds, 0.5)
            stretch_advect_step(h, u_old, st.jet, ag.ds)
            tau = assemble_stress(h, m)
            lhs = stress_gradient_norm(tau, grid, q) ** r
            rhs = m.sp_inf**r * history_scan(h, q, r)[0]
            assert lhs <= rhs + 1e-6


def perturbed_history(grid, age_grid, head, seed=0):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((age_grid.n_nodes, 2, 2, grid.n, grid.n))
    noise = grid.inv(grid.band(noise), out=noise)  # band-limited
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the age-zero slice is perturbed too
        h = init_history(identity_stack(age_grid.n_nodes, grid.n) + 0.1 * noise, grid, age_grid, mu=0.1)
    h.head = head
    return h


class TestFusedPass:
    """The history step's single stack pass against the separate stress and scan passes."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("head_at_chunk_start", [0, 1])
    def test_matches_separate_passes(self, n, head_at_chunk_start):
        grid = SpectralGrid(n)
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-2)
        size = chunk_slices(n)
        assert ag.n_nodes > CHUNK_SLICES >= size and (n > 16 or size == CHUNK_SLICES)
        new_head = head_at_chunk_start * size  # 0, or the first row of the second chunk
        h = perturbed_history(grid, ag, new_head + 1, seed=n)
        _, m = model_catalog("psm-raw")
        u = FlowState(grid, taylor_green(grid), 0.1).jet
        fused = StackReduction(h, m, (8, 4, 0.5))
        stretch_advect_step(h, u, 0.9 * u, 0.05, fused)
        assert h.head == new_head
        np.testing.assert_array_equal(fused.tau.total, assemble_stress(h, m))
        assert fused.scan_result() == pytest.approx(history_scan(h, 8, 4, mu=0.5), rel=1e-13)

    def test_transforms_per_slice(self, monkeypatch):
        counted = {"transforms": 0}

        def counting(method):
            def wrapper(self, f, *args, **kwargs):
                counted["transforms"] += math.prod(f.shape[:-2])
                return method(self, f, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(SpectralGrid, "fwd", counting(SpectralGrid.fwd))
        monkeypatch.setattr(SpectralGrid, "inv", counting(SpectralGrid.inv))
        grid = SpectralGrid(16)
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-2)
        h = perturbed_history(grid, ag, 0)
        _, m = model_catalog("psm-raw")
        u = FlowState(grid, taylor_green(grid), 0.1).jet  # the velocity samples carry their gradient
        for scan, per_slice in ((None, 36), ((8, 4, 1.0), 44)):
            counted["transforms"] = 0
            stretch_advect_step(h, u, 0.9 * u, 0.05, StackReduction(h, m, scan))
            assert counted["transforms"] == per_slice * h.n_slices
