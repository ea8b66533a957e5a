import math
import warnings

import numpy as np
import pytest
from conftest import gradient_stack
from scipy import integrate

from memflow.agegrid import KahanSum, build_age_grid
from memflow.constitutive import INI_MODELS, StrainMeasure, model_catalog, single_exponential_kernel, symmetric_tensor
from memflow.snapshots import read_checkpoint, write_checkpoint
from memflow.spectral import SpectralGrid, taylor_green
from memflow.stepper import FlowState, advance_flow
from memflow.stress import (
    DegenerateDeformationError,
    StackReduction,
    assemble_stress,
    history_scan,
    stress_gradient_norm,
)
from memflow.transport import (
    CHUNK_SLICES,
    ChunkWorkspace,
    DeformationHistory,
    age_shift,
    chunk_slices,
    identity_stack,
    init_history,
    is_identity,
    row_fields,
    set_identity,
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
        assert tau.shape == (3, N, N)
        assert abs(tau[0].max() - expect) <= age_grid.quad_tol
        assert abs(tau[2].min() - expect) <= age_grid.quad_tol
        assert np.abs(tau[1]).max() == 0.0

    def test_identity_history_oldroyd_zero(self, grid, age_grid):
        _, m = model_catalog("oldroyd-b")
        h = init_history("identity", grid, age_grid)
        assert np.abs(assemble_stress(h, m)).max() == 0.0

    def test_homogeneous_shear_gamma_integrals(self, grid, age_grid):
        # exp-kernel moments: integral of s exp(-s) is 1, of s^2 exp(-s) is 2
        _, m = model_catalog("oldroyd-b")
        tau = symmetric_tensor(assemble_stress(shear_history(grid, age_grid, 1.0), m))
        assert abs(tau[0, 0, 0, 0] - 2.0) < 1e-5
        assert abs(tau[0, 1, 0, 0] - 1.0) < 1e-5
        assert abs(tau[1, 0, 0, 0] - 1.0) < 1e-5
        assert abs(tau[1, 1, 0, 0] - 0.0) < 1e-12

    def test_homogeneous_shear_psm_adaptive_oracle(self, grid, age_grid):
        # trapezoid error at this spacing is ds^2/12 ~ 8e-6
        _, m = model_catalog("psm-raw")
        tau = assemble_stress(shear_history(grid, age_grid, 1.0), m)
        ref, _ = integrate.quad(lambda s: math.exp(-s) * s / (3.0 + s * s), 0, np.inf, epsabs=1e-13)
        assert abs(tau[1, 0, 0] - ref) < 1e-5

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
        frobenius = np.linalg.norm(symmetric_tensor(tau), axis=(-4, -3))
        assert frobenius.max() <= m.s_inf * (1.0 - age_grid.tail_error) + age_grid.quad_tol


class TestYIntegrand:
    def test_identity_history_zero(self, grid, age_grid):
        h = init_history("identity", grid, age_grid)
        assert history_scan(h, 8, 4)[0] == 0.0

    def test_uniform_shear_zero(self, grid, age_grid):
        h = shear_history(grid, age_grid, 2.0)
        assert history_scan(h, 8, 4)[0] == 0.0

    def test_diagonal_reduction(self, grid):
        # G = diag(f(x2), f(x1)) per slice, divergence-free rows: ratio |grad G| / |G| =
        # sqrt(f'(x2)^2 + f'(x1)^2) / sqrt(f(x2)^2 + f(x1)^2)
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-4)
        f, fp = lambda x: 1.0 + 0.5 * np.sin(x), lambda x: 0.5 * np.cos(x)
        stack = np.zeros((ag.n_nodes, 2, 2, N, N))
        stack[:, 0, 0], stack[:, 1, 1] = f(grid.x2), f(grid.x1)
        with pytest.warns(UserWarning, match="age-zero slice") as caught:
            h = init_history(stack, grid, ag, mu=0.25)
        assert len(caught) == 1  # the rows are divergence-free: their projection moves nothing
        q, r = 8, 4
        got = history_scan(h, q, r, mu=0.25)[0]
        ratio = np.sqrt((fp(grid.x2) ** 2 + fp(grid.x1) ** 2) / (f(grid.x2) ** 2 + f(grid.x1) ** 2))
        expect = float(np.sum(ag.node_mass)) * grid.lq_norm(ratio, q) ** r
        assert math.isclose(got, expect, rel_tol=1e-12)

    def test_degenerate_deformation_detected(self, grid, age_grid):
        h = init_history(identity_stack(age_grid.n_nodes, N), grid, age_grid)  # every row live
        h.payload[4] *= 1e-4
        with pytest.raises(DegenerateDeformationError):
            history_scan(h, 8, 4)[0]

    def test_scan_minima(self, grid, age_grid):
        stack = identity_stack(age_grid.n_nodes, N)
        f = lambda x: 1.0 - 0.05 * (1.0 + np.cos(x))
        stack[3, 0, 0], stack[3, 1, 1] = f(grid.x2), f(grid.x1)  # divergence-free rows: 0.9 I at x = 0
        h = init_history(stack, grid, age_grid, mu=0.5)
        yi, min_det, min_abs = history_scan(h, 8, 4, mu=0.5)
        assert math.isclose(min_det, 0.81, rel_tol=1e-12)
        assert math.isclose(min_abs, 0.9 * math.sqrt(2.0), rel_tol=1e-12)

    @pytest.mark.parametrize("model", [None, "psm-raw"])
    def test_scan_bits_match_a_four_product_reference(self, grid, model):
        # the stack pass takes |G| from the I1 that einsum forms for the stress, the reference from
        # g11^2 + g12^2 + g21^2 + g22^2: a numpy whose einsum sums in another order fails here
        ag = build_age_grid(single_exponential_kernel(), 0.1, 1e-3)  # 71 rows: chunks of 1, 1, 32, 32 and 5
        h = perturbed_history(grid, ag, seed=3)
        g_mag, expect = reference_scan(h, 8, 4)
        fed = StackReduction(h, None if model is None else model_catalog(model)[1], (8, 4, 0.1))
        for age, psi, work in h.chunks():  # the scan leaves each row's |G| in its last field of work.prod
            fed.add_chunk(age, row_fields(grid, psi, work), psi, work)
            assert work.prod.reshape(len(psi), 4, N, N)[:, 3].tobytes() == g_mag[age : age + len(psi)].tobytes()
        assert fed.scan_result() == expect


def reference_scan(history, q, r):
    """|G| of the live rows and their (y integrand, min det G, min |G|), every field allocated: |G|^2 as
    g11^2 + g12^2 + g21^2 + g22^2, and |grad G|^2 as the squared second derivatives of the potentials,
    d1 d1, sqrt 2 d1 d2 and d2 d2 in turn, each pair of rows summed first."""
    grid, psi = history.grid, history.payload[: history.live]
    g = grid.field(grid.curl_hat(psi))
    g11, g12, g21, g22 = g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1]
    g_mag = np.sqrt(g11 * g11 + g12 * g12 + g21 * g21 + g22 * g22)
    grad_sq = np.zeros_like(g_mag)
    for d in (grid.k1_band**2, math.sqrt(2.0) * grid.k1_band * grid.k2_band, grid.k2_band**2):
        dg = grid.field(psi * d)
        grad_sq += dg[:, 0] * dg[:, 0] + dg[:, 1] * dg[:, 1]
    norms = grid.lq_norm(np.sqrt(grad_sq) / g_mag, q)
    y = KahanSum().add(history.mass(0, history.live), [norm**r for norm in norms]).total
    return g_mag, (float(y), float((g11 * g22 - g12 * g21).min()), float(g_mag.min()))


class TestStressGradient:
    def test_constant_field_zero(self, grid):
        tau = np.ones((3, N, N))
        assert stress_gradient_norm(tau, grid, 8) == 0.0

    def test_single_mode_l2(self, grid):
        tau = np.zeros((3, N, N))
        tau[0] = np.sin(grid.x1) * np.ones((N, N))
        got = stress_gradient_norm(tau, grid, 2)
        assert math.isclose(got, math.sqrt(2.0 * math.pi**2), rel_tol=1e-12)

    def test_gradient_control_inequality_on_shear_flow(self, grid):
        # discrete version of the stress-gradient bound via the y integrand
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-5)
        kernel, m = model_catalog("psm-raw")
        h = init_history("identity", grid, ag)
        st = FlowState(grid, taylor_green(grid), eta=0.1)
        tau = assemble_stress(h, m)
        q, r = 8, 4
        for _ in range(8):
            u_old = st.jet
            advance_flow(st, tau, ag.ds, 0.5)
            stretch_advect_step(h, u_old, st.jet)
            tau = assemble_stress(h, m)
            lhs = stress_gradient_norm(tau, grid, q) ** r
            rhs = m.sp_inf**r * history_scan(h, q, r)[0]
            assert lhs <= rhs + 1e-6


def perturbed_history(grid, age_grid, seed=0):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((age_grid.n_nodes, 2, 2, grid.n, grid.n))
    noise = grid.inv(grid.band(noise), out=noise)  # band-limited
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the age-zero slice is perturbed too
        return init_history(identity_stack(age_grid.n_nodes, grid.n) + 0.1 * noise, grid, age_grid, mu=0.1)


def transformed_pass(h, m, scan=None):
    """The stored-stack pass with every row, an identity age-0 row too, transformed and fed to ``add_chunk``."""
    fed = StackReduction(h, m, scan)
    for age, psi, work in h.chunks():
        fed.add_chunk(age, row_fields(h.grid, psi, work), psi, work)
    return fed


class TestFusedPass:
    """The history step's single stack pass against the separate stress and scan passes."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("steps", [0, 1])
    def test_matches_separate_passes(self, n, steps):
        # after one step first, the previous newborn is an identity row among the rows stepped
        grid = SpectralGrid(n)
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-2)
        size = chunk_slices(n)
        assert ag.n_nodes > CHUNK_SLICES >= size and (n > 16 or size == CHUNK_SLICES)
        _, m = model_catalog("psm-raw")
        u = FlowState(grid, taylor_green(grid), 0.1).jet
        for live in (size + 3, ag.n_nodes):
            h = perturbed_history(grid, ag, seed=n)
            h.live = live
            for _ in range(steps):
                stretch_advect_step(h, u, 0.9 * u)
            assert is_identity(h.payload[0], n) == (steps > 0)
            fused = StackReduction(h, m, (8, 4, 0.5))
            stretch_advect_step(h, u, 0.9 * u, fused)
            assert is_identity(h.payload[0], n) and h.live == min(live + 1 + steps, ag.n_nodes)
            np.testing.assert_array_equal(fused.stress(), assemble_stress(h, m))
            assert fused.scan_result() == pytest.approx(history_scan(h, 8, 4, mu=0.5), rel=1e-13)

    @pytest.mark.parametrize("name", ["oldroyd-b", "psm-normalized", "wagner-raw", "wagner-normalized", "doi-edwards"])
    def test_newborn_stress_of_every_measure(self, name):
        # the newborn's S(I) is kept as one point; the sum must equal that of the identity's whole field
        grid = SpectralGrid(16)
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-2)
        h = perturbed_history(grid, ag, seed=3)
        _, m = model_catalog(name)
        u = FlowState(grid, taylor_green(grid), 0.1).jet
        fused = StackReduction(h, m)
        stretch_advect_step(h, u, 0.9 * u, fused)
        np.testing.assert_array_equal(fused.stress(), transformed_pass(h, m).stress())

    def test_reduction_uses_only_the_buffers_it_is_handed(self):
        # with the history's workspace full of NaN, chunks reduced in spare buffers, one or two in
        # turn, give the bits of a pass over a clean copy; the history's workspace is not touched
        grid = SpectralGrid(32)
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-3)
        _, m = model_catalog("psm-raw")
        base = age_shift(perturbed_history(grid, ag, seed=5))  # the newborn is the identity
        assert len(list(base.chunks())) > 3
        clean = StackReduction(base, m, (8, 4, 0.5)).over_stack()
        for spares in (1, 2):
            h = DeformationHistory(base.payload.copy(), ag, grid, base.generation, base.live)
            for buf in vars(h.workspace).values():
                buf[:] = np.nan
            works = [ChunkWorkspace(h.n_slices, grid.n) for _ in range(spares)]
            fed = StackReduction(h, m, (8, 4, 0.5))
            for i, (age, psi, _) in enumerate(h.chunks()):
                if age == 0:
                    fed.add_identity()
                    continue
                work = works[i % spares].cut(len(psi))
                fed.add_chunk(age, row_fields(grid, psi, work), psi, work)
            assert fed.stress().tobytes() == clean.stress().tobytes()
            assert fed.scan_result() == clean.scan_result()
            assert all(np.isnan(buf).all() for buf in vars(h.workspace).values())

    def test_transforms_per_slice(self, counted):
        grid = SpectralGrid(16)
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-2)
        h = perturbed_history(grid, ag)
        _, m = model_catalog("psm-raw")
        u = FlowState(grid, taylor_green(grid), 0.1).jet  # the velocity samples carry their gradient
        for scan, per_slice in ((None, 18), ((8, 4, 1.0), 24)):
            counted.reset()
            stretch_advect_step(h, u, 0.9 * u, StackReduction(h, m, scan))
            # the newborn is set, not stepped, and the oldest row forms no carry: the next shift drops it
            assert counted.total == per_slice * (h.n_slices - 1) - 2


class TestTailRow:
    """A history from rest keeps its whole pre-start past as one tail row; it
    must give what a history storing every age (an explicit identity stack) gives."""

    @staticmethod
    def histories(n=16):
        grid = SpectralGrid(n)
        kernel, m = model_catalog("psm-raw")
        ag = build_age_grid(kernel, 0.25, 0.1)
        assert 5 <= ag.n_nodes <= 12
        return grid, ag, m, init_history("identity", grid, ag), init_history(identity_stack(ag.n_nodes, n), grid, ag)

    def test_matches_full_history(self):
        grid, ag, m, tail, full = self.histories()
        n_s = ag.n_nodes
        assert (tail.live, full.live) == (1, n_s)
        st = FlowState(grid, taylor_green(grid), 0.1)
        tau = assemble_stress(full, m)
        np.testing.assert_allclose(assemble_stress(tail, m), tau, rtol=1e-13)  # the identity's stress
        for k in range(1, 2 * n_s + 3):
            u_old = st.jet
            advance_flow(st, tau, ag.ds, 0.5)
            passes = [StackReduction(h, m, (8, 4, 1.0)) for h in (tail, full)]
            for h, reduction in zip((tail, full), passes):
                stretch_advect_step(h, u_old, st.jet, reduction)
            assert tail.live == min(k + 1, n_s)
            assert all(tail.slice(j).tobytes() == full.slice(j).tobytes() for j in range(n_s))
            tau = passes[1].stress()
            np.testing.assert_allclose(passes[0].stress(), tau, rtol=0, atol=1e-13 * np.abs(tau).max())
            assert passes[0].scan_result() == pytest.approx(passes[1].scan_result(), rel=1e-13)

    def test_transforms_per_step(self, counted):
        # given the velocity spectrum, the age-1 row (the tail row at step 1, then the last newborn) is the
        # identity: 6 transforms, 12 monitored; every older row takes 16, 22 monitored; as the old jet is
        # never the last new one, no carry is used, and each row but the oldest of a full history forms one: 2 more
        grid, ag, m, unmonitored, _ = self.histories()
        monitored = init_history("identity", grid, ag)
        st = FlowState(grid, taylor_green(grid), 0.1)
        u = st.jet
        for k in range(1, ag.n_nodes + 3):
            rows = min(k + 1, ag.n_nodes)
            for h, scan, first, per_slice in ((unmonitored, None, 8, 18), (monitored, (8, 4, 1.0), 14, 24)):
                counted.reset()
                stretch_advect_step(h, u, 0.9 * u, StackReduction(h, m, scan), u_old_psi=st.psi_hat)
                assert counted.total == first + per_slice * (rows - 2) - 2 * (rows == ag.n_nodes)


class TestIdentityRow:
    """Given the old velocity's spectrum, a step takes the age-1 row's first Heun stage in closed form
    exactly when that row is bit for bit the identity: 6 transforms (12 monitored), not 16 (22), and 2 more
    for its carry.  From rest: :meth:`TestTailRow.test_transforms_per_step`.  The velocity here is frozen,
    one jet, so from a history's second step on every row from age 2 starts from its carry (:class:`TestCarry`)."""

    @staticmethod
    def step(h, st, counted, scan=None):
        """One step with a frozen velocity; returns its transforms."""
        _, m = model_catalog("psm-raw")
        counted.reset()
        stretch_advect_step(h, st.jet, st.jet, StackReduction(h, m, scan), u_old_psi=st.psi_hat)
        return counted.total

    @staticmethod
    def eye_bits(h):
        """Whether the age-0 row holds the identity's bits as the shift writes them: n^2 and i n^2 at the mean modes."""
        eye = np.zeros_like(h.slice(0))
        eye[0, 0, 0], eye[1, 0, 0] = h.grid.n**2, 1j * h.grid.n**2
        return h.slice(0).tobytes() == eye.tobytes()

    @pytest.mark.parametrize("k", [3, 20])
    def test_restart_from_wrapped_checkpoint(self, counted, tmp_path, k):
        grid, ag, _, h, _ = TestTailRow.histories()
        st = FlowState(grid, taylor_green(grid), 0.1)
        for _ in range(k):
            self.step(h, st, counted)
        assert h.live == min(k + 1, ag.n_nodes)  # k = 20: a full history, its oldest row dropped each step
        write_checkpoint(tmp_path / "chk", step=k, t=k * ag.ds, y_value=0.0, y_integrand=0.0, u=st.psi_hat,
                         history=h.payload[:h.live], n_slices=h.n_slices, physics={})
        chk = read_checkpoint(tmp_path / "chk")
        resumed = DeformationHistory(chk["history"], ag, grid, generation=k, live=chk["live"])
        assert self.eye_bits(resumed)
        rows = min(k + 2, ag.n_nodes)
        full = 2 * (rows == ag.n_nodes)  # the oldest row forms no carry
        assert self.step(h, st, counted) == 8 + 12 * (rows - 2) - full
        assert self.step(resumed, st, counted) == 8 + 18 * (rows - 2) - full  # a restart has no carry
        assert resumed.payload[:resumed.live].tobytes() == h.payload[:h.live].tobytes()

    def test_explicit_stack(self, counted):
        # an explicit identity stack is projected onto the identity's exact bits (+0.0, not -0.0), so its
        # age-1 row takes the closed form; a row that is the identity in value, not in bits, takes every transform
        grid, ag, _, rest, full = TestTailRow.histories()
        _, _, _, _, bent = TestTailRow.histories()
        bent.slice(0)[0, 0, 1] = -0.0
        np.testing.assert_array_equal(full.slice(0), bent.slice(0))
        assert self.eye_bits(full) and full.slice(0).tobytes() == rest.slice(0).tobytes() and not self.eye_bits(bent)
        st = FlowState(grid, taylor_green(grid), 0.1)
        n_s = ag.n_nodes
        assert self.step(bent, st, counted) == 18 * (n_s - 1) - 2  # the oldest row forms no carry
        assert self.step(full, st, counted) == 8 + 18 * (n_s - 2) - 2
        for h in (full, bent):  # from the next step on, the age-1 row is the newborn, and the others carried
            assert self.step(h, st, counted) == 8 + 12 * (n_s - 2) - 2

    def test_perturbed_explicit_history(self, counted):
        grid = SpectralGrid(16)
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-2)
        h = perturbed_history(grid, ag)
        st = FlowState(grid, taylor_green(grid), 0.1)
        assert self.step(h, st, counted, (8, 4, 1.0)) == 24 * (h.n_slices - 1) - 2
        assert self.step(h, st, counted, (8, 4, 1.0)) == 14 + 18 * (h.n_slices - 2) - 2


class TestCarry:
    """A step leaves each row's next first-stage right-hand side in ``history.carry``, and the next step, at
    that velocity jet, as ``run()`` steps the history, starts from it: 12 transforms a stepped row (18
    monitored) and 8 for the age-1 identity row (14), with the bits of forming the first stage from the
    stored spectra."""

    SCAN = (8, 4, 1.0)

    @staticmethod
    def flow(st, ds, tau=None):
        """Advance the flow one step; returns the old jet and stream function."""
        old = st.jet, st.psi_hat
        advance_flow(st, tau, ds, 0.5)
        return old

    def test_transforms_per_step(self, counted):
        # from rest, with `rows` live rows after the shift: 8 + 12 (rows - 2), 14 + 18 (rows - 2) monitored,
        # and 2 fewer once the history is full, as the row at age N_s - 1 forms no carry (the next shift
        # drops it).  A step that forms every first stage from the spectra takes 6 more a row from age 2
        # (:meth:`TestTailRow.test_transforms_per_step`).
        grid, ag, m, _, _ = TestTailRow.histories()
        n_s = ag.n_nodes
        for scan, first, per_row in ((None, 8, 12), (self.SCAN, 14, 18)):
            h, st = init_history("identity", grid, ag), FlowState(grid, taylor_green(grid), 0.1)
            for k in range(1, 2 * n_s + 3):
                jet, psi = self.flow(st, ag.ds)
                counted.reset()
                stretch_advect_step(h, jet, st.jet, StackReduction(h, m, scan), psi)
                rows = min(k + 1, n_s)
                assert counted.total == first + per_row * (rows - 2) - 2 * (rows == n_s), k

    @pytest.mark.parametrize("start", ["rest", "explicit"])
    def test_carry_gives_the_recomputed_bits(self, start):
        # two histories stepped with the same velocities past the fill-up and the wrap, one starting each
        # step from its carry and one, handed a copy of the old jet, not the jet its carry was formed at,
        # forming every first stage from its spectra: the same rows, stress and scan, byte for byte
        grid, ag, m, rest, full = TestTailRow.histories()
        carried = rest if start == "rest" else full
        recomputed = init_history("identity" if start == "rest" else identity_stack(ag.n_nodes, 16), grid, ag)
        st, tau = FlowState(grid, taylor_green(grid), 0.1), None
        for _ in range(2 * ag.n_nodes + 3):
            jet, psi = self.flow(st, ag.ds, tau)
            fast, slow = (StackReduction(h, m, self.SCAN) for h in (carried, recomputed))
            stretch_advect_step(carried, jet, st.jet, fast, psi)
            stretch_advect_step(recomputed, jet.copy(), st.jet, slow, psi)
            assert carried.carry_jet is st.jet and recomputed.carry_jet is st.jet
            assert carried.live == recomputed.live
            assert carried.payload[: carried.live].tobytes() == recomputed.payload[: recomputed.live].tobytes()
            tau = fast.stress()
            assert tau.tobytes() == slow.stress().tobytes() and fast.scan_result() == slow.scan_result()

    def test_history_without_carry(self, counted):
        # a history that holds no carry, as run() builds one when only the potentials fit its memory cap, forms
        # every first stage from the stored spectra: 16 transforms a stepped row (22 monitored) and 6 for the
        # age-1 identity row (12), none for a carry, full or not; its rows, stress and scan are the carried bits
        grid, ag, m, _, _ = TestTailRow.histories()
        n_s = ag.n_nodes
        for scan, first, per_row in ((None, 6, 16), (self.SCAN, 12, 22)):
            carried, plain = (init_history("identity", grid, ag, carry=carry) for carry in (True, False))
            st, tau = FlowState(grid, taylor_green(grid), 0.1), None
            for k in range(1, 2 * n_s + 3):
                jet, psi = self.flow(st, ag.ds, tau)
                fast, slow = (StackReduction(h, m, scan) for h in (carried, plain))
                stretch_advect_step(carried, jet, st.jet, fast, psi)
                counted.reset()
                stretch_advect_step(plain, jet, st.jet, slow, psi)
                assert counted.total == first + per_row * (min(k + 1, n_s) - 2), k
                assert plain.carry is None and plain.carry_jet is None and plain.live == carried.live
                assert plain.payload[: plain.live].tobytes() == carried.payload[: carried.live].tobytes()
                tau = fast.stress()
                assert tau.tobytes() == slow.stress().tobytes() and fast.scan_result() == slow.scan_result()

    def test_carry_used_only_at_its_jet(self, counted):
        # a carry formed at the jet u is not used for another jet, 0.9 u: that step forms every first stage
        # from the spectra, 4 more inverse and 2 more forward transforms a row, and gives the bits of a
        # history that never started a step from its carry
        grid, ag, m, h, _ = TestTailRow.histories()
        twin, plain = init_history("identity", grid, ag), init_history("identity", grid, ag)
        st = FlowState(grid, taylor_green(grid), 0.1)
        for _ in range(4):
            jet, psi = self.flow(st, ag.ds)
            for carried in (h, twin):
                stretch_advect_step(carried, jet, st.jet, None, psi)
            stretch_advect_step(plain, jet.copy(), st.jet, None, psi)
        u, psi, rows = st.jet, st.psi_hat, h.live + 1
        counts = []
        for hist, u_old, psi_old in ((twin, u, psi), (h, 0.9 * u, 0.9 * psi), (plain, 0.9 * u, 0.9 * psi)):
            counted.reset()
            stretch_advect_step(hist, u_old, u, None, psi_old)
            counts.append((counted.fwd, counted.inv))
        assert counts[0] == (4 * (rows - 1), 4 + 8 * (rows - 2))
        assert counts[1] == (counts[0][0] + 2 * (rows - 2), counts[0][1] + 4 * (rows - 2))
        assert h.payload[:rows].tobytes() == plain.payload[:rows].tobytes()
        assert h.payload[2:rows].tobytes() != twin.payload[2:rows].tobytes()  # not stepped from the carry at u

    @pytest.mark.parametrize("k", [3, 20])
    def test_resume_matches_straight_rows(self, counted, tmp_path, k):
        # a history resumed from a checkpoint has no carry: its first step forms every first stage from the
        # spectra, and forms the carries, 2 transforms a row more than a step before; then it steps as the
        # straight history does, with its bits
        grid, ag, m, h, _ = TestTailRow.histories()
        n_s, st, tau = ag.n_nodes, FlowState(grid, taylor_green(grid), 0.1), None
        for _ in range(k):
            jet, psi = self.flow(st, ag.ds, tau)
            reduction = StackReduction(h, m)
            stretch_advect_step(h, jet, st.jet, reduction, psi)
            tau = reduction.stress()
        write_checkpoint(tmp_path / "chk", step=k, t=k * ag.ds, y_value=0.0, y_integrand=0.0, u=st.psi_hat,
                         history=h.payload[:h.live], n_slices=n_s, physics={})
        chk = read_checkpoint(tmp_path / "chk")
        resumed = DeformationHistory(chk["history"], ag, grid, generation=k, live=chk["live"])
        for step in range(k + 1, k + n_s + 2):
            jet, psi = self.flow(st, ag.ds, tau)
            rows, counts, passes = min(step + 1, n_s), [], []
            for hist in (h, resumed):
                counted.reset()
                passes.append(StackReduction(hist, m))
                stretch_advect_step(hist, jet, st.jet, passes[-1], psi)
                counts.append(counted.total)
            full = 2 * (rows == n_s)
            assert counts[0] == 8 + 12 * (rows - 2) - full
            assert counts[1] == (8 + 18 * (rows - 2) - full if step == k + 1 else counts[0])
            assert resumed.payload[:resumed.live].tobytes() == h.payload[:h.live].tobytes()
            tau = passes[0].stress()
            assert tau.tobytes() == passes[1].stress().tobytes()


class TestFirstPass:
    """:meth:`StackReduction.over_stack`, the pass behind a run's initial state and a restart's first
    record, adds an age-0 row that is bit for bit the identity spectrum as the newborn a step sets: no
    transform.  Every other row takes 4 inverse transforms, 10 with the bound scan."""

    SCAN = (8, 4, 1.0)

    def test_history_from_rest_takes_no_transform(self, counted):
        grid, ag, m, h, _ = TestTailRow.histories()
        for scan in (None, self.SCAN):
            counted.reset()
            StackReduction(h, m, scan).over_stack()
            assert counted.total == 0

    @pytest.mark.parametrize("k", [3, 20])
    def test_restart_first_pass(self, counted, tmp_path, k):
        # every live row but the newborn is transformed: 10 (live - 1) transforms monitored, 4 (live - 1) not
        grid, ag, m, h, _ = TestTailRow.histories()
        st = FlowState(grid, taylor_green(grid), 0.1)
        for _ in range(k):
            TestIdentityRow.step(h, st, counted)
        write_checkpoint(tmp_path / "chk", step=k, t=k * ag.ds, y_value=0.0, y_integrand=0.0, u=st.psi_hat,
                         history=h.payload[:h.live], n_slices=h.n_slices, physics={})
        chk = read_checkpoint(tmp_path / "chk")
        resumed = DeformationHistory(chk["history"], ag, grid, generation=k, live=chk["live"])
        assert resumed.live == min(k + 1, ag.n_nodes) > 1
        for scan, per_row in ((self.SCAN, 10), (None, 4)):
            counted.reset()
            first = StackReduction(resumed, m, scan).over_stack()
            assert (counted.fwd, counted.inv) == (0, per_row * (resumed.live - 1))
            reference = transformed_pass(h, m, scan)
            assert first.stress().tobytes() == reference.stress().tobytes()
            assert first.scan_result() == reference.scan_result()

    @pytest.mark.parametrize("word", [(0, 0, 1), (1, 0, 0)])
    def test_negative_zero_takes_the_transforms(self, counted, word):
        # a -0.0 where the identity holds +0.0 (the imaginary part of psi_1's mean mode, G12's mean, and the
        # real part of psi_2's, G21's mean) is the identity in value, not in bits
        grid, ag, m, h, _ = TestTailRow.histories()
        h.slice(0).view(float)[word] = -0.0
        assert not is_identity(h.slice(0), grid.n) and not TestIdentityRow.eye_bits(h)
        counted.reset()
        first = StackReduction(h, m, self.SCAN).over_stack()
        assert counted.total == 10
        exact = StackReduction(init_history("identity", grid, ag), m, self.SCAN).over_stack()
        np.testing.assert_array_equal(first.stress(), exact.stress())
        assert first.scan_result() == exact.scan_result()

    @pytest.mark.parametrize("steps", [0, 2])
    def test_identity_path_matches_transformed_row(self, steps):
        # the tail row from rest (tail mass) and a newborn (node mass): the bits of transforming it
        grid, ag, m, h, _ = TestTailRow.histories()
        st = FlowState(grid, taylor_green(grid), 0.1)
        for _ in range(steps):
            stretch_advect_step(h, st.jet, 0.9 * st.jet)
        assert h.live == steps + 1 and is_identity(h.slice(0), grid.n)
        fast = StackReduction(h, m, self.SCAN).over_stack()
        reference = transformed_pass(h, m, self.SCAN)
        assert fast.stress().tobytes() == reference.stress().tobytes()
        assert fast.scan_result() == reference.scan_result()

    def test_is_identity_is_the_bits_of_set_identity(self):
        grid = SpectralGrid(16)
        row = set_identity(np.full((2, *grid.band_shape), np.nan, dtype=complex), 16)
        assert is_identity(row, 16) and row.tobytes() == init_history("identity", grid, build_age_grid(
            single_exponential_kernel(), 0.25, 0.1)).slice(0).tobytes()
        for index, value in (((0, 0, 0), 2 * 16**2), ((0, 0, 0), 16**2 + 1e-13j), ((1, 0, 0), 16**2),
                             ((1, 3, 2), 1e-300), ((1, 0, 0), complex(-0.0, 16**2))):
            bent = row.copy()
            bent[index] = value
            assert not is_identity(bent, 16), index


@pytest.mark.parametrize("name", INI_MODELS)
def test_stress_gradient_norm_of_symmetric_stress(counted, monkeypatch, name):
    # the stress is held as its three distinct components: they take one per-axis gradient per derivative
    # direction (an rfft and an irfft along it, no 2-D transform), and the pointwise norm has the bits of the
    # einsum over the four components of the 2 x 2 tensor
    grid = SpectralGrid(32)
    ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-2)
    h = perturbed_history(grid, ag, seed=9)
    _, m = model_catalog(name)
    st = FlowState(grid, taylor_green(grid), 0.1)
    for _ in range(2):
        reduction = StackReduction(h, m)
        stretch_advect_step(h, st.jet, 0.9 * st.jet, reduction, u_old_psi=st.psi_hat)
    tau = reduction.stress()
    assert tau.shape == (3, 32, 32) and np.abs(tau[1]).max() > 1e-6
    dtau = gradient_stack(grid, symmetric_tensor(tau))
    expected = np.sqrt(np.einsum("djkyx,djkyx->yx", dtau, dtau))
    norms, lq_norm, gradients, gradient = [], SpectralGrid.lq_norm, [], SpectralGrid.gradient
    monkeypatch.setattr(SpectralGrid, "lq_norm",
                        lambda self, f, q, out=None: norms.append(f.tobytes()) or lq_norm(self, f, q, out))
    monkeypatch.setattr(SpectralGrid, "gradient", lambda self, f, axis, **kw:
                        gradients.append((f.shape, axis)) or gradient(self, f, axis, **kw))
    for q in (2, 8):
        counted.reset()
        assert stress_gradient_norm(tau, grid, q) == lq_norm(grid, expected, q)
        assert norms.pop() == expected.tobytes()
        assert (counted.fwd, counted.inv) == (0, 0)
        assert gradients == [((3, 32, 32), -2), ((3, 32, 32), -1)]
        gradients.clear()
