import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import divergence_free_rows

from memflow import transport
from memflow.agegrid import build_age_grid
from memflow.constitutive import model_catalog, single_exponential_kernel
from memflow.spectral import SpectralGrid, random_band_limited_velocity, taylor_green
from memflow.stepper import FlowState, advance_flow, heun
from memflow.stress import StackReduction
from memflow.transport import (
    ChunkWorkspace,
    DeformationHistory,
    DegenerateHistoryError,
    HistoryNaNError,
    age_shift,
    chunk_slices,
    det_field,
    identity_stack,
    init_history,
    is_identity,
    set_identity,
    stretch_advect_step,
)

N = 32


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(N)


@pytest.fixture()
def age_grid():
    return build_age_grid(single_exponential_kernel(), 0.05, 1e-3)


def identity_like(history):
    return identity_stack(history.n_slices, N)


def identity_band(history):
    """The stored identity: zero potentials with the means e_1, e_2, so N^2 and i N^2 at the two mean modes."""
    eye = np.zeros_like(history.payload)
    eye[:, 0, 0, 0], eye[:, 1, 0, 0] = N * N, 1j * N * N
    return eye


def by_age(history):
    """Band spectra of every age, in age order (ages past the tail row repeat it)."""
    return np.stack([history.slice(j) for j in range(history.n_slices)])


def spectra(grid, psi):
    """The band spectra of the rows of the potentials ``psi``, allocated: shape ``(..., 2, 2, *band_shape)``."""
    return grid.curl_hat(psi)


def fields(history):
    """Physical fields of every age, in age order."""
    return history.grid.field(spectra(history.grid, by_age(history)))


def with_slice(grid, age_grid, j, value, mu=1.0):
    """An explicit identity history whose age-j slice is ``value``."""
    stack = identity_stack(age_grid.n_nodes, N)
    stack[j] = value
    return init_history(stack, grid, age_grid, mu=mu)


def row_divergence(grid, g_hat):
    """k . G_j, the band spectrum of each row's divergence D_j divided by i: shape ``(..., 2, *band_shape)``."""
    return grid.k1_band * g_hat[..., 0, :, :] + grid.k2_band * g_hat[..., 1, :, :]


class TestInit:
    def test_identity_spec(self, grid, age_grid):
        h = init_history("identity", grid, age_grid)
        assert float(det_field(fields(h)).min()) == 1.0
        np.testing.assert_array_equal(by_age(h), identity_band(h))
        np.testing.assert_array_equal(fields(h), identity_like(h))
        # one tail row stands for every age; no other row is written
        assert h.live == 1 and np.flatnonzero(h.payload.reshape(h.n_slices, -1).any(axis=1)).tolist() == [0]

    def test_explicit_accepted_with_floor(self, grid, age_grid):
        scale = 1.0 + 0.5 * np.sin(grid.x1) * np.ones((N, N))
        stack = np.zeros((age_grid.n_nodes, 2, 2, N, N))
        stack[:, 0, 0] = scale
        stack[:, 1, 1] = scale
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h = init_history(stack, grid, age_grid, mu=0.25)
        assert float(det_field(fields(h)).min()) >= 0.25

    def test_explicit_zero_determinant_rejected(self, grid, age_grid):
        stack = identity_like(init_history("identity", grid, age_grid))
        stack[3, 0, 0] = stack[3, 1, 1] = 0.5 * (1.0 + np.cos(grid.x1)) * np.ones((N, N))  # det 0 at x1 = pi
        with pytest.raises(DegenerateHistoryError):
            init_history(stack, grid, age_grid, mu=0.25)

    def test_explicit_nan_rejected(self, grid, age_grid):
        stack = identity_like(init_history("identity", grid, age_grid))
        stack[-1, 0, 0] = np.nan  # in the last chunk, after finite ones
        assert age_grid.n_nodes > chunk_slices(N)
        with pytest.raises(DegenerateHistoryError, match="nan"):
            init_history(stack, grid, age_grid)

    def test_nonidentity_age_zero_warns(self, grid, age_grid):
        stack = identity_like(init_history("identity", grid, age_grid))
        stack[0, 0, 1] = 0.2
        with pytest.warns(UserWarning):
            init_history(stack, grid, age_grid, mu=0.5)

    def test_unknown_spec_rejected(self, grid, age_grid):
        with pytest.raises(ValueError):
            init_history("rest", grid, age_grid)

    def test_band_limited_history_round_trips(self, grid, age_grid):
        stack = identity_like(init_history("identity", grid, age_grid))
        stack[1:] = divergence_free_rows(grid, np.random.default_rng(12), age_grid.n_nodes - 1, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # divergence-free rows: the row projection moves nothing
            h = init_history(stack, grid, age_grid, mu=0.1)
        np.testing.assert_allclose(fields(h), stack, rtol=0, atol=1e-14)

    def test_rows_with_divergence_projected(self, grid, age_grid):
        # fails before explicit histories had their rows projected: row j of diag(f(x1), f(x1)) has
        # divergence d_j1 f'(x1); the projection keeps its mean and drops the rest, so G = diag(1, f(x1))
        f = 1.0 + 0.2 * np.sin(grid.x1) * np.ones((N, N))
        stack = identity_like(init_history("identity", grid, age_grid))
        stack[3, 0, 0] = stack[3, 1, 1] = f
        with pytest.warns(UserWarning, match="not divergence-free"):
            h = init_history(stack, grid, age_grid, mu=0.5)
        assert float(np.abs(row_divergence(grid, spectra(grid, h.payload))).max()) <= 1e-14 * N * N
        expect = identity_like(h)
        expect[3, 1, 1] = f
        np.testing.assert_allclose(fields(h), expect, rtol=0, atol=1e-14)

    def test_out_of_band_modes_projected_away(self, grid, age_grid):
        stack = identity_like(init_history("identity", grid, age_grid))
        stack[2, 0, 1] = 0.3 * np.cos(N // 2 * grid.x1) * np.ones((N, N))  # beyond the 2/3 band
        stack[2, 1, 0] = 0.2 * np.sin(grid.x2) * np.ones((N, N))
        h = init_history(stack, grid, age_grid)
        expect = identity_like(h)
        expect[2, 1, 0] = stack[2, 1, 0]
        np.testing.assert_allclose(fields(h), expect, rtol=0, atol=1e-14)


class TestShift:
    def test_identity_invariant(self, grid, age_grid):
        h = init_history("identity", grid, age_grid)
        age_shift(h)
        assert h.live == 2
        np.testing.assert_array_equal(by_age(h), identity_band(h))

    def test_marker_transport(self, grid, age_grid):
        marker = np.array([[1.0, 0.4], [0.1, 1.2]])
        h = with_slice(grid, age_grid, 3, marker[:, :, None, None])
        moved = h.slice(3).copy()
        age_shift(h)
        np.testing.assert_array_equal(h.slice(4), moved)
        marker_field = marker[:, :, None, None] * np.ones((2, 2, N, N))
        np.testing.assert_allclose(fields(h)[4], marker_field, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(h.slice(0), identity_band(h)[0])

    def test_shift_moves_rows_down(self, grid, age_grid):
        # age j at row j: each live row moves down one row and the identity enters at row 0
        n_s = age_grid.n_nodes
        payload = np.random.default_rng(1).standard_normal((n_s, 2, *grid.band_shape)) * (1 + 1j)
        for live in (1, 3, n_s - 1, n_s):
            h = age_shift(DeformationHistory(payload.copy(), age_grid, grid, live=live))
            assert h.live == min(live + 1, n_s)
            assert h.payload[1 : h.live].tobytes() == payload[: h.live - 1].tobytes()
            assert h.payload[0].tobytes() == identity_band(h)[0].tobytes()
            assert h.payload[h.live :].tobytes() == payload[h.live :].tobytes()  # rows not live are not touched

    def test_oldest_slice_dropped(self, grid, age_grid):
        last = age_grid.n_nodes - 1
        h = with_slice(grid, age_grid, last, 7.0 * np.eye(2)[:, :, None, None])
        age_shift(h)
        assert float(np.abs(h.payload - identity_band(h)).max()) == 0.0


class TestLiveRows:
    def test_chunks_cover_live_rows_in_age_order(self, grid, age_grid):
        h = init_history("identity", grid, age_grid)
        n_s, size = h.n_slices, chunk_slices(N)
        assert n_s > 2 * size
        for live in (1, 2, size + 3, n_s - 1, n_s):
            h.live = live
            chunks = list(h.chunks())
            assert chunks[0][0] == 0 and len(chunks[0][1]) == 1  # the newborn is a chunk of its own
            assert all(0 < len(rows) <= size for _, rows, _ in chunks)
            ages = [age + i for age, rows, _ in chunks for i in range(len(rows))]
            assert ages == list(range(live))
            assert all(np.shares_memory(row, h.slice(age + i)) and np.shares_memory(row, h.payload[age + i])
                       for age, rows, _ in chunks for i, row in enumerate(rows))  # age j at row j
            # each chunk's workspace: the leading slices of the history's, one per row
            assert all(len(buf) == len(rows) and np.shares_memory(buf, getattr(h.workspace, name))
                       for _, rows, work in chunks for name, buf in vars(work).items())
            # the newborn and age 1, one row each, then chunks of the other ages from age 2 on
            assert [(age, len(rows)) for age, rows, _ in chunks] == [(0, 1), (1, 1)][:live] + [
                (age, min(size, live - age)) for age in range(2, live, size)]

    def test_tail_row_mass_and_slices(self, grid, age_grid):
        h = init_history("identity", grid, age_grid)
        st = FlowState(grid, taylor_green(grid), eta=0.1)
        for _ in range(3):
            stretch_advect_step(h, st.jet, st.jet)
        assert h.live == 4
        # ages 0 .. 2 at rows 0 .. 2; the tail row, age 3, at row 3
        assert [(age, len(rows)) for age, rows, _ in h.chunks()] == [(0, 1), (1, 1), (2, 2)]
        assert np.shares_memory(list(h.chunks())[-1][1][-1], h.payload[3])
        assert h.mass(3, 1)[0] == age_grid.tail_mass[3] == pytest.approx(age_grid.node_mass[3:].sum(), rel=1e-14)
        assert h.mass(0, 3).tolist() == age_grid.node_mass[:3].tolist()
        assert h.mass(1, 3).tolist() == age_grid.node_mass[1:3].tolist() + [age_grid.tail_mass[3]]
        assert not np.shares_memory(h.slice(2), h.payload[3])
        assert all(np.shares_memory(h.slice(j), h.payload[3]) for j in (3, 4, h.n_slices - 1))
        assert age_grid.tail_mass[-1] == age_grid.node_mass[-1]

    def test_live_count_checked(self, grid, age_grid):
        payload = init_history("identity", grid, age_grid).payload
        for live in (0, age_grid.n_nodes + 1):
            with pytest.raises(ValueError, match="live age count"):
                DeformationHistory(payload, age_grid, grid, live=live)


class TestStep:
    def test_zero_velocity_leaves_slices(self, grid, age_grid):
        marker = np.array([[1.0, 0.3], [0.0, 1.0]])
        h = with_slice(grid, age_grid, 2, marker[:, :, None, None])
        moved = h.slice(2).copy()
        u0 = np.zeros((3, 2, N, N))  # the jet of the fluid at rest
        stretch_advect_step(h, u0, u0)
        # pure shift: marker moved, values untouched
        np.testing.assert_array_equal(h.slice(3), moved)

    def test_finite_memory_flush(self, grid):
        ag = build_age_grid(single_exponential_kernel(), 0.1, 5e-2)
        h = with_slice(grid, ag, 1, np.array([[2.0, 0.5], [0.3, 1.5]])[:, :, None, None])
        u0 = np.zeros((3, 2, N, N))  # the jet of the fluid at rest
        for _ in range(h.n_slices):
            stretch_advect_step(h, u0, u0)
        np.testing.assert_array_equal(h.payload, identity_band(h))

    def test_age_zero_boundary_after_step(self, grid, age_grid):
        h = init_history("identity", grid, age_grid)
        st = FlowState(grid, taylor_green(grid), eta=0.1)
        stretch_advect_step(h, st.jet, st.jet)
        np.testing.assert_array_equal(h.slice(0), identity_band(h)[0])
        assert h.generation == 1

    @pytest.mark.parametrize("start", ["identity", "explicit"])
    def test_newborn_set_not_stepped(self, grid, monkeypatch, start):
        ag = build_age_grid(single_exponential_kernel(), 0.25, 0.05)
        h = init_history("identity" if start == "identity" else identity_stack(ag.n_nodes, N), grid, ag)
        stepped = []

        def spy(y, y_hat, *args, **kwargs):
            stepped.append(y_hat)
            return heun(y, y_hat, *args, **kwargs)

        monkeypatch.setattr(transport, "heun", spy)
        st = FlowState(grid, taylor_green(grid), eta=0.1)
        for k in range(1, ag.n_nodes + 3):
            stepped.clear()
            stretch_advect_step(h, st.jet, 0.9 * st.jet)
            assert h.slice(0).tobytes() == identity_band(h)[0].tobytes()
            assert not any(np.shares_memory(y_hat, h.slice(0)) for y_hat in stepped)
            rows = min(k + 1, ag.n_nodes) if start == "identity" else ag.n_nodes
            assert sum(len(y_hat) for y_hat in stepped) == rows - 1

    def test_explicit_age_zero_slice_is_stepped_not_overwritten(self, grid, age_grid):
        # the shift carries a supplied age-0 slice of 1.1 I to age 1; at rest its step leaves it as it is
        stack = identity_stack(age_grid.n_nodes, N)
        stack[0] *= 1.1
        with pytest.warns(UserWarning, match="age-zero slice"):
            h = init_history(stack, grid, age_grid)
        supplied = h.slice(0).copy()
        # zero potentials with the means 1.1 e_j: two nonzero words
        assert supplied[:, 0, 0].tolist() == [1.1 * N * N, 1.1j * N * N] and np.count_nonzero(supplied.view(np.uint64)) == 2
        u0 = np.zeros((3, 2, N, N))  # the jet of the fluid at rest
        stretch_advect_step(h, u0, u0, u_old_psi=np.zeros(grid.band_shape, dtype=complex))
        assert h.slice(1).tobytes() == supplied.tobytes()  # the step adds zeros
        assert h.slice(0).tobytes() == identity_band(h)[0].tobytes()

    def test_determinant_transport_taylor_green(self, grid):
        # det G is conserved along characteristics for divergence-free u
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-4)
        h = init_history("identity", grid, ag)
        st = FlowState(grid, taylor_green(grid), eta=0.1)
        tau = None
        for _ in range(10):
            u_old = st.jet
            advance_flow(st, tau, ag.ds, 0.5)
            stretch_advect_step(h, u_old, st.jet)
        g = fields(h)
        dev = float(np.abs(det_field(g) - 1.0).max())
        assert dev < 1e-3
        # norm lower bound follows from the determinant by AM-GM
        assert float(np.linalg.norm(g, axis=(-4, -3)).min()) >= math.sqrt(2.0 * (1.0 - dev)) - 1e-12

    def test_nan_abort_locates_slice(self, grid, age_grid):
        h = init_history(identity_stack(age_grid.n_nodes, N), grid, age_grid)  # every row live
        h.slice(5)[0, 0, 0] = np.nan  # psi_1's mean mode: NaN over the whole fields of row 1
        u0 = np.zeros((3, 2, N, N))  # the jet of the fluid at rest
        with pytest.raises(HistoryNaNError, match="step 1, age slice 6$"):  # its age after the shift
            stretch_advect_step(h, u0, u0)


class TestReactRhs:
    @staticmethod
    def reference(grid, g, jet):
        """G . grad u - div(u G), one band transform per product."""
        u, grad_u = jet[0], jet[1:]
        return (grid.band(np.einsum("cjlyx,lkyx->cjkyx", g, grad_u))
                - grid.d1_band * grid.band(g * u[0]) - grid.d2_band * grid.band(g * u[1]))

    @staticmethod
    def velocities(grid, n):
        return [FlowState(grid, velocity, eta=0.1).jet
                for velocity in (taylor_green(grid, 0.7), random_band_limited_velocity(grid, seed=n, band=6))]

    @pytest.mark.parametrize("n", [32, 64])
    def test_reads_g_and_matches_band_of_each_product(self, n):
        # rows that are divergence-free, as a history's are: the curl of the potentials' right-hand side is
        # the product form, and the means do not change (mean mode 0.0)
        grid, rows = SpectralGrid(n), 3
        g = divergence_free_rows(grid, np.random.default_rng(n), rows, 0.1)
        work, out = ChunkWorkspace(rows, n), np.empty((rows, 2, *grid.band_shape), dtype=complex)
        for jet in self.velocities(grid, n):
            before = g.copy()
            transport._react_rhs_hat(grid, g, jet, work, out)
            assert g.tobytes() == before.tobytes()
            assert out[:, :, 0, 0].tobytes() == np.zeros((rows, 2), dtype=complex).tobytes()
            expected = self.reference(grid, g, jet)
            np.testing.assert_allclose(spectra(grid, out), expected, rtol=0, atol=1e-14 * np.abs(expected).max())

    def test_rows_stay_divergence_free(self):
        # a history from rest stepped 60 times by an evolving random-band flow: each row keeps the identity's
        # mean bit for bit, and k . G_j stays at roundoff while the fields move
        n = 64
        grid = SpectralGrid(n)
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-2)
        assert ag.n_nodes > 60
        h = init_history("identity", grid, ag)
        means = set_identity(np.empty_like(h.payload[0]), n)[:, 0, 0]
        st = FlowState(grid, random_band_limited_velocity(grid, seed=7, band=8, amplitude=0.5), eta=0.01)
        for _ in range(60):
            u_old, u_old_psi = st.jet, st.psi_hat
            advance_flow(st, None, ag.ds, 0.5)
            stretch_advect_step(h, u_old, st.jet, u_old_psi=u_old_psi)
            assert h.payload[: h.live, :, 0, 0].tobytes() == np.tile(means, (h.live, 1)).tobytes()
            assert float(np.abs(row_divergence(grid, spectra(grid, h.payload[: h.live]))).max()) <= 1e-14 * n * n
        assert float(np.abs(grid.field(spectra(grid, h.payload[: h.live])) - identity_stack(h.live, n)).max()) > 0.1


class TestIdentityRow:
    """The age-1 row, when it is the identity, takes its first Heun stage in closed form."""

    @pytest.mark.parametrize("n", [32, 64])
    def test_closed_form_matches_transforms(self, n):
        # one identity row stepped by the closed form and by the transforms, with distinct velocities
        # at the two stages: the same new band spectrum and field to roundoff
        grid, dt = SpectralGrid(n), 0.05
        old, new = (FlowState(grid, random_band_limited_velocity(grid, seed=seed, band=6), eta=0.1)
                    for seed in (n, n + 1))
        eye_hat = np.empty((1, 2, *grid.band_shape), dtype=complex)
        set_identity(eye_hat[0], n)
        fast_hat, fast = transport._step_identity(grid, eye_hat, ChunkWorkspace(1, n), old.jet, new.jet, old.psi_hat, dt)
        full_hat, full = transport._step_chunk(grid, eye_hat, ChunkWorkspace(1, n), old.jet, new.jet, dt)
        assert is_identity(eye_hat[0], n)  # left intact
        assert np.abs(full - identity_stack(1, n)).max() > 1e-3
        for closed, transformed in ((fast_hat, full_hat), (fast, full)):
            np.testing.assert_allclose(closed, transformed, rtol=0, atol=1e-14 * np.abs(transformed).max())

    def test_step_matches_transformed_path(self, grid):
        # with the velocity's stream function the age-1 row skips its first stage's transforms; the rows agree to roundoff
        ag = build_age_grid(single_exponential_kernel(), 0.1, 1e-2)
        fast, slow = init_history("identity", grid, ag), init_history("identity", grid, ag)
        st = FlowState(grid, random_band_limited_velocity(grid, seed=4, band=5), eta=0.1)
        for _ in range(ag.n_nodes + 2):
            u_old, u_old_psi = st.jet, st.psi_hat
            advance_flow(st, None, ag.ds, 0.5)
            stretch_advect_step(fast, u_old, st.jet, u_old_psi=u_old_psi)
            stretch_advect_step(slow, u_old, st.jet)
            np.testing.assert_allclose(by_age(fast), by_age(slow), rtol=0, atol=1e-13 * N * N)
        assert by_age(fast).tobytes() != by_age(slow).tobytes()


class TestAllocation:
    def test_step_allocates_little_beyond_the_workspace(self, grid):
        # every transform writes into the chunk workspace; what is left is the
        # strain measure's temporaries and per-step data
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-2)
        h = init_history("identity", grid, ag)
        _, measure = model_catalog("psm-raw")
        u = FlowState(grid, taylor_green(grid), 0.1).jet
        chunk_bytes = chunk_slices(N) * 4 * N * N * 8
        assert h.n_slices > chunk_slices(N) and h.workspace.g.nbytes == chunk_bytes
        stretch_advect_step(h, u, 0.9 * u, StackReduction(h, measure))  # warm-up
        tracemalloc.start()
        try:
            stretch_advect_step(h, u, 0.9 * u, StackReduction(h, measure))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * chunk_bytes

    def test_workspace_size_reported(self):
        for n in (16, 32, 128, 256):
            work = ChunkWorkspace(10**4, n)
            assert ChunkWorkspace.nbytes_for(n) == sum(
                a.nbytes for a in (work.g, work.prod, work.rows, work.rhs, work.spec))
