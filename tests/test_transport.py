import math
import tracemalloc
import warnings

import numpy as np
import pytest

from memflow.agegrid import build_age_grid
from memflow.constitutive import model_catalog, single_exponential_kernel
from memflow.spectral import SpectralGrid, taylor_green
from memflow.stepper import FlowState, advance_flow
from memflow.stress import StackReduction
from memflow.transport import (
    ChunkWorkspace,
    DegenerateHistoryError,
    HistoryNaNError,
    age_shift,
    chunk_slices,
    det_field,
    identity_stack,
    init_history,
    norm_field,
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
    """The stored identity: the mean mode N^2 of both diagonal components."""
    eye = np.zeros_like(history.payload)
    eye[:, 0, 0, 0, 0] = eye[:, 1, 1, 0, 0] = N * N
    return eye


def fields(history):
    """Physical fields of the stored stack, in physical row order."""
    return history.grid.inv(history.payload, out=np.empty((history.n_slices, 2, 2, N, N)))


def with_slice(grid, age_grid, j, value, mu=1.0):
    """An explicit identity history whose age-j slice is ``value``."""
    stack = identity_stack(age_grid.n_nodes, N)
    stack[j] = value
    return init_history(stack, grid, age_grid, mu=mu)


class TestInit:
    def test_identity_spec(self, grid, age_grid):
        h = init_history("identity", grid, age_grid)
        assert float(det_field(fields(h)).min()) == 1.0
        np.testing.assert_array_equal(h.payload, identity_band(h))
        np.testing.assert_array_equal(fields(h), identity_like(h))

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
        rng = np.random.default_rng(12)
        stack = identity_like(init_history("identity", grid, age_grid))
        noise = rng.standard_normal((age_grid.n_nodes - 1, 2, 2, N, N))
        stack[1:] += 0.1 * grid.inv(grid.band(noise), out=noise)  # band-limited
        h = init_history(stack, grid, age_grid, mu=0.1)
        np.testing.assert_allclose(fields(h), stack, rtol=0, atol=1e-14)

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
        np.testing.assert_array_equal(h.payload, identity_band(h))

    def test_marker_transport(self, grid, age_grid):
        marker = np.array([[1.0, 0.4], [0.1, 1.2]])
        h = with_slice(grid, age_grid, 3, marker[:, :, None, None])
        moved = h.slice(3).copy()
        age_shift(h)
        np.testing.assert_array_equal(h.slice(4), moved)
        marker_field = marker[:, :, None, None] * np.ones((2, 2, N, N))
        np.testing.assert_allclose(fields(h)[(h.head + 4) % h.n_slices], marker_field, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(h.slice(0), identity_band(h)[0])

    def test_oldest_slice_dropped(self, grid, age_grid):
        last = age_grid.n_nodes - 1
        h = with_slice(grid, age_grid, last, 7.0 * np.eye(2)[:, :, None, None])
        age_shift(h)
        assert float(np.abs(h.payload - identity_band(h)).max()) == 0.0


class TestStep:
    def test_zero_velocity_leaves_slices(self, grid, age_grid):
        marker = np.array([[1.0, 0.3], [0.0, 1.0]])
        h = with_slice(grid, age_grid, 2, marker[:, :, None, None])
        moved = h.slice(2).copy()
        u0 = np.zeros((3, 2, N, N))  # the jet of the fluid at rest
        stretch_advect_step(h, u0, u0, age_grid.ds)
        # pure shift: marker moved, values untouched
        np.testing.assert_array_equal(h.slice(3), moved)

    def test_finite_memory_flush(self, grid):
        ag = build_age_grid(single_exponential_kernel(), 0.1, 5e-2)
        h = with_slice(grid, ag, 1, np.array([[2.0, 0.5], [0.3, 1.5]])[:, :, None, None])
        u0 = np.zeros((3, 2, N, N))  # the jet of the fluid at rest
        for _ in range(h.n_slices):
            stretch_advect_step(h, u0, u0, ag.ds)
        np.testing.assert_array_equal(h.payload, identity_band(h))

    def test_age_zero_boundary_after_step(self, grid, age_grid):
        h = init_history("identity", grid, age_grid)
        st = FlowState(grid, taylor_green(grid), eta=0.1)
        stretch_advect_step(h, st.jet, st.jet, age_grid.ds)
        np.testing.assert_array_equal(h.slice(0), identity_band(h)[0])
        assert h.generation == 1

    def test_determinant_transport_taylor_green(self, grid):
        # det G is conserved along characteristics for divergence-free u
        ag = build_age_grid(single_exponential_kernel(), 0.05, 1e-4)
        h = init_history("identity", grid, ag)
        st = FlowState(grid, taylor_green(grid), eta=0.1)
        tau = None
        for _ in range(10):
            u_old = st.jet
            advance_flow(st, tau, ag.ds, 0.5)
            stretch_advect_step(h, u_old, st.jet, ag.ds)
        g = fields(h)
        dev = float(np.abs(det_field(g) - 1.0).max())
        assert dev < 1e-3
        # norm lower bound follows from the determinant by AM-GM
        assert float(norm_field(g).min()) >= math.sqrt(2.0 * (1.0 - dev)) - 1e-12

    def test_nan_abort_locates_slice(self, grid, age_grid):
        h = init_history("identity", grid, age_grid)
        h.slice(5)[0, 0, 0, 0] = np.nan  # the mean mode: NaN over the whole component field
        u0 = np.zeros((3, 2, N, N))  # the jet of the fluid at rest
        with pytest.raises(HistoryNaNError, match="slice"):
            stretch_advect_step(h, u0, u0, age_grid.ds)


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
        stretch_advect_step(h, u, 0.9 * u, ag.ds, StackReduction(h, measure))  # warm-up
        tracemalloc.start()
        try:
            stretch_advect_step(h, u, 0.9 * u, ag.ds, StackReduction(h, measure))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * chunk_bytes

    def test_workspace_size_reported(self):
        for n in (16, 32, 128, 256):
            work = ChunkWorkspace(10**4, n)
            assert ChunkWorkspace.nbytes_for(n) == sum(
                a.nbytes for a in (work.g, work.prod, work.rows, work.rhs, work.spec, work.flux))
