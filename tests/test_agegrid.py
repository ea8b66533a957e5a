import math

import numpy as np
import pytest

from memflow.agegrid import HistoryTooLongError, KahanSum, build_age_grid, quadrate
from memflow.constitutive import reptation_mode_kernel, single_exponential_kernel


def test_grid_from_tail_tolerance():
    grid = build_age_grid(single_exponential_kernel(), 0.05, 1e-8)
    assert math.isclose(grid.s_max, 18.45, rel_tol=1e-12)
    assert grid.n_nodes == 370
    assert grid.ds == 0.05
    assert grid.tail_error <= 1e-8 * (1 + 1e-12)


def test_grid_trivial_tail():
    grid = build_age_grid(single_exponential_kernel(), 0.1, math.exp(-1.0))
    assert math.isclose(grid.s_max, 1.0, rel_tol=1e-12)
    assert grid.n_nodes == 11


def test_zero_tail_impossible():
    with pytest.raises(ValueError):
        build_age_grid(single_exponential_kernel(), 0.1, 0.0)


def test_memory_cap_reports_required_nodes():
    with pytest.raises(HistoryTooLongError) as err:
        build_age_grid(single_exponential_kernel(), 0.001, 1e-8, max_nodes=1000)
    assert err.value.required_nodes == 18422
    assert "history too long" in str(err.value)


def test_kernel_mass_within_bounds():
    for kernel in (single_exponential_kernel(), reptation_mode_kernel()):
        grid = build_age_grid(kernel, 0.02, 1e-7)
        total = float(np.sum(grid.node_mass))
        assert 1.0 - grid.tail_error - grid.quad_tol <= total <= 1.0 + grid.quad_tol


def test_quadrate_constant_honest_tail():
    grid = build_age_grid(single_exponential_kernel(), 0.01, 1e-9)
    val = quadrate(grid, np.ones(grid.n_nodes))
    assert abs(val - (1.0 - grid.tail_error)) <= grid.quad_tol


def test_quadrate_first_and_second_moments():
    # integrals of s exp(-s) and s^2 exp(-s) over the half line
    grid = build_age_grid(single_exponential_kernel(), 0.002, 1e-10)
    assert abs(quadrate(grid, grid.nodes) - 1.0) < 5e-7
    assert abs(quadrate(grid, grid.nodes**2) - 2.0) < 5e-7


def test_quadrate_shape_checks():
    grid = build_age_grid(single_exponential_kernel(), 0.05, 1e-6)
    with pytest.raises(ValueError):
        quadrate(grid, np.ones(grid.n_nodes - 1))


def test_quadrate_tensor_samples():
    grid = build_age_grid(single_exponential_kernel(), 0.01, 1e-9)
    samples = np.zeros((grid.n_nodes, 2, 2))
    samples[:, 0, 0] = grid.nodes
    samples[:, 1, 1] = 1.0
    given = samples.copy()
    out = quadrate(grid, samples)
    assert samples.tobytes() == given.tobytes()  # the caller's samples stay as they were
    assert abs(out[0, 0] - 1.0) < 1e-5
    assert abs(out[1, 1] - (1.0 - grid.tail_error)) <= grid.quad_tol
    assert out[0, 1] == 0.0


def test_trapezoid_second_order_convergence():
    # fixed S_max, refine ds: error on a smooth integrand drops ~4x per halving
    kernel = single_exponential_kernel()
    target = 1.0 - 5.0 * math.exp(-4.0)  # integral of s e^{-s} over [0, 4]

    def error(ds):
        n = round(4.0 / ds) + 1
        nodes = ds * np.arange(n)
        w = np.full(n, ds)
        w[0] = w[-1] = ds / 2
        val = float(np.sum(w * kernel.density(nodes) * nodes))
        return abs(val - target)

    e1, e2, e3 = error(0.2), error(0.1), error(0.05)
    assert e1 / e2 >= 3.5
    assert e2 / e3 >= 3.5


def test_singular_kernel_node_mass_lumped():
    kernel = reptation_mode_kernel()
    grid = build_age_grid(kernel, 0.05, 1e-6)
    # node 0 carries the exact near-origin mass instead of a density sample
    assert math.isclose(grid.node_mass[0], kernel.interval_mass(0.0, 0.025), rel_tol=1e-14)
    val = quadrate(grid, np.ones(grid.n_nodes))
    assert abs(val - (1.0 - grid.tail_error)) <= grid.quad_tol


def test_kahan_sum_chunked_matches_reference_loop():
    rng = np.random.default_rng(7)
    coeffs, samples = rng.random(50), rng.standard_normal((50, 3, 4))
    total, comp = np.zeros((3, 4)), np.zeros((3, 4))
    for c, f in zip(coeffs, samples):  # textbook compensated summation
        y = c * f - comp
        t = total + y
        comp = (t - total) - y
        total = t
    chunked = KahanSum((3, 4))
    for lo in range(0, 50, 7):
        chunked.add(coeffs[lo : lo + 7], samples[lo : lo + 7])
    np.testing.assert_array_equal(chunked.total, total)


def test_kahan_sum_scalar_path_matches_array_path():
    rng = np.random.default_rng(8)
    coeffs, samples = rng.random(60), rng.standard_normal(60) * 10.0 ** rng.integers(-8, 8, 60)
    scalar, vector = KahanSum(), KahanSum((1,))
    for lo in range(0, 60, 7):
        scalar.add(coeffs[lo : lo + 7], list(samples[lo : lo + 7]))
        vector.add(coeffs[lo : lo + 7], samples[lo : lo + 7, None])
    assert scalar.total.shape == () and float(scalar.total) == float(vector.total[0])



@pytest.mark.parametrize("shape", [(), (7,), (2, 3, 4)])
def test_kahan_sum_three_buffers_match_four_buffer_reference(shape):
    # y is formed in the sample, t goes into the compensation's buffer and the new compensation into the old
    # total's: the five operations of the four-buffer loop below, on the same operands in the same order, so
    # the same bits; the terms mix signed zeros, subnormals and values near overflow into magnitudes from
    # 1e-300 to 1e300
    rng = np.random.default_rng(12)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 4e307, -4e307, 1.0]
    samples = rng.standard_normal((60, *shape)) * 10.0 ** rng.integers(-300, 300, (60, *shape))
    samples = np.where(rng.random(samples.shape) < 0.5, rng.choice(special, samples.shape), samples)
    coeffs = rng.choice([1.0, 0.5, 0.25, 1e-3, 2.0 ** -1074], 60)
    total, t, comp, y = np.zeros(shape), np.empty(shape), np.zeros(shape), np.empty(shape)
    kahan = KahanSum(shape)
    assert sum(isinstance(v, np.ndarray) for v in vars(kahan).values()) == 2  # the third buffer is the sample's
    for lo in range(0, 60, 7):
        for c, f in zip(coeffs[lo : lo + 7], samples[lo : lo + 7]):  # the textbook update, four buffers
            np.multiply(f, c, out=y)
            y -= comp
            np.add(total, y, out=t)
            np.subtract(t, total, out=comp)
            comp -= y
            total, t = t, total
        kahan.add(coeffs[lo : lo + 7], samples[lo : lo + 7])
        assert kahan.total.tobytes() == total.tobytes() and kahan._comp.tobytes() == comp.tobytes()
    assert np.isfinite(total).all() and (np.abs(total) > 1e300).any()


@pytest.mark.parametrize("first", [0.0, -0.0, math.inf, -math.inf, math.nan, -1.5e-310])
@np.errstate(invalid="ignore")  # inf - inf
def test_kahan_sum_first_term_matches_textbook_bits(first):
    # every term, the first of an empty sum too, takes the five operations of the textbook update: same bits,
    # also when the first is a constant sample at one point, broadcast into the sum
    coeffs, samples = [0.5, 0.25, 3.0], [first, -0.0, 1e-17]
    total, comp, steps = np.zeros(()), np.zeros(()), []
    for c, f in zip(coeffs, samples):  # textbook compensated summation, every operation done
        y = c * np.float64(f) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        steps.append((total.tobytes(), comp.tobytes()))
    for shape, first_shape in (((), ()), ((3,), (3,)), ((3,), (1,)), ((2, 3), (2, 1))):
        kahan = KahanSum(shape)
        for k, ((c, f), (total_bits, comp_bits)) in enumerate(zip(zip(coeffs, samples), steps)):
            kahan.add([c], [np.full(first_shape if k == 0 else shape, f)])
            for got, bits in ((kahan.total, total_bits), (kahan._comp, comp_bits)):
                assert np.asarray(got).tobytes() == bits * math.prod(shape)
