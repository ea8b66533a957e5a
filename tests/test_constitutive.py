import math

import numpy as np
import pytest

from memflow.constitutive import (
    CATALOG,
    INI_MODELS,
    MemoryKernel,
    SingularOriginError,
    WAGNER_RAW_H_SUP,
    WAGNER_RAW_HP_SUP,
    model_catalog,
    reptation_mode_kernel,
    single_exponential_kernel,
    symmetric_tensor,
    verify_h1,
    verify_h2,
)

I2 = np.eye(2)


class TestMemoryKernels:
    def test_single_exponential_values(self):
        k = single_exponential_kernel()
        assert k.density(0.0) == 1.0
        assert math.isclose(k.density(math.log(2.0)), 0.5, rel_tol=1e-15)

    def test_two_mode_density(self):
        k = MemoryKernel("multi-mode", [1.0, 2.0], [0.5, 0.5])
        assert math.isclose(k.density(0.0), 0.75, rel_tol=1e-15)
        assert math.isclose(k.interval_mass(0.0, math.inf), 1.0, rel_tol=1e-15)

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            single_exponential_kernel().density(-0.1)

    def test_singular_origin_signal(self):
        k = reptation_mode_kernel()
        with pytest.raises(SingularOriginError):
            k.density(0.0)
        assert k.density(1e-9) > 0

    def test_exponential_tail(self):
        k = single_exponential_kernel()
        s_max = 7.3
        assert math.isclose(k.interval_mass(s_max, math.inf), math.exp(-s_max), rel_tol=1e-14)

    def test_interval_mass_additive(self):
        k = MemoryKernel("multi-mode", [0.5, 1.0, 3.0], [0.2, 0.5, 0.3])
        a, b, c = 0.3, 1.7, 9.0
        lhs = k.interval_mass(a, b) + k.interval_mass(b, c)
        assert math.isclose(lhs, k.interval_mass(a, c), rel_tol=1e-14, abs_tol=1e-14)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            single_exponential_kernel().interval_mass(2.0, 1.0)

    def test_weights_normalized(self):
        k = MemoryKernel("multi-mode", [1.0, 1.0], [2.0, 2.0])
        assert math.isclose(k.weights.sum(), 1.0, rel_tol=1e-15)

    def test_nonpositive_relaxation_time_rejected(self):
        with pytest.raises(ValueError):
            single_exponential_kernel(-1.0)
        with pytest.raises(ValueError):
            model_catalog("psm-raw", lam=0.0)


class TestStrainMeasures:
    def test_oldroyd_rest_state(self):
        _, m = model_catalog("oldroyd-b")
        np.testing.assert_allclose(m.stress(I2), np.zeros((2, 2)), atol=1e-15)
        assert not m.h2_satisfied

    def test_psm_raw_at_identity(self):
        _, m = model_catalog("psm-raw")
        np.testing.assert_allclose(m.stress(I2), I2 / 3.0, rtol=1e-15)

    def test_wagner_raw_at_identity(self):
        _, m = model_catalog("wagner-raw")
        np.testing.assert_allclose(m.stress(I2), math.exp(-math.sqrt(2.0)) * I2, rtol=1e-15)

    def test_normalized_variants_rest_state(self):
        for name in ("psm-normalized", "wagner-normalized"):
            _, m = model_catalog(name)
            np.testing.assert_allclose(m.stress(I2), I2, rtol=1e-12)

    def test_derivative_linear_in_direction(self):
        _, m = model_catalog("psm-raw")
        g = np.array([[1.2, 0.3], [-0.4, 0.9]])
        np.testing.assert_allclose(m.directional_derivative(g, np.zeros((2, 2))), np.zeros((2, 2)), atol=1e-15)

    def test_oldroyd_derivative_at_identity(self):
        _, m = model_catalog("oldroyd-b")
        np.testing.assert_allclose(m.directional_derivative(I2, I2), 2.0 * I2, rtol=1e-15)

    @pytest.mark.parametrize("name", ["psm-raw", "wagner-raw", "oldroyd-b", "psm-normalized", "wagner-normalized"])
    def test_derivative_matches_finite_differences(self, name):
        _, m = model_catalog(name)
        rng = np.random.default_rng(42)
        eps = 1e-5
        for _ in range(200):
            g = rng.standard_normal((2, 2)) * rng.lognormal(0, 1)
            h = rng.standard_normal((2, 2))
            fd = (m.stress(g + eps * h) - m.stress(g - eps * h)) / (2 * eps)
            an = m.directional_derivative(g, h)
            scale = max(float(np.abs(an).max()), 1e-8)
            assert np.abs(fd - an).max() / scale < 1e-6

    def test_frame_indifference(self):
        rng = np.random.default_rng(3)
        _, m = model_catalog("wagner-raw")
        for _ in range(50):
            theta = rng.uniform(0, 2 * math.pi)
            qrot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
            g = rng.standard_normal((2, 2))
            np.testing.assert_allclose(m.stress(qrot @ g), m.stress(g), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("name", INI_MODELS)
    def test_derivative_broadcasts_over_stacks(self, name):
        # a stack of k matrices gives the bits of k single calls (g.T and a full np.sum once mixed the stack)
        _, m = model_catalog(name)
        rng = np.random.default_rng(12)
        g = rng.standard_normal((6, 2, 2)) * rng.lognormal(0, 2, (6, 1, 1))
        h = rng.standard_normal((6, 2, 2))
        stack = m.directional_derivative(g, h)
        assert stack.shape == (6, 2, 2)
        for k in range(6):
            assert stack[k].tobytes() == m.directional_derivative(g[k], h[k]).tobytes()

    def test_stress_stack_matches_scalar_path(self):
        _, m = model_catalog("psm-raw")
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((5, 2, 2, 3, 3))
        out = symmetric_tensor(m.stress_stack(stack))
        for s in range(5):
            for y in range(3):
                for x in range(3):
                    np.testing.assert_allclose(out[s, :, :, y, x], m.stress(stack[s, :, :, y, x]), rtol=1e-13)

    def test_stress_stack_into_buffer(self):
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((4, 2, 2, 3, 3))
        for name in ("psm-raw", "oldroyd-b"):
            _, m = model_catalog(name)
            buf = np.empty((4, 3, 3, 3))
            assert m.stress_stack(stack, out=buf) is buf
            np.testing.assert_array_equal(buf, m.stress_stack(stack))

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_stress_stack_is_the_bits_of_the_tensor_einsum(self, name):
        # the three components S11, S12 and S22 have the bits of one einsum over the 2 x 2 tensor
        params = {"h": lambda x: 1.0 / (1.0 + x), "hp": lambda x: -1.0 / (1.0 + x) ** 2} if name == "kbkz-custom" else {}
        _, m = model_catalog(name, **params)
        rng = np.random.default_rng(10)
        for shape in ((48, 2, 2, 32, 32), (3, 2, 2, 1, 1), (2, 2, 16, 16)):
            g = 3.0 * rng.standard_normal(shape)
            tensor = np.einsum("...liyx,...ljyx->...ijyx", g, g)
            tensor *= m.h(np.einsum("...ijyx,...ijyx->...yx", g, g))[..., None, None, :, :]
            if m.iso_offset != 0.0:
                tensor[..., 0, 0, :, :] += m.iso_offset
                tensor[..., 1, 1, :, :] += m.iso_offset
            out = m.stress_stack(g)
            assert out.shape == shape[:-4] + (3,) + shape[-2:]
            for c, (j, k) in enumerate(((0, 0), (0, 1), (1, 1))):
                assert out[..., c, :, :].tobytes() == tensor[..., j, k, :, :].tobytes(), (shape, j, k)
            assert symmetric_tensor(out).tobytes() == tensor.tobytes()  # tau_21 is tau_12 bit for bit


class TestAssumptionChecks:
    def test_h1_catalog_kernels_pass(self):
        assert verify_h1(single_exponential_kernel()).passed
        assert verify_h1(reptation_mode_kernel()).passed

    def test_h1_increasing_kernel_fails_on_decreasing(self):
        class Rogue:
            max_relaxation_time = 1.0
            singular = False

            def density(self, s):
                return 0.1 + np.minimum(np.asarray(s, dtype=float), 1.0)

            def interval_mass(self, a, b):
                return 1.0 if math.isinf(b) else 0.0

        rep = verify_h1(Rogue())
        assert not rep.decreasing
        assert not rep.passed

    def test_h2_psm_raw_supremum(self):
        _, m = model_catalog("psm-raw")
        rep = verify_h2(m)
        assert rep.passed
        # both rise to 1 as x grows; the grid stops at 1e8, where they read 1 - 1e-8
        assert math.isclose(rep.h_sup, 1.0, rel_tol=1e-7)
        assert math.isclose(rep.hp_sup, 1.0, rel_tol=1e-7)

    def test_h2_wagner_raw_suprema(self):
        _, m = model_catalog("wagner-raw")
        rep = verify_h2(m)
        assert rep.passed
        assert math.isclose(rep.h_sup, 4.0 * math.exp(-2.0), rel_tol=1e-12)  # interior maxima, at x = 4 and 9
        assert math.isclose(rep.hp_sup, 13.5 * math.exp(-3.0), rel_tol=1e-12)
        assert math.isclose(WAGNER_RAW_H_SUP, 4.0 * math.exp(-2.0))
        assert math.isclose(WAGNER_RAW_HP_SUP, 13.5 * math.exp(-3.0))

    def test_h2_oldroyd_fails(self):
        _, m = model_catalog("oldroyd-b")
        rep = verify_h2(m)
        assert not rep.passed
        assert rep.s_sup_est > 1e3  # grows with the sampled deformation range


class TestCatalog:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            model_catalog("maxwell-upper")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            model_catalog("psm-raw", gamma=2.0)

    def test_psm_normalized_needs_alpha_above_two(self):
        with pytest.raises(ValueError):
            model_catalog("psm-normalized", alpha=2.0)

    def test_custom_damping_bounded(self):
        _, m = model_catalog("kbkz-custom", h=lambda x: 1.0 / (1.0 + x**2))
        assert m.h2_satisfied
        rep = verify_h2(m)
        assert math.isclose(rep.h_sup, 0.5, rel_tol=1e-12)  # x/(1+x^2) peaks at x=1

    def test_custom_damping_unbounded(self):
        _, m = model_catalog("kbkz-custom", h=lambda x: np.ones_like(np.asarray(x, dtype=float)))
        assert not m.h2_satisfied

    def test_custom_derivative_validated(self):
        with pytest.raises(ValueError):
            model_catalog(
                "kbkz-custom",
                h=lambda x: 1.0 / (1.0 + x),
                hp=lambda x: np.ones_like(np.asarray(x, dtype=float)),  # wrong on purpose
            )

    def test_doi_edwards_pair(self):
        kernel, measure = model_catalog("doi-edwards")
        assert kernel.singular
        assert measure.h2_satisfied
        # odd modes only, weights proportional to 1/p^2
        p = np.sqrt(kernel.relaxation_times.max() / kernel.relaxation_times)
        np.testing.assert_allclose(p, np.round(p), atol=1e-10)

    def test_oldroyd_scaling_matches_modulus(self):
        # steady shear checks tau12 = mu_p * rate for general lam, mu_p
        from memflow.diagnostics import steady_shear_stress

        kernel, measure = model_catalog("oldroyd-b", lam=0.7, mu_p=2.3)
        tau = steady_shear_stress(measure, kernel, 1.5)
        assert math.isclose(tau[0, 1], 2.3 * 1.5, rel_tol=1e-9)
        assert math.isclose(tau[0, 0], 2.0 * 2.3 * 0.7 * 1.5**2, rel_tol=1e-9)
        assert abs(tau[1, 1]) < 1e-10
