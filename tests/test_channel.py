import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmv import channel
from airmv.channel import PdpConfig, complex_normal, pdp, sample_channel, superpose
from airmv.huffman import RadiusParam, poly_eval, synthesize_coeffs


class TestPdp:
    def test_single_tap(self):
        np.testing.assert_allclose(pdp(1, 0.3), [1.0])

    def test_uniform_branch(self):
        np.testing.assert_allclose(pdp(5, 1.0), np.full(5, 0.2))

    def test_exponential_branch(self):
        np.testing.assert_allclose(pdp(2, 0.5), [2 / 3, 1 / 3], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_sums_to_one(self, L_e, rho):
        taps = pdp(L_e, rho)
        assert taps.sum() == pytest.approx(1.0, abs=1e-12)
        assert (taps > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            pdp(0, 0.5)
        with pytest.raises(ValueError):
            pdp(3, 0.0)
        with pytest.raises(ValueError):
            pdp(3, 1.5)


class TestComplexNormal:
    """The in-place build keeps the values and draws of scale * (a + 1j b)."""

    @pytest.mark.parametrize(
        "shape, scale",
        [
            ((20_000, 32), 0.3),
            ((5_000, 5), np.sqrt(np.array([0.4, 0.25, 0.2, 0.1, 0.05]) / 2)),
            ((7, 3, 4), np.array([[1.5], [0.0], [2.0]])),
            ((), 0.7),
        ],
    )
    def test_bitwise_equal_to_the_expression(self, shape, scale):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = complex_normal(shape, scale, rng)
        expected = scale * (
            ref_rng.standard_normal(shape) + 1j * ref_rng.standard_normal(shape)
        )
        assert got.shape == expected.shape and got.dtype == complex
        np.testing.assert_array_equal(got, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


    @staticmethod
    def one_buffer(shape, scale, seed):
        """The draw through one full-size float buffer: every real part,
        then every imaginary part, scaled into the result."""
        rng = np.random.default_rng(seed)
        out = np.empty(shape, dtype=complex)
        buf = rng.standard_normal(out.shape)
        np.multiply(scale, buf, out=out.real)
        rng.standard_normal(out=buf)
        np.multiply(scale, buf, out=out.imag)
        return out, rng

    def test_bounded_scratch_is_the_one_buffer_draw(self, monkeypatch):
        """Through its bounded scratch the draw is bitwise the one-buffer
        draw, and leaves the rng in the same state: a scalar, a per-tap
        (L_e,) and a per-cell scale, at sizes below, at and across the
        scratch (one row or one cell short of a block, a whole block, one
        more, several blocks and a remainder), with no rows at all (an
        empty result and no draw), and with a tiny scratch that a single
        row outgrows."""
        S = channel._SCRATCH
        taps = np.sqrt(np.array([0.4, 0.25, 0.2, 0.1, 0.05]) / 2)
        step = S // taps.size
        cases = []
        for cells in (S - 1, S, S + 1, 3 * S + 7):
            cases.append(((cells,), 0.7))
            cases.append(((cells,), np.random.default_rng(cells).random(cells)))
        for rows in (step - 1, step, step + 1, 3 * step + 2):
            cases.append(((rows, taps.size), taps))
            cases.append(((rows, taps.size), np.random.default_rng(rows).random((rows, 5))))
        cases += [((0,), 0.7), ((0, 3), 0.7), ((0, taps.size), taps)]
        for seed, (shape, scale) in enumerate(cases):
            got = complex_normal(shape, scale, rng := np.random.default_rng(seed))
            expected, ref = self.one_buffer(shape, scale, seed)
            np.testing.assert_array_equal(got, expected)
            assert rng.bit_generator.state == ref.bit_generator.state
        taps = sample_channel(PdpConfig(2), 3, rng := np.random.default_rng(3), trials=0)
        assert taps.shape == (0, 3, 2)
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
        monkeypatch.setattr(channel, "_SCRATCH", 7)
        for shape, scale in (((9, 3, 4), np.array([[1.5], [0.0], [2.0]])),
                             ((10, 2), 0.3), ((5,), np.arange(5.0)), ((), 0.7)):
            got = complex_normal(shape, scale, rng := np.random.default_rng(4))
            expected, ref = self.one_buffer(shape, scale, 4)
            np.testing.assert_array_equal(got, expected)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_holds_only_its_result_and_the_scratch(self):
        """A draw of many blocks peaks at its result and one scratch, not
        a full-size float buffer beside the result."""
        shape = (100_000, 5)
        scale = np.sqrt(np.array([0.4, 0.25, 0.2, 0.1, 0.05]) / 2)
        complex_normal(shape, scale, np.random.default_rng(0))  # first-call setup
        tracemalloc.start()
        try:
            complex_normal(shape, scale, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The result, the scratch and numpy's 64 KB ufunc buffer into the
        # strided real and imaginary parts.
        result = 16 * 100_000 * 5
        assert peak <= result + 8 * channel._SCRATCH + 100_000


class TestSampleChannel:
    def test_unit_mean_energy(self):
        cfg = PdpConfig(1)
        rng = np.random.default_rng(0)
        h = sample_channel(cfg, 1, rng, trials=100_000)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_per_tap_variance(self):
        cfg = PdpConfig(3, 0.5)
        rng = np.random.default_rng(1)
        h = sample_channel(cfg, 2, rng, trials=200_000)
        emp = np.mean(np.abs(h) ** 2, axis=(0, 1))
        np.testing.assert_allclose(emp, cfg.taps, rtol=0.02)

    def test_seed_replay(self):
        cfg = PdpConfig(4, 0.9)
        a = sample_channel(cfg, 3, np.random.default_rng(42))
        b = sample_channel(cfg, 3, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestSuperpose:
    def test_identity_channel(self):
        c = np.array([[1.0 + 1j, 2.0, 3.0]])
        y = superpose(c, [[1.0]], 0.0)
        np.testing.assert_allclose(y, [1.0 + 1j, 2.0, 3.0])

    def test_pure_delay(self):
        c = np.array([[1.0, 2.0, 3.0]])
        y = superpose(c, [[0.0, 1.0]], 0.0)
        np.testing.assert_allclose(y, [0.0, 1.0, 2.0, 3.0])

    def test_example_sum(self):
        rp = RadiusParam(2, 2.0)
        c = synthesize_coeffs([[True, False], [False, True]], rp)
        y = superpose(c, [[1.0], [1.0]], 0.0)
        scale = 2 * np.sqrt(12 / 17)
        np.testing.assert_allclose(y, scale * np.array([-1.0, 0.0, 1.0]), atol=1e-12)
        assert abs(poly_eval(y, 1.0)) < 1e-12
        assert abs(poly_eval(y, -1.0)) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        total = superpose(c, h, 0.0)
        parts = sum(
            superpose(c[u : u + 1], h[u : u + 1], 0.0) for u in range(3)
        )
        np.testing.assert_allclose(total, parts, atol=1e-12)

    def test_zero_set_preserved_flat_channel(self):
        rng = np.random.default_rng(9)
        from airmv.huffman import radius_param, root_phases

        rp = radius_param(8)
        inner = rng.integers(0, 2, 8).astype(bool)
        c = synthesize_coeffs(inner, rp)
        h = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        y = superpose(c[None, :], h, 0.0)
        zeros = np.where(inner, 1 / rp.d, rp.d) * root_phases(8)
        assert np.abs(poly_eval(y, zeros)).max() < 1e-8

    def test_received_length_and_energy(self):
        rng = np.random.default_rng(3)
        from airmv.huffman import radius_param, synthesize_coeffs

        K, U, trials = 4, 3, 40_000
        rp = radius_param(K)
        cfg = PdpConfig(3, 0.7)
        inner = rng.integers(0, 2, size=(trials, U, K)).astype(bool)
        coeffs = synthesize_coeffs(inner, rp)
        h = sample_channel(cfg, U, rng, trials=trials)
        y = superpose(coeffs, h, 0.0)
        assert y.shape == (trials, K + cfg.L_e)
        energy = np.mean(np.sum(np.abs(y) ** 2, axis=-1))
        assert energy == pytest.approx(U * (K + 1), rel=0.03)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            superpose(np.ones((2, 3)), np.ones((3, 1)))

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            superpose(np.ones((1, 3)), np.ones((1, 1)), 0.1)
        with pytest.raises(ValueError):
            superpose(np.ones((1, 3)), np.ones((1, 1)), -1.0)
        with pytest.raises(ValueError):  # a NaN used to add no noise at all
            superpose(np.ones((1, 3)), np.ones((1, 1)), float("nan"),
                      np.random.default_rng(0))

    def test_noise_checks_come_before_any_work(self):
        """A bad sigma2 or a missing rng is reported before the shapes are
        even compared, let alone convolved."""
        mismatched = (np.ones((2, 3)), np.ones((3, 1)))
        with pytest.raises(ValueError, match="noise variance"):
            superpose(*mismatched, -1.0)
        with pytest.raises(ValueError, match="rng is required"):
            superpose(*mismatched, 0.1)

    def test_noise_variance(self):
        rng = np.random.default_rng(8)
        y = superpose(np.zeros((50_000, 1, 2)), np.zeros((50_000, 1, 1)), 0.5, rng)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.5, rel=0.03)


def test_single_tap_modulus_square_is_exponential():
    """|h|^2 of a circularly symmetric Gaussian tap: unit-mean exponential."""
    rng = np.random.default_rng(12)
    h = sample_channel(PdpConfig(1), 1, rng, trials=200_000)
    g = np.abs(h).ravel() ** 2
    for q in (0.5, 1.0, 2.0):
        assert np.mean(g > q) == pytest.approx(np.exp(-q), abs=0.005)
