import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmv.huffman import (
    RadiusParam,
    ZeroCodeword,
    aacf,
    poly_eval,
    radius_param,
    root_phases,
    synthesize_coeffs,
    zero_form_eval,
    zeros_to_coeffs,
)

SQ12_17 = math.sqrt(12.0 / 17.0)


def encoded_zeros(codeword):
    """The K encoded zeros: radius 1/d or d at phase 2 pi k / K."""
    d = codeword.rp.d
    return np.where(codeword.inner, 1.0 / d, d) * root_phases(codeword.rp.K)


def zeros_to_coeffs_iterative(codeword):
    """Reference conversion: expand prod (z - zero) one zero at a time,
    O(K^2), and scale by the leading coefficient sqrt(eta (K+1)) /
    sqrt(prod |zeros|) = sqrt(eta (K+1)) d^(n_inner - K/2)."""
    rp = codeword.rp
    c = np.zeros(rp.K + 1, dtype=complex)
    c[0] = 1.0
    for i, zero in enumerate(encoded_zeros(codeword)):
        c[1 : i + 2] = c[0 : i + 1] - zero * c[1 : i + 2]
        c[0] = -zero * c[0]
    n_inner = np.count_nonzero(codeword.inner)
    return c * math.sqrt(rp.eta * (rp.K + 1)) * rp.d ** (n_inner - rp.K / 2)


def example_pair():
    """The two K=2, d=2 codewords with zeros {1/2, -2} and {2, -1/2}."""
    rp = RadiusParam(2, 2.0)
    return ZeroCodeword([True, False], rp), ZeroCodeword([False, True], rp)


def random_codeword(rng, K, rp=None):
    rp = rp if rp is not None else radius_param(K)
    return ZeroCodeword(rng.integers(0, 2, K).astype(bool), rp)


class TestRadiusParam:
    def test_default_rule_k2(self):
        rp = radius_param(2)
        assert rp.d == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert rp.eta == pytest.approx(0.4, abs=1e-15)

    def test_default_rule_k4(self):
        # direct evaluation of sqrt(1 + sin(pi/4))
        assert radius_param(4).d == pytest.approx(1.3065629648763766, abs=1e-15)

    def test_d_decreases_toward_one(self):
        ds = [radius_param(K).d for K in range(2, 80)]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        assert all(d > 1.0 for d in ds)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            radius_param(1)
        with pytest.raises(ValueError):
            radius_param(0)

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            RadiusParam(4, 1.0)
        with pytest.raises(ValueError):
            RadiusParam(4, math.inf)


class TestLeadingCoeff:
    def test_example_unit_zero_product(self):
        cw, _ = example_pair()
        assert zeros_to_coeffs(cw)[-1] == pytest.approx(SQ12_17, abs=1e-15)

    def test_all_outer(self):
        rp = radius_param(6)
        cw = ZeroCodeword(np.zeros(6, bool), rp)
        expected = math.sqrt(rp.eta * 7 / rp.d**6)
        assert zeros_to_coeffs(cw)[-1] == pytest.approx(expected, rel=1e-14)

    def test_all_inner(self):
        rp = radius_param(6)
        cw = ZeroCodeword(np.ones(6, bool), rp)
        expected = math.sqrt(rp.eta * 7 * rp.d**6)
        assert zeros_to_coeffs(cw)[-1] == pytest.approx(expected, rel=1e-14)


class TestZerosToCoeffs:
    def test_example_coefficients(self):
        cw1, cw2 = example_pair()
        np.testing.assert_allclose(
            zeros_to_coeffs(cw1), SQ12_17 * np.array([-1.0, 1.5, 1.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            zeros_to_coeffs(cw2), SQ12_17 * np.array([-1.0, -1.5, 1.0]), atol=1e-12
        )

    def test_zero_fidelity(self):
        rng = np.random.default_rng(11)
        for K in (2, 3, 8, 17, 32):
            cw = random_codeword(rng, K)
            c = zeros_to_coeffs(cw)
            residuals = np.abs(poly_eval(c, encoded_zeros(cw)))
            assert residuals.max() < 1e-8

    def test_matches_iterative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            K = int(rng.integers(1, 17))
            rp = radius_param(K) if K >= 2 else RadiusParam(1, 1.5)
            cw = random_codeword(rng, K, rp)
            np.testing.assert_allclose(
                zeros_to_coeffs(cw), zeros_to_coeffs_iterative(cw), atol=1e-8
            )

    def test_iterative_single_zero(self):
        rp = RadiusParam(1, 1.5)
        cw = ZeroCodeword([False], rp)
        c = zeros_to_coeffs_iterative(cw)
        lead = zeros_to_coeffs(cw)[-1]
        np.testing.assert_allclose(c, lead * np.array([-1.5, 1.0]), atol=1e-14)

    def test_batched_synthesis_matches_scalar(self):
        rng = np.random.default_rng(3)
        rp = radius_param(8)
        inner = rng.integers(0, 2, size=(5, 4, 8)).astype(bool)
        batch = synthesize_coeffs(inner, rp)
        assert batch.shape == (5, 4, 9)
        one = zeros_to_coeffs(ZeroCodeword(inner[2, 1], rp))
        np.testing.assert_allclose(batch[2, 1], one, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_norm_is_k_plus_one(self, K, seed):
        cw = random_codeword(np.random.default_rng(seed), K)
        c = zeros_to_coeffs(cw)
        assert np.sum(np.abs(c) ** 2) == pytest.approx(K + 1, abs=1e-9)


class TestZeroFormEval:
    def test_matches_iterative_expansion_off_the_grid(self):
        """The zero form at arbitrary points equals the oracle's polynomial
        there, batched over (..., K) selections."""
        rng = np.random.default_rng(12)
        pts = 1.4 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        for K in (2, 7, 16):
            rp = radius_param(K)
            inner = rng.integers(0, 2, size=(3, 2, K)).astype(bool)
            vals = zero_form_eval(inner, rp, pts)
            assert vals.shape == (3, 2, 5)
            oracle = zeros_to_coeffs_iterative(ZeroCodeword(inner[1, 0], rp))
            ref = poly_eval(oracle, pts)
            np.testing.assert_allclose(vals[1, 0], ref, rtol=1e-10)

    def test_exact_zero_at_an_encoded_zero(self):
        cw = random_codeword(np.random.default_rng(13), 8)
        vals = zero_form_eval(cw.inner, cw.rp, encoded_zeros(cw))
        assert np.all(vals == 0.0)

    def test_rejects_wrong_slot_count(self):
        with pytest.raises(ValueError):
            zero_form_eval(np.zeros((2, 5), bool), radius_param(4), [1.0])


class TestPolyEval:
    def test_hand_example(self):
        assert poly_eval([1.0, 0.0, 1.0], 1j) == pytest.approx(0.0, abs=1e-15)

    def test_example_zero(self):
        cw1, _ = example_pair()
        assert abs(poly_eval(zeros_to_coeffs(cw1), 0.5)) < 1e-12

    def test_null_polynomial(self):
        for z in (0.3, -2.0 + 1j, 17.0):
            assert poly_eval([0.0, 0.0, 0.0], z) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            poly_eval([], 1.0)

    def test_multi_point_and_batch(self):
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        pts = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = poly_eval(coeffs, pts)
        assert out.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                direct = sum(coeffs[i, n] * pts[j] ** n for n in range(5))
                assert out[i, j] == pytest.approx(direct, rel=1e-12)


class TestAacf:
    def test_example_profile(self):
        cw1, _ = example_pair()
        a = aacf(zeros_to_coeffs(cw1))
        assert a[2] == pytest.approx(3.0, abs=1e-12)  # lag 0
        assert abs(a[1]) < 1e-12 and abs(a[3]) < 1e-12
        assert abs(a[0]) == pytest.approx(12.0 / 17.0, abs=1e-12)
        assert abs(a[4]) == pytest.approx(12.0 / 17.0, abs=1e-12)

    def test_unit_impulse(self):
        a = aacf([1.0, 0.0, 0.0, 0.0])
        expect = np.zeros(7)
        expect[3] = 1.0
        np.testing.assert_allclose(a, expect, atol=1e-15)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a = aacf(x)
        np.testing.assert_allclose(a, np.conj(a[::-1]), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_huffman_property(self, K, seed):
        """Off-peak lags vanish; a(0) = K+1; |a(+-K)| = eta (K+1)."""
        cw = random_codeword(np.random.default_rng(seed), K)
        a = aacf(zeros_to_coeffs(cw))
        assert a[K].real == pytest.approx(K + 1, abs=1e-9)
        assert abs(a[K].imag) < 1e-9
        off = np.abs(np.concatenate([a[1:K], a[K + 1 : 2 * K]]))
        if off.size:
            assert off.max() < 1e-9
        edge = cw.rp.eta * (K + 1)
        assert abs(a[0]) == pytest.approx(edge, abs=1e-9)
        assert abs(a[2 * K]) == pytest.approx(edge, abs=1e-9)


class TestZeroCodeword:
    def test_shape_validation(self):
        rp = radius_param(4)
        with pytest.raises(ValueError):
            ZeroCodeword([True, False], rp)

    def test_zero_locations(self):
        rp = RadiusParam(4, 2.0)
        cw = ZeroCodeword([True, False, False, True], rp)
        w = np.exp(2j * np.pi * np.arange(4) / 4)
        zeros = np.array([0.5, 2, 2, 0.5]) * w
        np.testing.assert_allclose(encoded_zeros(cw), zeros, atol=0)
        assert np.all(zero_form_eval(cw.inner, rp, zeros) == 0.0)
