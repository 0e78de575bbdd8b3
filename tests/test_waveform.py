import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmv.encoding import Method, vote_pattern
from airmv.huffman import radius_param, synthesize_coeffs
from airmv.waveform import (
    dfts_ofdm_modulate,
    ofdm_map_modulate,
    pmepr,
    resources_per_mv,
    separation_resources,
)


def huffman_block(K, seed=0, method=Method.UNCODED):
    rng = np.random.default_rng(seed)
    rp = radius_param(K)
    m = method.votes_per_codeword(K)
    votes = rng.integers(0, 2, m) * 2 - 1
    return synthesize_coeffs(vote_pattern(method, votes), rp)


class TestPmepr:
    def test_constant_envelope(self):
        s = np.exp(1j * np.linspace(0, 5, 64))
        assert pmepr(s) == pytest.approx(0.0, abs=1e-12)

    def test_single_spike(self):
        s = np.zeros(128)
        s[17] = 3.0
        assert pmepr(s) == pytest.approx(10 * math.log10(128))

    def test_rejects_zero_signal(self):
        with pytest.raises(ValueError):
            pmepr(np.zeros(8))

    def test_rejects_batch_with_one_zero_row(self):
        s = np.random.default_rng(6).standard_normal((4, 16)) + 0j
        s[2] = 0.0
        with pytest.raises(ValueError, match="all-zero"):
            pmepr(s)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_scale_and_phase_invariant(self, seed, scale, phase):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        base = pmepr(s)
        assert pmepr(scale * np.exp(1j * phase) * s) == pytest.approx(base, abs=1e-9)


class TestDftsOfdm:
    def test_oversampling_one_round_trip(self):
        c = huffman_block(8, seed=1)
        np.testing.assert_allclose(dfts_ofdm_modulate(c, 1), c, atol=1e-12)

    def test_energy_preserved(self):
        c = huffman_block(16, seed=2)
        s = dfts_ofdm_modulate(c, 16)
        assert s.size == 16 * 17
        assert np.sum(np.abs(s) ** 2) == pytest.approx(np.sum(np.abs(c) ** 2))

    def test_impulse_input_deterministic(self):
        """A one-hot block spreads to flat bins; the oversampled envelope
        (truncated-sinc aggregate) is fixed by the transform sizes alone."""
        n, os = 9, 16
        c = np.zeros(n, complex)
        c[0] = 1.0
        s = dfts_ofdm_modulate(c, os)
        spectrum = np.zeros(n * os, complex)
        spectrum[:n] = np.fft.fft(c)
        expected = np.fft.ifft(spectrum) * math.sqrt(os)
        np.testing.assert_allclose(s, expected, atol=1e-12)
        assert pmepr(s) == pytest.approx(pmepr(expected), abs=1e-12)


class TestOfdmMapping:
    def test_all_ones_coherent_peak(self):
        n = 8
        s = ofdm_map_modulate(np.ones(n), 16)
        assert pmepr(s) == pytest.approx(10 * math.log10(n), abs=1e-9)

    def test_identical_across_k2_codewords(self):
        rp = radius_param(2)
        vals = set()
        for inner in ([True, False], [False, True], [True, True], [False, False]):
            c = synthesize_coeffs(np.array(inner), rp)
            vals.add(round(pmepr(ofdm_map_modulate(c, 16)), 9))
        assert len(vals) == 1

    def test_k8_value_and_codeword_independence(self):
        rp = radius_param(8)
        rng = np.random.default_rng(3)
        samples = []
        for _ in range(32):
            inner = rng.integers(0, 2, 8).astype(bool)
            c = synthesize_coeffs(inner, rp)
            samples.append(pmepr(ofdm_map_modulate(c, 16)))
        assert max(samples) - min(samples) < 0.01
        assert np.mean(samples) == pytest.approx(1.79, abs=0.05)

    def test_k32_value(self):
        rp = radius_param(32)
        c = synthesize_coeffs(np.zeros(32, bool), rp)
        assert pmepr(ofdm_map_modulate(c, 16)) == pytest.approx(1.54, abs=0.05)


class TestBatches:
    """Blocks lie along the last axis: a batch gives the per-row values."""

    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    @pytest.mark.parametrize("modulate", [dfts_ofdm_modulate, ofdm_map_modulate])
    def test_batch_matches_rows(self, shape, modulate):
        rng = np.random.default_rng(8)
        for K in (8, 32):
            inner = rng.integers(0, 2, size=shape + (K,)).astype(bool)
            coeffs = synthesize_coeffs(inner, radius_param(K))
            signals = modulate(coeffs, 16)
            assert signals.shape == shape + (16 * (K + 1),)
            batch = pmepr(signals)
            assert batch.shape == shape
            rows = np.array([pmepr(modulate(c, 16)) for c in coeffs.reshape(-1, K + 1)])
            np.testing.assert_allclose(batch.reshape(-1), rows, rtol=0, atol=1e-13)

    def test_rejects_empty_blocks(self):
        for modulate in (dfts_ofdm_modulate, ofdm_map_modulate):
            with pytest.raises(ValueError):
                modulate(np.zeros((3, 0)))


class TestCcdfOrdering:
    def test_indexed_dominates_at_high_quantile(self):
        """Single-inner-zero blocks concentrate energy in few coefficients,
        so their spread-waveform peaks sit above the other encoders' at the
        1e-2 exceedance level (1e4 sampled codewords per encoder)."""
        K = 32
        rp = radius_param(K)
        rng = np.random.default_rng(4)
        quantiles = {}
        for method in Method:
            m = method.votes_per_codeword(K)
            votes = rng.integers(0, 2, size=(10_000, m)) * 2 - 1
            coeffs = synthesize_coeffs(vote_pattern(method, votes), rp)
            vals = pmepr(dfts_ofdm_modulate(coeffs, 16))
            quantiles[method] = float(np.quantile(vals, 0.99))
        assert quantiles[Method.INDEXED] > quantiles[Method.UNCODED]
        assert quantiles[Method.INDEXED] > quantiles[Method.DIFFERENTIAL]


class TestResources:
    def test_worked_values(self):
        assert resources_per_mv(Method.UNCODED, 32, 5) == pytest.approx(1.15625)
        assert resources_per_mv(Method.DIFFERENTIAL, 32, 5) == pytest.approx(2.3125)
        assert resources_per_mv(Method.INDEXED, 32, 5) == pytest.approx(7.4)

    def test_no_padding_hypothetical(self):
        assert resources_per_mv(Method.UNCODED, 16, 0) == 1.0
        assert resources_per_mv(Method.DIFFERENTIAL, 16, 0) == 2.0
        assert resources_per_mv(Method.INDEXED, 16, 0) == 4.0

    def test_separation_crossover_at_u8(self):
        cost = resources_per_mv(Method.INDEXED, 32, 5)
        assert separation_resources(7) < cost
        assert separation_resources(8) > cost

    def test_separation_efficiency(self):
        assert separation_resources(8) == 8.0
