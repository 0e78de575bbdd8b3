import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmv.encoding import (
    Method,
    differential_pattern,
    encode,
    indexed_pattern,
    uncoded_pattern,
    votes_to_bits,
)
from airmv.huffman import RadiusParam, radius_param, root_phases


def vote_rows(m, n):
    rng = np.random.default_rng(n)
    return rng.integers(0, 2, size=(n, m)) * 2 - 1


class TestMethod:
    def test_aliases(self):
        assert Method.from_name("m1") is Method.UNCODED
        assert Method.from_name("M2") is Method.DIFFERENTIAL
        assert Method.from_name("indexed") is Method.INDEXED
        with pytest.raises(ValueError):
            Method.from_name("m4")

    def test_votes_per_codeword(self):
        assert Method.UNCODED.votes_per_codeword(8) == 8
        assert Method.DIFFERENTIAL.votes_per_codeword(8) == 4
        assert Method.INDEXED.votes_per_codeword(8) == 3

    def test_k_constraints(self):
        with pytest.raises(ValueError):
            Method.DIFFERENTIAL.validate_k(7)
        with pytest.raises(ValueError):
            Method.INDEXED.validate_k(12)
        Method.INDEXED.validate_k(2)

    def test_uncoded_needs_k_two(self):
        """K=1 has no zero-pair radius (d = sqrt(1 + sin(pi/K)) = 1), so
        every K the uncoded scheme accepts must have one."""
        with pytest.raises(ValueError, match="K >= 2"):
            Method.UNCODED.validate_k(1)
        Method.UNCODED.validate_k(2)
        Method.UNCODED.validate_k(3)


class TestVotesToBits:
    def test_definition(self):
        np.testing.assert_array_equal(votes_to_bits([-1, -1]), [0, 0])
        np.testing.assert_array_equal(votes_to_bits([1, -1, 1]), [1, 0, 1])

    def test_all_ones_index(self):
        m = 5
        bits = votes_to_bits(np.ones(m, int))
        assert int(bits @ (1 << np.arange(m))) == 2**m - 1

    def test_rejects_non_votes(self):
        with pytest.raises(ValueError):
            votes_to_bits([0, 1])


class TestUncoded:
    def test_direct_mapping(self):
        rp = RadiusParam(2, 2.0)
        cw = encode(Method.UNCODED, [1, -1], rp)
        zeros = np.where(cw.inner, 1 / rp.d, rp.d) * root_phases(2)
        np.testing.assert_allclose(zeros, [0.5, -2.0], atol=0)

    def test_radii_pattern_k8(self):
        rp = radius_param(8)
        cw = encode(Method.UNCODED, [-1, -1, 1, 1, -1, -1, 1, 1], rp)
        np.testing.assert_array_equal(
            cw.inner, [False, False, True, True, False, False, True, True]
        )

    def test_all_minus_one(self):
        rp = radius_param(4)
        assert np.count_nonzero(encode(Method.UNCODED, [-1] * 4, rp).inner) == 0

    def test_bijection(self):
        rp = radius_param(8)
        seen = set()
        for code in range(256):
            votes = [(1 if (code >> k) & 1 else -1) for k in range(8)]
            seen.add(encode(Method.UNCODED, votes, rp).inner.tobytes())
        assert len(seen) == 256


class TestDifferential:
    def test_direct_mapping_k4(self):
        rp = radius_param(4)
        d = rp.d
        cw = encode(Method.DIFFERENTIAL, [1, -1], rp)
        w = np.exp(2j * np.pi * np.arange(4) / 4)
        np.testing.assert_allclose(
            np.where(cw.inner, 1 / d, d) * root_phases(4),
            np.array([1 / d, d, d, 1 / d]) * w, atol=1e-15
        )

    def test_pair_structure_k8(self):
        rp = radius_param(8)
        cw = encode(Method.DIFFERENTIAL, [-1, -1, 1, 1], rp)
        np.testing.assert_array_equal(
            cw.inner, [False, True, False, True, True, False, True, False]
        )

    def test_all_plus(self):
        rp = radius_param(6)
        cw = encode(Method.DIFFERENTIAL, [1, 1, 1], rp)
        assert cw.inner[0::2].all() and not cw.inner[1::2].any()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(0, 2**32 - 1))
    def test_balanced_split(self, m, seed):
        votes = np.random.default_rng(seed).integers(0, 2, m) * 2 - 1
        pattern = differential_pattern(votes)
        assert pattern.sum() == m  # exactly K/2 inner zeros

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            encode(Method.DIFFERENTIAL, [1], RadiusParam(3, 1.5))


class TestIndexed:
    def test_fig_example(self):
        rp = radius_param(8)
        cw = encode(Method.INDEXED, [-1, 1, -1], rp)
        assert np.count_nonzero(cw.inner) == 1 and cw.inner[2]

    def test_all_minus_one_slot_zero(self):
        rp = radius_param(8)
        cw = encode(Method.INDEXED, [-1, -1, -1], rp)
        assert cw.inner[0] and np.count_nonzero(cw.inner) == 1

    def test_k4_all_plus(self):
        rp = radius_param(4)
        cw = encode(Method.INDEXED, [1, 1], rp)
        assert cw.inner[3] and np.count_nonzero(cw.inner) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2**32 - 1))
    def test_single_inner_and_bit_consistency(self, m, seed):
        votes = np.random.default_rng(seed).integers(0, 2, m) * 2 - 1
        pattern = indexed_pattern(votes)
        assert pattern.sum() == 1
        slot = int(np.flatnonzero(pattern)[0])
        bits = votes_to_bits(votes)
        assert slot == int(bits @ (1 << np.arange(m)))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            encode(Method.INDEXED, [1, 1], RadiusParam(6, 1.2))


def test_uncoded_pattern_batch_shapes():
    votes = vote_rows(5, 7)
    assert uncoded_pattern(votes).shape == (7, 5)
    assert differential_pattern(votes).shape == (7, 10)
    assert indexed_pattern(votes).shape == (7, 32)


def test_k2_indexed_mirrors_differential():
    """At K=2 the two encoders pick opposite members of the single pair."""
    rp = radius_param(2)
    for vote in (-1, 1):
        a = encode(Method.DIFFERENTIAL, [vote], rp)
        b = encode(Method.INDEXED, [vote], rp)
        np.testing.assert_array_equal(a.inner, ~b.inner)
