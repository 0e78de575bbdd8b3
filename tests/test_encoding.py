import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmv.encoding import Method, vote_pattern
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


def indexed_slot(votes):
    """The one inner slot of an indexed codeword."""
    (slot,) = np.flatnonzero(vote_pattern(Method.INDEXED, votes))
    return int(slot)


class TestVotesToBits:
    """Vote -1/+1 is bit 0/1, and vote position l has significance 2^l."""

    def test_definition(self):
        assert indexed_slot([-1, -1]) == 0
        assert indexed_slot([1, -1, 1]) == 0b101

    def test_all_ones_index(self):
        m = 5
        assert indexed_slot(np.ones(m, int)) == 2**m - 1

    def test_rejects_non_votes(self):
        """One rule for every rank: a nonempty integer array of +/-1."""
        bad = ([0, 1], [1, 2], [1.0, -1.0], [[True, False]], np.empty((3, 0), int), 1)
        for method, votes in itertools.product(Method, bad):
            with pytest.raises(ValueError):
                vote_pattern(method, votes)


class TestUncoded:
    def test_direct_mapping(self):
        rp = RadiusParam(2, 2.0)
        inner = vote_pattern(Method.UNCODED, [1, -1])
        zeros = np.where(inner, 1 / rp.d, rp.d) * root_phases(2)
        np.testing.assert_allclose(zeros, [0.5, -2.0], atol=0)

    def test_radii_pattern_k8(self):
        inner = vote_pattern(Method.UNCODED, [-1, -1, 1, 1, -1, -1, 1, 1])
        np.testing.assert_array_equal(
            inner, [False, False, True, True, False, False, True, True]
        )

    def test_all_minus_one(self):
        assert np.count_nonzero(vote_pattern(Method.UNCODED, [-1] * 4)) == 0

    def test_bijection(self):
        codes = np.arange(256)[:, np.newaxis]
        votes = ((codes >> np.arange(8)) & 1) * 2 - 1
        inner = vote_pattern(Method.UNCODED, votes)
        assert len(np.unique(inner, axis=0)) == 256


class TestDifferential:
    def test_direct_mapping_k4(self):
        d = radius_param(4).d
        inner = vote_pattern(Method.DIFFERENTIAL, [1, -1])
        w = np.exp(2j * np.pi * np.arange(4) / 4)
        np.testing.assert_allclose(
            np.where(inner, 1 / d, d) * root_phases(4),
            np.array([1 / d, d, d, 1 / d]) * w, atol=1e-15
        )

    def test_pair_structure_k8(self):
        inner = vote_pattern(Method.DIFFERENTIAL, [-1, -1, 1, 1])
        np.testing.assert_array_equal(
            inner, [False, True, False, True, True, False, True, False]
        )

    def test_all_plus(self):
        inner = vote_pattern(Method.DIFFERENTIAL, [1, 1, 1])
        assert inner[0::2].all() and not inner[1::2].any()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(0, 2**32 - 1))
    def test_balanced_split(self, m, seed):
        votes = np.random.default_rng(seed).integers(0, 2, m) * 2 - 1
        pattern = vote_pattern(Method.DIFFERENTIAL, votes)
        assert pattern.sum() == m  # exactly K/2 inner zeros

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            Method.DIFFERENTIAL.votes_per_codeword(3)


class TestIndexed:
    def test_fig_example(self):
        inner = vote_pattern(Method.INDEXED, [-1, 1, -1])
        assert np.count_nonzero(inner) == 1 and inner[2]

    def test_all_minus_one_slot_zero(self):
        inner = vote_pattern(Method.INDEXED, [-1, -1, -1])
        assert inner.shape == (8,) and inner[0] and np.count_nonzero(inner) == 1

    def test_k4_all_plus(self):
        inner = vote_pattern(Method.INDEXED, [1, 1])
        assert inner.shape == (4,) and inner[3] and np.count_nonzero(inner) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2**32 - 1))
    def test_single_inner_and_bit_consistency(self, m, seed):
        votes = np.random.default_rng(seed).integers(0, 2, m) * 2 - 1
        pattern = vote_pattern(Method.INDEXED, votes)
        assert pattern.sum() == 1
        slot = int(np.flatnonzero(pattern)[0])
        bits = (votes + 1) // 2
        assert slot == int(bits @ (1 << np.arange(m)))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            Method.INDEXED.votes_per_codeword(6)


def test_uncoded_pattern_batch_shapes():
    """Any rank: an (n, U, M) batch maps row by row, in any integer dtype."""
    votes = vote_rows(5, 7)
    for method, K in ((Method.UNCODED, 5), (Method.DIFFERENTIAL, 10),
                      (Method.INDEXED, 32)):
        rows = vote_pattern(method, votes)
        assert rows.shape == (7, K) and rows.dtype == bool
        stack = vote_pattern(method, votes.reshape(7, 1, 5).astype(np.int8))
        np.testing.assert_array_equal(stack[:, 0], rows)
        for row, votes_row in zip(rows, votes):
            np.testing.assert_array_equal(vote_pattern(method, votes_row), row)


def test_k2_indexed_mirrors_differential():
    """At K=2 the two encoders pick opposite members of the single pair."""
    votes = np.array([[-1], [1]])
    a = vote_pattern(Method.DIFFERENTIAL, votes)
    b = vote_pattern(Method.INDEXED, votes)
    np.testing.assert_array_equal(a, ~b)
