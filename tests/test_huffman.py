import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmv.huffman import (
    RadiusParam,
    aacf,
    distinct_rows,
    poly_eval,
    radius_param,
    root_phases,
    synthesize_coeffs,
    zero_form_eval,
)

SQ12_17 = math.sqrt(12.0 / 17.0)


def encoded_zeros(inner, rp):
    """The K encoded zeros: radius 1/d or d at phase 2 pi k / K."""
    return np.where(inner, 1.0 / rp.d, rp.d) * root_phases(rp.K)


def zeros_to_coeffs_iterative(inner, rp):
    """Reference conversion: expand prod (z - zero) one zero at a time,
    O(K^2), and scale by the leading coefficient sqrt(eta (K+1)) /
    sqrt(prod |zeros|) = sqrt(eta (K+1)) d^(n_inner - K/2)."""
    c = np.zeros(rp.K + 1, dtype=complex)
    c[0] = 1.0
    for i, zero in enumerate(encoded_zeros(inner, rp)):
        c[1 : i + 2] = c[0 : i + 1] - zero * c[1 : i + 2]
        c[0] = -zero * c[0]
    n_inner = np.count_nonzero(inner)
    return c * math.sqrt(rp.eta * (rp.K + 1)) * rp.d ** (n_inner - rp.K / 2)


# The two K=2, d=2 codewords with zeros {1/2, -2} and {2, -1/2}.
EXAMPLE_RP = RadiusParam(2, 2.0)
EXAMPLE_PAIR = np.array([True, False]), np.array([False, True])


def random_inner(rng, K):
    return rng.integers(0, 2, K).astype(bool)


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
        c = synthesize_coeffs(EXAMPLE_PAIR[0], EXAMPLE_RP)
        assert c[-1] == pytest.approx(SQ12_17, abs=1e-15)

    def test_all_outer(self):
        rp = radius_param(6)
        expected = math.sqrt(rp.eta * 7 / rp.d**6)
        c = synthesize_coeffs(np.zeros(6, bool), rp)
        assert c[-1] == pytest.approx(expected, rel=1e-14)

    def test_all_inner(self):
        rp = radius_param(6)
        expected = math.sqrt(rp.eta * 7 * rp.d**6)
        c = synthesize_coeffs(np.ones(6, bool), rp)
        assert c[-1] == pytest.approx(expected, rel=1e-14)


class TestZerosToCoeffs:
    def test_example_coefficients(self):
        c1, c2 = synthesize_coeffs(np.stack(EXAMPLE_PAIR), EXAMPLE_RP)
        np.testing.assert_allclose(c1, SQ12_17 * np.array([-1.0, 1.5, 1.0]), atol=1e-12)
        np.testing.assert_allclose(c2, SQ12_17 * np.array([-1.0, -1.5, 1.0]), atol=1e-12)

    def test_zero_fidelity(self):
        rng = np.random.default_rng(11)
        for K in (2, 3, 8, 17, 32):
            rp = radius_param(K)
            inner = random_inner(rng, K)
            c = synthesize_coeffs(inner, rp)
            residuals = np.abs(poly_eval(c, encoded_zeros(inner, rp)))
            assert residuals.max() < 1e-8

    def test_matches_iterative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            K = int(rng.integers(1, 17))
            rp = radius_param(K) if K >= 2 else RadiusParam(1, 1.5)
            inner = random_inner(rng, K)
            np.testing.assert_allclose(
                synthesize_coeffs(inner, rp), zeros_to_coeffs_iterative(inner, rp),
                atol=1e-8,
            )

    def test_iterative_single_zero(self):
        rp = RadiusParam(1, 1.5)
        c = zeros_to_coeffs_iterative([False], rp)
        lead = synthesize_coeffs([False], rp)[-1]
        np.testing.assert_allclose(c, lead * np.array([-1.5, 1.0]), atol=1e-14)

    def test_batched_synthesis_matches_scalar(self):
        rng = np.random.default_rng(3)
        rp = radius_param(8)
        inner = rng.integers(0, 2, size=(5, 4, 8)).astype(bool)
        batch = synthesize_coeffs(inner, rp)
        assert batch.shape == (5, 4, 9)
        one = synthesize_coeffs(inner[2, 1], rp)
        np.testing.assert_allclose(batch[2, 1], one, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_norm_is_k_plus_one(self, K, seed):
        inner = random_inner(np.random.default_rng(seed), K)
        c = synthesize_coeffs(inner, radius_param(K))
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
            oracle = zeros_to_coeffs_iterative(inner[1, 0], rp)
            ref = poly_eval(oracle, pts)
            np.testing.assert_allclose(vals[1, 0], ref, rtol=1e-10)

    def test_exact_zero_at_an_encoded_zero(self):
        rp = radius_param(8)
        inner = random_inner(np.random.default_rng(13), 8)
        vals = zero_form_eval(inner, rp, encoded_zeros(inner, rp))
        assert np.all(vals == 0.0)

    def test_rejects_wrong_slot_count(self):
        with pytest.raises(ValueError):
            zero_form_eval(np.zeros((2, 5), bool), radius_param(4), [1.0])

    @pytest.mark.parametrize("K", [2, 8, 33])
    def test_repeated_rows_evaluate_as_rows_alone(self, K):
        """The distinct rows are evaluated once and gathered back: bitwise
        each row's own evaluation, whatever its batch."""
        rng = np.random.default_rng(K)
        rows = rng.integers(0, 2, size=(5, K)).astype(bool)
        inner = rows[rng.integers(0, 5, size=(4, 6))]
        pts = np.concatenate([root_phases(K + 1), [1.3 - 0.4j]])
        vals = zero_form_eval(inner, radius_param(K), pts)
        assert vals.shape == (4, 6, K + 2)
        for i, j in np.ndindex(4, 6):
            alone = zero_form_eval(inner[i, j][np.newaxis], radius_param(K), pts)[0]
            np.testing.assert_array_equal(vals[i, j], alone)
        assert zero_form_eval(inner[:0], radius_param(K), pts).shape == (0, 6, K + 2)


class TestPolyEval:
    def test_hand_example(self):
        assert poly_eval([1.0, 0.0, 1.0], 1j) == pytest.approx(0.0, abs=1e-15)

    def test_example_zero(self):
        c = synthesize_coeffs(EXAMPLE_PAIR[0], EXAMPLE_RP)
        assert abs(poly_eval(c, 0.5)) < 1e-12

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
        a = aacf(synthesize_coeffs(EXAMPLE_PAIR[0], EXAMPLE_RP))
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
        rp = radius_param(K)
        a = aacf(synthesize_coeffs(random_inner(np.random.default_rng(seed), K), rp))
        assert a[K].real == pytest.approx(K + 1, abs=1e-9)
        assert abs(a[K].imag) < 1e-9
        off = np.abs(np.concatenate([a[1:K], a[K + 1 : 2 * K]]))
        if off.size:
            assert off.max() < 1e-9
        edge = rp.eta * (K + 1)
        assert abs(a[0]) == pytest.approx(edge, abs=1e-9)
        assert abs(a[2 * K]) == pytest.approx(edge, abs=1e-9)


class TestZeroCodeword:
    def test_shape_validation(self):
        rp = radius_param(4)
        with pytest.raises(ValueError):
            synthesize_coeffs([True, False], rp)

    def test_zero_locations(self):
        rp = RadiusParam(4, 2.0)
        inner = np.array([True, False, False, True])
        w = np.exp(2j * np.pi * np.arange(4) / 4)
        zeros = np.array([0.5, 2, 2, 0.5]) * w
        np.testing.assert_allclose(encoded_zeros(inner, rp), zeros, atol=0)
        assert np.all(zero_form_eval(inner, rp, zeros) == 0.0)


def stack_of(rows, R, U):
    """An (R, U, K) stack whose entry (r, u) is row (r * U + u) % len(rows)."""
    rows = np.asarray(rows, dtype=bool)
    return rows[np.arange(R * U).reshape(R, U) % len(rows)]


class TestDistinctRows:
    @pytest.mark.parametrize("selections", [
        stack_of(np.random.default_rng(1).integers(0, 2, (7, 8)), 5, 4),
        np.random.default_rng(2).integers(0, 2, (40, 256)).astype(bool),
        stack_of(np.eye(256, dtype=bool)[[3, 3, 200, 255, 200]], 3, 2),
        np.array([[True, False, True]]),
        np.ones((6, 9), dtype=bool),
        np.array([[True], [False], [True]]),
    ], ids=["stack", "k256-distinct", "k256-stack", "single", "all-equal", "k1"])
    def test_rows_rebuild_the_input(self, selections):
        rows, inverse = distinct_rows(selections)
        K = selections.shape[-1]
        assert rows.dtype == bool and rows.shape[1] == K
        assert inverse.shape == selections.shape[:-1]
        rebuilt = rows[inverse]
        assert rebuilt.shape == selections.shape
        assert np.array_equal(rebuilt, selections)
        keys = [row.tobytes() for row in rows]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {row.tobytes() for row in selections.reshape(-1, K)}

    def test_counts(self):
        """Rows that differ only past the first 64 bits stay apart; equal
        rows collapse to one."""
        wide = np.zeros((4, 256), dtype=bool)
        wide[1, 255] = wide[2, 64] = wide[3, 64] = True
        assert len(distinct_rows(wide)[0]) == 3
        assert len(distinct_rows(np.ones((50, 9), dtype=bool))[0]) == 1
        assert len(distinct_rows(np.eye(256, dtype=bool))[0]) == 256
        rows, inverse = distinct_rows(np.array([[False, True]]))
        assert rows.tolist() == [[False, True]] and inverse.tolist() == [0]
