import itertools
import math

import numpy as np
import pytest

from airmv.channel import PdpConfig, sample_channel, superpose
from airmv.decoding import (
    DecoderContext,
    channel_power,
    decode,
    detector_form,
    noise_power,
    powers,
    probe_moments,
    probe_points,
    probe_variances,
    signal_scale_differential,
    signal_scale_indexed,
    signal_scale_uncoded,
)
from airmv.encoding import Method, vote_pattern
from airmv.huffman import (
    RadiusParam,
    poly_eval,
    radius_param,
    synthesize_coeffs,
)


def flat_context(method, K, sigma2=0.0):
    rp = radius_param(K)
    if method is Method.UNCODED:
        return DecoderContext(method, rp, pdp=PdpConfig(1), sigma2=sigma2)
    return DecoderContext(method, rp)


def noiseless_receive(method, votes, K, channel=None):
    rp = radius_param(K)
    c = synthesize_coeffs(vote_pattern(method, votes), rp)
    h = np.array([[1.0 + 0j]]) if channel is None else np.asarray(channel)
    return superpose(c[None, :], h, 0.0)


class TestChannelPower:
    def test_single_tap(self):
        assert channel_power(0.37, PdpConfig(1)) == 1.0
        assert channel_power(2.9, PdpConfig(1, 0.4)) == 1.0

    def test_uniform_profile(self):
        # direct tap sum (1 + 2 + 4 + 8 + 16) / 5
        assert channel_power(math.sqrt(2), PdpConfig(5, 1.0)) == pytest.approx(6.2)

    def test_singular_closed_form(self):
        # d^2 rho = 1: direct sum 2/3 + (1/3) * 2
        val = channel_power(math.sqrt(2), PdpConfig(2, 0.5))
        assert val == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            L_e = int(rng.integers(1, 9))
            rho = float(rng.uniform(0.05, 1.0))
            d_arg = float(rng.uniform(0.4, 1.8))
            cfg = PdpConfig(L_e, rho)
            direct = float(np.dot(cfg.taps, d_arg ** (2 * np.arange(L_e))))
            assert channel_power(d_arg, cfg) == pytest.approx(direct, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            channel_power(0.0, PdpConfig(2))

    def test_near_unit_decay_is_the_finite_sum(self):
        """As rho -> 1 a geometric closed form cancels (1.5e-10 relative at
        rho = 1 - 1e-10); the finite sums stay at rounding level."""
        cfg = PdpConfig(4, 1.0 - 1e-10)
        for K in (8, 32):
            rp = radius_param(K)
            for d_arg in (rp.d, 1.0 / rp.d):
                g = d_arg * d_arg
                chan = math.fsum(p * g**l for l, p in enumerate(cfg.taps))
                noise = 0.3 * math.fsum(g**n for n in range(K + cfg.L_e))
                assert channel_power(d_arg, cfg) == pytest.approx(chan, rel=1e-14)
                assert noise_power(d_arg, 0.3, K, cfg.L_e) == pytest.approx(
                    noise, rel=1e-14
                )


class TestNoisePower:
    def test_noiseless(self):
        assert noise_power(1.7, 0.0, 4, 2) == 0.0

    def test_geometric_sum(self):
        # sigma2=1, d^2=2, K=2, L_e=1: 1 + 2 + 4
        assert noise_power(math.sqrt(2), 1.0, 2, 1) == pytest.approx(7.0)

    def test_unit_radius_limit(self):
        assert noise_power(1.0, 1.0, 3, 2) == pytest.approx(5.0)


class TestSignalScales:
    def test_worked_uncoded_values(self):
        rp = RadiusParam(2, 2.0)
        assert signal_scale_uncoded(rp, 2.0) == pytest.approx(553.5 / 17, abs=1e-9)
        assert signal_scale_uncoded(rp, 0.5) == pytest.approx(553.5 / 272, abs=1e-9)

    def test_uncoded_ratio_is_d_pow_2k(self):
        for K in (2, 4, 8, 16, 32, 64):
            rp = radius_param(K)
            ratio = signal_scale_uncoded(rp, rp.d) / signal_scale_uncoded(rp, 1 / rp.d)
            assert ratio == pytest.approx(rp.d ** (2 * K), rel=1e-9)

    def test_differential_k2_empty_product(self):
        rp = RadiusParam(2, 2.0)
        d = rp.d
        expected = rp.eta * 3 * (d - 1 / d) ** 2 * 4 * d**2
        assert signal_scale_differential(rp, d) == pytest.approx(expected, rel=1e-12)

    def test_indexed_worked_value(self):
        assert signal_scale_indexed(RadiusParam(2, 2.0), 2.0) == pytest.approx(
            432.0 / 17.0, rel=1e-12
        )

    def test_indexed_equals_differential_at_k2(self):
        rp = radius_param(2)
        assert signal_scale_indexed(rp, rp.d) == pytest.approx(
            signal_scale_differential(rp, rp.d), rel=1e-12
        )

    def test_positivity(self):
        for K in (2, 4, 8, 16, 32):
            rp = radius_param(K)
            assert signal_scale_uncoded(rp, rp.d) > 0
            assert signal_scale_differential(rp, rp.d) > 0
            assert signal_scale_indexed(rp, rp.d) > 0


def mc_mean_signal_energy(method, K, U, n_plus, pdp_cfg, test_point, draws, seed,
                          ell=0):
    """E |S(z)|^2 over channels and free votes with the probed column fixed."""
    rng = np.random.default_rng(seed)
    rp = radius_param(K)
    M = method.votes_per_codeword(K)
    votes = rng.integers(0, 2, size=(draws, U, M)) * 2 - 1
    votes[:, :n_plus, ell] = 1
    votes[:, n_plus:, ell] = -1
    coeffs = synthesize_coeffs(vote_pattern(method, votes), rp)
    h = sample_channel(pdp_cfg, U, rng, trials=draws)
    y = superpose(coeffs, h, 0.0)
    from airmv.huffman import poly_eval

    s = poly_eval(y, np.asarray(test_point))
    vals = np.abs(s) ** 2
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))


class TestExpectedEnergyStatistics:
    """Closed-form expected energies against Monte Carlo (reduced draws here;
    the acceptance suite reruns the full grid at 1e5)."""

    DRAWS = 30_000

    def test_uncoded_both_radii(self):
        K, U, n_plus = 4, 3, 2
        pdp_cfg = PdpConfig(3, 0.5)
        rp = radius_param(K)
        w = np.exp(2j * np.pi / K)  # probe vote position 1
        for da, count in ((rp.d, n_plus), (1 / rp.d, U - n_plus)):
            mean, se = mc_mean_signal_energy(
                Method.UNCODED, K, U, n_plus, pdp_cfg, da * w, self.DRAWS, 21, ell=1
            )
            expected = count * signal_scale_uncoded(rp, da) * channel_power(da, pdp_cfg)
            assert abs(mean - expected) < 3 * se

    def test_differential_even_and_odd(self):
        K, U, n_plus = 4, 3, 2
        pdp_cfg = PdpConfig(1)
        rp = radius_param(K)
        scale = signal_scale_differential(rp, rp.d)
        even, se_e = mc_mean_signal_energy(
            Method.DIFFERENTIAL, K, U, n_plus, pdp_cfg, rp.d, self.DRAWS, 22
        )
        assert abs(even - n_plus * scale) < 3 * se_e
        odd_pt = rp.d * np.exp(2j * np.pi / K)
        odd, se_o = mc_mean_signal_energy(
            Method.DIFFERENTIAL, K, U, n_plus, pdp_cfg, odd_pt, self.DRAWS, 23
        )
        assert abs(odd - (U - n_plus) * scale) < 3 * se_o

    def test_indexed_bit_partition(self):
        K, U, n_plus = 8, 4, 3
        pdp_cfg = PdpConfig(3, 1.0)
        rp = radius_param(K)
        m = 3
        g3 = signal_scale_indexed(rp, rp.d)
        for slot in (5, 2):  # bit 0 of slot: 1 and 0
            z = rp.d * np.exp(2j * np.pi * slot / K)
            mean, se = mc_mean_signal_energy(
                Method.INDEXED, K, U, n_plus, pdp_cfg, z, self.DRAWS, 24 + slot
            )
            count = n_plus if slot & 1 else U - n_plus
            expected = count / 2 ** (m - 1) * g3 * channel_power(rp.d, pdp_cfg)
            assert abs(mean - expected) < 3 * se


class TestDecoderContext:
    def test_uncoded_requires_knowledge(self):
        rp = radius_param(4)
        with pytest.raises(ValueError):
            DecoderContext(Method.UNCODED, rp)

    def test_uncoded_rejects_bad_noise(self):
        rp = radius_param(4)
        for sigma2 in (-0.1, math.nan):
            with pytest.raises(ValueError, match="noise variance must be nonnegative"):
                DecoderContext(Method.UNCODED, rp, pdp=PdpConfig(1), sigma2=sigma2)

    def test_coded_rejects_knowledge(self):
        rp = radius_param(4)
        with pytest.raises(ValueError):
            DecoderContext(Method.DIFFERENTIAL, rp, pdp=PdpConfig(1), sigma2=0.1)
        DecoderContext(Method.DIFFERENTIAL, rp)


class TestNoiselessCorrectness:
    def test_uncoded_all_patterns(self):
        for K in (2, 3, 4, 6, 8):
            ctx = flat_context(Method.UNCODED, K)
            for bits in itertools.product((0, 1), repeat=K):
                votes = np.array(bits) * 2 - 1
                y = noiseless_receive(Method.UNCODED, votes, K)
                np.testing.assert_array_equal(decode(y, ctx), votes)

    def test_differential_all_patterns(self):
        for K in (2, 4, 8):
            ctx = flat_context(Method.DIFFERENTIAL, K)
            for bits in itertools.product((0, 1), repeat=K // 2):
                votes = np.array(bits) * 2 - 1
                y = noiseless_receive(Method.DIFFERENTIAL, votes, K)
                np.testing.assert_array_equal(decode(y, ctx), votes)

    def test_indexed_all_patterns(self):
        for K in (2, 4, 8):
            m = K.bit_length() - 1
            ctx = flat_context(Method.INDEXED, K)
            for bits in itertools.product((0, 1), repeat=m):
                votes = np.array(bits) * 2 - 1
                y = noiseless_receive(Method.INDEXED, votes, K)
                np.testing.assert_array_equal(decode(y, ctx), votes)

    def test_indexed_k8_single_measurement(self):
        y = noiseless_receive(Method.INDEXED, [-1, 1, -1], 8)
        ctx = flat_context(Method.INDEXED, 8)
        np.testing.assert_array_equal(decode(y, ctx), [-1, 1, -1])

    def test_three_user_majority(self):
        """Explicit superposition: votes (+1, +1, -1) at one position."""
        K = 4
        rp = radius_param(K)
        rng = np.random.default_rng(13)
        other = rng.integers(0, 2, size=(3, K)) * 2 - 1
        other[:, 2] = [1, 1, -1]
        coeffs = synthesize_coeffs(vote_pattern(Method.UNCODED, other), rp)
        y = superpose(coeffs, np.ones((3, 1), complex), 0.0)
        ctx = flat_context(Method.UNCODED, K)
        assert decode(y, ctx)[2] == 1

    def test_indexed_two_user_tie_bits(self):
        """Indices 3 and 5 agree on bit 0 only; the other bits are exact
        metric ties (equal energy on both sides up to rounding)."""
        K = 8
        rp = radius_param(K)
        v1 = np.array([1, 1, -1])  # index 3
        v2 = np.array([1, -1, 1])  # index 5
        coeffs = synthesize_coeffs(vote_pattern(Method.INDEXED, np.stack([v1, v2])), rp)
        y = superpose(coeffs, np.ones((2, 1), complex), 0.0)
        dec = decode(y, flat_context(Method.INDEXED, K))
        assert dec[0] == 1  # both voted +1 on bit 0
        # bits 1 and 2 split the two occupied slots one per side
        from airmv.huffman import poly_eval, root_phases

        mags = np.abs(poly_eval(y, rp.d * root_phases(K))) ** 2
        for bit in (1, 2):
            plus = mags[(np.arange(K) >> bit) & 1 == 1].sum()
            minus = mags[(np.arange(K) >> bit) & 1 == 0].sum()
            assert abs(plus - minus) < 1e-10 * (plus + minus)


def count_estimates(y, ctx):
    """The uncoded detector's de-biased counts (e - bias) / scale at its
    radius-d (plus) and radius-1/d (minus) probes, from y's energies there."""
    form = detector_form(ctx)
    r = y @ powers(form.points, y.shape[-1])
    u = (r.real**2 + r.imag**2 - form.bias) / form.scale
    return u[..., : ctx.n_votes], u[..., ctx.n_votes :]


class TestCountEstimates:
    def test_noiseless_opposite_point_zero(self):
        K = 4
        ctx = flat_context(Method.UNCODED, K)
        votes = np.array([1, -1, 1, 1])
        y = noiseless_receive(Method.UNCODED, votes, K)
        u_plus, u_minus = count_estimates(y, ctx)
        # wherever the single user voted +1 the radius-1/d probe sits on its zero
        assert np.abs(u_minus[votes == 1]).max() < 1e-12
        assert np.abs(u_plus[votes == -1]).max() < 1e-12

    def test_unbiasedness_under_fading_and_noise(self):
        K, U, n_plus = 8, 10, 7
        pdp_cfg = PdpConfig(3, 0.9)
        sigma2 = 0.1
        rp = radius_param(K)
        ctx = DecoderContext(Method.UNCODED, rp, pdp=pdp_cfg, sigma2=sigma2)
        draws = 30_000
        rng = np.random.default_rng(77)
        votes = rng.integers(0, 2, size=(draws, U, K)) * 2 - 1
        votes[:, :n_plus, 0] = 1
        votes[:, n_plus:, 0] = -1
        coeffs = synthesize_coeffs(vote_pattern(Method.UNCODED, votes), rp)
        h = sample_channel(pdp_cfg, U, rng, trials=draws)
        y = superpose(coeffs, h, sigma2, rng)
        u_plus, u_minus = count_estimates(y, ctx)
        for values, target in ((u_plus[:, 0], n_plus), (u_minus[:, 0], U - n_plus)):
            se = values.std(ddof=1) / math.sqrt(draws)
            assert abs(values.mean() - target) < 3 * se


class TestInvariances:
    def test_global_rotation_leaves_decisions(self):
        """Detectors read only |R|^2, so a received-side phase is invisible."""
        rng = np.random.default_rng(31)
        K, U = 8, 5
        pdp_cfg = PdpConfig(3, 0.8)
        for method in Method:
            rp = radius_param(K)
            M = method.votes_per_codeword(K)
            votes = rng.integers(0, 2, size=(64, U, M)) * 2 - 1
            coeffs = synthesize_coeffs(vote_pattern(method, votes), rp)
            h = sample_channel(pdp_cfg, U, rng, trials=64)
            y = superpose(coeffs, h, 0.05, rng)
            ctx = (
                DecoderContext(method, rp, pdp=pdp_cfg, sigma2=0.05)
                if method is Method.UNCODED
                else DecoderContext(method, rp)
            )
            base = decode(y, ctx)
            theta = rng.uniform(0, 2 * np.pi, size=(64, 1))
            np.testing.assert_array_equal(decode(np.exp(1j * theta) * y, ctx), base)

    def test_single_user_phase_rotation(self):
        rng = np.random.default_rng(32)
        K = 8
        for method in Method:
            rp = radius_param(K)
            M = method.votes_per_codeword(K)
            ctx = (
                DecoderContext(method, rp, pdp=PdpConfig(2, 0.6), sigma2=0.0)
                if method is Method.UNCODED
                else DecoderContext(method, rp)
            )
            for _ in range(40):
                votes = rng.integers(0, 2, M) * 2 - 1
                c = synthesize_coeffs(vote_pattern(method, votes), rp)
                h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                base = decode(superpose(c[None], h[None], 0.0), ctx)
                rot = h * np.exp(1j * rng.uniform(0, 2 * np.pi))
                np.testing.assert_array_equal(
                    decode(superpose(c[None], rot[None], 0.0), ctx), base
                )

    def test_common_delay_differential_indexed(self):
        """A shared pure delay z^delta scales every radius-d probe energy by
        d^(2 delta), so it scales the detector's form value by d^(2 delta) and
        keeps each decision the votes do not tie. Where the vote sum is 0 the
        form value is 0 up to rounding, and its sign says nothing."""
        rng = np.random.default_rng(33)
        K, U, L_e = 8, 4, 4
        for method in (Method.DIFFERENTIAL, Method.INDEXED):
            rp = radius_param(K)
            ctx = DecoderContext(method, rp)
            form = detector_form(ctx)
            M = method.votes_per_codeword(K)
            votes = rng.integers(0, 2, size=(32, U, M)) * 2 - 1
            coeffs = synthesize_coeffs(vote_pattern(method, votes), rp)
            untied = votes.sum(axis=1) != 0

            def receive(delta):
                channel = np.zeros((32, U, L_e), complex)
                channel[..., delta] = 1.0
                y = superpose(coeffs, channel, 0.0)
                r = y @ powers(form.points, y.shape[-1])
                e = r.real**2 + r.imag**2
                return e, ((e - form.bias) / form.scale) @ form.signs, decode(y, ctx)

            energies, value, base = receive(0)
            for delta in range(1, L_e):
                gain = rp.d ** (2 * delta)
                _, delayed, decided = receive(delta)
                tol = 1e-12 * gain * energies.max(axis=-1, keepdims=True)
                assert np.all(np.abs(delayed - gain * value) <= tol)
                np.testing.assert_array_equal(decided[untied], base[untied])

    def test_decoder_sees_no_channel(self):
        """Coded contexts cannot even carry channel knowledge."""
        rp = radius_param(4)
        ctx = DecoderContext(Method.DIFFERENTIAL, rp)
        assert ctx.pdp is None and ctx.sigma2 is None


class TestSharedSequenceMirror:
    def test_k2_indexed_is_negated_differential(self):
        """On one received sequence the two K=2 detectors probe the same two
        points in opposite order, so their outputs are exact negatives; fed
        through their own encoders they agree end to end."""
        rng = np.random.default_rng(34)
        rp = radius_param(2)
        ctx_d = DecoderContext(Method.DIFFERENTIAL, rp)
        ctx_i = DecoderContext(Method.INDEXED, rp)
        y = rng.standard_normal((100, 3)) + 1j * rng.standard_normal((100, 3))
        np.testing.assert_array_equal(decode(y, ctx_i), -decode(y, ctx_d))
        for vote in (-1, 1):
            y_d = noiseless_receive(Method.DIFFERENTIAL, [vote], 2)
            y_i = noiseless_receive(Method.INDEXED, [vote], 2)
            assert decode(y_d, ctx_d) == np.array([vote])
            assert decode(y_i, ctx_i) == np.array([vote])


def test_indexed_scale_grows_as_k_squared_d_k():
    """Reading of the closed form: quadratic-in-K times d^K growth."""
    from airmv.huffman import RadiusParam

    d = 1.2
    vals = {K: signal_scale_indexed(RadiusParam(K, d), d) for K in (4, 8, 16)}
    eta = lambda K: 1 / (d**K + d**-K)
    for K in (4, 8, 16):
        ref = eta(K) * (K + 1) * (d - 1 / d) ** 2 * d**K * K**2
        assert vals[K] == pytest.approx(ref, rel=1e-12)
    assert vals[16] / vals[8] == pytest.approx(
        (eta(16) * 17 * 256 * d**16) / (eta(8) * 9 * 64 * d**8), rel=1e-12
    )


def test_all_negative_votes_leave_no_plus_energy():
    """Every transmitted polynomial vanishes at the radius-d probes, so the
    de-biased positive-count estimate is rounding dust at most."""
    K, U = 4, 3
    rp = radius_param(K)
    ctx = DecoderContext(Method.UNCODED, rp, pdp=PdpConfig(1), sigma2=0.0)
    coeffs = synthesize_coeffs(np.zeros((U, K), dtype=bool), rp)  # all outer
    y = superpose(coeffs, np.ones((U, 1), complex), 0.0)
    u_plus, _ = count_estimates(y, ctx)
    assert np.abs(u_plus).max() < 1e-20


def test_decide_is_each_detectors_rule():
    """On recorded energies, `DetectorForm.decide` gives the per-method
    rules: the sign of the difference of the uncoded count estimates, of the
    even minus the odd slot energy, and of the bit-signed sum of the indexed
    slot energies, for every vote position and for a subset."""
    K, L_e, sigma2 = 8, 3, 0.2
    pdp_cfg = PdpConfig(L_e, 0.7)
    rp = radius_param(K)
    rng = np.random.default_rng(35)
    y = rng.standard_normal((300, K + L_e)) + 1j * rng.standard_normal((300, K + L_e))
    for method in Method:
        ctx = DecoderContext.for_link(method, K, pdp_cfg, sigma2)
        M = ctx.n_votes
        for positions in (None, [M - 1, 0]):
            pos = np.arange(M) if positions is None else np.array(positions)
            e = np.abs(poly_eval(y, probe_points(method, rp, positions))) ** 2
            if method is Method.UNCODED:
                u_plus, u_minus = (
                    (half - noise_power(da, sigma2, K, L_e))
                    / (signal_scale_uncoded(rp, da) * channel_power(da, pdp_cfg))
                    for da, half in ((rp.d, e[:, : pos.size]),
                                     (1.0 / rp.d, e[:, pos.size :]))
                )
                expected = np.sign(u_plus - u_minus)
                if positions is None:
                    est_plus, est_minus = count_estimates(y, ctx)
                    np.testing.assert_allclose(est_plus, u_plus,
                                               rtol=1e-9, atol=1e-12)
                    np.testing.assert_allclose(est_minus, u_minus,
                                               rtol=1e-9, atol=1e-12)
            elif method is Method.DIFFERENTIAL:
                expected = np.sign(e[:, 0::2] - e[:, 1::2])
            else:
                bits = (np.arange(K)[:, np.newaxis] >> pos) & 1
                expected = np.sign(np.stack(
                    [e[:, b == 1].sum(axis=1) - e[:, b == 0].sum(axis=1)
                     for b in bits.T], axis=1,
                ))
            assert expected.shape == (300, pos.size)
            form = detector_form(ctx, positions)
            # Only the uncoded form de-biases; the coded forms skip it.
            assert form.debias == (method is Method.UNCODED)
            np.testing.assert_array_equal(form.decide(e), expected)


@pytest.mark.parametrize("K", [2, 8, 128, 1024])
@pytest.mark.parametrize("method", list(Method))
def test_probe_variances_are_the_covariance_diagonals(method, K):
    """`probe_variances` gives each probe's C_H[p, p] and C_W[p, p] in
    `probe_points` order, to 1e-12 relative: the diagonal of the taps'
    covariance V^T diag(p) conj(V), V[l, p] = z_p^l, and of `probe_moments`'
    C_W, at every vote and at the last one. Past 64 probes the references
    are formed at every few probes only (the diagonal of a covariance at a
    subset is its diagonal there)."""
    pdp_cfg, sigma2 = PdpConfig(5, 0.7), 0.3
    rp = radius_param(K)
    for positions in (None, [method.votes_per_codeword(K) - 1]):
        points = probe_points(method, rp, positions)
        chan, noise = probe_variances(method, rp, pdp_cfg, sigma2, positions)
        assert chan.shape == noise.shape == points.shape
        every = slice(None, None, -(-points.size // 64))
        v = powers(points[every], pdp_cfg.L_e)
        c_h = (v.T * pdp_cfg.taps) @ v.conj()
        c_w = probe_moments(points[every], K, pdp_cfg, sigma2)
        np.testing.assert_allclose(chan[every], c_h.diagonal().real, rtol=1e-12, atol=0)
        np.testing.assert_allclose(noise[every], c_w.diagonal().real, rtol=1e-12, atol=0)
