"""The probe-domain engine against the time-domain chain.

The chain is what the engine replaces: synthesize every codeword
(`synthesize_coeffs(vote_pattern(...))`), convolve it with its channel and
add noise (`superpose`), then evaluate and detect (`decode`). The engine
draws the probe values themselves, in the probe basis; the exact checks lift
those draws to taps and noise samples that take them at the probes and must
agree to rounding, and the moment checks hold their law against the
per-user chain.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from airmv import aggregation, simulate
from airmv.aggregation import (ProbeAggregator, pack_votes, probe_tables, scored_column,
                               signal_power, table_product, table_rows)
from airmv.channel import PdpConfig, complex_normal, pdp, sample_channel, superpose
from airmv.decoding import decode, powers, probe_moments, probe_points
from airmv.encoding import Method, vote_pattern
from airmv.huffman import radius_param, root_phases, synthesize_coeffs, zero_form_eval
from airmv.median import run_median
from airmv.simulate import (
    _count_mv_errors,
    _random_votes,
    mv_error_batch,
    simulate_cer,
)


def pack(votes):
    """The packed votes every backend takes, of +/-1 votes."""
    return pack_votes(np.asarray(votes) > 0)


def unpack(packed, M):
    """The +/-1 votes of (..., ceil(M / 8)) packed votes."""
    bits = np.unpackbits(packed, axis=-1, count=M, bitorder="little")
    return 2 * bits.astype(int) - 1


def time_domain(method, K, pdp_cfg, sigma2, votes, rng, engine):
    """Received samples (n, K + L_e) of the time-domain chain on the
    `engine`'s draws, with every user's codeword through its own taps.

    An engine whose users are each nonzero at one probe (every indexed
    engine, and every engine that decides one vote) draws each probe's
    signal value r_p, not each user's channel, and only at the (trial,
    probe) cells some user is nonzero at, in C order. A sender nonzero at
    probe p gets the channel value c_p conj(P_u(z_p)) there, c_p = r_p /
    sum_u |P_u(z_p)|^2 over the probe's senders (0 where that sum is 0), so
    that the senders sum to r_p; its taps are the least-norm ones with that
    value, pinv of the probe's one Vandermonde row. Any other engine draws
    each user's taps, which the chain uses as drawn. The noise samples are
    the least-norm ones that take the engine's noise values at its probes;
    an indexed engine's noise at the K slots is the DFT-matrix image of its
    K eigen-draws of the circulant C_W.
    """
    n, U, M = votes.shape
    rp, L = radius_param(K), pdp_cfg.L_e
    coeffs = synthesize_coeffs(vote_pattern(method, votes), rp)
    v = powers(engine.form.points, K + L)
    if engine.one_probe_per_user:
        P = v.shape[1]
        a = coeffs @ v[: K + 1]
        probe = np.abs(a).argmax(axis=-1)
        own = np.take_along_axis(a, probe[..., np.newaxis], axis=-1)[..., 0]
        mine = probe[..., np.newaxis] == np.arange(P)
        power = (np.abs(own[..., np.newaxis]) ** 2 * mine).sum(axis=1)
        c_h = (np.abs(v[:L]) ** 2).T @ pdp_cfg.taps  # diag(C_H)
        cells = np.flatnonzero(power > 0)
        scale = np.sqrt(c_h[cells % P] / 2 * power.ravel()[cells])
        r = np.zeros((n, P), dtype=complex)
        r.ravel()[cells] = complex_normal(cells.size, scale, rng)
        c = np.divide(r, power, out=np.zeros_like(r), where=power > 0)
        value = np.take_along_axis(c, probe, axis=-1) * own.conj()
        rows = np.stack([np.linalg.pinv(v[:L, [p]])[0] for p in range(P)])
        h = value[..., np.newaxis] * rows[probe]
    else:
        h = sample_channel(pdp_cfg, U, rng, trials=n)
    y = superpose(coeffs, h)
    if sigma2 > 0:
        if method is Method.INDEXED:
            w = complex_normal((n, K), engine.noise_scale, rng) @ _dft(K).T
        else:
            scale, basis = engine.noise_factor
            w = complex_normal((n, scale.size), scale, rng) @ basis
        y += w @ np.linalg.pinv(v)
    return y


def _dft(K):
    """F[p, k] = e^{2 pi i p k / K}: C_W at the K indexed slots is F diag(c)
    F^H."""
    k = np.arange(K)
    return np.exp(2j * np.pi / K * (np.outer(k, k) % K))


def oracle(method, K, pdp_cfg, sigma2, votes, rng, positions=None):
    """(R at the engine's probes, decisions) from the time-domain chain on
    the engine's draws."""
    engine = ProbeAggregator(method, K, pdp_cfg, sigma2, positions)
    points = probe_points(method, radius_param(K), positions)
    y = time_domain(method, K, pdp_cfg, sigma2, votes, rng, engine)
    r = y @ powers(points, y.shape[-1])
    columns = np.arange(votes.shape[-1]) if positions is None else [positions]
    return r, decode(y, engine.ctx)[:, columns]


CASES = [
    # (method, K, U, L_e, sigma2)
    (Method.UNCODED, 8, 5, 3, 0.1),
    (Method.DIFFERENTIAL, 8, 5, 3, 0.1),
    (Method.INDEXED, 8, 5, 3, 0.1),
    (Method.UNCODED, 2, 4, 2, 0.3),
    (Method.DIFFERENTIAL, 2, 4, 2, 0.3),
    (Method.INDEXED, 2, 4, 2, 0.3),
    (Method.UNCODED, 32, 6, 5, 0.1),       # 2^32 patterns, four vote bytes
    (Method.DIFFERENTIAL, 32, 6, 5, 0.1),  # two vote bytes
    (Method.INDEXED, 512, 3, 2, 0.1),      # 9 votes: a two-byte codeword index
    (Method.UNCODED, 8, 1, 3, 0.1),
    (Method.INDEXED, 16, 1, 1, 0.1),
    (Method.UNCODED, 8, 5, 3, 0.0),        # snr=inf draws no noise
    (Method.DIFFERENTIAL, 16, 5, 3, 0.0),
    (Method.INDEXED, 16, 5, 3, 0.0),
    (Method.UNCODED, 16, 5, 2, 0.1),       # vote 0: 2 probes, 2 taps
    (Method.DIFFERENTIAL, 16, 5, 1, 0.1),
    (Method.INDEXED, 2, 4, 3, 0.3),        # 2 probes < 3 taps
]


@pytest.mark.parametrize("method,K,U,L_e,sigma2", CASES)
@pytest.mark.parametrize("positions", [None, 0])
def test_matches_time_domain_oracle(method, K, U, L_e, sigma2, positions):
    n = 300 if K < 512 else 40
    pdp_cfg = PdpConfig(L_e, 0.8)
    M = method.votes_per_codeword(K)
    votes = np.random.default_rng(K + U).integers(0, 2, size=(n, U, M)) * 2 - 1
    engine = ProbeAggregator(method, K, pdp_cfg, sigma2, positions)
    r = engine.received(pack(votes), np.random.default_rng(5))
    r_ref, d_ref = oracle(method, K, pdp_cfg, sigma2, votes,
                          np.random.default_rng(5), positions)
    assert r.shape == r_ref.shape
    np.testing.assert_allclose(r, r_ref, rtol=0, atol=1e-11 * np.abs(r_ref).max())
    decisions = engine.aggregate(pack(votes), np.random.default_rng(5))
    assert decisions.shape == (n, M if positions is None else 1)
    np.testing.assert_array_equal(decisions, d_ref)


def test_draws_match_the_time_domain_chain():
    """The engine leaves the rng where the time-domain chain leaves it, under
    both draw rules: one normal per probe (indexed, at every position) and
    each user's channel (differential, all positions)."""
    cases = [(Method.INDEXED, None), (Method.INDEXED, 0), (Method.DIFFERENTIAL, None)]
    for sigma2, (method, positions) in itertools.product((0.2, 0.0), cases):
        M = method.votes_per_codeword(8)
        votes = np.random.default_rng(0).integers(0, 2, size=(50, 4, M)) * 2 - 1
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        engine = ProbeAggregator(method, 8, PdpConfig(2), sigma2, positions)
        assert engine.one_probe_per_user == (method is Method.INDEXED)
        engine.aggregate(pack(votes), a)
        oracle(method, 8, PdpConfig(2), sigma2, votes, b, positions)
        assert a.random() == b.random()


# (method, K, positions, L_e, sigma2, fixed (U, M) votes): the vote-0
# engines and both indexed ones draw one normal per probe, from sum_u
# |P_u(z_p)|^2 (indexed: m_p |T_pp|^2, with m_c of 3, 1 and 2); all of
# uncoded K=2 draws each user's channel in the probe basis (noiseless, it
# sees C_H's cross terms, since each user is nonzero at two probes).
_REPEATED = 2 * ((np.array([[0], [0], [0], [3], [5], [5]]) >> np.arange(3)) & 1) - 1
MOMENT_CASES = [
    (Method.UNCODED, 8, 0, 4, 0.5,
     np.random.default_rng(2).integers(0, 2, size=(4, 8)) * 2 - 1),
    (Method.DIFFERENTIAL, 8, 0, 4, 0.5,
     np.random.default_rng(3).integers(0, 2, size=(4, 4)) * 2 - 1),
    (Method.UNCODED, 2, None, 5, 0.0, np.array([[1, 1], [1, -1], [-1, 1]])),
    (Method.INDEXED, 8, None, 3, 0.5, _REPEATED),
    (Method.INDEXED, 8, 0, 3, 0.5, _REPEATED),
]
N_MOMENT = 100_000


def _moments(r):
    """Sample E R_p conj(R_q) and the standard errors of its real and
    imaginary parts, each (P, P)."""
    x = r[:, :, np.newaxis] * r[:, np.newaxis, :].conj()
    root_n = math.sqrt(r.shape[0])
    return x.mean(axis=0), x.real.std(axis=0) / root_n, x.imag.std(axis=0) / root_n


@lru_cache(maxsize=None)
def _chain_moments(case_index):
    """Second moments of the per-user time-domain chain at the case's probes:
    `synthesize_coeffs` -> `sample_channel` -> `superpose`, N_MOMENT draws."""
    method, K, positions, L_e, sigma2, votes = MOMENT_CASES[case_index]
    U = votes.shape[0]
    rng = np.random.default_rng(11)
    coeffs = synthesize_coeffs(vote_pattern(method, votes), radius_param(K))
    coeffs = np.broadcast_to(coeffs, (N_MOMENT, U, K + 1))
    h = sample_channel(PdpConfig(L_e, 0.5), U, rng, trials=N_MOMENT)
    y = superpose(coeffs, h, sigma2, rng)
    points = probe_points(method, radius_param(K), positions)
    return _moments(y @ powers(points, K + L_e))


def moment_z(case_index, mutate_build=None, mutate_draw=None):
    """Largest |z| between the engine's and the chain's E R_p conj(R_q),
    real and imaginary parts, over every probe pair. The optional mutations
    patch the engine's construction or its draw."""
    method, K, positions, L_e, sigma2, votes = MOMENT_CASES[case_index]
    with pytest.MonkeyPatch.context() as patch:
        if mutate_build:
            mutate_build(patch)
        engine = ProbeAggregator(method, K, PdpConfig(L_e, 0.5), sigma2, positions)
    batch = np.broadcast_to(votes, (N_MOMENT,) + votes.shape)
    with pytest.MonkeyPatch.context() as patch:
        if mutate_draw:
            mutate_draw(patch)
        r = engine.received(pack(batch), np.random.default_rng(12))
    mean, se_re, se_im = _moments(r)
    ref, ref_re, ref_im = _chain_moments(case_index)
    z = []
    for diff, a, b in ((mean.real - ref.real, se_re, ref_re),
                       (mean.imag - ref.imag, se_im, ref_im)):
        se = np.hypot(a, b)
        # Pairs that are exactly zero on both sides (a probe on every
        # sender's zero, noiseless) carry no error to scale.
        assert np.all(diff[se == 0] == 0)
        z.append(np.abs(diff[se > 0] / se[se > 0]))
    return np.concatenate(z).max()


@pytest.mark.parametrize("case_index", range(len(MOMENT_CASES)))
def test_second_moments_match_the_per_user_chain(case_index):
    assert moment_z(case_index) <= 5


def _reversed_taps(patch):
    patch.setattr(PdpConfig, "taps", property(lambda cfg: pdp(cfg.L_e, cfg.rho)[::-1]))


def _diagonal_covariances(patch):
    eigh = np.linalg.eigh
    patch.setattr(np.linalg, "eigh", lambda a: eigh(np.diag(np.diag(a))))


def _reversed_tap_basis(patch):
    patch.setattr(aggregation, "powers", lambda points, n: powers(points, n)[::-1])


def _counts_for_their_roots(patch):
    patch.setattr(np, "sqrt", lambda x, out=None: x)


def _power_of_the_sum(patch):
    def power(method, tables, packed):
        if method is Method.INDEXED:
            counts = aggregation._codeword_counts(packed, tables[0].size)
            return np.abs(counts * tables[0]) ** 2
        return np.abs(aggregation.table_product(tables, packed).sum(axis=1)) ** 2

    patch.setattr(aggregation, "_signal_power", power)


def _unfolded_noise(patch):
    def eigenvalues(K, L_e, d, sigma2):
        return sigma2 * (d * d) ** np.arange(K)

    patch.setattr(aggregation, "_circulant_noise", eigenvalues)


def _no_dft(patch):
    patch.setattr(np.fft, "ifft", lambda a, *args, **kwargs: a)


# The one-probe draw scales each live cell by the root of its variance, so
# m_c-not-sqrt draws variance C_H[p, p]^2 (sum_u |P_u|^2)^2 / 2. The only
# covariance a build factors by `eigh` is the uncoded and differential
# engines' noise C_W (the taps need none), so diagonal-C_W draws the noise
# independently at each probe. The reversed tap basis reads tap l at
# z^(L_e - 1 - l), which only the multi-vote rule's taps meet.
# The other noise mutations reach only the indexed draw: its eigenvalues
# without the n >= K terms folded in, and its eigen-draws at the probes
# without the DFT, independent probes.
@pytest.mark.parametrize("mutation", [
    {"mutate_build": _reversed_taps},           # a wrong tap profile
    {"mutate_build": _diagonal_covariances},    # independent noisy probes
    {"mutate_draw": _counts_for_their_roots},   # variance, not its root
    {"mutate_draw": _power_of_the_sum},         # |sum_u P_u|^2
    {"mutate_build": _unfolded_noise},          # C_W's eigenvalues unfolded
    {"mutate_draw": _no_dft},                   # indexed noise without its DFT
    {"mutate_build": _reversed_tap_basis},      # taps read at the wrong powers
], ids=["wrong-taps", "diagonal-C_W", "m_c-not-sqrt", "power-of-the-sum",
        "unfolded-C_W", "no-dft", "reversed-tap-basis"])
def test_moment_check_catches_a_wrong_law(mutation):
    assert max(moment_z(i, **mutation) for i in range(len(MOMENT_CASES))) > 5


@pytest.mark.parametrize("method,K,positions,L_e,sigma2", [
    (Method.UNCODED, 8, 0, 4, 0.5),         # fewer probes than taps
    (Method.DIFFERENTIAL, 16, 0, 5, 0.1),
    (Method.UNCODED, 512, 0, 8, 2.0),       # d near 1: C_H near-singular
    (Method.INDEXED, 2, None, 3, 0.3),      # n = 0, 2, 4 fold onto k = 0
    (Method.UNCODED, 8, None, 4, 0.5),      # more probes than taps
    (Method.INDEXED, 8, None, 3, 0.5),
    (Method.UNCODED, 8, 0, 1, 0.5),         # flat: 2 noise rows for K + 1 samples
    (Method.UNCODED, 8, None, 3, 0.5),      # P = 16 > K + L_e = 11
    (Method.INDEXED, 2, None, 1, 0.3),
    (Method.INDEXED, 32, 0, 5, 0.1),
    (Method.INDEXED, 512, None, 8, 0.3),
    (Method.INDEXED, 1024, None, 5, 0.3),
])
def test_factors_reproduce_the_tap_covariances(method, K, positions, L_e, sigma2):
    """basis^T diag(2 scale^2) conj(basis) is the covariance of the taps and
    of the noise samples seen at the probes. The channel factor is the taps'
    own, L_e rows: sqrt(p_l / 2) and the Vandermonde rows z_p^l. The noise
    factor has as many rows as its rank allows, min(P, K + L_e). An engine
    whose users are each nonzero at one probe (every indexed engine, and
    every engine that decides one vote) reads only the channel's variances
    at the probes: `channel_diagonal` is diag(C_H), and it builds no channel
    factor. An indexed engine builds no noise basis either: its noise
    factor is the DFT matrix F, with 2 noise_scale^2 the closed-form
    eigenvalues c_k = sigma2 sum d^{2n} (n = k mod K) of the circulant
    C_W."""
    engine = ProbeAggregator(method, K, PdpConfig(L_e, 0.5), sigma2, positions)
    points = probe_points(method, radius_param(K), positions)
    v = powers(points, K + L_e)
    taps = pdp(L_e, 0.5)
    c_h = (v[:L_e].T * taps) @ v[:L_e].conj()
    c_w = sigma2 * (v.T @ v.conj())
    assert engine.one_probe_per_user == (
        method is Method.INDEXED or positions == 0 or method.votes_per_codeword(K) == 1)
    if engine.one_probe_per_user:
        assert not hasattr(engine, "channel_factor")
        np.testing.assert_allclose(engine.channel_diagonal, c_h.diagonal().real,
                                   rtol=1e-12, atol=0)
        pairs = []
    else:
        assert not hasattr(engine, "channel_diagonal")
        pairs = [(engine.channel_factor, L_e, c_h)]
    if method is Method.INDEXED:
        assert not hasattr(engine, "noise_factor")
        F = _dft(K)
        got = (F * (2 * engine.noise_scale**2)) @ F.conj().T
        np.testing.assert_allclose(got, c_w, rtol=0, atol=1e-12 * np.abs(c_w).max())
    else:
        pairs.append((engine.noise_factor, min(points.size, K + L_e), c_w))
    for (scale, basis), n_rows, cov in pairs:
        assert basis.shape == (n_rows, points.size)
        got = (basis.T * (2 * scale**2)) @ basis.conj()
        np.testing.assert_allclose(got, cov, rtol=0, atol=1e-12 * np.abs(cov).max())


@pytest.mark.parametrize("sigma2", [0.2, 0.0])
@pytest.mark.parametrize("positions", [None, 1])
def test_indexed_draws_senders_then_noise(sigma2, positions):
    """An indexed call draws one complex normal per (trial, probe) cell that
    some user sends to, in C order (all real parts, then all imaginary),
    scaled by sqrt(C_H[c, c] m_c |P_c(z_c)|^2 / 2), and then, only when
    sigma2 > 0, n K noise normals likewise, whose unnormalized inverse DFT
    along the probes is the noise. The rng ends where a replay of exactly
    those draws ends, and the values are the replay's."""
    K, n, U = 16, 40, 3
    M = Method.INDEXED.votes_per_codeword(K)
    votes = np.random.default_rng(1).integers(0, 2, size=(n, U, M)) * 2 - 1
    engine = ProbeAggregator(Method.INDEXED, K, PdpConfig(3), sigma2, positions)
    rng, replay = np.random.default_rng(9), np.random.default_rng(9)
    r = engine.received(pack(votes), rng)

    codeword = ((votes > 0) << np.arange(M)).sum(axis=-1)
    counts = np.zeros((n, K), int)
    np.add.at(counts, (np.arange(n)[:, np.newaxis], codeword), 1)
    cells = np.flatnonzero(counts)
    assert 0 < cells.size < n * K
    signal = replay.standard_normal(cells.size) + 1j * replay.standard_normal(cells.size)
    expected = np.zeros(n * K, dtype=complex)
    power = np.abs(engine.tables[0][cells % K]) ** 2 * counts.ravel()[cells]
    expected[cells] = np.sqrt(engine.channel_diagonal[cells % K] * power / 2) * signal
    expected = expected.reshape(n, K)
    if sigma2 > 0:
        noise = replay.standard_normal((n, K)) + 1j * replay.standard_normal((n, K))
        expected += (engine.noise_scale * noise) @ _dft(K).T
    assert rng.bit_generator.state == replay.bit_generator.state
    assert np.all(r.ravel()[np.setdiff1d(np.arange(n * K), cells)] == 0) == (sigma2 == 0)
    np.testing.assert_allclose(r, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("sigma2", [0.2, 0.0])
@pytest.mark.parametrize("method, K", [
    (Method.UNCODED, 8), (Method.UNCODED, 2), (Method.DIFFERENTIAL, 8),
    (Method.DIFFERENTIAL, 2),
])
def test_a_silent_probe_draws_no_normal(method, K, sigma2):
    """Vote 0 with every user on one side (n_plus = 0 or U) puts the probe
    on their shared zero silent in every trial: the engine draws its
    signal normals at the live cells only, in C order, and that probe
    keeps the noise alone, an exact 0 when noiseless. The rng ends where
    a replay of the live cells' normals and then the noise ends."""
    n, U = 30, 5
    M = method.votes_per_codeword(K)
    engine = ProbeAggregator(method, K, PdpConfig(3, 0.8), sigma2, positions=0)
    for n_plus in (0, U):
        votes = np.random.default_rng(n_plus).integers(0, 2, size=(n, U, M)) * 2 - 1
        votes[:, :, 0] = np.repeat([1, -1], [n_plus, U - n_plus])
        rng, replay = np.random.default_rng(9), np.random.default_rng(9)
        r = engine.received(pack(votes), rng)

        var = signal_power(method, engine.tables, pack(votes)) * engine.channel_diagonal
        silent = (var == 0).all(axis=0)
        assert silent.sum() == 1 and not (var == 0)[:, ~silent].any()
        cells = np.flatnonzero(var > 0)
        assert cells.size == n * (engine.form.points.size - 1)
        signal = complex_normal(cells.size, np.sqrt(var.ravel()[cells] / 2), replay)
        expected = np.zeros(var.shape, dtype=complex)
        if sigma2 > 0:
            scale, basis = engine.noise_factor
            expected = complex_normal((n, scale.size), scale, replay) @ basis
        expected.ravel()[cells] += signal
        assert rng.bit_generator.state == replay.bit_generator.state
        np.testing.assert_array_equal(r, expected)
        assert np.all((r[:, silent] == 0) == (sigma2 == 0))


@pytest.mark.parametrize("sigma2", [0.2, 0.0])
@pytest.mark.parametrize("method, K", [
    (Method.UNCODED, 2), (Method.UNCODED, 8), (Method.DIFFERENTIAL, 4),
    (Method.DIFFERENTIAL, 8),
])
def test_joint_engine_draws_each_users_taps(method, K, sigma2):
    """An engine deciding several uncoded or differential votes consumes
    exactly n U L_e complex channel normals, CN(0, p_l) taps in C order of
    (n, U, L_e) as `sample_channel` draws them, before its noise: the rng
    ends where a replay of those taps and the noise ends. Uncoded K = 2 and
    differential K = 4 have 4 probes, fewer than the 6 taps."""
    n, U, L_e = 20, 4, 6
    engine = ProbeAggregator(method, K, PdpConfig(L_e, 0.6), sigma2)
    assert not engine.one_probe_per_user
    votes = np.random.default_rng(K).integers(0, 2, size=(n, U, engine.ctx.n_votes)) * 2 - 1
    rng, replay = np.random.default_rng(3), np.random.default_rng(3)
    engine.received(pack(votes), rng)
    sample_channel(PdpConfig(L_e, 0.6), U, replay, trials=n)
    if sigma2 > 0:
        replay.standard_normal((2, n, engine.noise_factor[1].shape[0]))
    assert rng.bit_generator.state == replay.bit_generator.state


def multi_vote_reference(engine, votes, rng):
    """R(z_p) of the multi-vote rule as a per-user product: each user's
    channel at the probes, (h @ basis), times its codeword values, summed
    over the users; then the noise."""
    packed = pack(votes)
    n, U, _ = packed.shape
    scale, basis = engine.channel_factor
    h = complex_normal((n * U, scale.size), scale, rng)
    hz = (h @ basis).reshape(n, U, -1)
    r = np.einsum("nup,nup->np", hz, table_product(engine.tables, packed))
    if engine.sigma2 > 0:
        scale, basis = engine.noise_factor
        r += complex_normal((n, basis.shape[0]), scale, rng) @ basis
    return r


@pytest.mark.parametrize("sigma2", [0.1, 0.0])
@pytest.mark.parametrize("method, K", [
    (Method.UNCODED, 2), (Method.UNCODED, 8), (Method.UNCODED, 32),
    # A differential codeword at K = 2 carries one vote: the one-probe rule.
    (Method.DIFFERENTIAL, 4), (Method.DIFFERENTIAL, 8), (Method.DIFFERENTIAL, 32),
])
def test_multi_vote_signal_contracts_the_users_first(method, K, sigma2):
    """Contracting each trial's channel draw with its codeword rows before
    the probe basis reassociates the sum only: the per-user product's
    values to 1e-12 relative, from the same draws."""
    engine = ProbeAggregator(method, K, PdpConfig(5), sigma2)
    assert not engine.one_probe_per_user
    votes = np.random.default_rng(K).integers(0, 2, size=(60, 7, engine.ctx.n_votes)) * 2 - 1
    rng, replay = np.random.default_rng(4), np.random.default_rng(4)
    got = engine.received(pack(votes), rng)
    expected = multi_vote_reference(engine, votes, replay)
    assert rng.bit_generator.state == replay.bit_generator.state
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())


def test_indexed_engines_build_without_eigh(monkeypatch):
    """No eigendecomposition and no probe covariance: an indexed engine
    builds from the closed forms and draws, at any K and positions, while
    the uncoded and differential engines still factor their noise's."""
    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(aggregation, "probe_moments", forbidden)
    for K, positions in itertools.product((2, 8, 128, 1024), (None, 0)):
        engine = ProbeAggregator(Method.INDEXED, K, PdpConfig(5), 0.1, positions)
        M = Method.INDEXED.votes_per_codeword(K)
        votes = np.random.default_rng(K).integers(0, 2, size=(6, 4, M)) * 2 - 1
        assert engine.aggregate(pack(votes), np.random.default_rng(0)).shape[0] == 6
    for method in (Method.UNCODED, Method.DIFFERENTIAL):
        with pytest.raises(AssertionError, match="called"):
            ProbeAggregator(method, 8, PdpConfig(5), 0.1)


def test_no_build_factors_a_channel_covariance(monkeypatch):
    """The channel needs no eigendecomposition: an uncoded or differential
    build runs `eigh` once, on the noise covariance C_W of `probe_moments`,
    and an indexed build never, at every vote and at vote 0."""
    seen, eigh = [], np.linalg.eigh

    def recorded(a):
        seen.append(a)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    pdp_cfg = PdpConfig(3, 0.7)
    for method, K, positions in itertools.product(Method, (2, 8, 32), (None, 0)):
        seen.clear()
        engine = ProbeAggregator(method, K, pdp_cfg, 0.1, positions)
        if method is Method.INDEXED:
            assert seen == []
        else:
            assert len(seen) == 1
            c_w = probe_moments(engine.form.points, K, pdp_cfg, 0.1)
            np.testing.assert_array_equal(seen[0], c_w)


def test_probe_on_an_encoded_zero_is_exactly_zero():
    """Noiseless, every user sending the same codeword: the probes at that
    codeword's zeros read exactly 0, the others do not, for every vote and
    for vote 0 alone."""
    K, U, pdp_cfg = 8, 4, PdpConfig(3)
    rp = radius_param(K)
    for method, positions in itertools.product(Method, (None, 0)):
        M = method.votes_per_codeword(K)
        points = probe_points(method, rp, positions)
        tables = probe_tables(method, rp, points)
        for vote in (-1, 1):
            votes = np.full((20, U, M), vote)
            engine = ProbeAggregator(method, K, pdp_cfg, 0.0, positions)
            r = engine.received(pack(votes), np.random.default_rng(1))
            zeros = np.where(vote_pattern(method, votes[0, 0]), 1.0 / rp.d, rp.d)
            on_zero = np.isin(points, zeros * root_phases(K))
            assert on_zero.any() and not on_zero.all()
            assert np.all(r[:, on_zero] == 0.0)
            assert np.all(r[:, ~on_zero] != 0.0)
            row = 2 ** min(M, 8) - 1 if vote > 0 else 0
            product = np.prod([t[row] for t in tables], axis=0)
            # The indexed table holds each codeword at its own probe only.
            expected = on_zero[row] if method is Method.INDEXED else on_zero
            assert np.all((product == 0.0) == expected)


@pytest.mark.parametrize("K", [2, 8, 12, 32])
def test_table_rows_count_the_probe_tables(K):
    """`table_rows` counts the rows of every table `probe_tables` builds."""
    rp = radius_param(K)
    for method in Method:
        try:
            method.validate_k(K)
        except ValueError:
            continue
        tables = probe_tables(method, rp, probe_points(method, rp))
        assert table_rows(method, K) == sum(t.shape[0] for t in tables)


@pytest.mark.parametrize("K", [2, 8, 32])
@pytest.mark.parametrize("method", list(Method))
def test_single_vote_users_are_nonzero_at_one_probe(method, K):
    """The per-probe draw rule rests on this: every codeword is nonzero at
    exactly one probe of the engine, so the probes' signal terms sum
    disjoint users. That holds at vote 0 for every scheme, and at every
    position for indexed (and for a K = 2 codeword, which carries one vote).
    Every codeword for indexed and for up to 16 votes, 4096 random ones
    beyond, evaluated by the zero form (`zero_form_eval`). The engine's
    sum_u |P_u(z_p)|^2 equals that of those values."""
    M = method.votes_per_codeword(K)
    every = method is Method.INDEXED or M == 1
    for positions in [0] + ([None] if every else []):
        engine = ProbeAggregator(method, K, PdpConfig(2), 0.1, positions)
        assert engine.one_probe_per_user
        assert not hasattr(engine, "channel_factor")
        if method is Method.INDEXED or M <= 16:
            index = np.arange(2 ** M)[:, np.newaxis]
            votes = 2 * ((index >> np.arange(M)) & 1) - 1
        else:
            votes = 2 * np.random.default_rng(K).integers(0, 2, size=(4096, M)) - 1
        values = zero_form_eval(vote_pattern(method, votes), radius_param(K),
                                engine.form.points)
        assert np.all(np.count_nonzero(values, axis=-1) == 1)
        power = (values.real**2 + values.imag**2).sum(axis=0)
        got = signal_power(method, engine.tables, pack(votes[np.newaxis]))  # one trial
        np.testing.assert_allclose(got[0], power, rtol=1e-13)


@pytest.mark.parametrize("method,K", [(m, K) for m in Method for K in (2, 8, 32)]
                         + [(Method.INDEXED, 256)])
def test_signal_power_matches_the_zero_form(method, K):
    """`signal_power`, the one evaluator of the engine and the theory, gives
    sum_u |P_u(z_p)|^2 of the zero form (`zero_form_eval` of each user's
    codeword) at vote ell's probes, to 1e-13 relative, and exactly 0 where
    that sum is 0: trial 0 has every user vote +1 at ell and trial 1 every
    user -1, so some probes sit on every sender's zero."""
    rp = radius_param(K)
    M = method.votes_per_codeword(K)
    votes = np.random.default_rng(K).integers(0, 2, size=(8, 5, M)) * 2 - 1
    for ell in sorted({0, M - 1}):
        votes[:2, :, ell] = [[1], [-1]]
        points = probe_points(method, rp, ell)
        values = zero_form_eval(vote_pattern(method, votes), rp, points)
        want = (values.real**2 + values.imag**2).sum(axis=1)
        got = signal_power(method, probe_tables(method, rp, points), pack(votes))
        assert got.shape == want.shape == (8, points.size)
        assert (want == 0).any() and (want > 0).any()
        assert np.all(got[want == 0] == 0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("method,K", [
    (m, K) for m in Method for K in (2, 6, 8, 16, 32, 256)
    if m is not Method.INDEXED or K & (K - 1) == 0
])
def test_uncoded_tables_evaluate_any_codeword(method, K):
    """`table_product` of the uncoded tables at the (K+1)-point grid, as the
    pmepr sweep reads them, gives `zero_form_eval` of any selection rows
    packed little-endian, to 1e-12 relative: random codewords of `method`,
    an all-inner and an all-outer row. K = 2 and 6 end on a partial byte,
    and K = 16 and 256 have a prime K + 1 (indexed at the powers of two
    only)."""
    rp = radius_param(K)
    points = root_phases(K + 1)
    M = method.votes_per_codeword(K)
    votes = np.random.default_rng(K).integers(0, 2, size=(64, M)) * 2 - 1
    rows = np.concatenate([vote_pattern(method, votes),
                           np.ones((1, K), bool), np.zeros((1, K), bool)])
    packed = np.packbits(rows, axis=-1, bitorder="little")
    got = table_product(probe_tables(Method.UNCODED, rp, points), packed)
    assert got.shape == (66, K + 1)
    np.testing.assert_allclose(got, zero_form_eval(rows, rp, points), rtol=1e-12, atol=0)


def test_monte_carlo_batch_matches_time_domain_batch():
    """Error counts of one batch equal those of the time-domain Monte Carlo
    on the same stream, with the engine's draws lifted to taps and noise."""
    pdp_cfg = PdpConfig(5)
    U, n_plus, sigma2 = 25, 16, 0.1
    column = scored_column(U, n_plus).astype(np.uint8)
    for method, K, n in ((Method.UNCODED, 16, 20_000),
                         (Method.DIFFERENTIAL, 16, 20_000),
                         (Method.INDEXED, 32, 2_000)):
        rng = np.random.default_rng(17)
        M = method.votes_per_codeword(K)
        votes = unpack(_random_votes(rng, n, M, column), M)
        engine = ProbeAggregator(method, K, pdp_cfg, sigma2, positions=0)
        y = time_domain(method, K, pdp_cfg, sigma2, votes, rng, engine)
        expected = _count_mv_errors(decode(y, engine.ctx)[:, 0], U, n_plus)
        got = mv_error_batch(np.random.default_rng(17), n, engine.aggregate, U,
                             n_plus, method, K)
        assert got == expected


def test_median_matches_time_domain_rounds():
    """run_median on the engine retraces a time-domain median loop."""
    from airmv.median import local_votes
    from airmv.simulate import stream

    K, U, rounds, reps, sigma2 = 8, 5, 30, 20, 0.1
    pdp_cfg = PdpConfig(2)
    for backend in ("uncoded", "differential", "indexed"):
        method = Method.from_name(backend)
        M = method.votes_per_codeword(K)
        got = run_median(backend, K, U, rounds, reps, pdp_cfg, sigma2, seed=4,
                         key=(1,))
        rng = stream(4, 1)
        params = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(reps, U, M))
        true_median = np.median(params, axis=-2)
        estimates = np.zeros((reps, M))
        expected = np.empty(rounds)
        for i in range(rounds):
            mu = 0.01 + (1e-5 - 0.01) * (i / (rounds - 1))
            votes = unpack(local_votes(estimates, params), M)
            _, mv = oracle(method, K, pdp_cfg, sigma2, votes, rng)
            estimates -= mu * mv
            expected[i] = math.sqrt(np.mean((estimates - true_median) ** 2))
        np.testing.assert_array_equal(got, expected)


def test_simulate_cer_is_thread_invariant(monkeypatch):
    monkeypatch.setattr(simulate, "BATCH_SIZE", 1_000)
    for method, K in ((Method.UNCODED, 16), (Method.DIFFERENTIAL, 8),
                      (Method.INDEXED, 16)):
        args = (method, K, 7, 4, PdpConfig(3), 0.3, 5_000)
        one = simulate_cer(*args, seed=8, threads=1)
        two = simulate_cer(*args, seed=8, threads=2)
        assert one == two


def test_rejects_bad_input():
    for method, sigma2 in itertools.product(Method, (-0.1, math.nan)):
        with pytest.raises(ValueError, match="noise variance must be nonnegative"):
            ProbeAggregator(method, 8, PdpConfig(1), sigma2)
    with pytest.raises(ValueError):
        ProbeAggregator(Method.INDEXED, 8, PdpConfig(1), 0.1, positions=3)
    engine = ProbeAggregator(Method.INDEXED, 8, PdpConfig(1), 0.1)
    good = np.full((4, 2, 1), 7, np.uint8)  # M = 3: bits 0-2
    engine.aggregate(good, np.random.default_rng(0))
    for bad in (np.ones((4, 2, 2), np.uint8), np.ones((2, 1), np.uint8), good + 1,
                good.astype(int), good.astype(bool), np.ones((4, 2, 3), int),
                good[:0]):
        with pytest.raises(ValueError):
            engine.aggregate(bad, np.random.default_rng(0))
