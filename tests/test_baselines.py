"""The Goldenbaum and OBDA backends of `airmv.baselines`.

Signal-level checks replay a backend's draws from a generator in the same
state (Goldenbaum's chip turns, then its window; OBDA's activity
uniforms, then phase errors, then noise, as each docstring states) and
compare the backend's statistic against what the receiver reads, rebuilt
from them. The law gates hold each backend's draws to the former per-tap
receivers, kept here as oracles.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import airmv.baselines
from airmv.aggregation import backend as build_backend
from airmv.aggregation import pack_votes, scored_column
from airmv.baselines import (
    BASELINES,
    _gram_order,
    _unit_phasors,
    default_sequence_length,
    goldenbaum_estimate,
    obda_received,
)
from airmv.encoding import Method
from airmv.channel import PdpConfig, awgn, complex_normal, sample_channel, superpose
from airmv.config import build_config
from airmv.experiments import run_experiment, write_csv
from airmv.median import local_votes, run_median
from airmv.simulate import (
    _count_mv_errors,
    mv_error_batch,
    simulate_cer,
    stream,
)


def plus(votes):
    """The plus-votes (True for +1) every statistic takes, of +/-1 votes."""
    return np.asarray(votes) > 0


def pack(votes):
    """The packed votes every backend takes, of +/-1 votes."""
    return pack_votes(plus(votes))


def signs(packed, M):
    """The +/-1 votes of (..., ceil(M / 8)) packed votes."""
    bits = np.unpackbits(packed, axis=-1, count=M, bitorder="little")
    return 2 * bits.astype(int) - 1


def obda_decisions(votes, rng, sigma2):
    """The OBDA backend's decisions at every position of (n, U, M) +/-1
    votes: the sign of `obda_received`. OBDA reads K only as M = log2 K."""
    return build_backend("obda", 2 ** votes.shape[-1], PdpConfig(1), sigma2)(pack(votes), rng)


@pytest.fixture
def no_truncation(monkeypatch):
    """OBDA with a zero threshold: every node is active (|h|^2 > 0 almost
    surely)."""
    monkeypatch.setattr(airmv.baselines, "_TRUNCATION", 0.0)


def signed_column(U, n_plus):
    """The Monte Carlo's scored column as (U,) +-1 votes."""
    return np.where(scored_column(U, n_plus), 1, -1)


def column_votes(n, U, n_plus):
    """The Monte Carlo's (n, U, 1) votes: one fixed column for every trial."""
    return np.broadcast_to(signed_column(U, n_plus)[:, np.newaxis], (n, U, 1))


def goldenbaum_draws(rng, votes, L_seq, pdp_cfg):
    """Chip turns and the window in the order `goldenbaum_estimate` draws
    them. The turns are laid out (n, M, U, L_seq) per (trial, position,
    user); only the S senders draw, in C order of that layout, the turns
    of chips 1..L_seq-1. A sender's first chip has turn 0; silent cells
    hold zeros. Then the (n, M, L_seq + L_e - 1) unit window z."""
    n, U, M = votes.shape
    sending = np.swapaxes(votes, -1, -2) > 0
    S = int(np.count_nonzero(sending))
    turns = np.zeros((n, M, U, L_seq))
    turns[..., 1:][sending] = rng.random((S, L_seq - 1))
    z = complex_normal((n, M, L_seq + pdp_cfg.L_e - 1), math.sqrt(0.5), rng)
    return turns, z


def goldenbaum_reference(votes, rng, L_seq, pdp_cfg, sigma2):
    """Estimates of the full-batch evaluation in correlation order: every
    user's chips, silent ones zeroed, correlated with the window in one
    matmul over the batch, the users' |r|^2 summed in sequence."""
    n, U, M = votes.shape
    turns, z = goldenbaum_draws(rng, votes, L_seq, pdp_cfg)
    seqs = np.empty(turns.shape, dtype=complex)
    seqs[..., 0] = 1.0
    _unit_phasors(turns[..., 1:], seqs[..., 1:])
    seqs[np.swapaxes(votes, -1, -2) < 0] = 0.0
    r = seqs @ np.swapaxes(sliding_window_view(z.conj(), L_seq, axis=-1), -1, -2)
    power = np.cumsum(r.real**2 + r.imag**2, axis=-2)[..., -1, :]
    energy = 2.0 * (power @ pdp_cfg.taps)
    if sigma2 > 0:
        energy += sigma2 * np.sum(z.real**2 + z.imag**2, axis=-1)
    return (energy - z.shape[-1] * sigma2) / L_seq - U


def goldenbaum_every_user(votes, rng, L_seq, pdp_cfg, sigma2):
    """Estimates under the former draws, the law's reference: uniform phases
    on every chip and taps for every user, silent or not, then the noise."""
    n, U, M = votes.shape
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, M, U, L_seq))
    h = sample_channel(pdp_cfg, U, rng, trials=n * M).reshape(n, M, U, pdp_cfg.L_e)
    seqs = np.sqrt(np.swapaxes(votes, -1, -2) + 1.0)[..., np.newaxis] * np.exp(
        1j * phases
    )
    y = superpose(seqs, h, sigma2, rng)
    energy = np.sum(np.abs(y) ** 2, axis=-1)
    return (energy - y.shape[-1] * sigma2) / L_seq - U


def obda_activity(rng, n, M, U, truncation=0.2):
    """The (n, M, U) activity `obda_received` draws first with tci: a node
    is active when its uniform lies below e^{-truncation}, the probability
    that |h|^2 ~ Exp(1) exceeds the threshold."""
    return rng.random((n, M, U)) < math.exp(-truncation)


def obda_per_tap(votes, rng, sigma2, truncation=0.2, phase_errors=False, tci=True):
    """The complex aggregate y of the former per-tap receiver, the law's
    reference: (n, M, U) taps h ~ CN(0, 1), inverted by conj(h)/|h|^2 above
    the truncation (tci), phase errors as e^{i theta}, then CN(0, sigma2)
    noise."""
    per_mv = np.swapaxes(votes, -1, -2).astype(float)
    h = complex_normal(per_mv.shape, math.sqrt(0.5), rng)
    if tci:
        gain = np.abs(h) ** 2
        inv = np.where(gain > truncation, np.conjugate(h) / np.maximum(gain, 1e-300), 0)
        symbols = per_mv * inv
    else:
        symbols = per_mv + 0j
    if phase_errors:
        w = 2 * math.pi / 3
        symbols = symbols * np.exp(1j * rng.uniform(-w, w, per_mv.shape))
    y = np.sum(h * symbols, axis=-1)
    if sigma2 > 0:
        y = y + awgn(y.shape, sigma2, rng)
    return y


def goldenbaum_loop_energy(votes, rng, L_seq, pdp_cfg, sigma2):
    """z^H C z per (trial, position): the received energy's law given the
    sequences, with C = sum_u sum_l p_l a_ul a_ul^H + sigma2 I built from
    each user's convolution matrix, a_ul = np.convolve(sqrt(v_u + 1) s_u,
    e_l), on the draws `goldenbaum_draws` replays."""
    n, U, M = votes.shape
    window = L_seq + pdp_cfg.L_e - 1
    turns, z = goldenbaum_draws(rng, votes, L_seq, pdp_cfg)
    p = pdp_cfg.taps
    energy = np.empty((n, M))
    for t in range(n):
        for m in range(M):
            C = sigma2 * np.eye(window, dtype=complex)
            for u in range(U):
                seq = math.sqrt(votes[t, u, m] + 1) * np.exp(2j * np.pi * turns[t, m, u])
                conv = np.stack(
                    [np.convolve(seq, np.eye(pdp_cfg.L_e)[l]) for l in range(pdp_cfg.L_e)],
                    axis=-1,
                )  # (window, L_e): column l is the sequence delayed by l
                C += (conv * p) @ conv.conj().T
            energy[t, m] = np.real(z[t, m].conj() @ C @ z[t, m])
    return energy


def goldenbaum_loop(votes, rng, L_seq, pdp_cfg, sigma2):
    """Decisions of a per-trial, per-user Goldenbaum receiver."""
    window = L_seq + pdp_cfg.L_e - 1
    energy = goldenbaum_loop_energy(votes, rng, L_seq, pdp_cfg, sigma2)
    return np.sign((energy - window * sigma2) / L_seq - votes.shape[1]).astype(int)


# The evaluation block of `goldenbaum_estimate` as shipped.
DEFAULT_BLOCK = airmv.baselines._GOLDENBAUM_BLOCK


def assert_gram_order(votes, L_seq, pdp_cfg, sigma2):
    """Gram-order estimates are bitwise the same in blocks of 1, 7 and the
    default number of trials, leave the rng where a replay of the draws
    does, and read z^H C z of the per-user loop to rtol 1e-12 (atol 1e-12
    U L_seq: est + U rounds a small energy at the scale of U)."""
    n, U, M = votes.shape
    estimates = []
    for block in (1, 7, DEFAULT_BLOCK):
        rng, replay = np.random.default_rng(17), np.random.default_rng(17)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(airmv.baselines, "_GOLDENBAUM_BLOCK", block)
            estimates.append(goldenbaum_estimate(plus(votes), rng, L_seq, pdp_cfg, sigma2))
        goldenbaum_draws(replay, votes, L_seq, pdp_cfg)
        assert rng.bit_generator.state == replay.bit_generator.state
    for est in estimates[1:]:
        np.testing.assert_array_equal(est, estimates[0])
    energy = goldenbaum_loop_energy(votes, np.random.default_rng(17), L_seq, pdp_cfg,
                                    sigma2)
    window = L_seq + pdp_cfg.L_e - 1
    np.testing.assert_allclose((estimates[0] + U) * L_seq + window * sigma2, energy,
                               rtol=1e-12, atol=1e-12 * U * L_seq)


def obda_loop(votes, rng, sigma2, phase_errors=False, tci=True, truncation=0.2):
    """Decisions of a per-trial, per-user OBDA receiver on the draws of
    `obda_received`: the activity, the phase errors, then the real noise;
    each active node adds vote * cos(theta). Without tci, one normal of
    variance (U + sigma2)/2 per (trial, position)."""
    n, U, M = votes.shape
    if not tci:
        return np.sign(math.sqrt((U + sigma2) / 2) * rng.standard_normal((n, M))).astype(int)
    active = obda_activity(rng, n, M, U, truncation)
    w = 2 * math.pi / 3
    theta = rng.uniform(-w, w, (n, M, U)) if phase_errors else np.zeros((n, M, U))
    noise = np.zeros((n, M))
    if sigma2 > 0:
        noise = math.sqrt(sigma2 / 2) * rng.standard_normal((n, M))
    out = np.empty((n, M), dtype=int)
    for t in range(n):
        for m in range(M):
            y = noise[t, m]
            for u in range(U):
                if active[t, m, u]:
                    y += votes[t, u, m] * math.cos(theta[t, m, u])
            out[t, m] = np.sign(y)
    return out


def loop_backend(name, K, pdp_cfg, sigma2):
    if name == "goldenbaum":
        L_seq = default_sequence_length(K)
        return lambda votes, rng: goldenbaum_loop(votes, rng, L_seq, pdp_cfg, sigma2)
    return lambda votes, rng: obda_loop(
        votes, rng, sigma2, phase_errors=name == "obda_phase",
        tci=name != "obda_no_tci",
    )


class TestSequenceLength:
    def test_k32_matches_seven(self):
        assert default_sequence_length(32) == 7

    def test_k8(self):
        assert default_sequence_length(8) == 3

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            default_sequence_length(1)


class TestGoldenbaumEncode:
    def test_negative_vote_is_silent(self):
        """With votes (+1, -1) over single-tap channels the received energy
        is the +1 voter's alone: 2 |s_0^H z|^2 over the one window."""
        n, L_seq, pdp_cfg = 500, 5, PdpConfig(1)
        votes = np.broadcast_to(np.array([[1], [-1]]), (n, 2, 1))
        est = goldenbaum_estimate(plus(votes), np.random.default_rng(0), L_seq, pdp_cfg, 0.0)
        turns, z = goldenbaum_draws(np.random.default_rng(0), votes, L_seq, pdp_cfg)
        s = np.exp(2j * np.pi * turns[:, :, 0])
        # energy / L_seq = est + U
        np.testing.assert_allclose(
            est + 2, 2 * np.abs(np.sum(s.conj() * z, axis=-1)) ** 2 / L_seq,
            rtol=1e-12, atol=1e-12,
        )

    def test_positive_vote_magnitudes(self):
        """A lone +1 voter sends |s|^2 = 2 per sample: over a single tap its
        energy is 2 |s^H z|^2 with unimodular chips, whatever their turns."""
        n, L_seq, pdp_cfg = 500, 6, PdpConfig(1)
        votes = np.ones((n, 1, 1), int)
        est = goldenbaum_estimate(plus(votes), np.random.default_rng(1), L_seq, pdp_cfg, 0.0)
        turns, z = goldenbaum_draws(np.random.default_rng(1), votes, L_seq, pdp_cfg)
        s = np.exp(2j * np.pi * turns[:, :, 0])
        np.testing.assert_allclose(
            est + 1, 2 * np.abs(np.sum(s.conj() * z, axis=-1)) ** 2 / L_seq,
            rtol=1e-12, atol=1e-12,
        )

    @pytest.mark.parametrize("sigma2", [0.0, 0.2])
    @pytest.mark.parametrize("L_seq, L_e", [(1, 4), (5, 1), (1, 1), (7, 5)])
    def test_energy_is_the_quadratic_form(self, L_seq, L_e, sigma2):
        """The estimate reads z^H C z, C built per (trial, position) from
        convolution matrices, at L_seq = 1 (no turns drawn) and L_e = 1
        (one window) too."""
        votes = np.random.default_rng(5).integers(0, 2, (60, 6, 3)) * 2 - 1
        pdp_cfg = PdpConfig(L_e, 0.8)
        est = goldenbaum_estimate(plus(votes), np.random.default_rng(9), L_seq, pdp_cfg,
                                  sigma2)
        energy = goldenbaum_loop_energy(votes, np.random.default_rng(9), L_seq, pdp_cfg,
                                        sigma2)
        window = L_seq + L_e - 1
        np.testing.assert_allclose((est + 6) * L_seq + window * sigma2, energy,
                                   rtol=1e-12)

    def test_rejects_bad_vote(self):
        good = np.ones((4, 3, 2), bool)
        for bad in (good.astype(int), good.astype(float), good[..., 0], good[:0]):
            with pytest.raises(ValueError):
                goldenbaum_estimate(bad, np.random.default_rng(2), 4, PdpConfig(1), 0.1)


class TestGoldenbaumDecode:
    def test_all_silent_noiseless(self):
        votes = -np.ones((50, 3, 2), int)
        est = goldenbaum_estimate(plus(votes), np.random.default_rng(3), 4, PdpConfig(2), 0.0)
        np.testing.assert_array_equal(est, -3.0)
        # K = 16 spends L_seq = 4 chips per MV.
        np.testing.assert_array_equal(
            build_backend("goldenbaum", 16, PdpConfig(2), 0.0, positions=[0, 1])(
                pack(votes), np.random.default_rng(3)),
            -1,
        )

    def test_expected_positive_aggregate(self):
        """All votes +1 over multipath and noise: the estimate averages to +U."""
        U = 4
        est = goldenbaum_estimate(plus(np.ones((4000, U, 1), int)), np.random.default_rng(3),
                                  8, PdpConfig(3, 0.8), 0.5)
        se = est.std() / math.sqrt(est.size)
        assert abs(est.mean() - U) < 4 * se

    def test_tie_has_zero_expected_estimate(self):
        """A tie averages to 0: the noise is debiased over the whole
        L_seq + L_e - 1 sample window, not just L_seq samples."""
        votes = column_votes(6000, 2, 1)
        est = goldenbaum_estimate(plus(votes), np.random.default_rng(4), 6, PdpConfig(3), 0.5)
        se = est.std() / math.sqrt(est.size)
        assert abs(est.mean()) < 4 * se

    def test_rejects_short_sequence(self):
        for L_seq in (0, -1):
            with pytest.raises(ValueError):
                goldenbaum_estimate(plus(np.ones((4, 3, 1), int)), np.random.default_rng(0),
                                    L_seq, PdpConfig(1), 0.1)


class TestGoldenbaumBlocks:
    """The block evaluation makes the full-batch chain's draws, and
    estimates that do not depend on where the blocks fall: in correlation
    order the full-batch chain's bit for bit, in Gram order z^H C z of the
    per-user loop (`assert_gram_order`)."""

    # Trial counts past the first block that end inside a later one, at the
    # 1024-trial block (4, 2 and 2 full blocks first) as at 2048 (2, 1, 1).
    # Literal, so that the test ids do not move with the block size.
    N_COLUMN, N_SPARSE, N_SMALL = 4133, 2057, 2051

    @staticmethod
    def votes(kind, n, U, M):
        rng = np.random.default_rng(31)
        if kind == "column":
            return column_votes(n, U, (U + 1) // 2)
        if kind == "random":
            return rng.integers(0, 2, (n, U, M)) * 2 - 1
        if kind == "sparse":  # most blocks leave most users silent
            return np.where(rng.random((n, U, M)) < 0.002, 1, -1)
        return np.full((n, U, M), 1 if kind == "all" else -1)

    def assert_matches_reference(self, votes, L_seq, pdp_cfg, sigma2):
        if _gram_order(L_seq, pdp_cfg.L_e):
            assert_gram_order(votes, L_seq, pdp_cfg, sigma2)
            return
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        got = goldenbaum_estimate(plus(votes), rng, L_seq, pdp_cfg, sigma2)
        expected = goldenbaum_reference(votes, ref_rng, L_seq, pdp_cfg, sigma2)
        np.testing.assert_array_equal(got, expected)
        # run_median shares one rng over its rounds: the state must agree too.
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("sigma2", [0.0, 0.1])
    @pytest.mark.parametrize(
        "kind, n, U, M",
        [
            ("column", N_COLUMN, 25, 1),  # several blocks, ragged last
            ("column", 50, 25, 1),  # fewer trials than one block
            ("random", 100, 25, 3),  # the median's round shape
            ("sparse", N_SPARSE, 9, 2),
            ("silent", N_SMALL, 4, 2),
            ("all", N_SMALL, 4, 2),
        ],
    )
    def test_matches_the_full_batch_chain(self, kind, n, U, M, sigma2):
        self.assert_matches_reference(
            self.votes(kind, n, U, M), 7, PdpConfig(5), sigma2
        )

    def test_sizes_end_inside_a_later_block(self):
        block = airmv.baselines._GOLDENBAUM_BLOCK
        for n in (self.N_COLUMN, self.N_SPARSE, self.N_SMALL):
            assert n > block and n % block != 0
        assert self.N_COLUMN > 2 * block

    @pytest.mark.parametrize("block", [1, 7])
    def test_estimates_do_not_depend_on_block_boundaries(self, monkeypatch, block):
        monkeypatch.setattr(airmv.baselines, "_GOLDENBAUM_BLOCK", block)
        for kind in ("random", "sparse"):
            self.assert_matches_reference(
                self.votes(kind, 40, 6, 3), 4, PdpConfig(3, 0.8), 0.2
            )

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("L_seq, L_e", [(7, 5), (5, 3)])
    def test_correlation_order_does_not_depend_on_block_boundaries(
            self, monkeypatch, L_seq, L_e, block):
        assert not _gram_order(L_seq, L_e)
        monkeypatch.setattr(airmv.baselines, "_GOLDENBAUM_BLOCK", block)
        for kind in ("random", "sparse"):
            self.assert_matches_reference(
                self.votes(kind, 40, 6, 3), L_seq, PdpConfig(L_e, 0.8), 0.2
            )

    @pytest.mark.parametrize("block", [1, 7, DEFAULT_BLOCK])
    @pytest.mark.parametrize("U", [9, 25, 40])
    def test_single_tap_sums_the_users_in_sequence(self, monkeypatch, U, block):
        """At L_e = 1 the users axis of |r|^2 is the contiguous one, along
        which np.sum adds pairwise: the sum runs in sequence instead, so a
        block that leaves out its silent users keeps the full batch's bits
        (the vote kinds leave out about half, some and most users)."""
        monkeypatch.setattr(airmv.baselines, "_GOLDENBAUM_BLOCK", block)
        for L_seq in (3, 7):
            assert not _gram_order(L_seq, 1)
            for kind in ("column", "random", "sparse"):
                self.assert_matches_reference(
                    self.votes(kind, 60, U, 2), L_seq, PdpConfig(1), 0.1
                )

    @pytest.mark.parametrize("sigma2", [0.0, 0.2])
    @pytest.mark.parametrize("L_e", [1, 3, 5])
    @pytest.mark.parametrize("L_seq", [1, 2, 3, 4])
    def test_gram_order_reads_the_quadratic_form(self, monkeypatch, L_seq, L_e, sigma2):
        """The Gram order at every (L_seq, L_e), forced where the rule
        would take the correlation order, on random votes and on sparse
        single-position ones: empty cells, lone senders and lone chips."""
        monkeypatch.setattr(airmv.baselines, "_gram_order", lambda L_seq, L_e: True)
        pdp_cfg = PdpConfig(L_e, 0.8)
        assert_gram_order(self.votes("random", 24, 6, 3), L_seq, pdp_cfg, sigma2)
        sparse = np.where(np.random.default_rng(3).random((40, 5, 1)) < 0.15, 1, -1)
        assert_gram_order(sparse, L_seq, pdp_cfg, sigma2)

    @pytest.mark.parametrize("L_seq", [1, 5])
    @pytest.mark.parametrize("kind", ["column", "random", "sparse"])
    def test_draws_count_only_the_senders(self, kind, L_seq):
        """A call consumes S (L_seq - 1) uniforms, S the senders, and then
        2 n M window normals, whatever sigma2: at L_seq = 1 no turn at all,
        and no taps. The estimates stay the full-batch evaluation's."""
        L_e = 4
        votes = self.votes(kind, 500, 9, 3)
        n, _, M = votes.shape
        S = int(np.count_nonzero(votes > 0))
        for sigma2 in (0.0, 0.3):
            rng, replay = np.random.default_rng(6), np.random.default_rng(6)
            goldenbaum_estimate(plus(votes), rng, L_seq, PdpConfig(L_e), sigma2)
            replay.random(S * (L_seq - 1))
            replay.standard_normal(2 * n * M * (L_seq + L_e - 1))
            assert rng.bit_generator.state == replay.bit_generator.state
        self.assert_matches_reference(votes, L_seq, PdpConfig(L_e), 0.3)

    def test_all_silent_votes_draw_only_the_window(self):
        """No sender, no turn: the window alone, whose signal terms are
        exact zeros. Noiseless, the estimate is exactly -U; with noise it
        is (sigma2 |z|^2 - window sigma2) / L_seq - U."""
        votes = self.votes("silent", 300, 5, 2)
        for sigma2 in (0.0, 0.1):
            rng, replay = np.random.default_rng(8), np.random.default_rng(8)
            est = goldenbaum_estimate(plus(votes), rng, 7, PdpConfig(3), sigma2)
            z = complex_normal((300, 2, 9), math.sqrt(0.5), replay)
            assert rng.bit_generator.state == replay.bit_generator.state
            if sigma2 == 0:
                np.testing.assert_array_equal(est, -5.0)
            else:
                norm = np.sum(z.real**2 + z.imag**2, axis=-1)
                np.testing.assert_array_equal(
                    est, (sigma2 * norm - 9 * sigma2) / 7 - 5
                )

    def test_peak_memory_stays_near_the_draws(self):
        """One Monte Carlo batch (20k trials, U=25, K=32 so L_seq=7, L_e=5,
        16 senders a trial): the traced peak stays within 2.2x the bytes of
        the senders' turns and the window (1.56x measured with 1024-trial
        blocks, 2.03x with 2048: one block's chips and `_unit_phasors`
        temporaries beside the draws)."""
        n, U, L_seq, L_e = 20_000, 25, default_sequence_length(32), 5
        votes = column_votes(n, U, 16)
        S = n * 16
        drawn = S * (L_seq - 1) * 8 + n * (L_seq + L_e - 1) * 16
        tracemalloc.start()
        try:
            goldenbaum_estimate(
                plus(votes), np.random.default_rng(0), L_seq, PdpConfig(L_e), 0.1
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * drawn, f"peak {peak / drawn:.2f}x the drawn bytes"


class TestGoldenbaumStatistics:
    def test_accuracy_improves_with_length(self):
        """Longer sequences reduce cross-term interference (U=9, N+=7);
        K = 8, 32, 128 give L_seq = 3, 7, 18."""
        pdp_cfg = PdpConfig(1)
        cers = {}
        for K in (8, 32, 128):
            cers[K] = simulate_cer("goldenbaum", K, 9, 7, pdp_cfg, 0.1, 40_000,
                                   seed=99, key=(K,))
        for a, b in ((8, 32), (32, 128)):
            pa, sa = cers[a]
            pb, sb = cers[b]
            assert pb <= pa + 3 * math.hypot(sa, sb)

    def test_unbiased_decode_batch_consistency(self):
        aggregate = build_backend("goldenbaum", 32, PdpConfig(2, 0.8), 0.1, positions=0)
        errs = mv_error_batch(stream(5, 1), 5000, aggregate, 9, 9, "goldenbaum", 32)
        assert 0 <= errs <= 5000


class TestGoldenbaumLaw:
    """The sender-only draws with a fixed first chip against the former
    draws for every user and chip: the same law of the estimate. Each side
    runs 100k independent trials (5 batches of 20k); every statistic must
    agree within 4 standard errors."""

    TRIALS, BATCH = 100_000, 20_000

    @classmethod
    def estimates(cls, estimate, seed, votes, L_seq, pdp_cfg, sigma2):
        rng = np.random.default_rng(seed)
        return np.concatenate([
            estimate(votes, rng, L_seq, pdp_cfg, sigma2)
            for _ in range(cls.TRIALS // cls.BATCH)
        ]).ravel()

    @pytest.mark.parametrize("sigma2", [0.0, 0.1])
    @pytest.mark.parametrize("K, U, n_plus", [(8, 7, 4), (8, 7, 2), (32, 9, 5),
                                              (32, 9, 3)])
    def test_matches_the_every_user_draws(self, K, U, n_plus, sigma2):
        L_seq, pdp_cfg = default_sequence_length(K), PdpConfig(3, 0.8)
        votes = column_votes(self.BATCH, U, n_plus)
        new = self.estimates(lambda v, *args: goldenbaum_estimate(plus(v), *args), 41,
                             votes, L_seq, pdp_cfg, sigma2)
        old = self.estimates(goldenbaum_every_user, 42, votes, L_seq, pdp_cfg, sigma2)
        n = new.size
        truth = 1 if 2 * n_plus > U else -1
        p, q = np.mean(np.sign(new) != truth), np.mean(np.sign(old) != truth)
        assert abs(p - q) <= 4 * math.sqrt((p * (1 - p) + q * (1 - q)) / n)
        assert abs(new.mean() - old.mean()) <= 4 * math.sqrt(
            (new.var() + old.var()) / n
        )
        # Var of a sample variance: (m4 - var^2) / n.
        spread = [(np.mean((e - e.mean()) ** 4) - e.var() ** 2) / n for e in (new, old)]
        assert abs(new.var() - old.var()) <= 4 * math.sqrt(sum(spread))


def test_random_votes_match_the_every_user_draws():
    """The law check of `TestGoldenbaumLaw` on random (20k, 9, 3) votes,
    a decaying profile (rho = 0.6) and no noise, where the estimate is the
    signal's alone: over the pooled (trial, position) cells the error rate
    against the majority, the mean and the variance agree within 4
    standard errors."""
    law = TestGoldenbaumLaw
    L_seq, pdp_cfg = default_sequence_length(8), PdpConfig(4, 0.6)
    votes = np.random.default_rng(43).integers(0, 2, (law.BATCH, 9, 3)) * 2 - 1
    new = law.estimates(lambda v, *args: goldenbaum_estimate(plus(v), *args), 44, votes,
                        L_seq, pdp_cfg, 0.0)
    old = law.estimates(goldenbaum_every_user, 45, votes, L_seq, pdp_cfg, 0.0)
    truth = np.tile(np.sign(votes.sum(axis=1)), (law.TRIALS // law.BATCH, 1)).ravel()
    n = new.size
    p, q = np.mean(np.sign(new) != truth), np.mean(np.sign(old) != truth)
    assert 0 < p < 1
    assert abs(p - q) <= 4 * math.sqrt((p * (1 - p) + q * (1 - q)) / n)
    assert abs(new.mean() - old.mean()) <= 4 * math.sqrt((new.var() + old.var()) / n)
    spread = [(np.mean((e - e.mean()) ** 4) - e.var() ** 2) / n for e in (new, old)]
    assert abs(new.var() - old.var()) <= 4 * math.sqrt(sum(spread))


class TestUnitPhasors:
    def test_matches_exp(self):
        """Over 10^6 random turns and the edges (0, 1/4, 1/2, every k/4096
        and its neighbours one ulp away, 1 - 2^-53) the table-and-Taylor
        phasor is within 4e-15 of np.exp(2 pi i u), with modulus within
        1e-15 of 1."""
        k = np.arange(4096) / 4096
        edges = np.concatenate([
            [0.0, 0.25, 0.5, 1.0 - 2.0**-53], k, np.nextafter(k, 1.0),
            np.nextafter(k[1:], 0.0),
        ])
        turns = np.concatenate([np.random.default_rng(12).random(10**6), edges])
        got = _unit_phasors(turns, np.empty(turns.shape, dtype=complex))
        assert np.max(np.abs(got - np.exp(2j * np.pi * turns))) <= 4e-15
        assert np.max(np.abs(np.abs(got) - 1.0)) <= 1e-15
        assert got[turns.size - edges.size] == 1.0  # turn 0 is exactly 1

    def test_writes_a_strided_output(self):
        """The chips' view past the first column takes the same values."""
        turns = np.random.default_rng(13).random((50, 6))
        chips = np.zeros((50, 7), dtype=complex)
        _unit_phasors(turns, chips[:, 1:])
        np.testing.assert_array_equal(chips[:, 0], 0.0)
        np.testing.assert_array_equal(
            chips[:, 1:], _unit_phasors(turns, np.empty(turns.shape, dtype=complex))
        )


class TestObdaEncode:
    def test_truncation(self):
        """A node whose |h|^2 is at or below 0.2 stays silent; an active
        node delivers its vote exactly."""
        n = 2000
        y = obda_received(plus(np.ones((n, 1, 1), int)), np.random.default_rng(5), 0.0)
        silent = ~obda_activity(np.random.default_rng(5), n, 1, 1)[..., 0]
        assert 0 < silent.sum() < n
        np.testing.assert_array_equal(y[silent], 0.0)
        np.testing.assert_array_equal(y[~silent], 1.0)

    def test_identity_inversion(self, no_truncation):
        """Inverted channels deliver each untruncated vote as itself."""
        n = 2000
        votes = np.random.default_rng(8).integers(0, 2, (n, 1, 3)) * 2 - 1
        y = obda_received(plus(votes), np.random.default_rng(6), 0.0)
        np.testing.assert_array_equal(y, votes[:, 0, :])

    def test_phase_conjugation(self):
        """Pre-equalizing by conj(h) makes the per-tap aggregate real at every
        channel phase, the sum of the untruncated votes: the fact that lets
        `obda_received` return the real statistic alone."""
        n = 2000
        votes = np.random.default_rng(9).integers(0, 2, (n, 3, 1)) * 2 - 1
        y = obda_per_tap(votes, np.random.default_rng(7), 0.0)
        h = complex_normal((n, 1, 3), math.sqrt(0.5), np.random.default_rng(7))
        assert np.histogram(np.angle(h), bins=4, range=(-np.pi, np.pi))[0].min() > 0
        np.testing.assert_allclose(y.imag, 0.0, atol=1e-12)
        active = np.abs(h) ** 2 > 0.2
        assert 0 < active.sum() < active.size
        np.testing.assert_allclose(
            y.real, np.sum(np.swapaxes(votes, -1, -2), axis=-1, where=active), atol=1e-12
        )
        got = obda_received(plus(votes), np.random.default_rng(7), 0.0)
        assert got.dtype == np.float64 and got.shape == (n, 1)

    def test_no_tci_mode_sends_raw_bpsk(self):
        """Without CSI the node sends its vote as is, even over a deep fade,
        and vote * h is CN(0, 1) whatever the vote: Re y is one normal of
        variance (U + sigma2)/2 that does not read the votes."""
        n, U, sigma2 = 2000, 3, 0.4
        votes = np.random.default_rng(9).integers(0, 2, (n, U, 2)) * 2 - 1
        y = obda_received(plus(votes), np.random.default_rng(8), sigma2, tci=False)
        expected = math.sqrt((U + sigma2) / 2) * np.random.default_rng(8).standard_normal(
            (n, 2))
        np.testing.assert_array_equal(y, expected)
        np.testing.assert_array_equal(
            obda_received(plus(-votes), np.random.default_rng(8), sigma2, tci=False), y)

    def test_phase_error_mean_contribution(self, no_truncation):
        """Per-user expected contribution is vote * E[cos theta] with
        E[cos theta] = sin(2 pi / 3) / (2 pi / 3) for +-120 degrees."""
        y = obda_received(plus(np.ones((40_000, 1, 1), int)), np.random.default_rng(6),
                          0.0, phase_errors=True)
        expected = math.sin(2 * math.pi / 3) / (2 * math.pi / 3)
        assert np.mean(y.real) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("sigma2", [0.0, 0.3])
    @pytest.mark.parametrize("phase_errors, tci", [(False, True), (True, True),
                                                   (False, False), (True, False)])
    def test_draws_follow_the_documented_order(self, phase_errors, tci, sigma2):
        """Per call: the (n, M, U) activity uniforms and then the phase errors
        (tci only), then the (n, M) real noise when sigma2 > 0; without tci
        only the (n, M) normals, whatever sigma2. No taps."""
        n, U, M = 50, 5, 3
        votes = np.random.default_rng(15).integers(0, 2, (n, U, M)) * 2 - 1
        rng, ref = np.random.default_rng(16), np.random.default_rng(16)
        y = obda_received(plus(votes), rng, sigma2, phase_errors=phase_errors, tci=tci)
        if tci:
            delivered = np.where(obda_activity(ref, n, M, U), np.swapaxes(votes, -1, -2),
                                 0.0)
            if phase_errors:
                w = 2 * math.pi / 3
                delivered *= np.cos(ref.uniform(-w, w, (n, M, U)))
            expected = delivered.sum(axis=-1)
            if sigma2 > 0:
                expected += math.sqrt(sigma2 / 2) * ref.standard_normal((n, M))
        else:
            expected = math.sqrt((U + sigma2) / 2) * ref.standard_normal((n, M))
        np.testing.assert_allclose(y, expected, rtol=0, atol=1e-12)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestObdaDecode:
    def test_coherent_sum(self, no_truncation):
        """Untruncated inverted channels add the votes coherently."""
        y = obda_received(plus(column_votes(500, 5, 3)), np.random.default_rng(10), 0.0)
        np.testing.assert_array_equal(y, 1.0)

    def test_majority_three_one(self):
        n = 2000
        votes = np.broadcast_to(np.array([[1], [1], [1], [-1]]), (n, 4, 1))
        mv = obda_decisions(votes, np.random.default_rng(7), 0.0)
        all_active = obda_activity(np.random.default_rng(7), n, 1, 4).all(axis=-1)
        assert all_active.sum() > 100
        np.testing.assert_array_equal(mv[all_active], 1)

    def test_perfect_csi_no_errors(self, no_truncation):
        """No noise, no phase errors, no truncation events: always correct."""
        mv = obda_decisions(column_votes(20_000, 9, 7), stream(11, 0), 0.0)
        assert _count_mv_errors(mv[:, 0], 9, 7) == 0

    def test_no_tci_cannot_compute(self):
        """Without channel inversion the aggregate phase is arbitrary."""
        for n_plus in (5, 4, 6):  # |N+ - N-| <= U/5 around U=9
            p, _ = simulate_cer("obda_no_tci", 8, 9, n_plus, PdpConfig(1), 0.1,
                                20_000, seed=12, key=(n_plus,))
            assert p > 0.3

    def test_phase_errors_degrade(self):
        clean, _ = simulate_cer("obda", 8, 9, 6, PdpConfig(1), 0.1, 40_000,
                                seed=13, key=(1,))
        noisy, se = simulate_cer("obda_phase", 8, 9, 6, PdpConfig(1), 0.1, 40_000,
                                 seed=13, key=(2,))
        assert noisy > clean + 3 * se

    def test_all_truncated_counts_as_error_half_the_time(self, monkeypatch):
        monkeypatch.setattr(airmv.baselines, "_TRUNCATION", 1e9)
        mv = obda_decisions(column_votes(4000, 3, 2), stream(14, 3), 0.1)
        assert 1500 < _count_mv_errors(mv[:, 0], 3, 2) < 2500

    def test_noiseless_tie_decides_zero(self, no_truncation):
        """Two active opposite votes sum to exactly 0 without noise: the
        decision is 0, not the sign of a rounding residue."""
        votes = np.broadcast_to(np.array([[1], [-1]]), (10_000, 2, 1))
        mv = obda_decisions(votes, np.random.default_rng(17), 0.0)
        np.testing.assert_array_equal(mv, 0)

    def test_noiseless_active_tie_counts_as_an_error(self):
        """With n_plus = 2 of U = 3 a truncated +1 voter can leave an active
        tie, or silence: decision 0, which the Monte Carlo scores as an
        error."""
        n = 4000
        mv = obda_decisions(column_votes(n, 3, 2), np.random.default_rng(18), 0.0)
        active = obda_activity(np.random.default_rng(18), n, 1, 3)[:, 0]
        active_sum = active @ signed_column(3, 2)
        assert np.count_nonzero(active_sum == 0) > 100
        np.testing.assert_array_equal(mv[:, 0], np.sign(active_sum))
        assert _count_mv_errors(mv[:, 0], 3, 2) == np.count_nonzero(active_sum <= 0)

    def test_noiseless_tie_leaves_the_median_unchanged(self, no_truncation):
        """A noiseless tie of active votes decides 0 at every position of
        the median's (R, U, M) call, so its estimates stay where they were
        (`TestRunMedian::test_a_tie_freezes_the_estimate` in test_median)."""
        votes = np.broadcast_to(np.array([[1], [-1]]), (20, 2, 3))
        mv = obda_decisions(votes, np.random.default_rng(19), 0.0)
        np.testing.assert_array_equal(mv, np.zeros((20, 3)))


class TestObdaLaw:
    """The activity, phase and noise draws of `obda_received` against the
    former per-tap receiver (`obda_per_tap`): the same law of Re y. Each side
    runs 100k independent trials (5 batches of 20k); the error rate, mean
    and variance must agree within 4 standard errors.

    At sigma2 = 0 without phase errors a tie of active votes is possible. It
    now reads exactly 0 and so decides 0, an error, where the per-tap
    receiver's rounding residue (|Re y| < 1e-14) decided it at random; the
    error rates differ there by design, so only the mean and variance, which
    the residue does not move, are compared."""

    TRIALS, BATCH = 100_000, 20_000
    MODES = {"obda": {}, "obda_phase": {"phase_errors": True},
             "obda_no_tci": {"tci": False}}

    @classmethod
    def statistics(cls, receive, seed, votes, sigma2, mode):
        rng = np.random.default_rng(seed)
        return np.concatenate([
            receive(votes, rng, sigma2, **cls.MODES[mode]).real
            for _ in range(cls.TRIALS // cls.BATCH)
        ]).ravel()

    @staticmethod
    def assert_same_law(new, old, truth, rates=True):
        n = new.size
        if rates:
            p, q = np.mean(np.sign(new) != truth), np.mean(np.sign(old) != truth)
            assert 0 < p < 1
            assert abs(p - q) <= 4 * math.sqrt((p * (1 - p) + q * (1 - q)) / n)
        assert abs(new.mean() - old.mean()) <= 4 * math.sqrt(
            (new.var() + old.var()) / n
        )
        # Var of a sample variance: (m4 - var^2) / n.
        spread = [(np.mean((e - e.mean()) ** 4) - e.var() ** 2) / n for e in (new, old)]
        assert abs(new.var() - old.var()) <= 4 * math.sqrt(sum(spread))

    @pytest.mark.parametrize("sigma2", [0.1, 0.0])
    @pytest.mark.parametrize("U, n_plus", [(7, 4), (9, 3), (25, 16)])
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_the_per_tap_receiver(self, mode, U, n_plus, sigma2):
        votes = column_votes(self.BATCH, U, n_plus)
        new = self.statistics(lambda v, *args, **kwargs: obda_received(plus(v), *args, **kwargs),
                              51, votes, sigma2, mode)
        old = self.statistics(obda_per_tap, 52, votes, sigma2, mode)
        tie_possible = sigma2 == 0 and mode == "obda"
        self.assert_same_law(new, old, 1 if 2 * n_plus > U else -1,
                             rates=not tie_possible)

    @pytest.mark.parametrize("mode", MODES)
    def test_random_votes_match_the_per_tap_receiver(self, mode):
        """Random (20k, 9, 3) votes at sigma2 = 0.1, pooled over the (trial,
        position) cells, the error rate taken against the majority."""
        votes = np.random.default_rng(53).integers(0, 2, (self.BATCH, 9, 3)) * 2 - 1
        new = self.statistics(lambda v, *args, **kwargs: obda_received(plus(v), *args, **kwargs),
                              54, votes, 0.1, mode)
        old = self.statistics(obda_per_tap, 55, votes, 0.1, mode)
        truth = np.tile(np.sign(votes.sum(axis=1)), (self.TRIALS // self.BATCH, 1))
        self.assert_same_law(new, old, truth.ravel())


class TestValidation:
    """Each statistic checks its inputs once, before any draw, and
    `backend` refuses a bad noise variance at build, whatever the name."""

    STATISTICS = (
        lambda votes, sigma2: goldenbaum_estimate(
            plus(votes), np.random.default_rng(0), 3, PdpConfig(2), sigma2),
        lambda votes, sigma2: obda_received(plus(votes), np.random.default_rng(0), sigma2),
    )
    NAMES = ("ideal",) + BASELINES + tuple(m.value for m in Method)
    # The ideal backend reads no noise, but checks its votes as the others do.
    BACKENDS = tuple(
        lambda votes, name=name: build_backend(name, 8, PdpConfig(2), 0.1)(
            votes, np.random.default_rng(0))
        for name in ("ideal",) + BASELINES
    )

    def test_rejects_negative_noise(self):
        """Every backend, the ideal one too, refuses it at build."""
        for statistic in self.STATISTICS:
            with pytest.raises(ValueError):
                statistic(np.ones((4, 3, 1), int), -0.1)
        for name in self.NAMES:
            with pytest.raises(ValueError, match="noise variance must be nonnegative"):
                build_backend(name, 8, PdpConfig(1), -0.1)

    def test_rejects_nan_noise(self):
        """A NaN noise variance used to pass: OBDA returned the noiseless
        statistic and Goldenbaum NaN estimates, whose decisions are
        arbitrary integers, and the ideal backend, which reads no noise,
        decided as ever. It now fails before any draw, and every backend
        refuses it at build."""
        votes = np.ones((4, 3, 2), int)
        calls = (
            lambda rng: goldenbaum_estimate(plus(votes), rng, 3, PdpConfig(2), math.nan),
            lambda rng: obda_received(plus(votes), rng, math.nan),
            lambda rng: obda_received(plus(votes), rng, math.nan, tci=False),
        )
        for call in calls:
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="noise variance must be nonnegative"):
                call(rng)
            assert rng.bit_generator.state == state
        for name in self.NAMES:
            with pytest.raises(ValueError, match="noise variance must be nonnegative"):
                build_backend(name, 8, PdpConfig(2), math.nan)

    def test_rejects_bad_votes(self):
        """Packed votes of M = 3 (K = 8): one uint8 byte per (trial, user),
        no bit set past vote 2."""
        good = np.full((4, 3, 1), 7, np.uint8)
        for backend in self.BACKENDS:
            backend(good)
            for bad in (good + 1, good.astype(int), good.astype(bool),
                        np.ones((4, 3, 3), int), good[:0]):
                with pytest.raises(ValueError):
                    backend(bad)

    def test_rejects_bad_shape(self):
        for backend in self.BACKENDS:
            for bad in (np.ones((4, 3), np.uint8), np.ones((4, 3, 1, 1), np.uint8),
                        np.ones((4, 3, 2), np.uint8)):
                with pytest.raises(ValueError):
                    backend(bad)

    def test_unknown_baseline(self):
        with pytest.raises(ValueError):
            build_backend("bogus", 8, PdpConfig(1), 0.1)


@pytest.mark.parametrize("name", BASELINES)
def test_monte_carlo_and_median_calls_match_a_per_trial_loop(name):
    """The Monte Carlo's (n, U, 1) call and the median's (R, U, M) call make
    the decisions of a per-trial loop on the same draws."""
    K, U, n_plus, pdp_cfg, sigma2 = 8, 7, 4, PdpConfig(3, 0.8), 0.1
    loop = loop_backend(name, K, pdp_cfg, sigma2)

    # The Monte Carlo's backend decides vote 0 of the M = 3 packed votes.
    backend = build_backend(name, K, pdp_cfg, sigma2, positions=0)
    votes = column_votes(300, U, n_plus)
    expected = loop(votes, np.random.default_rng(21))
    np.testing.assert_array_equal(backend(pack(votes), np.random.default_rng(21)),
                                  expected)
    assert mv_error_batch(np.random.default_rng(21), 300, backend, U, n_plus, name,
                          K) == _count_mv_errors(expected[:, 0], U, n_plus)

    backend = build_backend(name, K, pdp_cfg, sigma2)
    votes = np.random.default_rng(22).integers(0, 2, (40, U, 3)) * 2 - 1
    np.testing.assert_array_equal(backend(pack(votes), np.random.default_rng(23)),
                                  loop(votes, np.random.default_rng(23)))


# Each name's statistic, whose sign `backend` decides, at (K, pdp_cfg, sigma2).
STATISTICS = {
    "ideal": lambda votes, rng, K, pdp_cfg, sigma2: votes.sum(axis=-2),
    "goldenbaum": lambda votes, rng, K, pdp_cfg, sigma2: goldenbaum_estimate(
        plus(votes), rng, default_sequence_length(K), pdp_cfg, sigma2),
    "obda": lambda votes, rng, K, pdp_cfg, sigma2: obda_received(plus(votes), rng, sigma2),
    "obda_phase": lambda votes, rng, K, pdp_cfg, sigma2: obda_received(
        plus(votes), rng, sigma2, phase_errors=True),
    "obda_no_tci": lambda votes, rng, K, pdp_cfg, sigma2: obda_received(
        plus(votes), rng, sigma2, tci=False),
}


@pytest.mark.parametrize("shape", ["monte_carlo", "median"])
@pytest.mark.parametrize("name", STATISTICS)
def test_backend_decides_the_sign_of_each_names_statistic(name, shape):
    """`backend`'s dispatch table: at the Monte Carlo's (n, U, 1) and the
    median's (R, U, M) votes, each name's decisions are the sign of its
    statistic drawn from an rng in the same state, and both rngs end in
    the same state."""
    K, pdp_cfg, sigma2 = 16, PdpConfig(2, 0.8), 0.2
    if shape == "monte_carlo":
        votes = column_votes(400, 9, 5)
    else:
        votes = np.random.default_rng(31).integers(0, 2, (40, 9, 4)) * 2 - 1
    rng, ref = np.random.default_rng(32), np.random.default_rng(32)
    positions = 0 if shape == "monte_carlo" else None
    got = build_backend(name, K, pdp_cfg, sigma2, positions)(pack(votes), rng)
    expected = np.sign(STATISTICS[name](votes, ref, K, pdp_cfg, sigma2))
    assert got.dtype == np.dtype(int) and got.shape == votes.shape[::2]
    np.testing.assert_array_equal(got, expected)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("name", BASELINES)
def test_run_median_matches_a_per_trial_loop(name):
    """run_median with a baseline retraces a median loop over the per-trial
    receivers: the same draws, the same log2(K) votes per round."""
    K, U, rounds, reps, pdp_cfg, sigma2 = 8, 5, 15, 10, PdpConfig(2), 0.1
    got = run_median(name, K, U, rounds, reps, pdp_cfg, sigma2, seed=4, key=(2,))
    loop = loop_backend(name, K, pdp_cfg, sigma2)
    rng = stream(4, 2)
    params = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(reps, U, 3))
    true_median = np.median(params, axis=-2)
    estimates = np.zeros((reps, 3))
    expected = np.empty(rounds)
    for i in range(rounds):
        mu = 0.01 + (1e-5 - 0.01) * (i / (rounds - 1))
        estimates -= mu * loop(signs(local_votes(estimates, params), 3), rng)
        expected[i] = math.sqrt(np.mean((estimates - true_median) ** 2))
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("L_e", [1, 3, 5])
@pytest.mark.parametrize("experiment", ["cer", "rmse"])
def test_csv_bytes_do_not_depend_on_the_evaluation_order(
        monkeypatch, tmp_path, experiment, L_e):
    """The goldenbaum cer and rmse CSVs at K = 4, 8 and 16 (L_seq = 2, 3
    and 4), noisy and noiseless, are byte for byte the same with every
    call in Gram order and in correlation order: the orders differ in the
    last bits of an estimate, and the decisions read only its sign."""
    cfg = build_config(experiment, {}, dict(
        seed=11, k_values=(4, 8, 16), U=9, L_e=L_e, rho=0.8, methods=("goldenbaum",),
        snr_db=(10.0, math.inf), trials=2_000, rounds=40, realizations=20, threads=1,
    ))
    texts = []
    for gram in (True, False):
        monkeypatch.setattr(airmv.baselines, "_gram_order", lambda L_seq, L_e: gram)
        out = str(tmp_path / f"{gram}.csv")
        texts.append(write_csv(run_experiment(cfg), dataclasses.replace(cfg, out=out)))
    assert len(texts[0].splitlines()) > 2
    assert texts[0] == texts[1]
