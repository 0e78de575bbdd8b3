"""Reference aggregation schemes for comparison, and the one home of their math.

Goldenbaum's non-coherent scheme scales random unimodular sequences by the
square root of the (shifted) vote and estimates the vote sum from received
energy. OBDA maps votes to BPSK with truncated channel inversion at the
transmitters; it is coherent and therefore needs per-node CSI, which is
exactly the requirement the zero-encoded schemes avoid.

Each scheme is one vectorized statistic: (n, U, M) bool plus-votes in
(True for a +1 vote), the real (n, M) statistic its receiver reads out,
every (trial, vote position) an independent aggregation with its own
draws. Its majority vote is the statistic's sign, which
`airmv.aggregation.backend` takes, after binding the scheme's parameters
to its CLI name; the backend unpacks from the packed votes only the bits
at its vote positions. The Monte Carlo hands it vote 0 alone, M = 1, the
median all M positions of a round.

In Goldenbaum's scheme a -1 voter is silent and the receiver reads only
the received energy |y|^2, so only its law is drawn. Given the senders'
sequences, y is CN(0, C) with C = sum_u sum_l p_l a_ul a_ul^H + sigma2 I,
a_ul a sender's sequence delayed by l samples, and |y|^2 has exactly the
law of z^H C z with z ~ CN(0, I): both are sum_i lambda_i(C) Exp(1)
(Turin 1960). The rng draws the chip turns of only the users that send,
then one unit window z per (trial, position); no taps and no separate
noise. A sender's first chip is fixed to 1: C is unchanged by a common
rotation of a sequence, and the remaining phase differences are still
i.i.d. uniform. The energy is then evaluated in blocks of trials, in one
of two orders of the same quadratic form picked from (L_seq, L_e) alone.
Short sequences (L_seq - 1 <= L_e) take the Gram order: each (trial,
position) sums its senders' chip products into their Gram matrix, which
meets the window's tap-weighted products; every sum is per cell, so the
estimates do not depend on the blocks. Longer ones take the correlation
order: the senders' chips, scattered by flat index into zero-filled
arrays over the users that send in the block, are correlated with the
window and summed over the users in sequence, so silent cells add exact
zeros and the estimates are bitwise those of the same evaluation over
every user at once. The orders differ in the last bits of an estimate
only. The noise term sigma2 |z|^2 is added once per call, after the
blocks.

OBDA's receiver reads only sign(Re y), so `obda_received` returns the real
(n, M) statistic Re y, drawn from its law given the votes: with channel
inversion an active node delivers its vote exactly, rotated by its phase
error, and a node is active with probability e^{-_TRUNCATION} since
|h|^2 ~ Exp(1). No taps are drawn and nothing is inverted.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import PdpConfig, check_noise_variance, complex_normal

__all__ = [
    "BASELINES",
    "default_sequence_length",
    "goldenbaum_estimate",
    "obda_received",
]

BASELINES = ("goldenbaum", "obda", "obda_phase", "obda_no_tci")

# Trials per evaluation block of `goldenbaum_estimate`: bounds its transient
# chips, sequences and correlations to a few MB beside the draws, within a
# core's L2 (2048-trial blocks measured about 9% slower).
_GOLDENBAUM_BLOCK = 1024

# e^{2 pi i k / 4096}: the table `_unit_phasors` steps from.
_TURN_TABLE = np.exp(2j * np.pi / 4096 * np.arange(4096))

# OBDA's synchronization phase errors are uniform within +-120 degrees.
_PHASE_HALFWIDTH = math.radians(120.0)

# OBDA's truncation threshold: a node with |h|^2 at or below it stays silent.
_TRUNCATION = 0.2


def default_sequence_length(K: int) -> int:
    """Sequence length matching the indexed scheme's resource budget:
    the nearest integer of (K + 1) / log2(K)."""
    if K < 2:
        raise ValueError("K must be at least 2")
    return max(1, round((K + 1) / math.log2(K)))


def _check_plus(plus) -> np.ndarray:
    """The nonempty (n, U, M) bool plus-votes (True for +1) a statistic
    takes."""
    plus = np.asarray(plus)
    if plus.dtype != bool or plus.ndim != 3 or plus.size == 0:
        raise ValueError("expected nonempty (n, U, M) bool plus-votes, got "
                         f"{plus.dtype} of shape {plus.shape}")
    return plus


def _unit_phasors(turns: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{2 pi i turns} into `out`, for turns in [0, 1).

    The top 12 bits of a turn pick a table entry e^{2 pi i k / 4096}; the
    rest, theta < 2 pi / 4096, enters through a degree-5 Taylor step
    (cos to theta^4, sin to theta^5; truncation below 1e-19), within a
    few ulp of `np.exp`. On a block's chips in `goldenbaum_estimate`, whose
    temporaries stay in cache, it costs less than `np.cos` and `np.sin`; on
    large unblocked arrays it costs more than `np.exp`.
    """
    theta = turns * float(_TURN_TABLE.size)
    index = theta.astype(np.intp)  # floor: turns are nonnegative
    theta -= index
    theta *= 2.0 * np.pi / _TURN_TABLE.size
    t2 = theta * theta
    out.real = 1.0 + t2 * (t2 / 24.0 - 0.5)
    out.imag = theta * (1.0 + t2 * (t2 / 120.0 - 1.0 / 6.0))
    out *= _TURN_TABLE[index]
    return out


def _chips(turns: np.ndarray) -> np.ndarray:
    """The chips e^{2 pi i turns} of a block's senders, through
    `_unit_phasors` into a new contiguous buffer: through a strided view
    the phasors cost about 3x. A lone chip is computed beside a dummy one:
    numpy's one-element in-place complex product rounds differently from
    its vector loop, which would tie the chip's last bit to the block."""
    if turns.size == 1:
        return _chips(np.append(turns, 0.0))[:1].reshape(turns.shape)
    return _unit_phasors(turns, np.empty(turns.shape, dtype=complex))


def _gram_order(L_seq: int, L_e: int) -> bool:
    """Whether `goldenbaum_estimate` sums its energy in Gram order: when a
    sender's L_seq (L_seq - 1) / 2 chip pairs are at most half of its
    L_seq L_e correlation terms, that is when L_seq - 1 <= L_e."""
    return L_seq - 1 <= L_e


def _correlation_block(mask, turns, p, z, out) -> int:
    """One block's energies in correlation order into `out` (b, M); returns
    the number of senders, whose chip turns `turns` starts with.

    The block is evaluated over the users that vote +1 somewhere in it
    (all users if fewer than two do). Their chips are scattered into
    zero-filled (b, M, u, L_seq) sequences at the flat indices of the vote
    mask, whose C order is the draws'.
    """
    L_seq, L_e = turns.shape[1] + 1, p.size
    # A 2-D reduction is several times faster than np.any over two axes.
    users = np.logical_or.reduce(mask.reshape(-1, mask.shape[-1]), axis=0)
    # Keep at least two users: numpy's matmul takes a lone row through
    # another kernel than a stack of rows, which can move a last bit.
    if np.count_nonzero(users) > 1 and not users.all():
        mask = mask[:, :, users]
    cells = np.flatnonzero(mask)  # C order: the draws' order
    phasors = _chips(turns[: cells.size])
    seqs = np.zeros((mask.size, L_seq), dtype=complex)
    seqs[cells, 0] = 1.0  # flat indices: far faster than a boolean mask
    seqs[cells, 1:] = phasors
    seqs = seqs.reshape(mask.shape + (L_seq,))
    # r[..., u, l] = sum_n s_u[n] conj(z[n + l]): the conjugate of
    # (delayed s_u)^H z, with the same |r|^2.
    r = seqs @ np.swapaxes(sliding_window_view(z.conj(), L_seq, axis=-1), -1, -2)
    power = r.real**2 + r.imag**2
    # The users are summed in sequence, so a silent user's exact zero
    # leaves the sum as it is. np.sum does so along an outer axis, but at
    # L_e = 1 the users axis is the contiguous one, which it sums pairwise.
    if L_e == 1:
        power = np.cumsum(power, axis=-2)[..., -1, :]
    else:
        power = np.sum(power, axis=-2)
    out[...] = 2.0 * (power @ p)
    return cells.size


def _gram_block(counts, turns, p, z, out) -> int:
    """One block's energies in Gram order into `out` (b, M); returns the
    number of senders, whose chip turns `turns` starts with.

    `counts` (b, M) holds each (trial, position) cell's senders S_c, which
    are contiguous in draw order. With the senders' Gram matrix G = sum s
    s^H and the window's Z[a, b] = sum_l p_l conj(z[a + l]) z[b + l], the
    energy 2 sum_u sum_l p_l |s_u^H z_l|^2 is 2 sum_{a, b} G[a, b] Z[a, b]
    = 2 (S_c sum_a Z[a, a] + 2 Re sum_{a < b} G[a, b] Z[a, b]): the chips
    are unimodular, so G[a, a] = S_c. One `np.add.reduceat` sums each
    cell's chip products s[a] conj(s[b]). Cells run along the last axis,
    and every sum over another axis runs over (re, im) float pairs, so it
    never collapses into a sum along the cells: each cell's sums take the
    same order whatever the block.
    """
    L_seq, L_e = turns.shape[1] + 1, p.size
    counts = counts.reshape(-1)
    cells = np.flatnonzero(counts)
    partial = cells.size < counts.size
    size = counts[cells]
    S = int(size.sum())
    x = _chips(turns[:S])
    # Chip products of the pairs a < b in row-major order, per sender;
    # s[0] = 1 and s[b] = x[b - 1], so the pairs (0, b) are conj(x).
    pairs = [(a, b) for a in range(L_seq) for b in range(a + 1, L_seq)]
    prods = np.empty((len(pairs), S), dtype=complex)
    # One product per pair: for a lone sender, a chip broadcast over
    # several pairs goes through another numpy loop, which rounds
    # differently.
    xc = prods[: L_seq - 1]
    np.conjugate(x.T, out=xc)
    for row, (a, b) in enumerate(pairs[L_seq - 1 :], L_seq - 1):
        np.multiply(x[:, a - 1], xc[b - 1], out=prods[row])
    gram = np.add.reduceat(prods, np.cumsum(size) - size, axis=1)
    zt = z.reshape(-1, z.shape[-1])
    zt = (zt[cells] if partial else zt).T.copy()  # (window, cells)
    # sum_a Z[a, a] = sum_k q_k |z[k]|^2, q = p * ones(L_seq).
    sq = np.square(zt.view(float))
    sq *= np.convolve(p, np.ones(L_seq))[:, np.newaxis]
    trace = np.sum(sq, axis=0)
    # w[l, j] = z[a_j + l] conj(z[b_j + l]), so Re(G Z) = G . w in floats.
    ia, ib = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    lags = np.arange(L_e)[:, np.newaxis]
    w = np.take(zt, (ia + lags).ravel(), axis=0) * np.take(
        zt.conj(), (ib + lags).ravel(), axis=0)
    wf = w.view(float).reshape(L_e, -1)
    wf *= p[:, np.newaxis]
    zw = np.sum(wf, axis=0).reshape(len(pairs), 2 * cells.size)
    cross = np.sum(zw * gram.view(float), axis=0)
    energy = 2.0 * (size * (trace[0::2] + trace[1::2])
                    + 2.0 * (cross[0::2] + cross[1::2]))
    if partial:
        out[...] = 0.0
        out.reshape(-1)[cells] = energy
    else:
        out.reshape(-1)[...] = energy
    return S


def goldenbaum_estimate(
    plus, rng: np.random.Generator, L_seq: int, pdp_cfg: PdpConfig, sigma2: float
) -> np.ndarray:
    """Noise-debiased vote-sum estimates, shape (n, M), of (n, U, M) bool
    plus-votes.

    User u sends sqrt(vote + 1) times a random unimodular sequence s_u of
    length L_seq, so a -1 voter is silent and a +1 voter sends |s|^2 = 2
    per sample, through its own multipath draw h_u ~ CN(0, diag p), p =
    `pdp_cfg.taps`. Subtracting the expected noise energy of the whole
    window = L_seq + L_e - 1 samples makes (|y|^2 - window sigma2) / L_seq
    - U an unbiased estimate of the vote sum.

    The receiver reads only |y|^2, so only its law is drawn. Given the
    sequences, y is CN(0, C) with C = sum_u sum_l p_l a_ul a_ul^H +
    sigma2 I, a_ul = sqrt(2) s_u delayed by l samples. Then |y|^2 has
    exactly the law of z^H C z with z ~ CN(0, I_window): both are
    sum_i lambda_i(C) Exp(1). So

        |y|^2 ~ 2 sum_u sum_l p_l |sum_n s_u[n] conj(z[n + l])|^2
                + sigma2 |z|^2.

    Draws are made only for the S sending (trial, position, user) cells,
    counted in C order of the (n, M, U) per-vote layout. Per call the rng
    draws the (S, L_seq - 1) chip turns of every chip but the first
    (`rng.random`, phases in units of 2 pi) and then one (n, M, window)
    unit window z (`complex_normal` at scale sqrt(1/2)), whatever sigma2;
    no taps and no separate noise. Each sender's first chip is 1: C is
    unchanged when s_u is rotated by a common phase, and the remaining
    phase differences are i.i.d. uniform.

    After the draws, blocks of `_GOLDENBAUM_BLOCK` trials are evaluated in
    turn, their chips through `_unit_phasors`, in one of two orders of the
    same quadratic form, chosen from (L_seq, L_e) alone by `_gram_order`:

    - Gram order when L_seq - 1 <= L_e (K <= 16 at L_e = 5, K = 4 at L_e
      = 1), where a sender's L_seq (L_seq - 1) / 2 chip pairs are at most
      half of its L_seq L_e correlation terms: per (trial, position) the
      senders' chip products s[a] conj(s[b]), a < b, are summed into their
      Gram matrix and contracted with the window's tap-weighted products
      (`_gram_block`). Every sum is per cell, so the estimates are bitwise
      the same wherever the blocks fall.
    - Correlation order otherwise: each sender's sequence is correlated
      with the window at every delay and |r|^2 summed in sequence over the
      users that send in the block (`_correlation_block`). A silent cell
      adds exact zeros, so the estimates are bitwise those of the same
      evaluation over every user at once.

    The two orders differ in the last bits of an estimate only (below 1e-15
    of the largest in sampled cases), and the decisions read its sign. The
    sigma2 |z|^2 term is elementwise per (trial, position), so it is added
    once, after the blocks.
    """
    plus = _check_plus(plus)
    if L_seq < 1:
        raise ValueError("sequence length must be positive")
    check_noise_variance(sigma2)
    n, U, M = plus.shape
    sending = np.swapaxes(plus, -1, -2)  # (n, M, U)
    S = int(np.count_nonzero(sending))
    if _gram_order(L_seq, pdp_cfg.L_e):
        # The Gram order reads only the senders of each (trial, position).
        evaluate, sending = _gram_block, sending @ np.ones(U, dtype=np.intp)
    else:
        evaluate = _correlation_block
    turns = rng.random((S, L_seq - 1))
    window = L_seq + pdp_cfg.L_e - 1
    z = complex_normal((n, M, window), math.sqrt(0.5), rng)
    p = pdp_cfg.taps
    energy = np.empty((n, M))
    first = 0  # the block's first sender in draw order
    for lo in range(0, n, _GOLDENBAUM_BLOCK):
        block = slice(lo, lo + _GOLDENBAUM_BLOCK)
        first += evaluate(sending[block], turns[first:], p, z[block], energy[block])
    if sigma2 > 0:  # elementwise per (trial, position): once for all blocks
        energy += sigma2 * np.sum(z.real**2 + z.imag**2, axis=-1)
    return (energy - window * sigma2) / L_seq - U


def obda_received(
    plus,
    rng: np.random.Generator,
    sigma2: float,
    phase_errors: bool = False,
    tci: bool = True,
) -> np.ndarray:
    """The real part of the aggregate BPSK symbol, Re y, shape (n, M), over
    single-tap subchannels h ~ CN(0, 1), of (n, U, M) bool plus-votes (a
    vote v is +1 where set, -1 elsewhere).

    With truncated channel inversion (tci) a node stays silent when |h|^2
    is at or below `_TRUNCATION` and otherwise pre-equalizes by
    conj(h)/|h|^2, so it delivers its vote v exactly; phase errors, uniform
    within +-120 degrees, rotate it to v e^{i theta}. Without tci the node
    has no CSI and sends the raw BPSK symbol.

    The receiver reads only sign(Re y), so only the law of Re y given the
    votes is drawn, with no taps. |h|^2 ~ Exp(1), so a node is active with
    probability e^{-_TRUNCATION}, and Re y = sum_u active_u v_u
    cos(theta_u) + N(0, sigma2/2). Per call the rng draws the (n, M, U)
    activity uniforms (`rng.random`; active below e^{-_TRUNCATION}), then
    the (n, M, U) phase errors when `phase_errors` is set, then the (n, M)
    noise normals when sigma2 > 0. Without phase errors the sum of the active
    votes is exact, so a noiseless tie reads exactly 0. Without tci,
    sum_u v_u h_u e^{i theta_u} is CN(0, U) whatever the votes and phases,
    so Re y is one (n, M) draw of normals with variance (U + sigma2)/2,
    the call's only draw, whatever sigma2.
    """
    plus = _check_plus(plus)
    check_noise_variance(sigma2)
    per_mv = np.swapaxes(plus, -1, -2)  # (n, M, U)
    n, M, U = per_mv.shape
    if not tci:
        return math.sqrt((U + sigma2) / 2.0) * rng.standard_normal((n, M))
    active = rng.random(per_mv.shape) < math.exp(-_TRUNCATION)
    if phase_errors:
        theta = rng.uniform(-_PHASE_HALFWIDTH, _PHASE_HALFWIDTH, per_mv.shape)
        # v cos(theta), exactly: negate the plus cells, then every cell.
        terms = np.cos(theta, out=theta)
        np.negative(terms, out=terms, where=per_mv)
        np.negative(terms, out=terms)
        y = np.sum(terms, axis=-1, where=active)
    else:
        # The active votes' sum, exactly: twice the active plus votes less
        # every active vote.
        y = 2.0 * (active & per_mv).sum(axis=-1) - active.sum(axis=-1)
    if sigma2 > 0:
        y += math.sqrt(sigma2 / 2.0) * rng.standard_normal((n, M))
    return y

