"""Reference aggregation schemes for comparison, and the one home of their math.

Goldenbaum's non-coherent scheme scales random unimodular sequences by the
square root of the (shifted) vote and estimates the vote sum from received
energy. OBDA maps votes to BPSK with truncated channel inversion at the
transmitters; it is coherent and therefore needs per-node CSI, which is
exactly the requirement the zero-encoded schemes avoid.

Each scheme is one vectorized backend with the contract of
`airmv.aggregation.ProbeAggregator.aggregate`: votes (n, U, M) of +/-1 in,
decisions (n, M) out, every (trial, vote position) an independent
aggregation with its own draws. The Monte Carlo calls it with M = 1, the
median with all M positions of a round; `airmv.aggregation.backend` binds
a baseline's parameters to its CLI name.

In Goldenbaum's scheme a -1 voter is silent, so the rng draws only for the
users that send: their phases, then their taps, then the noise of every
received window. A sender's first chip is fixed to phase 0. That is exact,
not an approximation: its taps are circularly symmetric and independent of
its phases, so rotating the whole sequence by the first chip's phase (the
taps absorb the rotation) leaves the law of what is received unchanged,
and the remaining phase differences are still i.i.d. uniform. The energy
is then evaluated in blocks of trials over only the users that send in the
block, their draws scattered into zero-filled arrays: silent cells add
exact zeros, so the estimates are bitwise those of one full convolution of
the same sequences, and a call's peak memory stays within about 1.4x the
bytes it draws.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import PdpConfig, awgn, complex_normal, sample_channel
from .encoding import check_vote_batch

__all__ = [
    "BASELINES",
    "default_sequence_length",
    "goldenbaum_estimate",
    "goldenbaum_aggregate",
    "obda_received",
    "obda_aggregate",
]

BASELINES = ("goldenbaum", "obda", "obda_phase", "obda_no_tci")

# Trials per evaluation block of `goldenbaum_estimate`: bounds its transient
# sequences, taps and received samples to a few MB beside the draws.
_GOLDENBAUM_BLOCK = 2048

# OBDA's synchronization phase errors are uniform within +-120 degrees.
_PHASE_HALFWIDTH = math.radians(120.0)


def default_sequence_length(K: int) -> int:
    """Sequence length matching the indexed scheme's resource budget:
    the nearest integer of (K + 1) / log2(K)."""
    if K < 2:
        raise ValueError("K must be at least 2")
    return max(1, round((K + 1) / math.log2(K)))


def _check_sigma2(sigma2: float) -> None:
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")


def goldenbaum_estimate(
    votes, rng: np.random.Generator, L_seq: int, pdp_cfg: PdpConfig, sigma2: float
) -> np.ndarray:
    """Noise-debiased vote-sum estimates, shape (n, M).

    User u sends sqrt(vote + 1) times a random unimodular sequence of
    length L_seq, so a -1 voter is silent and a +1 voter sends |s|^2 = 2
    per sample, through its own multipath draw. Subtracting the expected
    noise energy of the whole L_seq + L_e - 1 sample window makes
    (|y|^2 - window sigma2) / L_seq - U an unbiased estimate of the vote
    sum.

    Draws are made only for the S sending (trial, position, user) cells,
    counted in C order of the (n, M, U) per-vote layout. Per call the rng
    draws the (S, L_seq - 1) phases of every chip but the first, the
    (S, L_e) taps (`sample_channel`, one transmitter per sender) and then,
    when sigma2 > 0, the (n, M, window) noise of `awgn`; nothing for a
    silent user. Each sender's first chip is sqrt(2) at phase 0. The law of
    y is exactly that of uniform phases on every chip: the taps are
    circularly symmetric CN(0, diag p) and independent of the phases, so
    e^{i phi_0} h has the law of h, and phi_k - phi_0 are i.i.d. uniform.

    After the draws, blocks of `_GOLDENBAUM_BLOCK` trials are evaluated in
    turn, each over the users that vote +1 somewhere in the block. The
    block's senders are scattered into zero-filled (b, M, u, .) sequence
    and tap arrays by the block's vote mask, whose C order is the draws'.
    Silent cells add exact zeros, so the estimates are bitwise those of the
    full convolution (`superpose`) of the same sequences over every user.
    Beside its draws a call holds only one block's temporaries, so its
    peak memory stays within 1.4x the bytes it draws.
    """
    votes = check_vote_batch(votes)
    if L_seq < 1:
        raise ValueError("sequence length must be positive")
    _check_sigma2(sigma2)
    n, U, M = votes.shape
    sending = np.swapaxes(votes, -1, -2) > 0  # (n, M, U)
    S = int(np.count_nonzero(sending))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(S, L_seq - 1))
    h = sample_channel(pdp_cfg, 1, rng, trials=S).reshape(S, pdp_cfg.L_e)
    window = L_seq + pdp_cfg.L_e - 1
    noise = awgn((n, M, window), sigma2, rng) if sigma2 > 0 else None
    energy = np.empty((n, M))
    first = 0  # the block's first sender in draw order
    for lo in range(0, n, _GOLDENBAUM_BLOCK):
        block = slice(lo, lo + _GOLDENBAUM_BLOCK)
        mask = sending[block]
        users = np.any(mask, axis=(0, 1))
        if not users.all():
            mask = mask[:, :, users]
        senders = slice(first, first + int(np.count_nonzero(mask)))
        first = senders.stop
        # sqrt(2) e^{i phase}, with e^{i phase} written as cos and sin.
        chips = np.empty((senders.stop - senders.start, L_seq), dtype=complex)
        chips[:, 0] = 1.0
        np.cos(phases[senders], out=chips.real[:, 1:])
        np.sin(phases[senders], out=chips.imag[:, 1:])
        chips *= math.sqrt(2.0)
        if mask.all():  # every cell sends: the draws are already in place
            seqs = chips.reshape(mask.shape + (L_seq,))
            taps = h[senders].reshape(mask.shape + (pdp_cfg.L_e,))
        else:
            seqs = np.zeros(mask.shape + (L_seq,), dtype=complex)
            seqs[mask] = chips
            taps = np.zeros(mask.shape + (pdp_cfg.L_e,), dtype=complex)
            taps[mask] = h[senders]
        y = np.zeros(mask.shape[:2] + (window,), dtype=complex)
        for tap in range(pdp_cfg.L_e):
            y[..., tap : tap + L_seq] += np.einsum(
                "...u,...un->...n", taps[..., tap], seqs
            )
        if noise is not None:
            y += noise[block]
        energy[block] = np.sum(np.abs(y) ** 2, axis=-1)
    return (energy - window * sigma2) / L_seq - U


def goldenbaum_aggregate(votes, rng, L_seq, pdp_cfg, sigma2) -> np.ndarray:
    """Majority-vote decisions (n, M): the sign of `goldenbaum_estimate`."""
    return np.sign(goldenbaum_estimate(votes, rng, L_seq, pdp_cfg, sigma2)).astype(int)


def obda_received(
    votes,
    rng: np.random.Generator,
    sigma2: float,
    truncation: float = 0.2,
    phase_errors: bool = False,
    tci: bool = True,
) -> np.ndarray:
    """Aggregate BPSK symbols y, shape (n, M), over single-tap subchannels.

    With truncated channel inversion (tci) a node stays silent when |h|^2
    is at or below `truncation` and otherwise pre-equalizes by
    conj(h)/|h|^2, so its votes add coherently; without it the node has no
    CSI and sends the raw BPSK symbol. Phase errors rotate each symbol by
    a uniform offset within +-120 degrees. Per call the rng draws the
    (n, M, U) Rayleigh taps (all real parts, then all imaginary), the
    (n, M, U) phase errors if enabled, and the (n, M) noise when sigma2 > 0.
    """
    votes = check_vote_batch(votes)
    if truncation < 0:
        raise ValueError("truncation threshold must be nonnegative")
    _check_sigma2(sigma2)
    per_mv = np.swapaxes(votes, -1, -2).astype(float)  # (n, M, U)
    h = complex_normal(per_mv.shape, math.sqrt(0.5), rng)
    if tci:
        gain = np.abs(h) ** 2
        inv = np.where(gain > truncation, np.conjugate(h) / np.maximum(gain, 1e-300), 0)
        symbols = per_mv * inv
    else:
        symbols = per_mv + 0j
    if phase_errors:
        symbols = symbols * np.exp(
            1j * rng.uniform(-_PHASE_HALFWIDTH, _PHASE_HALFWIDTH, per_mv.shape)
        )
    y = np.sum(h * symbols, axis=-1)
    if sigma2 > 0:
        y = y + awgn(y.shape, sigma2, rng)
    return y


def obda_aggregate(votes, rng, sigma2, truncation=0.2, phase_errors=False,
                   tci=True) -> np.ndarray:
    """Majority-vote decisions (n, M): the sign of the real part of
    `obda_received`."""
    y = obda_received(votes, rng, sigma2, truncation, phase_errors, tci)
    return np.sign(y.real).astype(int)
