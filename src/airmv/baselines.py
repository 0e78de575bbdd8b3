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
"""

from __future__ import annotations

import math

import numpy as np

from .channel import PdpConfig, awgn, complex_normal, sample_channel, superpose
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
    sum. Per call the rng draws the (n, M, U, L_seq) phases, the
    (n * M, U, L_e) taps of `sample_channel` and then, when sigma2 > 0,
    the (n, M, window) noise of `superpose`.
    """
    votes = check_vote_batch(votes)
    if L_seq < 1:
        raise ValueError("sequence length must be positive")
    _check_sigma2(sigma2)
    n, U, M = votes.shape
    per_mv = np.swapaxes(votes, -1, -2)  # (n, M, U)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=per_mv.shape + (L_seq,))
    seqs = np.sqrt(per_mv + 1.0)[..., np.newaxis] * np.exp(1j * phases)
    h = sample_channel(pdp_cfg, U, rng, trials=n * M).reshape(n, M, U, pdp_cfg.L_e)
    y = superpose(seqs, h, sigma2, rng)
    energy = np.sum(np.abs(y) ** 2, axis=-1)
    return (energy - y.shape[-1] * sigma2) / L_seq - U


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
