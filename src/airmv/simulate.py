"""Vectorized Monte Carlo link-level trials.

Trials are processed in fixed-size batches; every batch derives its own
generator from (master seed, stream key, batch index), so results are
bit-reproducible no matter how batches are scheduled across workers. Error
counts are integers and their reduction is order-independent.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .aggregation import ProbeAggregator
from .channel import PdpConfig, sample_channel, superpose
from .encoding import Method, vote_pattern
from .huffman import RadiusParam, synthesize_coeffs

__all__ = [
    "BATCH_SIZE",
    "stream",
    "encode_batch",
    "run_trial_batches",
    "simulate_cer",
    "simulate_cer_goldenbaum",
    "simulate_cer_obda",
    "binomial_stderr",
]

BATCH_SIZE = 20_000


def encode_batch(method: Method, votes: np.ndarray, rp: RadiusParam) -> np.ndarray:
    """Coefficient sequences (..., K+1) for a (..., M) vote array.

    The time-domain encoder, used for waveforms (PMEPR). The Monte Carlo
    never synthesizes: it runs the probe-domain engine of
    `airmv.aggregation`.
    """
    return synthesize_coeffs(vote_pattern(method, votes), rp)


def stream(seed: int, *key: int) -> np.random.Generator:
    """Named deterministic generator keyed by integers under a master seed."""
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    )


def run_trial_batches(
    count_errors,
    trials: int,
    seed: int,
    key: tuple[int, ...] = (),
    threads: int = 1,
    batch_size: int = BATCH_SIZE,
) -> int:
    """Sum count_errors(rng, n) over fixed-size batches covering `trials`.

    The batch grid depends only on `trials` and `batch_size`, never on the
    worker count, so any `threads` value produces the same total.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    sizes = [
        min(batch_size, trials - start) for start in range(0, trials, batch_size)
    ]

    def one(batch_index: int) -> int:
        return int(count_errors(stream(seed, *key, batch_index), sizes[batch_index]))

    if threads <= 1 or len(sizes) == 1:
        return sum(one(i) for i in range(len(sizes)))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(one, range(len(sizes))))


def _fixed_column(U: int, n_plus: int) -> np.ndarray:
    col = np.empty(U, dtype=np.int64)
    col[:n_plus] = 1
    col[n_plus:] = -1
    return col


def _count_mv_errors(decisions: np.ndarray, U: int, n_plus: int) -> int:
    if 2 * n_plus == U:
        return decisions.size  # a true tie counts as an error outright
    target = 1 if 2 * n_plus > U else -1
    return int(np.count_nonzero(decisions != target))


def mv_error_batch(
    rng: np.random.Generator,
    n: int,
    method: Method,
    K: int,
    U: int,
    n_plus: int,
    pdp_cfg: PdpConfig,
    sigma2: float,
) -> int:
    """Errors on the probed vote among n trials of the zero-encoded schemes.

    Only vote 0 is scored, so only its probe points are evaluated.
    """
    M = method.votes_per_codeword(K)
    votes = rng.integers(0, 2, size=(n, U, M)) * 2 - 1
    votes[:, :, 0] = _fixed_column(U, n_plus)
    engine = ProbeAggregator(method, K, pdp_cfg, sigma2, positions=0)
    return _count_mv_errors(engine.aggregate(votes, rng)[:, 0], U, n_plus)


def goldenbaum_error_batch(
    rng: np.random.Generator,
    n: int,
    L_seq: int,
    U: int,
    n_plus: int,
    pdp_cfg: PdpConfig,
    sigma2: float,
) -> int:
    """Errors among n trials of the energy-aggregation baseline."""
    votes = _fixed_column(U, n_plus)
    amps = np.sqrt(votes + 1.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, U, L_seq))
    seqs = amps[np.newaxis, :, np.newaxis] * np.exp(1j * phases)
    h = sample_channel(pdp_cfg, U, rng, trials=n)
    y = superpose(seqs, h, sigma2, rng)
    energy = np.sum(np.abs(y) ** 2, axis=-1)
    estimate = (energy - y.shape[-1] * sigma2) / L_seq - U
    return _count_mv_errors(np.sign(estimate).astype(int), U, n_plus)


def obda_error_batch(
    rng: np.random.Generator,
    n: int,
    U: int,
    n_plus: int,
    sigma2: float,
    truncation: float = 0.2,
    phase_halfwidth: float = math.radians(120.0),
    phase_errors: bool = False,
    tci: bool = True,
) -> int:
    """Errors among n trials of BPSK aggregation over single-tap subchannels."""
    votes = _fixed_column(U, n_plus).astype(float)
    h = (rng.standard_normal((n, U)) + 1j * rng.standard_normal((n, U))) / math.sqrt(2)
    if tci:
        gain = np.abs(h) ** 2
        inv = np.where(gain > truncation, np.conjugate(h) / np.maximum(gain, 1e-300), 0)
        symbols = votes * inv
    else:
        symbols = votes + 0j
    if phase_errors:
        symbols = symbols * np.exp(
            1j * rng.uniform(-phase_halfwidth, phase_halfwidth, size=(n, U))
        )
    y = np.sum(h * symbols, axis=1)
    if sigma2 > 0:
        y = y + np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
    return _count_mv_errors(np.sign(y.real).astype(int), U, n_plus)


def binomial_stderr(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def simulate_cer(
    method: Method,
    K: int,
    U: int,
    n_plus: int,
    pdp_cfg: PdpConfig,
    sigma2: float,
    trials: int,
    seed: int,
    key: tuple[int, ...] = (),
    threads: int = 1,
    batch_size: int = BATCH_SIZE,
) -> tuple[float, float]:
    """Empirical error rate and binomial standard error for a zero-encoded scheme."""

    def counter(rng, n):
        return mv_error_batch(rng, n, method, K, U, n_plus, pdp_cfg, sigma2)

    errors = run_trial_batches(counter, trials, seed, key, threads, batch_size)
    p = errors / trials
    return p, binomial_stderr(p, trials)


def simulate_cer_goldenbaum(
    L_seq: int,
    U: int,
    n_plus: int,
    pdp_cfg: PdpConfig,
    sigma2: float,
    trials: int,
    seed: int,
    key: tuple[int, ...] = (),
    threads: int = 1,
    batch_size: int = BATCH_SIZE,
) -> tuple[float, float]:
    def counter(rng, n):
        return goldenbaum_error_batch(rng, n, L_seq, U, n_plus, pdp_cfg, sigma2)

    errors = run_trial_batches(counter, trials, seed, key, threads, batch_size)
    p = errors / trials
    return p, binomial_stderr(p, trials)


def simulate_cer_obda(
    U: int,
    n_plus: int,
    sigma2: float,
    trials: int,
    seed: int,
    key: tuple[int, ...] = (),
    threads: int = 1,
    batch_size: int = BATCH_SIZE,
    truncation: float = 0.2,
    phase_errors: bool = False,
    tci: bool = True,
) -> tuple[float, float]:
    def counter(rng, n):
        return obda_error_batch(
            rng, n, U, n_plus, sigma2,
            truncation=truncation, phase_errors=phase_errors, tci=tci,
        )

    errors = run_trial_batches(counter, trials, seed, key, threads, batch_size)
    p = errors / trials
    return p, binomial_stderr(p, trials)
