"""Vectorized Monte Carlo link-level trials.

One entry, `simulate_cer`, serves every scheme: it builds one
`aggregate(votes, rng)` of `airmv.aggregation.backend` deciding vote 0
alone (`positions=0`) per call, that is per sweep point, and its batches
share it. Every batch fixes the scored vote and hands the votes to it.
These are the backends the median runs.

Trials are processed in batches of `BATCH_SIZE`; every batch derives its
own generator from (master seed, stream key, batch index), so results are
bit-reproducible no matter how batches are scheduled across workers, and a
seed and a key name exactly one stream layout. Error counts are integers
and their reduction is order-independent.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .aggregation import backend
from .baselines import BASELINES
from .channel import PdpConfig
from .encoding import Method

__all__ = [
    "BATCH_SIZE",
    "stream",
    "run_trial_batches",
    "mv_error_batch",
    "simulate_cer",
]

BATCH_SIZE = 20_000


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
) -> int:
    """Sum count_errors(rng, n) over batches of `BATCH_SIZE` trials (the
    last one shorter) covering `trials`.

    The batch grid depends only on `trials` and `BATCH_SIZE`, read at call
    time, never on the worker count, so any `threads` value produces the
    same total.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    sizes = [
        min(BATCH_SIZE, trials - start) for start in range(0, trials, BATCH_SIZE)
    ]

    def one(batch_index: int) -> int:
        return int(count_errors(stream(seed, *key, batch_index), sizes[batch_index]))

    if threads <= 1 or len(sizes) == 1:
        return sum(one(i) for i in range(len(sizes)))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(one, range(len(sizes))))


def _fixed_column(U: int, n_plus: int) -> np.ndarray:
    if U < 1 or not 0 <= n_plus <= U:
        raise ValueError(f"need U >= 1 and 0 <= n_plus <= U, got {U=}, {n_plus=}")
    return np.where(np.arange(U) < n_plus, 1, -1)


def _random_votes(rng: np.random.Generator, n: int, M: int, column) -> np.ndarray:
    """(n, U, M) int8 votes: vote 0 is the fixed `column`, the others fair
    random +/-1, one random bit each."""
    U = len(column)
    size = n * U * M
    bits = np.unpackbits(
        np.frombuffer(rng.bytes(-(-size // 8)), dtype=np.uint8),
        count=size,
        bitorder="little",
    )
    votes = bits.view(np.int8).reshape(n, U, M)
    votes *= 2
    votes -= 1
    votes[:, :, 0] = column
    return votes


def _count_mv_errors(decisions: np.ndarray, U: int, n_plus: int) -> int:
    if 2 * n_plus == U:
        return decisions.size  # a true tie counts as an error outright
    target = 1 if 2 * n_plus > U else -1
    return int(np.count_nonzero(decisions != target))


def mv_error_batch(
    rng: np.random.Generator, n: int, aggregate, U: int, n_plus: int, M=None
) -> int:
    """Errors on vote 0 among n trials of one `aggregate(votes, rng)` backend.

    With M, each trial sends a zero-encoded codeword's M votes, drawn at
    random apart from the fixed vote 0; only vote 0 is scored, so the
    backend need decide vote 0 alone. With M None, each trial is the fixed
    vote alone, as (n, U, 1) votes: a baseline decides every vote on its own
    draws, so the other votes cannot change vote 0's decision.
    """
    column = _fixed_column(U, n_plus)
    if M is None:
        votes = np.broadcast_to(column[:, np.newaxis], (n, U, 1))
    else:
        votes = _random_votes(rng, n, M, column)
    return _count_mv_errors(aggregate(votes, rng)[:, 0], U, n_plus)


def simulate_cer(
    method: Method | str,
    K: int,
    U: int,
    n_plus: int,
    pdp_cfg: PdpConfig,
    sigma2: float,
    trials: int,
    seed: int,
    key: tuple[int, ...] = (),
    threads: int = 1,
) -> tuple[float, float]:
    """Empirical error rate and binomial standard error of any MV scheme
    (see `mv_error_batch`); `method` is a `Method`, its name or a baseline
    name. The batches, on any number of threads, share one stateless
    backend deciding vote 0, built here after the counts are checked."""
    _fixed_column(U, n_plus)
    M = None if method in BASELINES else Method.from_name(method).votes_per_codeword(K)
    aggregate = backend(method, K, pdp_cfg, sigma2, positions=0)

    def counter(rng, n):
        return mv_error_batch(rng, n, aggregate, U, n_plus, M)

    p = run_trial_batches(counter, trials, seed, key, threads) / trials
    return p, math.sqrt(p * (1.0 - p) / trials)
