"""Vectorized Monte Carlo link-level trials.

One entry, `simulate_cer`, serves every scheme: a batch fixes the scored
vote and hands it to the scheme's `aggregate(votes, rng)` backend, the
probe-domain engine of `airmv.aggregation` or a backend of
`airmv.baselines`, the same ones the median runs.

Trials are processed in fixed-size batches; every batch derives its own
generator from (master seed, stream key, batch index), so results are
bit-reproducible no matter how batches are scheduled across workers. Error
counts are integers and their reduction is order-independent.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from .aggregation import ProbeAggregator
from .baselines import BASELINES, aggregator
from .channel import PdpConfig
from .channel import superpose  # noqa: F401  (bound for bench/tests)
from .encoding import Method

__all__ = [
    "BATCH_SIZE",
    "stream",
    "run_trial_batches",
    "mv_error_batch",
    "simulate_cer",
    "binomial_stderr",
]

BATCH_SIZE = 20_000

# One engine per sweep point: its eigh factors cost O(P^3), a batch O(n P).
_engine = lru_cache(maxsize=1)(ProbeAggregator)


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
    rng: np.random.Generator,
    n: int,
    method: Method | str,
    K: int,
    U: int,
    n_plus: int,
    pdp_cfg: PdpConfig,
    sigma2: float,
) -> int:
    """Errors on the probed vote among n trials of any MV scheme.

    `method` is a `Method` (or its name) or a baseline name. A zero-encoded
    codeword carries M votes, drawn at random apart from the fixed vote 0;
    only vote 0 is scored, so only its probe points are evaluated. A
    baseline aggregates the fixed vote alone, as (n, U, 1) votes.
    """
    column = _fixed_column(U, n_plus)
    if method in BASELINES:
        votes = np.broadcast_to(column[:, np.newaxis], (n, U, 1))
        aggregate = aggregator(method, K, pdp_cfg, sigma2)
    else:
        method = Method.from_name(method)
        M = method.votes_per_codeword(K)
        votes = _random_votes(rng, n, M, column)
        aggregate = _engine(method, K, pdp_cfg, sigma2, 0).aggregate
    return _count_mv_errors(aggregate(votes, rng)[:, 0], U, n_plus)


def binomial_stderr(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


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
    batch_size: int = BATCH_SIZE,
) -> tuple[float, float]:
    """Empirical error rate and binomial standard error of any MV scheme
    (see `mv_error_batch`)."""

    def counter(rng, n):
        return mv_error_batch(rng, n, method, K, U, n_plus, pdp_cfg, sigma2)

    errors = run_trial_batches(counter, trials, seed, key, threads, batch_size)
    p = errors / trials
    return p, binomial_stderr(p, trials)
