"""Vectorized Monte Carlo link-level trials.

One entry, `simulate_cer`, serves every scheme: it builds one
`aggregate(packed, rng)` of `airmv.aggregation.backend` deciding vote 0
alone (`positions=0`) per call, that is per sweep point, and its batches
share it. Every batch fixes the scored vote and hands the votes to it as
packed plus-bits, the one vote format of every backend. These are the
backends the median runs.

A zero-encoded batch draws its other votes as `rng.bytes`, one bit each in
C order of (n, U, M). When M is a multiple of 8 (uncoded at K >= 8,
differential at K >= 16) the drawn bytes are the packed votes once vote
0's bit is set; other M unpack the drawn bits and pack them again. A
batch then holds its packed votes, its draws and the engine's (n, P)
probe values, which the engine works through in bounded row blocks.

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

from .aggregation import OWN_DRAWS, backend, backend_votes, pack_votes, scored_column
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


def _drawn_bytes(rng: np.random.Generator, size: int) -> np.ndarray:
    """The `size` bytes of `rng.bytes(size)` as a writable uint8 array, from
    the same draw: `Generator.bytes` takes ceil(size / 4) uint32 words from
    `integers` and lays them out little-endian. Drawn this way the bytes
    are written once, where `rng.bytes` copies them three times."""
    words = rng.integers(0, 1 << 32, size=-(-size // 4), dtype=np.uint32)
    return words.astype("<u4", copy=False).view(np.uint8)[:size]


def _random_votes(rng: np.random.Generator, n: int, M: int, plus: np.ndarray) -> np.ndarray:
    """(n, U, ceil(M / 8)) packed votes: vote 0 is the fixed (U,) plus-bit
    column `plus`, the others fair random bits, one bit each of the n U M
    bits of `rng.bytes` in C order of (n, U, M) (`_drawn_bytes`).

    When M is a multiple of 8, each (trial, user) row of the drawn bits
    starts on a byte, so the drawn bytes are the packed votes once vote
    0's bit is set; other M unpack the drawn bits and pack them again.
    """
    U = plus.size
    size = n * U * M
    drawn = _drawn_bytes(rng, -(-size // 8))
    if M % 8 == 0:
        packed = drawn.reshape(n, U, M // 8)
        packed[..., 0] &= 0xFE
        packed[..., 0] |= plus
        return packed
    bits = np.unpackbits(drawn, count=size, bitorder="little").view(bool)
    bits = bits.reshape(n, U, M)
    bits[..., 0] = plus
    return pack_votes(bits)


def _count_mv_errors(decisions: np.ndarray, U: int, n_plus: int) -> int:
    if 2 * n_plus == U:
        return decisions.size  # a true tie counts as an error outright
    target = 1 if 2 * n_plus > U else -1
    return int(np.count_nonzero(decisions != target))


def mv_error_batch(
    rng: np.random.Generator, n: int, aggregate, U: int, n_plus: int, method, K: int
) -> int:
    """Errors on vote 0 among n trials of one `aggregate(packed, rng)` of
    `backend(method, K, ...)`, taking the packed votes of its M =
    `backend_votes(method, K)` positions.

    Vote 0 is the `scored_column` of n_plus ones. A zero-encoded trial sends
    a codeword's M votes, the others drawn at random (`_random_votes`);
    only vote 0 is scored, so the backend need decide vote 0 alone. For
    the `OWN_DRAWS` backends the other votes stay -1 and nothing is drawn
    for them: each decides every vote on its own draws, so the other votes
    cannot change vote 0's decision.
    """
    M = backend_votes(method, K)
    plus = scored_column(U, n_plus).astype(np.uint8)
    if method not in OWN_DRAWS:
        packed = _random_votes(rng, n, M, plus)
    else:
        row = np.zeros((U, -(-M // 8)), dtype=np.uint8)
        row[:, 0] = plus
        packed = np.broadcast_to(row, (n,) + row.shape)
    return _count_mv_errors(aggregate(packed, rng)[:, 0], U, n_plus)


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
    scored_column(U, n_plus)
    aggregate = backend(method, K, pdp_cfg, sigma2, positions=0)

    def counter(rng, n):
        return mv_error_batch(rng, n, aggregate, U, n_plus, method, K)

    p = run_trial_batches(counter, trials, seed, key, threads) / trials
    return p, math.sqrt(p * (1.0 - p) / trials)
