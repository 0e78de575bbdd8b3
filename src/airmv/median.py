"""Distributed median computation driven by iterative majority votes.

The median of each parameter minimizes the sum of absolute distances, so a
sign-descent step needs only the majority vote of the per-device signs
sign(estimate - parameter). Devices therefore reveal one vote per round per
parameter and nothing else; the aggregator updates the estimate by the
learning rate times the (possibly miscomputed) majority vote and announces
it error-free on the downlink.

`run_median` keeps the (R, M) estimates of its R realizations as one float
array. Each round packs its sign test `estimates >= params` once into
the (R, U, ceil(M / 8)) packed plus-bits every backend takes
(`local_votes`), hands them to one `aggregate(packed, rng)` backend, which
`airmv.aggregation.backend`
builds once per run, deciding every vote position (the same constructor
the error-rate Monte Carlo calls), and subtracts mu_i times the decisions:
a tie's zero decision leaves its estimate where it was. The rate mu_i falls
linearly from 0.01 at the first round to 1e-5 at the last. The true
medians the RMSE is measured against come from one partition at the two
middle ranks (`true_medians`), the values of `np.median` without the NaN
check that imports `numpy.ma`, so a round costs little more than its
draws and a run imports no `numpy.ma`.
"""

from __future__ import annotations

import math

import numpy as np

from .aggregation import OWN_DRAWS, backend, backend_votes, pack_votes
from .channel import PdpConfig
from .encoding import Method
from .simulate import stream

__all__ = [
    "local_votes",
    "run_median",
    "true_medians",
    "votes_per_round",
]

# The learning rate at the first and at the last round.
_MU_START = 0.01
_MU_END = 1e-5


def local_votes(estimates: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Votes sign(estimate - parameter) per device, packed; sign(0)
    resolves to +1.

    `params` has shape (..., U, M) against estimates (..., M); the result
    is its (..., U, ceil(M / 8)) `pack_votes`, the format every backend
    takes. For finite values estimate - parameter >= 0 exactly when
    estimate >= parameter, so one comparison forms the plus-votes.
    """
    return pack_votes(np.asarray(estimates)[..., np.newaxis, :] >= np.asarray(params))


def votes_per_round(name: str, K: int) -> int:
    """Votes M decided per round. The zero-encoded backends decide as many
    as their codeword carries; the ideal and baseline backends borrow the
    indexed scheme's M = log2(K), so that all curves answer the same
    problem size."""
    if name in OWN_DRAWS:
        try:
            Method.INDEXED.validate_k(K)
        except ValueError:
            raise ValueError(
                f"the {name} median decides log2(K) votes per round, "
                "so K must be a power of two >= 2"
            ) from None
    return backend_votes(name, K)


def true_medians(params: np.ndarray) -> np.ndarray:
    """Per-parameter medians over the devices: (..., U, M) -> (..., M).

    One partition at the two middle ranks, then (lo + hi) / 2, as
    `np.median` computes it: bitwise equal for finite values, odd U
    included (x + x is exact, and so is halving it), except that a median
    of -0.0 keeps its sign where `np.median` returns +0.0, which no
    squared error sees. `np.median`'s NaN check imports `numpy.ma`, about
    15 ms per process; this imports nothing.
    """
    U = params.shape[-2]
    lo, hi = (U - 1) // 2, U // 2
    part = np.partition(params, sorted({lo, hi}), axis=-2)
    return (part[..., lo, :] + part[..., hi, :]) / 2.0


def run_median(
    name: str,
    K: int,
    U: int,
    rounds: int,
    realizations: int,
    pdp_cfg: PdpConfig,
    sigma2: float,
    seed: int,
    key: tuple[int, ...] = (),
) -> np.ndarray:
    """Root-mean-square error of the estimates against the true medians,
    recorded after every round; shape (rounds,).

    Device parameters are Uniform(-sqrt(3), sqrt(3)); each round decides
    `votes_per_round(name, K)` parameters.
    """
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds=}")
    if U < 1 or realizations < 1:
        raise ValueError(f"need U, realizations >= 1, got {U=}, {realizations=}")
    M = votes_per_round(name, K)

    rng = stream(seed, *key)
    params = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(realizations, U, M))
    true_median = true_medians(params)

    mv = backend(name, K, pdp_cfg, sigma2)
    estimates = np.zeros((realizations, M))
    span = max(rounds - 1, 1)
    rmse = np.empty(rounds)
    for i in range(rounds):
        mu = _MU_START + (_MU_END - _MU_START) * (i / span)
        estimates -= mu * mv(local_votes(estimates, params), rng)
        rmse[i] = math.sqrt(np.mean((estimates - true_median) ** 2))
    return rmse
