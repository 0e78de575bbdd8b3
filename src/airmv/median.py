"""Distributed median computation driven by iterative majority votes.

The median of each parameter minimizes the sum of absolute distances, so a
sign-descent step needs only the majority vote of the per-device signs
sign(estimate - parameter). Devices therefore reveal one vote per round per
parameter and nothing else; the aggregator updates the estimate by the
learning rate times the (possibly miscomputed) majority vote and announces
it error-free on the downlink.

Each round's (R, U, M) votes go to one `aggregate(votes, rng)` backend,
which `airmv.aggregation.backend` builds once per run, deciding every vote
position: the same constructor the error-rate Monte Carlo calls. The true
medians the RMSE is measured against come from one partition at the two
middle ranks (`true_medians`), the values of `np.median` without the NaN
check that imports `numpy.ma`, so a round costs little more than its
draws and a run imports no `numpy.ma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import backend
from .baselines import BASELINES
from .channel import PdpConfig
from .channel import superpose  # noqa: F401  (bound for bench/tests)
from .encoding import Method
from .simulate import stream

__all__ = [
    "MedianState",
    "local_votes",
    "median_step",
    "run_median",
    "true_medians",
    "votes_per_round",
]


@dataclass(frozen=True)
class MedianState:
    """Per-parameter estimates and the position along the step schedule."""

    estimates: np.ndarray
    iteration: int = 0
    rounds: int = 500
    mu_start: float = 0.01
    mu_end: float = 1e-5

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if self.mu_start <= 0 or self.mu_end <= 0:
            raise ValueError("learning rates must be positive")
        object.__setattr__(
            self, "estimates", np.array(self.estimates, dtype=float, copy=True)
        )

    @property
    def mu(self) -> float:
        """Learning rate, linearly interpolated across the round horizon."""
        if self.rounds == 1:
            return self.mu_start
        frac = min(self.iteration, self.rounds - 1) / (self.rounds - 1)
        return self.mu_start + (self.mu_end - self.mu_start) * frac


def local_votes(state: MedianState, params: np.ndarray) -> np.ndarray:
    """Votes sign(estimate - parameter) per device; sign(0) resolves to +1.

    `params` has shape (..., U, M) against estimates (..., M); the int8
    result matches `params`. For finite values estimate - parameter >= 0
    exactly when estimate >= parameter, so one comparison forms the votes.
    """
    votes = (np.asarray(state.estimates)[..., np.newaxis, :]
             >= np.asarray(params)).view(np.int8)
    votes *= 2
    votes -= 1
    return votes


def median_step(state: MedianState, mv: np.ndarray) -> MedianState:
    """Descend by mu times the majority-vote direction; a zero (tie)
    decision leaves the estimate unchanged."""
    new_estimates = state.estimates - state.mu * np.asarray(mv)
    return replace(state, estimates=new_estimates, iteration=state.iteration + 1)


def votes_per_round(name: str, K: int) -> int:
    """Votes M decided per round. The zero-encoded backends decide as many
    as their codeword carries; the ideal and baseline backends borrow the
    indexed scheme's M = log2(K), so that all curves answer the same
    problem size."""
    if name in BASELINES + ("ideal",):
        try:
            return Method.INDEXED.votes_per_codeword(K)
        except ValueError:
            raise ValueError(
                f"the {name} median decides log2(K) votes per round, "
                "so K must be a power of two >= 2"
            ) from None
    return Method.from_name(name).votes_per_codeword(K)


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
    if U < 1 or realizations < 1:
        raise ValueError(f"need U, realizations >= 1, got {U=}, {realizations=}")
    M = votes_per_round(name, K)

    rng = stream(seed, *key)
    params = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(realizations, U, M))
    true_median = true_medians(params)

    mv = backend(name, K, pdp_cfg, sigma2)
    state = MedianState(estimates=np.zeros((realizations, M)), rounds=rounds)
    rmse = np.empty(rounds)
    for i in range(rounds):
        votes = local_votes(state, params)
        state = median_step(state, mv(votes, rng))
        rmse[i] = math.sqrt(np.mean((state.estimates - true_median) ** 2))
    return rmse
