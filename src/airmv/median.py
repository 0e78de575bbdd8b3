"""Distributed median computation driven by iterative majority votes.

The median of each parameter minimizes the sum of absolute distances, so a
sign-descent step needs only the majority vote of the per-device signs
sign(estimate - parameter). Devices therefore reveal one vote per round per
parameter and nothing else; the aggregator updates the estimate by the
learning rate times the (possibly miscomputed) majority vote and announces
it error-free on the downlink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import ProbeAggregator
from .baselines import default_sequence_length
from .channel import PdpConfig, superpose
from .encoding import Method
from .simulate import stream

__all__ = ["MedianState", "local_votes", "median_step", "run_median", "BACKENDS"]

BACKENDS = (
    "ideal",
    "uncoded",
    "differential",
    "indexed",
    "goldenbaum",
    "obda",
    "obda_phase",
    "obda_no_tci",
)


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

    `params` has shape (..., U, M) against estimates (..., M); the result
    matches `params`.
    """
    diff = np.asarray(state.estimates)[..., np.newaxis, :] - np.asarray(params)
    return np.where(diff >= 0, 1, -1)


def median_step(state: MedianState, mv: np.ndarray) -> MedianState:
    """Descend by mu times the majority-vote direction; a zero (tie)
    decision leaves the estimate unchanged."""
    new_estimates = state.estimates - state.mu * np.asarray(mv)
    return replace(state, estimates=new_estimates, iteration=state.iteration + 1)


def _mv_backend(backend: str, K: int, U: int, pdp_cfg: PdpConfig, sigma2: float,
                l_seq: int | None):
    """Build mv(votes, rng) -> decisions for one aggregation backend.

    votes arrive as (R, U, M); decisions return as (R, M). The zero-encoded
    backends run the probe-domain engine the Monte Carlo runs, deciding
    every vote position; the detectors never see the channel realizations.
    """
    if backend == "ideal":
        return lambda votes, rng: np.sign(votes.sum(axis=-2)).astype(int)

    if backend in ("uncoded", "differential", "indexed"):
        return ProbeAggregator(Method.from_name(backend), K, pdp_cfg, sigma2).aggregate

    if backend == "goldenbaum":
        L_seq = l_seq if l_seq is not None else default_sequence_length(K)

        def mv_gold(votes, rng):
            per_mv = np.swapaxes(votes, -1, -2)  # (R, M, U)
            amps = np.sqrt(per_mv + 1.0)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=per_mv.shape + (L_seq,))
            seqs = amps[..., np.newaxis] * np.exp(1j * phases)
            shape = per_mv.shape[:-1]  # (R, M)
            taps = np.sqrt(pdp_cfg.taps / 2.0) * (
                rng.standard_normal(shape + (U, pdp_cfg.L_e))
                + 1j * rng.standard_normal(shape + (U, pdp_cfg.L_e))
            )
            y = superpose(seqs, taps, sigma2, rng)
            energy = np.sum(np.abs(y) ** 2, axis=-1)
            estimate = (energy - y.shape[-1] * sigma2) / L_seq - U
            return np.sign(estimate).astype(int)

        return mv_gold

    if backend in ("obda", "obda_phase", "obda_no_tci"):
        phase_errors = backend == "obda_phase"
        tci = backend != "obda_no_tci"

        def mv_obda(votes, rng):
            per_mv = np.swapaxes(votes, -1, -2).astype(float)  # (R, M, U)
            h = (
                rng.standard_normal(per_mv.shape)
                + 1j * rng.standard_normal(per_mv.shape)
            ) / math.sqrt(2)
            if tci:
                gain = np.abs(h) ** 2
                inv = np.where(
                    gain > 0.2, np.conjugate(h) / np.maximum(gain, 1e-300), 0
                )
                symbols = per_mv * inv
            else:
                symbols = per_mv + 0j
            if phase_errors:
                w = math.radians(120.0)
                symbols = symbols * np.exp(1j * rng.uniform(-w, w, per_mv.shape))
            y = np.sum(h * symbols, axis=-1)
            if sigma2 > 0:
                y = y + np.sqrt(sigma2 / 2.0) * (
                    rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
                )
            return np.sign(y.real).astype(int)

        return mv_obda

    raise ValueError(f"unknown backend {backend!r}")


def run_median(
    backend: str,
    K: int,
    U: int,
    rounds: int,
    realizations: int,
    pdp_cfg: PdpConfig,
    sigma2: float,
    seed: int,
    key: tuple[int, ...] = (),
    mu_start: float = 0.01,
    mu_end: float = 1e-5,
    l_seq: int | None = None,
) -> np.ndarray:
    """Root-mean-square error of the estimates against the true medians,
    recorded after every round; shape (rounds,).

    Device parameters are Uniform(-sqrt(3), sqrt(3)). The zero-encoded
    backends compute M votes per round as dictated by (backend, K); the
    ideal and baseline backends use the indexed scheme's M = log2(K) so
    that all curves answer the same problem size.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend in ("uncoded", "differential", "indexed"):
        M = Method.from_name(backend).votes_per_codeword(K)
    else:
        M = Method.INDEXED.votes_per_codeword(K)

    rng = stream(seed, *key)
    params = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(realizations, U, M))
    true_median = np.median(params, axis=-2)

    mv = _mv_backend(backend, K, U, pdp_cfg, sigma2, l_seq)
    state = MedianState(
        estimates=np.zeros((realizations, M)),
        rounds=rounds,
        mu_start=mu_start,
        mu_end=mu_end,
    )
    rmse = np.empty(rounds)
    for i in range(rounds):
        votes = local_votes(state, params)
        state = median_step(state, mv(votes, rng))
        rmse[i] = math.sqrt(np.mean((state.estimates - true_median) ** 2))
    return rmse
