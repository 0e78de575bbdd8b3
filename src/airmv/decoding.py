"""Non-coherent majority-vote detection on the received polynomial.

The detectors evaluate the received sequence (as a polynomial) at candidate
zero locations and compare magnitude-squares. Every transmitter whose
codeword contains the probed zero contributes exactly nothing there, so the
test-point energies scale with the number of voters on each side. The
uncoded detector needs the delay profile and noise level to de-bias its
count estimates; the differential and indexed detectors compare energies at
a common radius, where all those scalars cancel.

Each detector is two pieces: the probe points it reads (`probe_points`) and
its decision from the energies there (`decide`). `decode` evaluates a
received sequence at the points; the probe-domain engine in
`airmv.aggregation` computes the values at the points directly. Both end in
the same `decide`.

sign(0) is reported as 0 and counted as a computation error downstream;
under noise an exact tie has probability zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PdpConfig
from .encoding import Method
from .huffman import RadiusParam, root_phases

__all__ = [
    "channel_power",
    "noise_power",
    "signal_scale_uncoded",
    "signal_scale_differential",
    "signal_scale_indexed",
    "signal_scale",
    "DecoderContext",
    "CountEstimates",
    "estimate_counts",
    "powers",
    "probe_points",
    "decide",
    "decode_uncoded",
    "decode_differential",
    "decode_indexed",
    "decode",
]


def channel_power(d_arg: float, cfg: PdpConfig) -> float:
    """Expected |H(z)|^2 on the circle |z| = d_arg: sum_l p_l d_arg^{2l}.

    Closed geometric forms are used except where their ratio hits 1, in
    which case the finite sum is taken directly.
    """
    if d_arg <= 0:
        raise ValueError("d_arg must be positive")
    g = d_arg * d_arg
    L, rho = cfg.L_e, cfg.rho
    if abs(1.0 - g * rho) < 1e-9:
        return float(np.dot(cfg.taps, g ** np.arange(L)))
    if rho == 1.0:
        return (1.0 - g**L) / (1.0 - g) / L
    return (1.0 - rho) / (1.0 - rho**L) * (1.0 - (g * rho) ** L) / (1.0 - g * rho)


def noise_power(d_arg: float, sigma2: float, K: int, L_e: int) -> float:
    """Expected |W(z)|^2 on |z| = d_arg for K + L_e noise samples."""
    if d_arg <= 0:
        raise ValueError("d_arg must be positive")
    g = d_arg * d_arg
    n = K + L_e
    if abs(g - 1.0) < 1e-12:
        return sigma2 * n
    return sigma2 * (1.0 - g**n) / (1.0 - g)


def signal_scale_uncoded(rp: RadiusParam, d_arg: float) -> float:
    """Per-voter expected signal energy at a probed zero, uncoded scheme.

    This is the expectation of |P(z)|^2 at the test point on radius d_arg
    over equiprobable votes in the other slots, for a voter whose probed
    slot holds the opposite-radius zero.
    """
    K = rp.K
    da = float(d_arg)
    w = root_phases(K)[1:]
    base = rp.eta * (K + 1) * (da - 1.0 / da) ** 2 * da**K
    factors = (np.abs(1.0 - w) ** 2 + np.abs(da - w / da) ** 2) / 2.0
    return float(base * np.prod(factors))


def signal_scale_differential(rp: RadiusParam, d_arg: float) -> float:
    """Per-voter expected signal energy at an even-slot test point."""
    K = rp.K
    if K < 2 or K % 2 != 0:
        raise ValueError("differential scheme needs an even K >= 2")
    da = float(d_arg)
    w = root_phases(K)
    base = rp.eta * (K + 1) * (da - 1.0 / da) ** 2 * np.abs(1.0 - w[1]) ** 2 * da**K
    ks = np.arange(1, K // 2)
    even, odd = w[2 * ks], w[2 * ks + 1]
    factors = (
        np.abs(1.0 - even) ** 2 * np.abs(da - odd / da) ** 2
        + np.abs(1.0 - odd) ** 2 * np.abs(da - even / da) ** 2
    ) / 2.0
    return float(base * np.prod(factors))


def signal_scale_indexed(rp: RadiusParam, d_arg: float) -> float:
    """Expected signal energy at a voter's own index slot, indexed scheme."""
    K = rp.K
    if K < 2 or (K & (K - 1)) != 0:
        raise ValueError("indexed scheme needs K a power of two >= 2")
    da = float(d_arg)
    return rp.eta * (K + 1) * (da - 1.0 / da) ** 2 * da**K * K * K


def signal_scale(method: Method, rp: RadiusParam, d_arg: float) -> float:
    if method is Method.UNCODED:
        return signal_scale_uncoded(rp, d_arg)
    if method is Method.DIFFERENTIAL:
        return signal_scale_differential(rp, d_arg)
    return signal_scale_indexed(rp, d_arg)


@dataclass(frozen=True)
class DecoderContext:
    """Static receiver-side knowledge.

    Only the uncoded detector is allowed (and required) to know the delay
    profile and noise level; the other two must manage without.
    """

    method: Method
    rp: RadiusParam
    pdp: PdpConfig | None = None
    sigma2: float | None = None

    def __post_init__(self) -> None:
        self.method.validate_k(self.rp.K)
        if self.method is Method.UNCODED:
            if self.pdp is None or self.sigma2 is None:
                raise ValueError("the uncoded detector needs pdp and sigma2")
            if self.sigma2 < 0:
                raise ValueError("sigma2 must be nonnegative")
        elif self.pdp is not None or self.sigma2 is not None:
            raise ValueError(
                f"the {self.method.value} detector takes no channel or noise "
                "knowledge"
            )

    @property
    def n_votes(self) -> int:
        return self.method.votes_per_codeword(self.rp.K)


@dataclass(frozen=True, eq=False)
class CountEstimates:
    """Unbiased estimates of the positive/negative voter counts per slot."""

    u_plus: np.ndarray
    u_minus: np.ndarray


def powers(points: np.ndarray, n: int) -> np.ndarray:
    """Vandermonde matrix V[i, p] = points[p]^i for i < n.

    A sequence y evaluates as a polynomial at every point with one matmul,
    y @ V: the same evaluation as poly_eval, but BLAS-friendly for large
    trial batches.
    """
    return np.power(points[np.newaxis, :], np.arange(n)[:, np.newaxis])


def _energies(y, points: np.ndarray) -> np.ndarray:
    y2 = np.asarray(y, dtype=complex)
    r = y2 @ powers(points, y2.shape[-1])
    return r.real**2 + r.imag**2


def _positions(method: Method, K: int, positions) -> np.ndarray:
    M = method.votes_per_codeword(K)
    if positions is None:
        return np.arange(M)
    pos = np.asarray(positions, dtype=np.intp).reshape(-1)
    if pos.size == 0 or pos.min() < 0 or pos.max() >= M:
        raise ValueError(f"vote positions {positions!r} out of range for M={M}")
    return pos


def probe_points(method: Method, rp: RadiusParam, positions=None) -> np.ndarray:
    """Points at which the detector reads R(z) to decide the given votes.

    `positions` lists vote positions (all of them by default). Uncoded vote
    l reads slot l at radius d and at radius 1/d (all radius-d points come
    first); differential vote l reads slots 2l and 2l+1 at radius d; every
    indexed vote reads all K slots at radius d.
    """
    w = root_phases(rp.K)
    pos = _positions(method, rp.K, positions)
    if method is Method.UNCODED:
        return np.concatenate([rp.d * w[pos], (1.0 / rp.d) * w[pos]])
    if method is Method.DIFFERENTIAL:
        return rp.d * w[np.stack([2 * pos, 2 * pos + 1], axis=-1).reshape(-1)]
    return rp.d * w


def _count_estimates(energies: np.ndarray, ctx: DecoderContext) -> CountEstimates:
    rp, pdp_cfg = ctx.rp, ctx.pdp
    half = energies.shape[-1] // 2
    u = []
    for da, e in ((rp.d, energies[..., :half]), (1.0 / rp.d, energies[..., half:])):
        num = e - noise_power(da, ctx.sigma2, rp.K, pdp_cfg.L_e)
        den = signal_scale_uncoded(rp, da) * channel_power(da, pdp_cfg)
        u.append(num / den)
    return CountEstimates(u_plus=u[0], u_minus=u[1])


def decide(energies, ctx: DecoderContext, positions=None) -> np.ndarray:
    """Majority votes at `positions` from the probe energies |R(z_p)|^2.

    `energies` (..., P) holds the energies at the `probe_points` of `positions`
    in that order; the result is (..., len(positions)). This is the one
    decision rule of each detector, shared by `decode` and the probe-domain
    aggregation engine.
    """
    e = np.asarray(energies)
    if ctx.method is Method.UNCODED:
        est = _count_estimates(e, ctx)
        return np.sign(est.u_plus - est.u_minus).astype(int)
    if ctx.method is Method.DIFFERENTIAL:
        return np.sign(e[..., 0::2] - e[..., 1::2]).astype(int)
    K = ctx.rp.K
    m = K.bit_length() - 1
    signs = 2.0 * ((np.arange(K)[:, np.newaxis] >> np.arange(m)) & 1) - 1.0
    return np.sign(e @ signs[:, _positions(ctx.method, K, positions)]).astype(int)


def estimate_counts(y, ctx: DecoderContext) -> CountEstimates:
    """De-biased voter-count estimates for the uncoded scheme.

    u_plus[l] = (|R(d w^l)|^2 - noise) / (scale(d) * channel(d)) and the
    mirror expression at radius 1/d; both are unbiased but may go negative
    under noise.
    """
    if ctx.method is not Method.UNCODED:
        raise ValueError("count estimates are defined for the uncoded detector")
    return _count_estimates(_energies(y, probe_points(ctx.method, ctx.rp)), ctx)


def _detect(y, ctx: DecoderContext, method: Method) -> np.ndarray:
    if ctx.method is not method:
        raise ValueError(
            f"context is not configured for the {method.value} detector"
        )
    return decode(y, ctx)


def decode_uncoded(y, ctx: DecoderContext) -> np.ndarray:
    """Majority votes from the uncoded codeword: sign of count difference."""
    return _detect(y, ctx, Method.UNCODED)


def decode_differential(y, ctx: DecoderContext) -> np.ndarray:
    """Majority votes from even/odd test-point energies at radius d.

    The even-slot energy grows with the positive-vote count, so the
    decision is sign(|R(even)|^2 - |R(odd)|^2); no channel or noise
    statistics enter.
    """
    return _detect(y, ctx, Method.DIFFERENTIAL)


def decode_indexed(y, ctx: DecoderContext) -> np.ndarray:
    """Majority votes from bit-partitioned test-point energies at radius d.

    For vote position l, the energies at slots whose index has bit l set
    are summed against the rest; each side aggregates K/2 measurements.
    """
    return _detect(y, ctx, Method.INDEXED)


def decode(y, ctx: DecoderContext) -> np.ndarray:
    """Time-domain detection: evaluate y at the probe points, then decide."""
    return decide(_energies(y, probe_points(ctx.method, ctx.rp)), ctx)
