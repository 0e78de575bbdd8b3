"""Non-coherent majority-vote detection on the received polynomial.

The detectors evaluate the received sequence (as a polynomial) at candidate
zero locations and compare magnitude-squares. Every transmitter whose
codeword contains the probed zero contributes exactly nothing there, so the
test-point energies scale with the number of voters on each side. The
uncoded detector needs the delay profile and noise level to de-bias its
count estimates; the differential and indexed detectors compare energies at
a common radius, where all those scalars cancel.

Each detector is one linear form on the energies e_p = |R(z_p)|^2 at its
probe points (`detector_form`): vote v is sign(sum_p S[p, v] (e_p - b_p) /
s_p), with a +-1 side matrix S, a de-bias b and a scale s per probe. For
uncoded, (e_p - b_p) / s_p is the count estimate of the probe's side; for
the coded schemes b = 0 and s = 1. `DetectorForm.decide` applies the form;
`decode` evaluates a received sequence at the points first, and the
probe-domain engine in `airmv.aggregation` computes the values there
directly. The error-rate theory (`airmv.theory`) reads the same form.

sign(0) is reported as 0 and counted as a computation error downstream;
under noise an exact tie has probability zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import PdpConfig, check_noise_variance
from .encoding import Method
from .huffman import RadiusParam, radius_param, root_phases

__all__ = [
    "channel_power",
    "noise_power",
    "signal_scale_uncoded",
    "signal_scale_differential",
    "signal_scale_indexed",
    "signal_scale",
    "DecoderContext",
    "powers",
    "probe_moments",
    "probe_points",
    "probe_variances",
    "vote_positions",
    "DetectorForm",
    "detector_form",
    "decode",
]


def channel_power(d_arg: float, cfg: PdpConfig) -> float:
    """Expected |H(z)|^2 on the circle |z| = d_arg: sum_l p_l d_arg^{2l}."""
    if d_arg <= 0:
        raise ValueError("d_arg must be positive")
    return float(np.dot(cfg.taps, (d_arg * d_arg) ** np.arange(cfg.L_e)))


def noise_power(d_arg: float, sigma2: float, K: int, L_e: int) -> float:
    """Expected |W(z)|^2 on |z| = d_arg for K + L_e noise samples:
    sigma2 sum_n d_arg^{2n}."""
    if d_arg <= 0:
        raise ValueError("d_arg must be positive")
    return sigma2 * float(np.sum((d_arg * d_arg) ** np.arange(K + L_e)))


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
    Method.DIFFERENTIAL.validate_k(K)
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
    Method.INDEXED.validate_k(K)
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
            check_noise_variance(self.sigma2)
        elif self.pdp is not None or self.sigma2 is not None:
            raise ValueError(
                f"the {self.method.value} detector takes no channel or noise "
                "knowledge"
            )

    @classmethod
    def for_link(
        cls, method: Method | str, K: int, pdp: PdpConfig, sigma2: float
    ) -> "DecoderContext":
        """The receiver's knowledge of a link of `method` (a `Method` or its
        name) at K, on the codebook `radius_param(K)`: the uncoded detector
        is told the delay profile and the noise level, the coded ones
        nothing. A negative or NaN `sigma2` is refused for every method."""
        method = Method.from_name(method)
        check_noise_variance(sigma2)
        rp = radius_param(K)
        if method is Method.UNCODED:
            return cls(method, rp, pdp=pdp, sigma2=sigma2)
        return cls(method, rp)

    @property
    def n_votes(self) -> int:
        return self.method.votes_per_codeword(self.rp.K)


def powers(points: np.ndarray, n: int) -> np.ndarray:
    """Vandermonde matrix V[i, p] = points[p]^i for i < n.

    A sequence y evaluates as a polynomial at every point with one matmul,
    y @ V: the same evaluation as poly_eval, but BLAS-friendly for large
    trial batches.
    """
    return np.power(points[np.newaxis, :], np.arange(n)[:, np.newaxis])


def probe_moments(points: np.ndarray, K: int, pdp_cfg: PdpConfig, sigma2: float) -> np.ndarray:
    """C_W, the covariance of the noise at the probe points: C_W[i, j] =
    sigma2 sum_n (z_i conj(z_j))^n over the K + L_e noise samples."""
    v = powers(np.asarray(points, dtype=complex), K + pdp_cfg.L_e)  # v[n, i] = z_i^n
    return sigma2 * (v.T @ v.conj())


def vote_positions(M: int, positions) -> np.ndarray:
    """The vote `positions` to decide among M, as a nonempty (n,) index
    array, all M when None: the one statement of the range rule that every
    backend and the theory enforce, each with its own M."""
    if positions is None:
        return np.arange(M)
    pos = np.asarray(positions, dtype=np.intp).reshape(-1)
    if pos.size == 0 or pos.min() < 0 or pos.max() >= M:
        raise ValueError(f"vote positions {positions!r} out of range for M={M}")
    return pos


def _circles(method: Method, rp: RadiusParam, positions) -> tuple[tuple[float, ...], np.ndarray]:
    """(radii, slots): the circles the probes of the votes at `positions`
    lie on, and the slots read on each, in `probe_points` order."""
    pos = vote_positions(method.votes_per_codeword(rp.K), positions)
    if method is Method.UNCODED:
        return (rp.d, 1.0 / rp.d), pos
    if method is Method.DIFFERENTIAL:
        return (rp.d,), np.stack([2 * pos, 2 * pos + 1], axis=-1).reshape(-1)
    return (rp.d,), np.arange(rp.K)


def probe_points(method: Method, rp: RadiusParam, positions=None) -> np.ndarray:
    """Points at which the detector reads R(z) to decide the given votes.

    `positions` lists vote positions (all of them by default). Uncoded vote
    l reads slot l at radius d and at radius 1/d (all radius-d points come
    first); differential vote l reads slots 2l and 2l+1 at radius d; every
    indexed vote reads all K slots at radius d.
    """
    radii, slots = _circles(method, rp, positions)
    w = root_phases(rp.K)[slots]
    return np.concatenate([r * w for r in radii])


def probe_variances(
    method: Method, rp: RadiusParam, pdp_cfg: PdpConfig, sigma2: float, positions=None
) -> tuple[np.ndarray, np.ndarray]:
    """(C_H[p, p], C_W[p, p]) at each of the `probe_points`, in their order:
    the expected |H(z_p)|^2 of one user's channel and |W(z_p)|^2 of the
    noise. Both depend on |z_p| only, so they are the closed forms
    `channel_power` and `noise_power` at the radius of the probe's circle."""
    radii, slots = _circles(method, rp, positions)
    chan = [channel_power(r, pdp_cfg) for r in radii]
    noise = [noise_power(r, sigma2, rp.K, pdp_cfg.L_e) for r in radii]
    return np.repeat(chan, slots.size), np.repeat(noise, slots.size)


@dataclass(frozen=True, eq=False)
class DetectorForm:
    """A detector as a linear form on its probe energies e = |R(points)|^2:
    the votes are sign(((e - bias) / scale) @ signs).

    `signs` (P, V) puts each probe on the plus (+1) or minus (-1) side of
    each decided vote, or leaves it out (0); `bias` and `scale` are (P,).
    `debias` is settled when the form is built: the coded forms' bias is 0
    and scale 1, an identity that `decide` skips.
    """

    points: np.ndarray
    signs: np.ndarray
    bias: np.ndarray
    scale: np.ndarray
    debias: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "debias", bool(self.bias.any() or (self.scale != 1.0).any()))

    def decide(self, energies) -> np.ndarray:
        """The votes of (..., P) energies, (..., V)."""
        e = np.asarray(energies)
        if self.debias:
            e = (e - self.bias) / self.scale
        return np.sign(e @ self.signs).astype(int)


def detector_form(ctx: DecoderContext, positions=None) -> DetectorForm:
    """The detector of `ctx` for the votes at `positions` (all by default).

    Uncoded vote l compares the count estimates (e - noise) / (scale *
    channel) at slot l on radius d (plus) and 1/d (minus). Differential vote
    l compares slot 2l (plus) with slot 2l+1 (minus) at radius d. Indexed
    vote l sums the radius-d slots whose index has bit l set against the
    rest. The coded sides share one radius, so they need no de-bias.
    """
    rp = ctx.rp
    pos = vote_positions(ctx.n_votes, positions)
    points = probe_points(ctx.method, rp, pos)
    eye = np.eye(pos.size)
    bias, scale = np.zeros(points.size), np.ones(points.size)
    if ctx.method is Method.UNCODED:
        signs = np.concatenate([eye, -eye])
        chan, bias = probe_variances(ctx.method, rp, ctx.pdp, ctx.sigma2, pos)
        scale = chan * np.repeat(
            [signal_scale_uncoded(rp, da) for da in (rp.d, 1.0 / rp.d)], pos.size)
    elif ctx.method is Method.DIFFERENTIAL:
        signs = np.stack([eye, -eye], axis=1).reshape(2 * pos.size, pos.size)
    else:
        signs = 2.0 * ((np.arange(rp.K)[:, np.newaxis] >> pos) & 1) - 1.0
    return DetectorForm(points, signs, bias, scale)


def decode(y, ctx: DecoderContext) -> np.ndarray:
    """Time-domain detection: evaluate y at the probe points, then decide."""
    form = detector_form(ctx)
    y = np.asarray(y, dtype=complex)
    r = y @ powers(form.points, y.shape[-1])
    return form.decide(r.real**2 + r.imag**2)
