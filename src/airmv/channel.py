"""Multipath Rayleigh channel with exponential power-delay profile.

Transmissions superpose through zero-padded linear convolution: a length
K+1 sequence through L_e taps arrives as K+L_e samples, which is what lets
the received samples be read as a polynomial whose factors include every
transmitter's encoded zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PdpConfig", "pdp", "check_noise_variance", "complex_normal", "sample_channel",
           "awgn", "superpose"]

# Floats in the scratch of `complex_normal` (128 KB, within a core's L2): a
# median round's draws at R = 100 realizations up to K = 128 fit in one
# block.
_SCRATCH = 1 << 14


def pdp(L_e: int, rho: float) -> np.ndarray:
    """Tap power vector of the exponential delay profile; sums to one."""
    if not isinstance(L_e, (int, np.integer)) or L_e < 1:
        raise ValueError(f"L_e must be a positive integer, got {L_e!r}")
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"decay constant rho must lie in (0, 1], got {rho!r}")
    if rho == 1.0:
        return np.full(L_e, 1.0 / L_e)
    # Normalise by the explicit sum: the closed form (1 - rho) / (1 - rho**L_e)
    # cancels catastrophically as rho -> 1 and misses unit sum by ~1e-12.
    taps = rho ** np.arange(L_e)
    return taps / taps.sum()


@dataclass(frozen=True)
class PdpConfig:
    """Effective tap count and decay constant of the composite channel."""

    L_e: int
    rho: float = 1.0

    def __post_init__(self) -> None:
        pdp(self.L_e, self.rho)  # validates
        object.__setattr__(self, "L_e", int(self.L_e))
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def taps(self) -> np.ndarray:
        return pdp(self.L_e, self.rho)


def check_noise_variance(sigma2: float) -> None:
    """The one statement of the rule every engine enforces: a noise
    variance is nonnegative (NaN fails too)."""
    if not sigma2 >= 0:
        raise ValueError("noise variance must be nonnegative")


def complex_normal(shape, scale, rng: np.random.Generator) -> np.ndarray:
    """scale * (a + i b) with a, b standard normal of `shape`: CN(0, 2 scale^2)
    entries. All real parts are drawn before the imaginary ones.

    The result is built in place through one bounded float scratch of at
    most `_SCRATCH` values (or one row of `shape` past the first axis, if
    that is longer), and never more than the draw: the real parts are
    drawn into it a block of rows at a time and scaled into `out.real`,
    then the imaginary parts likewise into `out.imag`. The generator fills in sequence, so the draws, their order
    and the values are bitwise those of `scale * (a + 1j * b)`, and a draw
    holds only its result and the scratch. `scale` (a scalar, or an array
    broadcasting to `shape`) must not widen `shape`.
    """
    out = np.empty(shape, dtype=complex)
    blocks = out if out.ndim else out.reshape(1)  # rows along the first axis
    rows = blocks.shape[0]
    row = blocks.size // rows if rows else 0
    step = max(1, min(rows, _SCRATCH // max(row, 1)))  # no rows: no draw
    # Only a scale that varies along the first axis is cut with the rows
    # (np.broadcast_to would cost more than a small draw).
    scale = np.asarray(scale)
    by_row = scale.ndim == blocks.ndim and scale.shape[0] > 1
    scratch = np.empty(step * row)
    for part in (blocks.real, blocks.imag):
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            buf = scratch[: (hi - lo) * row].reshape((hi - lo,) + blocks.shape[1:])
            rng.standard_normal(out=buf)
            np.multiply(scale[lo:hi] if by_row else scale, buf, out=part[lo:hi])
    return out


def sample_channel(
    cfg: PdpConfig, U: int, rng: np.random.Generator, trials: int | None = None
) -> np.ndarray:
    """Draw i.i.d. circularly symmetric Gaussian taps, variance p_l per tap.

    Returns shape (U, L_e), or (trials, U, L_e) when `trials` is given.
    """
    if U < 1:
        raise ValueError("need at least one transmitter")
    shape = ((trials,) if trials is not None else ()) + (U, cfg.L_e)
    return complex_normal(shape, np.sqrt(cfg.taps / 2.0), rng)


def awgn(shape, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """CN(0, sigma2) samples; all real parts are drawn before the imaginary."""
    return complex_normal(shape, np.sqrt(sigma2 / 2.0), rng)


def superpose(
    coeff_seqs,
    channels,
    sigma2: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Received samples y_n = sum_u sum_l h_{u,l} c_{u,n-l} + w_n.

    `coeff_seqs` has shape (..., U, K+1) and `channels` (..., U, L_e); the
    zero-padded linear convolution yields (..., K+L_e) samples. Noise w_n is
    CN(0, sigma2), drawn from `rng` when sigma2 > 0.
    """
    check_noise_variance(sigma2)
    if sigma2 > 0 and rng is None:
        raise ValueError("an rng is required when sigma2 > 0")
    c = np.asarray(coeff_seqs, dtype=complex)
    h = np.asarray(channels, dtype=complex)
    if c.ndim < 2 or h.ndim < 2 or c.shape[:-1] != h.shape[:-1]:
        raise ValueError(
            f"coefficients {c.shape} and channels {h.shape} must share the "
            "same (..., U) leading shape"
        )
    n_coef = c.shape[-1]
    n_tap = h.shape[-1]
    y = np.zeros(c.shape[:-2] + (n_coef + n_tap - 1,), dtype=complex)
    for tap in range(n_tap):
        y[..., tap : tap + n_coef] += np.einsum("...u,...un->...n", h[..., tap], c)
    if sigma2 > 0:
        y += awgn(y.shape, sigma2, rng)
    return y
