"""Peak-to-mean envelope power of transmitted blocks and resource accounting.

Transform scalings are pinned so that the oversampled time signal carries
the same energy as the input block (unit-factor Parseval); only power
ratios enter the PMEPR, so the convention matters solely for test
determinism.
"""

from __future__ import annotations

import math

import numpy as np

from .encoding import Method

__all__ = [
    "dfts_ofdm_modulate",
    "ofdm_map_modulate",
    "pmepr",
    "resources_per_mv",
    "separation_resources",
]


def _as_blocks(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim == 0 or c.shape[-1] == 0:
        raise ValueError("expected nonempty coefficient blocks along the last axis")
    return c


def _oversampled(bins: np.ndarray, oversampling: int, gain: float) -> np.ndarray:
    """gain * inverse transform of `bins` placed on the first contiguous
    bins of an oversampling-times longer grid (last axis)."""
    if oversampling < 1:
        raise ValueError("oversampling factor must be >= 1")
    n = bins.shape[-1]
    spectrum = np.zeros(bins.shape[:-1] + (oversampling * n,), dtype=complex)
    spectrum[..., :n] = bins
    # In place: writing the transform into fresh memory costs more than it.
    signal = np.fft.ifft(spectrum, out=spectrum)
    signal *= gain
    return signal


def dfts_ofdm_modulate(coeffs, oversampling: int = 16) -> np.ndarray:
    """Spread each block with a full-size forward transform, map to
    contiguous bins of an oversampling*(K+1)-point inverse transform.

    Blocks lie along the last axis: (..., K+1) in, (..., oversampling*(K+1))
    out. With oversampling 1 this is an exact round trip of the input.
    """
    c = _as_blocks(coeffs)
    return _oversampled(np.fft.fft(c), oversampling, math.sqrt(oversampling))


def ofdm_map_modulate(coeffs, oversampling: int = 16) -> np.ndarray:
    """Place each block (last axis) directly on contiguous subcarriers of an
    oversampling*(K+1)-point inverse transform."""
    c = _as_blocks(coeffs)
    return _oversampled(c, oversampling, math.sqrt(oversampling * c.shape[-1]))


def pmepr(signal):
    """10 log10(max |s|^2 / mean |s|^2) in dB along the last axis; zero for
    constant envelopes. A 1-D signal gives a float, a (..., N) batch an
    array (...,)."""
    s = np.asarray(signal)
    if s.ndim == 0 or s.shape[-1] == 0:
        raise ValueError("empty signal")
    power = np.abs(s) ** 2
    mean = power.mean(axis=-1)
    if np.any(mean == 0.0):
        raise ValueError("all-zero signal has no PMEPR")
    db = 10.0 * np.log10(power.max(axis=-1) / mean)
    return float(db) if db.ndim == 0 else db


def resources_per_mv(method: Method, K: int, L_e: int) -> float:
    """Complex-valued resources consumed per majority vote: the padded
    block length K + L_e divided by the votes carried per codeword."""
    if L_e < 0:
        raise ValueError("L_e must be nonnegative")
    return (K + L_e) / method.votes_per_codeword(K)


def separation_resources(U: int) -> float:
    """Resources per vote when each transmitter gets an orthogonal slot."""
    if U < 1:
        raise ValueError("need at least one transmitter")
    return float(U)
