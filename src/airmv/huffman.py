"""Huffman polynomial synthesis, conversion, and evaluation.

Coefficient sequences are stored in ascending power order (c0 first). A
codeword picks, for each of the K angular slots, one member of a
conjugate-reciprocal zero pair: the inner radius 1/d or the outer radius d,
both at phase 2*pi*k/K. The leading coefficient is chosen real positive so
that the squared norm of the coefficient vector is exactly K + 1; any global
phase would be invisible to the magnitude-based detectors downstream.

Selections are plain bool arrays of shape (..., K), as
`encoding.vote_pattern` makes them; every function here takes a batch of
any shape, and there is no single-codeword type. One evaluator,
`zero_form_eval`, gives P(z) from the zeros at any points;
`synthesize_coeffs` reads it on the (K+1)-point unit-circle grid and
applies the forward FFT, `grid_coeffs`. The incremental expansion that
cross-checks it lives in the tests: it accumulates rounding error one zero
at a time, the grid method does not. At the detectors' probe points, the
Monte Carlo and the error-rate theory read P(z) from the tables of
`airmv.aggregation` instead, which the tests check against
`zero_form_eval`. So does the pmepr sweep on the grid: it builds the
uncoded tables at the K+1 grid points once per K, (K/8) * 256 * (K+1)
complex values (0.5 MB at K = 32, 34 MB at K = 256), reads every method's
distinct codewords off them and applies `grid_coeffs`.

Every evaluator works row by row, so a row's result does not depend on the
other rows of its batch. `zero_form_eval` therefore evaluates each distinct
row of its batch once (`distinct_rows`) and gathers the results back, and
so can any caller that draws from a small codebook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadiusParam",
    "radius_param",
    "root_phases",
    "zero_form_eval",
    "grid_coeffs",
    "synthesize_coeffs",
    "distinct_rows",
    "poly_eval",
    "aacf",
]


def root_phases(K: int) -> np.ndarray:
    """Unit phasors e^{j 2 pi k / K} for k = 0..K-1."""
    return np.exp(2j * np.pi * np.arange(K) / K)


@dataclass(frozen=True)
class RadiusParam:
    """Zero-pair radius d (> 1) and slot count K shared by a codebook."""

    K: int
    d: float

    def __post_init__(self) -> None:
        if not isinstance(self.K, (int, np.integer)) or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        object.__setattr__(self, "K", int(self.K))
        if not (math.isfinite(self.d) and self.d > 1.0):
            raise ValueError(f"d must be a finite real > 1, got {self.d!r}")
        object.__setattr__(self, "d", float(self.d))

    @property
    def eta(self) -> float:
        """Normalization constant 1 / (d^K + d^-K)."""
        return 1.0 / (self.d**self.K + self.d**-self.K)


def radius_param(K: int) -> RadiusParam:
    """Default radius rule d = sqrt(1 + sin(pi/K)).

    This choice maximizes the minimum distance between the candidate zeros
    of a codebook with K slots, which is what gives the magnitude detector
    its noise margin.
    """
    if not isinstance(K, (int, np.integer)) or K < 2:
        raise ValueError(f"K must be an integer >= 2, got {K!r}")
    return RadiusParam(int(K), math.sqrt(1.0 + math.sin(math.pi / K)))


def zero_form_eval(inner: np.ndarray, rp: RadiusParam, points) -> np.ndarray:
    """P(z) = c_lead prod_k (z - zero_k) at the 1-D `points`.

    Batched: `inner` has shape (..., K) and the result (..., len(points)).
    The leading coefficient c_lead = sqrt(eta (K+1)) d^(n_inner - K/2) is
    real positive: the product of zero magnitudes is d^(K - 2 n_inner), so
    the coefficient vector has squared norm exactly K + 1. A point on an
    encoded zero meets an exact 0 factor.

    The product over the zeros is formed once per distinct row
    (`distinct_rows`) and gathered back. Each row is computed alone, so the
    result is bitwise that of evaluating every row. c_lead is taken on the
    input's own shape: numpy's power of a scalar and of an array can
    differ in the last bit, and a 1-D `inner` keeps the scalar's.
    """
    inner = np.asarray(inner, dtype=bool)
    K, d = rp.K, rp.d
    if inner.shape[-1] != K:
        raise ValueError(f"expected {K} selections on the last axis, got {inner.shape}")
    z = np.asarray(points, dtype=complex)
    rows, inverse = distinct_rows(inner)
    zeros = np.where(rows, 1.0 / d, d) * root_phases(K)
    vals = np.ones(rows.shape[:-1] + z.shape, dtype=complex)
    for k in range(K):
        vals *= z - zeros[:, k, np.newaxis]
    vals = vals[inverse]
    n_inner = np.count_nonzero(inner, axis=-1)
    c_lead = math.sqrt(rp.eta * (K + 1)) * d ** (n_inner - K / 2)
    vals *= np.asarray(c_lead)[..., np.newaxis]
    return vals


def grid_coeffs(grid: np.ndarray) -> np.ndarray:
    """Coefficients c0..cK, ascending powers, of the degree-K polynomial
    whose values at the K+1 points e^{j 2 pi p/(K+1)} lie along the last
    axis of `grid`: the forward (K+1)-point FFT divided by K+1."""
    return np.fft.fft(grid, axis=-1) / grid.shape[-1]


def synthesize_coeffs(inner: np.ndarray, rp: RadiusParam) -> np.ndarray:
    """Normalized coefficients c0..cK, ascending powers, of radius selections.

    Batched: `inner` has shape (..., K) and the result (..., K+1). The
    zero-form polynomial is evaluated at the K+1 points e^{j 2 pi p/(K+1)}
    and the coefficients recovered by `grid_coeffs`.
    """
    return grid_coeffs(zero_form_eval(inner, rp, root_phases(rp.K + 1)))


def distinct_rows(selections) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (..., K) selection batch, and for each input
    row the index of its distinct row: `rows[inverse]` rebuilds the input bit
    for bit.

    `rows` has shape (n, K) and `inverse` the batch shape (...). Each row is
    packed to bytes and compared as one opaque key, so any K works, K = 256
    included; the rows come out in the keys' sorted order.
    """
    inner = np.asarray(selections, dtype=bool)
    flat = inner.reshape(-1, inner.shape[-1])
    packed = np.packbits(flat, axis=-1)
    keys = packed.view(np.dtype((np.void, packed.shape[-1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return flat[first], inverse.reshape(inner.shape[:-1])


def poly_eval(coeffs: np.ndarray, z) -> np.ndarray:
    """Evaluate sum_n c_n z^n with Horner's recursion.

    `coeffs` may carry leading batch axes (..., N); `z` is a scalar or a 1-D
    array of points. The result has shape (...,) + shape(z).
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim == 0 or c.shape[-1] == 0:
        raise ValueError("coefficient sequence must be nonempty")
    zs = np.asarray(z, dtype=complex)
    scalar_z = zs.ndim == 0
    pts = np.atleast_1d(zs)
    acc = np.zeros(c.shape[:-1] + pts.shape, dtype=complex)
    for n in range(c.shape[-1] - 1, -1, -1):
        acc = acc * pts + c[..., n, np.newaxis]
    if scalar_z:
        acc = acc[..., 0]
    return acc


def aacf(coeffs: np.ndarray) -> np.ndarray:
    """Aperiodic autocorrelation a(l) for l = -K..K; a(0) sits at index K.

    a(l) = sum_n conj(x_n) x_{n+l} for l >= 0, and a(-l) = conj(a(l)).
    """
    x = np.asarray(coeffs, dtype=complex)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("expected a nonempty 1-D coefficient sequence")
    K = x.size - 1
    out = np.empty(2 * K + 1, dtype=complex)
    for lag in range(K + 1):
        v = np.vdot(x[: x.size - lag], x[lag:])
        out[K + lag] = v
        out[K - lag] = np.conjugate(v)
    return out
