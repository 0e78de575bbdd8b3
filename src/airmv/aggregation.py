"""Probe-domain aggregation: votes to majority-vote decisions.

Votes travel in one format from the draw to every backend: packed
plus-bits, (n, U, ceil(M / 8)) uint8 per (trial, user), vote j at bit j % 8
of byte j // 8 (little-endian), a set bit for +1 (`pack_votes`). Every
backend learns its M when it is built (`backend_votes`) and refuses any
other width, dtype or a bit set past vote M - 1. The zero-encoded engine
reads the bytes as they are, as indices of its tables; the ideal and
baseline backends unpack only the bits at their vote positions.

The detectors read the received polynomial only at their probe points z_p,
where it is R(z_p) = sum_u H_u(z_p) P_u(z_p) + W(z_p): channel polynomial
times codeword polynomial, summed over users, plus the noise polynomial.
The engine evaluates that sum from the zero form, P_u(z) = c_lead *
prod_k (z - zero_k), with no coefficient sequence and no convolution, and
decides with the detector's `DetectorForm.decide`, as `decode` does on the
time-domain chain it is tested against.

Each trial draws only what the detector reads, the signal first and then,
when sigma2 > 0, the noise. The signal follows one of two rules, chosen
from the probe structure.

* Each user nonzero at one probe: every indexed engine (codeword c is
  nonzero only at its own slot's probe c) and every engine deciding one
  vote (the Monte Carlo's vote 0, or a differential codeword at K = 2: a
  user's pair of probes holds one of its own encoded zeros). The probes'
  signal terms sum disjoint users, so probe p's is CN(0, C_H[p, p] sum_u
  |P_u(z_p)|^2), `probe_variances` times `signal_power`. One normal is
  drawn per (trial, probe) cell of nonzero variance, in C order, and added
  onto the noise at its flat index; a cell on every sender's zero draws
  nothing, the law of a zero-variance normal.
* Uncoded or differential deciding several votes: a user is nonzero at
  one probe of each vote, so the decisions of one trial share the channel
  and C_H's cross terms matter. Each user's L_e taps h_ul ~ CN(0, p_l) are
  drawn and read at the probes through their Vandermonde matrix, H_u(z_p)
  = sum_l h_ul z_p^l (`powers(points, L_e)`): no covariance, no `eigh`.
  The users are summed before that basis: sum_u (h_u @ basis) P_u = (h^T
  P) contracted with basis, one batched matmul and no (n, U, P) product.

The noise covariance at the indexed probes, K equispaced points on one
circle, is circulant (Gray 2006, Toeplitz and Circulant Matrices): C_W =
F diag(c) F^H, F[p, k] = e^{2 pi i p k / K}, with c_k = sigma2 sum d^{2n}
over the n < K + L_e with n = k (mod K). So the indexed noise is the
inverse DFT, unnormalized, of K normals CN(0, c_k). The other engines
draw the noise at the P probes as CN(0, C_W) of `probe_moments`, from as
many of its top eigenpairs as its rank allows, min(P, K + L_e) normals.

The uncoded and differential encoders set every slot from one vote, so
each byte of packed votes indexes a table of the
product of its slots' factors (z_p - zero_k), with its share of c_lead;
P_u(z_p) is the product of one row per byte, and |P_u(z_p)|^2 the product
of the rows of the tables' squared magnitudes. The indexed encoder's slots
depend on all votes at once, and codeword c is exactly zero at every probe
but its own slot's, so its table keeps one value per codeword, P_c(z_c).
A probe that lands on a user's own encoded zero meets an exact 0 factor.
`signal_power` reads sum_u |P_u(z_p)|^2 off the tables (indexed: m_c
|P_c(z_c)|^2, from the `_codeword_counts` of each trial), for the
one-probe draw and for `theory.detection_rates` alike: the Monte Carlo
and the theory evaluate the signal the same way. The pmepr sweep of
`airmv.experiments` reads codewords on the (K+1)-point grid through
`table_product` of the uncoded tables too.

A call holds little beyond its draws and its (n, P) probe values: the
table gathers and products of `signal_power` and of the multi-vote
signal, the one-probe signal's scatter onto the noise and `aggregate`'s
energies and decisions run in row blocks of whole trials whose transients
stay within `_BLOCK_BYTES`, and `complex_normal` draws through a bounded
scratch. Every block computes each trial's values as the whole batch
would, so the values are bitwise the same wherever the blocks fall.

`backend` is the one place a scheme's name becomes its `aggregate(packed,
rng)`: this engine's `aggregate`, or the sign of one statistic, the vote
sum (ideal) or a baseline's of `airmv.baselines`; nothing else signs a
baseline statistic. The error-rate Monte Carlo builds one per sweep point
and the median one per run; neither caches it.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .baselines import (BASELINES, default_sequence_length, goldenbaum_estimate,
                        obda_received)
from .channel import PdpConfig, check_noise_variance, complex_normal
from .decoding import (DecoderContext, detector_form, powers, probe_moments,
                       probe_variances, vote_positions)
from .encoding import Method, vote_pattern
from .huffman import RadiusParam, root_phases

__all__ = ["OWN_DRAWS", "ProbeAggregator", "backend", "backend_votes", "pack_votes",
           "probe_tables", "scored_column", "signal_power", "table_product",
           "table_rows"]

# The backends that send no codeword: each decides its vote positions one by
# one on its own draws, so its other votes cannot change a decision.
OWN_DRAWS = BASELINES + ("ideal",)

_CHUNK = 8  # votes per uncoded/differential table: one byte of packed votes

# Transient bytes per row block of `signal_power`, the multi-vote signal,
# the signal's scatter and `aggregate`'s energies: what a batch holds beside
# its draws and its (n, P) values. 64 KB stays within a core's L2 and below
# glibc's default 128 KB mmap threshold, so the transients reuse heap pages
# instead of faulting in fresh ones (1 MB blocks took about 4x the minor
# faults of a whole uncoded K=16 batch). A block holds at least
# `_BLOCK_ROWS` trials, so a median round of up to that many realizations
# is one block: its per-block calls, not its bytes, set a round's cost.
_BLOCK_BYTES = 1 << 16
_BLOCK_ROWS = 128


def _chunks(method: Method, K: int) -> list[tuple[int, int]]:
    """(first vote, votes b) of each of the `probe_tables` of `method` at
    K: a chunk per byte of packed votes, or all M indexed votes in one."""
    M = method.votes_per_codeword(K)
    width = M if method is Method.INDEXED else _CHUNK
    return [(first, min(width, M - first)) for first in range(0, M, width)]


def table_rows(method: Method, K: int) -> int:
    """Rows of all the `probe_tables` of `method` at K: 2^b for each table
    of a chunk of b votes."""
    return sum(1 << b for _, b in _chunks(method, K))


def probe_tables(
    method: Method, rp: RadiusParam, points: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Tables whose gathered rows multiply to P_u(z_p) at the probe `points`
    (read-only, as threads share them).

    Uncoded and differential: one (256, P) table per chunk of eight votes,
    row b for the chunk's votes spelling bit pattern b (vote j of the chunk
    is bit j). Indexed: one (K,) table, P_c(z_c) for each codeword c at its
    own slot's probe c (`points` are the K slots in order). Codeword c is
    exactly zero at every other probe, so that diagonal is all any product
    reads.
    """
    K, d = rp.K, rp.d
    M = method.votes_per_codeword(K)
    w = root_phases(K)
    tables = []
    for first, b in _chunks(method, K):
        bits = (np.arange(1 << b)[:, np.newaxis] >> np.arange(b)) & 1
        inner = vote_pattern(method, 2 * bits - 1)
        start = first * (K // M) if method is not Method.INDEXED else 0
        zeros = np.where(inner, 1.0 / d, d) * w[start : start + inner.shape[1]]
        # This chunk's share of c_lead = sqrt(eta (K+1)) d^(n_inner - K/2).
        share = d ** (np.count_nonzero(inner, axis=1) - inner.shape[1] / 2)
        table = share.astype(complex)
        if method is not Method.INDEXED:
            table = np.repeat(table[:, np.newaxis], points.size, axis=1)
            zeros = zeros[..., np.newaxis]
        for k in range(inner.shape[1]):
            table *= points - zeros[:, k]
        tables.append(table)
    tables[0] *= math.sqrt(rp.eta * (K + 1))
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def _normal_factor(cov: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """(scale, basis) such that (scale * (a + i b)) @ basis is CN(0, cov)
    for standard normal a, b, from the top `rank` eigenpairs of cov: eigh,
    as C_W is near-singular as d -> 1; the other eigenpairs of a covariance
    of that rank and its residue below zero are rounding."""
    lam, q = np.linalg.eigh(cov)
    return np.sqrt(np.maximum(lam[-rank:], 0.0) / 2.0), q[:, -rank:].T


def pack_votes(plus) -> np.ndarray:
    """(..., M) plus-votes (True for +1) as the packed votes every backend
    takes, (..., ceil(M / 8)) uint8: vote j at bit j % 8 of byte j // 8."""
    plus = np.asarray(plus, dtype=bool)
    M = plus.shape[-1]
    if M % 8:
        # Pad each row to whole bytes so that one flat packbits call packs
        # them all (packing along a short last axis is far slower).
        padded = np.zeros(plus.shape[:-1] + (-(-M // 8) * 8,), dtype=bool)
        padded[..., :M] = plus
        plus = padded
    packed = np.packbits(plus.reshape(-1), bitorder="little")
    return packed.reshape(plus.shape[:-1] + (-1,))


def scored_column(U: int, n_plus: int) -> np.ndarray:
    """The (U,) plus-bits of the scored vote, the Monte Carlo's and the
    theory's: n_plus +1 voters, then U - n_plus -1 voters. Refuses U < 1
    and n_plus outside 0..U."""
    if U < 1 or not 0 <= n_plus <= U:
        raise ValueError("need U >= 1 and 0 <= n_plus <= U, got "
                         f"U={U}, n_plus={n_plus}, n_minus={U - n_plus}")
    return np.arange(U) < n_plus


def _check_packed(packed, M: int) -> np.ndarray:
    """`packed` as the nonempty (n, U, ceil(M / 8)) uint8 votes of M
    positions, with no bit set past vote M - 1."""
    packed = np.asarray(packed)
    width = -(-M // 8)
    if (packed.dtype != np.uint8 or packed.ndim != 3 or packed.shape[-1] != width
            or packed.size == 0):
        raise ValueError(f"expected nonempty (n, U, {width}) uint8 packed votes of "
                         f"M={M}, got {packed.dtype} of shape {packed.shape}")
    if M % 8 and (packed[..., -1] >= 1 << M % 8).any():
        raise ValueError(f"packed votes set bits past vote {M - 1}")
    return packed


def _row_blocks(n: int, row_bytes: int):
    """Slices of whole trials covering n rows: `_BLOCK_ROWS` trials, or
    more while their transients at `row_bytes` per trial fit
    `_BLOCK_BYTES`."""
    step = max(_BLOCK_ROWS, _BLOCK_BYTES // max(row_bytes, 1))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def table_product(tables, packed: np.ndarray) -> np.ndarray:
    """prod_i tables[i][packed[..., i]]: one gathered row per byte of votes.

    An uncoded vote row is its selection row, so the uncoded tables evaluate
    any codeword, differential and indexed included, from its selections
    packed as votes are (`pack_votes`).
    """
    product = np.take(tables[0], packed[..., 0], axis=0)
    for i in range(1, len(tables)):
        product *= np.take(tables[i], packed[..., i], axis=0)
    return product


def _codeword_counts(packed: np.ndarray, K: int) -> np.ndarray:
    """(n, K) senders m_c of each indexed codeword c per trial."""
    index = packed[..., 0].astype(np.intp)
    for i in range(1, packed.shape[-1]):
        index |= packed[..., i].astype(np.intp) << (8 * i)
    n = packed.shape[0]
    cells = index + K * np.arange(n)[:, np.newaxis]
    return np.bincount(cells.ravel(), minlength=n * K).reshape(n, K)


def signal_power(method: Method, tables, packed) -> np.ndarray:
    """sum_u |P_u(z_p)|^2 per trial and probe, (n, P), for (n, U,
    ceil(M / 8)) packed votes and the `probe_tables` of `method` at the
    probes, filled in row blocks.

    Uncoded and differential: the product of the gathered rows of the
    tables' squared magnitudes, summed over the users. Indexed: the m_c
    senders of each codeword c, each |P_c(z_c)|^2 at probe c.
    """
    # Each table has a row per bit pattern of its chunk's votes.
    packed = _check_packed(packed, sum(t.shape[0].bit_length() - 1 for t in tables))
    return _signal_power(method, tables, packed)


def _signal_power(method: Method, tables, packed: np.ndarray) -> np.ndarray:
    """`signal_power` of packed votes already checked by `_check_packed`."""
    power = [table.real**2 + table.imag**2 for table in tables]
    n, U, _ = packed.shape
    out = np.empty((n, power[0].shape[-1]))
    if method is Method.INDEXED:
        for block in _row_blocks(n, 8 * (2 * U + out.shape[1])):
            np.multiply(_codeword_counts(packed[block], out.shape[1]), power[0],
                        out=out[block])
    else:
        for block in _row_blocks(n, 8 * U * out.shape[1]):
            np.einsum("nup->np", table_product(power, packed[block]), out=out[block])
    return out


def _circulant_noise(K: int, L_e: int, d: float, sigma2: float) -> np.ndarray:
    """(K,) eigenvalues c_k of the noise covariance at the K slots on radius
    d, C_W = F diag(c) F^H with F[p, k] = e^{2 pi i p k / K}: c_k = sigma2
    sum d^{2n} over the n < K + L_e with n = k (mod K)."""
    terms = np.zeros(-(-(K + L_e) // K) * K)
    terms[: K + L_e] = (d * d) ** np.arange(K + L_e)
    return sigma2 * terms.reshape(-1, K).sum(axis=0)


class ProbeAggregator:
    """aggregate(packed, rng) -> decisions for one zero-encoded scheme.

    `positions` names the vote positions to decide (all by default); only
    their probe points are evaluated. Votes arrive packed, (n, U, ceil(M /
    8)) uint8 (`pack_votes`), and decisions return as (n, len(positions)).
    Per call the rng draws the signal and then, when sigma2 > 0, the noise:

    * `one_probe_per_user` (every indexed engine, and every engine deciding
      one vote): one complex normal per (trial, probe) cell whose variance,
      `channel_diagonal` (C_H[p, p]) times `signal_power`, is nonzero, in C
      order of (n, P). Otherwise (n U, L_e) tap normals scaled by
      sqrt(p_l / 2), read at the probes through z_p^l: `channel_factor`.
    * Indexed noise: the unnormalized inverse DFT along the probes of (n, K)
      normals scaled by `noise_scale`, sqrt(c_k / 2) of the circulant C_W's
      eigenvalues. Otherwise `complex_normal(shape, scale, rng) @ basis`
      with the probe-basis (scale, basis) of `noise_factor`.
    """

    def __init__(
        self, method: Method, K: int, pdp_cfg: PdpConfig, sigma2: float, positions=None
    ) -> None:
        self.ctx = DecoderContext.for_link(method, K, pdp_cfg, sigma2)
        rp = self.ctx.rp
        self.sigma2 = float(sigma2)
        self.form = detector_form(self.ctx, positions)
        self.tables = probe_tables(method, rp, self.form.points)
        self.one_probe_per_user = (method is Method.INDEXED
                                   or self.form.signs.shape[1] == 1)
        if self.one_probe_per_user:
            self.channel_diagonal, _ = probe_variances(method, rp, pdp_cfg, sigma2, positions)
        else:
            self.channel_factor = (np.sqrt(pdp_cfg.taps / 2.0),
                                   powers(self.form.points, pdp_cfg.L_e))
        if method is Method.INDEXED:
            self.noise_scale = np.sqrt(
                _circulant_noise(K, pdp_cfg.L_e, rp.d, self.sigma2) / 2.0)
        else:
            c_w = probe_moments(self.form.points, K, pdp_cfg, self.sigma2)
            self.noise_factor = _normal_factor(c_w, K + pdp_cfg.L_e)

    def _noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """W(z_p) at every probe, (n, P); exact zeros when sigma2 = 0."""
        if self.sigma2 == 0:
            return np.zeros((n, self.form.points.size), dtype=complex)
        if self.ctx.method is Method.INDEXED:
            w = complex_normal((n, self.noise_scale.size), self.noise_scale, rng)
            return np.fft.ifft(w, axis=-1, norm="forward", out=w)
        scale, basis = self.noise_factor
        return complex_normal((n, basis.shape[0]), scale, rng) @ basis

    def received(self, packed, rng: np.random.Generator) -> np.ndarray:
        """R(z_p) at every probe point; shape (n, P)."""
        packed = _check_packed(packed, self.ctx.n_votes)
        n, U, _ = packed.shape
        if self.one_probe_per_user:
            # The probes' signal terms sum disjoint users: independent,
            # CN(0, C_H[p, p] sum_u |P_u(z_p)|^2).
            var = _signal_power(self.ctx.method, self.tables, packed)
            var *= self.channel_diagonal
            # On a bool mask flatnonzero is several times faster than on var.
            cells = np.flatnonzero(var > 0)
            scale = var.ravel()[cells]
            del var  # released before the draws
            scale /= 2.0
            signal = complex_normal(cells.size, np.sqrt(scale, out=scale), rng)
            del scale
            r = self._noise(n, rng)
            flat = r.ravel()
            # By flat indices (far faster than a mask), a block at a time.
            step = _BLOCK_BYTES // 16
            for lo in range(0, cells.size, step):
                flat[cells[lo : lo + step]] += signal[lo : lo + step]
            return r
        scale, basis = self.channel_factor
        h = complex_normal((n * U, scale.size), scale, rng)
        h = h.reshape(n, U, -1).transpose(0, 2, 1)
        # sum_u (h_u @ basis) * P_u = sum_l basis[l] * (sum_u h_ul P_u):
        # contract the users first, a row block of codeword values at a
        # time, so no (n, U, P) product is formed.
        y = np.empty((n, scale.size, basis.shape[1]), dtype=complex)
        for block in _row_blocks(n, 16 * U * basis.shape[1]):
            np.matmul(h[block], table_product(self.tables, packed[block]), out=y[block])
        r = np.einsum("nkp,kp->np", y, basis)
        if self.sigma2 > 0:
            r += self._noise(n, rng)
        return r

    def aggregate(self, packed, rng: np.random.Generator) -> np.ndarray:
        """Majority-vote decisions at the engine's vote positions, the
        energies |R(z_p)|^2 formed and decided a row block at a time."""
        r = self.received(packed, rng)
        n, P = r.shape
        decisions = np.empty((n, self.form.signs.shape[1]), dtype=int)
        for block in _row_blocks(n, 8 * P):
            part = r[block]
            energies = np.square(part.real)
            energies += np.square(part.imag)
            decisions[block] = self.form.decide(energies)
        return decisions


def backend_votes(name, K: int) -> int:
    """M, the votes per (trial, user) of the packed votes that the aggregate
    of `backend(name, K, ...)` takes: the one K rule of each scheme, which
    the Monte Carlo, the median's votes per round and config all call. A
    zero-encoded scheme takes the votes of its codeword. The ideal and
    baseline backends borrow the indexed scheme's M = floor(log2(K)) at any
    K >= 2, so that all curves answer the same problem size; each decides
    its vote positions one by one on their own draws."""
    if name in OWN_DRAWS:
        if K < 2:
            raise ValueError("K must be at least 2")
        return K.bit_length() - 1
    return Method.from_name(name).votes_per_codeword(K)


def _plus_bits(packed: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The plus-votes at `positions` of (n, U, bytes) packed votes, as an
    (n, U, len(positions)) bool array: only those bits are unpacked."""
    bits = packed[..., positions // 8]
    bits >>= (positions % 8).astype(np.uint8)
    bits &= 1
    return bits.view(bool)


def backend(name, K: int, pdp_cfg: PdpConfig, sigma2: float, positions=None):
    """aggregate(packed, rng) -> decisions for the scheme called `name`.

    `name` is a CLI method name (or a `Method`). Every aggregate takes the
    (n, U, ceil(M / 8)) uint8 packed votes of M = `backend_votes(name, K)`
    positions, vote j at bit j % 8 of byte j // 8 (`pack_votes`), and
    returns the (n, len(positions)) decisions at the vote `positions` (all
    M by default). A zero-encoded scheme is a `ProbeAggregator`. Every
    other name unpacks only the bits at its positions and decides each as
    the sign of one (n, len(positions)) statistic of the plus-votes:
    "ideal", of the vote sum; "goldenbaum", of `goldenbaum_estimate`,
    spending the indexed scheme's resources per MV
    (`default_sequence_length(K)`); "obda", of `obda_received`, on
    single-tap subchannels irrespective of the delay profile and K, with
    phase errors for "obda_phase" and no channel inversion for
    "obda_no_tci". The receivers never see the channel realizations. A
    negative or NaN `sigma2` is refused here, before any name is read.
    """
    check_noise_variance(sigma2)
    if name == "ideal":
        def statistic(plus, rng):
            return 2 * np.count_nonzero(plus, axis=-2) - plus.shape[-2]
    elif name == "goldenbaum":
        statistic = partial(goldenbaum_estimate, L_seq=default_sequence_length(K),
                            pdp_cfg=pdp_cfg, sigma2=sigma2)
    elif name in ("obda", "obda_phase", "obda_no_tci"):
        statistic = partial(obda_received, sigma2=sigma2,
                            phase_errors=name == "obda_phase", tci=name != "obda_no_tci")
    else:
        engine = ProbeAggregator(Method.from_name(name), K, pdp_cfg, sigma2, positions)
        return engine.aggregate
    M = backend_votes(name, K)
    read = vote_positions(M, positions)

    def aggregate(packed, rng):
        plus = _plus_bits(_check_packed(packed, M), read)
        return np.sign(statistic(plus, rng)).astype(int)

    return aggregate
