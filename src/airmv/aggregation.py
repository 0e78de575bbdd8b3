"""Probe-domain aggregation: votes to majority-vote decisions.

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

The uncoded and differential encoders set every slot from one vote, so the
votes are packed eight to a byte and each byte indexes a table of the
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

`backend` is the one place a scheme's name becomes its `aggregate(votes,
rng)`: this engine's `aggregate`, or the sign of one statistic, the vote
sum (ideal) or a baseline's of `airmv.baselines`; nothing else signs a
baseline statistic. The error-rate Monte Carlo builds one per sweep point
and the median one per run; neither caches it.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .baselines import default_sequence_length, goldenbaum_estimate, obda_received
from .channel import PdpConfig, complex_normal
from .decoding import (DecoderContext, detector_form, powers, probe_moments,
                       probe_variances)
from .encoding import Method, check_vote_batch, vote_pattern
from .huffman import RadiusParam, radius_param, root_phases

__all__ = ["ProbeAggregator", "backend", "probe_tables", "signal_power", "table_product"]

_CHUNK = 8  # votes per uncoded/differential table: one byte of packed votes


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
    width = M if method is Method.INDEXED else _CHUNK
    w = root_phases(K)
    tables = []
    for first in range(0, M, width):
        b = min(width, M - first)
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


def _packed(votes, M: int) -> np.ndarray:
    """(n, U, M) +/-1 votes as (n, U, ceil(M / 8)) bytes, vote j at bit j % 8
    of byte j // 8."""
    votes = check_vote_batch(votes)
    if votes.shape[-1] != M:
        raise ValueError(f"expected (n, U, {M}) votes, got shape {votes.shape}")
    # Pad each row to whole bytes so that one flat packbits call packs them
    # all (packing along a short last axis is far slower).
    nbytes = -(-M // 8)
    bits = np.zeros(votes.shape[:-1] + (8 * nbytes,), dtype=bool)
    np.greater(votes, 0, out=bits[..., :M])
    packed = np.packbits(bits.reshape(-1), bitorder="little")
    return packed.reshape(votes.shape[:-1] + (nbytes,))


def table_product(tables, packed: np.ndarray) -> np.ndarray:
    """prod_i tables[i][packed[..., i]]: one gathered row per byte of votes.

    An uncoded vote row is its selection row, so the uncoded tables evaluate
    any codeword, differential and indexed included, from its selections
    packed little-endian, eight to a byte
    (`np.packbits(..., axis=-1, bitorder="little")`).
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


def signal_power(method: Method, tables, votes) -> np.ndarray:
    """sum_u |P_u(z_p)|^2 per trial and probe, (n, P), for (n, U, M) +/-1
    votes and the `probe_tables` of `method` at the probes.

    Uncoded and differential: the product of the gathered rows of the
    tables' squared magnitudes, summed over the users. Indexed: the m_c
    senders of each codeword c, each |P_c(z_c)|^2 at probe c.
    """
    # Each table has a row per bit pattern of its chunk's votes.
    packed = _packed(votes, sum(t.shape[0].bit_length() - 1 for t in tables))
    power = [table.real**2 + table.imag**2 for table in tables]
    if method is Method.INDEXED:
        return _codeword_counts(packed, power[0].size) * power[0]
    return np.einsum("nup->np", table_product(power, packed))


def _circulant_noise(K: int, L_e: int, d: float, sigma2: float) -> np.ndarray:
    """(K,) eigenvalues c_k of the noise covariance at the K slots on radius
    d, C_W = F diag(c) F^H with F[p, k] = e^{2 pi i p k / K}: c_k = sigma2
    sum d^{2n} over the n < K + L_e with n = k (mod K)."""
    terms = np.zeros(-(-(K + L_e) // K) * K)
    terms[: K + L_e] = (d * d) ** np.arange(K + L_e)
    return sigma2 * terms.reshape(-1, K).sum(axis=0)


class ProbeAggregator:
    """aggregate(votes, rng) -> decisions for one zero-encoded scheme.

    `positions` names the vote positions to decide (all by default); only
    their probe points are evaluated. Votes arrive as (n, U, M) arrays of
    +/-1 and decisions return as (n, len(positions)). Per call the rng
    draws the signal and then, when sigma2 > 0, the noise:

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
        if not sigma2 >= 0:  # NaN too
            raise ValueError("noise variance must be nonnegative")
        rp = radius_param(K)
        self.ctx = DecoderContext.for_link(method, rp, pdp_cfg, sigma2)
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

    def received(self, votes, rng: np.random.Generator) -> np.ndarray:
        """R(z_p) at every probe point; shape (n, P)."""
        if self.one_probe_per_user:
            # The probes' signal terms sum disjoint users: independent,
            # CN(0, C_H[p, p] sum_u |P_u(z_p)|^2).
            var = signal_power(self.ctx.method, self.tables, votes)
            var *= self.channel_diagonal  # in place: it sets the batch's peak
            # On a bool mask flatnonzero is several times faster than on var.
            cells = np.flatnonzero(var > 0)
            signal = complex_normal(cells.size, np.sqrt(var.ravel()[cells] / 2.0), rng)
            n = var.shape[0]
            del var  # released before the noise draw
            r = self._noise(n, rng)
            r.ravel()[cells] += signal  # flat indices: far faster than a mask
            return r
        packed = _packed(votes, self.ctx.n_votes)
        n, U, _ = packed.shape
        scale, basis = self.channel_factor
        h = complex_normal((n * U, scale.size), scale, rng)
        # sum_u (h_u @ basis) * P_u = sum_l basis[l] * (sum_u h_ul P_u):
        # contract the users first, so no (n, U, P) product is formed.
        y = np.matmul(h.reshape(n, U, -1).transpose(0, 2, 1),
                      table_product(self.tables, packed))
        r = np.einsum("nkp,kp->np", y, basis)
        if self.sigma2 > 0:
            r += self._noise(n, rng)
        return r

    def aggregate(self, votes, rng: np.random.Generator) -> np.ndarray:
        """Majority-vote decisions at the engine's vote positions."""
        r = self.received(votes, rng)
        return self.form.decide(r.real**2 + r.imag**2)


def backend(name, K: int, pdp_cfg: PdpConfig, sigma2: float, positions=None):
    """aggregate(votes, rng) -> decisions for the scheme called `name`.

    `name` is a CLI method name (or a `Method`). A zero-encoded scheme is
    a `ProbeAggregator` deciding the vote `positions` (all by default).
    Every other name decides every position it gets as the sign of one
    (n, M) statistic: "ideal", of the vote sum; "goldenbaum", of
    `goldenbaum_estimate`, spending the indexed scheme's resources per MV
    (`default_sequence_length(K)`); "obda", of `obda_received`, on
    single-tap subchannels irrespective of the delay profile and K, with
    phase errors for "obda_phase" and no channel inversion for
    "obda_no_tci". The receivers never see the channel realizations. A
    negative or NaN `sigma2` is refused here, before any name is read.
    """
    if not sigma2 >= 0:  # NaN too
        raise ValueError("noise variance must be nonnegative")
    if name == "ideal":
        def statistic(votes, rng):
            return check_vote_batch(votes).sum(axis=-2)
    elif name == "goldenbaum":
        statistic = partial(goldenbaum_estimate, L_seq=default_sequence_length(K),
                            pdp_cfg=pdp_cfg, sigma2=sigma2)
    elif name in ("obda", "obda_phase", "obda_no_tci"):
        statistic = partial(obda_received, sigma2=sigma2,
                            phase_errors=name == "obda_phase", tci=name != "obda_no_tci")
    else:
        engine = ProbeAggregator(Method.from_name(name), K, pdp_cfg, sigma2, positions)
        return engine.aggregate

    def aggregate(votes, rng):
        return np.sign(statistic(votes, rng)).astype(int)

    return aggregate
