"""Probe-domain aggregation: votes to majority-vote decisions.

The detectors read the received polynomial only at their probe points z_p,
and there it splits over the transmitters:

    R(z_p) = sum_u H_u(z_p) P_u(z_p) + W(z_p),

with H_u a user's channel polynomial, P_u its codeword polynomial and W
the noise polynomial. The engine evaluates this sum directly from the zero
form, P_u(z) = c_lead * prod_k (z - zero_k), so no coefficient sequence is
synthesized and no convolution is formed. The time-domain chain
(`synthesize_coeffs` -> `superpose` -> `decode`) stays the reference the
engine is tested against on identical draws; both end in the detector's
`DetectorForm.decide`.

The uncoded and differential encoders set every slot from one vote, so the
votes are packed eight to a byte and each byte indexes a table of the
product of its slots' factors (z_p - zero_k), with its share of c_lead;
P_u(z_p) is the product of one row per byte. The indexed encoder's slots
depend on all votes at once, so its table holds one row per codeword, and
the taps are summed per codeword before they meet it:
R = sum_(l, c) G[n, l, c] z_p^l T[c, p], with G[n, l, c] the sum of tap l
over the users that sent codeword c in trial n. A probe that lands on a user's own
encoded zero meets an exact 0 factor.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .channel import PdpConfig, awgn, sample_channel
from .decoding import DecoderContext, detector_form, powers, probe_points
from .encoding import Method, check_vote_batch, vote_pattern
from .huffman import RadiusParam, radius_param, root_phases

__all__ = ["ProbeAggregator", "probe_tables"]

_CHUNK = 8  # votes per uncoded/differential table: one byte of packed votes


@lru_cache(maxsize=None)
def probe_tables(
    method: Method, rp: RadiusParam, positions: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Tables whose gathered rows multiply to P_u(z_p) (read-only, cached).

    The probes are `probe_points` for the vote `positions`. Indexed: one
    table with a row per codeword index. Uncoded and differential: one
    table per chunk of eight votes, row b for the chunk's votes spelling
    bit pattern b (vote j of the chunk is bit j).
    """
    points = probe_points(method, rp, positions)
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
        table = np.repeat(share[:, np.newaxis].astype(complex), points.size, axis=1)
        for k in range(inner.shape[1]):
            table *= points - zeros[:, k, np.newaxis]
        tables.append(table)
    tables[0] *= math.sqrt(rp.eta * (K + 1))
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def _codeword_index(packed: np.ndarray) -> np.ndarray:
    index = packed[..., 0].astype(np.intp)
    for i in range(1, packed.shape[-1]):
        index |= packed[..., i].astype(np.intp) << (8 * i)
    return index


class ProbeAggregator:
    """aggregate(votes, rng) -> decisions for one zero-encoded scheme.

    `positions` names the vote positions to decide (all by default); only
    their probe points are evaluated. Votes arrive as (n, U, M) arrays of
    +/-1 and decisions return as (n, len(positions)). Per call the rng
    draws the (n, U, L_e) channel taps and then, when sigma2 > 0, the
    (n, K + L_e) noise samples, exactly as `sample_channel` followed by
    `superpose` would.
    """

    def __init__(
        self,
        method: Method,
        K: int,
        pdp_cfg: PdpConfig,
        sigma2: float,
        positions=None,
    ) -> None:
        if sigma2 < 0:
            raise ValueError("noise variance must be nonnegative")
        rp = radius_param(K)
        self.ctx = DecoderContext.for_link(method, rp, pdp_cfg, sigma2)
        M = self.ctx.n_votes
        if positions is None:
            positions = range(M)
        self.positions = tuple(int(p) for p in np.atleast_1d(positions))
        self.pdp_cfg = pdp_cfg
        self.sigma2 = float(sigma2)
        self.form = detector_form(self.ctx, self.positions)
        self.tables = probe_tables(method, rp, self.positions)
        self.powers = powers(self.form.points, K + pdp_cfg.L_e)
        if method is Method.INDEXED:
            # Row (l, c) holds z_p^l T[c, p]: R = G @ this, taps and all.
            v_taps = self.powers[: pdp_cfg.L_e, np.newaxis, :]
            self._tap_table = (v_taps * self.tables[0]).reshape(
                -1, self.powers.shape[1]
            )

    def _packed(self, votes) -> np.ndarray:
        votes = check_vote_batch(votes)
        M = self.ctx.n_votes
        if votes.shape[-1] != M:
            raise ValueError(f"expected (n, U, {M}) votes, got shape {votes.shape}")
        # Pad each row to whole bytes so that one flat packbits call packs
        # them all (packing along a short last axis is far slower).
        nbytes = -(-M // 8)
        bits = np.zeros(votes.shape[:-1] + (8 * nbytes,), dtype=bool)
        np.greater(votes, 0, out=bits[..., :M])
        packed = np.packbits(bits.reshape(-1), bitorder="little")
        return packed.reshape(votes.shape[:-1] + (nbytes,))

    def _values(self, packed: np.ndarray) -> np.ndarray:
        if self.ctx.method is Method.INDEXED:
            return self.tables[0][_codeword_index(packed)]
        values = self.tables[0][packed[..., 0]]
        for i in range(1, len(self.tables)):
            values *= self.tables[i][packed[..., i]]
        return values

    def received(self, votes, rng: np.random.Generator) -> np.ndarray:
        """R(z_p) at every probe point; shape (n, P)."""
        packed = self._packed(votes)
        n, U, _ = packed.shape
        L = self.pdp_cfg.L_e
        h = sample_channel(self.pdp_cfg, U, rng, trials=n)
        if self.ctx.method is Method.INDEXED:
            # G[n, (l, c)] = sum of h[n, u, l] over the users u sending c.
            rows = self.tables[0].shape[0]
            index = np.arange(n * L).reshape(n, 1, L) * rows
            index = (index + _codeword_index(packed)[:, :, np.newaxis]).ravel()
            g = np.empty((n, L * rows), dtype=complex)
            g.real = np.bincount(index, h.real.ravel(), g.size).reshape(g.shape)
            g.imag = np.bincount(index, h.imag.ravel(), g.size).reshape(g.shape)
            r = g @ self._tap_table
        else:
            hz = (h.reshape(n * U, L) @ self.powers[:L]).reshape(n, U, -1)
            r = np.einsum("nup,nup->np", hz, self._values(packed))
        if self.sigma2 > 0:
            r += awgn((n, self.powers.shape[0]), self.sigma2, rng) @ self.powers
        return r

    def aggregate(self, votes, rng: np.random.Generator) -> np.ndarray:
        """Majority-vote decisions at the engine's vote positions."""
        r = self.received(votes, rng)
        return self.form.decide(r.real**2 + r.imag**2)
