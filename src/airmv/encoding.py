"""Vote-to-codeword encoders for the three aggregation schemes.

All three map a row of +/-1 votes onto the radius selections of a single
codeword. The uncoded scheme spends one zero per vote, the differential
scheme a conjugate pair of slots per vote, and the indexed scheme places a
single inner zero at the slot whose binary index is spelled by the votes.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .huffman import RadiusParam, ZeroCodeword

__all__ = [
    "Method",
    "votes_to_bits",
    "uncoded_pattern",
    "differential_pattern",
    "indexed_pattern",
    "vote_pattern",
    "check_vote_batch",
    "encode",
]

_ALIASES = {"m1": "uncoded", "m2": "differential", "m3": "indexed"}


class Method(Enum):
    """Aggregation scheme identifier."""

    UNCODED = "uncoded"
    DIFFERENTIAL = "differential"
    INDEXED = "indexed"

    @classmethod
    def from_name(cls, name: "str | Method") -> "Method":
        if isinstance(name, cls):
            return name
        key = _ALIASES.get(name.strip().lower(), name.strip().lower())
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown method {name!r}")

    def validate_k(self, K: int) -> None:
        if self is Method.UNCODED:
            # K=1 has no radius: d = sqrt(1 + sin(pi/K)) would be 1.
            if K < 2:
                raise ValueError("uncoded encoding needs K >= 2")
        elif self is Method.DIFFERENTIAL:
            if K < 2 or K % 2 != 0:
                raise ValueError("differential encoding needs an even K >= 2")
        else:
            if K < 2 or (K & (K - 1)) != 0:
                raise ValueError("indexed encoding needs K a power of two >= 2")

    def votes_per_codeword(self, K: int) -> int:
        self.validate_k(K)
        if self is Method.UNCODED:
            return K
        if self is Method.DIFFERENTIAL:
            return K // 2
        return K.bit_length() - 1


def _check_votes(votes) -> np.ndarray:
    v = np.asarray(votes)
    if v.size == 0 or not np.all(np.abs(v) == 1):
        raise ValueError("votes must be a nonempty array with entries in {-1, +1}")
    return v.astype(np.int64)


def check_vote_batch(votes) -> np.ndarray:
    """The (n, U, M) integer +/-1 vote array every aggregation backend takes."""
    votes = np.asarray(votes)
    if votes.ndim != 3:
        raise ValueError(f"expected (n, U, M) votes, got shape {votes.shape}")
    # Integers in [-1, 1] with no zero are exactly +/-1 (one cheap pass
    # each instead of an elementwise comparison chain).
    if (
        not np.issubdtype(votes.dtype, np.integer)
        or votes.min() < -1
        or votes.max() > 1
        or np.count_nonzero(votes) != votes.size
    ):
        raise ValueError("votes must be an integer array with entries in {-1, +1}")
    return votes


def votes_to_bits(votes) -> np.ndarray:
    """Map votes -1/+1 to bits 0/1."""
    return (_check_votes(votes) + 1) // 2


def uncoded_pattern(votes) -> np.ndarray:
    """Radius selections (..., K) from (..., K) votes: +1 -> inner zero."""
    return _check_votes(votes) == 1


def differential_pattern(votes) -> np.ndarray:
    """Radius selections (..., K) from (..., K/2) votes.

    Vote +1 at position l makes slot 2l inner and slot 2l+1 outer; vote -1
    swaps the pair.
    """
    v = _check_votes(votes)
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1],), dtype=bool)
    out[..., 0::2] = v == 1
    out[..., 1::2] = v == -1
    return out


def indexed_pattern(votes) -> np.ndarray:
    """Radius selections (..., K) from (..., log2 K) votes: one inner zero.

    The inner slot index is sum_l bit_l 2^l with bit_l = (v_l + 1)/2, so
    vote position l carries bit significance 2^l.
    """
    bits = votes_to_bits(votes)
    m = bits.shape[-1]
    index = bits @ (1 << np.arange(m))
    return index[..., np.newaxis] == np.arange(1 << m)


def vote_pattern(method: Method, votes) -> np.ndarray:
    if method is Method.UNCODED:
        return uncoded_pattern(votes)
    if method is Method.DIFFERENTIAL:
        return differential_pattern(votes)
    return indexed_pattern(votes)


def encode(method: Method, votes, rp: RadiusParam) -> ZeroCodeword:
    """The codeword of one (M,) vote row."""
    v = _check_votes(votes)
    if v.ndim != 1:
        raise ValueError("encode expects a single 1-D vote row")
    if v.shape[0] != method.votes_per_codeword(rp.K):
        raise ValueError(
            f"{method.value} encoding with K={rp.K} takes "
            f"{method.votes_per_codeword(rp.K)} votes, got {v.shape[0]}"
        )
    return ZeroCodeword(vote_pattern(method, v), rp)
