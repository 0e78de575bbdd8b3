"""Vote-to-codeword encoding for the three aggregation schemes.

One encoder, `vote_pattern`, maps votes of any batch shape (..., M) onto
the radius selections (..., K) of their codewords: the uncoded scheme
spends one zero per vote, the differential scheme a conjugate pair of
slots per vote, and the indexed scheme places a single inner zero at the
slot whose binary index is spelled by the votes. There is no single-row
codeword API: one vote row is the batch of shape (M,), and
`huffman.synthesize_coeffs` turns any batch of selections into
coefficients.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["Method", "vote_pattern"]

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


def _vote_array(votes) -> np.ndarray:
    # Integers in [-1, 1] with no zero are exactly +/-1 (one cheap pass
    # each instead of an elementwise comparison chain).
    votes = np.asarray(votes)
    if (
        votes.size == 0
        or not np.issubdtype(votes.dtype, np.integer)
        or votes.min() < -1
        or votes.max() > 1
        or np.count_nonzero(votes) != votes.size
    ):
        raise ValueError(
            "votes must be a nonempty integer array with entries in {-1, +1}"
        )
    return votes


def vote_pattern(method: Method, votes) -> np.ndarray:
    """Radius selections (..., K) from (..., M) integer +/-1 votes.

    True at slot k picks the inner zero 1/d at phase 2 pi k / K.
    - Uncoded (M = K): vote +1 at k makes slot k inner.
    - Differential (M = K/2): vote +1 at l makes slot 2l inner and slot
      2l+1 outer; vote -1 swaps the pair.
    - Indexed (M = log2 K): one inner slot, at index sum_l bit_l 2^l with
      bit_l = (v_l + 1)/2, so vote position l carries significance 2^l.
    """
    v = _vote_array(votes)
    if v.ndim == 0:
        raise ValueError("votes need a last axis of M votes per codeword")
    if method is Method.UNCODED:
        return v == 1
    if method is Method.DIFFERENTIAL:
        out = np.empty(v.shape[:-1] + (2 * v.shape[-1],), dtype=bool)
        out[..., 0::2] = v == 1
        out[..., 1::2] = v == -1
        return out
    m = v.shape[-1]
    index = (v == 1) @ (1 << np.arange(m))
    return index[..., np.newaxis] == np.arange(1 << m)
