"""Computation-error-rate prediction from the exact CDF of the detector metric.

Conditioned on all votes, the probed values R(z) of the received
polynomial are jointly circular Gaussian (the superposed channel gains and
the noise are), and every detector compares a Hermitian form R^H A R with A
real diagonal, read off the detector's own linear form
(`airmv.decoding.detector_form`). Both laws of that form below start from
the one probe covariance Sigma, which `detection_rates` forms:

* the paper's model (the default) keeps only diag(Sigma), i.e. it treats
  the test-point energies as independent exponentials. That is an
  approximation: every probe sees one shared noise sequence, so the
  energies are correlated, most visibly at low SNR. The channel adds no
  correlation: each user's codeword is exactly zero at every probe of the
  vote but one, so the signal part of Sigma is diagonal, C_H[p, p] sum_u
  |P_u(z_p)|^2, and at snr=inf the two laws coincide;
* the exact law (Turin 1960) keeps the full covariance Sigma. The form is
  then a difference of independent exponential sums whose means are the
  eigenvalues of A Sigma.

Under either law the CDF of the metric is computed exactly, with no
quadrature: the two sums are chains of exponential phases, and a race
between the chains (Neuts 1981) gives it from positive products and one
matrix exponential. That exponential, of a bidiagonal phase generator,
is computed in numpy (`_survival`) by scaling and squaring with its
diagonal and superdiagonal recomputed in closed form (Al-Mohy & Higham
2009). The error event's probability is read off its own tail of the race
(`cer`), so a deep-tail error rate keeps its relative precision; only the
uncoded detector's nonzero offset can need a complement. The error rate
follows by averaging over realizations of the other transmitters' votes,
all handled in one pass per point: one vote draw, one detector form, one
`probe_moments`, one set of the engine's probe tables
(`aggregation.probe_tables`) and one `aggregation.signal_power` call for
the signal diagonals of the whole stack: the evaluator the Monte Carlo
draws from. The rates stay (R, n) arrays, and the race runs over the
whole stack, one step per anti-diagonal of its recurrence, once for each
group of realizations with the same numbers of finite rates (phases of
nonzero length) on the two sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import probe_tables, signal_power
from .channel import PdpConfig
from .decoding import DecoderContext, detector_form, probe_moments
from .encoding import Method
from .huffman import RadiusParam

__all__ = [
    "CerModel",
    "CerEstimate",
    "cdf_diff_exp_sums",
    "detection_rates",
    "cer",
    "vote_averaged_cer",
]


def _inverse(means) -> np.ndarray:
    """Rates 1 / means as a float array, inf for a zero mean (a phase of
    length zero). A negative, NaN or infinite mean raises ValueError."""
    means = np.asarray(means, dtype=float)
    if (means < 0).any():
        raise ValueError("means must be nonnegative")
    rates = np.divide(1.0, means, out=np.full(means.shape, math.inf), where=means != 0)
    if not (rates > 0).all():
        raise ValueError("all rates must be strictly positive")
    return rates


def _race(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """pi[r, i]: probability that row r's `second` chain of exponential
    phases ends while its `first` is in its phase i, for (R, n1) and (R, n2)
    stacks of finite rates: every realization of a point whose sides have
    these finite chain lengths (one group of `cdf_diff_exp_sums`).

    Both chains run at once; from state (phases of first done, phases of
    second done) the next phase to end is the first's with probability
    lam / (lam + mu), else the second's. Mass that leaves the first chain
    before the second ends is dropped (the first finished first). Every term
    is a product of positive factors. Cell (j, i) of the recurrence needs
    cells (j - 1, i) and (j, i - 1), so one step runs a whole anti-diagonal
    i + j of every row at once: n1 + n2 - 1 steps in all.
    """
    rows, n1 = first.shape
    column = np.zeros((rows, n1))
    column[:, :1] = 1.0
    # visit[:, i + 1]: mass that passed phase i of the first chain while the
    # second is in the phase of the current anti-diagonal; visit[:, 0] is 0.
    visit = np.zeros((rows, n1 + 1))
    n2 = second.shape[1]
    for k in range(n1 + n2 - 1 if n1 and n2 else 0):
        lo, hi = max(0, k - n2 + 1), min(k, n1 - 1) + 1
        lam = first[:, lo:hi]
        mu = second[:, k - hi + 1 : k - lo + 1][:, ::-1]
        v = visit[:, lo:hi] + column[:, lo:hi]
        total = lam + mu
        column[:, lo:hi] = v * mu / total
        visit[:, lo + 1 : hi + 1] = v * (lam / total)
    return column


# Degree of the series for exp(B), B >= 0 with ||B||_inf <= 1: the tail after
# it is below 1/19! < 1e-17.
_SERIES_DEGREE = 18


def _survival(lam: np.ndarray, t: float) -> np.ndarray:
    """exp(Q t) 1 for the phase generator Q = -diag(lam) + diag(lam[:-1], 1):
    entry i is the probability that a chain entered at phase i is still
    running after t > 0.

    Scaling and squaring (Al-Mohy & Higham 2009): exp(Q t / 2^s) is squared
    s times, and at every scale y = lam t / 2^j the diagonal exp(-y_i) and
    the superdiagonal y_i (e^-y_i+1 - e^-y_i) / (y_i - y_i+1) are set in
    closed form. That divided difference is written e^-min (1 - e^-d) / d
    with d = |y_i - y_i+1|, which stays finite for rates over any number of
    decades. Only the entries beyond the superdiagonal come from the series
    and the squares, so a chain of one or two phases needs neither: one
    phase is exp(-lam t). The series is that of exp(-mu) exp(B), B = Q t /
    2^s + mu I with mu the largest scaled y, whose terms are all
    nonnegative, as are the squares.
    """
    x = lam * t
    n = x.size
    s = max(0, math.frexp(x.max())[1]) if n > 2 else 0
    y = np.ldexp(x, np.arange(-s, 1)[:, None])
    diagonal = np.exp(-y)
    e = np.zeros((n, n))
    if n > 1:
        a, b = y[:, :-1], y[:, 1:]
        d = np.abs(a - b)
        ratio = np.divide(-np.expm1(-d), d, out=np.ones_like(d), where=d > 0)
        superdiagonal = a * np.exp(-np.minimum(a, b)) * ratio
    if n > 2:
        mu = y[0].max()
        shifted = np.diag(mu - y[0]) + np.diag(y[0, :-1], 1)
        term = np.eye(n)
        for k in range(1, _SERIES_DEGREE + 1):
            term = term @ shifted / k
            e += term
        e *= math.exp(-mu)
    for j in range(s + 1):
        if j:
            e = e @ e
        e.flat[:: n + 1] = diagonal[j]
        if n > 1:
            e.flat[1 :: n + 1] = superdiagonal[j]
    # A row of exp(Q t) sums to at most 1; rounding may pass it by an ulp.
    return np.minimum(e.sum(axis=1), 1.0)


def _exceeds(first: np.ndarray, second: np.ndarray, t: float) -> np.ndarray:
    """P(first > second + t) for t >= 0, per row of (R, n1) and (R, n2)
    stacks: once the second chain ends, the first still has to outlast t
    from its current phase, pi exp(Q t) 1 with Q the first chain's phase
    generator (-lam_i on the diagonal, lam_i just above it), from
    `_survival` one row at a time. At t = 0 that is sum(pi), as on every
    coded point; only uncoded has t != 0, with one phase a side."""
    pi = _race(first, second)
    if t == 0.0 or pi.shape[1] == 0:
        return pi.sum(axis=1)
    return np.array([p @ _survival(f, t) for p, f in zip(pi, first)])


def cdf_diff_exp_sums(plus: np.ndarray, minus: np.ndarray, x: float) -> np.ndarray:
    """P(A - B < x) for each row of (R, n1) plus and (R, n2) minus rate
    arrays, A and B independent sums of exponentials whose rates are the
    row's; inf marks a phase of length zero, which drops out.

    Exact, by the phase race of the two sums (Neuts 1981), read off
    `_exceeds`: P(B > A - x) for x <= 0, and 1 - P(A > B + x) for x > 0,
    the one case whose own tail would need a negative shift. So at x = 0
    a small probability comes from its own tail, not as a difference from
    1. Coincident rates need no special handling. Rows are grouped by
    their counts of finite rates on each side, and each group is raced on
    its finite rates, in their order: one `_exceeds` call per group, not
    per row.
    """
    finite_plus, finite_minus = np.isfinite(plus), np.isfinite(minus)
    groups: dict[tuple[int, int], list[int]] = {}
    counts = zip(finite_plus.sum(axis=1).tolist(), finite_minus.sum(axis=1).tolist())
    for r, key in enumerate(counts):
        groups.setdefault(key, []).append(r)
    f = np.empty(len(plus))
    for (n1, n2), rows in groups.items():
        rows = np.array(rows)
        a = plus[rows][finite_plus[rows]].reshape(rows.size, n1)
        b = minus[rows][finite_minus[rows]].reshape(rows.size, n2)
        if not n1 and not n2:
            f[rows] = 1.0 if x > 0 else (0.0 if x < 0 else 0.5)
        else:
            f[rows] = 1.0 - _exceeds(a, b, x) if x > 0 else _exceeds(b, a, -x)
    return np.clip(f, 0.0, 1.0)


@dataclass(frozen=True)
class CerModel:
    """Scheme, codebook, channel statistics, and noise level for prediction."""

    method: Method
    rp: RadiusParam
    pdp: PdpConfig
    sigma2: float

    def __post_init__(self) -> None:
        self.method.validate_k(self.rp.K)
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")


# Eigenvalues of A Sigma smaller than this fraction of the largest one are
# rounding residue of exactly-zero components (noiseless probes that sit on
# every user's encoded zero) and are dropped.
_EIG_RTOL = 1e-12


def detection_rates(
    votes, ell: int, model: CerModel, exact: bool = False
) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """Rates of vote ell's metric R^H A R and the offset x at which its CDF
    gives P(decision < 0).

    `votes` is an (R, U, M) stack of +/-1 vote realizations. The rates are
    the (R, n1) plus and (R, n2) minus float arrays, one row per
    realization, inf marking a phase of length zero: the form
    `cdf_diff_exp_sums` races. x is the same for all realizations. The
    detector form of vote ell gives the probe points and A = S / s (signed
    inverse scales: +-1 for the coded schemes, the inverse count scales for
    uncoded), and x = sum_p A_p b_p (zero for the coded schemes).

    Each realization's probe covariance is Sigma = D + C_W, with C_W the
    noise covariance at the probes and D diagonal: each user's codeword is
    exactly zero at every probe of the vote but one, so the signal terms of
    different probes sum disjoint users, and D_pp = C_H[p, p] sum_u
    |P_u(z_p)|^2, with C_H the channel covariance at the probes
    (`probe_moments`) and the sum read from the engine's tables at the
    probes (`aggregation.signal_power`): the law the Monte Carlo draws, from
    the same numbers. The diagonal of Sigma holds the expected test-point
    energies. The paper's independence model takes the means A_pp
    Sigma_pp, split into the two sides by the sign of A; a zero mean is an
    infinite rate. With `exact`, Sigma = L L^H and the metric is a sum of
    independent exponentials weighted by the eigenvalues of L^H A L, which
    are those of A Sigma (Turin 1960); positive ones form the plus side and
    the negated negative ones the minus side. Both sides are then P wide,
    each eigenvalue at its ascending position and inf at the others (the
    other sign, or below the `_EIG_RTOL` cut). The paper model reads the
    whole stack's diagonals at once; the exact law forms Sigma one
    realization at a time, so memory grows with R U P, not R P^2.
    """
    rp = model.rp
    ctx = DecoderContext.for_link(model.method, rp, model.pdp, model.sigma2)
    form = detector_form(ctx, [ell])
    weights = form.signs[:, 0] / form.scale
    x = float(np.dot(weights, form.bias))
    chan, noise = probe_moments(form.points, rp.K, model.pdp, model.sigma2)
    tables = probe_tables(model.method, rp, form.points)
    signal = signal_power(model.method, tables, votes) * chan.diagonal().real
    if not exact:
        means = weights * (signal + noise.diagonal().real)
        plus, minus = _inverse(means[:, weights > 0]), _inverse(-means[:, weights < 0])
    else:
        lam = np.empty(signal.shape)
        for r, d in enumerate(signal):
            evals, vecs = np.linalg.eigh(noise + np.diag(d))
            root = vecs * np.sqrt(np.clip(evals, 0.0, None))
            lam[r] = np.linalg.eigvalsh((root.conj().T * weights) @ root)
        lam[np.abs(lam) <= _EIG_RTOL * np.abs(lam).max(axis=1, keepdims=True)] = 0.0
        plus, minus = _inverse(np.maximum(lam, 0.0)), _inverse(np.maximum(-lam, 0.0))
    return (plus, minus), x


def cer(
    n_plus: int, n_minus: int, plus: np.ndarray, minus: np.ndarray, x: float
) -> np.ndarray:
    """Computation-error rate of each realization, from the (R, n) plus and
    minus rates of its metric difference A - B and the decision offset x
    (`detection_rates`).

    An error is the event A - B < x when n_plus > n_minus and A - B > x,
    i.e. B - A < -x, when n_plus < n_minus: either way one
    `cdf_diff_exp_sums` call, which reads a small rate off its own tail. An
    exact tie in the true votes counts as an error outright.
    """
    if n_plus < 0 or n_minus < 0:
        raise ValueError("vote counts must be nonnegative")
    if n_plus > n_minus:
        return cdf_diff_exp_sums(plus, minus, x)
    if n_plus < n_minus:
        return cdf_diff_exp_sums(minus, plus, -x)
    return np.ones(len(plus))


@dataclass(frozen=True)
class CerEstimate:
    """Vote-averaged error-rate prediction with its sampling standard error."""

    probability: float
    stderr: float


def vote_averaged_cer(
    n_plus: int,
    n_minus: int,
    model: CerModel,
    n_realizations: int = 100,
    rng: np.random.Generator | None = None,
    ell: int = 0,
    exact: bool = False,
) -> CerEstimate:
    """Average the conditional error rate over the other transmitters' votes.

    The probed vote column is fixed to n_plus ones followed by n_minus
    minus-ones; all remaining vote entries, for every realization at once,
    are drawn equiprobably in one call. With a
    single vote per codeword there is nothing to sample and the result is
    deterministic (stderr 0).

    By default the conditional law is the paper's, which approximates the
    test-point energies as independent exponentials; `exact` uses the law
    of the correlated probes instead (see `detection_rates`). Both laws
    consume the same vote draws. The rates of all realizations come as
    (R, n) arrays from one `detection_rates` call, and `cer` races the
    whole stack at once, one race per group of equal finite chain lengths.
    """
    if min(n_plus, n_minus) < 0 or n_plus + n_minus < 1:
        raise ValueError("need nonnegative vote counts and at least one "
                         f"transmitter, got n_plus={n_plus}, n_minus={n_minus}")
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    U = n_plus + n_minus
    M = model.method.votes_per_codeword(model.rp.K)
    if not 0 <= ell < M:
        raise ValueError(f"vote position {ell} out of range for M={M}")

    if M == 1:
        n_realizations = 1
    elif rng is None:
        raise ValueError("an rng is required when other votes must be sampled")
    if n_plus == n_minus:
        # `cer` counts a true tie as an error whatever the detector does,
        # so no realization needs its CDF.
        return CerEstimate(probability=1.0, stderr=0.0)

    shape = (n_realizations, U, M)
    votes = rng.integers(0, 2, size=shape) * 2 - 1 if M > 1 else np.empty(shape, int)
    votes[:, :, ell] = np.concatenate([np.ones(n_plus, int), -np.ones(n_minus, int)])
    (plus, minus), x = detection_rates(votes, ell, model, exact)
    probs = cer(n_plus, n_minus, plus, minus, x)

    stderr = np.std(probs, ddof=1) / math.sqrt(probs.size) if probs.size > 1 else 0.0
    return CerEstimate(float(np.mean(probs)), float(stderr))
