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
follows by averaging over realizations of the other transmitters' votes.

A sweep's points of one (method, K, SNR, vote) share that law, so they
are handled in one pass per group by `vote_averaged_cers`, the theory's
one entry point (a lone point is a group of one): one vote draw per
point from its own stream, then, for the stacked realizations of the
whole group, one detector form, one set of the engine's probe tables
(`aggregation.probe_tables`) and one `aggregation.signal_power` call for
the signal diagonals: the evaluator the Monte Carlo draws from. The
diagonals of C_H and C_W depend only on the radius of the probe's circle,
d or 1/d: `decoding.probe_variances` gives them in closed form, the same
numbers the engine draws with. Only the exact law forms a probe
covariance: the full noise covariance C_W of `probe_moments`. The rates
stay (rows, n) arrays, and the race runs over the rows of each error
direction at once, one step per anti-diagonal of its recurrence, once for
each group of rows with the same numbers of finite rates (phases of
nonzero length) on the two sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import pack_votes, probe_tables, scored_column, signal_power
from .channel import PdpConfig, check_noise_variance
from .decoding import (DecoderContext, detector_form, probe_moments, probe_variances,
                       vote_positions)
from .encoding import Method

__all__ = [
    "CerEstimate",
    "cdf_diff_exp_sums",
    "detection_rates",
    "cer",
    "vote_averaged_cers",
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
    generator (-lam_i on the diagonal, lam_i just above it). At t = 0 that
    is sum(pi), as on every coded point. Only uncoded has t != 0, with at
    most one phase a side, where exp(Q t) 1 is exp(-lam t): pi exp(-lam t)
    for the whole stack at once. A longer chain takes `_survival` one row
    at a time."""
    pi = _race(first, second)
    if t == 0.0 or pi.shape[1] == 0:
        return pi.sum(axis=1)
    if pi.shape[1] == 1:
        return pi[:, 0] * np.minimum(np.exp(-(first[:, 0] * t)), 1.0)
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


# Eigenvalues of A Sigma smaller than this fraction of the largest one are
# rounding residue of exactly-zero components (noiseless probes that sit on
# every user's encoded zero) and are dropped.
_EIG_RTOL = 1e-12


def detection_rates(
    packed, ell: int, method: Method | str, K: int, pdp_cfg: PdpConfig, sigma2: float,
    exact: bool = False,
) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """Rates of vote ell's metric R^H A R and the offset x at which its CDF
    gives P(decision < 0), on the link (method, K, pdp_cfg, sigma2) that
    `simulate_cer` takes: `method` a `Method` or its name.

    `packed` is an (R, U, ceil(M / 8)) stack of vote realizations, packed
    as every backend takes them (`aggregation.pack_votes`). The rates are
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
    |P_u(z_p)|^2, with C_H the channel covariance at the probes and the sum
    read from the engine's tables at the probes
    (`aggregation.signal_power`): the law the Monte Carlo draws, from the
    same numbers. The diagonals of C_H and C_W are the closed forms of
    `probe_variances`, which depend on the radius of the probe's circle
    only. The diagonal of Sigma holds
    the expected test-point energies. The paper's independence model takes
    the means A_pp Sigma_pp, split into the two sides by the sign of A; a
    zero mean is an infinite rate. With `exact`, Sigma = L L^H, with the
    full C_W of `probe_moments`, and the metric is a sum of independent
    exponentials weighted by the eigenvalues of L^H A L, which are those of
    A Sigma (Turin 1960); positive ones form the plus side and the negated
    negative ones the minus side. Both sides are then P wide, each
    eigenvalue at its ascending position and inf at the others (the other
    sign, or below the `_EIG_RTOL` cut). The paper model reads the whole
    stack's diagonals at once; the exact law forms Sigma one realization at
    a time, so memory grows with R U P, not R P^2.
    """
    ctx = DecoderContext.for_link(method, K, pdp_cfg, sigma2)
    method, rp = ctx.method, ctx.rp
    form = detector_form(ctx, [ell])
    weights = form.signs[:, 0] / form.scale
    x = float(np.dot(weights, form.bias))
    tables = probe_tables(method, rp, form.points)
    chan, noise = probe_variances(method, rp, pdp_cfg, sigma2, [ell])
    signal = signal_power(method, tables, packed)
    signal *= chan
    if not exact:
        means = weights * (signal + noise)
        plus, minus = _inverse(means[:, weights > 0]), _inverse(-means[:, weights < 0])
    else:
        noise = probe_moments(form.points, K, pdp_cfg, sigma2)
        lam = np.empty(signal.shape)
        for r, d in enumerate(signal):
            evals, vecs = np.linalg.eigh(noise + np.diag(d))
            root = vecs * np.sqrt(np.clip(evals, 0.0, None))
            lam[r] = np.linalg.eigvalsh((root.conj().T * weights) @ root)
        lam[np.abs(lam) <= _EIG_RTOL * np.abs(lam).max(axis=1, keepdims=True)] = 0.0
        plus, minus = _inverse(np.maximum(lam, 0.0)), _inverse(np.maximum(-lam, 0.0))
    return (plus, minus), x


def cer(n_plus, n_minus, plus: np.ndarray, minus: np.ndarray, x: float) -> np.ndarray:
    """Computation-error rate of each realization, from the (R, n) plus and
    minus rates of its metric difference A - B and the decision offset x
    (`detection_rates`). The vote counts are one pair for all rows or one
    per row.

    An error is the event A - B < x when n_plus > n_minus and A - B > x,
    i.e. B - A < -x, when n_plus < n_minus: one `cdf_diff_exp_sums` call
    for all the rows of each direction, which reads a small rate off its
    own tail. An exact tie in the true votes counts as an error outright.
    """
    n_plus, n_minus = (np.broadcast_to(n, len(plus)) for n in (n_plus, n_minus))
    if (np.minimum(n_plus, n_minus) < 0).any():
        raise ValueError("vote counts must be nonnegative")
    probs = np.ones(len(plus))
    for rows, first, second, t in ((n_plus > n_minus, plus, minus, x),
                                   (n_plus < n_minus, minus, plus, -x)):
        if rows.any():
            probs[rows] = cdf_diff_exp_sums(first[rows], second[rows], t)
    return probs


@dataclass(frozen=True)
class CerEstimate:
    """Vote-averaged error-rate prediction with its sampling standard error."""

    probability: float
    stderr: float


# Realizations per `detection_rates` call of `vote_averaged_cers`: whole
# points are stacked up to this many rows, which bounds the (rows, P) rate
# and race arrays to 32 MB each at K = 1024.
_STACK_ROWS = 4096


def vote_averaged_cers(
    method: Method | str,
    K: int,
    U: int,
    n_plus_values,
    pdp_cfg: PdpConfig,
    sigma2: float,
    rngs,
    n_realizations: int = 100,
    ell: int = 0,
    exact: bool = False,
) -> list[CerEstimate]:
    """The conditional error rate of vote ell averaged over the other
    transmitters' votes, with its standard error, at each point n_plus of
    `n_plus_values` (n_minus = U - n_plus), each from its own rng of
    `rngs` (one per point), against one law: the link (method, K, U,
    n_plus, pdp_cfg, sigma2) of `simulate_cer`, `method` a `Method` or its
    name. Every refusal comes before any draw.

    Each point fixes vote ell to its `scored_column` and draws all the
    other votes of its R = `n_realizations` realizations equiprobably in
    one call of its own rng, so its estimate is bit for bit the same
    whatever other points share the call. With a single vote per codeword
    there is nothing to sample: R = 1, no rng is read, and stderr is 0.

    By default the conditional law is the paper's, which approximates the
    test-point energies as independent exponentials; `exact` uses the law
    of the correlated probes instead (see `detection_rates`). Both laws
    consume the same vote draws. The points' realizations are stacked,
    and whole points go to one `detection_rates` call, which builds vote
    ell's detector form and the engine's probe tables once, up to
    `_STACK_ROWS` realizations; `cer` then races them with one
    `cdf_diff_exp_sums` call per error direction. Every row's rates and
    race are its own, so no point reads another's.
    """
    columns = [scored_column(U, n) for n in n_plus_values]
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    check_noise_variance(sigma2)
    M = Method.from_name(method).votes_per_codeword(K)
    vote_positions(M, ell)
    if len(rngs) != len(columns):
        raise ValueError(f"need one rng per point: {len(rngs)} rngs for "
                         f"{len(columns)} points")
    if M == 1:
        n_realizations = 1
    elif any(rng is None for rng in rngs):
        raise ValueError("an rng is required when other votes must be sampled")

    # `cer` counts a true tie as an error whatever the detector does, so a
    # tie needs no realization.
    estimates = [CerEstimate(probability=1.0, stderr=0.0)] * len(n_plus_values)
    live = [i for i, n in enumerate(n_plus_values) if 2 * n != U]
    R, shape = n_realizations, (n_realizations, U, M)
    step = max(1, _STACK_ROWS // R)
    for batch in (live[i : i + step] for i in range(0, len(live), step)):
        stacks = []
        for i in batch:
            plus = (rngs[i].integers(0, 2, size=shape) == 1 if M > 1
                    else np.empty(shape, bool))
            plus[:, :, ell] = columns[i]
            stacks.append(pack_votes(plus))
        (plus, minus), x = detection_rates(np.concatenate(stacks), ell, method, K,
                                           pdp_cfg, sigma2, exact)
        n_plus = np.repeat([n_plus_values[i] for i in batch], R)
        probs = cer(n_plus, U - n_plus, plus, minus, x).reshape(-1, R)
        for i, p in zip(batch, probs):
            stderr = np.std(p, ddof=1) / math.sqrt(R) if R > 1 else 0.0
            estimates[i] = CerEstimate(float(np.mean(p)), float(stderr))
    return estimates
