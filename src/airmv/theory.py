"""Computation-error-rate prediction via characteristic-function inversion.

Conditioned on all votes, the probed values R(z) of the received
polynomial are jointly circular Gaussian (the superposed channel gains and
the noise are), and every detector compares a Hermitian form R^H A R with A
real diagonal, read off the detector's own linear form
(`airmv.decoding.detector_form`). Both laws of that form below start from
the one probe covariance Sigma (`probe_covariance`):

* the paper's model (the default) keeps only diag(Sigma), i.e. it treats
  the test-point energies as independent exponentials. That is an
  approximation: every probe sees one shared noise sequence and each
  user's single channel draw, so the energies are correlated, most visibly
  at low SNR;
* the exact law (Turin 1960) keeps the full covariance Sigma. The form is
  then a difference of independent exponential sums whose means are the
  eigenvalues of A Sigma.

Either way the CDF of the metric is recovered from the product of
characteristic functions with a one-sided Gil-Pelaez integral, and the
error rate follows by averaging that CDF over realizations of the other
transmitters' votes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .channel import PdpConfig
from .decoding import DecoderContext, DetectorForm, detector_form, powers
from .encoding import Method, vote_pattern
from .huffman import RadiusParam, zero_form_eval

__all__ = [
    "IntegrationError",
    "ExpRateSet",
    "CerModel",
    "CerEstimate",
    "cdf_diff_exp_sums",
    "probe_covariance",
    "detection_rates",
    "cer",
    "vote_averaged_cer",
]


class IntegrationError(RuntimeError):
    """Raised when the CDF quadrature cannot meet its accuracy target."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class ExpRateSet:
    """Exponential rates of the two sums A and B entering P(A - B < x).

    Rates are inverse means. An infinite rate marks a degenerate component
    concentrated at zero (a noiseless side with no signal term); it
    contributes a unit factor to the characteristic function.
    """

    rates_plus: tuple[float, ...]
    rates_minus: tuple[float, ...]

    def __post_init__(self) -> None:
        for rates in (self.rates_plus, self.rates_minus):
            if any(not (r > 0.0) or math.isnan(r) for r in rates):
                raise ValueError("all rates must be strictly positive")

    @classmethod
    def from_means(cls, means_plus, means_minus) -> "ExpRateSet":
        def invert(means):
            out = []
            for m in means:
                if m < 0:
                    raise ValueError("means must be nonnegative")
                out.append(math.inf if m == 0.0 else 1.0 / m)
            return tuple(out)

        return cls(invert(means_plus), invert(means_minus))


def cdf_diff_exp_sums(rates: ExpRateSet, x: float, tol: float = 1e-6) -> float:
    """CDF of A - B at x, A and B independent sums of exponentials.

    Evaluates the one-sided real form of the inversion integral,
    F(x) = 1/2 - (1/pi) I[ Im(Phi_A(t) conj(Phi_B(t)) e^{-jtx}) / t ; 0..inf ],
    with the integration variable rescaled by the largest mean. The
    integrand is finite at t = 0 and the product form is integrated
    directly, so coincident rates need no special handling. For an
    appreciable offset x the oscillatory tail is handed to Fourier-weight
    quadrature, which keeps single-rate sides (1/t^2 tails) accurate.
    """
    means_a = np.array([1.0 / r for r in rates.rates_plus if math.isfinite(r)])
    means_b = np.array([1.0 / r for r in rates.rates_minus if math.isfinite(r)])
    if means_a.size == 0 and means_b.size == 0:
        return 1.0 if x > 0 else (0.0 if x < 0 else 0.5)

    scale = max(means_a.max(initial=0.0), means_b.max(initial=0.0), abs(x))
    a = means_a / scale
    b = means_b / scale
    x0 = x / scale
    drift = float(a.sum() - b.sum() - x0)

    def phi(t: float) -> complex:
        return complex(
            np.prod(1.0 / (1.0 - 1j * t * a)) * np.prod(1.0 / (1.0 + 1j * t * b))
        )

    def integrand(t: float) -> float:
        if t == 0.0:
            return drift
        return (phi(t) * complex(math.cos(t * x0), -math.sin(t * x0))).imag / t

    eps = dict(epsabs=tol / 50.0, epsrel=1e-11)
    if abs(x0) < 1e-4:
        res = quad(integrand, 0.0, np.inf, limit=800, full_output=True, **eps)
        val, abserr = res[0], res[1]
    else:
        cut = 50.0
        head, err_h = quad(integrand, 0.0, cut, limit=400, **eps)
        w = abs(x0)
        sgn = 1.0 if x0 >= 0 else -1.0
        res_c = quad(lambda t: phi(t).imag / t, cut, np.inf, weight="cos",
                     wvar=w, limit=400, full_output=True, **eps)
        res_s = quad(lambda t: phi(t).real / t, cut, np.inf, weight="sin",
                     wvar=w, limit=400, full_output=True, **eps)
        val = head + res_c[0] - sgn * res_s[0]
        abserr = err_h + res_c[1] + res_s[1]
    if abserr / math.pi > tol:
        raise IntegrationError("CDF quadrature did not converge", abserr / math.pi)
    return min(1.0, max(0.0, 0.5 - val / math.pi))


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


def probe_covariance(codewords, points, model: CerModel) -> np.ndarray:
    """Covariance of the received polynomial at the probe points, given the
    (U, K) radius selections `codewords`: Sigma = (P^T conj(P)) o C_H + C_W.

    P[u, i] = P_u(z_i) comes from the zero form (`zero_form_eval`, exactly
    zero at an encoded zero); C_H[i, j] = sum_l p_l (z_i conj(z_j))^l is the cross-moment of
    one channel draw and C_W[i, j] = sigma2 sum_n (z_i conj(z_j))^n that of
    the K + L_e noise samples. The diagonal holds the expected test-point
    energies of the paper's model.
    """
    rp, pdp = model.rp, model.pdp
    inner = np.asarray(codewords, dtype=bool)
    if inner.ndim != 2 or inner.shape[1] != rp.K:
        raise ValueError(f"expected a (U, {rp.K}) selection matrix, got {inner.shape}")
    z = np.asarray(points, dtype=complex)
    vals = zero_form_eval(inner, rp, z)
    v = powers(z, rp.K + pdp.L_e)  # v[n, i] = z_i^n
    chan = (v[: pdp.L_e].T * pdp.taps) @ v[: pdp.L_e].conj()
    noise = model.sigma2 * (v.T @ v.conj())
    return (vals.T @ vals.conj()) * chan + noise


# Eigenvalues of A Sigma smaller than this fraction of the largest one are
# rounding residue of exactly-zero components (noiseless probes that sit on
# every user's encoded zero) and are dropped.
_EIG_RTOL = 1e-12


@lru_cache(maxsize=None)
def _form(model: CerModel, ell: int) -> DetectorForm:
    """Vote ell's detector form; every realization of a point reads it."""
    ctx = DecoderContext.for_link(model.method, model.rp, model.pdp, model.sigma2)
    return detector_form(ctx, [ell])


def detection_rates(
    codewords, ell: int, model: CerModel, exact: bool = False
) -> tuple[ExpRateSet, float]:
    """Rates of vote ell's metric R^H A R and the offset x at which its CDF
    gives P(decision < 0).

    The detector form of vote ell gives the probe points and A = S / s
    (signed inverse scales: +-1 for the coded schemes, the inverse count
    scales for uncoded), and x = sum_p A_p b_p (zero for the coded schemes).
    The paper's independence model takes the means A_pp Sigma_pp, split into
    the two sides by the sign of A. With `exact`, Sigma = L L^H and the
    metric is a sum of independent exponentials weighted by the eigenvalues
    of L^H A L, which are those of A Sigma (Turin 1960); positive ones form
    the plus side and the negated negative ones the minus side.
    """
    form = _form(model, ell)
    weights = form.signs[:, 0] / form.scale
    x = float(np.dot(weights, form.bias))
    sigma = probe_covariance(codewords, form.points, model)
    if not exact:
        means = weights * sigma.diagonal().real
        return ExpRateSet.from_means(means[weights > 0], -means[weights < 0]), x
    evals, vecs = np.linalg.eigh(sigma)
    root = vecs * np.sqrt(np.clip(evals, 0.0, None))
    lam = np.linalg.eigvalsh((root.conj().T * weights) @ root)
    lam = lam[np.abs(lam) > _EIG_RTOL * np.abs(lam).max(initial=0.0)]
    return ExpRateSet.from_means(lam[lam > 0], -lam[lam < 0]), x


def cer(n_plus: int, n_minus: int, prob_negative: float) -> float:
    """Computation-error rate from P(metric difference < 0).

    An exact tie in the true votes counts as an error outright.
    """
    if n_plus < 0 or n_minus < 0:
        raise ValueError("vote counts must be nonnegative")
    if n_plus > n_minus:
        return prob_negative
    if n_plus < n_minus:
        return 1.0 - prob_negative
    return 1.0


@dataclass(frozen=True)
class CerEstimate:
    """Vote-averaged error-rate prediction with its sampling standard error."""

    probability: float
    stderr: float
    method: Method
    K: int
    U: int
    n_plus: int
    n_minus: int
    L_e: int
    rho: float
    sigma2: float


def vote_averaged_cer(
    n_plus: int,
    n_minus: int,
    model: CerModel,
    n_realizations: int = 100,
    rng: np.random.Generator | None = None,
    ell: int = 0,
    tol: float = 1e-6,
    exact: bool = False,
) -> CerEstimate:
    """Average the conditional error CDF over the other transmitters' votes.

    The probed vote column is fixed to n_plus ones followed by n_minus
    minus-ones; all remaining vote entries are drawn equiprobably. With a
    single vote per codeword there is nothing to sample and the result is
    deterministic (stderr 0).

    By default the conditional CDF is the paper's, which approximates the
    test-point energies as independent exponentials; `exact` uses the law
    of the correlated probes instead (see `detection_rates`). Both laws
    consume the same vote draws.
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    U = n_plus + n_minus
    if U < 1:
        raise ValueError("need at least one transmitter")
    M = model.method.votes_per_codeword(model.rp.K)
    if not 0 <= ell < M:
        raise ValueError(f"vote position {ell} out of range for M={M}")
    fixed = np.concatenate([np.ones(n_plus, int), -np.ones(n_minus, int)])

    if M == 1:
        n_realizations = 1
    elif rng is None:
        raise ValueError("an rng is required when other votes must be sampled")
    meta = dict(
        method=model.method,
        K=model.rp.K,
        U=U,
        n_plus=n_plus,
        n_minus=n_minus,
        L_e=model.pdp.L_e,
        rho=model.pdp.rho,
        sigma2=model.sigma2,
    )
    if n_plus == n_minus:
        # `cer` counts a true tie as an error whatever the detector does,
        # so no realization needs its quadrature.
        return CerEstimate(probability=1.0, stderr=0.0, **meta)

    probs = np.empty(n_realizations)
    for r in range(n_realizations):
        if M == 1:
            votes = fixed[:, np.newaxis]
        else:
            votes = rng.integers(0, 2, size=(U, M)) * 2 - 1
            votes[:, ell] = fixed
        inner = vote_pattern(model.method, votes)
        rates, x = detection_rates(inner, ell, model, exact=exact)
        probs[r] = cdf_diff_exp_sums(rates, x, tol=tol)

    mean_p = float(np.mean(probs))
    stderr = (
        float(np.std(probs, ddof=1) / math.sqrt(n_realizations))
        if n_realizations > 1
        else 0.0
    )
    return CerEstimate(probability=cer(n_plus, n_minus, mean_p), stderr=stderr, **meta)
