"""Computation-error-rate prediction via characteristic-function inversion.

Conditioned on all votes, the probed values R(z) of the received
polynomial are jointly circular Gaussian (the superposed channel gains and
the noise are), and every detector compares a Hermitian form R^H A R with A
real diagonal. Two laws of that form are offered:

* the paper's model (the default) keeps only the diagonal of the probe
  covariance, i.e. it treats the test-point energies as independent
  exponentials. That is an approximation: every probe sees one shared noise
  sequence and each user's single channel draw, so the energies are
  correlated, most visibly at low SNR;
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

import numpy as np
from scipy.integrate import quad

from .channel import PdpConfig
from .decoding import channel_power, noise_power, signal_scale_uncoded
from .encoding import Method, vote_pattern
from .huffman import RadiusParam, root_phases

__all__ = [
    "IntegrationError",
    "ExpRateSet",
    "CerModel",
    "CerEstimate",
    "cdf_diff_exp_sums",
    "rates_uncoded",
    "rates_coded",
    "detector_sides",
    "probe_covariance",
    "rates_exact",
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


def _inner_matrix(codewords, rp: RadiusParam) -> np.ndarray:
    if isinstance(codewords, np.ndarray):
        inner = codewords.astype(bool)
    else:
        inner = np.stack([cw.inner for cw in codewords])
    if inner.ndim != 2 or inner.shape[1] != rp.K:
        raise ValueError(f"expected a (U, {rp.K}) selection matrix, got {inner.shape}")
    return inner


def _zeros(inner: np.ndarray, rp: RadiusParam) -> np.ndarray:
    return np.where(inner, 1.0 / rp.d, rp.d) * root_phases(rp.K)


def _signal_energy(inner: np.ndarray, rp: RadiusParam, z: complex) -> float:
    """sum_u |P_u(z)|^2 from the zero form; exact zero at encoded zeros."""
    d = rp.d
    zeros = _zeros(inner, rp)
    lead2 = rp.eta * (rp.K + 1) * d ** (
        2 * np.count_nonzero(inner, axis=1) - rp.K
    )
    prods = np.prod(np.abs(z - zeros) ** 2, axis=1)
    return float(np.sum(lead2 * prods))


def _uncoded_probes(model: CerModel) -> list[tuple[float, float, float]]:
    """(radius, count scale, noise energy) of the uncoded detector's two
    probes, at radius d (positive count) and 1/d (negative count)."""
    rp, pdp = model.rp, model.pdp
    return [
        (
            da,
            signal_scale_uncoded(rp, da) * channel_power(da, pdp),
            noise_power(da, model.sigma2, rp.K, pdp.L_e),
        )
        for da in (rp.d, 1.0 / rp.d)
    ]


def rates_uncoded(codewords, ell: int, model: CerModel) -> tuple[ExpRateSet, float]:
    """Exponential rates of the two de-biased count estimates, plus the
    offset x at which their difference-CDF gives the error probability."""
    if model.method is not Method.UNCODED:
        raise ValueError("model is not configured for the uncoded scheme")
    rp = model.rp
    inner = _inner_matrix(codewords, rp)
    w_ell = root_phases(rp.K)[ell]
    means, offsets = [], []
    for da, scale, noise in _uncoded_probes(model):
        signal = _signal_energy(inner, rp, da * w_ell)
        means.append((signal * channel_power(da, model.pdp) + noise) / scale)
        offsets.append(noise / scale)
    x = offsets[0] - offsets[1]
    return ExpRateSet.from_means([means[0]], [means[1]]), x


def rates_coded(codewords, ell: int, model: CerModel) -> ExpRateSet:
    """Exponential rates of the test-point energies for the differential
    and indexed schemes, partitioned into the two detector sides (x = 0)."""
    if model.method is Method.UNCODED:
        raise ValueError("model is not configured for a coded scheme")
    rp = model.rp
    K, d = rp.K, rp.d
    inner = _inner_matrix(codewords, rp)
    fch = channel_power(d, model.pdp)
    fn = noise_power(d, model.sigma2, K, model.pdp.L_e)
    w = root_phases(K)
    plus_slots, minus_slots = detector_sides(model.method, K, ell)

    def mean_at(slot: int) -> float:
        return fch * _signal_energy(inner, rp, d * w[slot]) + fn

    return ExpRateSet.from_means(
        [mean_at(s) for s in plus_slots], [mean_at(s) for s in minus_slots]
    )


def detector_sides(method: Method, K: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Probe slots (at radius d) summed on the plus and the minus side of
    vote ell's metric for a coded scheme: the even/odd pair 2l, 2l+1 for
    differential (`decode_differential`), and the slots with bit l set
    against the rest for indexed (`decode_indexed`)."""
    if method is Method.UNCODED:
        raise ValueError("the uncoded detector has no slot partition")
    if method is Method.DIFFERENTIAL:
        return np.array([2 * ell]), np.array([2 * ell + 1])
    slots = np.arange(K)
    bit = (slots >> ell) & 1
    return slots[bit == 1], slots[bit == 0]


def probe_covariance(codewords, points, model: CerModel) -> np.ndarray:
    """Covariance of the received polynomial at the probe points, given the
    codewords: Sigma = (P^T conj(P)) o C_H + C_W.

    P[u, i] = P_u(z_i) comes from the zero form (exactly zero at an encoded
    zero); C_H[i, j] = sum_l p_l (z_i conj(z_j))^l is the cross-moment of
    one channel draw and C_W[i, j] = sigma2 sum_n (z_i conj(z_j))^n that of
    the K + L_e noise samples. The diagonal holds the expected test-point
    energies of the paper's model.
    """
    rp, pdp = model.rp, model.pdp
    inner = _inner_matrix(codewords, rp)
    z = np.asarray(points, dtype=complex)
    lead = math.sqrt(rp.eta * (rp.K + 1)) * rp.d ** (
        np.count_nonzero(inner, axis=1) - rp.K / 2
    )
    vals = lead[:, np.newaxis] * np.prod(
        z[np.newaxis, np.newaxis, :] - _zeros(inner, rp)[:, :, np.newaxis], axis=1
    )
    cross = z[:, np.newaxis] * z.conj()[np.newaxis, :]
    chan = np.polynomial.polynomial.polyval(cross, pdp.taps)
    noise = model.sigma2 * np.polynomial.polynomial.polyval(
        cross, np.ones(rp.K + pdp.L_e)
    )
    return (vals.T @ vals.conj()) * chan + noise


# Eigenvalues of A Sigma smaller than this fraction of the largest one are
# rounding residue of exactly-zero components (noiseless probes that sit on
# every user's encoded zero) and are dropped.
_EIG_RTOL = 1e-12


def rates_exact(codewords, ell: int, model: CerModel) -> tuple[ExpRateSet, float]:
    """Exact law of the detector metric R^H A R over the correlated probes.

    A is diagonal: the inverse count scales with signs for uncoded (offset x
    as in `rates_uncoded`), +-1 over `detector_sides` for the coded schemes
    (x = 0). With Sigma = L L^H, the metric is a sum of independent
    exponentials weighted by the eigenvalues of L^H A L, which are those of
    A Sigma (Turin 1960); positive ones form the plus side and the negated
    negative ones the minus side.
    """
    rp = model.rp
    w = root_phases(rp.K)
    if model.method is Method.UNCODED:
        (d_p, scale_p, noise_p), (d_m, scale_m, noise_m) = _uncoded_probes(model)
        points = np.array([d_p, d_m]) * w[ell]
        weights = np.array([1.0 / scale_p, -1.0 / scale_m])
        x = noise_p / scale_p - noise_m / scale_m
    else:
        plus, minus = detector_sides(model.method, rp.K, ell)
        points = rp.d * w[np.concatenate([plus, minus])]
        weights = np.concatenate([np.ones(plus.size), -np.ones(minus.size)])
        x = 0.0
    evals, vecs = np.linalg.eigh(probe_covariance(codewords, points, model))
    root = vecs * np.sqrt(np.clip(evals, 0.0, None))
    lam = np.linalg.eigvalsh((root.conj().T * weights) @ root)
    lam = lam[np.abs(lam) > _EIG_RTOL * np.abs(lam).max(initial=0.0)]
    return ExpRateSet.from_means(lam[lam > 0], -lam[lam < 0]), x


def detection_rates(
    codewords, ell: int, model: CerModel, exact: bool = False
) -> tuple[ExpRateSet, float]:
    """Rates and offset x of vote ell's metric: the paper's independence
    model by default, the exact correlated-probe law with `exact`."""
    if exact:
        return rates_exact(codewords, ell, model)
    if model.method is Method.UNCODED:
        return rates_uncoded(codewords, ell, model)
    return rates_coded(codewords, ell, model), 0.0


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
    of the correlated probes instead (`rates_exact`). Both laws consume the
    same vote draws.
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
