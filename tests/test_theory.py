import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from airmv.channel import PdpConfig
from airmv.decoding import (
    DecoderContext,
    channel_power,
    detector_form,
    noise_power,
    powers,
    probe_moments,
    signal_scale_uncoded,
)
from airmv.aggregation import pack_votes
from airmv.encoding import Method, vote_pattern
from airmv import theory
from airmv.huffman import (
    poly_eval,
    radius_param,
    root_phases,
    synthesize_coeffs,
    zero_form_eval,
)
from airmv.theory import (
    _survival,
    cdf_diff_exp_sums,
    cer,
    detection_rates,
    vote_averaged_cers,
)


def closed_form_single(a, b, x):
    """P(A - B <= x) for independent exponentials with rates a, b."""
    if x >= 0:
        return 1.0 - b / (a + b) * math.exp(-a * x)
    return a / (a + b) * math.exp(b * x)


class Rates(NamedTuple):
    """One realization's plus and minus rates, as tuples."""

    rates_plus: tuple
    rates_minus: tuple


def from_means(means_plus, means_minus):
    """`Rates` from the two sides' means, through the package's one
    validation, `_inverse` (a zero mean is an infinite rate)."""
    return Rates(tuple(theory._inverse(means_plus).tolist()),
                 tuple(theory._inverse(means_minus).tolist()))


def cdf(rates, x):
    """`cdf_diff_exp_sums` of one realization's `Rates`."""
    plus, minus = (np.array(side, dtype=float).reshape(1, -1) for side in rates)
    return float(cdf_diff_exp_sums(plus, minus, x)[0])


def gil_pelaez_cdf(rates, x):
    """Independent oracle for `cdf_diff_exp_sums`: the one-sided real
    Gil-Pelaez integral
    F(x) = 1/2 - (1/pi) I[ Im(Phi_A(t) conj(Phi_B(t)) e^{-jtx}) / t ; 0..inf ]
    by adaptive quadrature, with t rescaled by the largest mean. For an
    appreciable offset x the oscillatory tail goes to Fourier-weight
    quadrature, which keeps single-rate sides (1/t^2 tails) accurate."""
    means_a = np.array([1.0 / r for r in rates.rates_plus if math.isfinite(r)])
    means_b = np.array([1.0 / r for r in rates.rates_minus if math.isfinite(r)])
    if means_a.size == 0 and means_b.size == 0:
        return 1.0 if x > 0 else (0.0 if x < 0 else 0.5)

    scale = max(means_a.max(initial=0.0), means_b.max(initial=0.0), abs(x))
    a = means_a / scale
    b = means_b / scale
    x0 = x / scale
    drift = float(a.sum() - b.sum() - x0)

    def phi(t):
        return complex(
            np.prod(1.0 / (1.0 - 1j * t * a)) * np.prod(1.0 / (1.0 + 1j * t * b))
        )

    def integrand(t):
        if t == 0.0:
            return drift
        return (phi(t) * complex(math.cos(t * x0), -math.sin(t * x0))).imag / t

    tol = 1e-6
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
    assert abserr / math.pi <= tol, f"oracle quadrature residual {abserr / math.pi:.3e}"
    return min(1.0, max(0.0, 0.5 - val / math.pi))


class TestCdfDiffExpSums:
    def test_symmetric_pair(self):
        rates = Rates((2.5,), (2.5,))
        assert cdf(rates, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_single_pair_closed_form(self):
        assert cdf(Rates((1.0,), (3.0,)), 0.0) == pytest.approx(
            0.25, abs=1e-9
        )

    def test_random_single_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(0.05, 20.0, size=2)
            x = rng.uniform(-2.0, 2.0) / min(a, b)
            got = cdf(Rates((a,), (b,)), x)
            assert got == pytest.approx(closed_form_single(a, b, x), abs=1e-6)

    def test_multi_rate_against_sampling(self):
        rng = np.random.default_rng(1)
        means_a = (0.7, 2.0)
        means_b = (1.1, 0.4)
        n = 2_000_000
        A = sum(rng.exponential(m, n) for m in means_a)
        B = sum(rng.exponential(m, n) for m in means_b)
        rates = from_means(means_a, means_b)
        for x in (-0.5, 0.0, 1.5):
            emp = float(np.mean(A - B <= x))
            se = math.sqrt(emp * (1 - emp) / n)
            assert abs(cdf(rates, x) - emp) < 3 * se

    def test_coincident_rates(self):
        # repeated poles on both sides; compare against sampling
        rng = np.random.default_rng(2)
        n = 1_000_000
        A = rng.exponential(1.0, (4, n)).sum(axis=0)
        B = rng.exponential(1.0, (4, n)).sum(axis=0)
        rates = Rates((1.0,) * 4, (1.0,) * 4)
        assert cdf(rates, 0.0) == pytest.approx(0.5, abs=1e-9)
        emp = float(np.mean(A - B <= 2.0))
        se = math.sqrt(emp * (1 - emp) / n)
        assert abs(cdf(rates, 2.0) - emp) < 3 * se

    def test_degenerate_sides(self):
        nothing = Rates((), ())
        assert cdf(nothing, -1.0) == 0.0
        assert cdf(nothing, 1.0) == 1.0
        only_b = Rates((), (2.0,))
        assert cdf(only_b, -0.3) == pytest.approx(
            math.exp(2.0 * -0.3), abs=1e-8
        )
        assert cdf(only_b, 0.25) == pytest.approx(1.0, abs=1e-8)
        # infinite rate == degenerate component at zero
        with_inf = Rates((math.inf,), (2.0,))
        assert cdf(with_inf, -0.3) == pytest.approx(
            math.exp(2.0 * -0.3), abs=1e-8
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_nondecreasing_in_x(self, seed):
        rng = np.random.default_rng(seed)
        na, nb = rng.integers(1, 5, size=2)
        rates = Rates(
            tuple(rng.uniform(0.1, 5.0, na)), tuple(rng.uniform(0.1, 5.0, nb))
        )
        xs = np.linspace(-4.0, 4.0, 21)
        vals = [cdf(rates, float(x)) for x in xs]
        assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_rejects_nonpositive_rates(self):
        """Rates come from means through `_inverse`, the one validation: an
        infinite mean (rate 0) or a negative one is rejected."""
        with pytest.raises(ValueError):
            from_means([math.inf], [1.0])
        with pytest.raises(ValueError):
            from_means([-1.0], [1.0])


class TestPhaseRace:
    """The exact race law against closed forms and the quadrature oracle."""

    @pytest.mark.parametrize("n, m", [(3, 5), (4, 4), (16, 16), (1, 7)])
    def test_erlang_against_erlang_at_zero(self, n, m):
        """P(A < B) for Erlang(n, lam) against Erlang(m, mu): the first n of
        the merged phase endings belong to A before m belong to B, so it is
        sum_{k<m} C(n-1+k, k) p^n q^k with p = lam / (lam + mu)."""
        for lam, mu in ((1.3, 0.7), (2.0, 2.0), (0.05, 9.0)):
            p, q = lam / (lam + mu), mu / (lam + mu)
            expected = sum(math.comb(n - 1 + k, k) * p**n * q**k for k in range(m))
            got = cdf(Rates((lam,) * n, (mu,) * m), 0.0)
            assert got == pytest.approx(expected, rel=0, abs=1e-12)

    def test_erlang_against_exponential_deep_tail(self):
        """P(A < B) for Erlang(n, lam) against one Exp(mu) is (lam / (lam +
        mu))^n: all n phases of A end before B's one. Read off its own tail,
        it keeps its relative precision down to 1e-25; as 1 - P(A > B) it
        would round to 0 there."""
        for n, lam, mu in ((1, 1.0, 3.0), (4, 1.0, 100.0), (4, 2.5, 1e4),
                           (8, 1.0, 1000.0), (16, 0.3, 9.0), (24, 1.0, 9.0)):
            expected = (lam / (lam + mu)) ** n
            assert 1e-25 < expected
            got = cdf(Rates((lam,) * n, (mu,)), 0.0)
            assert got == pytest.approx(expected, rel=1e-10, abs=0), (n, lam, mu)

    def test_matches_gil_pelaez_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            na, nb = rng.integers(0, 6, size=2)
            rates = Rates(tuple(10.0 ** rng.uniform(-1, 1, na)),
                          tuple(10.0 ** rng.uniform(-1, 1, nb)))
            x = float(rng.uniform(-4.0, 4.0))
            assert cdf(rates, x) == pytest.approx(
                gil_pelaez_cdf(rates, x), rel=0, abs=1e-8
            ), (rates, x)

    def test_single_pair_over_twelve_decades(self):
        for a, b in ((1e-6, 1e6), (1e6, 1e-6)):
            rates = Rates((a,), (b,))
            for x in (-1e3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1.0, 1e6):
                assert cdf(rates, x) == pytest.approx(
                    closed_form_single(a, b, x), rel=0, abs=1e-12
                ), (a, b, x)

    def test_spread_rates_stay_a_distribution(self):
        rates = Rates((1e-6, 1.0, 1e6), (1e-3, 1e6))
        xs = np.concatenate([-np.logspace(8, -9, 35), [0.0], np.logspace(-9, 8, 35)])
        vals = [cdf(rates, float(x)) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestSurvival:
    """exp(Q t) 1 for the bidiagonal phase generator, computed in numpy,
    against closed forms and scipy's general matrix exponential."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_erlang_survival(self, n):
        """Coincident rates: from phase i, n - i phases of rate lam remain,
        so entry i is the Erlang survival sum_{k<n-i} e^{-lam t} (lam t)^k / k!."""
        for lam, t in itertools.product((0.3, 1.0, 7.0), (0.01, 0.5, 2.0, 10.0, 40.0)):
            x = lam * t
            expected = [
                sum(math.exp(-x) * x**k / math.factorial(k) for k in range(n - i))
                for i in range(n)
            ]
            got = _survival(np.full(n, lam), t)
            assert got == pytest.approx(expected, rel=0, abs=1e-14), (lam, t)

    @pytest.mark.parametrize("lam", [(0.5, 3.0), (4.0, 0.2), (1.0, 1.0 + 1e-3),
                                     (0.3, 2.0, 11.0), (9.0, 0.1, 1.5, 0.6)])
    def test_hypoexponential_survival(self, lam):
        """Distinct rates: the survival of a sum of exponentials is
        sum_i e^{-lam_i t} prod_{j != i} lam_j / (lam_j - lam_i)."""
        def survival(rates, t):
            return sum(
                math.exp(-a * t) * math.prod(b / (b - a) for b in rates if b != a)
                for a in rates
            )

        for t in (1e-3, 0.1, 1.0, 5.0, 30.0):
            expected = [survival(lam[i:], t) for i in range(len(lam))]
            got = _survival(np.array(lam), t)
            assert got == pytest.approx(expected, rel=0, abs=1e-12), t

    def test_rates_over_twelve_decades_stay_a_survival(self):
        """Finite, in [0, 1] and nonincreasing in t to rounding: near 1 a
        row sum rounds either way by an ulp or two."""
        rng = np.random.default_rng(16)
        ts = np.logspace(-9, 8, 52)
        for _ in range(40):
            lam = 10.0 ** rng.uniform(-6, 6, int(rng.integers(1, 9)))
            vals = np.array([_survival(lam, float(t)) for t in ts])
            assert np.isfinite(vals).all(), lam
            assert ((vals >= 0.0) & (vals <= 1.0)).all(), lam
            assert (np.diff(vals, axis=0) <= 1e-15).all(), lam
        # a fast phase next to slow ones: the chain outlasts t exactly when
        # the slow phases do, to within the fast phase's mean 1e-6
        lam = np.array([1e6, 1e-6, 1e-6])
        for t in (1e2, 1e6, 1e8):
            x = 1e-6 * t
            assert _survival(lam, t)[0] == pytest.approx(
                math.exp(-x) * (1.0 + x), rel=1e-5, abs=1e-300
            )

    def test_one_phase_is_exp(self):
        rng = np.random.default_rng(17)
        for lam, t in zip(10.0 ** rng.uniform(-6, 6, 500), 10.0 ** rng.uniform(-9, 8, 500)):
            rate = np.array([lam])
            assert _survival(rate, t)[0] == np.exp(-rate * t)[0], (lam, t)

    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(18)
        for _ in range(500):
            n = int(rng.integers(1, 13))
            lam = 10.0 ** rng.uniform(-1, 1, n)
            if rng.random() < 0.3:
                lam[: n // 2] = lam[0]
            t = float(10.0 ** rng.uniform(-2, 1))
            q = np.diag(-lam) + np.diag(lam[:-1], 1)
            assert _survival(lam, t) == pytest.approx(
                expm(q * t).sum(axis=1), rel=0, abs=1e-12
            ), (lam, t)


def scalar_race(first, second):
    """The phase race of one pair of chains over Python floats, one cell at
    a time: the reference the stacked `_race` must match bit for bit."""
    column = [1.0] + [0.0] * (len(first) - 1) if first else []
    for mu in second:
        visit = 0.0
        for i, lam in enumerate(first):
            visit += column[i]
            column[i] = visit * mu / (lam + mu)
            visit *= lam / (lam + mu)
    return column


def scalar_exceeds(first, second, t):
    """P(first > second + t) for one pair of chains as Python lists: the
    reference race, then the chain's survival after t."""
    pi = np.array(scalar_race(first, second))
    if t == 0.0 or pi.size == 0:
        return float(pi.sum())
    return float(pi @ _survival(np.array(first), t))


def spread_rates(rng, shape):
    """Rates over twelve decades, some of them repeated within a row."""
    rates = 10.0 ** rng.uniform(-6, 6, shape)
    repeat = rng.random(shape) < 0.2
    rates[repeat] = np.broadcast_to(rates[..., :1], shape)[repeat]
    return rates


class TestStackedRace:
    """The race and the CDF over a stack of chains equal, bit for bit, the
    same computation one chain at a time."""

    @pytest.mark.parametrize("n1, n2", [(0, 0), (0, 3), (3, 0), (1, 1), (1, 40),
                                        (40, 1), (2, 7), (17, 5), (40, 40)])
    def test_race_matches_the_scalar_reference(self, n1, n2):
        rng = np.random.default_rng(100 * n1 + n2)
        first, second = spread_rates(rng, (6, n1)), spread_rates(rng, (6, n2))
        pi = theory._race(first, second)
        assert pi.shape == (6, n1)
        for r in range(6):
            want = scalar_race(first[r].tolist(), second[r].tolist())
            assert np.array_equal(pi[r], want), (n1, n2, r)

    def test_mixed_lengths_race_on_their_finite_rates(self):
        """Rows of one stack with 0 to 40 finite rates a side (inf marks a
        phase of length zero) give what each row's finite rates give alone
        through the reference race and the per-chain survival, at x = 0 and
        away from it (so chains longer than two phases reach the series and
        the squares). At x = 0 that is the race's own P(B > A), not a
        complement."""
        rng = np.random.default_rng(19)
        plus, minus = spread_rates(rng, (60, 40)), spread_rates(rng, (60, 40))
        for rates in (plus, minus):
            keep = rng.integers(0, 41, size=(60, 1))
            rates[rng.random((60, 40)).argsort(axis=1) >= keep] = math.inf
        assert ((np.isfinite(plus).sum(axis=1) > 2) & (np.isfinite(minus).sum(axis=1) > 2)).any()
        for x in (0.0, 3e-4, -3e-4, 2.5, -1e4):
            got = cdf_diff_exp_sums(plus, minus, x)
            for r in range(60):
                a = plus[r][np.isfinite(plus[r])].tolist()
                b = minus[r][np.isfinite(minus[r])].tolist()
                if not a and not b:
                    f = 1.0 if x > 0 else (0.0 if x < 0 else 0.5)
                elif x > 0:
                    f = 1.0 - scalar_exceeds(a, b, x)
                else:
                    f = scalar_exceeds(b, a, -x)
                assert got[r] == min(1.0, max(0.0, f)), (x, r)

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 4), (2, 1), (3, 3), (9, 2)])
    def test_tails_match_the_scalar_reference(self, n1, n2):
        """Away from t = 0 each row of a stack of chains outlasts t as its
        chain does alone, for one phase (uncoded's shape) and longer."""
        rng = np.random.default_rng(10 * n1 + n2)
        first, second = spread_rates(rng, (30, n1)), spread_rates(rng, (30, n2))
        for t in (1e-7, 0.3, 40.0, 1e5):
            got = theory._exceeds(first, second, t)
            for r in range(30):
                want = scalar_exceeds(first[r].tolist(), second[r].tolist(), t)
                assert got[r] == want, (t, r)


class TestCer:
    """Per-realization error rates from the rates of A - B and the offset x
    (two realizations: one phase a side, and 1 + 2 phases at x = 0.3)."""

    PLUS = np.array([[1.0, math.inf], [1.0, 2.0]])
    MINUS = np.array([[3.0], [0.5]])

    def test_tie_is_certain_error(self):
        assert np.array_equal(cer(3, 3, self.PLUS, self.MINUS, 0.3), [1.0, 1.0])

    def test_majority_positive(self):
        """The error is A - B < x."""
        got = cer(5, 0, self.PLUS, self.MINUS, 0.0)
        assert np.array_equal(got, cdf_diff_exp_sums(self.PLUS, self.MINUS, 0.0))
        assert got[0] == pytest.approx(0.25, rel=1e-15)

    def test_majority_negative(self):
        """The error is A - B > x, i.e. B - A < -x."""
        for x in (0.0, 0.3, -0.3):
            got = cer(0, 5, self.PLUS, self.MINUS, x)
            assert np.array_equal(got, cdf_diff_exp_sums(self.MINUS, self.PLUS, -x))
            assert got == pytest.approx(1.0 - cdf_diff_exp_sums(self.PLUS, self.MINUS, x),
                                        rel=1e-12)
        assert cer(0, 5, self.PLUS, self.MINUS, 0.0)[0] == pytest.approx(0.75, rel=1e-15)


class Link(NamedTuple):
    """The link arguments that `simulate_cer`, `detection_rates` and
    `vote_averaged_cers` take, with the codebook the detector reads."""

    method: Method
    K: int
    pdp: PdpConfig
    sigma2: float

    @property
    def rp(self):
        return radius_param(self.K)


def make_link(method, K, L_e=1, rho=1.0, sigma2=0.1):
    return Link(method, K, PdpConfig(L_e, rho), sigma2)


def encode_matrix(method, votes, rp):
    return vote_pattern(method, np.asarray(votes))


def pack(votes):
    """The packed votes `detection_rates` takes, of +/-1 votes."""
    return pack_votes(np.asarray(votes) > 0)


def rate_sets(votes, ell, link, exact=False):
    """`detection_rates` as `Rates`: one for a (U, M) vote matrix, a list of
    R for an (R, U, M) stack. The exact law's sets keep only the finite
    rates, not the padding of its P-wide sides."""
    votes = np.asarray(votes)
    stack = votes if votes.ndim == 3 else votes[np.newaxis]
    (plus, minus), x = detection_rates(pack(stack), ell, *link, exact)
    if exact:
        plus = [row[np.isfinite(row)] for row in plus]
        minus = [row[np.isfinite(row)] for row in minus]
    sets = [Rates(tuple(p.tolist()), tuple(m.tolist()))
            for p, m in zip(plus, minus)]
    return (sets if votes.ndim == 3 else sets[0]), x


class TestRates:
    def test_uncoded_noiseless_unanimous_negative(self):
        """Every polynomial vanishes at the radius-d probe: no signal term."""
        link = make_link(Method.UNCODED, 4, sigma2=0.0)
        votes = -np.ones((3, 4), dtype=int)
        rates, x = rate_sets(votes, 0, link)
        assert rates.rates_plus == (math.inf,)  # degenerate: exact zero mean
        assert x == 0.0

    def test_uncoded_single_user_mean(self):
        link = make_link(Method.UNCODED, 4, L_e=2, rho=0.6, sigma2=0.2)
        rp = link.rp
        votes = np.array([[1, -1, 1, -1]])
        inner = encode_matrix(Method.UNCODED, votes, rp)
        rates, x = rate_sets(votes, 0, link)
        p_val = abs(poly_eval(synthesize_coeffs(inner[0], rp), rp.d)) ** 2
        g = signal_scale_uncoded(rp, rp.d)
        fch = channel_power(rp.d, link.pdp)
        fn = noise_power(rp.d, link.sigma2, rp.K, link.pdp.L_e)
        expected_mean = p_val / g + fn / (g * fch)
        assert 1.0 / rates.rates_plus[0] == pytest.approx(expected_mean, rel=1e-8)

    def test_rates_strictly_positive_with_noise(self):
        rng = np.random.default_rng(4)
        link = make_link(Method.UNCODED, 8, L_e=3, rho=0.9, sigma2=0.05)
        for _ in range(20):
            votes = rng.integers(0, 2, size=(5, 8)) * 2 - 1
            rates, _ = rate_sets(votes, 0, link)
            assert all(map(math.isfinite, rates.rates_plus + rates.rates_minus))

    def test_coded_single_user_single_signal_slot(self):
        link = make_link(Method.INDEXED, 8, sigma2=0.0)
        votes = np.array([[1, -1, 1]])  # index 5
        rates, _ = rate_sets(votes, 0, link)
        finite_plus = [r for r in rates.rates_plus if math.isfinite(r)]
        # only slot 5 carries signal; it sits on the bit-0 = 1 side
        assert len(finite_plus) == 1
        assert all(math.isinf(r) for r in rates.rates_minus)

    def test_indexed_k2_reduces_to_differential(self):
        """The K=2 rate pair matches the even/odd pair up to side swap."""
        rng = np.random.default_rng(5)
        votes = rng.integers(0, 2, size=(4, 1)) * 2 - 1
        link_d = make_link(Method.DIFFERENTIAL, 2, sigma2=0.3)
        link_i = make_link(Method.INDEXED, 2, sigma2=0.3)
        rd, _ = rate_sets(votes, 0, link_d)
        ri, _ = rate_sets(-votes, 0, link_i)
        assert rd.rates_plus == pytest.approx(ri.rates_minus, rel=1e-12)
        assert rd.rates_minus == pytest.approx(ri.rates_plus, rel=1e-12)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("method", list(Method))
    def test_stack_equals_per_matrix_calls(self, method, exact):
        """One call on an (R, U, M) stack gives bit for bit the rates and the
        offset of R calls on its (U, M) matrices (indexed K=8 has P=8
        probes; vote ell=1 is not the first)."""
        link = make_link(method, 8, L_e=3, rho=0.7, sigma2=0.3)
        rng = np.random.default_rng(15)
        votes = rng.integers(0, 2, size=(6, 5, method.votes_per_codeword(8))) * 2 - 1
        rates, x = rate_sets(votes, 1, link, exact)
        assert isinstance(rates, list) and len(rates) == 6
        for r, matrix in enumerate(votes):
            one, x_one = rate_sets(matrix, 1, link, exact)
            assert isinstance(one, Rates)
            assert rates[r] == one and x == x_one

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("method", list(Method))
    def test_tables_built_once_per_call(self, monkeypatch, method, exact):
        """One `detection_rates` call builds the engine's tables once, at
        vote ell's probes, and reads the signal of the whole (R, U, M) stack
        from them in one `signal_power` call."""
        link = make_link(method, 8, L_e=3, rho=0.7, sigma2=0.3)
        rng = np.random.default_rng(16)
        votes = rng.integers(0, 2, size=(12, 5, method.votes_per_codeword(8))) * 2 - 1
        built, read = [], []
        probe_tables, signal_power = theory.probe_tables, theory.signal_power

        def built_tables(method, rp, points):
            built.append(points)
            return probe_tables(method, rp, points)

        def read_power(method, tables, votes):
            read.append(np.shape(votes))
            return signal_power(method, tables, votes)

        monkeypatch.setattr(theory, "probe_tables", built_tables)
        monkeypatch.setattr(theory, "signal_power", read_power)
        rate_sets(votes, 1, link, exact)
        ctx = DecoderContext.for_link(*link)
        assert len(built) == 1
        np.testing.assert_array_equal(built[0], detector_form(ctx, [1]).points)
        assert read == [pack(votes).shape]

    @staticmethod
    def outer_product_rates(inner, ell, link, exact):
        """Rates of one (U, K) matrix from the full probe covariance Sigma =
        (P^T conj(P)) o C_H + C_W, asserting that P^T conj(P) is exactly
        diagonal: the premise of `detection_rates`' diagonal signal term."""
        ctx = DecoderContext.for_link(*link)
        form = detector_form(ctx, [ell])
        weights = form.signs[:, 0] / form.scale
        taps = powers(form.points, link.pdp.L_e)  # taps[l, p] = z_p^l
        chan = (taps.T * link.pdp.taps) @ taps.conj()
        noise = probe_moments(form.points, link.rp.K, link.pdp, link.sigma2)
        p = zero_form_eval(inner, link.rp, form.points)
        outer = p.T @ p.conj()
        assert np.all(outer[~np.eye(outer.shape[0], dtype=bool)] == 0)
        sigma = outer * chan + noise
        if not exact:
            means = weights * sigma.diagonal().real
            return from_means(means[weights > 0], -means[weights < 0])
        evals, vecs = np.linalg.eigh(sigma)
        root = vecs * np.sqrt(np.clip(evals, 0.0, None))
        lam = np.linalg.eigvalsh((root.conj().T * weights) @ root)
        lam = lam[np.abs(lam) > 1e-12 * np.abs(lam).max(initial=0.0)]
        return from_means(lam[lam > 0], -lam[lam < 0])

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("method", list(Method))
    def test_matches_the_outer_product_oracle(self, method, exact):
        """The stacked diagonal signal term gives the rates of the full
        outer-product covariance, to 1e-13 relative, at K = 2, 8 and 32 and
        at the first and last vote."""
        for K in (2, 8, 32):
            link = make_link(method, K, L_e=3, rho=0.7, sigma2=0.3)
            M = method.votes_per_codeword(K)
            rng = np.random.default_rng(K)
            votes = rng.integers(0, 2, size=(6, 5, M)) * 2 - 1
            for ell in sorted({0, M - 1}):
                rates, _ = rate_sets(votes, ell, link, exact)
                for got, inner in zip(rates, vote_pattern(method, votes)):
                    want = self.outer_product_rates(inner, ell, link, exact)
                    for a, b in ((got.rates_plus, want.rates_plus),
                                 (got.rates_minus, want.rates_minus)):
                        np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)

    def test_complement_symmetry(self):
        """Swapping N+ and N- with complementary votes mirrors the CDF."""
        link = make_link(Method.DIFFERENTIAL, 4, sigma2=0.2)
        rng = np.random.default_rng(6)
        votes = rng.integers(0, 2, size=(5, 2)) * 2 - 1
        p = cdf(*rate_sets(votes, 0, link))
        q = cdf(*rate_sets(-votes, 0, link))
        assert p == pytest.approx(1.0 - q, abs=1e-6)


class TestVoteAveragedCer:
    """`vote_averaged_cers` at a single point: a group of one."""

    def test_single_vote_is_deterministic(self):
        link = make_link(Method.INDEXED, 2, sigma2=0.1)
        for exact in (False, True):
            est, = vote_averaged_cers(link.method, link.K, 5, [3], link.pdp, link.sigma2,
                                      [None], n_realizations=50, exact=exact)
            assert est.stderr == 0.0
            est2, = vote_averaged_cers(link.method, link.K, 5, [3], link.pdp, link.sigma2,
                                       [None], n_realizations=1, exact=exact)
            assert est.probability == est2.probability

    def test_matches_exhaustive_enumeration(self):
        """U=2, M=2 differential: average over all four other-vote patterns."""
        link = make_link(Method.DIFFERENTIAL, 4, sigma2=0.2)
        n_plus, n_minus = 2, 0
        fixed = np.array([1, 1])
        probs = []
        for other in itertools.product((-1, 1), repeat=2):
            votes = np.stack([fixed, np.array(other)], axis=1)
            (plus, minus), x = detection_rates(pack(votes[np.newaxis]), 0, *link)
            probs.append(cer(n_plus, n_minus, plus, minus, x)[0])
        exact = float(np.mean(probs))
        rng = np.random.default_rng(7)
        est, = vote_averaged_cers(link.method, link.K, n_plus + n_minus, [n_plus],
                                  link.pdp, link.sigma2, [rng], n_realizations=400)
        assert abs(est.probability - exact) < max(3 * est.stderr, 1e-9)

    def test_probability_range(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            K = int(rng.choice([2, 4, 8]))
            method = Method(rng.choice([m.value for m in Method]))
            U = int(rng.integers(1, 7))
            n_plus = int(rng.integers(0, U + 1))
            link = make_link(method, K, sigma2=float(rng.uniform(0.01, 1.0)))
            est, = vote_averaged_cers(link.method, link.K, U, [n_plus], link.pdp,
                                      link.sigma2, [rng], n_realizations=3)
            assert 0.0 <= est.probability <= 1.0

    def test_tie_gives_one(self):
        link = make_link(Method.DIFFERENTIAL, 4, sigma2=0.1)
        rng = np.random.default_rng(9)
        for exact in (False, True):
            est, = vote_averaged_cers(link.method, link.K, 4, [2], link.pdp, link.sigma2,
                                      [rng], n_realizations=5, exact=exact)
            assert est.probability == 1.0 and est.stderr == 0.0

    def test_tie_needs_no_quadrature(self, monkeypatch):
        """A tie is answered before any rate building or CDF evaluation,
        draws nothing from the rng, and is the same under both laws."""
        import airmv.theory as theory

        def forbidden(*args, **kwargs):
            raise AssertionError("a tie must not reach the CDF")

        monkeypatch.setattr(theory, "detection_rates", forbidden)
        monkeypatch.setattr(theory, "cdf_diff_exp_sums", forbidden)
        link = make_link(Method.INDEXED, 8, L_e=3, rho=0.5, sigma2=0.25)
        expected = theory.CerEstimate(probability=1.0, stderr=0.0)
        for exact in (False, True):
            rng = np.random.default_rng(11)
            est, = vote_averaged_cers(link.method, link.K, 6, [3], link.pdp, link.sigma2,
                                      [rng], n_realizations=50, exact=exact)
            assert est == expected
            assert rng.random() == np.random.default_rng(11).random()

    def test_one_rates_call_per_point(self, monkeypatch):
        """Every realization of a point goes to one `detection_rates` call."""
        import airmv.theory as theory

        shapes = []

        def counted(votes, *args, **kwargs):
            shapes.append(np.shape(votes))
            return detection_rates(votes, *args, **kwargs)

        monkeypatch.setattr(theory, "detection_rates", counted)
        link = make_link(Method.INDEXED, 8, sigma2=0.1)
        for exact in (False, True):
            vote_averaged_cers(link.method, link.K, 5, [4], link.pdp, link.sigma2,
                               [np.random.default_rng(16)], n_realizations=9, exact=exact)
        assert shapes == [(9, 5, 1)] * 2  # M = 3 votes packed in one byte

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("method", list(Method))
    def test_equals_a_loop_over_detection_rates(self, method, exact):
        """The stacked point returns exactly the estimate of a loop of
        one-row `cdf_diff_exp_sums` calls over `detection_rates`' rows, at
        K = 2, 8, 32 and SNR 0, 10 dB and inf (vote M - 1, so not always the
        first). With n_plus > n_minus the error is A - B < x, at x = 0 the
        race's own P(B > A)."""
        n_plus, n_minus, R = 5, 2, 20
        for K, snr_db in itertools.product((2, 8, 32), (0.0, 10.0, math.inf)):
            sigma2 = 0.0 if math.isinf(snr_db) else 10.0 ** (-snr_db / 10.0)
            link = make_link(method, K, L_e=3, rho=0.7, sigma2=sigma2)
            M = method.votes_per_codeword(K)
            rng = np.random.default_rng(K)
            votes = rng.integers(0, 2, size=(R if M > 1 else 1, 7, M)) * 2 - 1
            votes[:, :, M - 1] = [1] * n_plus + [-1] * n_minus
            rates, x = rate_sets(votes, M - 1, link, exact)
            probs = np.array([cdf(r, x) for r in rates])
            stderr = np.std(probs, ddof=1) / math.sqrt(probs.size) if M > 1 else 0.0
            want = theory.CerEstimate(float(np.mean(probs)), float(stderr))
            got, = vote_averaged_cers(link.method, link.K, n_plus + n_minus, [n_plus],
                                      link.pdp, link.sigma2, [np.random.default_rng(K)],
                                      n_realizations=R, ell=M - 1, exact=exact)
            assert got == want, (K, snr_db)

    @pytest.mark.parametrize("exact", [False, True])
    def test_one_race_per_finite_count_group(self, monkeypatch, exact):
        """Indexed K=32 at snr=inf: realizations differ in how many probes
        carry signal, so their sides differ in finite rates. The point runs
        one race per (finite plus, finite minus) count pair, each on all the
        rows of that pair, never one per realization. With n_plus > n_minus
        the error A < B is read off as P(B > A): the minus chain races
        first."""
        stacks, races = [], []
        race = theory._race

        def kept_stacks(*args, **kwargs):
            stacks.append(detection_rates(*args, **kwargs))
            return stacks[-1]

        def counted_race(first, second):
            races.append((first.shape, second.shape))
            return race(first, second)

        monkeypatch.setattr(theory, "detection_rates", kept_stacks)
        monkeypatch.setattr(theory, "_race", counted_race)
        link = make_link(Method.INDEXED, 32, L_e=5, sigma2=0.0)
        vote_averaged_cers(link.method, link.K, 25, [14], link.pdp, link.sigma2,
                           [np.random.default_rng(1)], n_realizations=40, exact=exact)
        ((plus, minus), x), = stacks
        assert x == 0.0
        counts = sorted(zip(np.isfinite(plus).sum(axis=1).tolist(),
                            np.isfinite(minus).sum(axis=1).tolist()))
        groups = sorted(set(counts))
        assert 1 < len(groups) < 40
        assert sorted((b[1], a[1], a[0]) for a, b in races) == [
            (*g, counts.count(g)) for g in groups
        ]

    @pytest.mark.parametrize("bad, match", [(-1e9, "nonnegative"),
                                            (math.nan, "strictly positive"),
                                            (math.inf, "strictly positive")])
    def test_bad_mean_fails_in_the_stacked_path(self, monkeypatch, bad, match):
        """A negative, NaN or infinite mean in the rates is rejected with
        ValueError, as the one validation, `_inverse`, rejects it for any
        caller. The bad value enters where the paper path reads the noise
        diagonal: the C_W[p, p] of `probe_variances`."""
        variances = theory.probe_variances

        def spoiled(*args):
            chan, noise = variances(*args)
            return chan, np.full_like(noise, bad)

        monkeypatch.setattr(theory, "probe_variances", spoiled)
        link = make_link(Method.INDEXED, 8, sigma2=0.1)
        with pytest.raises(ValueError, match=match):
            vote_averaged_cers(link.method, link.K, 5, [4], link.pdp, link.sigma2,
                               [np.random.default_rng(20)], n_realizations=5)
        with pytest.raises(ValueError, match=match):
            from_means([1.0, bad], [2.0])

    def test_one_draw_replays_per_realization_draws(self):
        """The single (R, U, M) vote draw equals R draws of (U, M), also for
        an odd U M, so the stacked pass reads the votes the loop did."""
        stacked = np.random.default_rng(17).integers(0, 2, size=(7, 25, 3))
        rng = np.random.default_rng(17)
        looped = np.stack([rng.integers(0, 2, size=(25, 3)) for _ in range(7)])
        np.testing.assert_array_equal(stacked, looped)

    @pytest.mark.parametrize("n_plus, n_minus, match", [
        (-1, 3, "n_plus=-1"), (3, -2, "n_minus=-2"), (0, 0, "n_plus=0, n_minus=0"),
    ])
    def test_bad_counts_fail_early(self, n_plus, n_minus, match):
        link = make_link(Method.INDEXED, 8, sigma2=0.1)
        with pytest.raises(ValueError, match=match):
            vote_averaged_cers(link.method, link.K, n_plus + n_minus, [n_plus], link.pdp,
                               link.sigma2, [np.random.default_rng(18)], n_realizations=3)

    def test_unanimous_noise_vanishing_limit(self):
        """With every vote positive, the negative side collapses with sigma2."""
        probs = []
        for sigma2 in (1e-2, 1e-4, 1e-6):
            link = make_link(Method.UNCODED, 4, sigma2=sigma2)
            rng = np.random.default_rng(12)
            est, = vote_averaged_cers(link.method, link.K, 5, [5], link.pdp, link.sigma2,
                                      [rng], n_realizations=40)
            probs.append(est.probability)
        assert probs[0] > probs[1] > probs[2]
        assert probs[2] < 1e-4

    def test_detection_rates_dispatch(self):
        rng = np.random.default_rng(11)
        link = make_link(Method.INDEXED, 4, sigma2=0.2)
        votes = rng.integers(0, 2, size=(3, 2)) * 2 - 1
        rates, x = rate_sets(votes, 0, link)
        assert x == 0.0
        assert len(rates.rates_plus) == 2 and len(rates.rates_minus) == 2


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("sigma2", [-0.1, math.nan])
def test_cer_model_rejects_bad_noise(method, sigma2):
    """A negative or NaN noise level fails before any draw, also at a
    lone tie, which reads no rate, and in the rates of one call."""
    rng = np.random.default_rng(21)
    with pytest.raises(ValueError, match="noise variance must be nonnegative"):
        vote_averaged_cers(method, 8, 4, [2], PdpConfig(1), sigma2, [rng], 3)
    assert rng.random() == np.random.default_rng(21).random()
    votes = pack_votes(np.ones((1, 3, method.votes_per_codeword(8)), bool))
    with pytest.raises(ValueError, match="noise variance must be nonnegative"):
        detection_rates(votes, 0, method, 8, PdpConfig(1), sigma2)


class TestVoteAveragedCers:
    """The group entry: the points of one (method, K, SNR, ell) against one
    law."""

    # U = 6: n_plus = 3 is a tie; 2 and 5 err in opposite directions.
    U, N_PLUS = 6, [0, 2, 3, 5, 6]

    @staticmethod
    def rngs(points, seed):
        return [np.random.default_rng([seed, i]) for i in range(len(points))]

    @pytest.mark.parametrize("stack_rows", [None, 7])
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("method", list(Method))
    def test_equals_one_call_per_point(self, monkeypatch, method, exact, stack_rows):
        """Bit for bit the estimates of one call per point,
        at K = 2 (M = 1 for the coded schemes), 8 and 32, 0 dB and snr=inf,
        with a tie inside the group; also when `_STACK_ROWS` splits the
        group into one-point calls (R = 5 realizations a point)."""
        if stack_rows is not None:
            monkeypatch.setattr(theory, "_STACK_ROWS", stack_rows)
        for K, sigma2 in itertools.product((2, 8, 32), (1.0, 0.0)):
            link = make_link(method, K, L_e=3, rho=0.7, sigma2=sigma2)
            ell = method.votes_per_codeword(K) - 1
            got = theory.vote_averaged_cers(link.method, link.K, self.U, self.N_PLUS,
                                            link.pdp, link.sigma2,
                                            self.rngs(self.N_PLUS, K), 5, ell, exact)
            want = [theory.vote_averaged_cers(link.method, link.K, self.U, [n], link.pdp,
                                              link.sigma2, [rng], 5, ell, exact)[0]
                    for n, rng in zip(self.N_PLUS, self.rngs(self.N_PLUS, K))]
            assert got == want, (K, sigma2)
            assert got[2] == theory.CerEstimate(1.0, 0.0)
            # The CLI name ("m1", "m2", "m3") is the same link.
            alias = f"m{list(Method).index(method) + 1}"
            assert theory.vote_averaged_cers(alias, K, self.U, self.N_PLUS, link.pdp,
                                             link.sigma2, self.rngs(self.N_PLUS, K), 5,
                                             ell, exact) == got

    @pytest.mark.parametrize("method", list(Method))
    def test_one_law_per_group(self, monkeypatch, method):
        """A group builds one detector form and one set of probe tables and
        races each error direction in one `cdf_diff_exp_sums` call. The
        paper's law never forms the probe covariances; the exact law forms
        them once."""
        calls = {"form": 0, "tables": 0, "cdf": [], "moments": 0}
        form, tables = theory.detector_form, theory.probe_tables
        cdf_calls, moments = theory.cdf_diff_exp_sums, theory.probe_moments

        def counted_form(*args):
            calls["form"] += 1
            return form(*args)

        def counted_tables(*args):
            calls["tables"] += 1
            return tables(*args)

        def counted_cdf(plus, minus, x):
            calls["cdf"].append(len(plus))
            return cdf_calls(plus, minus, x)

        def forbidden(*args):
            raise AssertionError("the paper's law reads no probe covariance")

        monkeypatch.setattr(theory, "detector_form", counted_form)
        monkeypatch.setattr(theory, "probe_tables", counted_tables)
        monkeypatch.setattr(theory, "cdf_diff_exp_sums", counted_cdf)
        monkeypatch.setattr(theory, "probe_moments", forbidden)
        link = make_link(method, 8, L_e=3, rho=0.7, sigma2=0.3)
        theory.vote_averaged_cers(link.method, link.K, self.U, self.N_PLUS, link.pdp,
                                  link.sigma2, self.rngs(self.N_PLUS, 1), 9)
        assert (calls["form"], calls["tables"]) == (1, 1)
        # Two points a direction, the tie left out.
        assert calls["cdf"] == [18, 18]

        def counted_moments(*args):
            calls["moments"] += 1
            return moments(*args)

        monkeypatch.setattr(theory, "probe_moments", counted_moments)
        theory.vote_averaged_cers(link.method, link.K, self.U, self.N_PLUS, link.pdp,
                                  link.sigma2, self.rngs(self.N_PLUS, 1), 9, exact=True)
        assert (calls["form"], calls["tables"], calls["moments"]) == (2, 2, 1)

    def test_each_point_draws_from_its_own_stream(self):
        """Every point but the tie draws its (R, U, M) votes from its own
        rng and nothing more, as a call of its own would."""
        link = make_link(Method.INDEXED, 8, sigma2=0.1)
        rngs = self.rngs(self.N_PLUS, 2)
        theory.vote_averaged_cers(link.method, link.K, self.U, self.N_PLUS, link.pdp,
                                  link.sigma2, rngs, 4)
        for i, (n, rng) in enumerate(zip(self.N_PLUS, rngs)):
            replay = np.random.default_rng([2, i])
            if 2 * n != self.U:
                replay.integers(0, 2, size=(4, self.U, 3))
            assert rng.random() == replay.random(), n

    @pytest.mark.parametrize("points, match", [
        ([2, 7], "n_plus=7, n_minus=-1"), ([-1], "n_plus=-1, n_minus=7"),
    ])
    def test_bad_counts_fail_before_any_draw(self, points, match):
        link = make_link(Method.INDEXED, 8, sigma2=0.1)
        rngs = self.rngs(points, 3)
        with pytest.raises(ValueError, match=match):
            theory.vote_averaged_cers(link.method, link.K, self.U, points, link.pdp,
                                      link.sigma2, rngs, 4)
        for i, rng in enumerate(rngs):
            assert rng.random() == np.random.default_rng([3, i]).random()


    @pytest.mark.parametrize("points, extra", [([1, 2, 4], []), ([1], [None])])
    def test_one_rng_per_point(self, points, extra):
        """Any other count of rngs is refused before any draw, naming both
        counts: one rng for three points used to raise a bare IndexError
        after the first point had drawn, and [rng, None] for one point was
        refused for a None that is never read."""
        rng = np.random.default_rng(4)
        match = f"{1 + len(extra)} rngs for {len(points)} points"
        with pytest.raises(ValueError, match=match):
            vote_averaged_cers(Method.INDEXED, 8, self.U, points, PdpConfig(1), 0.1,
                               [rng, *extra], 4)
        assert rng.random() == np.random.default_rng(4).random()

    @pytest.mark.parametrize("method, K, match", [
        ("goldenbaum", 8, "unknown method 'goldenbaum'"),
        (Method.INDEXED, 12, "indexed encoding needs K a power of two"),
    ])
    def test_refuses_a_link_no_scheme_sends(self, method, K, match):
        """A name that is no zero-encoded scheme and a K its codebook does
        not take are refused with the package's own messages, before any
        draw, in `vote_averaged_cers` and in `detection_rates`."""
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match=match):
            vote_averaged_cers(method, K, self.U, [1], PdpConfig(1), 0.1, [rng], 4)
        assert rng.random() == np.random.default_rng(5).random()
        with pytest.raises(ValueError, match=match):
            detection_rates(pack_votes(np.ones((1, 3, 1), bool)), 0, method, K,
                            PdpConfig(1), 0.1)


def test_theory_curve_is_u_shaped():
    """Error rate over the vote split: worst near the tie, best at the
    unanimous extremes (odd U, so no exact tie exists)."""
    link = make_link(Method.INDEXED, 8, sigma2=0.1)
    rng = np.random.default_rng(13)
    U = 9
    curve = [
        est.probability for est in
        vote_averaged_cers(link.method, link.K, U, range(U + 1), link.pdp, link.sigma2,
                           [rng] * (U + 1), n_realizations=40)
    ]
    mid = U // 2
    assert max(curve) == max(curve[mid], curve[mid + 1])
    assert curve[0] < curve[mid] and curve[-1] < curve[mid]
    # symmetric splits predict mirrored rates
    for n in range(U + 1):
        assert curve[n] == pytest.approx(curve[U - n], abs=0.05)


class TestExactCorrelatedModel:
    """End-to-end oracle: the full simulation chain must match the exact
    jointly-Gaussian quadratic-form law, correlations included, even at the
    operating points where the independence-based prediction drifts."""

    def test_matches_simulation_at_noise_dominated_cells(self):
        from airmv.simulate import simulate_cer, stream

        cells = [
            (Method.UNCODED, 2, 5, 4, 1),
            (Method.DIFFERENTIAL, 4, 5, 4, 3),
            (Method.INDEXED, 8, 5, 4, 3),
        ]
        for method, K, U, n_plus, L_e in cells:
            pdp_cfg = PdpConfig(L_e, 1.0)
            sigma2 = 1.0  # 0 dB, where the independence model is off
            mc, se = simulate_cer(
                method, K, U, n_plus, pdp_cfg, sigma2, 100_000,
                seed=4242, key=(K, L_e),
            )
            est, = vote_averaged_cers(
                method, K, U, [n_plus], pdp_cfg, sigma2, [stream(4243, K, L_e)],
                n_realizations=300, exact=True,
            )
            assert abs(mc - est.probability) < 3 * math.hypot(se, est.stderr), (
                method, K, mc, est.probability
            )

    def test_later_vote_position_matches_simulation(self):
        """Vote ell = 1 is probed at its own slots (the detector form's
        sides for the coded schemes, phase w^1 for uncoded)."""
        from airmv.channel import sample_channel, superpose
        from airmv.decoding import DecoderContext, decode

        K, U, n_plus, L_e, sigma2, ell, n = 4, 5, 4, 2, 1.0, 1, 40_000
        pdp_cfg = PdpConfig(L_e, 1.0)
        for mi, method in enumerate(Method):
            rng = np.random.default_rng(100 + mi)
            M = method.votes_per_codeword(K)
            votes = rng.integers(0, 2, size=(n, U, M)) * 2 - 1
            votes[:, :, ell] = [1] * n_plus + [-1] * (U - n_plus)
            y = superpose(
                synthesize_coeffs(vote_pattern(method, votes), radius_param(K)),
                sample_channel(pdp_cfg, U, rng, trials=n), sigma2, rng,
            )
            if method is Method.UNCODED:
                ctx = DecoderContext(method, radius_param(K), pdp_cfg, sigma2)
            else:
                ctx = DecoderContext(method, radius_param(K))
            mc = float(np.mean(decode(y, ctx)[:, ell] != 1))
            se = math.sqrt(mc * (1 - mc) / n)
            est, = vote_averaged_cers(
                method, K, U, [n_plus], pdp_cfg, sigma2, [rng],
                n_realizations=200, ell=ell, exact=True,
            )
            assert abs(mc - est.probability) < 3 * math.hypot(se, est.stderr), (
                method, mc, est.probability
            )

    def test_diagonal_is_the_paper_model(self):
        """The paper's means are the expected test-point energies, from
        synthesized coefficients evaluated at the probes (times the channel
        power, plus the noise power), divided by the uncoded count scales;
        without noise the probes decorrelate (each codeword is nonzero at
        one probe) and the two laws coincide."""
        rng = np.random.default_rng(14)
        for method in Method:
            for K in (2, 4, 8):
                M = method.votes_per_codeword(K)
                for sigma2 in (0.3, 0.0):
                    link = make_link(method, K, L_e=3, rho=0.7, sigma2=sigma2)
                    rp = link.rp
                    votes = rng.integers(0, 2, size=(5, M)) * 2 - 1
                    inner = encode_matrix(method, votes, rp)
                    coeffs = synthesize_coeffs(inner, rp)
                    w = root_phases(K)

                    def oracle(z):
                        da = abs(z)
                        signal = np.sum(np.abs(poly_eval(coeffs, z)) ** 2)
                        return (signal * channel_power(da, link.pdp)
                                + noise_power(da, sigma2, K, link.pdp.L_e))

                    for ell in range(M):
                        paper, x = rate_sets(votes, ell, link)
                        exact, x_exact = rate_sets(votes, ell, link, exact=True)
                        assert x_exact == pytest.approx(x, rel=1e-12, abs=1e-15)
                        if sigma2 == 0.0:
                            assert cdf(exact, x) == pytest.approx(
                                cdf(paper, x), abs=1e-9
                            )
                        if method is Method.UNCODED:
                            plus, minus = [rp.d * w[ell]], [w[ell] / rp.d]
                            (scale_p, noise_p), (scale_m, noise_m) = (
                                (signal_scale_uncoded(rp, da)
                                 * channel_power(da, link.pdp),
                                 noise_power(da, sigma2, K, link.pdp.L_e))
                                for da in (rp.d, 1.0 / rp.d)
                            )
                            x_ref = noise_p / scale_p - noise_m / scale_m
                        elif method is Method.DIFFERENTIAL:
                            plus, minus = [rp.d * w[2 * ell]], [rp.d * w[2 * ell + 1]]
                            scale_p = scale_m = 1.0
                            x_ref = 0.0
                        else:
                            bit = (np.arange(K) >> ell) & 1
                            plus, minus = rp.d * w[bit == 1], rp.d * w[bit == 0]
                            scale_p = scale_m = 1.0
                            x_ref = 0.0
                        assert x == pytest.approx(x_ref, rel=1e-12, abs=1e-15)
                        for rates, points, scale in (
                            (paper.rates_plus, plus, scale_p),
                            (paper.rates_minus, minus, scale_m),
                        ):
                            means = 1.0 / np.array(rates)
                            expected = [oracle(z) / scale for z in points]
                            assert means == pytest.approx(expected, rel=1e-9, abs=1e-12)
