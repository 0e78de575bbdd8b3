"""The probe-domain engine against the time-domain oracle on identical draws.

The oracle is the chain the engine replaces: synthesize every codeword
(`synthesize_coeffs(vote_pattern(...))`), convolve it with its channel and
add noise (`superpose`), then evaluate and detect (`decode`). Both sides
draw the channel taps and then the noise from generators in the same state.
"""

import math

import numpy as np
import pytest

from airmv.aggregation import ProbeAggregator, probe_tables
from airmv.channel import PdpConfig, sample_channel, superpose
from airmv.decoding import decode, powers, probe_points
from airmv.encoding import Method, vote_pattern
from airmv.huffman import radius_param, root_phases, synthesize_coeffs
from airmv.median import run_median
from airmv.simulate import _count_mv_errors, _fixed_column, mv_error_batch, simulate_cer


def oracle(method, K, pdp_cfg, sigma2, votes, rng, positions=None):
    """(R at the engine's probes, decisions) from the time-domain chain."""
    engine = ProbeAggregator(method, K, pdp_cfg, sigma2, positions)
    n, U, _ = votes.shape
    coeffs = synthesize_coeffs(vote_pattern(method, votes), radius_param(K))
    y = superpose(coeffs, sample_channel(pdp_cfg, U, rng, trials=n), sigma2, rng)
    points = probe_points(method, radius_param(K), engine.positions)
    r = y @ powers(points, y.shape[-1])
    return r, decode(y, engine.ctx)[:, list(engine.positions)]


CASES = [
    # (method, K, U, L_e, sigma2)
    (Method.UNCODED, 8, 5, 3, 0.1),
    (Method.DIFFERENTIAL, 8, 5, 3, 0.1),
    (Method.INDEXED, 8, 5, 3, 0.1),
    (Method.UNCODED, 2, 4, 2, 0.3),
    (Method.DIFFERENTIAL, 2, 4, 2, 0.3),
    (Method.INDEXED, 2, 4, 2, 0.3),
    (Method.UNCODED, 32, 6, 5, 0.1),       # 2^32 patterns, four vote bytes
    (Method.DIFFERENTIAL, 32, 6, 5, 0.1),  # two vote bytes
    (Method.INDEXED, 512, 3, 2, 0.1),      # 9 votes: a two-byte codeword index
    (Method.UNCODED, 8, 1, 3, 0.1),
    (Method.INDEXED, 16, 1, 1, 0.1),
    (Method.UNCODED, 8, 5, 3, 0.0),        # snr=inf draws no noise
    (Method.DIFFERENTIAL, 16, 5, 3, 0.0),
    (Method.INDEXED, 16, 5, 3, 0.0),
]


@pytest.mark.parametrize("method,K,U,L_e,sigma2", CASES)
@pytest.mark.parametrize("positions", [None, 0])
def test_matches_time_domain_oracle(method, K, U, L_e, sigma2, positions):
    n = 300 if K < 512 else 40
    pdp_cfg = PdpConfig(L_e, 0.8)
    M = method.votes_per_codeword(K)
    votes = np.random.default_rng(K + U).integers(0, 2, size=(n, U, M)) * 2 - 1
    engine = ProbeAggregator(method, K, pdp_cfg, sigma2, positions)
    r = engine.received(votes, np.random.default_rng(5))
    r_ref, d_ref = oracle(method, K, pdp_cfg, sigma2, votes,
                          np.random.default_rng(5), positions)
    assert r.shape == r_ref.shape
    np.testing.assert_allclose(r, r_ref, rtol=0, atol=1e-11 * np.abs(r_ref).max())
    decisions = engine.aggregate(votes, np.random.default_rng(5))
    assert decisions.shape == (n, M if positions is None else 1)
    np.testing.assert_array_equal(decisions, d_ref)


def test_draws_match_the_time_domain_chain():
    """The engine leaves the rng where the time-domain chain leaves it."""
    for sigma2 in (0.2, 0.0):
        votes = np.random.default_rng(0).integers(0, 2, size=(50, 4, 3)) * 2 - 1
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        ProbeAggregator(Method.INDEXED, 8, PdpConfig(2), sigma2).aggregate(votes, a)
        oracle(Method.INDEXED, 8, PdpConfig(2), sigma2, votes, b)
        assert a.random() == b.random()


def test_probe_on_an_encoded_zero_is_exactly_zero():
    """Noiseless, every user sending the same codeword: the probes at that
    codeword's zeros read exactly 0, the others do not."""
    K, U, pdp_cfg = 8, 4, PdpConfig(3)
    rp = radius_param(K)
    for method in Method:
        M = method.votes_per_codeword(K)
        for vote in (-1, 1):
            votes = np.full((20, U, M), vote)
            engine = ProbeAggregator(method, K, pdp_cfg, 0.0)
            r = engine.received(votes, np.random.default_rng(1))
            zeros = np.where(vote_pattern(method, votes[0, 0]), 1.0 / rp.d, rp.d)
            on_zero = np.isin(probe_points(method, rp), zeros * root_phases(K))
            assert on_zero.any() and not on_zero.all()
            assert np.all(r[:, on_zero] == 0.0)
            assert np.all(r[:, ~on_zero] != 0.0)
            row = 2 ** min(M, 8) - 1 if vote > 0 else 0
            tables = probe_tables(method, rp, tuple(range(M)))
            product = np.prod([t[row] for t in tables], axis=0)
            assert np.all((product == 0.0) == on_zero)


def test_monte_carlo_batch_matches_time_domain_batch():
    """Error counts of one batch equal those of the time-domain Monte Carlo
    on the same stream."""
    pdp_cfg = PdpConfig(5)
    U, n_plus, n = 25, 16, 2_000
    for method, K in ((Method.UNCODED, 16), (Method.DIFFERENTIAL, 16),
                      (Method.INDEXED, 32)):
        M = method.votes_per_codeword(K)
        rng = np.random.default_rng(17)
        votes = rng.integers(0, 2, size=(n, U, M)) * 2 - 1
        votes[:, :, 0] = _fixed_column(U, n_plus)
        _, decisions = oracle(method, K, pdp_cfg, 0.1, votes, rng, positions=0)
        expected = _count_mv_errors(decisions[:, 0], U, n_plus)
        got = mv_error_batch(np.random.default_rng(17), n, method, K, U, n_plus,
                             pdp_cfg, 0.1)
        assert got == expected


def test_median_matches_time_domain_rounds():
    """run_median on the engine retraces a time-domain median loop."""
    from airmv.median import MedianState, local_votes, median_step
    from airmv.simulate import stream

    K, U, rounds, reps, sigma2 = 8, 5, 30, 20, 0.1
    pdp_cfg = PdpConfig(2)
    for backend in ("uncoded", "differential", "indexed"):
        method = Method.from_name(backend)
        M = method.votes_per_codeword(K)
        got = run_median(backend, K, U, rounds, reps, pdp_cfg, sigma2, seed=4,
                         key=(1,))
        rng = stream(4, 1)
        params = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(reps, U, M))
        true_median = np.median(params, axis=-2)
        state = MedianState(estimates=np.zeros((reps, M)), rounds=rounds)
        expected = np.empty(rounds)
        for i in range(rounds):
            votes = local_votes(state, params)
            _, mv = oracle(method, K, pdp_cfg, sigma2, votes, rng)
            state = median_step(state, mv)
            expected[i] = math.sqrt(np.mean((state.estimates - true_median) ** 2))
        np.testing.assert_array_equal(got, expected)


def test_simulate_cer_is_thread_invariant():
    for method, K in ((Method.UNCODED, 16), (Method.DIFFERENTIAL, 8),
                      (Method.INDEXED, 16)):
        args = (method, K, 7, 4, PdpConfig(3), 0.3, 5_000)
        one = simulate_cer(*args, seed=8, threads=1, batch_size=1_000)
        two = simulate_cer(*args, seed=8, threads=2, batch_size=1_000)
        assert one == two


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        ProbeAggregator(Method.INDEXED, 8, PdpConfig(1), -0.1)
    with pytest.raises(ValueError):
        ProbeAggregator(Method.INDEXED, 8, PdpConfig(1), 0.1, positions=3)
    engine = ProbeAggregator(Method.INDEXED, 8, PdpConfig(1), 0.1)
    good = np.ones((4, 2, 3), int)
    for bad in (np.ones((4, 2, 4), int), np.ones((2, 3), int), 0 * good,
                2 * good, good.astype(float)):
        with pytest.raises(ValueError):
            engine.aggregate(bad, np.random.default_rng(0))
