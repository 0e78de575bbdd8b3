import sys
import tracemalloc

import numpy as np
import pytest

from airmv import aggregation, simulate
from airmv.aggregation import backend, scored_column
from airmv.channel import PdpConfig
from airmv.config import build_config
from airmv.encoding import Method
from airmv.experiments import run_experiment
from airmv.simulate import (
    _drawn_bytes,
    _random_votes,
    mv_error_batch,
    run_trial_batches,
    simulate_cer,
    stream,
)


class TestStreams:
    def test_keyed_streams_distinct(self):
        a = stream(7, 0, 1).standard_normal(4)
        b = stream(7, 0, 2).standard_normal(4)
        assert not np.allclose(a, b)

    def test_replay(self):
        a = stream(7, 3, 1).standard_normal(4)
        b = stream(7, 3, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)


class TestRunTrialBatches:
    def test_thread_count_invariance(self, monkeypatch):
        def counter(rng, n):
            return int(np.sum(rng.random(n) < 0.3))

        monkeypatch.setattr(simulate, "BATCH_SIZE", 1000)
        base = run_trial_batches(counter, 9_999, seed=1, key=(4,), threads=1)
        for threads in (2, 5):
            again = run_trial_batches(counter, 9_999, seed=1, key=(4,), threads=threads)
            assert again == base

    def test_covers_all_trials(self, monkeypatch):
        sizes = []

        def counter(rng, n):
            sizes.append(n)
            return n

        monkeypatch.setattr(simulate, "BATCH_SIZE", 1000)
        assert run_trial_batches(counter, 12_345, seed=0) == 12_345
        assert sizes == [1000] * 12 + [345]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_trial_batches(lambda rng, n: 0, 0, seed=0)


class TestCerSimulation:
    def test_unanimous_noiseless_flat_is_exact(self):
        for method in Method:
            p, se = simulate_cer(
                method, 4, 5, 5, PdpConfig(1), 0.0, 2_000, seed=21,
                key=(ord(method.value[0]),),
            )
            assert p == 0.0 and se == 0.0

    def test_tie_counts_every_trial(self):
        p, _ = simulate_cer(Method.DIFFERENTIAL, 4, 6, 3, PdpConfig(1), 0.1,
                            1_000, seed=22)
        assert p == 1.0

    def test_unbalanced_beats_balanced(self):
        pdp_cfg = PdpConfig(1)
        near, _ = simulate_cer(Method.INDEXED, 8, 9, 5, pdp_cfg, 0.1, 30_000, seed=23)
        far, _ = simulate_cer(Method.INDEXED, 8, 9, 9, pdp_cfg, 0.1, 30_000, seed=23)
        assert far < near

    @pytest.mark.parametrize("method", ["indexed", "goldenbaum"])
    @pytest.mark.parametrize("U, n_plus, match", [
        (5, -1, "n_plus=-1"), (5, 7, "n_plus=7"), (0, 0, "U=0"),
    ])
    def test_bad_counts_fail_early(self, method, U, n_plus, match):
        """n_plus outside 0..U used to be scored as a unanimous split, and
        U=0 died inside numpy; both now name the count."""
        with pytest.raises(ValueError, match=match):
            simulate_cer(method, 8, U, n_plus, PdpConfig(1), 0.1, 100, seed=1)

    @pytest.mark.parametrize("U, n_plus", [(5, -1), (5, 7), (0, 0)])
    def test_bad_counts_fail_before_the_engine_build(self, monkeypatch, U, n_plus):
        built = []

        class Counting(aggregation.ProbeAggregator):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(aggregation, "ProbeAggregator", Counting)
        with pytest.raises(ValueError):
            simulate_cer("indexed", 8, U, n_plus, PdpConfig(1), 0.1, 100, seed=1)
        assert built == []

    def test_one_engine_per_n_plus_sweep(self, monkeypatch):
        """A cer sweep builds one engine per point of each zero-encoded
        scheme (K, SNR, n_plus), shared by both threads: simulate_cer
        builds its own, and nothing caches it."""
        built = []

        class Counting(aggregation.ProbeAggregator):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(aggregation, "ProbeAggregator", Counting)
        cfg = build_config("cer", {}, dict(
            seed=4, k_values=(4, 8), U=5, snr_db=(0.0, 10.0), trials=300,
            methods=("indexed", "goldenbaum", "uncoded"), realizations=0,
            threads=2,
        ))
        rows = run_experiment(cfg)
        assert len(rows) == 2 * 2 * 3 * 6  # K, SNR, scheme, n_plus = 0..5
        assert [(a[0].value, a[1], a[3]) for a in built] == [
            (method, K, sigma2) for K in (4, 8) for sigma2 in (1.0, 0.1)
            for method in ("indexed", "uncoded") for _ in range(6)
        ]

    def test_one_engine_per_sweep_point(self, monkeypatch):
        """Five batches, on one worker or on more workers than cores, share
        the engine that simulate_cer builds before them, and count the same
        errors with it."""
        built, batches = [], []

        class Counting(aggregation.ProbeAggregator):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        def batch(*args, **kwargs):
            batches.append(args[1])
            return mv_error_batch(*args, **kwargs)

        monkeypatch.setattr(aggregation, "ProbeAggregator", Counting)
        monkeypatch.setattr(simulate, "mv_error_batch", batch)
        monkeypatch.setattr(simulate, "BATCH_SIZE", 1_000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for method in Method:
                args, results = (method, 8, 5, 3, PdpConfig(2), 0.1, 5_000), set()
                for threads in (1, 2, 4):
                    built.clear()
                    batches.clear()
                    results.add(simulate_cer(*args, seed=2, threads=threads))
                    assert len(built) == 1 and batches == [1_000] * 5
                assert len(results) == 1
        finally:
            sys.setswitchinterval(interval)

    def test_batch_reproducibility(self):
        aggregate = backend(Method.UNCODED, 4, PdpConfig(2, 0.5), 0.5, positions=0)
        a = mv_error_batch(stream(3, 0), 4_000, aggregate, 5, 4, Method.UNCODED, 4)
        b = mv_error_batch(stream(3, 0), 4_000, aggregate, 5, 4, Method.UNCODED, 4)
        assert a == b


def test_drawn_bytes_are_rng_bytes():
    """`_drawn_bytes` writes the bytes of `rng.bytes` into one writable
    array and leaves the generator where `rng.bytes` does, at sizes on and
    off a whole uint32 word."""
    for size in (1, 2, 3, 4, 5, 7, 8, 9, 1_001, 65_538):
        rng, ref = np.random.default_rng(size), np.random.default_rng(size)
        drawn = _drawn_bytes(rng, size)
        assert drawn.dtype == np.uint8 and drawn.flags.writeable
        assert drawn.tobytes() == ref.bytes(size)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_own_draw_backends_draw_no_votes():
    """A batch of a backend that decides on its own draws draws no votes:
    "ideal" draws nothing at all, so the generator is left untouched."""
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    aggregate = backend("ideal", 32, PdpConfig(1), 0.1, positions=0)
    assert mv_error_batch(rng, 500, aggregate, 5, 3, "ideal", 32) == 0
    assert rng.bit_generator.state == state


def test_random_votes_are_fair_independent_bits():
    """The Monte Carlo's votes: packed plus-bits of the drawn bits in C
    order, vote 0 the fixed column, whether the drawn bytes are the packed
    votes (M a multiple of 8) or are repacked; over 1e5 users every random
    position's mean and every adjacent pair's correlation within 5
    standard errors of 0."""
    n, U = 4_000, 25
    plus = scored_column(U, 9).astype(np.uint8)
    for M in (16, 5):
        packed = _random_votes(np.random.default_rng(6), n, M, plus)
        assert packed.dtype == np.uint8 and packed.shape == (n, U, -(-M // 8))
        bits = np.unpackbits(packed, axis=-1, count=M, bitorder="little")
        drawn = np.frombuffer(np.random.default_rng(6).bytes(-(-n * U * M // 8)), np.uint8)
        drawn = np.unpackbits(drawn, count=n * U * M, bitorder="little").reshape(n, U, M)
        drawn[:, :, 0] = plus
        np.testing.assert_array_equal(bits, drawn)
        free = 2.0 * bits[:, :, 1:].reshape(n * U, M - 1) - 1.0
        se = 1.0 / np.sqrt(n * U)
        assert np.all(np.abs(free.mean(axis=0)) <= 5 * se)
        assert np.all(np.abs((free[:, 1:] * free[:, :-1]).mean(axis=0)) <= 5 * se)


class TestProbeTables:
    """The engine's codeword values P_u(z_p) against the synthesized
    polynomials evaluated at the probe points."""

    def test_matches_direct_synthesis(self):
        from airmv.aggregation import probe_tables
        from airmv.decoding import probe_points
        from airmv.encoding import vote_pattern
        from airmv.huffman import poly_eval, radius_param, synthesize_coeffs

        rng = np.random.default_rng(9)
        for method, K in ((Method.UNCODED, 8), (Method.DIFFERENTIAL, 8),
                          (Method.INDEXED, 16), (Method.UNCODED, 32),
                          (Method.DIFFERENTIAL, 32)):
            rp = radius_param(K)
            m = method.votes_per_codeword(K)
            votes = rng.integers(0, 2, size=(40, 3, m)) * 2 - 1
            # Vote j of a table's chunk is bit j of its row index; indexed
            # has one chunk of all m votes, the others one per eight votes.
            # The indexed table holds each codeword at its own probe only.
            width = m if method is Method.INDEXED else 8
            bits = (votes > 0).astype(np.intp)
            for positions in (tuple(range(m)), (0,)):
                values = 1.0
                points = probe_points(method, rp, positions)
                for i, table in enumerate(probe_tables(method, rp, points)):
                    chunk = bits[..., i * width : (i + 1) * width]
                    values = values * table[chunk @ (1 << np.arange(chunk.shape[-1]))]
                direct = poly_eval(
                    synthesize_coeffs(vote_pattern(method, votes), rp), points
                )
                if method is Method.INDEXED:
                    own = bits @ (1 << np.arange(m))
                    direct = np.take_along_axis(direct, own[..., np.newaxis], -1)[..., 0]
                np.testing.assert_allclose(values, direct, rtol=0, atol=1e-12)

    def test_large_codebook_needs_no_synthesis(self):
        """Table rows grow with the votes per byte, not with 2^M: uncoded
        K=32 (2^32 vote patterns) needs four 256-row tables. Indexed keeps
        one value per codeword, its own probe's: a read-only (K,) table."""
        from airmv.aggregation import probe_tables
        from airmv.decoding import probe_points
        from airmv.huffman import radius_param

        rp = radius_param(32)
        tables = probe_tables(Method.UNCODED, rp, probe_points(Method.UNCODED, rp, 0))
        assert [t.shape for t in tables] == [(256, 2)] * 4
        rp = radius_param(128)
        (table,) = probe_tables(Method.INDEXED, rp, probe_points(Method.INDEXED, rp, 0))
        assert table.shape == (128,)
        assert not table.flags.writeable


def test_snr_sweep_shows_error_floor():
    """More SNR helps, but fading keeps a floor: the drop from 8 to 16 dB
    is a fraction of the drop from 0 to 8 dB (K=16, U=25, N+=22)."""
    pdp_cfg = PdpConfig(1)
    cers = {}
    for snr in (0.0, 8.0, 16.0):
        p, se = simulate_cer(
            Method.INDEXED, 16, 25, 22, pdp_cfg, 10 ** (-snr / 10), 30_000,
            seed=31, key=(int(snr),),
        )
        cers[snr] = (p, se)
    p0, s0 = cers[0.0]
    p8, s8 = cers[8.0]
    p16, s16 = cers[16.0]
    assert p0 - p8 > 3 * (s0 + s8)          # SNR helps at first
    assert p16 <= p8 + 3 * (s8 + s16)       # never worse at high SNR
    assert (p8 - p16) < 0.5 * (p0 - p8)     # but the curve flattens


# (method, K, bound on the batch's tracemalloc peak in bytes). One vote-0
# batch of 2,000 trials at U=25, n_plus=16, L_e=5, 10 dB; the tree before
# votes became packed bits peaked at 13.6 MB (uncoded) and 21.0 MB
# (indexed), with 0.9 MB and 9.0 MB of draws.
BATCH_PEAKS = [("uncoded", 128, 2_000_000), ("indexed", 256, 12_000_000)]


@pytest.mark.parametrize("method, K, bound", BATCH_PEAKS)
def test_a_batch_holds_little_beyond_its_draws(method, K, bound):
    """A vote-0 batch's packed votes and bounded blocks keep its peak near
    its draws: no (n, U, M) vote array and no full-size float buffer."""
    aggregate = backend(method, K, PdpConfig(5), 0.1, positions=0)
    mv_error_batch(stream(1, 0), 20, aggregate, 25, 16, method, K)  # first-call setup
    tracemalloc.start()
    try:
        mv_error_batch(stream(1, 1), 2_000, aggregate, 25, 16, method, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
