import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from airmv import median
from airmv.aggregation import backend_votes
from airmv.channel import PdpConfig
from airmv.config import EXPERIMENTS
from airmv.median import local_votes, run_median, true_medians
from airmv.simulate import stream

SRC = Path(__file__).resolve().parents[1] / "src"


def signs(packed, M=1):
    """The +/-1 votes of packed plus-bits, (..., M)."""
    bits = np.unpackbits(packed, axis=-1, count=M, bitorder="little")
    return 2 * bits.astype(int) - 1


class TestLocalVotes:
    def test_sign_of_differences(self):
        params = np.array([[-1.0], [1.0]])  # two devices, one parameter
        np.testing.assert_array_equal(signs(local_votes(np.array([0.0]), params)),
                                      [[1], [-1]])

    def test_below_all(self):
        params = np.array([[-1.0], [0.0], [2.0]])
        np.testing.assert_array_equal(signs(local_votes(np.array([-5.0]), params)),
                                      [[-1], [-1], [-1]])

    def test_tie_resolves_positive(self):
        params = np.array([[0.7]])
        np.testing.assert_array_equal(signs(local_votes(np.array([0.7]), params)), [[1]])


    def test_one_comparison_matches_the_sign_of_the_difference(self):
        """The packed votes are bitwise np.where(estimate - parameter >= 0,
        1, -1) on random values with exact ties, +-0.0 on both sides and
        magnitudes from 1e-300 to 1e300."""
        rng = np.random.default_rng(3)
        estimates = rng.uniform(-2, 2, (40, 7))
        params = rng.uniform(-2, 2, (40, 25, 7))
        params[:, ::3] = estimates[:, np.newaxis]                 # exact ties
        estimates[::4] = 0.0
        estimates[1::4] = -0.0
        params[:, 1::5] = 0.0
        params[:, 2::5] = -0.0
        params[::7] *= 10.0 ** rng.integers(-300, 300, params[::7].shape)
        want = np.where(estimates[:, np.newaxis] - params >= 0, 1, -1)
        packed = local_votes(estimates, params)
        assert packed.dtype == np.uint8 and packed.shape == (40, 25, 1)
        got = signs(packed, 7)
        assert (got == 1).any() and (got == -1).any()
        np.testing.assert_array_equal(got, want)
        # One realization: (U, M) params against (M,) estimates.
        np.testing.assert_array_equal(signs(local_votes(estimates[0], params[0]), 7),
                                      want[0])


class TestMedianStep:
    def test_ideal_oracle_converges_to_sample_median(self):
        """Sign descent with exact majority votes lands within the final
        step size of the middle order statistic."""
        rng = np.random.default_rng(0)
        rounds, mu_start, mu_end = 800, 0.01, 1e-4
        mus = mu_start + (mu_end - mu_start) * np.arange(rounds) / (rounds - 1)
        for U in (5, 25):
            for _ in range(10):
                params = rng.uniform(-1.0, 1.0, size=(U, 1))
                true = np.median(params)
                estimates = np.zeros(1)
                for mu in mus:
                    votes = signs(local_votes(estimates, params))
                    estimates -= mu * np.sign(votes.sum(axis=-2))
                assert abs(estimates[0] - true) <= 1.5 * mus[-1]


class TestRunMedian:
    def test_ideal_reference_floor(self):
        rmse = run_median("ideal", 8, 25, 300, 200, PdpConfig(1), 0.0, seed=1)
        assert rmse.shape == (300,)
        assert rmse[-1] < 1e-3  # settles to the final-step scale

    def test_trajectory_decreases(self):
        rmse = run_median("indexed", 8, 25, 200, 50, PdpConfig(1), 0.1, seed=2)
        assert rmse[-1] < rmse[0]

    def test_backends_run(self):
        backends = ("uncoded", "differential", "goldenbaum", "obda",
                    "obda_phase", "obda_no_tci")
        for i, backend in enumerate(backends):
            rmse = run_median(backend, 8, 9, 30, 10, PdpConfig(2, 0.9), 0.1,
                              seed=3, key=(i,))
            assert rmse.shape == (30,) and np.isfinite(rmse).all()

    @pytest.mark.parametrize("name", ["ideal", "goldenbaum", "obda"])
    def test_decides_the_monte_carlo_votes(self, monkeypatch, name):
        """At K = 12, not a power of two, the ideal and baseline medians
        decide backend_votes(name, 12) = floor(log2(12)) = 3 votes a round,
        the M their error-rate Monte Carlo backend takes."""
        decided, build = [], median.backend

        def recorded(*args, **kwargs):
            aggregate = build(*args, **kwargs)

            def wrapped(packed, rng):
                decisions = aggregate(packed, rng)
                decided.append(decisions.shape)
                return decisions

            return wrapped

        monkeypatch.setattr(median, "backend", recorded)
        rmse = run_median(name, 12, 5, 4, 2, PdpConfig(1), 0.1, seed=6)
        assert backend_votes(name, 12) == 3
        assert decided == [(2, 3)] * 4
        assert np.isfinite(rmse).all()

    def test_reproducible(self):
        a = run_median("indexed", 8, 9, 40, 20, PdpConfig(1), 0.1, seed=4)
        b = run_median("indexed", 8, 9, 40, 20, PdpConfig(1), 0.1, seed=4)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("U, realizations, match", [
        (0, 3, "U=0"), (3, 0, "realization"), (3, -1, "realization"),
    ])
    def test_bad_counts_fail_early(self, U, realizations, match):
        """No transmitter or no realization used to return NaNs."""
        with pytest.raises(ValueError, match=match):
            run_median("ideal", 8, U, 3, realizations, PdpConfig(1), 0.1, seed=5)

    def test_steps_follow_the_linear_schedule(self):
        """Round i of n moves the estimate by mu_i = 0.01 + (1e-5 - 0.01)
        i / (n - 1), a single round by 0.01, toward the parameter: one
        device, which it never reaches in 5 rounds, so every vote is exact
        and rmse[i] = |p| - sum_{j<=i} mu_j."""
        p = stream(1).uniform(-np.sqrt(3.0), np.sqrt(3.0))
        for rounds, mus in ((5, 0.01 + (1e-5 - 0.01) * np.arange(5) / 4),
                            (1, np.array([0.01]))):
            rmse = run_median("ideal", 2, 1, rounds, 1, PdpConfig(1), 0.0, seed=1)
            assert abs(p) > mus.sum()
            np.testing.assert_allclose(rmse, abs(p) - np.cumsum(mus), rtol=0,
                                       atol=1e-15)

    def test_a_tie_freezes_the_estimate(self):
        """Two devices: once the estimate lies between them, the exact
        majority vote ties, decides 0 and leaves the estimate unchanged."""
        rmse = run_median("ideal", 2, 2, 3000, 1, PdpConfig(1), 0.0, seed=2)
        assert np.unique(rmse[-500:]).size == 1

    @pytest.mark.parametrize("sigma2", [-1.0, math.nan])
    def test_rejects_bad_noise(self, sigma2):
        """A negative or NaN noise variance fails before the first round for
        every backend; the ideal one, which reads no noise, used to return
        an RMSE curve."""
        for name in ("ideal", "goldenbaum", "obda", "indexed"):
            with pytest.raises(ValueError, match="noise variance must be nonnegative"):
                run_median(name, 8, 3, 2, 2, PdpConfig(1), sigma2, seed=1)

    def test_needs_a_round(self):
        with pytest.raises(ValueError, match="round"):
            run_median("ideal", 8, 3, 0, 2, PdpConfig(1), 0.1, seed=5)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            run_median("bogus", 8, 9, 10, 5, PdpConfig(1), 0.1, seed=5)


class TestTrueMedians:
    @pytest.mark.parametrize("U", [1, 2, 3, 24, 25])
    @pytest.mark.parametrize("ties", [False, True])
    def test_bitwise_equal_to_np_median(self, U, ties):
        """One partition at the two middle ranks, (lo + hi) / 2: the bits of
        np.median at odd and even U, with tied middle values too."""
        rng = np.random.default_rng(U)
        params = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(200, U, 3))
        if ties:  # a few levels, so the middle ranks often hold equal values
            params = np.floor(params * 2.0) / 3.0  # floor makes no -0.0
        got = true_medians(params)
        assert got.shape == (200, 3)
        np.testing.assert_array_equal(got, np.median(params, axis=-2))
        assert np.array_equal(np.signbit(got), np.signbit(np.median(params, axis=-2)))

    # One small run of every subcommand; rmse runs every backend.
    RUNS = {
        "cer": ["--methods", "m1,m2,m3,goldenbaum,obda", "--k", "8", "--u", "6",
                "--trials", "200", "--n-plus", "2,4", "--realizations", "2"],
        "snr": ["--methods", "m1,goldenbaum,obda", "--k", "8", "--u", "6",
                "--trials", "200", "--n-plus", "4", "--snr", "0,10",
                "--realizations", "2"],
        "theory": ["--methods", "m1,m2,m3", "--k", "8", "--u", "6", "--n-plus", "4",
                   "--realizations", "2"],
        "pmepr": ["--methods", "m1,m2,m3", "--k", "8", "--codewords", "50"],
        "resources": ["--methods", "m1,m2,m3", "--k", "8", "--u", "6"],
        "rmse": ["--methods", "ideal,m1,m2,m3,goldenbaum,obda,obda_phase,obda_no_tci",
                 "--k", "8", "--u", "6", "--rounds", "3", "--realizations", "4"],
    }

    def test_every_subcommand_has_a_run(self):
        assert set(self.RUNS) == set(EXPERIMENTS)

    @pytest.mark.parametrize("experiment", sorted(RUNS))
    def test_a_run_does_not_import_numpy_ma(self, tmp_path, experiment):
        """np.median's NaN check and np.quantile's np.unique import numpy.ma
        (about 15 ms a process); no subcommand needs it."""
        path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        argv = [experiment, *self.RUNS[experiment], "--seed", "2"]
        code = (
            "import sys\n"
            "from airmv.cli import main\n"
            f"main({argv!r} + ['--out', sys.argv[1]])\n"
            "print('numpy.ma' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.csv")],
                             env=env, check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "False"
        assert (tmp_path / "r.csv").stat().st_size > 0
