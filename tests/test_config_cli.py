import hashlib
import itertools
import math
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from airmv import cli, experiments
from airmv.cli import config_from_argv, main
from airmv.aggregation import OWN_DRAWS
from airmv.config import (EXPERIMENTS, PROPOSED, ConfigError, ExperimentConfig,
                          build_config, parse_config_file)
from airmv.encoding import Method, vote_pattern
from airmv.experiments import run_experiment, write_csv
from airmv.huffman import radius_param, synthesize_coeffs
from airmv.simulate import stream
from airmv.waveform import dfts_ofdm_modulate, pmepr


def make_cfg(tmp_path=None, **overrides):
    base = dict(seed=5, k_values=(4,), trials=200, realizations=4,
                n_plus=(3,), U=5, threads=1)
    base.update(overrides)
    return build_config(base.pop("experiment", "cer"), {}, base)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "methods = m1, m3\n"
            "k = 8,16\n"
            "u = 9\n"
            "snr_db = 0, 10, inf\n"
            "n_plus = 0:9\n"
            "seed = 42\n"
            "trials = 1000\n"
        )
        values = parse_config_file(str(path))
        assert values["methods"] == ("uncoded", "indexed")
        assert values["k_values"] == (8, 16)
        assert values["snr_db"] == (0.0, 10.0, math.inf)
        assert values["n_plus"] == tuple(range(10))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("trials = soon\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))


class TestValidation:
    def test_seed_required(self):
        with pytest.raises(ConfigError):
            build_config("cer", {}, dict(trials=10))

    def test_method_k_constraints(self):
        with pytest.raises(ConfigError):
            make_cfg(methods=("indexed",), k_values=(12,))

    def test_empty_snr_rejected(self):
        with pytest.raises(ConfigError):
            make_cfg(experiment="snr", snr_db=())

    def test_snr_needs_single_n_plus(self):
        with pytest.raises(ConfigError):
            make_cfg(experiment="snr", n_plus=(1, 2))

    def test_n_plus_range(self):
        with pytest.raises(ConfigError):
            make_cfg(n_plus=(7,), U=5)

    def test_baselines_rejected_for_theory(self):
        with pytest.raises(ConfigError):
            make_cfg(experiment="theory", methods=("goldenbaum",))

    def test_baseline_k_constraints(self):
        # Goldenbaum's sequence length needs K >= 2. The ideal and baseline
        # backends decide floor(log2(K)) votes, in the Monte Carlo and in
        # the median alike, so a K that is not a power of two runs too.
        with pytest.raises(ConfigError, match="goldenbaum at K=1"):
            make_cfg(methods=("goldenbaum",), k_values=(1,))
        names = ("ideal", "goldenbaum", "obda")
        for name in names:
            make_cfg(experiment="rmse", methods=(name,), k_values=(12,), n_plus=None)
            make_cfg(experiment="rmse", methods=(name,), k_values=(8,), n_plus=None)
        make_cfg(methods=("obda",), k_values=(12,))  # OBDA's CER ignores K
        cfg = config_from_argv(["rmse", "--methods", ",".join(names), "--k", "12",
                                "--u", "5", "--rounds", "3", "--realizations", "2",
                                "--seed", "1"])
        rows = run_experiment(cfg)
        assert {(r.method, r.K) for r in rows} == {(name, 12) for name in names}
        assert all(math.isfinite(r.value) for r in rows)

    @pytest.mark.parametrize("experiment", ["cer", "snr"])
    def test_negative_realizations_rejected(self, experiment):
        # 0 skips the theory rows; a negative count used to skip them too.
        with pytest.raises(ConfigError, match="realizations"):
            make_cfg(experiment=experiment, realizations=-1)
        make_cfg(experiment=experiment, realizations=0)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_snr_must_be_a_level(self, snr):
        for experiment in ("cer", "snr", "theory", "rmse"):
            with pytest.raises(ConfigError, match="SNR"):
                make_cfg(experiment=experiment, snr_db=(10.0, snr),
                         n_plus=None if experiment == "rmse" else (3,))
        # A leading `-inf` reaches the SNR rule, not argparse's flag parser.
        for text in (str(snr), f"{snr},0"):
            with pytest.raises(ConfigError, match="SNR"):
                config_from_argv(["snr", "--seed", "1", "--k", "8", "--methods",
                                  "m1", "--n-plus", "1", "--u", "2", "--snr", text])
        make_cfg(snr_db=(math.inf, -30.0))

    def test_defaults_n_plus_sweep(self):
        cfg = make_cfg(n_plus=None)
        assert cfg.n_plus_values() == tuple(range(6))

    def test_reversed_range_rejected(self, tmp_path, capsys):
        """A range hi:lo used to expand to nothing, so `--k 8,32:16` ran
        K=8 alone; the flag and the file key both refuse it now."""
        path = tmp_path / "rev.cfg"
        path.write_text("k = 8,32:16\n")
        with pytest.raises(ConfigError, match="'32:16'"):
            parse_config_file(str(path))
        with pytest.raises(SystemExit) as exc:
            config_from_argv(["cer", "--seed", "1", "--k", "8,32:16"])
        assert exc.value.code == 2
        assert "'32:16'" in capsys.readouterr().err

    def test_missing_out_directory_rejected(self, tmp_path, capsys):
        """The output path is checked before the sweep, not after it."""
        out = tmp_path / "missing" / "x.csv"
        argv = ["resources", "--seed", "1", "--k", "8", "--methods", "m1",
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "airmv: configuration error" in err and "does not exist" in err
        assert not out.parent.exists()
        out.parent.mkdir()
        assert main(argv) == 0 and out.exists()


def test_config_accepts_exactly_what_runs():
    """Config's K rules are the ones the runs call: for every experiment,
    method name and K of {1, 2, 3, 4, 6, 12, 16}, `build_config` accepts a
    config exactly when the same config, built without validation, runs to
    completion at toy sizes. Only the experiments' method lists are
    config's own."""
    toy = dict(U=3, n_plus=(2,), seed=1, trials=2, realizations=1, rounds=1,
               codewords=2, oversampling=1)
    names = PROPOSED + OWN_DRAWS
    disagree, checked = [], 0
    for experiment, name, K in itertools.product(EXPERIMENTS, names, (1, 2, 3, 4, 6, 12, 16)):
        options = dict(toy, methods=(name,), k_values=(K,))
        try:
            build_config(experiment, {}, options)
            accepted = True
        except ConfigError as exc:
            if "not valid for the" in str(exc):
                continue
            accepted = False
        try:
            run_experiment(ExperimentConfig(experiment=experiment, **options))
            ran = True
        except ValueError:
            ran = False
        checked += 1
        if accepted != ran:
            disagree.append((experiment, name, K, accepted, ran))
    assert disagree == []
    # cer and snr take 7 names, rmse 8, theory, pmepr and resources 3 each.
    assert checked == 7 * (7 + 7 + 8 + 3 * 3)


@pytest.mark.parametrize("n", [1, 2, 7, 10_000])
def test_pmepr_quantile_is_numpys(n):
    """The pmepr sweep's partition quantile is bitwise np.quantile's
    default linear method, on distinct and on tied samples, and leaves the
    samples as they were."""
    rng = np.random.default_rng(n)
    for samples in (rng.standard_normal(n) * 3 + 5, np.round(rng.standard_normal(n), 1)):
        before = samples.copy()
        for q in (0.5, 0.9, 0.99, 0.999):
            got, expected = experiments._quantile(samples, q), np.quantile(samples, q)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
        np.testing.assert_array_equal(samples, before)


class TestRunners:
    def test_cer_rows_and_determinism(self):
        cfg = make_cfg(methods=("differential", "goldenbaum"),
                       trials=400, realizations=3)
        rows = run_experiment(cfg)
        cers = [r for r in rows if r.metric == "cer"]
        theory = [r for r in rows if r.metric == "cer_theory"]
        assert len(cers) == 2 and len(theory) == 1
        assert all(0.0 <= r.value <= 1.0 for r in rows)
        assert all(r.stderr is None or r.stderr >= 0 for r in rows)
        again = run_experiment(cfg)
        assert [(r.metric, r.value) for r in rows] == [
            (r.metric, r.value) for r in again
        ]

    def test_resources_rows(self):
        cfg = make_cfg(experiment="resources", methods=("uncoded", "indexed"),
                       k_values=(32,), L_e=5, U=10, n_plus=None)
        rows = run_experiment(cfg)
        by_method = {r.method: r.value for r in rows if r.method != "separation"}
        assert by_method["uncoded"] == pytest.approx(1.15625)
        assert by_method["indexed"] == pytest.approx(7.4)
        separation = [r for r in rows if r.method == "separation"]
        assert [r.U for r in separation] == list(range(1, 11))

    def test_pmepr_rows(self):
        cfg = make_cfg(experiment="pmepr", methods=("indexed",), k_values=(8,),
                       codewords=50, n_plus=None)
        rows = run_experiment(cfg)
        ofdm = [r for r in rows if r.metric == "pmepr_ofdm_db"]
        assert len(ofdm) == 1 and ofdm[0].value == pytest.approx(1.79, abs=0.05)

    def test_pmepr_refuses_k_past_its_table_budget(self):
        """The pmepr sweep's uncoded byte tables take (K/8) 256 (K+1) 16 B,
        built once per K: `_pmepr_table_bytes` counts exactly what
        `probe_tables` builds, K = 512 (134 MB) passes, and K = 1024
        (537 MB) and 2048 (2.15 GB) are refused with K and the bytes named,
        for any method, before any table is built."""
        from airmv.aggregation import probe_tables
        from airmv.config import _pmepr_table_bytes
        from airmv.huffman import root_phases

        for K in (2, 6, 8, 13, 64):
            tables = probe_tables(Method.UNCODED, radius_param(K), root_phases(K + 1))
            assert _pmepr_table_bytes(K) == sum(t.nbytes for t in tables)
        make_cfg(experiment="pmepr", methods=("indexed",), k_values=(512,), n_plus=None)
        for K, methods in ((1024, ("uncoded",)), (2048, ("indexed", "differential"))):
            message = (f"K={K}: the pmepr byte tables would take "
                       f"{_pmepr_table_bytes(K):,} bytes")
            with pytest.raises(ConfigError, match=message):
                make_cfg(experiment="pmepr", methods=methods, k_values=(8, K), n_plus=None)

    @pytest.mark.parametrize("chunk", [1, 7, 10_000])
    def test_pmepr_bytes_do_not_depend_on_the_chunk(self, tmp_path, monkeypatch, chunk):
        """Each distinct codeword's PMEPR is computed in chunks of
        `_PMEPR_CHUNK` rows; no row depends on the others in its chunk."""
        argv = ["pmepr", "--k", "8,32", "--methods", "m1,m2,m3", "--codewords", "300",
                "--oversampling", "4", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "default.csv")]) == 0
        monkeypatch.setattr(experiments, "_PMEPR_CHUNK", chunk)
        assert main(argv + ["--out", str(tmp_path / "chunk.csv")]) == 0
        assert ((tmp_path / "chunk.csv").read_bytes()
                == (tmp_path / "default.csv").read_bytes())

    def test_pmepr_samples_equal_a_row_by_row_computation(self):
        """The statistics of the deduplicated sweep are those of every drawn
        codeword synthesized, modulated and measured on its own."""
        cfg = make_cfg(experiment="pmepr", methods=("uncoded", "differential", "indexed"),
                       k_values=(8,), codewords=300, oversampling=4, n_plus=None)
        rows = run_experiment(cfg)
        rp = radius_param(8)
        for mi, name in enumerate(cfg.methods):
            method = Method.from_name(name)
            rng = stream(cfg.seed, experiments._DOMAIN_PMEPR, 0, mi)
            votes = rng.integers(0, 2, size=(300, method.votes_per_codeword(8))) * 2 - 1
            samples = np.array([
                pmepr(dfts_ofdm_modulate(synthesize_coeffs(vote_pattern(method, v), rp), 4))
                for v in votes
            ])
            expected = {f"pmepr_dfts_{tag}_db": float(np.quantile(samples, q))
                        for q, tag in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"),
                                       (0.999, "p999"))}
            expected["pmepr_dfts_mean_db"] = float(samples.mean())
            expected["pmepr_dfts_max_db"] = float(samples.max())
            got = {r.metric: r.value for r in rows if r.method == name}
            assert got == pytest.approx(expected, rel=1e-12)

    def test_rmse_rows(self):
        cfg = make_cfg(experiment="rmse", methods=("ideal",), k_values=(4,),
                       rounds=40, realizations=5, n_plus=None)
        rows = run_experiment(cfg)
        finals = [r for r in rows if r.metric == "rmse_final"]
        assert len(finals) == 1 and finals[0].value >= 0.0


class TestCsv:
    def test_byte_identical_across_threads(self, tmp_path):
        texts = []
        for threads in (1, 3):
            cfg = make_cfg(trials=2_500, realizations=2, threads=threads,
                           methods=("indexed",))
            rows = run_experiment(cfg)
            texts.append(write_csv(rows, replace(cfg, out=str(tmp_path / f"t{threads}.csv"))))
        # thread count appears only in the echo comment; data rows identical
        assert texts[0].splitlines()[1:] == texts[1].splitlines()[1:]

    @pytest.mark.parametrize("experiment, overrides", [
        ("rmse", dict(methods=("ideal", "uncoded", "differential", "indexed",
                               "goldenbaum", "obda_phase"),
                      k_values=(4, 8), snr_db=(5.0, math.inf), rounds=15,
                      realizations=4, n_plus=None)),
        ("theory", dict(methods=("uncoded", "differential", "indexed"),
                        k_values=(4, 8), snr_db=(0.0, 10.0), n_plus=(1, 3, 4),
                        realizations=5)),
    ])
    def test_sweep_bytes_do_not_depend_on_threads(self, tmp_path, experiment, overrides):
        """The rmse and theory sweeps write the same data rows at one and two
        threads; only the echo line names the thread count."""
        texts = []
        for threads in (1, 2):
            cfg = make_cfg(experiment=experiment, threads=threads, **overrides)
            out = str(tmp_path / f"{experiment}{threads}.csv")
            texts.append(write_csv(run_experiment(cfg), replace(cfg, out=out)))
        first, second = (text.splitlines() for text in texts)
        assert "threads=1" in first[0] and "threads=2" in second[0]
        assert len(first) > 2 and first[1:] == second[1:]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = make_cfg(trials=1_000, methods=("differential",), realizations=2)
        a = write_csv(run_experiment(cfg), replace(cfg, out=str(tmp_path / "a.csv")))
        b = write_csv(run_experiment(cfg), replace(cfg, out=str(tmp_path / "b.csv")))
        assert a == b
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_schema_header(self, tmp_path):
        cfg = make_cfg(trials=300, methods=("indexed",), realizations=0)
        text = write_csv(run_experiment(cfg), replace(cfg, out=str(tmp_path / "c.csv")))
        lines = text.splitlines()
        assert lines[0].startswith("# airmv")
        assert lines[1] == "experiment,method,K,U,L_e,rho,snr_db,n_plus,metric,value,stderr"

    # sha256 of the CSV bytes of two small baseline runs, recorded before the
    # baselines became vectorized aggregate backends: they pin the order of
    # every random draw (the echo line names the thread count, hence a pair).
    # All four were re-recorded when Goldenbaum began to draw phases and taps
    # only for its senders, with each sender's first chip at phase 0: the
    # same law, with other draws; only the goldenbaum rows moved. Before
    # that, at 4e5 trials a cell (K = 8, 32, 128, U = 25, L_e = 5, n_plus =
    # 10, 12, 13, 16, 0 and 10 dB), its CER agreed with the old draws within
    # |z| <= 1.87, and the mean RMSE of its K=8 medians (U = 25, 10 dB, 100
    # realizations, 500 rounds, 24 seeds) at every round within |z| <= 0.72.
    # All four were re-recorded again when Goldenbaum began to draw the
    # received energy from its law given the sequences (z^H C z, one unit
    # window z per trial and position, no taps): only the goldenbaum rows
    # moved. Before that, on the same 24 cells at 4e5 trials its CER agreed
    # with the tap draws within |z| <= 2.02 (rms 0.81), and the same median
    # RMSE over 24 seeds a side at every round within |z| <= 1.60.
    # All four were re-recorded once more when OBDA began to draw Re y from
    # its law given the votes (activity uniforms, cos of the phase errors,
    # real noise; no taps): only the obda, obda_phase and obda_no_tci rows
    # moved. Before that, at 4e5 trials a cell over the same 24 cells, each
    # OBDA method's CER agreed with the tap draws within |z| <= 1.57 (obda),
    # 2.57 (obda_phase) and 1.43 (obda_no_tci), rms 0.99, 1.03 and 0.58 per
    # method, and the mean RMSE of their K=8 medians (U = 25, 10 dB, 100
    # realizations, 500 rounds, 24 seeds a side) at every round within
    # |z| <= 1.25, 1.16 and 1.09.
    PINNED = {
        ("cer", "1"): "808b42c41f4882e2c2ac26a610e85e532871cd933a8695f19411f8550c451e31",
        ("cer", "2"): "e6ebabe467b716c1214241be358faa255cd4fbd0856590e2c9f4a115d100175f",
        ("rmse", "1"): "46d86b4d43e716ebb8a2728af090768c1373cc0053123dae1e1ddd0746626782",
        ("rmse", "2"): "cb653821ea2ee5d6747a4c741b13bd38fa407c529da487607254a5facfe66794",
    }
    PIN_ARGV = {
        "cer": ["cer", "--methods", "goldenbaum,obda,obda_phase,obda_no_tci",
                "--k", "8", "--u", "7", "--l-e", "3", "--rho", "0.8",
                "--snr", "0,10", "--n-plus", "0:7", "--trials", "300",
                "--realizations", "0", "--seed", "11"],
        "rmse": ["rmse", "--methods", "ideal,goldenbaum,obda,obda_phase,obda_no_tci",
                 "--k", "8", "--u", "9", "--l-e", "3", "--rho", "0.8", "--snr", "5",
                 "--rounds", "20", "--realizations", "6", "--seed", "11"],
    }

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("experiment", ["cer", "rmse"])
    def test_baseline_csv_bytes_pinned(self, tmp_path, experiment, threads):
        out = tmp_path / "pin.csv"
        argv = self.PIN_ARGV[experiment] + ["--threads", threads, "--out", str(out)]
        assert main(argv) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINNED[experiment, threads]

    # sha256 of a small cer run (at one and two threads) and rmse run of the
    # zero-encoded schemes: K=2 has one vote per coded codeword, and snr inf
    # draws no noise. The cer pair was re-recorded when the Monte Carlo's
    # one-vote engines began to draw one normal per probe instead of each
    # user's channel: the same law, with other draws. Before that, at 4e5
    # trials a cell, this grid and the benchmark's cer legs agreed with the
    # per-user draw within |z| <= 2.42. The rmse pin was re-recorded when
    # every indexed engine, the median's m3 included, began to draw one
    # normal per probe instead of one channel per codeword sent: again the
    # same law with other draws. Before that, the mean RMSE of indexed
    # medians (K=8 and 128, U=25, L_e=5, 10 dB, 100 realizations, 500
    # rounds, 24 seeds) agreed with the old draw at every recorded round
    # within |z| <= 1.16. All three were re-recorded, with only their m3
    # rows moving, when the indexed engine began to draw its signal only at
    # the (trial, probe) cells somebody sends to and its noise through the
    # DFT of the circulant C_W's eigen-draws: the same law, other draws.
    # Before that, indexed `simulate_cer` (U=25, L_e=5, 800k trials a cell
    # a side over two seed pairs) agreed with the old draw at K=8, 32 and
    # 128, n_plus 10, 12, 13 and 16, 0 and 10 dB within |z| <= 2.84 (chi^2
    # 31.1 on 24 cells, p = 0.15; the |z| = 2.84 cell read -0.97 at 4e6
    # more trials a side), and the mean RMSE of indexed medians (K=8 and
    # 128, 24 seeds a side, as above) within |z| <= 1.50 at every round.
    # All three were re-recorded again, with only their uncoded and
    # differential rows moving (cer: n_plus 0 and 5 at 0 dB), when those
    # engines stopped drawing normals at silent probes and the multi-vote
    # engines began to draw each user's taps: the same law, other draws.
    # `scripts/law_check.py` at its defaults then read (CHANGES.md has the
    # output): simulate_cer against the exact law over 72 cells (K = 8, 32,
    # 128, U = 25, n_plus 0-25, 0 and 10 dB, 4e5 trials) |z| <= 2.94
    # (Sidak bound 4.12, chi^2 64.5, p = 0.72); old against new draws at
    # n_plus 0 and 25, |z| <= 2.76 over 24 cells (bound 3.86); the mean
    # RMSE per round of uncoded and differential medians at K = 2, 8 and 32
    # (24 seeds a side, 200 rounds) |z| <= 2.67 over 1200 cells (bound 4.73).
    ZERO_PINNED = {
        ("cer", "1"): "5042fcb0f930ed6d72cf997c5832df140f8f4c82ce3e3184a774d0b409854123",
        ("cer", "2"): "69980a805a28cfe5faf6c1f974ad5d216ebf63fb70f86339ea24a26ab3487818",
        ("rmse", "1"): "a7aa961fa66f85fac794807cded2c6316ccec5ddb2e47ba09c1c32cecb1125c7",
    }
    ZERO_ARGV = {
        "cer": ["cer", "--methods", "m1,m2,m3", "--k", "2,8", "--u", "5",
                "--l-e", "2", "--rho", "0.8", "--snr", "0,inf", "--n-plus", "0:5",
                "--trials", "300", "--realizations", "0", "--seed", "13"],
        "rmse": ["rmse", "--methods", "ideal,m1,m2,m3", "--k", "8", "--u", "9",
                 "--l-e", "3", "--rho", "0.8", "--snr", "5,inf", "--rounds", "20",
                 "--realizations", "6", "--seed", "11"],
    }

    @pytest.mark.parametrize("experiment, threads", sorted(ZERO_PINNED))
    def test_zero_encoded_csv_bytes_pinned(self, tmp_path, experiment, threads):
        out = tmp_path / "pin.csv"
        argv = self.ZERO_ARGV[experiment] + ["--threads", threads, "--out", str(out)]
        assert main(argv) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.ZERO_PINNED[experiment, threads]

    def test_pmepr_csv_bytes_pinned(self, tmp_path):
        """sha256 of a small pmepr run, recorded while the sweep still
        modulated one codeword per call: batching the waveform layer along
        the last axis moves no byte."""
        out = tmp_path / "pin.csv"
        assert main(["pmepr", "--k", "8,32", "--methods", "m1,m2,m3",
                     "--codewords", "500", "--seed", "5", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "e0d0a25e199a2b14fc3b029b01832b1eadf37ab05406f026fa12b15a2a43a007"

    def test_pmepr_prime_length_csv_bytes_pinned(self, tmp_path):
        """sha256 of a pmepr run at K=16 and 256, where the K+1 coefficients
        have a prime length, recorded while the synthesis still applied a
        direct (K+1)-point transform matrix."""
        out = tmp_path / "pin.csv"
        assert main(["pmepr", "--seed", "3", "--k", "16,256", "--methods", "m1,m2,m3",
                     "--codewords", "500", "--oversampling", "4", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "70755a8f0fe7b44bd710ad6677c6fc2856cb4533128d6f42318fa51b9e1f4785"

    def test_theory_csv_bytes_pinned(self, tmp_path):
        """sha256 of a small theory run, recorded while every realization
        still had its own rate-building call: uncoded, differential and
        indexed, K=2 (one vote for the coded schemes), uncoded's nonzero
        offset x at 0 dB, and the noiseless level."""
        out = tmp_path / "pin.csv"
        assert main(["theory", "--methods", "m1,m2,m3", "--k", "2,4", "--u", "5",
                     "--l-e", "2", "--rho", "0.8", "--snr", "0,inf", "--n-plus", "0:5",
                     "--realizations", "6", "--seed", "3", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "7940ff48c191e2d173171681097c11e5a2a1bf8020f1d0ba57df69eb40d61ae1"

    def test_multi_phase_theory_csv_bytes_pinned(self, tmp_path):
        """sha256 of a theory run with many phases per side, recorded while
        the phase race still ran once per realization over Python floats:
        indexed K=32 has 16 probes a side, and at snr=inf its realizations
        keep differing counts of finite rates (zero-length phases)."""
        out = tmp_path / "pin.csv"
        assert main(["theory", "--methods", "m1,m2,m3", "--k", "8,32", "--u", "25",
                     "--l-e", "5", "--snr", "0,10,inf", "--n-plus", "14,18,22",
                     "--realizations", "40", "--seed", "1", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "a29b0afdf2078e22c8ac9e6208a77e80346a39c14795d45f18b8c95d7560f2e7"

    def test_cer_with_theory_csv_bytes_pinned(self, tmp_path):
        """sha256 of a small cer run that also writes the cer_theory rows:
        the rows of both metrics interleave per point, U=6 holds a tie, K=2
        one vote per coded codeword, and snr inf draws no noise.

        First recorded while the theory still built its law once per n_plus
        and read the probe diagonals off `probe_moments`' Vandermonde
        products (sha256 fdf89e1f...0db2a95). Re-recorded when they became
        the closed forms `channel_power` and `noise_power` at the probe
        radius, which moved one byte group: the stderr of indexed, K=8, 0 dB,
        n_plus=4, 7.166458808e-17 -> 7.850462293e-17. Its four realizations
        have the same error rate in exact arithmetic, so that stderr is
        rounding residue; every other value of the run is unchanged.
        Re-recorded (from d010ad14...b2a5d4) when the uncoded and
        differential engines stopped drawing normals at silent probes: the
        same law, other draws. Only the Monte Carlo rows of those schemes at
        n_plus 0 and 6, 0 dB, moved; every cer_theory row held. The law
        check behind the zero-encoded pins above covers the move."""
        out = tmp_path / "pin.csv"
        assert main(["cer", "--methods", "m1,m2,m3", "--k", "2,8", "--u", "6",
                     "--l-e", "2", "--rho", "0.8", "--snr", "0,inf", "--n-plus", "0:6",
                     "--trials", "300", "--realizations", "4", "--seed", "13",
                     "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "3e8a069b1fd97d81287254fb3ea231f574fa0cfa9885f4267f9d213eeaee6f4c"


# The 16 flags every subcommand takes: --config and one per option.
FLAGS = {
    "--config", "--seed", "--out", "--trials", "--threads", "--methods", "--k",
    "--u", "--l-e", "--rho", "--snr", "--n-plus", "--realizations", "--rounds",
    "--codewords", "--oversampling",
}


class TestOptionTable:
    """The fields of ExperimentConfig declare the options that the config
    file, the flags and the CSV echo all read."""

    @pytest.mark.parametrize("argv", [
        ["cer", "--methods", "m1,goldenbaum,obda_phase", "--k", "8,16", "--u", "7",
         "--l-e", "3", "--rho", "0.8", "--snr", "0,2.5,inf", "--trials", "300"],
        ["snr", "--k", "16", "--n-plus", "5", "--snr=-3,12", "--threads", "2"],
        ["rmse", "--methods", "ideal,m2", "--k", "8", "--rounds", "40",
         "--realizations", "6"],
        ["pmepr", "--k", "8,32", "--codewords", "500", "--oversampling", "4"],
        ["resources", "--k", "32", "--l-e", "5", "--u", "10", "--out", "res.csv"],
        ["resources", "--k", "8", "--rho", "0.123456789012"],  # past .10g
    ])
    def test_echo_replays_the_configuration(self, tmp_path, argv):
        """The CSV echo, written back as a config file, rebuilds the run's
        configuration: only the output path is left out, and the default
        n_plus sweep comes back spelled out."""
        cfg = config_from_argv(argv + ["--seed", "17"])
        echo = write_csv([], replace(cfg, out=str(tmp_path / "echo.csv"))).splitlines()[0]
        assert echo.startswith("# airmv ")
        replay = tmp_path / "replay.cfg"
        replay.write_text("".join(
            part.replace("=", " = ", 1) + "\n"
            for part in echo[len("# airmv "):].split()
        ))
        values = parse_config_file(str(replay))
        rebuilt = build_config(values["experiment"], values, {})
        assert rebuilt == replace(cfg, out=None, n_plus=cfg.n_plus_values())
        again = write_csv([], replace(rebuilt, out=str(tmp_path / "again.csv")))
        assert again.splitlines()[0] == echo

    @pytest.mark.parametrize("snr, levels", [
        (["--snr", "-3,0"], (-3.0, 0.0)),
        (["--snr=-3,0"], (-3.0, 0.0)),
        (["--snr", "-3"], (-3.0,)),
        (["--snr", "-.5,-2"], (-0.5, -2.0)),
    ])
    def test_negative_snr_list(self, snr, levels):
        """A list that starts with a negative value reads the same spaced
        or after '=', and is not taken for a flag."""
        cfg = config_from_argv(["snr", "--seed", "1", "--k", "8", "--n-plus", "1",
                                "--u", "2", *snr])
        assert cfg.snr_db == levels

    @pytest.mark.parametrize("experiment",
                             ["cer", "snr", "pmepr", "rmse", "resources", "theory"])
    def test_every_subcommand_takes_the_same_flags(self, capsys, experiment):
        with pytest.raises(SystemExit) as exc:
            main([experiment, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags - {"--help"} == FLAGS

    @pytest.mark.parametrize("flag, text", [("--u", "x"), ("--k", "8,y")])
    def test_bad_flag_value_message(self, capsys, flag, text):
        """A bad value exits 2 naming the flag and the text, not the
        function that parsed it."""
        with pytest.raises(SystemExit) as exc:
            main(["cer", "--seed", "1", flag, text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        bad = text.split(",")[-1]
        assert f"argument {flag}: expected an integer, got {bad!r}" in err
        assert "_parse" not in err


class TestCli:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main([
            "resources", "--seed", "3", "--k", "32", "--l-e", "5",
            "--u", "10", "--methods", "m1,m2,m3", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "7.4" in text and "1.15625" in text

    def test_missing_seed_fails(self, capsys):
        assert main(["resources", "--k", "32"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_baseline_k_exits_2(self, capsys):
        for argv in (
            ["cer", "--methods", "goldenbaum", "--k", "1", "--u", "5"],
            ["rmse", "--methods", "obda", "--k", "1", "--u", "5"],
            ["rmse", "--methods", "ideal", "--k", "1", "--u", "5"],
        ):
            assert main(argv + ["--seed", "1", "--trials", "10", "--rounds", "2",
                                "--realizations", "1"]) == 2
            assert "airmv: configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "1", "-4"])
    def test_k_below_2_exits_2(self, capsys, k):
        """`--k 0` used to write OBDA rows with K=0; the backend's own K rule,
        the one config calls, refuses every K below 2 before any run."""
        argv = ["cer", "--k", k, "--methods", "obda", "--u", "2", "--n-plus", "1",
                "--seed", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"airmv: configuration error: obda at K={k}: K must be at least 2" in err

    def test_out_must_name_a_file(self, tmp_path, capsys, monkeypatch):
        """An empty or directory output path used to fail in write_csv, after
        the whole sweep had run; it is refused before any trial."""
        monkeypatch.setattr(cli, "run_experiment", None)
        argv = ["cer", "--seed", "1", "--k", "4", "--u", "3", "--methods", "m2",
                "--trials", "10", "--realizations", "0"]
        cfg_file = tmp_path / "out.cfg"
        cfg_file.write_text("out =\n")
        for extra, out in ((["--out", ""], ""),
                           (["--out", str(tmp_path)], str(tmp_path)),
                           (["--config", str(cfg_file)], "")):
            assert main(argv + extra) == 2
            err = capsys.readouterr().err
            assert f"airmv: configuration error: out={out!r} must name a file" in err

    def test_unreadable_config_file_exits_2(self, tmp_path, capsys):
        """A config file that is missing, a directory or not UTF-8 is a
        configuration error naming the file, not a traceback."""
        latin = tmp_path / "latin.cfg"
        latin.write_bytes("seed = 1  # caf\xe9\n".encode("latin-1"))
        for path in (tmp_path / "missing.cfg", tmp_path, latin):
            assert main(["resources", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"cannot read the config file {str(path)!r}" in err
            assert err.startswith("airmv: configuration error")

    @pytest.mark.parametrize("experiment",
                             ["cer", "theory", "pmepr", "rmse", "resources"])
    def test_uncoded_k1_exits_2(self, capsys, experiment):
        """K=1 has no zero-pair radius; the configuration says so instead of
        a traceback from deep inside the run."""
        assert main([experiment, "--seed", "1", "--k", "1", "--methods", "m1"]) == 2
        err = capsys.readouterr().err
        assert "airmv: configuration error" in err and "uncoded at K=1" in err

    @pytest.mark.parametrize("snr", ["nan", "-inf", "0,NaN",
                                     "-Inf", "-INF", "-Infinity", "-nan"])
    @pytest.mark.parametrize("experiment", ["cer", "theory", "rmse"])
    def test_snr_that_is_not_a_level_exits_2(self, capsys, tmp_path, experiment, snr):
        """A NaN SNR used to end in a traceback (cer, theory) or in a garbage
        RMSE (rmse), and -inf in CERs of infinite noise; both are refused,
        from the command line and from a configuration file. A value after a
        space that starts with '-' reaches the same rule in any case
        (`--snr -Inf` used to exit with argparse's "expected one argument")."""
        argv = [experiment, "--seed", "1", "--k", "8", "--methods", "m2", "--u", "5",
                "--trials", "10", "--rounds", "3", "--realizations", "2"]
        if experiment != "rmse":
            argv += ["--n-plus", "3"]
        cfg_file = tmp_path / "snr.cfg"
        cfg_file.write_text(f"snr_db = {snr}\n")
        for extra in ([f"--snr={snr}"], ["--snr", snr], ["--config", str(cfg_file)]):
            assert main(argv + extra + ["--out", str(tmp_path / "x.csv")]) == 2
            err = capsys.readouterr().err
            assert "airmv: configuration error: SNR" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("experiment", ["cer", "theory", "rmse"])
    def test_overflowing_probe_energy_exits_2(self, capsys, tmp_path, experiment):
        """At K=2 and L_e=1100 the channel power at radius d = sqrt(2) is
        about 2^1099 / 1100, past the largest float: cer wrote cer=1 from NaN
        decisions, theory raised 'all rates must be strictly positive' and
        rmse could raise LinAlgError. The link is refused before any trial."""
        out = tmp_path / "x.csv"
        argv = [experiment, "--seed", "1", "--k", "2", "--l-e", "1100", "--methods",
                "m3", "--u", "3", "--trials", "100", "--rounds", "3",
                "--realizations", "0" if experiment == "cer" else "2", "--out", str(out)]
        if experiment != "rmse":
            argv += ["--n-plus", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("airmv: configuration error: K=2, L_e=1100, U=3, SNR 10.0 dB: the "
                "expected probe energy inf overflows") in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, method, K", [
        ("cer", "m3", 4096), ("rmse", "m3", 4096), ("theory", "m3", 4096),
        ("snr", "m1", 2200), ("cer", "m1", 2200), ("pmepr", "m1", 2200),
    ])
    def test_zero_encoded_k_past_2048_exits_2(self, capsys, tmp_path, experiment,
                                              method, K):
        """Past K=2048 the zero form's running product overflows: at K=4096
        cer printed CER 0.91 from NaN probe tables and rmse an RMSE of 9.2e16
        from NaN decisions cast to int; at K=2200 the uncoded scale
        underflowed to 0 and the pmepr product overflowed. The run is
        refused before any trial."""
        out = tmp_path / "x.csv"
        argv = [experiment, "--seed", "1", "--k", str(K), "--methods", method,
                "--u", "3", "--n-plus", "2", "--trials", "10", "--rounds", "1",
                "--realizations", "1", "--codewords", "1", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"airmv: configuration error: K={K}: a zero-encoded codeword" in err
        assert "past K=2048" in err
        assert not out.exists()

    def test_zero_encoded_k_2048_validates(self):
        # pmepr stops earlier, at its table budget
        # (`TestRunners::test_pmepr_refuses_k_past_its_table_budget`).
        for experiment in ("cer", "snr", "theory", "rmse"):
            for method in ("uncoded", "differential", "indexed"):
                cfg = make_cfg(experiment=experiment, methods=(method,), k_values=(2048,),
                               n_plus=(3,))
                assert cfg.k_values == (2048,)

    def test_baselines_and_resources_take_any_k(self):
        assert make_cfg(methods=("obda", "goldenbaum"), k_values=(4096,)).k_values == (4096,)
        cfg = make_cfg(experiment="resources", methods=("indexed",), k_values=(4096,))
        assert cfg.k_values == (4096,)

    def test_overflowing_noise_power_exits_2(self, capsys):
        """`--snr -3100` raised OverflowError from `ExperimentConfig.sigma2`
        in the middle of the run."""
        argv = ["cer", "--seed", "1", "--k", "8", "--u", "3", "--n-plus", "2",
                "--methods", "m2", "--trials", "100", "--realizations", "0"]
        assert main(argv + ["--snr", "-3100"]) == 2
        err = capsys.readouterr().err
        assert "airmv: configuration error: SNR -3100.0 dB: the noise power overflows" in err
        # The bound is on the energy, not a fixed SNR floor: -1530 dB at
        # K=2 and one user stays below it, at K=8 it does not.
        link = dict(snr_db=(-1530.0,), U=1, n_plus=(1,), methods=("differential",))
        make_cfg(k_values=(2,), **link)
        with pytest.raises(ConfigError, match="K=8, L_e=1, U=1, SNR -1530.0 dB"):
            make_cfg(k_values=(2, 8), **link)

    def test_config_file_with_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "seed = 9\nk = 4\nu = 5\ntrials = 200\nmethods = m3\n"
            "n_plus = 4\nrealizations = 2\n"
        )
        out = tmp_path / "cer.csv"
        code = main(["cer", "--config", str(cfg_file), "--trials", "300",
                     "--out", str(out)])
        assert code == 0
        assert "trials=300" in out.read_text().splitlines()[0]

    def test_cer_sweep_runs(self, tmp_path):
        out = tmp_path / "snr.csv"
        code = main([
            "snr", "--seed", "11", "--k", "4", "--u", "5", "--methods", "m2",
            "--snr", "0,10", "--n-plus", "4", "--trials", "500",
            "--realizations", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 2 * 2  # echo + header + (cer+theory) x 2 SNRs


def test_infinite_snr_runs_noiseless(tmp_path):
    out = tmp_path / "noiseless.csv"
    code = main([
        "cer", "--seed", "5", "--k", "4", "--u", "5", "--methods", "m2",
        "--n-plus", "5", "--snr", "inf", "--trials", "500",
        "--realizations", "0", "--out", str(out),
    ])
    assert code == 0
    row = [l for l in out.read_text().splitlines() if l.startswith("cer,")][0]
    assert ",inf," in row
    assert row.split(",")[-2] == "0"  # unanimous noiseless: no errors


def script_commands(path: Path) -> list[list[str]]:
    """The argv of every `airmv` command in a shell script, continuation
    lines joined, once per value of each loop variable it uses, with the
    `VAR="${VAR:-default}"` defaults substituted."""
    text = path.read_text().replace("\\\n", " ")
    env = dict(re.findall(r'^(\w+)="\$\{\1:-([^}]*)\}"', text, re.M))
    loops = dict(re.findall(r"^\s*for (\w+) in ([^;]+); do", text, re.M))
    commands = []
    for line in text.splitlines():
        if not line.strip().startswith("airmv "):
            continue
        used = [v for v in loops if re.search(rf"\$\{{?{v}\b", line)]
        for values in itertools.product(*(loops[v].split() for v in used)):
            subst = {**env, **dict(zip(used, values))}
            expanded = re.sub(r"\$\{?(\w+)\}?", lambda m: subst[m.group(1)], line)
            commands.append(shlex.split(expanded)[1:])
    return commands


def test_experiment_script_commands_configure(tmp_path, monkeypatch):
    """Every sweep of scripts/run_experiments.sh parses and passes
    validation (nothing is run), with its output directory made first as
    the script's `mkdir -p "$OUT"` makes it."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.sh"
    commands = script_commands(script)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").mkdir()
    # cer: 3 K x 2 profiles; snr: 2 profiles; pmepr; resources; rmse: 2.
    assert len(commands) == 12
    for argv in commands:
        cfg = config_from_argv(argv)
        assert cfg.experiment == argv[0]
