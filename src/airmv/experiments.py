"""Experiment drivers: sweeps, CSV emission, deterministic stream keying.

Every random quantity derives from (master seed, experiment-local integer
key), so reruns of the same configuration reproduce output byte for byte.
The data rows are also the same whatever the thread count; only the echo
line, which names `threads=N`, differs. Rows are accumulated in a fixed
order and values formatted with a fixed precision.

The pmepr sweep reads only the codewords, so it evaluates each distinct
codeword of its draws once (`huffman.distinct_rows`) and gathers the
PMEPRs back to the draws before the statistics. It reads each codeword's
P(z) on the (K+1)-point grid from the engine's byte tables
(`aggregation.probe_tables`), built once per K and shared by the three
methods: (K/8) * 256 * (K+1) complex values, 0.5 MB at K = 32 and 34 MB
at K = 256.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .aggregation import pack_votes, probe_tables, table_product
from .channel import PdpConfig
from .config import PROPOSED, ExperimentConfig
from .encoding import Method, vote_pattern
from .huffman import (
    distinct_rows,
    grid_coeffs,
    radius_param,
    root_phases,
    synthesize_coeffs,
)
from .median import run_median
from .simulate import simulate_cer, stream
from .theory import CerModel, vote_averaged_cers
from .waveform import (
    dfts_ofdm_modulate,
    ofdm_map_modulate,
    pmepr,
    resources_per_mv,
    separation_resources,
)

__all__ = ["ResultRow", "run_experiment", "write_csv", "CSV_COLUMNS"]

# Stream-key domains keep Monte Carlo, theory, pmepr, and median draws apart.
_DOMAIN_MC = 0
_DOMAIN_THEORY = 1
_DOMAIN_PMEPR = 2
_DOMAIN_MEDIAN = 3

# Distinct codewords per waveform call of the pmepr sweep: bounds the
# transient grid values and coefficients, (chunk, K+1) each, and the
# oversampled signal, (chunk, oversampling * (K+1)), to a few MB.
_PMEPR_CHUNK = 256


@dataclass(frozen=True, kw_only=True)
class ResultRow:
    """One CSV row; the fields are the columns, in order."""

    experiment: str
    method: str
    K: int | None = None
    U: int | None = None
    L_e: int | None = None
    rho: float | None = None
    snr_db: float | None = None
    n_plus: int | None = None
    metric: str
    value: float
    stderr: float | None = None


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".10g")
    return str(value)


def _config_echo(cfg: ExperimentConfig) -> str:
    """Every option but the output path, under its file key, so the line
    read back as a config file replays the run. A float is written as in
    the CSV unless that rounds it, then in full."""
    parts = []
    for f in fields(cfg):
        if f.name == "out":
            continue
        value = cfg.n_plus_values() if f.name == "n_plus" else getattr(cfg, f.name)
        texts = [
            repr(v) if isinstance(v, float) and float(_fmt(v)) != v else _fmt(v)
            for v in (value if isinstance(value, tuple) else (value,))
        ]
        parts.append(f"{f.metadata['key']}={','.join(texts)}")
    return "# airmv " + " ".join(parts)


def write_csv(rows, cfg: ExperimentConfig) -> str:
    """Render rows as CSV with one config-echo comment line; write to
    `cfg.out` (or stdout) and return the text."""
    buf = io.StringIO()
    buf.write(_config_echo(cfg) + "\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS) + "\n")
    text = buf.getvalue()
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text


def _theory_group(cfg, method_name, K, snr_db, key):
    """The predictions of every n_plus of one (K, SNR, method), each from
    its own stream, against one law."""
    model = CerModel(
        Method.from_name(method_name),
        radius_param(K),
        PdpConfig(cfg.L_e, cfg.rho),
        cfg.sigma2(snr_db),
    )
    n_plus_values = cfg.n_plus_values()
    rngs = [stream(cfg.seed, _DOMAIN_THEORY, *key, n_plus) for n_plus in n_plus_values]
    return vote_averaged_cers(cfg.U, n_plus_values, model, rngs, cfg.realizations)


def _run_cer(cfg: ExperimentConfig, with_simulation: bool) -> list[ResultRow]:
    rows = []
    pdp_cfg = PdpConfig(cfg.L_e, cfg.rho)
    for ki, K in enumerate(cfg.k_values):
        for si, snr_db in enumerate(cfg.snr_db):
            sigma2 = cfg.sigma2(snr_db)
            for mi, name in enumerate(cfg.methods):
                # One theory law for every n_plus: it depends on none of
                # them. simulate_cer builds its own backend per point, a
                # build far cheaper than the point's trials.
                theory = (_theory_group(cfg, name, K, snr_db, (ki, si, mi))
                          if name in PROPOSED and cfg.realizations > 0 else None)
                for ni, n_plus in enumerate(cfg.n_plus_values()):
                    key = (ki, si, mi, n_plus)
                    common = dict(
                        experiment=cfg.experiment, method=name, K=K, U=cfg.U,
                        L_e=cfg.L_e, rho=cfg.rho, snr_db=snr_db, n_plus=n_plus,
                    )
                    if with_simulation:
                        p, se = simulate_cer(
                            name, K, cfg.U, n_plus, pdp_cfg, sigma2, cfg.trials,
                            cfg.seed, (_DOMAIN_MC,) + key, cfg.threads,
                        )
                        rows.append(ResultRow(metric="cer", value=p, stderr=se,
                                              **common))
                    if theory is not None:
                        rows.append(ResultRow(metric="cer_theory",
                                              value=theory[ni].probability,
                                              stderr=theory[ni].stderr, **common))
    return rows


def _run_pmepr(cfg: ExperimentConfig) -> list[ResultRow]:
    rows = []
    quantiles = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999"))
    for ki, K in enumerate(cfg.k_values):
        rp = radius_param(K)
        # Contiguous-subcarrier mapping: one deterministic value per K
        # (the impulse-like autocorrelation fixes the whole power envelope).
        ref = synthesize_coeffs(np.zeros(K, dtype=bool), rp)
        rows.append(ResultRow(
            experiment=cfg.experiment, method="huffman", K=K,
            metric="pmepr_ofdm_db",
            value=pmepr(ofdm_map_modulate(ref, cfg.oversampling)),
        ))
        # An uncoded vote row is its selection row, so these tables read
        # every method's codewords from their packed selections.
        tables = probe_tables(Method.UNCODED, rp, root_phases(K + 1))
        for mi, name in enumerate(cfg.methods):
            method = Method.from_name(name)
            M = method.votes_per_codeword(K)
            rng = stream(cfg.seed, _DOMAIN_PMEPR, ki, mi)
            # The votes die with the encoding: at K=32 they take 2.5 MB,
            # more than the tables.
            codewords, drawn = distinct_rows(vote_pattern(
                method, rng.integers(0, 2, size=(cfg.codewords, M)) * 2 - 1))
            packed = pack_votes(codewords)
            samples = np.concatenate([
                pmepr(dfts_ofdm_modulate(
                    grid_coeffs(table_product(tables, packed[i : i + _PMEPR_CHUNK])),
                    cfg.oversampling,
                ))
                for i in range(0, len(packed), _PMEPR_CHUNK)
            ])[drawn]
            common = dict(experiment=cfg.experiment, method=name, K=K)
            for q, tag in quantiles:
                rows.append(ResultRow(
                    metric=f"pmepr_dfts_{tag}_db",
                    value=_quantile(samples, q), **common,
                ))
            rows.append(ResultRow(metric="pmepr_dfts_mean_db",
                                  value=float(samples.mean()), **common))
            rows.append(ResultRow(metric="pmepr_dfts_max_db",
                                  value=float(samples.max()), **common))
    return rows


def _quantile(samples: np.ndarray, q: float) -> float:
    """`np.quantile(samples, q)` of 1-D samples, 0 <= q <= 1, in its
    default linear method, without the `np.unique` call that imports
    numpy.ma: the ranks around (n - 1) q (the largest sample, at index -1,
    from n - 1 on), one partition at the same ranks as numpy's, then its
    two-sided interpolation (`_lerp`), which steps down from the upper
    rank when the fraction is at least 1/2. Bitwise equal for finite
    samples, signed zeros included."""
    index = (samples.size - 1) * q
    if index < samples.size - 1:
        lo = math.floor(index)
        hi = lo + 1
    else:
        lo = hi = -1
    part = np.partition(samples, sorted({0, -1, lo, hi}))
    a, b = part[lo], part[hi]
    t = index - lo
    diff = b - a
    return float(b - diff * (1.0 - t) if t >= 0.5 else a + diff * t)


def _run_resources(cfg: ExperimentConfig) -> list[ResultRow]:
    rows = []
    for K in cfg.k_values:
        for name in cfg.methods:
            rows.append(ResultRow(
                experiment=cfg.experiment, method=name, K=K, L_e=cfg.L_e,
                metric="resources_per_mv",
                value=resources_per_mv(Method.from_name(name), K, cfg.L_e),
            ))
    for U in range(1, cfg.U + 1):
        rows.append(ResultRow(
            experiment=cfg.experiment, method="separation", U=U,
            metric="resources_per_mv", value=separation_resources(U),
        ))
    return rows


def _run_rmse(cfg: ExperimentConfig) -> list[ResultRow]:
    rows = []
    pdp_cfg = PdpConfig(cfg.L_e, cfg.rho)
    step = max(1, cfg.rounds // 100)
    record = sorted(set(range(step - 1, cfg.rounds, step)) | {cfg.rounds - 1})
    for ki, K in enumerate(cfg.k_values):
        for si, snr_db in enumerate(cfg.snr_db):
            for mi, name in enumerate(cfg.methods):
                rmse = run_median(
                    name, K, cfg.U, cfg.rounds, cfg.realizations, pdp_cfg,
                    cfg.sigma2(snr_db), cfg.seed, (_DOMAIN_MEDIAN, ki, si, mi),
                )
                common = dict(
                    experiment=cfg.experiment, method=name, K=K, U=cfg.U,
                    L_e=cfg.L_e, rho=cfg.rho, snr_db=snr_db,
                )
                for i in record:
                    rows.append(ResultRow(metric=f"rmse_r{i + 1}",
                                          value=float(rmse[i]), **common))
                rows.append(ResultRow(metric="rmse_final",
                                      value=float(rmse[-1]), **common))
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    if cfg.experiment in ("cer", "snr"):
        return _run_cer(cfg, with_simulation=True)
    if cfg.experiment == "theory":
        return _run_cer(cfg, with_simulation=False)
    if cfg.experiment == "pmepr":
        return _run_pmepr(cfg)
    if cfg.experiment == "resources":
        return _run_resources(cfg)
    if cfg.experiment == "rmse":
        return _run_rmse(cfg)
    raise ValueError(f"unknown experiment {cfg.experiment!r}")
