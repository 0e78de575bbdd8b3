"""Experiment configuration: flat key=value files, typed coercion, validation.

CLI flags override file values. A master seed is mandatory so every
published run is replayable byte for byte.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .aggregation import OWN_DRAWS, backend_votes, scored_column, table_rows
from .baselines import BASELINES
from .channel import PdpConfig
from .decoding import channel_power, noise_power
from .encoding import Method
from .huffman import radius_param
from .median import votes_per_round

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_file", "build_config"]

EXPERIMENTS = {
    "cer": "computation-error rate vs the positive-vote count",
    "snr": "computation-error rate vs SNR at a fixed vote split",
    "pmepr": "peak-to-mean envelope power of transmitted blocks",
    "rmse": "distributed median computation error over rounds",
    "resources": "resources consumed per majority-vote computation",
    "theory": "analytical computation-error rate only",
}
PROPOSED = tuple(m.value for m in Method)
# The largest noise power and expected probe energy a run takes: its square
# is still a finite float, so the second moments of the energies are too.
_MAX_ENERGY = math.sqrt(sys.float_info.max)
# The largest K of a zero-encoded run: past it the running product of a
# codeword's K zero factors (and the uncoded detector's scale) leaves the
# float range.
_MAX_ZERO_K = 2048
# The largest byte tables of a pmepr run: the uncoded tables on the
# (K+1)-point grid, built once per K, take (K/8) 256 (K+1) 16 B, so K = 512
# (134 MB) is accepted and K = 1024 (537 MB) refused.
_MAX_PMEPR_TABLE_BYTES = 256 << 20


class ConfigError(ValueError):
    pass


def _parse_float(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return float(t)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    items = [p for p in text.replace(";", ",").split(",") if p.strip()]
    out: list[int] = []
    for item in items:
        if ":" in item:
            lo, hi = (_parse_int(end) for end in item.split(":", 1))
            if hi < lo:
                raise ConfigError(f"reversed range {item.strip()!r} in {text!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_parse_int(item))
    if not out:
        raise ConfigError(f"expected at least one integer in {text!r}")
    return tuple(out)


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if not items:
        raise ConfigError(f"expected at least one number in {text!r}")
    return tuple(_parse_float(p) for p in items)


def _parse_methods(text: str) -> tuple[str, ...]:
    names = []
    for raw in text.replace(";", ",").split(","):
        name = raw.strip().lower()
        if not name:
            continue
        if name not in OWN_DRAWS:
            try:
                name = Method.from_name(name).value
            except ValueError:
                raise ConfigError(f"unknown method {raw.strip()!r}") from None
        names.append(name)
    if not names:
        raise ConfigError("method list is empty")
    return tuple(names)


def _option(default, key, flag, parse, help):
    return field(default=default,
                 metadata={"key": key, "flag": flag, "parse": parse, "help": help})


@dataclass
class ExperimentConfig:
    """One experiment's options. Each field declares its option once, as
    `_option(default, file key, flag, parser, help)`: the key names it in a
    config file and in the CSV echo, the flag on the command line (None for
    the experiment, which is the subcommand), and the parser reads either's
    text."""

    experiment: str = _option(MISSING, "experiment", None,
                              lambda s: s.strip().lower(), None)
    methods: tuple[str, ...] = _option(
        PROPOSED, "methods", "--methods", _parse_methods,
        "comma list, e.g. uncoded,differential,indexed,goldenbaum,obda")
    k_values: tuple[int, ...] = _option(
        (16,), "k", "--k", _parse_int_list, "zeros per codeword, e.g. 8,16,32")
    U: int = _option(25, "u", "--u", _parse_int, "number of transmitters")
    L_e: int = _option(1, "l_e", "--l-e", _parse_int, "effective channel taps")
    rho: float = _option(1.0, "rho", "--rho", _parse_float,
                         "delay-profile decay constant in (0, 1]")
    snr_db: tuple[float, ...] = _option(
        (10.0,), "snr_db", "--snr", _parse_float_list,
        "SNR values in dB ('inf' for noiseless)")
    n_plus: tuple[int, ...] | None = _option(
        None, "n_plus", "--n-plus", _parse_int_list,
        "positive-vote counts, e.g. 22 or 0:25")
    trials: int = _option(100_000, "trials", "--trials", _parse_int,
                          "Monte Carlo trials per sweep point")
    realizations: int = _option(100, "realizations", "--realizations", _parse_int,
                                "vote realizations for theory / median runs")
    rounds: int = _option(500, "rounds", "--rounds", _parse_int,
                          "median communication rounds")
    codewords: int = _option(10_000, "codewords", "--codewords", _parse_int,
                             "sampled codewords for pmepr")
    oversampling: int = _option(16, "oversampling", "--oversampling", _parse_int,
                                "time-domain oversampling factor")
    seed: int | None = _option(None, "seed", "--seed", _parse_int,
                               "master seed (required here or in the file)")
    out: str | None = _option(None, "out", "--out", lambda s: s.strip(),
                              "output CSV path (default: stdout)")
    threads: int = _option(1, "threads", "--threads", _parse_int,
                           "worker threads for trial batches")

    def sigma2(self, snr_db: float) -> float:
        return 0.0 if math.isinf(snr_db) else 10.0 ** (-snr_db / 10.0)

    def n_plus_values(self) -> tuple[int, ...]:
        if self.n_plus is not None:
            return self.n_plus
        return tuple(range(self.U + 1))


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; '#' starts a comment; keys are typed."""
    by_key = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read the config file {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        option = by_key.get(key.lower())
        if option is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[option.name] = option.metadata["parse"](text)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def build_config(experiment: str, file_values: dict, overrides: dict) -> ExperimentConfig:
    """Merge file values and CLI overrides (overrides win), then validate."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    merged["experiment"] = experiment
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
    cfg = ExperimentConfig(**merged)
    _validate_config(cfg)
    return cfg


def _probe_energy(K: int, cfg: ExperimentConfig, sigma2: float) -> float:
    """A bound on the expected energy E|R(z)|^2 at the outer radius |z| = d.

    Each of the U users adds |P(z)|^2 E|H(z)|^2, and |P(z)|^2 is at most
    (K+1) sum_{n<=K} d^{2n} by Cauchy-Schwarz on its K+1 coefficients of
    squared norm K+1; the noise adds its own power there.
    """
    d = radius_param(K).d
    with np.errstate(over="ignore"):
        codeword = noise_power(d, K + 1, K, 1)  # (K+1) sum_{n<=K} d^{2n}
        channel = channel_power(d, PdpConfig(cfg.L_e, cfg.rho))
        return cfg.U * codeword * channel + noise_power(d, sigma2, K, cfg.L_e)


def _pmepr_table_bytes(K: int) -> int:
    """Bytes of the pmepr sweep's complex uncoded `probe_tables` at K, each
    with a column per point of the K+1 point grid."""
    return 16 * table_rows(Method.UNCODED, K) * (K + 1)


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if cfg.seed is None:
        raise ConfigError("a master seed is required (set --seed or seed=...)")
    if cfg.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if cfg.U < 1:
        raise ConfigError("need at least one transmitter")
    if cfg.L_e < 1:
        raise ConfigError("L_e must be at least 1")
    if not (0.0 < cfg.rho <= 1.0):
        raise ConfigError("rho must lie in (0, 1]")
    if cfg.trials < 1:
        raise ConfigError("trials must be positive")
    if cfg.threads < 1:
        raise ConfigError("threads must be positive")
    if cfg.out is not None:
        if not cfg.out or os.path.isdir(cfg.out):
            raise ConfigError(f"out={cfg.out!r} must name a file")
        if not os.path.isdir(os.path.dirname(cfg.out) or "."):
            raise ConfigError(f"the directory of out={cfg.out!r} does not exist")
    if not cfg.snr_db:
        raise ConfigError("the SNR list must not be empty")
    for snr_db in cfg.snr_db:
        if math.isnan(snr_db) or snr_db == -math.inf:
            raise ConfigError(f"SNR {snr_db} dB is not a level ('inf' is noiseless)")
        if -snr_db / 10.0 > math.log10(_MAX_ENERGY):
            raise ConfigError(
                f"SNR {snr_db} dB: the noise power overflows below "
                f"{-10.0 * math.log10(_MAX_ENERGY):.1f} dB"
            )
    if cfg.experiment in ("cer", "snr", "theory", "rmse", "pmepr"):
        if not cfg.k_values:
            raise ConfigError("at least one K is required")

    allowed = set(PROPOSED + BASELINES)
    if cfg.experiment == "rmse":
        allowed.add("ideal")
    if cfg.experiment in ("theory", "pmepr", "resources"):
        allowed = set(PROPOSED)
    bad = [m for m in cfg.methods if m not in allowed]
    if bad:
        raise ConfigError(
            f"methods {bad} are not valid for the {cfg.experiment} experiment"
        )

    # Each scheme's K rule is the one its runs call: the median's votes per
    # round, or the backend's votes.
    k_rule = votes_per_round if cfg.experiment == "rmse" else backend_votes
    for name in cfg.methods:
        for K in cfg.k_values:
            try:
                k_rule(name, K)
            except ValueError as exc:
                raise ConfigError(f"{name} at K={K}: {exc}") from exc

    for n_plus in cfg.n_plus_values():
        try:
            scored_column(cfg.U, n_plus)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    coded = set(PROPOSED).intersection(cfg.methods)
    if coded and cfg.experiment in ("cer", "snr", "theory", "rmse", "pmepr"):
        for K in cfg.k_values:
            if K > _MAX_ZERO_K:
                raise ConfigError(
                    f"K={K}: a zero-encoded codeword is evaluated as the running "
                    f"product of its K zero factors, which leaves the float range "
                    f"past K={_MAX_ZERO_K}"
                )
    if cfg.experiment == "pmepr":
        for K in cfg.k_values:
            if _pmepr_table_bytes(K) > _MAX_PMEPR_TABLE_BYTES:
                raise ConfigError(
                    f"K={K}: the pmepr byte tables would take "
                    f"{_pmepr_table_bytes(K):,} bytes, past the "
                    f"{_MAX_PMEPR_TABLE_BYTES:,}-byte budget"
                )
    if coded and cfg.experiment in ("cer", "snr", "theory", "rmse"):
        snr_db = min(cfg.snr_db)
        for K in cfg.k_values:
            energy = _probe_energy(K, cfg, cfg.sigma2(snr_db))
            if not energy <= _MAX_ENERGY:
                raise ConfigError(
                    f"K={K}, L_e={cfg.L_e}, U={cfg.U}, SNR {snr_db} dB: the "
                    f"expected probe energy {energy:.3g} overflows "
                    f"(at most {_MAX_ENERGY:.3g})"
                )

    if cfg.experiment == "snr" and len(cfg.n_plus_values()) != 1:
        raise ConfigError("the snr experiment sweeps SNR at a single n_plus")
    if cfg.experiment in ("rmse", "theory") and cfg.realizations < 1:
        raise ConfigError("realizations must be positive")
    if cfg.experiment in ("cer", "snr") and cfg.realizations < 0:
        raise ConfigError("realizations must be nonnegative (0 skips the theory)")
    if cfg.experiment == "pmepr" and cfg.codewords < 1:
        raise ConfigError("codewords must be positive")
    if cfg.experiment == "pmepr" and cfg.oversampling < 1:
        raise ConfigError("oversampling must be at least 1")
    if cfg.experiment == "rmse" and cfg.rounds < 1:
        raise ConfigError("rounds must be positive")
