"""Command-line entry point for the experiment suite."""

from __future__ import annotations

import argparse
import sys

from .config import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    _parse_float_list,
    _parse_int_list,
    _parse_methods,
    build_config,
    parse_config_file,
)
from .experiments import run_experiment, write_csv

_HELP = {
    "cer": "computation-error rate vs the positive-vote count",
    "snr": "computation-error rate vs SNR at a fixed vote split",
    "pmepr": "peak-to-mean envelope power of transmitted blocks",
    "rmse": "distributed median computation error over rounds",
    "resources": "resources consumed per majority-vote computation",
    "theory": "analytical computation-error rate only",
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--seed", type=int, help="master seed (required here or in the file)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per sweep point")
    p.add_argument("--threads", type=int, help="worker threads for trial batches")
    p.add_argument("--methods", type=_parse_methods, metavar="LIST",
                   help="comma list, e.g. uncoded,differential,indexed,goldenbaum,obda")
    p.add_argument("--k", dest="k_values", type=_parse_int_list, metavar="LIST",
                   help="zeros per codeword, e.g. 8,16,32")
    p.add_argument("--u", dest="U", type=int, help="number of transmitters")
    p.add_argument("--l-e", dest="L_e", type=int, help="effective channel taps")
    p.add_argument("--rho", type=float, help="delay-profile decay constant in (0, 1]")
    p.add_argument("--snr", dest="snr_db", type=_parse_float_list, metavar="LIST",
                   help="SNR values in dB ('inf' for noiseless)")
    p.add_argument("--n-plus", dest="n_plus", type=_parse_int_list, metavar="LIST",
                   help="positive-vote counts, e.g. 22 or 0:25")
    p.add_argument("--realizations", type=int,
                   help="vote realizations for theory / median runs")
    p.add_argument("--rounds", type=int, help="median communication rounds")
    p.add_argument("--codewords", type=int, help="sampled codewords for pmepr")
    p.add_argument("--oversampling", type=int, help="time-domain oversampling factor")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airmv",
        description="Over-the-air majority-vote computation experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        _add_common(sub.add_parser(name, help=_HELP[name]))
    return parser


def config_from_argv(argv=None) -> ExperimentConfig:
    """The validated configuration of a command line, without running it.

    A malformed command line exits through argparse; a configuration the
    experiment cannot take raises ConfigError.
    """
    args = _build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("experiment", "config") and value is not None
    }
    file_values = parse_config_file(args.config) if args.config else {}
    file_values.pop("experiment", None)
    return build_config(args.experiment, file_values, overrides)


def main(argv=None) -> int:
    try:
        cfg = config_from_argv(argv)
        rows = run_experiment(cfg)
        write_csv(rows, cfg)
    except ConfigError as exc:
        print(f"airmv: configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
