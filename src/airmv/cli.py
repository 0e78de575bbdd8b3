"""Command-line entry point for the experiment suite."""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields

from .config import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    build_config,
    parse_config_file,
)
from .experiments import run_experiment, write_csv

__all__ = ["config_from_argv", "main"]


def _flag_type(parse):
    """`parse` as an argparse type: a bad value exits 2 with the parser's
    message, which names the text, behind the flag's name."""

    def convert(text: str):
        try:
            return parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _build_parser() -> argparse.ArgumentParser:
    # The options every subcommand takes, built once and shared as a parent.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value configuration file")
    for f in fields(ExperimentConfig):
        option = f.metadata
        if option["flag"] is not None:
            common.add_argument(option["flag"], dest=f.name,
                                metavar=option["key"].upper(),
                                type=_flag_type(option["parse"]), help=option["help"])
    parser = argparse.ArgumentParser(
        prog="airmv",
        description="Over-the-air majority-vote computation experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, summary in EXPERIMENTS.items():
        sub.add_parser(name, help=summary, parents=[common])
    return parser


def config_from_argv(argv=None) -> ExperimentConfig:
    """The validated configuration of a command line, without running it.

    A malformed command line exits through argparse; a configuration the
    experiment cannot take raises ConfigError.
    """
    # `--snr -3,0` and `--snr -Inf` read as `--snr=-3,0` and `--snr=-Inf`:
    # argparse would take a value that starts with '-' and is not one plain
    # number for a flag. The words match in any case, as the parser reads them.
    flags = {"--config", *(f.metadata["flag"] for f in fields(ExperimentConfig))}
    glued: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if (glued and glued[-1] in flags
                and re.match(r"-(\.?\d|inf|nan)", token, re.IGNORECASE)):
            glued[-1] += "=" + token
        else:
            glued.append(token)
    args = _build_parser().parse_args(glued)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("experiment", "config")}
    file_values = parse_config_file(args.config) if args.config else {}
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
