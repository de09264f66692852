"""Command-line entry point.

Usage: cqbrain <command> -c CONFIG
Exit codes: 0 success, 1 configuration/validation error, 2 runtime error
(a CqbrainError or an OSError while a command reads or writes files).
"""
from __future__ import annotations

import argparse
import sys

from ..errors import ConfigError, CqbrainError
from .commands import COMMANDS, SCHEMAS
from .config import load_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cqbrain",
                                     description="MRI slicing, diffusion oversampling, "
                                                 "skull-stripping, and hybrid classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} stage")
        cmd.add_argument("-c", "--config", required=True, help="key = value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](load_config(args.config, SCHEMAS[args.command]))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (CqbrainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
