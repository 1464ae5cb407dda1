"""Command-line entry point for the caching proxy."""

from __future__ import annotations

import argparse
import sys

from .proxy import LOG_LEVELS, ProxyConfig, parse_address, run_proxy
from .storage import Policy


def build_parser() -> argparse.ArgumentParser:
    """One option per ``ProxyConfig`` field, defaulting as the config does."""
    default = ProxyConfig._field_defaults
    parser = argparse.ArgumentParser(
        prog="netkv-cache",
        description="Transparent caching proxy for a key-value wire protocol.",
    )
    parser.add_argument("--listen", required=True, type=parse_address, metavar="HOST:PORT",
                        help="address to accept client connections on")
    parser.add_argument("--upstream", required=True, type=parse_address, metavar="HOST:PORT",
                        help="address of the key-value server")
    parser.add_argument("--capacity", required=True, type=int, metavar="N",
                        help="maximum number of cached entries (0 disables caching)")
    parser.add_argument("--policy", default=default["policy"].value,
                        choices=[p.value for p in Policy],
                        help="replacement behavior at capacity (default: %(default)s)")
    parser.add_argument("--log-level", default=default["log_level"], choices=sorted(LOG_LEVELS),
                        help="log verbosity (default: %(default)s)")
    parser.add_argument("--stats-interval", default=default["stats_interval"], type=float,
                        metavar="SECS", help="seconds between stats rows (default: %(default)s)")
    parser.add_argument("--stats-out", default=default["stats_out"], metavar="FILE.csv",
                        help="write a statistics row to this CSV file every interval")
    parser.add_argument("--shutdown-grace", default=default["shutdown_grace"], type=float,
                        metavar="SECS", help="drain period on shutdown (default: %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.policy = Policy(args.policy)
    return run_proxy(ProxyConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
