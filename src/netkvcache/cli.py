"""Command-line entry point for the caching proxy."""

from __future__ import annotations

import argparse
import sys

from .proxy import LOG_LEVELS, ProxyConfig, parse_address, run_proxy
from .storage import Policy


def build_parser() -> argparse.ArgumentParser:
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
    parser.add_argument("--policy", default="noevict",
                        choices=[p.value for p in Policy],
                        help="replacement behavior at capacity (default: noevict)")
    parser.add_argument("--log-level", default="info", choices=sorted(LOG_LEVELS),
                        help="log verbosity (default: info)")
    parser.add_argument("--stats-interval", default=1.0, type=float, metavar="SECS",
                        help="seconds between statistics rows, > 0 (default: 1)")
    parser.add_argument("--stats-out", default=None, metavar="FILE.csv",
                        help="write a statistics row to this CSV file every interval")
    parser.add_argument("--shutdown-grace", default=5.0, type=float, metavar="SECS",
                        help="drain period before sessions are closed on shutdown")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = ProxyConfig(
        listen=args.listen,
        upstream=args.upstream,
        capacity=args.capacity,
        policy=Policy(args.policy),
        log_level=args.log_level,
        stats_interval=args.stats_interval,
        stats_out=args.stats_out,
        shutdown_grace=args.shutdown_grace,
    )
    return run_proxy(config)


if __name__ == "__main__":
    sys.exit(main())
