"""Command-line entry point for the emulation lab."""

from __future__ import annotations

import argparse
import logging
import sys
import time

from ..proxy import parse_address
from ..storage import Policy
from .mockserver import MockKVServer
from .scenario import (
    SCENARIO_DELAYS,
    DelaySpec,
    ScenarioConfig,
    run_capacity_sweep,
    run_scenario,
    summarize,
    summarize_single,
)


def _list_of(convert, count: int | None = None):
    """An argparse type: comma-separated finite values >= 0, ``count`` of them if given."""
    def parse(text: str) -> list:
        values = [convert(x) for x in text.split(",")]  # a bad number raises ValueError
        if count not in (None, len(values)) or not all(0 <= v < float("inf") for v in values):
            raise ValueError(text)
        return values
    parse.__name__ = f"{convert.__name__} list"  # argparse names it in the error
    return parse


def _above(convert, low):
    """An argparse type: a ``convert`` number greater than ``low``."""
    def parse(text: str):
        if not convert(text) > low:  # NaN is not
            raise ValueError(text)
        return convert(text)
    parse.__name__ = f"{convert.__name__} > {low}"  # argparse names it in the error
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="B-ohio",
                        choices=sorted(SCENARIO_DELAYS) + ["custom"],
                        help="delay layout to emulate (default: B-ohio)")
    parser.add_argument("--delays", default=None, type=_list_of(float, 2), metavar="D1,D2",
                        help="custom one-way delays ms >= 0 (client-cache,cache-server); "
                             "required with --scenario custom")
    parser.add_argument("--keyspace", default=100, type=_above(int, 0))
    parser.add_argument("--batches", default=30, type=_above(int, 0))
    parser.add_argument("--per-batch", default=1000, type=_above(int, 0))
    parser.add_argument("--policy", default="noevict",
                        choices=[p.value for p in Policy])
    parser.add_argument("--time-scale", default=1.0, type=_above(float, 0), metavar="D",
                        help="divide all delays by D > 0 (default: 1, full scale)")
    parser.add_argument("--seed", default=42, type=int)
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write summary.txt, requests.csv, throughput.csv, stats.csv here")


def _config_from(args, capacity: int, with_cache: bool, out_dir=None) -> ScenarioConfig:
    if args.scenario == "custom" and not args.delays:
        raise SystemExit("--scenario custom requires --delays D1,D2")
    delays = DelaySpec(*args.delays) if args.scenario == "custom" else SCENARIO_DELAYS[args.scenario]
    return ScenarioConfig(
        name=args.scenario,
        delays=delays,
        capacity=capacity,
        policy=Policy(args.policy),
        keyspace=args.keyspace,
        batches=args.batches,
        per_batch=args.per_batch,
        with_cache=with_cache,
        time_scale=args.time_scale,
        seed=args.seed,
        out_dir=out_dir,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netlab",
        description="Desk-scale latency lab for the caching proxy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario cell")
    _add_common(run)
    run.add_argument("--capacity", default=100, type=_above(int, -1))
    run.add_argument("--no-cache", action="store_true",
                     help="measure the direct path instead of the cached one")

    sweep = sub.add_parser("sweep", help="run a capacity sweep plus no-cache baseline")
    _add_common(sweep)
    sweep.add_argument("--capacities", default="10,30,70,100", type=_list_of(int), metavar="LIST",
                       help="comma-separated capacities (default: 10,30,70,100)")

    mock = sub.add_parser("mock-server", help="run the mock key-value server standalone")
    mock.add_argument("--listen", required=True, type=parse_address, metavar="HOST:PORT")
    mock.add_argument("--keys", default=100, type=int)
    mock.add_argument("--seed", default=1234, type=int)
    mock.add_argument("--doc-size", default=200, type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)

    if args.command == "mock-server":
        server = MockKVServer(
            listen=args.listen, keyspace=args.keys,
            seed=args.seed, doc_size=args.doc_size,
        ).start()
        print(f"mock server on {server.address[0]}:{server.address[1]} "
              f"with keys 1..{args.keys}; Ctrl-C to stop")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            server.stop()
        return 0

    if args.command == "run":
        cfg = _config_from(args, args.capacity, not args.no_cache, args.out)
        result = run_scenario(cfg)
        print(summarize_single(result), end="")
        return 0

    if args.command == "sweep":
        cfg = _config_from(args, args.capacities[0], True)
        sweep_result = run_capacity_sweep(cfg, args.capacities, args.out)
        print(summarize(sweep_result), end="")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
