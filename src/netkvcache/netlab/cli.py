"""Command-line entry point for the emulation lab."""

from __future__ import annotations

import argparse
import inspect
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
    """The ``ScenarioConfig`` options of ``run`` and ``sweep``, each named by
    its field and defaulting as the config does."""
    layout = parser.add_mutually_exclusive_group()
    layout.add_argument("--scenario", dest="name", default="B-ohio",
                        choices=sorted(SCENARIO_DELAYS),
                        help="delay layout to emulate (default: %(default)s)")
    layout.add_argument("--delays", type=_list_of(float, 2), metavar="D1,D2",
                        help="one-way ms >= 0 (client-cache,cache-server) of a custom layout")
    parser.add_argument("--keyspace", default=ScenarioConfig.keyspace, type=_above(int, 0),
                        metavar="N", help="keys 1..N (default: %(default)s)")
    parser.add_argument("--requests", default=ScenarioConfig.requests, type=_above(int, 0),
                        metavar="N", help="requests per cell (default: %(default)s)")
    parser.add_argument("--policy", default=ScenarioConfig.policy.value,
                        choices=[p.value for p in Policy], help="(default: %(default)s)")
    parser.add_argument("--time-scale", default=ScenarioConfig.time_scale, type=_above(float, 0),
                        metavar="D", help="divide all delays by D > 0 (default: %(default)s)")
    parser.add_argument("--seed", default=ScenarioConfig.seed, type=int,
                        help="seed of the key sequence (default: %(default)s)")
    parser.add_argument("--out", dest="out_dir", metavar="DIR",
                        help="write summary.txt, requests.csv, throughput.csv, stats.csv here")


def _config_from(options: dict) -> ScenarioConfig:
    """``run``'s or ``sweep``'s options, less the command, as a config."""
    delays, name = options.pop("delays"), options.pop("name")
    options["policy"] = Policy(options["policy"])
    if delays:
        return ScenarioConfig(delays=DelaySpec(*delays), **options)
    return ScenarioConfig.named(name, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netlab",
        description="Desk-scale latency lab for the caching proxy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario cell")
    _add_common(run)
    run.add_argument("--capacity", default=ScenarioConfig.capacity, type=_above(int, -1),
                     help="maximum number of cached entries (default: %(default)s)")
    run.add_argument("--no-cache", dest="with_cache", action="store_false",
                     help="measure the direct path instead of the cached one")

    sweep = sub.add_parser("sweep", help="run a capacity sweep plus no-cache baseline")
    _add_common(sweep)
    sweep.add_argument("--capacities", default="10,30,70,100", type=_list_of(int), metavar="LIST",
                       help="comma-separated capacities (default: %(default)s)")

    mock = sub.add_parser("mock-server", help="run the mock key-value server standalone")
    default = {name: p.default for name, p in inspect.signature(MockKVServer).parameters.items()}
    mock.add_argument("--listen", required=True, type=parse_address, metavar="HOST:PORT")
    mock.add_argument("--keys", dest="keyspace", default=default["keyspace"], type=int,
                      metavar="N", help="serve keys 1..N (default: %(default)s)")
    mock.add_argument("--seed", default=default["seed"], type=int, help="(default: %(default)s)")
    mock.add_argument("--doc-size", default=default["doc_size"], type=int,
                      help="phrase length of each seeded document (default: %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    options = vars(build_parser().parse_args(argv))
    command = options.pop("command")

    if command == "mock-server":
        server = MockKVServer(**options).start()
        print(f"mock server on {server.address[0]}:{server.address[1]} "
              f"with keys 1..{options['keyspace']}; Ctrl-C to stop")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            server.stop()
        return 0

    if command == "run":
        print(summarize_single(run_scenario(_config_from(options))), end="")
        return 0

    capacities, out_root = options.pop("capacities"), options.pop("out_dir")  # sweep
    base = _config_from(options | {"capacity": capacities[0]})
    print(summarize(run_capacity_sweep(base, capacities, out_root)), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
