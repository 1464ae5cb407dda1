"""Helper process hosting a workload's two delay pipes.

Usage: delay_helper.py --target HOST:PORT --near-ms D1 --far-ms D2 [--trace-out FILE]

Starts the far pipe (proxy to ``--target``, the mock server) and prints
``far pipe on HOST:PORT``. Then reads the proxy's ``HOST:PORT`` from
stdin, starts the near pipe (client to proxy) and prints ``near pipe on
HOST:PORT``. Runs until SIGTERM.

With ``--trace-out``, every delivered message is recorded as (due,
delivered) in monotonic nanoseconds and the records are written to the
file at SIGTERM.
"""

from __future__ import annotations

import argparse
import array
import signal
import sys
import threading
import time

from netkvcache import wire
from netkvcache.netlab import delay
from netkvcache.proxy import parse_address


def install_trace(records: array.array) -> None:
    """Wrap the pipes' delivery calls to record due and delivery times."""
    local = threading.local()
    sleep_until = getattr(delay, "_sleep_until", None)
    if sleep_until is not None:
        def traced_sleep_until(deadline: float) -> None:
            sleep_until(deadline)
            local.due_ns = int(deadline * 1e9)
        delay._sleep_until = traced_sleep_until

    write_message = wire.write_message

    def traced_write_message(stream, m) -> None:
        write_message(stream, m)
        # perf_counter and monotonic share one clock on Linux.
        records.extend((getattr(local, "due_ns", 0), time.monotonic_ns()))
    wire.write_message = traced_write_message


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", required=True, metavar="HOST:PORT")
    parser.add_argument("--near-ms", required=True, type=float)
    parser.add_argument("--far-ms", required=True, type=float)
    parser.add_argument("--trace-out", default=None, metavar="FILE")
    args = parser.parse_args()

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    records = array.array("q")
    if args.trace_out:
        install_trace(records)

    far = delay.DelayPipe(parse_address(args.target), args.far_ms).start()
    print("far pipe on %s:%d" % far.address, flush=True)
    near = delay.DelayPipe(parse_address(sys.stdin.readline().strip()), args.near_ms).start()
    print("near pipe on %s:%d" % near.address, flush=True)
    stop.wait()
    near.stop()
    far.stop()
    if args.trace_out:
        with open(args.trace_out, "wb") as f:
            records.tofile(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
