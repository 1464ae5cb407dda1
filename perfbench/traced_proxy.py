"""Run the proxy with a span around every call it makes into its layers.

Usage: traced_proxy.py --spans-out FILE -- <netkv-cache arguments>

Wraps the module attributes and ``CacheStore`` methods the proxy calls
through, then runs ``netkvcache.cli.main``. Spans stay in memory and are
written to FILE (and FILE.names.json) once the proxy has shut down on
SIGTERM. The program's own code is not modified.
"""

from __future__ import annotations

import sys
import threading

from netkvcache import cli, engine, flows, proxy, wire
from netkvcache.storage import CacheStore, Hit, Policy, PutOutcome

from spans import SpanRecorder

# storage.put outcomes; a fill that displaced a resident entry is EVICTED.
STORED, EVICTED, REJECTED_STALE, REJECTED_FULL = 0, 1, 2, 3
_PUT_CODES = {
    PutOutcome.STORED: STORED,
    PutOutcome.REJECTED_STALE: REJECTED_STALE,
    PutOutcome.REJECTED_FULL: REJECTED_FULL,
}


def _leg_id(m) -> int:
    """The request a message belongs to: its own id, or the one it answers."""
    return m.header.response_to or m.header.request_id


def install(rec: SpanRecorder) -> None:
    wire.read_message = rec.wrap(
        wire.read_message, "wire.read_message",
        end=lambda a, m: (_leg_id(m), m.header.length, int(m.header.response_to != 0)))
    wire.write_message = rec.wrap(
        wire.write_message, "wire.write_message",
        start=lambda a: _leg_id(a[1]), end=lambda a, r: (None, a[1].header.length, 0))
    flows.classify_client = rec.wrap(
        flows.classify_client, "flows.classify_client",
        start=lambda a: a[0].header.request_id,
        end=lambda a, r: (None, 0, int(r is flows.FlowClass.COORDINATION)))
    engine.parse_command = rec.wrap(
        engine.parse_command, "engine.parse_command",
        start=lambda a: a[0].header.request_id,
        end=lambda a, c: (None, 0, int(c.kind is engine.CommandKind.BYPASS)))
    # The outcome of handle_client is the pending-table depth it leaves.
    engine.handle_client = rec.wrap(
        engine.handle_client, "engine.handle_client",
        start=lambda a: a[0].raw.header.request_id, end=lambda a, r: (None, 0, len(a[2])))
    engine.handle_server = rec.wrap(
        engine.handle_server, "engine.handle_server", start=lambda a: a[0].header.response_to)
    engine.response_is_cacheable = rec.wrap(
        engine.response_is_cacheable, "engine.response_is_cacheable",
        end=lambda a, r: (None, len(a[0]), int(r)))
    engine.synthesize_response = rec.wrap(
        engine.synthesize_response, "engine.synthesize_response",
        end=lambda a, r: (None, len(a[1]), 0))
    engine.decode_document = rec.wrap(
        engine.decode_document, "wire.decode_document", end=lambda a, r: (None, len(a[0]), 0))

    count = CacheStore.entry_count
    before = threading.local()

    def put_start(a):
        before.entries = count(a[0])

    def put_end(a, outcome):
        store, code = a[0], _PUT_CODES[outcome]
        if (code == STORED and store.policy is not Policy.NOEVICT
                and count(store) == before.entries):
            code = EVICTED
        return None, len(a[2]), code

    CacheStore.get = rec.wrap(
        CacheStore.get, "storage.get", end=lambda a, r: (None, 0, int(isinstance(r, Hit))))
    CacheStore.put = rec.wrap(CacheStore.put, "storage.put", start=put_start, end=put_end)
    for method in ("invalidate", "invalidate_all", "record_bypass", "snapshot_stats",
                   "entry_count"):
        setattr(CacheStore, method, rec.wrap(getattr(CacheStore, method), f"storage.{method}"))
    proxy.Session.__init__ = rec.wrap(proxy.Session.__init__, "proxy.session_setup")


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--spans-out" or args[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    rec = SpanRecorder()
    install(rec)
    try:
        return cli.main(args[3:])
    finally:
        rec.dump(args[1])


if __name__ == "__main__":
    sys.exit(main())
