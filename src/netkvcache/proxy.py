"""TCP proxy front: accept clients, splice to the upstream server, and pump
messages through the flow classifier and cache engine in both directions.

``CacheProxy`` is a ``loop.Loop``: its one thread owns the store and
every session's sockets, buffers and pending table, so none needs a lock.
The upstream's name is resolved once, at start, and its connects are
non-blocking, so a slow or hanging upstream holds up only its own
session; a loop timer ends a session whose connect takes too long.
Once connected, a session is two legs, client and upstream, each
handing its frames to the engine. Another timer writes
each statistics row to ``stats_out`` as it is taken.

Coordination traffic is relayed byte-identically; manipulation traffic
goes through the engine, which may answer reads locally without
contacting the server.
"""

from __future__ import annotations

import csv
import errno
import itertools
import logging
import selectors
import signal
import socket
import threading
import time
from typing import NamedTuple

from . import engine, flows, wire
from .loop import BindFailure, Connection, Leg, Loop
from .storage import CacheStore, Policy

log = logging.getLogger(__name__)

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

STATS_CSV_COLUMNS = [
    "ts", "hits", "misses", "bypasses", "fills",
    "rejected_fills", "invalidations", "entries", "rps",
]

CONNECT_TIMEOUT_S = 5.0  # a session whose upstream connect takes longer ends


class ProxyConfig(NamedTuple):
    listen: tuple[str, int]
    upstream: tuple[str, int]
    capacity: int
    policy: Policy = Policy.NOEVICT
    log_level: str = "info"
    stats_interval: float = 1.0  # seconds between rows written to stats_out
    stats_out: str | None = None
    shutdown_grace: float = 5.0


def parse_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` as ``(host, port)``; ValueError unless the port is 0-65535."""
    host, sep, port = text.rpartition(":")
    if not sep or not host or not 0 <= int(port) <= 65535:
        raise ValueError(f"address must be HOST:PORT, got {text!r}")
    return host, int(port)


class Session(Connection):
    """One client connection spliced to one upstream connection."""

    def __init__(self, proxy: "CacheProxy", client_sock: socket.socket, session_id: int):
        self.proxy = proxy
        self.session_id = session_id
        self.pending: dict[int, engine.PendingEntry] = {}
        # While answered < forwarded a reply is owed: a hit would overtake it,
        # and stop waits for it.
        self.forwarded = self.answered = 0
        self._ids = itertools.count(1)
        self.client = Leg(client_sock, "client", self._from_client)
        self._addresses = iter(proxy.upstream_addresses)
        self._dial()
        proxy.call_at(time.perf_counter() + CONNECT_TIMEOUT_S, self._connect_timed_out)

    def _dial(self) -> None:
        """Start a non-blocking connect to the next upstream address."""
        for family, kind, proto, _, address in self._addresses:  # resumes where it stopped
            sock = socket.socket(family, kind, proto)
            leg = Leg(sock, "server", self._from_server)
            err = sock.connect_ex(address)
            if err in (0, errno.EINPROGRESS):
                self.upstream = leg
                self.legs = (self.client, leg)
                leg.watch(self.proxy._selector, selectors.EVENT_WRITE, self._connected)
                return
            sock.close()
        raise ConnectionError(f"cannot reach upstream {self.proxy.config.upstream}")

    def _connected(self, _events: int) -> None:
        """Attach the legs once the upstream connect succeeds."""
        upstream = self.upstream
        upstream.watch(self.proxy._selector, 0, None)
        try:
            err = upstream.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                upstream.sock.close()
                self._dial()
                return
            log.info("session %d: %s connected", self.session_id, self.client.sock.getpeername())
        except OSError as exc:  # the next address failed too, or the client left
            log.error("session %d: %s", self.session_id, exc)
            self.proxy.end(self)
            return
        self.proxy.attach(self)

    def _connect_timed_out(self) -> None:
        if self.client.conn is None and not self.closed:
            log.error("session %d: cannot reach upstream %s: connect timed out",
                      self.session_id, self.proxy.config.upstream)
            self.proxy.end(self)

    # -- leg handlers ----------------------------------------------------

    def _from_client(self, m: wire.RawMessage) -> None:
        if flows.classify_client(m) is flows.FlowClass.MANIPULATION:
            cmd = engine.parse_command(m)
            log.debug("session %d: client %s key=%s", self.session_id, cmd.kind.value, cmd.key)
            hit = engine.handle_client(cmd, self.proxy.store, self.pending,
                                       self._ids.__next__, self.answered < self.forwarded)
            if hit is not None:
                wire.write_message(self.client, hit)
                return
        self.forwarded += 1
        wire.write_message(self.upstream, m)

    def _from_server(self, m: wire.RawMessage) -> None:
        self.answered += 1
        engine.handle_server(m, self.proxy.store, self.pending)
        wire.write_message(self.client, m)

    def on_close(self) -> None:
        log.info("session %d: done", self.session_id)


class CacheProxy(Loop):
    """The listening proxy; owns the store and all sessions."""

    thread_name = "proxy-loop"

    def __init__(self, config: ProxyConfig):
        # Finite, or the loop's select() raises OverflowError and its thread dies.
        if not 0 < config.stats_interval < float("inf"):
            raise ValueError("stats interval must be positive and finite")
        if not 0 <= config.shutdown_grace < float("inf"):
            raise ValueError("shutdown grace must be >= 0 and finite")
        super().__init__(config.listen)
        self.config = config
        self.store = CacheStore(config.capacity, config.policy)
        self._session_ids = itertools.count(1)
        self._stats_file = None  # stats_out, open from start() to stop()
        self._stats: csv.DictWriter | None = None  # None while no rows are taken

    def _prepare(self) -> None:
        try:
            self.upstream_addresses = socket.getaddrinfo(*self.config.upstream, type=socket.SOCK_STREAM)
        except OSError as exc:
            raise OSError(f"cannot resolve upstream {self.config.upstream}: {exc}") from exc
        if self.config.stats_out:
            self._stats_file = open(self.config.stats_out, "w", newline="")
            self._stats = csv.DictWriter(self._stats_file, fieldnames=STATS_CSV_COLUMNS)
            self._put_stats_row(dict(zip(STATS_CSV_COLUMNS, STATS_CSV_COLUMNS)))  # the header
            self._last_stats = self.store.snapshot_stats()
            due = time.perf_counter() + self.config.stats_interval
            self.call_at(due, self._write_stats_row, due)
        log.info("listening on %s:%d, upstream %s:%d, capacity %d, policy %s",
                 *self.address, *self.config.upstream,
                 self.config.capacity, self.config.policy.value)

    def _accepted(self, sock: socket.socket) -> Session:
        return Session(self, sock, next(self._session_ids))

    def _busy(self) -> bool:
        return any(s.answered < s.forwarded for s in self._connections)

    def _write_stats_row(self, due: float) -> None:
        """Take the row due at ``due``, then set the timer for the next."""
        if self._stats is None:
            return  # the file failed
        interval, now = self.config.stats_interval, time.perf_counter()
        due += interval
        if due <= now:  # the loop fell a whole interval behind
            due = now + interval
        self.call_at(due, self._write_stats_row, due)
        stats, last = self.store.snapshot_stats(), self._last_stats
        requests = (stats.hits + stats.misses + stats.bypasses) - (
            last.hits + last.misses + last.bypasses
        )
        self._put_stats_row(vars(stats) | {
            "ts": time.time(), "entries": self.store.entry_count(),
            "rps": round(requests / interval, 3),
        })
        self._last_stats = stats

    def _put_stats_row(self, row: dict) -> None:
        """Write and flush one row; a file that fails stops the rows, not the proxy."""
        try:
            self._stats.writerow(row)
            self._stats_file.flush()
        except OSError as exc:
            log.error("no more stats rows to %s: %s", self.config.stats_out, exc)
            self._stats = None

    def session_count(self) -> int:
        return len(self._connections)

    def stop(self, grace: float | None = None) -> None:
        """Stop accepting, drain in-flight requests, then close sessions."""
        super().stop(self.config.shutdown_grace if grace is None else grace)
        if self._stats_file is not None:
            self._stats_file.close()


def run_proxy(config: ProxyConfig) -> int:
    """Run the proxy until SIGINT/SIGTERM; returns the process exit code."""
    logging.basicConfig(
        level=LOG_LEVELS.get(config.log_level, logging.INFO),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        proxy = CacheProxy(config).start()
    except (BindFailure, OSError) as exc:  # OSError: stats_out cannot be opened
        log.error("%s", exc)
        return 1
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    stop_requested = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop_requested.set())
    stop_requested.wait()
    log.info("shutting down (grace %.1fs)", config.shutdown_grace)
    proxy.stop()
    return 0
