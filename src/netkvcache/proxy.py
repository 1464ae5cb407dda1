"""TCP proxy front: accept clients, splice to the upstream server, and pump
messages through the flow classifier and cache engine in both directions.

Every session runs on one thread: a ``selectors`` loop, started by
``CacheProxy.start()``, owns the listener, both sockets of every session,
their read buffers and write queues, and each session's pending table.
Nothing the loop owns is touched from another thread, so none of it needs
a lock. Upstream connects are non-blocking, so a slow or hanging upstream
holds up only its own session. The loop also takes the statistics rows
and writes each to ``stats_out`` as it is taken. The ``CacheStore`` keeps
its lock because callers outside the loop read it too.

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
from dataclasses import dataclass

from . import engine, flows, wire
from .storage import CacheStore, Policy

log = logging.getLogger(__name__)

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

STATS_CSV_COLUMNS = [
    "ts", "hits", "misses", "bypasses", "fills",
    "rejected_fills", "invalidations", "entries", "rps",
]

# A session stops reading both legs while its write queues hold more than
# this many bytes, so a client that never reads its replies cannot grow
# the proxy's memory by more than this plus one message.
MAX_QUEUED_BYTES = 256 * 1024


class BindFailure(RuntimeError):
    """The listen address could not be bound."""


class UpstreamUnavailable(RuntimeError):
    """The upstream server refused or timed out at session start."""


@dataclass
class ProxyConfig:
    listen: tuple[str, int]
    upstream: tuple[str, int]
    capacity: int
    policy: Policy = Policy.NOEVICT
    log_level: str = "info"
    stats_interval: float = 1.0  # seconds between rows written to stats_out
    stats_out: str | None = None
    max_message_bytes: int = wire.DEFAULT_MAX_MESSAGE_BYTES
    shutdown_grace: float = 5.0
    connect_timeout: float = 5.0


def parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {text!r}")
    return host, int(port)


class Session:
    """One client connection spliced to one upstream connection."""

    def __init__(self, proxy: "CacheProxy", client_sock: socket.socket, session_id: int):
        self.proxy = proxy
        self.session_id = session_id
        self.pending = engine.PendingTable()
        self.closed = False
        self.connected = False
        self._ids = itertools.count(1)
        cfg = proxy.config
        self.client = wire.Leg(client_sock, "client")
        self.connect_deadline = time.monotonic() + cfg.connect_timeout
        try:
            self._addresses = socket.getaddrinfo(*cfg.upstream, type=socket.SOCK_STREAM)
        except OSError as exc:
            raise UpstreamUnavailable(f"cannot resolve upstream {cfg.upstream}: {exc}") from exc
        self._dial()

    def _dial(self) -> None:
        """Start a non-blocking connect to the next upstream address."""
        while self._addresses:
            family, kind, proto, _, address = self._addresses.pop(0)
            sock = socket.socket(family, kind, proto)
            leg = wire.Leg(sock, "server")
            err = sock.connect_ex(address)
            if err in (0, errno.EINPROGRESS):
                self.upstream = leg
                return
            sock.close()
        raise UpstreamUnavailable(f"cannot reach upstream {self.proxy.config.upstream}")

    def _finish_connect(self) -> None:
        err = self.upstream.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            self._watch(self.upstream, 0)
            self.upstream.sock.close()
            self._dial()
            return
        self.connected = True
        self.proxy._connecting.discard(self)
        log.info("session %d: %s connected", self.session_id, self.client.sock.getpeername())

    # -- leg writers -----------------------------------------------------

    def _send_upstream(self, m: wire.RawMessage) -> None:
        wire.write_message(self.upstream, m)

    def _send_downstream(self, m: wire.RawMessage) -> None:
        wire.write_message(self.client, m)

    # -- the loop's entry points -----------------------------------------

    def on_event(self, leg: wire.Leg, events: int) -> None:
        """Handle readiness of one leg, then everything that unblocks."""
        if self.closed:
            return  # closed by an earlier event in the same batch
        try:
            if not self.connected:
                self._finish_connect()
            elif events & selectors.EVENT_READ:
                if not leg.fill():
                    raise wire.ConnectionClosed("peer closed")
            self._drive()
        except UpstreamUnavailable as exc:
            log.error("session %d: %s", self.session_id, exc)
            self.close()
        except wire.ConnectionClosed:
            log.debug("session %d: %s leg closed", self.session_id, leg.name)
            self.close()
        except (wire.WireError, OSError, ValueError) as exc:
            log.info("session %d: %s leg error: %s", self.session_id, leg.name, exc)
            self.close()
        except Exception:
            # Whatever a session's input provokes, only that session ends.
            log.exception("session %d: internal error", self.session_id)
            self.close()
        else:
            self._update_interest()

    def queued_bytes(self) -> int:
        return len(self.client.outbuf) + len(self.upstream.outbuf)

    def _drive(self) -> None:
        """Send what the sockets take, then handle buffered frames while the
        write queues have room; repeat until neither makes progress."""
        while True:
            self._flush()
            if self.queued_bytes() > MAX_QUEUED_BYTES or not self._handle_frames():
                return

    def _flush(self) -> None:
        for leg in (self.client, self.upstream):
            if leg.outbuf:
                leg.drain()

    def _handle_frames(self) -> bool:
        """Handle buffered frames until none is complete or the queues are
        full; each frame adds at most one message to a queue."""
        cfg = self.proxy.config
        handled = False
        for leg in (self.client, self.upstream):
            while (self.queued_bytes() <= MAX_QUEUED_BYTES
                   and leg.frame_ready(cfg.max_message_bytes)):
                m = wire.read_message(leg, cfg.max_message_bytes)
                handled = True
                if leg is self.upstream:
                    engine.handle_server(m, self.proxy.store, self.pending,
                                         self._send_downstream)
                elif flows.classify_client(m) is flows.FlowClass.COORDINATION:
                    self._send_upstream(m)
                else:
                    cmd = engine.parse_command(m)
                    log.debug("session %d: client %s key=%s",
                              self.session_id, cmd.kind.value, cmd.key)
                    engine.handle_client(
                        cmd, self.proxy.store, self.pending,
                        self._send_upstream, self._send_downstream, self._ids.__next__,
                    )
        return handled

    def _watch(self, leg: wire.Leg, events: int) -> None:
        leg.watch(self.proxy._selector, events, (self, leg))

    def _update_interest(self) -> None:
        if not self.connected:
            self._watch(self.upstream, selectors.EVENT_WRITE)
            return
        read = selectors.EVENT_READ if self.queued_bytes() <= MAX_QUEUED_BYTES else 0
        for leg in (self.client, self.upstream):
            self._watch(leg, read | (selectors.EVENT_WRITE if leg.outbuf else 0))

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for leg in (self.client, self.upstream):
            self._watch(leg, 0)
            try:
                leg.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            leg.sock.close()
        self.proxy._sessions.discard(self)
        self.proxy._connecting.discard(self)
        log.info("session %d: done", self.session_id)


class CacheProxy:
    """The listening proxy; owns the shared store and all sessions."""

    def __init__(self, config: ProxyConfig):
        if not config.stats_interval > 0:
            raise ValueError("stats interval must be positive")
        self.config = config
        self.store = CacheStore(config.capacity, config.policy)
        self._listener: socket.socket | None = None
        self._sessions: set[Session] = set()
        self._connecting: set[Session] = set()  # upstream connect in progress
        self._session_ids = itertools.count(1)
        self._loop_thread: threading.Thread | None = None
        self._stop_at: float | None = None
        self._stats_file = None  # stats_out, open from start() to stop()
        self._stats: csv.DictWriter | None = None  # None while no rows are taken

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("proxy not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "CacheProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind(self.config.listen)
            listener.listen(64)
        except OSError as exc:
            listener.close()
            raise BindFailure(f"cannot bind {self.config.listen}: {exc}") from exc
        if self.config.stats_out:
            try:
                self._stats_file = open(self.config.stats_out, "w", newline="")
            except OSError:
                listener.close()
                raise
            self._stats = csv.DictWriter(self._stats_file, fieldnames=STATS_CSV_COLUMNS)
            self._put_stats_row(dict(zip(STATS_CSV_COLUMNS, STATS_CSV_COLUMNS)))  # the header
            self._last_stats = self.store.snapshot_stats()
            self._stats_due = time.monotonic() + self.config.stats_interval
        listener.setblocking(False)
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, self._accept)
        # stop() writes a byte here to wake the loop from select().
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                lambda _events: self._wake_r.recv(64))
        self._loop_thread = threading.Thread(target=self._run, name="proxy-loop", daemon=True)
        self._loop_thread.start()
        log.info("listening on %s:%d, upstream %s:%d, capacity %d, policy %s",
                 *self.address, *self.config.upstream,
                 self.config.capacity, self.config.policy.value)
        return self

    def _accept(self, _events: int) -> None:
        while True:
            try:
                client_sock, peer = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                log.error("accept failed: %s", exc)
                return
            session_id = next(self._session_ids)
            try:
                session = Session(self, client_sock, session_id)
            except (UpstreamUnavailable, OSError) as exc:
                # This session dies; the proxy keeps serving everyone else.
                log.error("session %d from %s: %s", session_id, peer, exc)
                client_sock.close()
                continue
            self._sessions.add(session)
            self._connecting.add(session)
            session._update_interest()

    def _run(self) -> None:
        while True:
            now = time.monotonic()
            for session in [s for s in self._connecting if s.connect_deadline <= now]:
                log.error("session %d: cannot reach upstream %s: connect timed out",
                          session.session_id, self.config.upstream)
                session.close()
            deadlines = [s.connect_deadline for s in self._connecting]
            if self._stats is not None:
                if now >= self._stats_due:
                    self._write_stats_row(now)
                deadlines.append(self._stats_due)
            if self._stop_at is not None:
                if self._listener.fileno() >= 0:
                    self._selector.unregister(self._listener)
                    self._listener.close()
                if now >= self._stop_at or not any(len(s.pending) for s in self._sessions):
                    break
                deadlines.append(self._stop_at)
            timeout = max(0.0, min(deadlines) - now) if deadlines else None
            for key, events in self._selector.select(timeout):
                if isinstance(key.data, tuple):
                    session, leg = key.data
                    session.on_event(leg, events)
                else:
                    key.data(events)
        for session in list(self._sessions):
            session.close()
        self._selector.close()

    def _write_stats_row(self, now: float) -> None:
        interval = self.config.stats_interval
        self._stats_due += interval
        if self._stats_due <= now:  # the loop fell a whole interval behind
            self._stats_due = now + interval
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
        return len(self._sessions)

    def stop(self, grace: float | None = None) -> None:
        """Stop accepting, drain in-flight requests, then close sessions."""
        if self._loop_thread is not None and self._loop_thread.is_alive():
            grace = self.config.shutdown_grace if grace is None else grace
            self._stop_at = time.monotonic() + grace
            self._wake_w.send(b"\0")
            self._loop_thread.join()
            self._wake_r.close()
            self._wake_w.close()
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
    except BindFailure as exc:
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
