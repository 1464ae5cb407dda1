"""One event-loop thread that owns a listener and every connection it accepts.

The proxy, each delay pipe and each mock server is a ``Loop``. Routes join
a connection's legs (``wire.Leg``): each leg is the source of one route and
the destination of one, and each frame read from a source goes to its
route's handler, which writes into the route's legs. Once a source has
ended and its route has nothing left to send, the destination is shut for
writing, so a half-close passes through. An error on a leg, or a handler
that raises, ends the whole connection. A connection reads only while its
legs hold at most ``MAX_QUEUED_BYTES`` unsent, so a peer that never reads
costs at most that plus one frame.
"""

from __future__ import annotations

import contextlib
import logging
import selectors
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable

from . import wire

log = logging.getLogger(__name__)

MAX_QUEUED_BYTES = 256 * 1024


class BindFailure(RuntimeError):
    """The listen address could not be bound."""


@dataclass(slots=True, eq=False)
class Route:
    """Frames read from ``src`` go to ``handler``, which writes into ``src`` or
    ``dst``; a loop that holds frames first holds each ``delay`` seconds."""

    src: wire.Leg
    dst: wire.Leg
    handler: Callable[[wire.RawMessage], None]
    delay: float = 0.0
    conn: Connection | None = None
    reading: bool = True  # until ``src`` ends
    writing: bool = True  # until ``dst`` is shut for writing
    held: int = 0  # bytes of frames read but not yet handed over


class Connection:
    """The legs of one accepted connection and, once attached, its routes."""

    closed = False
    routes: tuple[Route, ...] = ()
    ends: tuple[tuple[wire.Leg, Route, Route], ...] = ()  # leg, its reader, its writer

    def __init__(self, *legs: wire.Leg):
        self.legs = legs

    def queued_bytes(self) -> int:
        """Bytes read or handled but not yet sent."""
        queued = 0
        for leg in self.legs:
            queued += len(leg.outbuf)
        for route in self.routes:
            queued += route.held
        return queued

    def on_close(self) -> None:
        """Called once, after the loop has closed every leg."""


class Loop:
    """A listener and every connection it accepts, served by one thread. A
    subclass's ``_accepted(sock)`` returns each accepted socket's ``Connection``."""

    thread_name = "loop"

    def __init__(self, listen: tuple[str, int]):
        self.listen = listen
        self._thread: threading.Thread | None = None
        self._connections: set[Connection] = set()
        self._readers: dict[wire.Leg, Route] = {}  # the route reading each attached leg
        self._stop_at: float | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def _prepare(self) -> None:
        """Set up what the loop thread uses, once the listener is bound."""

    def _tick(self) -> float | None:
        """Runs once per turn; returns how long the loop may then wait, or None."""
        return None

    def _busy(self) -> bool:
        """True while ``stop`` should wait for in-flight work."""
        return False

    def _fill(self, route: Route) -> None:
        """Read what the route's source has; at its end, stop reading it."""
        if not route.src.fill():
            route.reading = False

    def _take(self, route: Route, m: wire.RawMessage) -> None:
        """Hand a frame just read to its route."""
        route.handler(m)

    def start(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind(self.listen)
            listener.listen(64)
        except OSError as exc:
            listener.close()
            raise BindFailure(f"cannot bind {self.listen}: {exc}") from exc
        self._listener = listener
        try:
            self._prepare()
        except BaseException:
            listener.close()
            raise
        listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, self._accept)
        # stop() writes a byte here to wake the loop from select().
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                lambda _events: self._wake_r.recv(64))
        self._thread = threading.Thread(target=self._run, name=self.thread_name, daemon=True)
        self._thread.start()
        return self

    def stop(self, grace: float = 0.0) -> None:
        """Stop accepting, wait up to ``grace`` s while ``_busy()``, close all."""
        if self._thread is None or not self._thread.is_alive():
            return
        self._stop_at = time.monotonic() + grace
        self._wake_w.send(b"\0")
        self._thread.join()
        self._wake_r.close()
        self._wake_w.close()

    def _run(self) -> None:
        select, tick, on_event = self._selector.select, self._tick, self._on_event
        while True:
            timeout = tick()
            if self._stop_at is not None:
                if self._listener.fileno() >= 0:
                    self._selector.unregister(self._listener)
                    self._listener.close()
                left = self._stop_at - time.monotonic()
                if left <= 0 or not self._busy():
                    break
                timeout = left if timeout is None else min(timeout, left)
            for key, events in select(timeout):
                data = key.data
                if data.__class__ is wire.Leg:
                    on_event(data, events)
                else:
                    data(events)
        for conn in list(self._connections):
            self.end(conn)
        self._selector.close()

    def _accept(self, _events: int) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                log.error("%s: accept failed: %s", self.thread_name, exc)
                return
            try:
                self._connections.add(self._accepted(sock))
            except OSError as exc:
                # This connection dies; the loop keeps serving the others.
                log.error("%s: cannot serve %s: %s", self.thread_name, peer, exc)
                sock.close()

    def attach(self, conn: Connection, *routes: Route) -> Connection:
        """Start moving frames along ``routes``, which join ``conn``'s legs."""
        conn.routes = routes
        conn.ends = tuple((r.src, r, w) for r in routes for w in routes if w.dst is r.src)
        for route in routes:
            route.conn = conn
            self._readers[route.src] = route
        self._settle(conn)
        return conn

    def end(self, conn: Connection) -> None:
        """Close every leg of ``conn`` now; what it still holds is dropped."""
        if conn.closed:
            return
        conn.closed = True
        for leg in conn.legs:
            self._readers.pop(leg, None)
            leg.watch(self._selector, 0, None)
            leg.sock.close()
        self._connections.discard(conn)
        conn.on_close()

    def _on_event(self, leg: wire.Leg, events: int) -> None:
        route = self._readers.get(leg)
        if route is None:
            return  # ended by an earlier event in the same batch
        try:
            if events & selectors.EVENT_READ:
                self._fill(route)
            self._drive(route.conn)
        except Exception as exc:
            self._fail(route.conn, exc)

    def _deliver(self, route: Route, m: wire.RawMessage) -> None:
        """Hand a held frame to its route's handler, then drive its connection."""
        route.held -= m.header.length
        if route.conn.closed:
            return
        try:
            route.handler(m)
            self._drive(route.conn)
        except Exception as exc:
            self._fail(route.conn, exc)

    def _fail(self, conn: Connection, exc: Exception) -> None:
        if isinstance(exc, (wire.WireError, OSError)):
            log.info("%s: connection ended: %s", self.thread_name, exc)
        else:  # whatever a connection's input provokes, only that connection ends
            log.error("%s: handler failed", self.thread_name, exc_info=exc)
        self.end(conn)

    def _drive(self, conn: Connection) -> None:
        """Hand buffered frames to their routes while there is room, then send
        what the sockets take; repeat while that frees room a frame waits for."""
        while True:
            full = False
            for route in conn.routes:
                src = route.src
                while src.frame_ready():
                    if conn.queued_bytes() > MAX_QUEUED_BYTES:
                        full = True
                        break
                    self._take(route, wire.read_message(src))
            for leg in conn.legs:
                if leg.outbuf:
                    leg.drain()
            if not full or conn.queued_bytes() > MAX_QUEUED_BYTES:
                break
        self._settle(conn)

    def _settle(self, conn: Connection) -> None:
        """Shut each leg for writing once its writer has nothing more to send,
        then end the connection if every leg has ended both ways, else watch."""
        open_legs = False
        for leg, reader, writer in conn.ends:
            if not (reader.reading or leg.frame_ready()) and leg.inbuf:
                raise wire.TruncatedMessage(f"{leg.name} leg ended inside a frame")
            if writer.writing and not (writer.reading or writer.held
                                       or writer.src.inbuf or leg.outbuf):
                writer.writing = False
                with contextlib.suppress(OSError):
                    leg.sock.shutdown(socket.SHUT_WR)
            open_legs = open_legs or reader.reading or writer.writing
        if not open_legs:
            self.end(conn)
            return
        read = selectors.EVENT_READ if conn.queued_bytes() <= MAX_QUEUED_BYTES else 0
        for leg, reader, _ in conn.ends:
            events = read if reader.reading else 0
            if leg.outbuf:
                events |= selectors.EVENT_WRITE
            leg.watch(self._selector, events, leg)
