"""One event-loop thread that owns a listener, every connection it accepts,
and their sockets, frames and timers.

The proxy, each delay pipe and each mock server is a ``Loop``. ``start``
opens it and runs it on its own thread; a test may instead ``open`` it and
turn it with ``step``. ``stop`` closes it on the calling thread. A connection
has one or two legs, one per socket (``Leg``); a leg records when it last
read. Each frame read from a leg goes to the leg's handler, which writes
into the leg or its peer, or holds it for later. Once a leg has ended and
holds nothing more for its peer, the peer is shut for writing, so a
half-close passes through. A connection reads only while its legs hold at
most ``MAX_QUEUED_BYTES`` unsent, so a peer that never reads costs at most
that plus one frame. Timers (``call_at``) run on the same thread, in due
order, on ``perf_counter``. One guard, ``serve``, runs each socket event
and each timer of a connection: an error on a leg, or a handler or timer
that raises, ends that connection alone.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import logging
import selectors
import socket
import threading
import time
from typing import Callable

from . import wire

log = logging.getLogger(__name__)

MAX_QUEUED_BYTES = 256 * 1024
RECV_BYTES = 64 * 1024  # the most one ``Leg.fill`` reads


class BindFailure(RuntimeError):
    """The listen address could not be bound."""


class Leg:
    """One non-blocking socket of a connection: the bytes received but not
    yet framed, the bytes queued to send, when it last read (``arrived``),
    and the ``handler`` each frame read goes to. A handler that holds a
    frame for later counts its bytes in ``held`` until it hands it over.

    It is the stream ``read_message`` reads a buffered frame from, once
    ``frame_ready`` says the frame is in, and the stream ``write_message``
    writes into; ``fill`` and ``drain`` move bytes to and from the socket.
    """

    __slots__ = ("sock", "name", "inbuf", "outbuf", "events", "handler",
                 "conn", "held", "reading", "writing", "arrived")

    def __init__(self, sock: socket.socket, name: str,
                 handler: Callable[[wire.RawMessage], None] | None = None):
        sock.setblocking(False)
        # Request/response ping-pong: never let Nagle hold a message back.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.name, self.handler = sock, name, handler
        self.inbuf, self.outbuf = bytearray(), bytearray()
        self.events = 0  # the selector interest currently registered
        self.conn: Connection | None = None  # set once attached
        self.held = 0  # bytes of frames its handler holds, not yet handed over
        self.reading = True  # until ``fill`` hits end of stream
        self.writing = True  # until the socket is shut for writing
        self.arrived = 0.0  # perf_counter() just before the last ``fill``'s recv

    def read(self, n: int) -> bytes:
        # One copy; the view is released before the buffer is resized.
        view = memoryview(self.inbuf)
        chunk = bytes(view[:n])
        view.release()
        del self.inbuf[:n]
        return chunk

    def write(self, data: bytes) -> None:
        self.outbuf += data

    def frame_ready(self) -> bool:
        """True if ``read_message`` can run without waiting for more bytes:
        the whole frame is buffered, or its length prefix will be rejected."""
        if len(self.inbuf) < 4:
            return False
        length = int.from_bytes(self.inbuf[:4], "little")
        return (len(self.inbuf) >= length
                or not wire.HEADER_SIZE <= length <= wire.DEFAULT_MAX_MESSAGE_BYTES)

    def fill(self) -> bool:
        """Append what the socket has to ``inbuf``; at end of stream, False."""
        self.arrived = time.perf_counter()
        data = self.sock.recv(RECV_BYTES)
        self.inbuf += data
        self.reading = bool(data)
        return self.reading

    def drain(self) -> None:
        """Send as much of ``outbuf`` as the socket takes now."""
        try:
            sent = self.sock.send(self.outbuf)
        except BlockingIOError:
            return
        del self.outbuf[:sent]

    def watch(self, selector, events: int, data) -> None:
        """Register, change or drop this socket's interest in ``selector``."""
        if events == self.events:
            return
        if not self.events:
            selector.register(self.sock, events, data)
        elif not events:
            selector.unregister(self.sock)
        else:
            selector.modify(self.sock, events, data)
        self.events = events


class Connection:
    """The one or two legs of one accepted connection. A leg's peer is the
    other leg, or the leg itself when there is only one."""

    closed = False

    def __init__(self, *legs: Leg):
        if not 1 <= len(legs) <= 2:
            raise ValueError(f"a connection has one or two legs, not {len(legs)}")
        self.legs = legs

    def queued_bytes(self) -> int:
        """Bytes read or handled but not yet sent."""
        queued = 0
        for leg in self.legs:
            queued += len(leg.outbuf) + leg.held
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
        self._timers: list[tuple[float, int, Callable, tuple]] = []  # a heap
        self._timer_order = itertools.count()  # orders timers due at the same time
        self._stop_at: float | None = None
        self._selector: selectors.BaseSelector | None = None  # set by open()

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def _prepare(self) -> None:
        """Set up what the loop thread uses, once the listener is bound."""

    def _busy(self) -> bool:
        """True while ``stop`` should wait for in-flight work."""
        return False

    def call_at(self, when: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` on the loop thread once ``time.perf_counter()``
        reaches ``when``. Call it on the loop thread, or before ``start``."""
        heapq.heappush(self._timers, (when, next(self._timer_order), fn, args))

    def open(self):
        """Bind, ``_prepare`` and set up the selector; start no thread."""
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
        return self

    def start(self):
        self.open()
        self._thread = threading.Thread(target=self._run, name=self.thread_name, daemon=True)
        self._thread.start()
        return self

    def stop(self, grace: float = 0.0) -> None:
        """Stop accepting, wait up to ``grace`` s while ``_busy()``, then close all."""
        if self._selector is None:
            return
        if self._thread is not None:
            self._stop_at = time.perf_counter() + grace
            self._wake_w.send(b"\0")
            self._thread.join()
        for conn in list(self._connections):
            self.end(conn)
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()
        self._selector.close()
        self._selector = None

    def _run(self) -> None:
        while True:
            timeout = self._run_timers()
            if self._stop_at is not None:
                if self._listener.fileno() >= 0:
                    self._selector.unregister(self._listener)
                    self._listener.close()
                left = self._stop_at - time.perf_counter()
                if left <= 0 or not self._busy():
                    return
                timeout = left if timeout is None else min(timeout, left)
            self.step(timeout)

    def step(self, timeout: float | None) -> int:
        """Dispatch one ``select(timeout)``'s events, not timers; return their number."""
        events = self._selector.select(timeout)
        for key, mask in events:
            data = key.data
            if data.__class__ is Leg:
                self.serve(data.conn, data.fill if mask & selectors.EVENT_READ else None)
            else:
                data(mask)
        return len(events)

    def _run_timers(self) -> float | None:
        """Run the timers that are due; return how long ``select`` may then
        wait, until the next timer, or None while no timer is set."""
        timers = self._timers
        while timers:
            wait = timers[0][0] - time.perf_counter()
            if wait > 0:
                return wait
            _, _, fn, args = heapq.heappop(timers)
            fn(*args)
        return None

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

    def attach(self, conn: Connection) -> Connection:
        """Start moving frames from ``conn``'s legs to their handlers."""
        for leg in conn.legs:
            leg.conn = conn
        self._settle(conn)
        return conn

    def end(self, conn: Connection) -> None:
        """Close every leg of ``conn`` now; what it still holds is dropped."""
        if conn.closed:
            return
        conn.closed = True
        for leg in conn.legs:
            leg.watch(self._selector, 0, None)
            leg.sock.close()
            leg.inbuf.clear()
            leg.outbuf.clear()
        self._connections.discard(conn)
        conn.on_close()

    def serve(self, conn: Connection, fn: Callable | None, *args) -> None:
        """Run ``fn(*args)``, if given, for ``conn``, then drive ``conn``;
        if either raises, end ``conn`` and no other connection."""
        if conn.closed:
            return  # ended by an earlier event or timer
        try:
            if fn is not None:
                fn(*args)
            self._drive(conn)
        except Exception as exc:
            if isinstance(exc, (wire.WireError, OSError)):
                log.info("%s: connection ended: %s", self.thread_name, exc)
            else:  # whatever a connection's input provokes, only that connection ends
                log.error("%s: handler failed", self.thread_name, exc_info=exc)
            self.end(conn)

    def _drive(self, conn: Connection) -> None:
        """Hand buffered frames to their handlers while there is room, then
        send what the sockets take; repeat while that frees room a frame
        waits for."""
        while True:
            full = False
            for leg in conn.legs:
                while leg.frame_ready():
                    if conn.queued_bytes() > MAX_QUEUED_BYTES:
                        full = True
                        break
                    leg.handler(wire.read_message(leg))
            for leg in conn.legs:
                if leg.outbuf:
                    leg.drain()
            if not full or conn.queued_bytes() > MAX_QUEUED_BYTES:
                break
        self._settle(conn)

    def _settle(self, conn: Connection) -> None:
        """Shut each leg for writing once its peer has nothing more for it,
        then end the connection if every leg has ended both ways, else watch."""
        legs, open_legs = conn.legs, False
        for leg, peer in zip(legs, legs[::-1]):
            if not (leg.reading or leg.frame_ready()) and leg.inbuf:
                raise wire.TruncatedMessage(f"{leg.name} leg ended inside a frame")
            if leg.writing and not (peer.reading or peer.held or peer.inbuf or leg.outbuf):
                leg.writing = False
                with contextlib.suppress(OSError):
                    leg.sock.shutdown(socket.SHUT_WR)
            open_legs = open_legs or leg.reading or leg.writing
        if not open_legs:
            self.end(conn)
            return
        read = selectors.EVENT_READ if conn.queued_bytes() <= MAX_QUEUED_BYTES else 0
        for leg in legs:
            events = read if leg.reading else 0
            if leg.outbuf:
                events |= selectors.EVENT_WRITE
            leg.watch(self._selector, events, leg)
