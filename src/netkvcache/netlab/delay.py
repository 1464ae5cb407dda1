"""One-way-delay link emulation over TCP, at message granularity, and the
timed-delivery loop it shares with the mock server.

A ``RouteLoop`` owns a listener and every connection it accepts, and
serves them all from one thread. Each accepted connection gets routes: a
route carries every frame read from its source leg to its destination
leg and delivers ``handler(frame)`` there, no earlier than the route's
fixed delay after the frame arrived. Deliveries go out in due order, so
one route's frames keep their order and back-to-back frames overlap
their delays, as on a real long link. When a route's source ends, its
destination is shut for writing once the route's frames are sent; a
socket is closed once both of its directions have ended.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import selectors
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .. import wire

log = logging.getLogger(__name__)

# time.sleep() on a loaded box overshoots by hundreds of microseconds,
# and epoll rounds its timeout up to whole milliseconds; either would
# swamp sub-10ms emulated delays. So the loop's select() waits only until
# this margin before a due time, then the loop yield-spins the final
# stretch, polling its sockets so that a frame arriving meanwhile is
# stamped when it arrives.
_SPIN_WINDOW_S = 0.002


def _sleep_until(deadline: float) -> None:
    while time.perf_counter() < deadline:
        time.sleep(0)


@dataclass(slots=True, eq=False)
class Route:
    """Frames read from ``src`` go to ``dst`` as ``handler(frame)``, each
    no earlier than ``delay`` seconds after it arrived."""

    src: wire.Leg
    dst: wire.Leg
    delay: float
    handler: Callable[[wire.RawMessage], wire.RawMessage]
    reading: bool = True  # until ``src`` ends
    queued: int = 0  # frames read but not yet delivered
    writing: bool = True  # until ``dst`` is shut for writing


class RouteLoop:
    """A listener and every connection it accepts, served by one thread.

    A subclass gives each accepted socket its routes in ``_routes``; every
    leg must be the source of one route and the destination of one.
    """

    thread_name = "route-loop"

    def __init__(self, listen: tuple[str, int]):
        self.listen = listen
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def _routes(self, sock: socket.socket) -> list[Route]:
        raise NotImplementedError

    def start(self) -> "RouteLoop":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self.listen)
        listener.listen(64)
        listener.setblocking(False)
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, self._accept)
        # stop() writes a byte here to wake the loop from select().
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                lambda: self._wake_r.recv(64))
        self._due: list[tuple[float, int, Route, wire.RawMessage]] = []  # a heap
        self._arrivals = itertools.count()  # orders frames due at the same time
        self._reader: dict[wire.Leg, Route] = {}  # the route reading each open leg
        self._writer: dict[wire.Leg, Route] = {}  # the route writing to it
        self._stopping = False
        self._thread = threading.Thread(target=self._run, name=self.thread_name, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Close the listener and every connection; undelivered frames are dropped."""
        if self._thread is None or not self._thread.is_alive():
            return
        self._stopping = True
        self._wake_w.send(b"\0")
        self._thread.join()
        self._wake_r.close()
        self._wake_w.close()

    def _run(self) -> None:
        due = self._due
        while not self._stopping:
            timeout = None
            if due:
                timeout = due[0][0] - time.perf_counter() - _SPIN_WINDOW_S
                if timeout <= 0:
                    timeout = 0
                    time.sleep(0)  # spinning: yield, then poll the sockets
            for key, events in self._selector.select(timeout):
                if isinstance(key.data, wire.Leg):
                    self._on_event(key.data, events)
                else:
                    key.data()
            while due and due[0][0] <= time.perf_counter():
                at, _, route, m = heapq.heappop(due)
                _sleep_until(at)  # already due; perfbench hooks it to record `at`
                self._deliver(route, m)
        for leg in self._reader:
            leg.sock.close()
        self._listener.close()
        self._selector.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                log.error("accept failed: %s", exc)
                return
            try:
                routes = self._routes(sock)
            except OSError as exc:
                # This connection dies; the loop keeps serving the others.
                log.error("%s: cannot serve a connection: %s", self.thread_name, exc)
                sock.close()
                continue
            for route in routes:
                self._reader[route.src] = route
                self._writer[route.dst] = route
            for route in routes:
                self._settle(route.src)

    def _on_event(self, leg: wire.Leg, events: int) -> None:
        route = self._reader.get(leg)
        if route is None:
            return  # closed by an earlier event in the same batch
        if events & selectors.EVENT_WRITE:
            self._send(leg)
        if events & selectors.EVENT_READ and route.reading:
            try:
                more = leg.fill()
                arrived = time.perf_counter()
                while leg.frame_ready():
                    heapq.heappush(self._due, (arrived + route.delay, next(self._arrivals),
                                               route, wire.read_message(leg)))
                    route.queued += 1
            except (wire.WireError, OSError) as exc:
                log.debug("%s leg ended: %s", leg.name, exc)
                more = False
            route.reading = more
        self._settle(leg)
        self._settle(route.dst)

    def _deliver(self, route: Route, m: wire.RawMessage) -> None:
        route.queued -= 1
        if not route.writing:
            return
        try:
            reply = route.handler(m)
        except Exception:
            # Whatever a connection's input provokes, only that connection ends.
            log.exception("%s leg: handler failed", route.src.name)
            self._end(route)
            return
        wire.write_message(route.dst, reply)
        self._send(route.dst)
        self._settle(route.dst)

    def _send(self, leg: wire.Leg) -> None:
        try:
            leg.drain()
        except OSError as exc:
            log.debug("%s leg ended: %s", leg.name, exc)
            self._end(self._writer[leg])

    def _end(self, route: Route) -> None:
        """Stop a route whose destination can take nothing more."""
        route.reading = route.writing = False
        route.dst.outbuf.clear()
        self._settle(route.src)
        self._settle(route.dst)

    def _settle(self, leg: wire.Leg) -> None:
        """Shut the leg for writing once its writer has nothing left to send,
        close it once both directions have ended, else update its interest."""
        reader = self._reader.get(leg)
        if reader is None:
            return  # already closed
        writer = self._writer[leg]
        if writer.writing and not (writer.reading or writer.queued or leg.outbuf):
            writer.writing = False
            try:
                leg.sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        if reader.reading or writer.writing:
            events = selectors.EVENT_READ if reader.reading else 0
            leg.watch(self._selector, events | (selectors.EVENT_WRITE if leg.outbuf else 0), leg)
            return
        leg.watch(self._selector, 0, leg)
        leg.sock.close()
        del self._reader[leg], self._writer[leg]


class DelayPipe(RouteLoop):
    """TCP forwarder adding a fixed one-way delay in each direction."""

    thread_name = "pipe-loop"

    def __init__(self, target: tuple[str, int], oneway_ms: float,
                 listen: tuple[str, int] = ("127.0.0.1", 0)):
        if oneway_ms < 0:
            raise ValueError("oneway_ms must be >= 0")
        super().__init__(listen)
        self.target = target
        self.oneway_s = oneway_ms / 1000.0

    def _routes(self, sock: socket.socket) -> list[Route]:
        # A blocking connect on the loop thread: the lab's targets are
        # local, so it returns at once.
        far_sock = socket.create_connection(self.target, timeout=5.0)
        near, far = wire.Leg(sock, "near"), wire.Leg(far_sock, "far")
        return [Route(near, far, self.oneway_s, _unchanged),
                Route(far, near, self.oneway_s, _unchanged)]


def _unchanged(m: wire.RawMessage) -> wire.RawMessage:
    return m
